# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e02, p_e03, p_e04, p_e05, p_e06, p_e07):
    t0 = 1 - p_e03
    t1 = 1 - p_e04
    t2 = t1 * p_e07
    t3 = p_e04 + t2
    t4 = t0 * t3
    t5 = p_e03 + t4
    t6 = p_e00 * t5
    t7 = 1 - p_e00
    t8 = 1 - p_e06
    t9 = t8 * p_e07
    t10 = p_e06 + t9
    t11 = p_e05 * t10
    t12 = 1 - p_e05
    t13 = t12 * p_e07
    t14 = t11 + t13
    t15 = p_e04 * t14
    t16 = t15 + t2
    t17 = t0 * t16
    t18 = p_e03 + t17
    t19 = p_e02 * t18
    t20 = 1 - p_e02
    t21 = t0 * p_e07
    t22 = p_e03 + t21
    t23 = t20 * t22
    t24 = t19 + t23
    t25 = t7 * t24
    t26 = t6 + t25
    return t26


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
