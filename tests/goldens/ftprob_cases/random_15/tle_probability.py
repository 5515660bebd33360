# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e02, p_e03, p_e04, p_g0, p_g1):
    t0 = 1 - p_g1
    t1 = 1 - p_e03
    t2 = t1 * p_e04
    t3 = p_e03 + t2
    t4 = p_e00 * t3
    t5 = 1 - p_e00
    t6 = t5 * p_e03
    t7 = t4 + t6
    t8 = t0 * t7
    t9 = p_g1 + t8
    t10 = p_g0 * t9
    t11 = 1 - p_g0
    t12 = p_e02 * t3
    t13 = 1 - p_e02
    t14 = p_e03 * p_e04
    t15 = t13 * t14
    t16 = t12 + t15
    t17 = p_e00 * t16
    t18 = p_e02 * p_e03
    t19 = t5 * t18
    t20 = t17 + t19
    t21 = t0 * t20
    t22 = p_g1 + t21
    t23 = t11 * t22
    t24 = t10 + t23
    return t24


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
