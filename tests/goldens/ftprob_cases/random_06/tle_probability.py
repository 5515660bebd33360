# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e01, p_e02, p_e04, p_e05, p_e07, p_e08):
    t0 = 1 - p_e05
    t1 = p_e07 * p_e08
    t2 = t0 * t1
    t3 = p_e05 + t2
    t4 = p_e04 * t3
    t5 = 1 - p_e04
    t6 = t5 * p_e05
    t7 = t4 + t6
    t8 = p_e01 * t7
    t9 = 1 - p_e01
    t10 = p_e05 * p_e08
    t11 = t10 + t2
    t12 = p_e04 * t11
    t13 = t5 * t10
    t14 = t12 + t13
    t15 = t9 * t14
    t16 = t8 + t15
    t17 = p_e00 * t16
    t18 = 1 - p_e00
    t19 = p_e02 * t14
    t20 = 1 - p_e02
    t21 = t20 * t10
    t22 = t19 + t21
    t23 = t18 * t22
    t24 = t17 + t23
    return t24


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
