# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e01, p_e02, p_e03, p_e05, p_e06, p_e07, p_e08, p_g0):
    t0 = 1 - p_g0
    t1 = 1 - p_e00
    t2 = 1 - p_e02
    t3 = 1 - p_e07
    t4 = t3 * p_e08
    t5 = p_e07 + t4
    t6 = p_e05 * t5
    t7 = 1 - p_e05
    t8 = t7 * p_e07
    t9 = t6 + t8
    t10 = p_e03 * t9
    t11 = t2 * t10
    t12 = p_e02 + t11
    t13 = p_e01 * t12
    t14 = 1 - p_e01
    t15 = 1 - p_e06
    t16 = t15 * t5
    t17 = p_e06 + t16
    t18 = p_e05 * t17
    t19 = t18 + t8
    t20 = p_e03 * t19
    t21 = 1 - p_e03
    t22 = t21 * t18
    t23 = t20 + t22
    t24 = p_e02 * t23
    t25 = t24 + t11
    t26 = t14 * t25
    t27 = t13 + t26
    t28 = t1 * t27
    t29 = p_e00 + t28
    t30 = t0 * t29
    t31 = p_g0 + t30
    return t31


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
