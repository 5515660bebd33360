# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e01, p_e03, p_e04, p_e05, p_e07, p_e08, p_g0, p_g1, p_g2):
    t0 = 1 - p_g0
    t1 = 1 - p_e01
    t2 = 1 - p_e07
    t3 = t2 * p_e08
    t4 = p_e07 + t3
    t5 = p_e05 * t4
    t6 = 1 - p_e05
    t7 = t6 * p_e07
    t8 = t5 + t7
    t9 = t1 * t8
    t10 = p_e01 + t9
    t11 = p_g1 * t10
    t12 = 1 - p_g1
    t13 = 1 - p_e04
    t14 = p_e05 * p_e08
    t15 = p_e07 * p_e08
    t16 = t6 * t15
    t17 = t14 + t16
    t18 = t13 * t17
    t19 = p_e04 + t18
    t20 = p_e03 * t19
    t21 = 1 - p_e03
    t22 = t13 * t14
    t23 = p_e04 + t22
    t24 = t21 * t23
    t25 = t20 + t24
    t26 = p_e01 * t25
    t27 = p_e04 * t8
    t28 = t27 + t18
    t29 = p_e03 * t28
    t30 = t27 + t22
    t31 = t21 * t30
    t32 = t29 + t31
    t33 = t1 * t32
    t34 = t26 + t33
    t35 = p_g2 * t34
    t36 = 1 - p_g2
    t37 = p_e00 * t34
    t38 = 1 - p_e00
    t39 = p_e04 * t17
    t40 = t39 + t22
    t41 = p_e01 * t40
    t42 = t1 * t14
    t43 = t41 + t42
    t44 = t38 * t43
    t45 = t37 + t44
    t46 = t36 * t45
    t47 = t35 + t46
    t48 = t12 * t47
    t49 = t11 + t48
    t50 = t0 * t49
    t51 = p_g0 + t50
    return t51


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
