# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e01, p_e02, p_e03, p_e04, p_e05, p_e06, p_e07, p_g0, p_g1):
    t0 = 1 - p_g1
    t1 = 1 - p_e01
    t2 = 1 - p_e04
    t3 = t2 * p_e05
    t4 = p_e04 + t3
    t5 = t1 * t4
    t6 = p_e01 + t5
    t7 = t0 * t6
    t8 = p_g1 + t7
    t9 = p_g0 * t8
    t10 = 1 - p_g0
    t11 = 1 - p_e02
    t12 = 1 - p_e05
    t13 = t12 * p_e06
    t14 = p_e05 + t13
    t15 = p_e03 * t14
    t16 = 1 - p_e03
    t17 = p_e06 * p_e07
    t18 = t12 * t17
    t19 = p_e05 + t18
    t20 = t16 * t19
    t21 = t15 + t20
    t22 = t11 * t21
    t23 = p_e02 + t22
    t24 = p_e00 * t23
    t25 = 1 - p_e00
    t26 = t16 * p_e05
    t27 = t15 + t26
    t28 = t11 * t27
    t29 = p_e02 + t28
    t30 = t25 * t29
    t31 = t24 + t30
    t32 = p_g1 * t31
    t33 = p_e04 * t14
    t34 = t33 + t3
    t35 = p_e03 * t34
    t36 = p_e04 * t19
    t37 = t36 + t3
    t38 = t16 * t37
    t39 = t35 + t38
    t40 = t11 * t39
    t41 = p_e02 + t40
    t42 = p_e01 * t41
    t43 = p_e02 * t4
    t44 = t43 + t40
    t45 = t1 * t44
    t46 = t42 + t45
    t47 = p_e00 * t46
    t48 = t35 + t26
    t49 = t11 * t48
    t50 = p_e02 + t49
    t51 = p_e01 * t50
    t52 = t43 + t49
    t53 = t1 * t52
    t54 = t51 + t53
    t55 = t25 * t54
    t56 = t47 + t55
    t57 = t0 * t56
    t58 = t32 + t57
    t59 = t10 * t58
    t60 = t9 + t59
    return t60


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
