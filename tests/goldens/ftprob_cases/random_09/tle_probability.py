# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e01, p_e02, p_e03, p_e04, p_e06, p_e07, p_e09, p_g0, p_g1):
    t0 = 1 - p_e01
    t1 = 1 - p_e03
    t2 = t1 * p_e04
    t3 = p_e03 + t2
    t4 = t0 * t3
    t5 = p_e01 + t4
    t6 = p_g1 * t5
    t7 = 1 - p_g1
    t8 = 1 - p_e07
    t9 = t8 * p_e09
    t10 = p_e07 + t9
    t11 = t1 * t10
    t12 = p_e03 + t11
    t13 = p_e01 * t12
    t14 = p_e04 * p_e07
    t15 = t1 * t14
    t16 = p_e03 + t15
    t17 = t0 * t16
    t18 = t13 + t17
    t19 = p_e00 * t18
    t20 = 1 - p_e00
    t21 = t1 * p_e09
    t22 = p_e03 + t21
    t23 = p_e01 * t22
    t24 = t20 * t23
    t25 = t19 + t24
    t26 = t7 * t25
    t27 = t6 + t26
    t28 = p_g0 * t27
    t29 = 1 - p_g0
    t30 = p_e02 * t3
    t31 = 1 - p_e02
    t32 = t31 * p_e04
    t33 = t30 + t32
    t34 = t0 * t33
    t35 = p_e01 + t34
    t36 = p_g1 * t35
    t37 = p_e06 * t10
    t38 = t1 * t37
    t39 = p_e03 + t38
    t40 = p_e02 * t39
    t41 = p_e03 * p_e06
    t42 = t41 + t38
    t43 = t31 * t42
    t44 = t40 + t43
    t45 = p_e01 * t44
    t46 = p_e06 * p_e07
    t47 = p_e04 * t46
    t48 = t1 * t47
    t49 = p_e03 + t48
    t50 = p_e02 * t49
    t51 = t31 * t47
    t52 = t50 + t51
    t53 = t0 * t52
    t54 = t45 + t53
    t55 = p_e00 * t54
    t56 = p_e06 * p_e09
    t57 = t1 * t56
    t58 = t41 + t57
    t59 = p_e01 * t58
    t60 = t20 * t59
    t61 = t55 + t60
    t62 = t7 * t61
    t63 = t36 + t62
    t64 = t29 * t63
    t65 = t28 + t64
    return t65


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
