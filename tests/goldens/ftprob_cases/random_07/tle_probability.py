# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e01, p_e02, p_e03, p_e04, p_e05, p_e06, p_e07, p_g0, p_g1):
    t0 = 1 - p_e01
    t1 = 1 - p_e03
    t2 = t1 * p_e07
    t3 = p_e03 + t2
    t4 = t0 * t3
    t5 = p_e01 + t4
    t6 = p_g1 * t5
    t7 = 1 - p_g1
    t8 = 1 - p_e02
    t9 = 1 - p_e05
    t10 = t9 * p_e07
    t11 = p_e05 + t10
    t12 = p_e03 * t11
    t13 = t12 + t2
    t14 = t8 * t13
    t15 = p_e02 + t14
    t16 = p_e01 * t15
    t17 = p_e02 * t3
    t18 = t17 + t14
    t19 = t0 * t18
    t20 = t16 + t19
    t21 = t7 * t20
    t22 = t6 + t21
    t23 = p_g0 * t22
    t24 = 1 - p_g0
    t25 = 1 - p_e04
    t26 = t25 * t11
    t27 = p_e04 + t26
    t28 = p_e03 * t27
    t29 = p_e05 * p_e06
    t30 = t25 * t29
    t31 = p_e04 + t30
    t32 = t1 * t31
    t33 = t28 + t32
    t34 = p_e01 * t33
    t35 = p_e06 * p_e07
    t36 = p_e04 * t35
    t37 = t1 * t36
    t38 = t28 + t37
    t39 = t0 * t38
    t40 = t34 + t39
    t41 = p_e00 * t40
    t42 = 1 - p_e00
    t43 = t0 * t28
    t44 = t34 + t43
    t45 = t42 * t44
    t46 = t41 + t45
    t47 = p_g1 * t46
    t48 = p_e02 * t33
    t49 = t12 + t37
    t50 = t8 * t49
    t51 = t48 + t50
    t52 = p_e01 * t51
    t53 = p_e02 * t38
    t54 = t53 + t50
    t55 = t0 * t54
    t56 = t52 + t55
    t57 = p_e00 * t56
    t58 = t8 * t12
    t59 = t48 + t58
    t60 = p_e01 * t59
    t61 = p_e02 * t28
    t62 = t61 + t58
    t63 = t0 * t62
    t64 = t60 + t63
    t65 = t42 * t64
    t66 = t57 + t65
    t67 = t7 * t66
    t68 = t47 + t67
    t69 = t24 * t68
    t70 = t23 + t69
    return t70


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
