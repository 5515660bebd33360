# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e02, p_e04, p_e06, p_g0):
    t0 = 1 - p_e00
    t1 = t0 * p_e04
    t2 = p_e00 + t1
    t3 = p_g0 * t2
    t4 = 1 - p_g0
    t5 = 1 - p_e04
    t6 = t5 * p_e06
    t7 = p_e04 + t6
    t8 = p_e02 * t7
    t9 = 1 - p_e02
    t10 = t9 * p_e04
    t11 = t8 + t10
    t12 = p_e00 * t11
    t13 = t12 + t1
    t14 = t4 * t13
    t15 = t3 + t14
    return t15


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
