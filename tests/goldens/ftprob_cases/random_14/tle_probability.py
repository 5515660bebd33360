# generated by mbsa 0.1.0; do not edit

def tle_probability(p_e00, p_e01, p_e03, p_e06):
    t0 = 1 - p_e01
    t1 = 1 - p_e03
    t2 = t1 * p_e06
    t3 = p_e03 + t2
    t4 = t0 * t3
    t5 = p_e01 + t4
    t6 = p_e00 * t5
    t7 = 1 - p_e00
    t8 = t0 * p_e06
    t9 = p_e01 + t8
    t10 = t7 * t9
    t11 = t6 + t10
    return t11


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
