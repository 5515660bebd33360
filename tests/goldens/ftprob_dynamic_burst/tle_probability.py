# generated by mbsa 0.1.0; do not edit

def tle_probability(p_burst, p_f1, p_f2):
    t0 = 1 - p_burst
    t1 = p_f1 * p_f2
    t2 = t0 * t1
    t3 = p_burst + t2
    return t3


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
