# generated by mbsa 0.1.0; do not edit

def tle_probability():
    return 0


if __name__ == "__main__":
    import sys
    print(tle_probability(*map(float, sys.argv[1:])))
