"""Fixed reference workload that measures the machine's current speed.

Usage: python reference.py

run.py times this script between program processes.  It does what a
siegel2 process spends its time on, with no code of siegel2: a fresh
interpreter start, the standard-library imports, then big-integer and
Fraction arithmetic, tuple-keyed dicts and text parsing.  No change to the
program moves its time.
"""

import argparse  # noqa: F401  imported for its cost, as siegel2.cli does
import json  # noqa: F401
import re  # noqa: F401
from fractions import Fraction


def work() -> int:
    acc, x, table = 0, 3 ** 40, {}
    for i in range(4000):
        acc = (acc * x + i) % (2 ** 127 - 1)
        table[(i % 97, i % 89)] = acc
        acc ^= int(f"{acc}"[:10])
    q = Fraction(0)
    for i in range(1, 350):
        q = q * Fraction(3, 7) + Fraction(f"{i * 7919 % 10007}/{i}")
        table[(i % 31, i % 37, -i % 41)] = q.numerator % 1000003
    for i in range(800):
        m, n, r, value = f"{i} {i % 7} {-i % 5} {i * i * 7919}/{i + 1}".split()
        num, den = value.split("/")
        table[(int(m), int(n), int(r))] = int(num) * 3 % (int(den) + 1)
    return len(table)


if __name__ == "__main__":
    work()
