"""A fixed pure-Python computation that run.py times next to the program.

    python3 perfbench/reference.py

It multiplies elements of the cyclotomic field Q(zeta_7), stored as tuples
of Fractions in the power basis, composes permutations and looks them up in
a dict: the kinds of work the charcorr layers do, with none of charcorr's
code, so no change to the program changes its time.  It checks its own result
and exits 1 if that is wrong.  Run as a fresh interpreter, like every program
sample, it measures how fast the host runs Python at that moment.
"""

import sys
from fractions import Fraction
from itertools import permutations

PHI = 6  # degree of Q(zeta_7)
EXPECTED = (736, 921969)  # the sum of all products is the square of the sum of the values


def reduction_rows() -> dict[int, list[int]]:
    """x^j for PHI <= j < 2 PHI - 1 in the basis 1, x, ..., x^5, using x^6 = -(1 + ... + x^5)."""
    rows = {}
    for j in range(PHI, 2 * PHI - 1):
        v = [0] * (2 * PHI - 1)
        v[j] = 1
        for k in range(j, PHI - 1, -1):
            c = v[k]
            if c:
                v[k] = 0
                for i in range(k - PHI, k):
                    v[i] -= c
        rows[j] = v[:PHI]
    return rows


def multiply(a: tuple, b: tuple, rows: dict[int, list[int]]) -> tuple:
    prod = [Fraction(0)] * (2 * PHI - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:PHI]
    for j in range(PHI, 2 * PHI - 1):
        c = prod[j]
        if c:
            for i, r in enumerate(rows[j]):
                if r:
                    out[i] += c * r
    return tuple(out)


def main() -> int:
    rows = reduction_rows()
    vals = [
        tuple(Fraction((7 * i + k) % 5 - 1, 1 + (i + k) % 3) for k in range(PHI)) for i in range(45)
    ]
    acc = (Fraction(0),) * PHI
    for a in vals:
        for b in vals:
            acc = tuple(x + y for x, y in zip(acc, multiply(a, b, rows)))
    perms = list(permutations(range(6)))
    index = {p: i for i, p in enumerate(perms)}
    h = 0
    for a in perms[::3]:
        for b in perms[::37]:
            h ^= index[tuple(a[x] for x in b)]
    result = (h, sum(x.numerator * 31**i for i, x in enumerate(acc)) % 1_000_003)
    print(*result)
    return 0 if result == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
