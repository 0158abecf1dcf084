"""Reference for the least conductor of a cyclotomic value, by Galois theory,
and the Galois action itself.

Q(zeta_d) is the subfield of Q(zeta_N) fixed by the automorphisms
zeta_N -> zeta_N^k with k = 1 mod d, so the least conductor of an element of
Q(zeta_N) is the least canonical d dividing N whose automorphisms all fix it.
Only ``power_basis(N).substitute`` is used there: nothing in
``least_conductor`` or ``reference_conductor`` goes through the ``Cyc``
constructor or its subfield search.  ``galois`` and ``conj`` apply
zeta_n -> zeta_n^k and complex conjugation to a value; no command needs
them, so they live here rather than on ``Cyc``.
"""

from math import gcd

from charcorr.cyclotomic import Cyc, power_basis


def least_conductor(N: int, coeffs) -> int:
    """Least conductor of the element of Q(zeta_N) with power-basis ``coeffs``."""
    basis = power_basis(N)
    coeffs = list(coeffs)
    units = [k for k in range(1, N + 1) if gcd(k, N) == 1]
    for d in range(1, N + 1):
        if N % d == 0 and d % 4 != 2:
            if all(basis.substitute(coeffs, k) == coeffs for k in units if k % d == 1 % d):
                return d
    raise AssertionError("unreachable: d = N is fixed by the identity alone")


def reference_conductor(value, N: int) -> int:
    """Least conductor of a Cyc, found inside Q(zeta_N) for a multiple N of its stored one."""
    if N % value.n:
        raise AssertionError(f"stored conductor {value.n} does not divide {N}")
    return least_conductor(N, power_basis(N).substitute(value.coeffs, N // value.n))


def galois(value: Cyc, k: int) -> Cyc:
    """Apply zeta_n -> zeta_n^k to a value of conductor n; requires gcd(k, n) = 1."""
    n = value.n
    if n == 1:
        return value
    k %= n
    if gcd(k, n) != 1:
        raise ValueError(f"galois exponent {k} not coprime to conductor {n}")
    if k == 1:
        return value
    return Cyc(n, power_basis(n).substitute(value.coeffs, k))


def conj(value: Cyc) -> Cyc:
    """Complex conjugation: zeta -> zeta^-1."""
    return galois(value, value.n - 1) if value.n > 1 else value
