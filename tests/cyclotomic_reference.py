"""Reference for the least conductor of a cyclotomic value, by Galois theory,
the Galois action itself, and a Fraction-based model of the arithmetic.

Q(zeta_d) is the subfield of Q(zeta_N) fixed by the automorphisms
zeta_N -> zeta_N^k with k = 1 mod d, so the least conductor of an element of
Q(zeta_N) is the least canonical d dividing N whose automorphisms all fix it.
Only ``power_basis(N).substitute`` is used there: nothing in
``least_conductor`` or ``reference_conductor`` goes through the ``Cyc``
constructor or its subfield search.  ``galois`` and ``conj`` apply
zeta_n -> zeta_n^k and complex conjugation to a value; no command needs
them, so they live here rather than on ``Cyc``.

The model keeps a value as (N, Fraction coordinates in the power basis of
Q(zeta_N)) at whatever conductor it was built: sums and products work at
the lcm of the two conductors, and only ``least_form`` moves a value to its
least conductor, found by ``least_conductor`` and solved for by Gaussian
elimination over Q.  ``render`` prints that form as ``render_cyc`` must.
Against it ``Cyc``, with its integer coordinates and fraction-free subfield
search, is checked.
"""

from fractions import Fraction
from math import gcd, lcm

from charcorr.cyclotomic import Cyc, euler_phi, power_basis


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


# -- the Fraction model ----------------------------------------------------------------


def model(n: int, coeffs) -> tuple:
    """The value sum_i coeffs[i] zeta_n^i, n canonical, as (n, Fraction coordinates)."""
    return n, tuple(Fraction(c) for c in coeffs)


def _at(value, m: int) -> list:
    n, coeffs = value
    return list(coeffs) if m == n else power_basis(m).substitute(coeffs, m // n)


def model_add(a, b) -> tuple:
    m = lcm(a[0], b[0])
    return m, tuple(x + y for x, y in zip(_at(a, m), _at(b, m)))


def model_neg(a) -> tuple:
    return a[0], tuple(-c for c in a[1])


def model_mul(a, b) -> tuple:
    m = lcm(a[0], b[0])
    x, y = _at(a, m), _at(b, m)
    prod = [Fraction(0)] * (2 * len(x) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            prod[i + j] += u * v
    return m, tuple(power_basis(m).reduce(prod))


def model_equal(a, b) -> bool:
    m = lcm(a[0], b[0])
    return _at(a, m) == _at(b, m)


def least_form(a) -> tuple:
    """(least conductor d, Fraction coordinates in the power basis of Q(zeta_d))."""
    n, coeffs = a
    d = least_conductor(n, coeffs)
    step, k = n // d, euler_phi(d)
    rows = power_basis(n).rows
    # columns: zeta_d^i = zeta_n^(i*step) for i < phi(d), then the value
    system = [
        [Fraction(rows[i * step][j]) for i in range(k)] + [coeffs[j]] for j in range(len(coeffs))
    ]
    for col in range(k):
        pivot = next(r for r in range(col, len(system)) if system[r][col])
        system[col], system[pivot] = system[pivot], system[col]
        system[col] = [x / system[col][col] for x in system[col]]
        for r, row in enumerate(system):
            if r != col and row[col]:
                system[r] = [x - row[col] * y for x, y in zip(row, system[col])]
    if any(row[k] for row in system[k:]):
        raise AssertionError(f"value not in Q(zeta_{d}), its least conductor")
    return d, tuple(row[k] for row in system[:k])


def render(a) -> str:
    """The value printed at its least conductor: '1+2*z3', '-1/2', '1/2*z8^3'."""
    d, coeffs = least_form(a)
    if d == 1:
        return str(coeffs[0])
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        base = f"z{d}" if k == 1 else f"z{d}^{k}"
        if k == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(base)
        elif c == -1:
            parts.append("-" + base)
        else:
            parts.append(f"{c}*{base}")
    return "+".join(parts).replace("+-", "-")
