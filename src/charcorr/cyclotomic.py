"""Exact cyclotomic numbers: Q(zeta_n) in the power basis mod the n-th
cyclotomic polynomial, with rational (Fraction) coefficients.

Every value is stored in one form: at its least conductor n, which is
canonical (n = 1 or n not congruent to 2 mod 4), with its coordinates in the
power basis of Q(zeta_n).  The constructor establishes this: a rational value
collapses to conductor 1, and any other is moved to the least canonical
divisor d of n with the value in Q(zeta_d).  Equality, hashing, ordering and
rendering then read the stored fields directly, and rational fast paths fire
throughout.  Everything here is immutable and pure.

All power-basis work goes through ``power_basis(n)``, one cached context per
conductor: its row table holds x^j mod Phi_n, ``substitute`` rewrites
sum_i c_i zeta_n^(i*k) in the basis (embedding into a larger conductor,
with or without complex conjugation) and ``reduce`` takes a product
polynomial mod Phi_n.  ``root_sum`` builds sum_k c_k zeta_m^k and is the one
place where a root of unity of order 2 mod 4 is folded into the odd
conductor with a sign.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm


# -- small number theory --------------------------------------------------------


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


@lru_cache(maxsize=None)
def _subfield_conductors(n: int) -> tuple[int, ...]:
    """The canonical conductors d with 1 < d < n dividing n, ascending."""
    return tuple(d for d in divisors(n)[1:-1] if d % 4 != 2)


def primitive_root(q: int) -> int:
    """Smallest positive primitive root modulo a prime q."""
    if q == 2:
        return 1
    factors = prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root found mod {q}")


def dixon_prime(exponent: int, order: int) -> int:
    """Smallest prime q with q = 1 mod exponent and q > 2*ceil(sqrt(order)).

    The congruence makes F_q contain all needed roots of unity; the size
    bound makes degrees and root-of-unity multiplicities lift uniquely.
    """
    c = isqrt(order)
    if c * c < order:
        c += 1
    bound = 2 * c
    q = bound + 1 + ((1 - (bound + 1)) % exponent)
    if q <= bound:
        q += exponent
    while not is_prime(q):
        q += exponent
    return q


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending, monic."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d == n:
            continue
        poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _polydiv_exact(num: list[int], den) -> list[int]:
    num = list(num)
    den = list(den)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coef = num[shift + len(den) - 1]  # den is monic
        out[shift] = coef
        if coef:
            for i, d in enumerate(den):
                num[shift + i] -= coef * d
    if any(num):
        raise RuntimeError("cyclotomic polynomial division left a remainder")
    return out


# -- per-conductor reduction context --------------------------------------------


class _Context:
    """Power-basis data for one conductor n.

    ``rows[j]`` holds the coefficients of x^j mod Phi_n for 0 <= j <
    max(n, 2*phi), built by one recurrence from x^0: that covers every
    exponent mod n and every product of two basis elements.  Substitution
    and reduction anywhere in the package go through the two methods below.
    """

    def __init__(self, n: int):
        if n != 1 and n % 4 == 2:
            raise ValueError(f"non-canonical conductor {n}")
        self.n = n
        self.phi = phi = euler_phi(n)
        top = tuple(-c for c in cyclotomic_polynomial(n)[:phi])  # x^phi = top
        row = (1,) + (0,) * (phi - 1)
        self.rows = []
        for _ in range(max(n, 2 * phi)):
            self.rows.append(row)
            lead = row[-1]
            row = tuple(s + lead * t for s, t in zip((0,) + row[:-1], top))

    def substitute(self, coeffs, k: int) -> list:
        """Power-basis coefficients of sum_i coeffs[i] * zeta_n^(i*k)."""
        n, rows = self.n, self.rows
        out = [0] * self.phi
        for i, c in enumerate(coeffs):
            if c:
                for j, r in enumerate(rows[i * k % n]):
                    if r:
                        out[j] += c * r
        return out

    def reduce(self, poly) -> list:
        """A polynomial of degree < 2*phi in x = zeta_n, reduced mod Phi_n."""
        phi = self.phi
        out = list(poly[:phi])
        for j in range(phi, len(poly)):
            c = poly[j]
            if c:
                for i, r in enumerate(self.rows[j]):
                    if r:
                        out[i] += c * r
        return out


@lru_cache(maxsize=None)
def power_basis(n: int) -> _Context:
    """The shared power-basis context of the canonical conductor n."""
    return _Context(n)


# -- the number type -------------------------------------------------------------


class Cyc:
    """An exact element of Q(zeta_n), stored at its least conductor; immutable."""

    __slots__ = ("n", "coeffs", "_min", "_hash")

    def __init__(self, n: int, coeffs):
        if n < 1 or n % 4 == 2:
            raise ValueError(f"non-canonical conductor {n}")
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(n):
            raise ValueError(f"Q(zeta_{n}) needs {euler_phi(n)} coefficients, got {len(coeffs)}")
        if n > 1 and not any(coeffs[1:]):
            n, coeffs = 1, (coeffs[0],)
        for d in _subfield_conductors(n):  # rationals collapsed above, so no d = 1
            sol = _express_in_subfield(n, coeffs, d)
            if sol is not None:
                n, coeffs = d, tuple(sol)
                break
        self.n = n
        self.coeffs = coeffs
        self._min = None
        self._hash = None

    # construction helpers

    @staticmethod
    def rational(x) -> "Cyc":
        return Cyc(1, (Fraction(x),))

    @staticmethod
    def zero() -> "Cyc":
        return _ZERO

    # conversions

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return self.n == 1 and self.coeffs[0] == 0

    def __bool__(self):
        return not self.is_zero()

    # arithmetic

    def _embedded(self, m: int) -> tuple[Fraction, ...]:
        """Coefficients of this value inside Q(zeta_m), n | m."""
        if m == self.n:
            return self.coeffs
        return tuple(power_basis(m).substitute(self.coeffs, m // self.n))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return Cyc(1, (self.coeffs[0] + other.coeffs[0],))
        if self.n == 1:
            return Cyc(other.n, (other.coeffs[0] + self.coeffs[0],) + other.coeffs[1:])
        if other.n == 1:
            return Cyc(self.n, (self.coeffs[0] + other.coeffs[0],) + self.coeffs[1:])
        m = lcm(self.n, other.n)
        a, b = self._embedded(m), other._embedded(m)
        return Cyc(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1:
            r = self.coeffs[0]
            return Cyc(other.n, tuple(r * c for c in other.coeffs))
        if other.n == 1:
            r = other.coeffs[0]
            return Cyc(self.n, tuple(r * c for c in self.coeffs))
        m = lcm(self.n, other.n)
        a, b = self._embedded(m), other._embedded(m)
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyc(m, power_basis(m).reduce(prod))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            # a rational value hashes as the number it equals
            self._hash = hash(self.coeffs[0] if self.n == 1 else self.min_form())
        return self._hash

    # integer key, ordering

    def min_form(self) -> tuple:
        """(n, (numerator, denominator) per coefficient): the stored form as ints.

        Cached, since hashing, sorting and the pairing engine key values by it.
        """
        if self._min is None:
            self._min = (self.n, tuple((c.numerator, c.denominator) for c in self.coeffs))
        return self._min

    def sort_key(self) -> tuple:
        """Total order for deterministic tie-breaks; 1 sorts before everything."""
        if self.n == 1 and self.coeffs[0] == 1:
            return (0,)
        d, pairs = self.min_form()
        return (1, d, pairs)

    def __repr__(self):
        return f"Cyc({render_cyc(self)})"


def _coerce(x):
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc(1, (Fraction(x),))
    return NotImplemented


_ZERO = Cyc(1, (Fraction(0),))


def _express_in_subfield(n: int, coeffs, d: int):
    """Coefficients in the power basis of Q(zeta_d) of the element of Q(zeta_n)
    with power-basis coefficients ``coeffs``, or None if it is not in Q(zeta_d)."""
    ctx = power_basis(n)
    phid = euler_phi(d)
    step = n // d
    basis = [ctx.rows[i * step] for i in range(phid)]
    # Solve sum_i c_i basis[i] = coeffs by Gaussian elimination over Q.
    rows = [[Fraction(basis[i][j]) for i in range(phid)] + [coeffs[j]] for j in range(ctx.phi)]
    ncols = phid
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for r in range(pivot_row, len(rows)):
        if rows[r][ncols]:
            return None  # inconsistent: value not in the subfield
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = rows[i][ncols]
    return sol


# -- public operations -------------------------------------------------------------


def root_of_unity(n: int, k: int = 1) -> Cyc:
    """zeta_n^k."""
    if n <= 0:
        raise ValueError("order must be positive")
    return root_sum(n, [0] * (k % n) + [1])


def root_sum(m: int, counts) -> Cyc:
    """sum_k counts[k] * zeta_m^k, built at the canonical conductor of m (the
    constructor then stores it at its least one)."""
    k = 1
    if m % 4 == 2:
        # zeta_m = -zeta_c^((c+1)/2) with c = m/2 odd, so zeta_m^i picks up (-1)^i
        m //= 2
        k = (m + 1) // 2
        counts = [-x if i % 2 else x for i, x in enumerate(counts)]
    return Cyc(m, power_basis(m).substitute(counts, k))


def sqrt_minus3() -> Cyc:
    """The pinned square root of -3: 1 + 2*zeta_3."""
    return Cyc.rational(1) + 2 * root_of_unity(3)


def render_cyc(v: Cyc) -> str:
    """Exact printer at the stored (least) conductor, e.g. '1+2*z3', '-1/2', 'z8^3'."""
    d, coeffs = v.n, v.coeffs
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
