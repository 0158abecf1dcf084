"""Exact cyclotomic numbers: Q(zeta_n) in the power basis mod the n-th
cyclotomic polynomial, with rational (Fraction) coefficients.

Conductors are kept canonical: n = 1 or n not congruent to 2 mod 4 (a root
of unity of such an order is folded into the odd conductor with a sign).
Values whose higher coefficients vanish collapse eagerly to conductor 1, so
rational fast paths fire throughout.  Everything here is immutable and pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, gcd, isqrt, lcm, pi, sin

Rat = Fraction  # exact rational scalars; reduced, positive denominator


# -- small number theory --------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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
    """Power-basis data for one conductor: phi, Phi_n, and x^j reduction rows."""

    def __init__(self, n: int):
        if n != 1 and n % 4 == 2:
            raise ValueError(f"non-canonical conductor {n}")
        self.n = n
        self.phi = euler_phi(n)
        self.poly = cyclotomic_polynomial(n)
        rows = [
            tuple(1 if i == j else 0 for i in range(self.phi)) for j in range(self.phi)
        ]
        top = tuple(-c for c in self.poly[: self.phi])  # x^phi = top
        for _ in range(self.phi, 2 * self.phi):
            prev = rows[-1]
            lead = prev[self.phi - 1]
            shifted = (0,) + prev[: self.phi - 1]
            rows.append(tuple(s + lead * t for s, t in zip(shifted, top)))
        self.rows = rows  # x^j mod Phi_n for 0 <= j < 2*phi

    def power_row(self, j: int) -> tuple[int, ...]:
        j %= self.n if self.n > 1 else 1
        if j < len(self.rows):
            return self.rows[j]
        while len(self.rows) <= j:
            prev = self.rows[-1]
            lead = prev[self.phi - 1]
            shifted = (0,) + prev[: self.phi - 1]
            top = tuple(-c for c in self.poly[: self.phi])
            self.rows.append(tuple(s + lead * t for s, t in zip(shifted, top)))
        return self.rows[j]


@lru_cache(maxsize=None)
def _ctx(n: int) -> _Context:
    return _Context(n)


def _canonical_conductor(n: int) -> int:
    return n // 2 if n > 1 and n % 4 == 2 else n


# -- the number type -------------------------------------------------------------


class Cyc:
    """An exact element of Q(zeta_n); immutable."""

    __slots__ = ("n", "coeffs", "_min", "_hash")

    def __init__(self, n: int, coeffs):
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(n):
            raise ValueError(f"Q(zeta_{n}) needs {euler_phi(n)} coefficients, got {len(coeffs)}")
        if n > 1 and not any(coeffs[1:]):
            n, coeffs = 1, (coeffs[0],)
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

    @staticmethod
    def one() -> "Cyc":
        return _ONE

    # predicates / conversions

    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def as_fraction(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return self.n == 1 and self.coeffs[0] == 0

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        """Floating approximation; for human-readable output only."""
        return sum(
            float(c) * complex(cos(2 * pi * i / self.n), sin(2 * pi * i / self.n))
            for i, c in enumerate(self.coeffs)
        )

    # arithmetic

    def _embedded(self, m: int) -> tuple[Fraction, ...]:
        """Coefficients of this value inside Q(zeta_m), n | m."""
        if m == self.n:
            return self.coeffs
        ctx = _ctx(m)
        step = m // self.n
        out = [Fraction(0)] * ctx.phi
        for i, c in enumerate(self.coeffs):
            if c:
                for j, r in enumerate(ctx.power_row(i * step)):
                    if r:
                        out[j] += c * r
        return tuple(out)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return Cyc(1, (self.coeffs[0] + other.coeffs[0],))
        if self.n == other.n:
            return Cyc(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))
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
        ctx = _ctx(m)
        prod = [Fraction(0)] * (2 * ctx.phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        out = list(prod[: ctx.phi])
        for j in range(ctx.phi, 2 * ctx.phi - 1):
            c = prod[j]
            if c:
                for i, r in enumerate(ctx.rows[j]):
                    if r:
                        out[i] += c * r
        return Cyc(m, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == other.n:
            return self.coeffs == other.coeffs
        m = lcm(self.n, other.n)
        return self._embedded(m) == other._embedded(m)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.min_form())
        return self._hash

    # Galois action

    def galois(self, k: int) -> "Cyc":
        """Apply zeta_n -> zeta_n^k; requires gcd(k, n) = 1."""
        n = self.n
        if n == 1:
            return self
        k %= n
        if gcd(k, n) != 1:
            raise ValueError(f"galois exponent {k} not coprime to conductor {n}")
        if k == 1:
            return self
        ctx = _ctx(n)
        out = [Fraction(0)] * ctx.phi
        for i, c in enumerate(self.coeffs):
            if c:
                for j, r in enumerate(ctx.power_row(i * k)):
                    if r:
                        out[j] += c * r
        return Cyc(n, tuple(out))

    def conj(self) -> "Cyc":
        """Complex conjugation: zeta -> zeta^-1."""
        return self.galois(self.n - 1) if self.n > 1 else self

    # canonical minimal form, rendering, ordering

    def min_form(self) -> tuple:
        """(d, coefficient pairs) at the least conductor d containing the value."""
        if self._min is None:
            self._min = self._compute_min_form()
        return self._min

    def _compute_min_form(self) -> tuple:
        if self.n == 1:
            c = self.coeffs[0]
            return (1, ((c.numerator, c.denominator),))
        for d in divisors(self.n):
            if d != 1 and d % 4 == 2:
                continue
            if d == self.n:
                break
            sol = _express_in_subfield(self, d)
            if sol is not None:
                return (d, tuple((c.numerator, c.denominator) for c in sol))
        return (self.n, tuple((c.numerator, c.denominator) for c in self.coeffs))

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
_ONE = Cyc(1, (Fraction(1),))


def _express_in_subfield(value: Cyc, d: int):
    """Coefficients of value in the power basis of Q(zeta_d), or None."""
    n = value.n
    ctx = _ctx(n)
    phid = euler_phi(d)
    step = n // d
    basis = [ctx.power_row(i * step) for i in range(phid)]
    # Solve sum_i c_i basis[i] = value.coeffs by Gaussian elimination over Q.
    rows = [[Fraction(basis[i][j]) for i in range(phid)] + [value.coeffs[j]] for j in range(ctx.phi)]
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
    """zeta_n^k, stored at its canonical conductor."""
    if n <= 0:
        raise ValueError("order must be positive")
    k %= n
    g = gcd(n, k) if k else n
    n, k = n // g, k // g
    if n == 1:
        return _ONE
    if n % 4 == 2:
        # zeta_{2m}^k = -zeta_m^{(k+m)/2} for odd k, m odd
        m = n // 2
        return -root_of_unity(m, ((k + m) // 2) % m)
    ctx = _ctx(n)
    return Cyc(n, ctx.power_row(k))


def sqrt_minus3() -> Cyc:
    """The pinned square root of -3: 1 + 2*zeta_3."""
    return Cyc.rational(1) + 2 * root_of_unity(3)


def render_cyc(v: Cyc) -> str:
    """Exact printer: minimal conductor, e.g. '1+2*z3', '-1/2', 'z8^3'."""
    d, pairs = v.min_form()
    coeffs = [Fraction(num, den) for num, den in pairs]
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
