"""Exact cyclotomic arithmetic and the table-prime search."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcorr.cyclotomic import (
    Cyc,
    cyclotomic_polynomial,
    dixon_prime,
    euler_phi,
    is_prime,
    power_basis,
    primitive_root,
    render_cyc,
    root_of_unity,
    root_sum,
    sqrt_minus3,
)
from cyclotomic_reference import (
    conj,
    galois,
    least_conductor,
    least_form,
    model,
    model_add,
    model_equal,
    model_mul,
    model_neg,
    reference_conductor,
    render,
)

CONDUCTORS = (3, 4, 8, 12, 24)


def zeta(n, k=1):
    return root_of_unity(n, k)


def cyc_from_coeffs(n, coeffs):
    """Z-linear combination of zeta_n powers."""
    acc = Cyc.rational(0)
    for k, c in enumerate(coeffs):
        if c:
            acc = acc + c * zeta(n, k)
    return acc


small_ints = st.integers(min_value=-6, max_value=6)


def triples(n):
    return st.tuples(*( [st.lists(small_ints, min_size=n, max_size=n)] * 3 ))


# -- pinned examples ----------------------------------------------------------------


def test_zeta3_relation():
    assert zeta(3) + zeta(3, 2) == -1


def test_pinned_sqrt_minus3():
    s = sqrt_minus3()
    assert s == 1 + 2 * zeta(3)
    assert s * s == -3


def test_galois_and_conj_on_zeta8():
    assert galois(zeta(8), 3) == zeta(8, 3)
    assert conj(zeta(8)) == zeta(8, 7)


def test_galois_requires_coprime():
    with pytest.raises(ValueError):
        galois(zeta(8), 2)


def test_dixon_prime_examples():
    assert dixon_prime(12, 24) == 13
    assert dixon_prime(1, 1) == 3
    assert dixon_prime(21, 21) == 43


def test_dixon_prime_contract():
    for e, n in ((12, 24), (36, 648), (7, 7), (4, 8), (21, 21)):
        q = dixon_prime(e, n)
        assert is_prime(q)
        assert q % e == 1
        assert q * q > 4 * n


def test_primitive_root_smallest():
    assert primitive_root(13) == 2
    assert primitive_root(7) == 3
    assert primitive_root(43) == 3
    g = primitive_root(73)
    assert all(any(pow(h, (73 - 1) // f, 73) == 1 for f in (2, 3)) for h in range(2, g))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(36) == 12


def test_conductor_two_mod_four_is_folded():
    # zeta_6 = -zeta_3^2 = 1 + zeta_3 in the power basis
    z6 = zeta(6)
    assert z6.n == 3
    assert z6 == 1 + zeta(3)
    assert zeta(2) == -1
    assert zeta(1) == 1
    # the same fold in sums of roots: zeta_10 = -zeta_5^3, 4 + zeta_2 = 3
    assert root_sum(6, [0, 1]).coeffs == (1, 1)
    assert root_sum(10, [0, 1]) == -zeta(5, 3)
    assert root_sum(2, [4, 1]) == 3


def test_rational_collapse_and_predicates():
    v = zeta(4) * zeta(4)
    assert v.n == 1 and (v.coeffs, v.den) == ((-1,), 1)
    assert (zeta(5) - zeta(5)).is_zero()
    assert zeta(5).n == 5  # not stored as a rational


# -- the shared power basis ---------------------------------------------------------


def poly_mod_cyclotomic(poly, n):
    """Remainder of an integer polynomial mod Phi_n, by plain long division."""
    phi_n = cyclotomic_polynomial(n)
    rem = list(poly) + [0] * max(0, len(phi_n) - 1 - len(poly))
    for top in range(len(rem) - 1, len(phi_n) - 2, -1):
        c = rem[top]
        if c:
            for i, d in enumerate(phi_n):
                rem[top - len(phi_n) + 1 + i] -= c * d
    return rem[: len(phi_n) - 1]


@pytest.mark.parametrize("n", (1, 3, 4, 5, 8, 9, 12, 15, 20))
def test_power_basis_rows_substitute_and_reduce(n):
    basis = power_basis(n)
    assert len(basis.rows) == max(n, 2 * basis.phi)
    for j, row in enumerate(basis.rows):
        assert list(row) == poly_mod_cyclotomic([0] * j + [1], n)
    poly = [(3 * j) % 7 - 3 for j in range(2 * basis.phi - 1)]
    assert basis.reduce(poly) == poly_mod_cyclotomic(poly, n)
    coeffs = [j - 2 for j in range(basis.phi)]
    for k in (1, 2, -1, n + 1):
        spread = [0] * n
        for i, c in enumerate(coeffs):
            spread[(i * k) % n] += c
        assert basis.substitute(coeffs, k) == poly_mod_cyclotomic(spread, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 3, 4, 6, 9, 10, 12, 14, 18)), st.data())
def test_root_sum_adds_its_roots_at_the_least_conductor(m, data):
    counts = data.draw(st.lists(small_ints, min_size=1, max_size=m))
    value = root_sum(m, counts)
    expected = Cyc.rational(0)
    for k, c in enumerate(counts):
        expected = expected + c * zeta(m, k)
    assert value == expected
    assert value.n == reference_conductor(value, m // 2 if m % 4 == 2 else m)


def canonical_multiples(d):
    """d * k for k <= 5, each doubled if it is 2 mod 4."""
    return [2 * n if n % 4 == 2 else n for n in (d * k for k in range(1, 6))]


@pytest.mark.parametrize("d", (1, 3, 4, 5, 8, 12))
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_value_embedded_at_a_multiple_comes_back_at_its_least_conductor(d, data):
    phi, den = euler_phi(d), data.draw(st.sampled_from((1, 2, 3)))
    coeffs = [Fraction(c, den) for c in data.draw(st.lists(small_ints, min_size=phi, max_size=phi))]
    n = data.draw(st.sampled_from(canonical_multiples(d)))
    built = Cyc(d, coeffs)
    embedded = power_basis(n).substitute(coeffs, n // d)
    value = Cyc(n, embedded)
    assert built.n == least_conductor(d, coeffs)
    assert value.n == least_conductor(n, embedded)
    assert value == built and value.coeffs == built.coeffs
    assert hash(value) == hash(built)


def test_rational_values_hash_as_the_numbers_they_equal():
    assert 2 in {Cyc.rational(2)}
    assert Fraction(1, 2) in {Cyc.rational(Fraction(1, 2))}
    assert Cyc.rational(2) in {2}
    assert hash(Cyc.rational(Fraction(-1, 2))) == hash(Fraction(-1, 2))


@pytest.mark.parametrize("bad", (0.5, 1.0, 1j, "1", Decimal("0.5")), ids=repr)
def test_a_coefficient_that_is_not_exact_is_refused(bad):
    # a float would turn into a binary fraction unnoticed, and then the
    # arithmetic would be exact about a number nobody meant
    with pytest.raises(TypeError, match="ints or exact rationals"):
        Cyc(1, (bad,))
    with pytest.raises(TypeError, match="ints or exact rationals"):
        Cyc(4, (1, bad))
    with pytest.raises(TypeError):
        Cyc.rational(bad)
    with pytest.raises(TypeError):
        zeta(4) + bad
    with pytest.raises(TypeError):
        bad * zeta(4)
    assert zeta(4) != bad


def test_a_non_canonical_conductor_is_refused_when_built():
    with pytest.raises(ValueError, match="non-canonical conductor 10"):
        Cyc(10, (0, 1, 0, 0))
    with pytest.raises(ValueError, match="non-canonical conductor 0"):
        Cyc(0, ())


# -- rendering (part of the golden surface) --------------------------------------------


def test_render_examples():
    assert render_cyc(1 + 2 * zeta(3)) == "1+2*z3"
    assert render_cyc(Cyc.rational(Fraction(-1, 3))) == "-1/3"
    assert render_cyc(zeta(8, 3)) == "z8^3"
    assert render_cyc(-zeta(3)) == "-z3"
    assert render_cyc(Cyc.rational(0)) == "0"
    assert render_cyc(zeta(6)) == "1+z3"
    assert render_cyc(Fraction(1, 2) * zeta(8)) == "1/2*z8"


def test_render_uses_minimal_conductor():
    # an element of Q(zeta_12) that actually lies in Q(zeta_4)
    v = zeta(12, 3)
    assert render_cyc(v) == "z4"
    w = zeta(12) * zeta(12, 11)
    assert render_cyc(w) == "1"


def test_sort_key_puts_one_first():
    vals = [zeta(3), Cyc.rational(1), Cyc.rational(-1), zeta(4)]
    vals.sort(key=lambda v: v.sort_key())
    assert vals[0] == 1


# -- field axioms (property tests) -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_ring_axioms(n, data):
    phi = euler_phi(n)
    a, b, c = (cyc_from_coeffs(n, data.draw(st.lists(small_ints, min_size=phi, max_size=phi)))
               for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * 1 == a


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_conj_is_ring_homomorphism(n, data):
    phi = euler_phi(n)
    a, b = (cyc_from_coeffs(n, data.draw(st.lists(small_ints, min_size=phi, max_size=phi)))
            for _ in range(2))
    assert conj(a * b) == conj(a) * conj(b)
    assert conj(a + b) == conj(a) + conj(b)
    assert conj(conj(a)) == a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.integers(min_value=1, max_value=23))
def test_galois_permutes_roots_and_fixes_rationals(n, k):
    from math import gcd

    if gcd(k, n) != 1:
        k = 1
    for i in range(n):
        assert galois(zeta(n, i), k) == zeta(n, i * k)
    assert galois(Cyc.rational(Fraction(7, 3)), k) == Fraction(7, 3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CONDUCTORS), st.data())
def test_roundtrip_canonical_form(n, data):
    phi = euler_phi(n)
    coeffs = data.draw(st.lists(small_ints, min_size=phi, max_size=phi))
    v = cyc_from_coeffs(n, coeffs)
    # the power-basis coefficients ARE the canonical form below phi(n)
    assert v == Cyc(n, [Fraction(c) for c in coeffs])


def test_equal_coefficients_at_different_conductors_are_different_values():
    # zeta_3 and zeta_4 are both stored as (0, 1); the conductor tells them apart
    assert zeta(3) != zeta(4)
    assert Cyc(5, (1, 2, 3, 4)) != Cyc(8, (1, 2, 3, 4)) != Cyc(12, (1, 2, 3, 4))


def test_cross_conductor_equality_and_hash():
    a = zeta(3)
    b = zeta(12, 4)  # same value at conductor 12
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# -- differential test against the Fraction model --------------------------------------


CANONICAL_UP_TO_60 = tuple(n for n in range(1, 61) if n % 4 != 2)


def _value(data, N):
    """A Cyc built in Q(zeta_N) from a value drawn at a canonical divisor of N, with its model.

    Drawing below N and embedding makes the constructor's least-conductor
    search find a proper subfield; small numerators, zeros and denominators
    up to 6 give rational, integral and non-integral values alike.
    """
    d = data.draw(st.sampled_from([d for d in CANONICAL_UP_TO_60 if N % d == 0]))
    den = data.draw(st.sampled_from((1, 1, 2, 3, 6)))
    nums = data.draw(st.lists(st.integers(-4, 4), min_size=euler_phi(d), max_size=euler_phi(d)))
    coeffs = power_basis(N).substitute([Fraction(c, den) for c in nums], N // d)
    return Cyc(N, coeffs), model(N, coeffs)


def _agrees(value, reference):
    d, coords = least_form(reference)
    assert value.n == d
    assert tuple(Fraction(c, value.den) for c in value.coeffs) == coords
    assert render_cyc(value) == render(reference)
    assert value == Cyc(d, coords) and hash(value) == hash(Cyc(d, coords))
    if d == 1:
        assert value == coords[0] and hash(value) == hash(coords[0])


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CANONICAL_UP_TO_60), st.data())
def test_cyc_agrees_with_the_fraction_model(N, data):
    (a, ra), (b, rb) = _value(data, N), _value(data, N)
    r = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4)))
    _agrees(a, ra)
    _agrees(b, rb)
    _agrees(a + b, model_add(ra, rb))
    _agrees(a - b, model_add(ra, model_neg(rb)))
    _agrees(-a, model_neg(ra))
    _agrees(a * b, model_mul(ra, rb))
    _agrees(a + r, model_add(ra, model(1, [r])))
    _agrees(r - a, model_add(model(1, [r]), model_neg(ra)))
    _agrees(r * a, model_mul(ra, model(1, [r])))
    assert (a == b) == model_equal(ra, rb)
    assert a + b - b == a
    if a == b:
        assert hash(a) == hash(b)
