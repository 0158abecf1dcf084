"""Permutation primitives."""

from hypothesis import given
from hypothesis import strategies as st

from charcorr import perm as pm


def random_perm(draw, n):
    return tuple(draw(st.permutations(range(n))))


perms5 = st.permutations(range(5)).map(tuple)


def test_identity_and_validation():
    assert pm.identity(4) == (0, 1, 2, 3)
    assert pm.is_perm((1, 0, 2))
    assert not pm.is_perm((1, 0, 1))
    assert not pm.is_perm((0, 1, 3))


def test_compose_applies_left_then_right():
    a = (1, 0, 2, 3)  # (0 1)
    b = (1, 2, 3, 0)  # (0 1 2 3)
    # x -> a[x] -> b[a[x]]
    assert pm.compose(a, b) == tuple(b[a[x]] for x in range(4))


def test_order_and_cycles():
    r = (1, 2, 3, 0)
    assert pm.order(r) == 4
    assert pm.cycles(r) == [[0, 1, 2, 3]]
    assert pm.cycle_string(r) == "(0 1 2 3)"
    assert pm.cycle_string(pm.identity(3)) == "()"
    assert pm.order(pm.identity(6)) == 1
    dbl = (1, 0, 3, 2)
    assert pm.order(dbl) == 2
    assert pm.cycle_string(dbl) == "(0 1)(2 3)"


def test_conjugate_moves_points():
    # (0 1)^g = (g(0) g(1))
    t = (1, 0, 2, 3)
    g = (2, 3, 1, 0)
    conj = pm.conjugate(t, g)
    assert conj == pm.compose(pm.compose(pm.inverse(g), t), g)
    moved = sorted(x for x in range(4) if conj[x] != x)
    assert moved == sorted((g[0], g[1]))


def reference_compose(a, b):
    return tuple(b[x] for x in a)


def test_compose_at_degrees_0_1_2():
    pairs = [((), ()), ((0,), (0,))]
    pairs += [(a, b) for a in ((0, 1), (1, 0)) for b in ((0, 1), (1, 0))]
    for a, b in pairs:
        ab = pm.compose(a, b)
        assert type(ab) is tuple and ab == reference_compose(a, b)


def perm_pairs(n):
    perms = st.permutations(range(n)).map(tuple)
    return st.tuples(perms, perms)


@given(st.integers(min_value=0, max_value=30).flatmap(perm_pairs))
def test_compose_matches_the_reference(pair):
    a, b = pair
    ab = pm.compose(a, b)
    assert type(ab) is tuple and ab == reference_compose(a, b)


@given(perms5, perms5)
def test_inverse_and_associativity(a, b):
    e = pm.identity(5)
    assert pm.compose(a, pm.inverse(a)) == e
    assert pm.compose(pm.inverse(a), a) == e
    assert pm.inverse(pm.inverse(a)) == a
    assert pm.compose(pm.compose(a, b), pm.inverse(b)) == a


@given(perms5)
def test_order_kills_element(a):
    # a^d for d = 1..order(a) by repeated products: only the last is the identity
    power = pm.identity(5)
    for d in range(1, pm.order(a) + 1):
        power = pm.compose(power, a)
        assert (power == pm.identity(5)) == (d == pm.order(a))
