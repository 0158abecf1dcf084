"""Permutation primitives."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charcorr import perm as pm
from perm_reference import conjugate, reference_order


def random_perm(draw, n):
    return tuple(draw(st.permutations(range(n))))


perms5 = st.permutations(range(5)).map(pm.make)


def test_identity_and_validation():
    assert pm.identity(4) == pm.make((0, 1, 2, 3))
    assert pm.is_perm((1, 0, 2))
    assert not pm.is_perm((1, 0, 1))
    assert not pm.is_perm((0, 1, 3))


def test_compose_applies_left_then_right():
    a = pm.make((1, 0, 2, 3))  # (0 1)
    b = pm.make((1, 2, 3, 0))  # (0 1 2 3)
    # x -> a[x] -> b[a[x]]
    assert pm.compose(a, b) == pm.make([b[a[x]] for x in range(4)])


def test_order_and_cycles():
    r = pm.make((1, 2, 3, 0))
    assert reference_order(r) == 4
    assert pm.cycles(r) == [[0, 1, 2, 3]]
    assert pm.cycle_string(r) == "(0 1 2 3)"
    assert pm.cycle_string(pm.identity(3)) == "()"
    assert reference_order(pm.identity(6)) == 1
    dbl = pm.make((1, 0, 3, 2))
    assert reference_order(dbl) == 2
    assert pm.cycle_string(dbl) == "(0 1)(2 3)"


def test_conjugate_moves_points():
    # (0 1)^g = (g(0) g(1))
    t = pm.make((1, 0, 2, 3))
    g = pm.make((2, 3, 1, 0))
    conj = conjugate(t, g)
    assert conj == pm.compose(pm.compose(pm.inverse(g), t), g)
    moved = sorted(x for x in range(4) if conj[x] != x)
    assert moved == sorted((g[0], g[1]))


def reference_compose(a, b):
    return tuple(b[x] for x in a)


def test_compose_at_degrees_0_1_2():
    pairs = [((), ()), ((0,), (0,))]
    pairs += [(a, b) for a in ((0, 1), (1, 0)) for b in ((0, 1), (1, 0))]
    for a, b in pairs:
        ab = pm.compose(pm.make(a), pm.make(b))
        assert type(ab) is bytes and ab == pm.make(reference_compose(a, b))


def perm_pairs(n):
    perms = st.permutations(range(n)).map(pm.make)
    return st.tuples(perms, perms)


@given(st.integers(min_value=0, max_value=30).flatmap(perm_pairs))
def test_compose_matches_the_reference(pair):
    a, b = pair
    ab = pm.compose(a, b)
    assert type(ab) is bytes and ab == pm.make(reference_compose(a, b))


@given(perms5, perms5)
def test_inverse_and_associativity(a, b):
    e = pm.identity(5)
    assert pm.compose(a, pm.inverse(a)) == e
    assert pm.compose(pm.inverse(a), a) == e
    assert pm.inverse(pm.inverse(a)) == a
    assert pm.compose(pm.compose(a, b), pm.inverse(b)) == a


@pytest.mark.parametrize("n", [255, 256, 257])
def test_both_representations_agree_with_plain_lists_at_the_switch(n):
    rng = random.Random(n)
    for _ in range(5):
        ref_a, ref_b = rng.sample(range(n), n), rng.sample(range(n), n)
        a, b = pm.make(ref_a), pm.make(ref_b)
        kind = bytes if n <= 256 else tuple
        assert type(a) is type(pm.identity(n)) is kind
        ab = [ref_b[x] for x in ref_a]
        inv_b = [0] * n
        for i, x in enumerate(ref_b):
            inv_b[x] = i
        results = {
            "compose": (pm.compose(a, b), ab),
            "product": (pm.product(n)(a, pm.table(b)), ab),
            "inverse": (pm.inverse(b), inv_b),
            "conjugate": (conjugate(a, b), [ref_b[ref_a[inv_b[i]]] for i in range(n)]),
        }
        for name, (got, expected) in results.items():
            assert type(got) is kind and list(got) == expected, name
        assert reference_order(a) == reference_order(ref_a)
        assert pm.compose(b, pm.inverse(b)) == pm.identity(n)
