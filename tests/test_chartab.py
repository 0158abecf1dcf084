"""Character tables and class-function operations.

Expected decompositions are frozen from oracle computations: inner-product
decomposition against independently verified tables, and an element-wise
induction formula implemented here for cross-checking.
"""

from fractions import Fraction

import pytest

from charcorr import perm as pm
from charcorr.chartab import (
    CharacterTable,
    ClassFunction,
    NotACharacterError,
    character_table,
    constituents,
    constituents_over,
    fusion_map,
    galois_classfn,
    induce,
    inner_product,
    inner_product_int,
    is_invariant_under,
    lying_over,
    mul_classfn,
    orbit_and_stabilizer,
    p_prime_irreducibles,
    restrict,
    _pack,
    _unpack,
    _verify_table,
)
from charcorr.cyclotomic import Cyc, render_cyc
from charcorr.groups import conjugacy_classes, normal_subgroups, sylow
from charcorr.showcase import corpus, load_corpus_group


def brute_induce(theta, H):
    """Element-wise induced character: (1/|H|) sum over x of theta(x g x^-1)."""
    G = H.parent
    view = H.view
    vcls = conjugacy_classes(view)
    members = set(H.members())
    cls = conjugacy_classes(G)
    values = []
    for c in range(cls.count):
        g = cls.rep(c)
        acc = Cyc.rational(0)
        for x in G.elements:
            t = pm.compose(pm.compose(x, g), pm.inverse(x))
            if t in members:
                acc = acc + theta.values[vcls.class_of_perm(t)]
        values.append(Fraction(1, H.order) * acc)
    return ClassFunction(G, values)


def std_char(s4):
    """The degree-3 character of S4 with value 1 on transpositions."""
    tab = character_table(s4)
    return next(
        i for i in range(5) if tab.degrees[i] == 3 and tab.rows[i].values[2] == 1
    )


# -- tables --------------------------------------------------------------------------


def test_degrees(s4, d8, sl23, f21, c7):
    assert character_table(s4).degrees == (1, 1, 2, 3, 3)
    assert character_table(d8).degrees == (1, 1, 1, 1, 2)
    assert character_table(sl23).degrees == (1, 1, 1, 2, 2, 2, 3)
    assert character_table(f21).degrees == (1, 1, 1, 3, 3)
    assert character_table(c7).degrees == (1,) * 7


def test_table_builds_only_the_class_matrices_the_split_needs(monkeypatch):
    from charcorr.groups import load_group
    from charcorr.kernels import pure
    from charcorr.showcase import corpus_path

    G = load_group(corpus_path("remark648"))  # fresh group: no cached table
    built = []
    real = pure.class_matrix

    def counting(*args):
        built.append(1)
        return real(*args)

    monkeypatch.setattr(pure, "class_matrix", counting)
    table = character_table(G)
    r = conjugacy_classes(G).count
    assert table.count == r == 24
    assert 0 < len(built) < r


def test_sum_of_degree_squares(s4, sl23):
    for G in (s4, sl23):
        assert sum(d * d for d in character_table(G).degrees) == G.order


def test_abelian_table_is_dual_group(c7):
    tab = character_table(c7)
    for row in tab.rows:
        assert row.degree_int() == 1
        for i, v in enumerate(row.values):
            # linear character values are roots of unity: v * conj(v) = 1
            assert v * v.conj() == 1


def test_first_row_trivial_and_row_order(s4):
    tab = character_table(s4)
    assert all(v == 1 for v in tab.rows[0].values)
    assert list(tab.degrees) == sorted(tab.degrees)


def test_first_orthogonality_explicit(s4):
    tab = character_table(s4)
    for i, a in enumerate(tab.rows):
        for j, b in enumerate(tab.rows):
            assert inner_product(a, b) == (1 if i == j else 0)


def _with_value(tab, a, i, value):
    """Copy of tab with row a's value at class i replaced (group cache untouched)."""
    values = list(tab.rows[a].values)
    values[i] = value
    rows = list(tab.rows)
    rows[a] = ClassFunction(tab.group, values)
    return CharacterTable(tab.group, tab.classes, rows)


@pytest.mark.parametrize("name", sorted({e.name for e in corpus()}))
def test_verifier_rejects_every_single_entry_corruption(name):
    tab = character_table(load_corpus_group(name))
    _verify_table(tab)
    tried = 0
    for a, row in enumerate(tab.rows):
        for i, v in enumerate(row.values):
            for bad in (v.conj(), -v, v + 1):
                if bad == v:  # conjugating a real value or negating 0 changes nothing
                    continue
                tried += 1
                with pytest.raises(RuntimeError):
                    _verify_table(_with_value(tab, a, i, bad))
    assert tried > tab.count * tab.count  # every "+1" corruption, plus more


def test_verifier_rejects_non_integral_value(f21):
    tab = character_table(f21)
    with pytest.raises(RuntimeError, match="algebraic integer"):
        _verify_table(_with_value(tab, 1, 1, tab.rows[1].values[1] + Fraction(1, 2)))


def test_pack_unpack_round_trip_at_the_bound():
    for bound in (1, 7, 2**31 - 1, 3 * 10**40):
        width = (2 * bound).bit_length()
        vec = [bound, -bound, 0, -bound, bound, 1, -1]
        assert _unpack(_pack(vec, width), width, len(vec)) == vec
        assert _unpack(_pack([-bound] * 5, width), width, 5) == [-bound] * 5


def test_packed_product_is_the_convolution():
    x, y = [3, -2, 0, 5], [-4, 1, 7, -1]
    bound = len(x) * max(map(abs, x)) * max(map(abs, y))
    width = (2 * bound).bit_length()
    conv = [sum(x[i] * y[k - i] for i in range(len(x)) if 0 <= k - i < len(y)) for k in range(7)]
    assert _unpack(_pack(x, width) * _pack(y, width), width, 7) == conv


def test_unpack_raises_on_slot_overflow():
    width = 8
    half = 1 << (width - 1)
    with pytest.raises(RuntimeError, match="overflows"):
        _unpack(_pack([0, 0, half], width), width, 3)
    with pytest.raises(RuntimeError, match="overflows"):
        _unpack(_pack([1, -(half + 1)], width), width, 2)
    with pytest.raises(RuntimeError, match="overflows"):
        _unpack(_pack([1, 2, 3], width), width, 2)  # a slot more than the decoder reads


def test_inner_product_rejects_group_mismatch(s4, d8):
    with pytest.raises(ValueError):
        inner_product(character_table(s4).rows[0], character_table(d8).rows[0])


def test_regular_character_decomposition(d8):
    tab = character_table(d8)
    cls = conjugacy_classes(d8)
    reg = ClassFunction(
        d8, [Cyc.rational(d8.order if i == 0 else 0) for i in range(cls.count)]
    )
    assert constituents(reg) == [(i, tab.degrees[i]) for i in range(tab.count)]
    assert inner_product_int(reg, tab.rows[0]) == 1


# -- fusion / restriction / induction ---------------------------------------------------


def test_fusion_map_consistent(s4):
    P = sylow(s4, 2)
    fm = fusion_map(P)
    pcls = conjugacy_classes(P.view)
    gcls = conjugacy_classes(s4)
    for i, c in enumerate(fm.class_map):
        assert gcls.class_of_perm(pcls.rep(i)) == c


def test_restrict_trivial_stays_trivial(s4):
    P = sylow(s4, 2)
    res = restrict(character_table(s4).rows[0], P)
    assert all(v == 1 for v in res.values)


def test_standard_restriction_to_sylow2(s4):
    # frozen oracle decomposition: chi_P = beta + delta
    P = sylow(s4, 2)
    tab = character_table(s4)
    p_tab = character_table(P.view)
    chi_p = restrict(tab.rows[std_char(s4)], P)
    assert [render_cyc(v) for v in chi_p.values] == ["3", "-1", "1", "-1", "-1"]
    dec = constituents(chi_p)
    assert dec == [(1, 1), (4, 1)]
    beta = p_tab.rows[1]
    assert [render_cyc(v) for v in beta.values] == ["1", "1", "1", "-1", "-1"]
    assert p_tab.degrees[4] == 2
    assert inner_product_int(chi_p, p_tab.rows[4]) == 1
    # pointwise: chi_P - delta = beta exactly
    assert (chi_p - p_tab.rows[4]).values == beta.values


def test_induce_trivial_from_subgroups_of_s3(s3):
    tab = character_table(s3)
    assert tab.degrees == (1, 1, 2)
    # from the normal C3: the two characters of S3/C3 (oracle-checked)
    rotations = [p for p in s3.elements if pm.order(p) != 2]
    C3 = s3.subgroup(rotations)
    theta = character_table(C3.view).rows[0]
    ind = induce(theta, C3)
    assert ind.values == brute_induce(theta, C3).values
    assert constituents(ind) == [(0, 1), (1, 1)]
    # from a C2: trivial + the degree-2 irreducible (oracle-checked)
    flip = next(p for p in s3.elements if pm.order(p) == 2)
    C2 = s3.subgroup([pm.identity(3), flip])
    theta2 = character_table(C2.view).rows[0]
    ind2 = induce(theta2, C2)
    assert ind2.values == brute_induce(theta2, C2).values
    assert constituents(ind2) == [(0, 1), (2, 1)]


def test_induce_matches_brute_force(s4, f21):
    for G, p in ((s4, 3), (f21, 7)):
        H = sylow(G, p)
        for theta in character_table(H.view).rows:
            assert induce(theta, H).values == brute_induce(theta, H).values


def test_frobenius_reciprocity(s4, f21, sl23):
    for G, p in ((s4, 2), (s4, 3), (f21, 3), (sl23, 2)):
        H = sylow(G, p)
        g_tab = character_table(G)
        h_tab = character_table(H.view)
        for theta in h_tab.rows:
            ind = induce(theta, H)
            for chi in g_tab.rows:
                assert inner_product(ind, chi) == inner_product(theta, restrict(chi, H))


def test_mul_classfn_pointwise(s4):
    tab = character_table(s4)
    sgn = tab.rows[1]
    std = tab.rows[std_char(s4)]
    prod = mul_classfn(sgn, std)
    assert constituents(prod) == [(4, 1)]  # sign twist of the standard character


# -- constituents ---------------------------------------------------------------------


def test_constituents_rejects_non_characters(s4):
    tab = character_table(s4)
    delta = tab.rows[0] - tab.rows[1]  # virtual, not a character
    with pytest.raises(NotACharacterError):
        constituents(delta)


def test_constituents_over_examples(s4):
    P = sylow(s4, 2)
    tab = character_table(s4)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    v_tab = character_table(V4.view)
    lam1 = v_tab.rows[1]
    assert is_invariant_under(lam1, V4, P)
    chi_p = restrict(tab.rows[std_char(s4)], P)
    v4_in_p = P.view.subgroup(V4.members())
    assert constituents_over(chi_p, v4_in_p, lam1) == [1]  # exactly beta
    # trivial class function lies over only the trivial theta
    assert constituents_over(restrict(tab.rows[0], P), v4_in_p, lam1) == []


def test_lying_over(s4):
    tab = character_table(s4)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    v_tab = character_table(V4.view)
    over_trivial = lying_over(tab, V4, v_tab.rows[0])
    assert over_trivial == [0, 1, 2]  # the characters of S4/V4 = S3


def test_degree_divisibility(s4, f21):
    # chi(1)/theta(1) divides |G:N| for theta under chi
    for G in (s4, f21):
        tab = character_table(G)
        for N in normal_subgroups(G):
            if N.order in (1, G.order):
                continue
            n_tab = character_table(N.view)
            for chi in tab.rows:
                for i, _ in constituents(restrict(chi, N)):
                    ratio = Fraction(chi.degree_int(), n_tab.degrees[i])
                    assert ratio.denominator == 1
                    assert (G.order // N.order) % ratio.numerator == 0


# -- conjugation orbits ------------------------------------------------------------------


def test_orbit_and_stabilizer_v4(s4):
    P = sylow(s4, 2)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    v_tab = character_table(V4.view)
    orbit, stab = orbit_and_stabilizer(v_tab.rows[1], V4)
    assert len(orbit) == 3  # S4 permutes the nontrivial linears transitively
    assert stab.order == 8
    assert stab.member_ids == P.member_ids


def test_invariant_character_has_full_stabilizer(d8):
    center = next(N for N in normal_subgroups(d8) if N.order == 2)
    c_tab = character_table(center.view)
    _, stab = orbit_and_stabilizer(c_tab.rows[1], center)
    assert stab.order == d8.order


def test_p_prime_irreducibles(s4):
    tab = character_table(s4)
    assert p_prime_irreducibles(tab, 2) == (0, 1, 3, 4)
    assert p_prime_irreducibles(tab, 3) == (0, 1, 2)


def test_galois_classfn_permutes_rows(f21):
    tab = character_table(f21)
    e = f21.exponent
    from math import gcd

    for k in range(1, e):
        if gcd(k, e) != 1:
            continue
        for row in tab.rows:
            tab.index_of(galois_classfn(row, k))  # raises if not a row


# -- exports (golden surface) ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["s4", "d8", "sl23", "f21"])
def test_table_export_golden(name, tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / f"{name}_table.txt"
    G = load_corpus_group(name)
    text = character_table(G).render_text()
    assert text == golden.read_text()


def test_table_to_dict_roundtrips_as_json(s4):
    import json

    d = character_table(s4).to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["degrees"] == [1, 1, 2, 3, 3]
    assert d["irreducibles"][0] == ["1", "1", "1", "1", "1"]
