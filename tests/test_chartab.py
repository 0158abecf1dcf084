"""Character tables and class-function operations.

Expected decompositions are frozen from oracle computations: inner-product
decomposition against independently verified tables, and an element-wise
induction formula implemented here for cross-checking.
"""

import json
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from charcorr import perm as pm
from charcorr.chartab import (
    CharacterTable,
    ClassFunction,
    NotACharacterError,
    character_table,
    constituents,
    conjugate_classfn,
    fusion_map,
    induce,
    is_invariant_under,
    lying_over,
    mul_classfn,
    orbit_and_stabilizer,
    p_prime_irreducibles,
    restrict,
    _fq_combination,
    _inverse_roots,
    _lift_value,
    _pack,
    _pairings,
    _unpack,
    _verify_table,
)
from charcorr.cyclotomic import (
    Cyc,
    dixon_prime,
    prime_factors,
    primitive_root,
    render_cyc,
    root_of_unity,
)
from charcorr.groups import (
    PermGroup,
    conjugacy_classes,
    group_from_dict,
    load_group,
    sylow,
)
from charcorr.kernels import pure
from charcorr.showcase import corpus, corpus_path, load_corpus_group, remark_data
from chartab_reference import inner_product, inner_product_int
from cyclotomic_reference import conj, reference_conductor
from faults import with_foreign_identity_column, with_one_entry_matrix
from galois_check import check_galois_is_power_map, galois_classfn
from instances import (
    CATALOGUE,
    CORPUS,
    GOLDEN,
    RECORDS,
    S4_RECORD,
    direct_product_record,
    named_group,
    s4_wreath_c2,
    s4_wreath_c2_record,
)
from lemma_checks import normal_subgroups
from perm_reference import conjugate, reference_order
from product_oracle import factor_classes, keyed_rows, predicted_rows


def brute_induce(theta, H):
    """Element-wise induced character: (1/|H|) sum over x of theta(x g x^-1).

    The sum is |H| times a value of Z[zeta_n], so each coordinate divides
    exactly by |H|.
    """
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
        coords = [divmod(c, H.order) for c in acc.coeffs]
        assert not any(rem for _, rem in coords), "the induced value is not in Z[zeta_n]"
        values.append(Cyc(acc.n, [c for c, _ in coords]))
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


@pytest.mark.parametrize("name", sorted({e.name for e in corpus()}))
def test_lifting_data_matches_repeated_products(name):
    G = load_corpus_group(name)
    classes = conjugacy_classes(G)
    q = dixon_prime(G.exponent, G.order)
    roots_of = _inverse_roots(q, classes.orders)
    assert len(classes.powers) == classes.count
    assert set(roots_of) == set(classes.orders)
    for i, powers in enumerate(classes.powers):
        g = classes.rep(i)
        m = reference_order(g)
        expected, x = [], pm.identity(G.degree)
        for _ in range(m):
            expected.append(classes.class_of_perm(x))
            x = pm.compose(x, g)
        assert list(powers) == expected  # entry j is the class of g^j
        assert powers[-1] == classes.class_of_perm(pm.inverse(g))
        roots = roots_of[m]
        assert len(roots) == len(set(roots)) == m
        assert all(pow(y, m, q) == 1 for y in roots)
        w = pow(primitive_root(q), (q - 1) // m, q)
        assert roots == [pow(w, -j, q) for j in range(m)]  # w^-j, not w^j


def test_table_of_a_group_with_its_classes_built_multiplies_no_elements(monkeypatch):
    # the power map on the classes is the table's only power data: building the
    # table walks no powers of its own
    G = load_group(corpus_path("remark648"))  # fresh group: no cached table
    conjugacy_classes(G)
    products = []
    real = PermGroup.mul

    def counting(self, i, j):
        products.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(PermGroup, "mul", counting)
    assert character_table(G).count == 24
    assert products == []


# -- class matrices, the eigenspace split and the lift --------------------------------


def brute_class_columns(G, i):
    """Sparse columns of class matrix i, counted over all products x*y, x in C_i, y in G."""
    cls = conjugacy_classes(G)
    rep_of = {cls.rep(k): k for k in range(cls.count)}
    counts = [{} for _ in range(cls.count)]
    for x in (G.elements[e] for e in cls.members_ids[i]):
        for yid, y in enumerate(G.elements):
            k = rep_of.get(pm.make([y[t] for t in x]))  # x*y: apply x, then y
            if k is not None:
                j = cls.class_of_id[yid]
                counts[k][j] = counts[k].get(j, 0) + 1
    return [sorted(c.items()) for c in counts]


@pytest.mark.parametrize("name", CORPUS + ("s4wrc2#1",))
def test_class_matrix_columns_are_the_structure_constants(name):
    G = named_group(name)
    cls = conjugacy_classes(G)
    for i in range(cls.count):
        # the members of the inverse class C_i^-1 = {x^-1 : x in C_i}
        inverse_members = cls.members_ids[cls.powers[i][-1]]
        got = pure.class_matrix(G, cls.class_of_id, inverse_members, cls.rep_ids)
        assert got == brute_class_columns(G, i)


def test_fq_combination_is_exact_at_the_slot_bound():
    # every coefficient and entry q - 1: each slot sums to dim * (q-1)^2, the most it can
    for q in (5, 13, 37, 1021):
        for dim in range(1, 56):
            width = (dim * (q - 1) ** 2).bit_length()
            rows = [[q - 1] * 7 for _ in range(dim)]
            coeffs = [q - 1] * dim
            plain = [sum(c * row[k] for c, row in zip(coeffs, rows)) % q for k in range(7)]
            packed = [_pack(row, width) for row in rows]
            assert _fq_combination(coeffs, packed, width, 7, q) == plain


def test_eigensplit_rejects_a_matrix_outside_the_class_algebra(monkeypatch):
    monkeypatch.setattr(pure, "class_matrix", with_foreign_identity_column(pure.class_matrix))
    with pytest.raises(RuntimeError, match="class-matrix eigenspace is not invariant"):
        character_table(load_group(corpus_path("s4")))  # fresh group: no cached table


@pytest.mark.parametrize("row", [1, 4])
@pytest.mark.parametrize("column", range(5))
def test_eigensplit_checks_invariance_before_it_keeps_a_space_unsplit(monkeypatch, row, column):
    # on S4 each of these matrices acts as 0 on the coordinates of some
    # eigenspace that it does not leave invariant
    fault = with_one_entry_matrix(pure.class_matrix, row, column)
    monkeypatch.setattr(pure, "class_matrix", fault)
    with pytest.raises(RuntimeError, match="class-matrix eigenspace is not invariant"):
        character_table(load_group(corpus_path("s4")))


def test_eigensplit_never_splits_a_space_its_matrix_acts_on_as_a_scalar(monkeypatch):
    # a class matrix acting on a space as lambda*I cannot split it, so no
    # characteristic polynomial may be asked of a scalar matrix
    from charcorr import chartab, groups

    real = chartab.eigenvalues
    calls = []

    def no_scalar(M, q):
        lam = M[0][0]
        if all(x == (lam if a == b else 0) for a, row in enumerate(M) for b, x in enumerate(row)):
            raise AssertionError(f"eigenvalues of the scalar matrix {lam} * I_{len(M)}")
        calls.append(len(M))
        return real(M, q)

    monkeypatch.setattr(chartab, "eigenvalues", no_scalar)
    monkeypatch.setattr(groups, "_VIEW_CACHE", {})  # fresh subgroup views, no tables yet
    fresh = [load_group(corpus_path(name)) for name in CORPUS]
    wreath = group_from_dict(s4_wreath_c2_record(1))
    fresh += [wreath, sylow(wreath, 2).view, group_from_dict(RECORDS["heis7"])]
    for G in fresh:
        assert G._char_table is None
        assert character_table(G).count == conjugacy_classes(G).count
    assert calls  # the general path still ran where a matrix could split a space


def test_lift_rejects_multiplicities_that_miss_the_degree():
    q, roots = 13, [1, 12]  # order 2: w = -1, roots[j] = w^-j
    assert _lift_value((3, 1), roots, q) == 1  # eigenvalues 1, 1, -1
    with pytest.raises(RuntimeError, match="do not add up to the degree"):
        _lift_value((2, 1), roots, q)  # multiplicities 3/2 and 1/2 mod 13


def _fq_image(v, q):
    """v mod q, with zeta_n sent to w0^((q-1)/n) for w0 the least primitive root mod q."""
    w = pow(primitive_root(q), (q - 1) // v.n, q)
    return sum(c * pow(w, j, q) for j, c in enumerate(v.coeffs)) % q


def _lift_inputs(table):
    """(F_q values of the row on the class's powers, roots, q, value) for every entry."""
    G = table.group
    q = dixon_prime(G.exponent, G.order)
    classes = table.classes
    roots = _inverse_roots(q, classes.orders)
    out = []
    for row in table.rows:
        image = [_fq_image(v, q) for v in row.values]
        for powers, value in zip(classes.powers, row.values):
            out.append((tuple(image[c] for c in powers), roots[len(powers)], q, value))
    return out


@pytest.mark.parametrize("name", sorted({e.name for e in corpus()}))
def test_corpus_values_are_the_lifts_of_their_own_entries(name):
    for key, roots, q, value in _lift_inputs(character_table(load_corpus_group(name))):
        assert _lift_value(key, roots, q) == value


def test_remark648_pipeline_lifts_each_distinct_power_row_once(monkeypatch):
    from charcorr import chartab, groups

    calls, tables = [], []
    real_lift, real_verify = chartab._lift_value, chartab._verify_table

    def counting_lift(*args):
        calls.append(args)
        return real_lift(*args)

    def recording_verify(table):
        real_verify(table)
        tables.append((table, len(calls)))
        calls.clear()

    monkeypatch.setattr(chartab, "_lift_value", counting_lift)
    monkeypatch.setattr(chartab, "_verify_table", recording_verify)
    monkeypatch.setattr(groups, "_VIEW_CACHE", {})  # fresh subgroup views, no tables yet
    remark_data.__wrapped__()
    assert sorted(t.group.order for t, _ in tables) == [3, 24, 27, 72, 648]
    for table, lifts in tables:
        inputs = _lift_inputs(table)
        assert lifts == len({key for key, *_ in inputs}) < len(inputs)
        for key, roots, q, value in inputs:
            assert real_lift(key, roots, q) == value


def test_sum_of_degree_squares(s4, sl23):
    for G in (s4, sl23):
        assert sum(d * d for d in character_table(G).degrees) == G.order


def test_abelian_table_is_dual_group(c7):
    tab = character_table(c7)
    for row in tab.rows:
        assert row.degree_int() == 1
        for i, v in enumerate(row.values):
            # linear character values are roots of unity: v * conj(v) = 1
            assert v * conj(v) == 1


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
            for bad in (conj(v), -v, v + 1):
                if bad == v:  # conjugating a real value or negating 0 changes nothing
                    continue
                tried += 1
                with pytest.raises(RuntimeError):
                    _verify_table(_with_value(tab, a, i, bad))
    assert tried > tab.count * tab.count  # every "+1" corruption, plus more


def test_remark648_tables_are_checked_at_conductor_3(monkeypatch):
    # every value of these tables lies in Q(zeta_3), though some are lifted
    # at conductor 9 or 12: the engine must embed from the least conductor
    from charcorr import chartab, groups

    conductors, checked = [], []
    real_basis, real_verify = chartab.power_basis, chartab._verify_table

    def recording_basis(m):
        conductors.append(m)
        return real_basis(m)

    def recording_verify(table):
        start = len(conductors)
        real_verify(table)
        checked.append((table.group.order, conductors[start:]))

    monkeypatch.setattr(chartab, "power_basis", recording_basis)
    monkeypatch.setattr(chartab, "_verify_table", recording_verify)
    monkeypatch.setattr(groups, "_VIEW_CACHE", {})  # fresh subgroup views, no tables yet
    remark_data.__wrapped__()  # the showcase pipeline on a freshly built group
    assert sorted(checked) == [(3, [3]), (24, [3]), (27, [3]), (72, [3]), (648, [3])]


def _lifted_at(table, i) -> int:
    """The canonical conductor of the order of class i, where its values are lifted."""
    m = table.classes.orders[i]
    return m // 2 if m % 4 == 2 else m


def _off_least_conductor(table) -> list:
    """(row, class) of every value not stored at its least conductor."""
    return [
        (r, i)
        for i in range(table.classes.count)
        for r, row in enumerate(table.rows)
        if row.values[i].n != reference_conductor(row.values[i], _lifted_at(table, i))
    ]


@pytest.mark.parametrize("name", sorted({e.name for e in corpus()}))
def test_corpus_table_values_sit_at_their_least_conductor(name):
    assert _off_least_conductor(character_table(load_corpus_group(name))) == []


def test_remark648_pipeline_values_sit_at_their_least_conductor(monkeypatch):
    from charcorr import chartab, groups

    tables = []
    real_verify = chartab._verify_table

    def recording_verify(table):
        real_verify(table)
        tables.append(table)

    monkeypatch.setattr(chartab, "_verify_table", recording_verify)
    monkeypatch.setattr(groups, "_VIEW_CACHE", {})  # fresh subgroup views, no tables yet
    remark_data.__wrapped__()
    assert sorted(t.group.order for t in tables) == [3, 24, 27, 72, 648]
    assert all(_off_least_conductor(t) == [] for t in tables)
    # the irrational values lifted at conductor 9 or 12 all lie in Q(zeta_3)
    moved = [
        row.values[i].n
        for t in tables
        for i in range(t.classes.count)
        if _lifted_at(t, i) in (9, 12)
        for row in t.rows
        if row.values[i].n != 1
    ]
    assert len(moved) == 44 and set(moved) == {3}


def _corpus_record(name):
    with open(corpus_path(name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("factors", [("S4", "S4", "S4"), ("f21", "c7")])
def test_direct_product_table_is_the_product_of_the_factor_tables(factors):
    # S4 x S4 x S4 has 125 classes; F21 x C7 has 35, and F21's values at
    # conductors 3 and 7 times C7's at 7 give products at conductor 21
    records = [S4_RECORD if f == "S4" else _corpus_record(f) for f in factors]
    G = group_from_dict(direct_product_record("x".join(factors), *records))
    parts = [group_from_dict(r) for r in records]
    keys = factor_classes(G, parts)
    part_classes = [conjugacy_classes(F) for F in parts]
    assert sorted(keys) == list(product(*(range(c.count) for c in part_classes)))
    for key, size in zip(keys, conjugacy_classes(G).sizes):
        assert size == prod(c.sizes[k] for c, k in zip(part_classes, key))
    table = character_table(G)
    assert keyed_rows(table, keys) == predicted_rows(parts)
    if "f21" in factors:
        assert {v.n for row in table.rows for v in row.values} == {1, 3, 7, 21}


# -- the pairing engine --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted({e.name for e in corpus()}))
def test_pairings_match_the_reference(name):
    """Rows against rows, rows restricted to every Sylow and normal subgroup
    against that subgroup's rows, and Sylow characters induced to G against
    the rows of G: every pairing and every decomposition."""
    G = load_corpus_group(name)
    table = character_table(G)
    rows = table.rows
    sylows = [sylow(G, p) for p in prime_factors(G.order)]
    families = [(rows, table)]
    for H in sylows + list(normal_subgroups(G)):
        families.append(([restrict(chi, H) for chi in rows], character_table(H.view)))
    for S in sylows:
        families.append(([induce(theta, S) for theta in character_table(S.view).rows], table))
    for left, right in families:
        order = left[0].group.order
        reference = [[inner_product(a, b) for b in right.rows] for a in left]
        pairings, _ = _pairings(left, right)
        assert pairings == [[order * v for v in row] for row in reference]
        for f, row in zip(left, reference):
            assert constituents(f) == [(i, v) for i, v in enumerate(row) if v]


@pytest.mark.parametrize("name", CORPUS + ("s4wrc2#1", "heis7"))
def test_gram_matrix_mirrors_the_full_product(name):
    # functions paired with themselves compute the pairs a <= b only; the rows
    # paired with their table get every pair computed
    table = character_table(named_group(name))
    rows = table.rows
    order = named_group(name).order
    identity = [[order * (a == b) for b in range(len(rows))] for a in range(len(rows))]
    assert _pairings(rows)[0] == _pairings(rows, table)[0] == identity
    # sums of neighbouring rows: a pairing matrix with entries off the diagonal
    mixed = [a + b for a, b in zip(rows, rows[1:])] + [rows[-1] - rows[0]]
    assert _pairings(mixed)[0] == [[order * inner_product(a, b) for b in mixed] for a in mixed]


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
        inner_product_int(character_table(s4).rows[0], character_table(d8).rows[0])


@pytest.mark.parametrize("c", [1, 7, 2**31 - 1, 3 * 10**40])
def test_pairing_reaches_the_slot_bound_exactly(s4, f21, c):
    # constants c and -c pair to |G| c^2 in absolute value: the bound the
    # engine derives its slot width from, with nothing to spare
    for G in (s4, f21):
        r = conjugacy_classes(G).count
        f = ClassFunction(G, [Cyc.rational(c)] * r)
        g = ClassFunction(G, [Cyc.rational(-c)] * r)
        bound = G.order * c * c
        assert _pairings([f, g])[0] == [[bound, -bound], [-bound, bound]]
        assert inner_product_int(f, g) == -c * c


def test_regular_character_decomposition(d8):
    tab = character_table(d8)
    cls = conjugacy_classes(d8)
    reg = ClassFunction(
        d8, [Cyc.rational(d8.order if i == 0 else 0) for i in range(cls.count)]
    )
    assert constituents(reg) == [(i, tab.degrees[i]) for i in range(tab.count)]
    assert inner_product_int(reg, tab.rows[0]) == 1
    zero = ClassFunction(d8, [Cyc.zero()] * cls.count)
    assert constituents(zero) == [] and inner_product_int(zero, zero) == 0


# -- fusion / restriction / induction ---------------------------------------------------


def test_fusion_map_consistent(s4):
    P = sylow(s4, 2)
    fm = fusion_map(P)
    pcls = conjugacy_classes(P.view)
    gcls = conjugacy_classes(s4)
    for i, c in enumerate(fm):
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
    rotations = [p for p in s3.elements if reference_order(p) != 2]
    C3 = s3.subgroup(rotations)
    theta = character_table(C3.view).rows[0]
    ind = induce(theta, C3)
    assert ind.values == brute_induce(theta, C3).values
    assert constituents(ind) == [(0, 1), (1, 1)]
    # from a C2: trivial + the degree-2 irreducible (oracle-checked)
    flip = next(p for p in s3.elements if reference_order(p) == 2)
    C2 = s3.subgroup([pm.identity(3), flip])
    theta2 = character_table(C2.view).rows[0]
    ind2 = induce(theta2, C2)
    assert ind2.values == brute_induce(theta2, C2).values
    assert constituents(ind2) == [(0, 1), (2, 1)]


def test_induce_matches_brute_force(s4, f21):
    data = remark_data()
    l_in_k = data.K.view.subgroup(data.L.members())
    for H in (sylow(s4, 3), sylow(f21, 7), l_in_k, sylow(s4_wreath_c2(1), 2)):
        for theta in character_table(H.view).rows:
            assert induce(theta, H).values == brute_induce(theta, H).values


def test_induce_refuses_a_value_off_the_cyclotomic_integers(monkeypatch, s4):
    # |G| sum |c| theta(c) / (|H| |C_k|) sums theta(c) |C_G(c)| / |C_H(c)|, so
    # a class function of the right subgroup induces into Z[zeta_n]; a fusion
    # map that sends the identity of C3 to the transpositions (|C_k| = 6)
    # makes the value there 24 / (3 * 6), which induce must refuse
    from charcorr import chartab

    H = sylow(s4, 3)
    theta = character_table(H.view).rows[0]
    cls = conjugacy_classes(s4)
    transpositions = next(k for k in range(cls.count) if (cls.orders[k], cls.sizes[k]) == (2, 6))
    wrong = (transpositions,) + fusion_map(H)[1:]
    monkeypatch.setattr(chartab, "fusion_map", lambda _: wrong)
    with pytest.raises(NotACharacterError, match="24/18"):
        induce(theta, H)


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


def test_constituents_rejects_a_non_integral_multiplicity(s4):
    # 1 at the identity and 0 elsewhere: every value is integral, and the
    # multiplicity of the trivial row is 1/24
    tab = character_table(s4)
    point = ClassFunction(s4, [Cyc.rational(1)] + [Cyc.zero()] * (tab.count - 1))
    with pytest.raises(NotACharacterError, match="multiplicity of row 0 is 1/24"):
        constituents(point)
    with pytest.raises(NotACharacterError, match="1/24"):
        inner_product_int(point, tab.rows[0])


def test_irrational_pairing_is_rejected(c7):
    # zeta_7 added to chi_0 at one class: the pairing with chi_0 is 7 + zeta_7,
    # whose rational part alone would pass as multiplicity 1
    chi0 = character_table(c7).rows[0]
    f = ClassFunction(c7, (chi0.values[0], chi0.values[1] + root_of_unity(7)) + chi0.values[2:])
    with pytest.raises(NotACharacterError, match="not rational"):
        inner_product_int(f, chi0)
    with pytest.raises(NotACharacterError, match="not rational"):
        constituents(f)


def test_a_cached_table_embedding_still_checks_every_decomposition(f21):
    # the first decomposition leaves the table's rows embedded on the table;
    # each later f is still checked on its own values, multiplicities and
    # pairings, also when it needs the rows at a larger conductor
    tab = character_table(f21)
    chi = tab.rows[3]
    assert constituents(chi) == [(3, 1)]
    cached = tab.embedding(tab.conductor)
    k = next(k for k, v in enumerate(chi.values) if v.n != 1)
    point = [Cyc.rational(1)] + [Cyc.zero()] * (tab.count - 1)  # <point, chi_0> = 1/21
    off_field = list(chi.values)
    off_field[k] = off_field[k] + root_of_unity(5)  # the rows are re-embedded at 5 * 21
    for values, message in (
        ((tab.rows[0] - tab.rows[1]).values, "not a character"),
        (point, "not an integer"),
        (off_field, "not rational"),
    ):
        with pytest.raises(NotACharacterError, match=message):
            constituents(ClassFunction(f21, values))
    assert tab.embedding(tab.conductor) is cached
    assert constituents(chi) == [(3, 1)]


def test_constituents_reconstruction_catches_a_misdecoded_pairing(monkeypatch, s4):
    from charcorr import chartab

    chi = character_table(s4).rows[2]
    real = chartab._pairings

    def one_more_trivial(functions, table=None):
        pairings, vectors = real(functions, table)
        pairings[0][0] += s4.order  # still a multiple of |G|, and nonnegative
        return pairings, vectors

    monkeypatch.setattr(chartab, "_pairings", one_more_trivial)
    with pytest.raises(RuntimeError, match="reconstruct"):
        constituents(chi)


def test_constituents_over_examples(s4):
    P = sylow(s4, 2)
    tab = character_table(s4)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    v_tab = character_table(V4.view)
    lam1 = v_tab.rows[1]
    assert is_invariant_under(lam1, V4, P)
    chi_p = restrict(tab.rows[std_char(s4)], P)
    v4_in_p = P.view.subgroup(V4.members())
    over = lying_over(v4_in_p, lam1)
    assert [i for i, _ in constituents(chi_p) if i in over] == [1]  # exactly beta
    # trivial class function lies over only the trivial theta
    assert [i for i, _ in constituents(restrict(tab.rows[0], P)) if i in over] == []


def test_lying_over(s4):
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    v_tab = character_table(V4.view)
    over_trivial = lying_over(V4, v_tab.rows[0])
    assert over_trivial == [0, 1, 2]  # the characters of S4/V4 = S3


def test_lying_over_refuses_a_subgroup_that_is_not_normal(s4):
    P = sylow(s4, 2)  # order 8, one of three conjugates
    with pytest.raises(ValueError, match="N is not normal"):
        lying_over(P, character_table(P.view).rows[0])


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
    for k in range(1, e):
        if gcd(k, e) != 1:
            continue
        for row in tab.rows:
            tab.index_of(galois_classfn(row, k))  # raises if not a row


@pytest.mark.parametrize("name", CATALOGUE)
def test_galois_action_is_the_power_map(name):
    # the zeta -> zeta^k substitution on values against pi_k on the classes
    table = character_table(named_group(name))
    e = table.group.exponent
    units = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
    assert check_galois_is_power_map(table) == units * table.count


def test_conjugate_classfn_reads_theta_at_g_x_g_inverse(f21):
    # F21 acts on the linear characters of its C7 in orbits of length 3, so
    # theta^g and theta^(g^-1) differ and the direction of conjugation shows
    N = next(M for M in normal_subgroups(f21) if M.order == 7)
    cls = conjugacy_classes(N.view)
    theta = character_table(N.view).rows[1]
    g = next(x for x in f21.elements if reference_order(x) == 3)
    image = conjugate_classfn(theta, N, g)
    for x in N.view.elements:
        gxg = conjugate(x, pm.inverse(g))  # g * x * g^-1
        assert image.values[cls.class_of_perm(x)] == theta.values[cls.class_of_perm(gxg)]
    assert image.values != conjugate_classfn(theta, N, pm.inverse(g)).values


def test_index_of_refuses_a_row_of_another_group_object(s4):
    # the descent reads its last character off P's table with index_of, so a
    # level that is a different object over P's members must be refused
    view = sylow(s4, 2).view
    twin = PermGroup.from_generators(view.degree, view.generators, name=view.name)
    assert set(twin.elements) == set(view.elements)
    with pytest.raises(ValueError, match="operands on different groups"):
        character_table(view).index_of(character_table(twin).rows[0])


# -- exports (golden surface) ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["s4", "d8", "sl23", "f21"])
def test_table_export_golden(name):
    golden = GOLDEN / f"{name}_table.txt"
    assert character_table(load_corpus_group(name)).render_text() == golden.read_text()


def test_table_to_dict_roundtrips_as_json(s4):
    import json

    d = character_table(s4).to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["degrees"] == [1, 1, 2, 3, 3]
    assert d["irreducibles"][0] == ["1", "1", "1", "1", "1"]


@pytest.mark.parametrize("export", ["to_dict", "render_text"])
def test_table_exports_render_each_distinct_value_once(monkeypatch, export):
    from charcorr import chartab

    table = character_table(load_corpus_group("remark648"))
    rendered = []

    def counting_render(v):
        rendered.append(v)
        return render_cyc(v)

    monkeypatch.setattr(chartab, "render_cyc", counting_render)
    getattr(table, export)()
    distinct = {v for row in table.rows for v in row.values}
    assert len(rendered) == len(distinct) and set(rendered) == distinct
    assert len(distinct) < table.count * table.classes.count  # values do repeat here
