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
    product_table,
    restrict,
    _check_eigenvectors,
    _common_eigenvectors,
    _dixon_schneider,
    _inverse_roots,
    _lift_value,
    _pack,
    _pairings,
    _unpack,
    _verify_table,
)
from charcorr.common import corpus, corpus_path, load_corpus_group
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
from charcorr.showcase import remark_data
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
    from charcorr.kernels import pure

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


def test_eigen_check_is_exact_at_the_slot_bound():
    # every vector entry s with s^2 = -1 mod q, so every packed product v_0 v_k is q - 1.
    # With every matrix entry q - 1 too, each slot of an image sums to r * (q-1)^2, the
    # most it can; then v_0 M v = r s^2 (q-1)^2 = -r and v_i v = s^2 = -1 mod q, so the
    # vectors pass exactly when r = -1 mod q.  With one entry per row r instead, every row
    # sums to 1 mod q and the vectors always pass, the slots a little below the bound.
    # q near 2^31 takes r * (q-1)^2 across 2^64: slots of one word, then wider ones.
    for q in (5, 13, 37, 2147483629):
        non_square = next(g for g in range(2, q) if pow(g, (q - 1) // 2, q) == q - 1)
        s = pow(non_square, (q - 1) // 4, q)  # q = 1 mod 4
        for r in range(1, 56 if q < 100 else 9):
            full = [[(j, q - 1) for j in range(r)] for _ in range(r)]
            summing_to_1 = [[(j, r if j == k else q - 1) for j in range(r)] for k in range(r)]
            for count in (1, 2, r):
                vectors = [[s] * r for _ in range(count)]
                _check_eigenvectors([(r - 1, summing_to_1)], vectors, q)
                if r % q == q - 1:
                    _check_eigenvectors([(r - 1, full)], vectors, q)
                else:
                    with pytest.raises(RuntimeError, match="is not invariant: a vector"):
                        _check_eigenvectors([(r - 1, full)], vectors, q)


def test_eigen_check_wants_each_coordinate_as_the_eigenvalue():
    # the split's vectors for S4, scaled, pass against every class matrix; moving one
    # coordinate of one vector makes it fail, as no two central characters of S4
    # differ at one class only
    G = load_group(corpus_path("s4"))
    classes = conjugacy_classes(G)
    q = dixon_prime(G.exponent, G.order)
    built = [
        (i, pure.class_matrix(G, classes.class_of_id, classes.members_ids[p[-1]], classes.rep_ids))
        for i, p in enumerate(classes.powers)
    ]
    vectors = _common_eigenvectors(lambda i: built[i][1], classes.count, q)
    vectors = [[3 * x % q for x in v] for v in vectors]
    _check_eigenvectors(built, vectors, q)
    for a in range(len(vectors)):
        for k in range(1, classes.count):
            bent = [list(v) for v in vectors]
            bent[a][k] = (bent[a][k] + 1) % q
            with pytest.raises(RuntimeError, match="class-matrix eigenspace is not invariant"):
                _check_eigenvectors(built, bent, q)


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


def _fresh_groups(monkeypatch):
    """(name, group) for every corpus group, S4 wr C2, its Sylow 2-subgroup and Heisenberg mod 7.

    Each is built anew, with fresh subgroup views, so none has a table yet.
    """
    from charcorr import groups

    monkeypatch.setattr(groups, "_VIEW_CACHE", {})
    fresh = [(name, load_group(corpus_path(name))) for name in CORPUS]
    wreath = group_from_dict(s4_wreath_c2_record(1))
    fresh += [("s4wrc2#1", wreath), ("s4wrc2#1/P", sylow(wreath, 2).view)]
    fresh.append(("heis7", group_from_dict(RECORDS["heis7"])))
    assert all(G._char_table is None for _, G in fresh)
    return fresh


def test_eigensplit_never_splits_a_space_its_matrix_acts_on_as_a_scalar(monkeypatch):
    # a vector that its class matrix maps to a multiple of itself spans a space the
    # matrix acts on as a scalar: splitting it costs one product and no root pass
    from charcorr import chartab, fq

    products, degrees = [], []
    real_apply, real_roots, real_split = fq.apply, fq.roots, chartab.split

    def counting_apply(columns, v, q):
        products.append(1)
        return real_apply(columns, v, q)

    def counting_roots(coeffs, q):
        degrees.append(len(coeffs) - 1)
        return real_roots(coeffs, q)

    def watched_split(columns, u, q):
        before, passes = len(products), len(degrees)
        parts = real_split(columns, u, q)
        image = real_apply(columns, u, q)
        p = next(j for j, x in enumerate(u) if x)
        lam = image[p] * pow(u[p], q - 2, q) % q
        if image == [lam * x % q for x in u]:
            assert parts == [u] and len(products) == before + 1 and len(degrees) == passes
        else:
            assert len(degrees) == passes + 1 and len(parts) == degrees[-1] > 1
        return parts

    monkeypatch.setattr(fq, "apply", counting_apply)
    monkeypatch.setattr(fq, "roots", counting_roots)
    monkeypatch.setattr(chartab, "split", watched_split)
    for _, G in _fresh_groups(monkeypatch):
        assert character_table(G).count == conjugacy_classes(G).count
    assert degrees and min(degrees) > 1  # the general path still ran, never on a scalar


def test_eigensplit_builds_the_class_matrices_it_always_built(monkeypatch):
    # the split of e_0 stops at r vectors, where the split of spaces stopped at r lines:
    # the same class matrices, in the same canonical order
    built = []
    real = pure.class_matrix

    def counting(*args):
        built.append(1)
        return real(*args)

    monkeypatch.setattr(pure, "class_matrix", counting)
    counts = {}
    for name, G in _fresh_groups(monkeypatch):
        built.clear()
        character_table(G)
        counts[name] = len(built)
    assert counts == {
        "s3": 1,
        "c3xc2": 1,
        "s4": 2,
        "d8": 3,
        "f21": 3,
        "c5c5_c3": 7,
        "c7": 1,
        "sl23": 2,
        "remark648": 4,
        "s4wrc2#1": 4,
        "s4wrc2#1/P": 10,
        "heis7": 8,
    }


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


def _rational_classes(classes) -> set[int]:
    """The classes c with c^k = c for every k prime to the order: pi_k fixes them."""
    return {
        c
        for c, powers in enumerate(classes.powers)
        if all(powers[k] == c for k in range(1, len(powers)) if gcd(k, len(powers)) == 1)
    }


def _run_fresh_remark_pipeline(monkeypatch) -> list[int]:
    """Run the showcase pipeline on fresh subgroup views, with no tables yet.

    Returns the orders of the groups whose tables Dixon-Schneider built: every
    table but N's, which ``recover_psi`` builds from N = L x H.
    """
    from charcorr import chartab, groups

    built = []
    real = chartab._dixon_schneider

    def counting(G):
        built.append(G.order)
        return real(G)

    monkeypatch.setattr(chartab, "_dixon_schneider", counting)
    monkeypatch.setattr(groups, "_VIEW_CACHE", {})
    remark_data.__wrapped__()
    return sorted(built)


def test_remark648_pipeline_lifts_each_distinct_power_row_once(monkeypatch):
    from charcorr import chartab

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
    assert _run_fresh_remark_pipeline(monkeypatch) == [3, 24, 27, 648]
    assert sorted(t.group.order for t, _ in tables) == [3, 24, 27, 72, 648]
    for table, lifts in tables:
        inputs = _lift_inputs(table)
        if table.group.order == 72:  # N's product table lifts nothing
            assert lifts == 0
        else:  # the values at rational classes are read off as integers
            rational, r = _rational_classes(table.classes), table.count
            keys = {key for e, (key, *_) in enumerate(inputs) if e % r not in rational}
            assert lifts == len(keys) < len(inputs)
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
    # at conductor 9 or 12: the engine must embed from the least conductor;
    # N's product table is checked the same way
    from charcorr import chartab

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
    assert _run_fresh_remark_pipeline(monkeypatch) == [3, 24, 27, 648]
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
    from charcorr import chartab

    tables = []
    real_verify = chartab._verify_table

    def recording_verify(table):
        real_verify(table)
        tables.append(table)

    monkeypatch.setattr(chartab, "_verify_table", recording_verify)
    assert _run_fresh_remark_pipeline(monkeypatch) == [3, 24, 27, 648]
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


def _showcase_n():
    """A copy of the showcase's N = L x H, with L and H, and a second copy of N."""
    data = remark_data()
    N = data.N.view
    G, other = (PermGroup.from_generators(N.degree, N.generators, N.name) for _ in range(2))
    return G, G.subgroup(data.L.members()), G.subgroup(data.H.members()), other


def _blocks(factors):
    """G = A x B on blocks of points, A the first factor and B the rest, and a copy of G."""
    records = [S4_RECORD if f == "S4" else _corpus_record(f) for f in factors]
    record = direct_product_record("x".join(factors), *records)
    G, other = group_from_dict(record), group_from_dict(record)
    ids = [G.id_of(g) for g in G.generators]
    k = len(records[0]["generators"])
    A, B = (G.subgroup_from_ids(G.pruned_closure_ids(part)[0]) for part in (ids[:k], ids[k:]))
    return G, A, B, other


@pytest.mark.parametrize(
    "build",
    [_showcase_n, lambda: _blocks(("S4", "S4", "S4")), lambda: _blocks(("f21", "c7"))],
    ids=["showcase_n", "s4_cubed", "f21_x_c7"],
)
def test_product_table_equals_dixon_schneider_row_for_row(build):
    G, A, B, other = build()
    table = product_table(G, A, B)
    assert character_table(G) is table and product_table(G, A, B) is table
    want = [row.values for row in _dixon_schneider(other).rows]
    assert [row.values for row in table.rows] == want


def test_product_table_refuses_a_pair_that_is_not_a_direct_decomposition():
    # B = A leaves a representative of N that does not factor; S3 = C3 C2
    # factors, but C3 and C2 do not commute, and the 6 product rows on its 3
    # classes fail the table check
    G, L, _, _ = _showcase_n()
    s3 = load_group(corpus_path("s3"))
    for group, A, B, message in (
        (G, L, L, "does not factor"),
        (s3, sylow(s3, 3), sylow(s3, 2), "degree squares"),
    ):
        with pytest.raises(RuntimeError, match=message):
            product_table(group, A, B)
        assert group._char_table is None


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
    # induce scales theta(c) by the index |C_G(h)| / |C_H(h)| = |G| |c| / (|H| |C_k|),
    # an integer for consistent class data; a fusion map that sends the
    # identity of C3 to the transpositions (|C_k| = 6) makes it 24 / (3 * 6),
    # an engine fault that induce must refuse
    from charcorr import chartab

    H = sylow(s4, 3)
    theta = character_table(H.view).rows[0]
    cls = conjugacy_classes(s4)
    transpositions = next(k for k in range(cls.count) if (cls.orders[k], cls.sizes[k]) == (2, 6))
    wrong = (transpositions,) + fusion_map(H)[1:]
    monkeypatch.setattr(chartab, "fusion_map", lambda _: wrong)
    with pytest.raises(RuntimeError, match="24/18"):
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
