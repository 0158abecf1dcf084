"""The order-648 showcase and the shipped corpus."""

import json

import pytest

from charcorr import showcase
from charcorr.chartab import (
    character_table,
    constituents,
    induce,
    orbit_and_stabilizer,
    restrict,
)
from charcorr.common import FalsificationError, corpus_path, load_corpus_group
from charcorr.cyclotomic import render_cyc, sqrt_minus3
from charcorr.groups import (
    conjugacy_classes,
    fixed_points_on_cosets,
    is_normal,
    load_group,
    normalizer,
    sylow,
)
from charcorr.mckay import check_hypotheses, mckay_count, verify_main
from charcorr.showcase import (
    build_remark_group,
    remark_data,
    remark_generators,
    remark_report,
)
from chartab_reference import inner_product_int
from cyclotomic_reference import conj
from lemma_checks import check_glauberman_unique, normal_subgroups


@pytest.fixture(scope="module")
def data():
    return remark_data()


# -- construction -----------------------------------------------------------------


def test_orders(data):
    assert data.G.order == 648
    assert data.K.order == 27
    assert data.L.order == 3
    assert data.H.order == 24
    assert data.P.order == 8
    assert data.N.order == 72


def test_sylow_not_self_normalizing(data):
    inst = check_hypotheses(data.G, 2)
    assert inst.sylow.order == 8
    assert inst.normalizer.order == 72
    assert not inst.self_normalizing


def test_k_is_extraspecial_exponent_3(data):
    G = data.G
    assert is_normal(G, data.K)
    cls = conjugacy_classes(G)
    assert all(cls.orders[cls.class_of_id[i]] == 3 for i in data.K.sorted_ids if i != 0)
    from charcorr.groups import derived_subgroup

    # Z(K) read off the classes of size 1, against the elements commuting with all of K
    kv = data.K.view
    k_classes = conjugacy_classes(kv)
    center = {r for r, size in zip(k_classes.rep_ids, k_classes.sizes) if size == 1}
    commuting = {
        i for i in range(kv.order) if all(kv.mul(i, j) == kv.mul(j, i) for j in range(kv.order))
    }
    assert center == commuting and len(center) == 3
    assert {kv.elements[i] for i in center} == data.L.member_set()
    assert derived_subgroup(data.K).member_ids == data.L.member_ids


def test_fixed_point_free_action_on_k_mod_l(data):
    G = data.G
    for xid in data.P.sorted_ids:
        if xid == 0:
            continue
        members, _ = G.pruned_closure_ids([xid])
        assert fixed_points_on_cosets(G.subgroup_from_ids(members), data.K, data.L) == 1


def test_corpus_file_matches_construction(data):
    with open(corpus_path("remark648")) as fh:
        stored = json.load(fh)
    assert stored["degree"] == 27
    assert [tuple(g) for g in stored["generators"]] == [tuple(g) for g in remark_generators()]
    G2 = load_group(corpus_path("remark648"))
    assert G2.order == 648
    assert G2.elements == data.G.elements


# -- fully ramified --------------------------------------------------------------------


def test_fully_ramified_index(data):
    assert data.e == 3
    assert data.e * data.e == data.K.order // data.L.order
    assert data.phi.degree_int() == 3
    assert data.theta_index == 1


def test_theta_is_g_invariant(data):
    _, stab = orbit_and_stabilizer(data.theta, data.L)
    assert stab.order == data.G.order


def test_fully_ramified_check_interns_no_whole_group():
    group = build_remark_group()
    showcase.verify_fully_ramified(group)
    assert all(len(ids) < group.G.order for ids in group.G._subgroups)


def test_fully_ramified_check_names_a_generator_that_moves_theta(monkeypatch):
    group = build_remark_group()
    other = character_table(group.L.view).rows[2]
    monkeypatch.setattr(showcase, "conjugate_classfn", lambda theta, N, g: other)
    with pytest.raises(FalsificationError, match=r"theta is not G-invariant \[generator=0\]"):
        showcase.verify_fully_ramified(group)


def test_trivial_theta_not_fully_ramified(data):
    # negative control: the trivial character induces to |K/L| distinct linears
    l_in_k = data.K.view.subgroup(data.L.members())
    trivial = character_table(data.L.view).rows[0]
    parts = constituents(induce(trivial, l_in_k))
    assert len(parts) == 9
    assert all(m == 1 for _, m in parts)
    k_tab = character_table(data.K.view)
    assert all(k_tab.degrees[i] == 1 for i, _ in parts)


def test_galois_conjugate_theta_same_index(data):
    l_tab = character_table(data.L.view)
    theta_bar = l_tab.rows[2]
    assert theta_bar.values == tuple(conj(v) for v in data.theta.values)
    l_in_k = data.K.view.subgroup(data.L.members())
    parts = constituents(induce(theta_bar, l_in_k))
    assert len(parts) == 1 and parts[0][1] == 3


def test_glauberman_count_on_remark(data):
    assert check_glauberman_unique(data.P, data.K, data.L, data.theta) == 1


# -- psi recovery ------------------------------------------------------------------------


def test_psi_degree_and_values(data):
    assert data.psi_h.degree_int() == 3
    h_classes = conjugacy_classes(data.H.view)
    root = sqrt_minus3()
    for c in range(h_classes.count):
        o = h_classes.orders[c]
        v = data.psi_h.values[c]
        if o == 2:
            assert v == -1
        elif o == 4:
            assert v == 1
        elif o == 3:
            assert v == root or v == -root


def test_psi_faithful_with_nontrivial_linear_part(data):
    h_classes = conjugacy_classes(data.H.view)
    assert all(data.psi_h.values[c] != 3 for c in range(1, h_classes.count))
    assert data.psi_alpha != 0  # the linear constituent is forced nontrivial


def test_psi_candidates_enumerated(data):
    # 3 linears x 3 degree-2 rows were searched; all viable ones are recorded
    assert 1 <= len(data.viable) <= 9
    assert any(c["values_ok"] for c in data.viable)
    for c in data.viable:
        assert c["degree"] == 3


def test_pair_matching_is_bijection(data):
    assert len(data.pairs) == 4
    assert len({c for c, _ in data.pairs}) == 4
    assert len({x for _, x in data.pairs}) == 4
    g_tab = character_table(data.G)
    n_tab = character_table(data.N.view)
    degrees = sorted((g_tab.degrees[c], n_tab.degrees[x]) for c, x in data.pairs)
    assert degrees == [(3, 1), (3, 1), (3, 1), (9, 3)]


def test_product_relation_holds(data):
    from charcorr.chartab import mul_classfn

    g_tab = character_table(data.G)
    n_tab = character_table(data.N.view)
    for ci, xi in data.pairs:
        chi_n = restrict(g_tab.rows[ci], data.N)
        assert chi_n.values == mul_classfn(data.psi_n, n_tab.rows[xi]).values


# -- the non-constituent phenomenon ----------------------------------------------------------


def test_linear_targets_are_not_constituents(data):
    for rec in data.non_constituent:
        if rec["xi_degree"] == 1:
            assert rec["inner_product"] == 0
        assert rec["asserted_zero"] == (rec["xi_degree"] == 1)


def test_restriction_norm_positive(data):
    g_tab = character_table(data.G)
    for ci, _ in data.pairs:
        chi_n = restrict(g_tab.rows[ci], data.N)
        assert inner_product_int(chi_n, chi_n) >= 1


def test_inside_theorem_regime_targets_are_constituents(s4):
    # sanity control: for (S4, 2) the matched xi IS a constituent, exactly once
    inst = check_hypotheses(s4, 2)
    rep = verify_main(inst)
    tab = character_table(s4)
    p_tab = character_table(inst.sylow.view)
    for pair in rep.pairs:
        chi_p = restrict(tab.rows[pair.chi], inst.sylow)
        assert inner_product_int(chi_p, p_tab.rows[pair.star]) == 1


def test_invariant_constituent_lemma_on_remark(data):
    # the order-648 leg of the conjugacy lemma: over every normal subgroup,
    # P-invariant constituents of chi_N are N_G(P)-conjugate, and p'-degree
    # chi always has one
    from charcorr.chartab import is_invariant_under

    G = data.G
    inst = check_hypotheses(G, 2)
    tab = character_table(G)
    checked_multi = 0
    for N in normal_subgroups(G):
        if N.order == G.order:
            continue
        n_tab = character_table(N.view)
        for ci in range(tab.count):
            below = constituents(restrict(tab.rows[ci], N))
            invariant = [
                i for i, _ in below if is_invariant_under(n_tab.rows[i], N, inst.sylow)
            ]
            if tab.degrees[ci] % 2 != 0:
                assert invariant, (ci, N.order)
            if len(invariant) > 1:
                base = n_tab.rows[invariant[0]]
                orbit, _ = orbit_and_stabilizer(base, N, actors=inst.normalizer)
                vals = {f.values for f in orbit}
                for other in invariant[1:]:
                    assert n_tab.rows[other].values in vals
                checked_multi += 1
    assert checked_multi > 0


def test_mckay_count_remark(data):
    inst = check_hypotheses(data.G, 2)
    assert mckay_count(inst) == (12, 12, True)


def test_remark_data_is_immutable(data):
    with pytest.raises(AttributeError):
        data.psi_h = data.psi_n
    assert type(data.pairs) is tuple and type(data.viable) is tuple
    assert all(not key.startswith("_") for c in data.viable for key in c)


def test_remark_report_shape(data):
    rep = remark_report()
    assert rep["orders"] == {"G": 648, "K": 27, "L": 3, "H": 24, "P": 8, "N": 72}
    assert rep["fully_ramified"]["e"] == 3
    assert rep["psi"]["degree"] == 3
    order3 = set(rep["psi"]["values_by_class_order"]["3"])
    assert order3 <= {render_cyc(sqrt_minus3()), render_cyc(-sqrt_minus3())}
    assert json.loads(json.dumps(rep)) == rep


# -- corpus -----------------------------------------------------------------------------------


def test_corpus_composition(corpus_entries):
    assert len([e for e in corpus_entries if e.expect == "theorem"]) >= 6
    names = {e.name for e in corpus_entries}
    assert {"s3", "s4", "d8", "f21", "c3xc2", "c5c5_c3", "sl23", "remark648"} <= names
    pairs = {(e.name, e.prime) for e in corpus_entries}
    assert ("f21", 7) in pairs and ("sl23", 3) in pairs and ("remark648", 2) in pairs


def test_corpus_files_load(corpus_entries):
    for e in corpus_entries:
        G = load_corpus_group(e.name)
        assert G.order > 1


def test_c5c5_c3_self_normalizing_via_fixed_points():
    G = load_corpus_group("c5c5_c3")
    P = sylow(G, 3)
    K = next(N for N in normal_subgroups(G) if N.order == 25)
    assert normalizer(G, P).member_ids == P.member_ids
    assert fixed_points_on_cosets(P, K, G.trivial_subgroup()) == 1


def test_sl23_negative_control():
    G = load_corpus_group("sl23")
    inst = check_hypotheses(G, 3)
    assert not inst.self_normalizing
    assert inst.normalizer.order == 6
