"""Correspondence operations: hypotheses, star, descent, extension,
coprime uniqueness, counts, coincidence, and the supporting lemma checks
run exhaustively over corpus-derivable configurations."""

import json
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcorr import mckay
from charcorr import perm as pm
from charcorr.chartab import (
    ClassFunction,
    character_table,
    constituents,
    is_invariant_under,
    lying_over,
    orbit_and_stabilizer,
    p_prime_irreducibles,
    restrict,
)
from charcorr.cli import main
from charcorr.common import (
    FalsificationError,
    HypothesisError,
    as_json,
    corpus_path,
    load_corpus_group,
)
from charcorr.cyclotomic import prime_factors
from charcorr.groups import (
    PermGroup,
    conjugacy_classes,
    group_from_dict,
    intersection,
    load_group,
    sylow,
)
from charcorr.mckay import (
    Counts,
    DescentStep,
    check_hypotheses,
    descent_levels,
    instance_with_sylow,
    is_p_solvable,
    isaacs_descent,
    mckay_count,
    navarro_star,
    verify_main,
)
from chartab_reference import inner_product, inner_product_int
from galois_check import check_galois_equivariance
from instances import (
    THEOREM_INSTANCES,
    fresh_group,
    gl23_record,
    named_group,
    s4_wreath_c2_record,
)
from lemma_checks import check_extension, check_glauberman_unique, normal_subgroups
from perm_reference import conjugate, reference_order


def std_char(s4):
    tab = character_table(s4)
    return next(i for i in range(5) if tab.degrees[i] == 3 and tab.rows[i].values[2] == 1)


# -- hypotheses ---------------------------------------------------------------------


def test_check_hypotheses_examples(s4, f21):
    i42 = check_hypotheses(s4, 2)
    assert i42.solvable and i42.self_normalizing and i42.parity_ok
    assert i42.sylow.order == 8 and i42.normalizer.order == 8
    i213 = check_hypotheses(f21, 3)
    assert i213.hypotheses_ok  # odd order
    i217 = check_hypotheses(f21, 7)
    assert not i217.self_normalizing  # the Sylow 7-subgroup is normal
    assert i217.normalizer.order == 21


def test_check_hypotheses_rejects_non_prime(s4):
    with pytest.raises(HypothesisError):
        check_hypotheses(s4, 6)


def test_falsification_error_carries_context():
    err = FalsificationError("statement failed", group="S4", chi=3)
    assert "statement failed" in str(err)
    assert "group=S4" in str(err) and "chi=3" in str(err)
    assert err.context == {"group": "S4", "chi": 3}


def test_p_solvable():
    a5_gens = [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]
    a5 = PermGroup.from_generators(5, a5_gens, name="A5")
    assert not is_p_solvable(a5, 2)
    assert not is_p_solvable(a5, 5)
    assert is_p_solvable(a5, 7)  # 7 does not divide 60: one p'-chief factor
    s4 = load_corpus_group("s4")
    assert is_p_solvable(s4, 2) and is_p_solvable(s4, 5)
    # A5 is a chief factor of each; its order 60 is divisible by 2, 3 and 5 only
    c7 = list(range(5)) + [6, 7, 8, 9, 10, 11, 5]
    c2 = [0, 1, 2, 3, 4, 6, 5]
    a5_on_12 = [g + list(range(5, 12)) for g in a5_gens]
    groups = [
        PermGroup.from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], name="S5"),
        PermGroup.from_generators(12, a5_on_12 + [c7], name="A5xC7"),
        PermGroup.from_generators(7, [g + [5, 6] for g in a5_gens] + [c2], name="A5xC2"),
    ]
    assert [G.order for G in groups] == [120, 420, 120]
    for G in groups:
        assert [is_p_solvable(G, p) for p in (2, 3, 5, 7, 11)] == [False, False, False, True, True]


# -- star map -----------------------------------------------------------------------


def test_star_trivial_and_linear(s4):
    inst = check_hypotheses(s4, 2)
    p_tab = character_table(inst.sylow.view)
    assert navarro_star(inst, 0) == 0  # trivial -> trivial
    star1 = navarro_star(inst, 1)  # sign character is linear: chi* = chi_P
    sgn_p = restrict(character_table(s4).rows[1], inst.sylow)
    assert p_tab.rows[star1].values == sgn_p.values


def test_star_standard_character(s4):
    inst = check_hypotheses(s4, 2)
    star = navarro_star(inst, std_char(s4))
    p_tab = character_table(inst.sylow.view)
    from charcorr.cyclotomic import render_cyc

    assert [render_cyc(v) for v in p_tab.rows[star].values] == ["1", "1", "1", "-1", "-1"]
    # Delta = chi_P - beta is the degree-2 irreducible: p | 2
    chi_p = restrict(character_table(s4).rows[std_char(s4)], inst.sylow)
    delta = constituents(chi_p - p_tab.rows[star])
    assert delta == [(4, 1)] and p_tab.degrees[4] % 2 == 0


def test_star_refuses_p_divisible_degree(s4):
    inst = check_hypotheses(s4, 2)
    with pytest.raises(HypothesisError):
        navarro_star(inst, 2)  # degree 2


def test_star_refuses_without_self_normalizing(sl23):
    inst = check_hypotheses(sl23, 3)
    with pytest.raises(HypothesisError):
        navarro_star(inst, 0)


# -- descent ------------------------------------------------------------------------


def test_descent_on_p_group_is_identity(d8):
    inst = check_hypotheses(d8, 2)
    tab = character_table(d8)
    for ci in p_prime_irreducibles(tab, 2):
        xi, trace = isaacs_descent(inst, ci)
        assert trace == ()
        p_tab = character_table(inst.sylow.view)
        assert p_tab.rows[xi].values == restrict(tab.rows[ci], inst.sylow.parent.full_subgroup()).values


def test_descent_standard_s4(s4):
    inst = check_hypotheses(s4, 2)
    xi, trace = isaacs_descent(inst, std_char(s4))
    assert len(trace) == 1
    step = trace[0]
    assert (step.order, step.k_order, step.l_order, step.h_order) == (24, 12, 4, 8)
    assert step.theta_degree == 1 and step.fixed_cosets == 1
    assert xi == navarro_star(inst, std_char(s4))


def test_descent_f21_linear(f21):
    inst = check_hypotheses(f21, 3)
    tab = character_table(f21)
    ci = 1  # a nontrivial linear character
    xi, trace = isaacs_descent(inst, ci)
    assert len(trace) == 1
    step = trace[0]
    assert (step.k_order, step.l_order, step.h_order) == (7, 1, 3)
    p_tab = character_table(inst.sylow.view)
    assert p_tab.rows[xi].values == restrict(tab.rows[ci], inst.sylow).values


def test_descent_refuses_bad_parity(sl23):
    inst = check_hypotheses(sl23, 3)
    with pytest.raises(HypothesisError):
        isaacs_descent(inst, 0)


def test_star_available_when_only_parity_fails():
    # A4 at p=3: even order, odd p, but the Sylow 3-subgroup is
    # self-normalizing, so the star map applies while the descent refuses
    a4 = PermGroup.from_generators(4, [[1, 2, 0, 3], [1, 0, 3, 2]], name="A4")
    assert a4.order == 12
    inst = check_hypotheses(a4, 3)
    assert inst.self_normalizing and not inst.parity_ok
    tab = character_table(a4)
    p_tab = character_table(inst.sylow.view)
    stars = [navarro_star(inst, ci) for ci in p_prime_irreducibles(tab, 3)]
    assert sorted(stars) == list(p_tab.linear_indices())
    with pytest.raises(HypothesisError):
        isaacs_descent(inst, 0)


def test_descent_final_is_constituent_of_restriction(positive_instances):
    # the crux: xi is a constituent of chi_P with multiplicity exactly 1
    for entry, inst in positive_instances:
        tab = character_table(inst.group)
        p_tab = character_table(inst.sylow.view)
        for ci in p_prime_irreducibles(tab, inst.p):
            xi, _ = isaacs_descent(inst, ci)
            chi_p = restrict(tab.rows[ci], inst.sylow)
            assert inner_product_int(chi_p, p_tab.rows[xi]) == 1, (entry.name, ci)


# -- extension witness ---------------------------------------------------------------


def test_extension_s4_v4(s4):
    inst = check_hypotheses(s4, 2)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    v_tab = character_table(V4.view)
    lam1 = v_tab.rows[1]
    g_theta, witness = check_extension(inst, V4, std_char(s4), lam1)
    assert g_theta.order == 8
    w_tab = character_table(g_theta.view)
    assert w_tab.degrees[witness] == 1


def test_extension_trivial_theta(s4, f21):
    for G, p, ci in ((s4, 2, 0), (f21, 3, 1)):
        inst = check_hypotheses(G, p)
        for N in normal_subgroups(G):
            theta = character_table(N.view).rows[0]
            if not inner_product_int(restrict(character_table(G).rows[ci], N), theta):
                continue
            g_theta, witness = check_extension(inst, N, ci, theta)
            assert g_theta.order == G.order  # trivial theta is G-invariant
            assert character_table(g_theta.view).degrees[witness] == 1


def test_extension_exhaustive_over_corpus(positive_instances):
    # every normal N, every p'-chi, the canonical P-invariant theta below chi
    for entry, inst in positive_instances:
        G = inst.group
        tab = character_table(G)
        for N in normal_subgroups(G):
            n_tab = character_table(N.view)
            for ci in p_prime_irreducibles(tab, inst.p):
                below = constituents(restrict(tab.rows[ci], N))
                invariant = [
                    i for i, _ in below if is_invariant_under(n_tab.rows[i], N, inst.sylow)
                ]
                assert invariant, (entry.name, ci, N.order)  # exists by p'-degree
                theta = n_tab.rows[invariant[0]]
                g_theta, witness = check_extension(inst, N, ci, theta)
                w_tab = character_table(g_theta.view)
                n_in = g_theta.view.subgroup(N.members())
                assert restrict(w_tab.rows[witness], n_in).values == theta.values


def test_extension_validates_inputs(s4):
    inst = check_hypotheses(s4, 2)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    v_tab = character_table(V4.view)
    with pytest.raises(ValueError):
        check_extension(inst, V4, 0, v_tab.rows[1])  # theta not under trivial chi


# -- coprime uniqueness ----------------------------------------------------------------


def test_glauberman_inverting_involution(s3):
    c3_members = [p for p in s3.elements if reference_order(p) != 2]
    K = s3.subgroup(c3_members)
    N = s3.trivial_subgroup()
    flip = next(p for p in s3.elements if reference_order(p) == 2)
    P = s3.subgroup([pm.identity(3), flip])
    theta = character_table(N.view).rows[0]
    assert check_glauberman_unique(P, K, N, theta) == 1


def test_glauberman_trivial_action(s4):
    triv = s4.trivial_subgroup()
    K = triv
    theta = character_table(triv.view).rows[0]
    assert check_glauberman_unique(triv, K, triv, theta) == 1


def test_glauberman_s4_a4_over_v4(s4):
    inst = check_hypotheses(s4, 2)
    A4 = next(N for N in normal_subgroups(s4) if N.order == 12)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    lam1 = character_table(V4.view).rows[1]
    assert check_glauberman_unique(inst.sylow, A4, V4, lam1) == 1


def test_glauberman_validates_coprimality(s4):
    inst = check_hypotheses(s4, 2)
    A4 = next(N for N in normal_subgroups(s4) if N.order == 12)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    theta = character_table(V4.view).rows[0]
    with pytest.raises(ValueError):
        check_glauberman_unique(inst.sylow, s4.full_subgroup(), A4, character_table(A4.view).rows[0])


def test_glauberman_descent_configurations(positive_instances):
    # re-run the coprime uniqueness check on every descent step's (P, K_theta, L)
    for entry, inst in positive_instances:
        for _, K, L, P_here, *_ in descent_levels(inst):
            l_tab = character_table(L.view)
            for i in range(l_tab.count):
                theta = l_tab.rows[i]
                if not is_invariant_under(theta, L, P_here):
                    continue
                _, k_theta = orbit_and_stabilizer(theta, L, actors=K)
                count = check_glauberman_unique(P_here, k_theta, L, theta)
                from charcorr.groups import fixed_points_on_cosets

                if fixed_points_on_cosets(P_here, k_theta, L) == 1:
                    assert count == 1


# -- counts ------------------------------------------------------------------------------


def test_mckay_count_examples(s4, f21, c7, sl23):
    assert mckay_count(check_hypotheses(s4, 2)) == (4, 4, True)
    assert mckay_count(check_hypotheses(f21, 3)) == (3, 3, True)
    assert mckay_count(check_hypotheses(c7, 7)) == (7, 7, True)
    assert mckay_count(check_hypotheses(sl23, 3)) == (6, 6, True)
    assert mckay_count(check_hypotheses(f21, 7)) == (5, 5, True)


def test_mckay_count_everywhere(corpus_instances):
    for entry, inst in corpus_instances:
        a, b, equal = mckay_count(inst)
        assert equal, (entry.name, entry.prime, a, b)


# -- the coincidence verdict ----------------------------------------------------------------


def test_verify_main_positive_corpus(positive_instances):
    assert len(positive_instances) >= 6
    for entry, inst in positive_instances:
        rep = verify_main(inst)
        assert rep.verdict, (entry.name, entry.prime)
        assert rep.star_bijection and rep.descent_bijection
        assert all(p.coincide for p in rep.pairs)
        assert len(rep.pairs) == rep.linear_count


def test_verify_main_refuses_bad_instances(sl23):
    with pytest.raises(HypothesisError):
        verify_main(check_hypotheses(sl23, 3))


def test_verify_main_d8_trivial(d8):
    rep = verify_main(check_hypotheses(d8, 2))
    assert rep.verdict and len(rep.pairs) == 4
    assert [p.star for p in rep.pairs] == [p.descent for p in rep.pairs]


def test_conductor_1_tables_skip_the_fourier_lift_and_the_packed_pairings(monkeypatch):
    # every table verify builds for S4 wr C2 at p = 2 has conductor 1: values
    # are read off as integers and paired as integers; F21 needs both engines.
    # The eigenspace split packs rows of its own; only the pairings' are counted.
    from charcorr import chartab, groups

    calls = {"_lift_value": 0, "_pack": 0}
    pairing = []
    real_pairings, real_pack, real_lift = chartab._pairings, chartab._pack, chartab._lift_value

    def in_pairings(*args):
        pairing.append(True)
        try:
            return real_pairings(*args)
        finally:
            pairing.pop()

    def counting_pack(*args):
        calls["_pack"] += bool(pairing)
        return real_pack(*args)

    def counting_lift(*args):
        calls["_lift_value"] += 1
        return real_lift(*args)

    monkeypatch.setattr(chartab, "_pairings", in_pairings)
    monkeypatch.setattr(chartab, "_pack", counting_pack)
    monkeypatch.setattr(chartab, "_lift_value", counting_lift)
    for G, p, used in (
        (group_from_dict(s4_wreath_c2_record(1)), 2, False),
        (load_group(corpus_path("f21")), 3, True),
    ):
        monkeypatch.setattr(groups, "_VIEW_CACHE", {})  # fresh subgroup views, no tables yet
        calls.update(dict.fromkeys(calls, 0))
        assert verify_main(check_hypotheses(G, p)).verdict
        assert all(bool(n) is used for n in calls.values()), (G.name, calls)
    assert character_table(G).conductor == 21


def test_verification_records_are_immutable(s4):
    inst = check_hypotheses(s4, 2)
    rep = verify_main(inst)
    pair = next(p for p in rep.pairs if p.trace)
    assert type(pair.trace) is tuple and type(rep.pairs) is tuple
    for record, field in (
        (inst, "p"),
        (pair.trace[0], "k_order"),
        (pair, "star"),
        (rep.counts, "equal"),
        (rep, "verdict"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.note = "no new attributes either"


def test_report_dict_shape(s4):
    rep = verify_main(check_hypotheses(s4, 2))
    d = as_json(rep)
    assert d["verdict"] is True
    assert d["counts"]["equal"] is True
    assert len(d["pairs"]) == 4
    assert d["pairs"][0]["trace"][0]["k_order"] == 12


def test_as_json_turns_a_record_inside_a_dict_inside_a_tuple_into_plain_json():
    step = DescentStep("S4", 24, 12, 4, 8, 1, 1, 1, 2, 1)
    value = ({"trace": (step,), "counts": Counts(4, 4, True)}, [None, (2, 3)])
    plain = as_json(value)
    assert plain == [
        {
            "trace": [
                {
                    "group": "S4",
                    "order": 24,
                    "k_order": 12,
                    "l_order": 4,
                    "h_order": 8,
                    "theta": 1,
                    "theta_degree": 1,
                    "fixed_cosets": 1,
                    "eta": 2,
                    "eta_degree": 1,
                }
            ],
            "counts": {"irr_p_prime_g": 4, "irr_p_prime_n": 4, "equal": True},
        },
        [None, [2, 3]],
    ]
    assert type(plain[0]["trace"][0]) is dict  # not the record itself
    assert json.loads(json.dumps(plain)) == plain


def test_report_serializes_by_its_field_names(s4):
    rep = verify_main(check_hypotheses(s4, 2))
    d = as_json(rep)
    assert list(d) == list(rep._fields)
    assert list(d["pairs"][0]) == list(rep.pairs[0]._fields)


def test_descent_chain_depends_on_the_sylow_subgroup(s4):
    # two instances on S4 whose Sylow 2-subgroups differ descend through different H
    base = check_hypotheses(s4, 2)
    conjugates = (
        s4.subgroup(conjugate(x, g) for x in base.sylow.members()) for g in s4.elements
    )
    other = instance_with_sylow(s4, 2, next(Q for Q in conjugates if Q != base.sylow))
    rows = p_prime_irreducibles(character_table(s4), 2)
    chains = [descent_levels(inst) for inst in (base, other)]
    for inst, levels in zip((base, other), chains):
        for ci in rows:
            xi, trace = isaacs_descent(inst, ci, levels)
            assert xi == navarro_star(inst, ci)
        (level,) = levels
        assert level.group is s4 and level.P_here.parent is s4
        assert level.P_here.member_ids <= level.H.member_ids
    assert chains[0][0].H.member_ids != chains[1][0].H.member_ids


def test_gl23_descends_through_three_levels():
    inst = check_hypotheses(group_from_dict(gl23_record()), 2)
    levels = descent_levels(inst)
    assert [(lv.group.order, lv.H.order) for lv in levels] == [(1296, 432), (432, 48), (48, 16)]
    rep = verify_main(inst)
    assert rep.verdict is True and len(rep.pairs) == 4
    for pair in rep.pairs:
        assert [s.order for s in pair.trace] + [pair.trace[-1].h_order] == [1296, 432, 48, 16]


def test_verify_on_a_solvable_group_skips_the_p_solvability_walk(monkeypatch):
    calls = []
    real = mckay.is_p_solvable
    monkeypatch.setattr(mckay, "is_p_solvable", lambda G, p: calls.append(p) or real(G, p))
    rep = verify_main(check_hypotheses(group_from_dict(s4_wreath_c2_record(1)), 2))
    assert rep.verdict is True and len(rep.pairs) == 8
    assert calls == []


def test_verify_interns_no_whole_group_when_the_sylow_is_proper():
    # a run interns the whole group only as P or N_G(P), and with P < G neither is G
    for name, p in THEOREM_INSTANCES:
        G = fresh_group(name)
        inst = check_hypotheses(G, p)
        if inst.sylow.order < G.order:
            assert verify_main(inst).verdict is True
            assert all(len(ids) < G.order for ids in G._subgroups), name


def test_a_descent_level_failure_is_recorded_for_every_character(monkeypatch, tmp_path):
    # with L = K at level 0 the chain cannot be built; each chi still gets its star
    monkeypatch.setattr(mckay, "derived_subgroup", lambda K: K)
    record = s4_wreath_c2_record(1)
    rep = verify_main(check_hypotheses(group_from_dict(record), 2))
    assert len(rep.pairs) == 8 and rep.verdict is False
    for pair in rep.pairs:
        assert pair.error.startswith("descent cannot progress")
        assert pair.star is not None and pair.descent is None and not pair.coincide
    path = tmp_path / "s4wrc2.json"
    path.write_text(json.dumps(record))
    args = ["verify", "--group", str(path), "-p", "2", "--out", str(tmp_path / "out.txt")]
    assert main(args) == 1


def test_verify_main_names_the_failed_flags_in_order(sl23, f21):
    with pytest.raises(HypothesisError) as info:
        verify_main(check_hypotheses(sl23, 3))
    assert str(info.value) == "(SL(2,3), p=3) does not satisfy: self_normalizing, parity"
    with pytest.raises(HypothesisError) as info:
        verify_main(check_hypotheses(f21, 7))
    assert str(info.value) == "(F21, p=7) does not satisfy: self_normalizing"


def _conjugation_on_rows(P, Q, g):
    """Row i of Irr(P) -> the row of Irr(Q) that is its g-conjugate, Q = P^g.

    lambda^g(x^g) = lambda(x), read through the class representatives of P.
    """
    p_cls, q_cls = conjugacy_classes(P.view), conjugacy_classes(Q.view)
    q_table = character_table(Q.view)
    image = [q_cls.class_of_perm(conjugate(p_cls.rep(k), g)) for k in range(p_cls.count)]
    rows = []
    for lam in character_table(P.view).rows:
        values = [None] * q_cls.count
        for k, v in zip(image, lam.values):
            values[k] = v
        rows.append(q_table.index_of(ClassFunction(Q.view, values)))
    return rows


def test_sylow_choice_independence():
    # naturality: for g outside N_G(P), star and descent for P^g are the g-conjugates
    # of those for P (every chi is a class function of G, so chi^g = chi)
    instances = 0
    for name, p in THEOREM_INSTANCES:
        G = named_group(name)
        base = check_hypotheses(G, p)
        g_id = next((i for i in range(G.order) if i not in base.normalizer.member_ids), None)
        if g_id is None:  # P = G
            continue
        g = G.elements[g_id]
        conjugates = G.subgroup(conjugate(x, g) for x in base.sylow.members())
        other = instance_with_sylow(G, p, conjugates)
        assert other.sylow != base.sylow
        rep_a, rep_b = verify_main(base), verify_main(other)
        assert rep_a.verdict is rep_b.verdict is True, name
        assert rep_a.counts == rep_b.counts and rep_a.linear_count == rep_b.linear_count
        conjugate_of = _conjugation_on_rows(base.sylow, other.sylow, g)
        assert [a.chi for a in rep_a.pairs] == [b.chi for b in rep_b.pairs]
        for a, b in zip(rep_a.pairs, rep_b.pairs):
            assert (b.star, b.descent) == (conjugate_of[a.star], conjugate_of[a.descent]), name
        instances += 1
    assert instances >= 11


@st.composite
def small_generator_sets(draw):
    """(degree, generators): at most 3 permutations of degree at most 6."""
    degree = draw(st.integers(1, 6))
    return degree, draw(st.lists(st.permutations(range(degree)), max_size=3))


@settings(max_examples=200, deadline=None)
@given(small_generator_sets())
def test_random_small_groups_have_exact_tables_and_true_verdicts(drawn):
    degree, generators = drawn
    G = PermGroup.from_generators(degree, generators, name="random", cap=720)
    table = character_table(G)
    assert sum(d * d for d in table.degrees) == G.order
    assert sum(conjugacy_classes(G).sizes) == G.order  # the class equation
    for i, a in enumerate(table.rows):
        for j, b in enumerate(table.rows):
            assert inner_product(a, b) == (1 if i == j else 0)
    for p in prime_factors(G.order):
        inst = check_hypotheses(G, p)
        if inst.hypotheses_ok:
            assert verify_main(inst).verdict is True, (generators, p)


@pytest.mark.parametrize("name, p", THEOREM_INSTANCES)
def test_galois_equivariance(name, p):
    # one check per pair (sigma, chi): sigma in Gal(Q(zeta_e)/Q), e = exp(G), chi in Irr_p'(G)
    inst = check_hypotheses(named_group(name), p)
    e = inst.group.exponent
    galois_maps = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
    p_prime = p_prime_irreducibles(character_table(inst.group), p)
    assert check_galois_equivariance(inst) == galois_maps * len(p_prime)


# -- restriction bijection and conjugacy of invariant constituents (lemma checks) -------------


def _factor_pool(G):
    pool = []
    for p in (2, 3, 5, 7):
        if G.order % p == 0:
            pool.append(sylow(G, p))
    cls = conjugacy_classes(G)
    for i in range(cls.count):
        members, _ = G.pruned_closure_ids([cls.rep_ids[i]])
        pool.append(G.subgroup_from_ids(members))
    pool.append(G.full_subgroup())
    return pool


def test_restriction_bijection_lemma():
    # G = KH with K normal, phi in Irr(K) G-invariant, phi_N irreducible
    # (N = K intersect H): restriction is a bijection Irr(G|phi) -> Irr(H|phi_N)
    checked = 0
    for name in ("s3", "s4", "d8", "f21", "sl23", "c5c5_c3"):
        G = load_corpus_group(name)
        tab = character_table(G)
        for K in normal_subgroups(G):
            k_tab = character_table(K.view)
            for H in _factor_pool(G):
                inter = intersection(K, H)
                if K.order * H.order // inter.order != G.order:
                    continue
                n_in_k = K.view.subgroup(inter.members())
                n_tab = character_table(inter.view)
                for i in range(k_tab.count):
                    phi = k_tab.rows[i]
                    _, stab = orbit_and_stabilizer(phi, K)
                    if stab.order != G.order:
                        continue
                    phi_n = restrict(phi, n_in_k)
                    if inner_product_int(phi_n, phi_n) != 1:
                        continue
                    over_phi = lying_over(K, phi)
                    theta_row = n_tab.rows[n_tab.index_of(phi_n)]
                    h_tab = character_table(H.view)
                    over_theta = lying_over(H.view.subgroup(inter.members()), theta_row)
                    restrictions = []
                    for ci in over_phi:
                        res = restrict(tab.rows[ci], H)
                        assert inner_product_int(res, res) == 1, (name, ci)  # irreducible
                        restrictions.append(h_tab.index_of(res))
                    assert sorted(restrictions) == over_theta, (name, K.order, H.order)
                    assert len(set(restrictions)) == len(over_phi)
                    checked += 1
    assert checked >= 10


def test_invariant_constituents_are_normalizer_conjugate(corpus_instances):
    # P-invariant constituents of chi_N are N_G(P)-conjugate; for p'-degree chi
    # one exists, and it is unique when N_G(P) = P
    for entry, inst in corpus_instances:
        G = inst.group
        if G.order > 100:
            continue  # the order-648 instance is covered in the showcase tests
        tab = character_table(G)
        for N in normal_subgroups(G):
            if N.order == G.order:
                continue
            n_tab = character_table(N.view)
            for ci in range(tab.count):
                below = constituents(restrict(tab.rows[ci], N))
                invariant = [
                    i for i, _ in below if is_invariant_under(n_tab.rows[i], N, inst.sylow)
                ]
                if tab.degrees[ci] % inst.p != 0:
                    assert invariant, (entry.name, entry.prime, ci, N.order)
                    if inst.self_normalizing:
                        assert len(invariant) == 1
                if len(invariant) > 1:
                    base = n_tab.rows[invariant[0]]
                    orbit, _ = orbit_and_stabilizer(base, N, actors=inst.normalizer)
                    orbit_vals = {f.values for f in orbit}
                    for other in invariant[1:]:
                        assert n_tab.rows[other].values in orbit_vals
