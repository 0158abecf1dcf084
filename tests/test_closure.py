"""Coset-extension closure, cached generators and derived subgroups, and
Schreier stabilizers, each against the straightforward reference version in
``closure_reference``.
"""

from closure_reference import bfs_closure, bfs_orbit, brute_stabilizer
from hypothesis import given, settings
from hypothesis import strategies as st
from instances import CORPUS, named_group, s4_wreath_c2

from charcorr import groups
from charcorr.chartab import character_table, orbit_and_stabilizer
from charcorr.common import corpus_path
from charcorr.groups import derived_subgroup, load_group, sylow
from charcorr.kernels import pure
from charcorr.mckay import check_hypotheses, descent_levels
from charcorr.showcase import remark_data


# -- extend_closure ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CORPUS + ("s4wrc2#1", "s4wrc2#2")), st.data())
def test_extend_closure_matches_bfs_closure(name, data):
    G = named_group(name)
    ids = st.integers(min_value=0, max_value=G.order - 1)
    gens = data.draw(st.lists(ids, min_size=1, max_size=4), label="gens")
    k = data.draw(st.integers(min_value=0, max_value=len(gens)), label="prefix")
    base = bfs_closure(G, gens[:k])
    want = bfs_closure(G, gens)
    assert pure.extend_closure(G, base, gens) == want
    limit = data.draw(st.integers(min_value=1, max_value=G.order), label="limit")
    got = pure.extend_closure(G, base, gens, limit=limit)
    assert got == (None if len(want) > limit else want)


def test_extend_closure_limit_is_exact_on_whole_group():
    G = s4_wreath_c2(3)
    gen_ids = [G.id_of(g) for g in G.generators]
    assert pure.extend_closure(G, [0], gen_ids, limit=G.order - 1) is None
    assert pure.extend_closure(G, [0], gen_ids, limit=G.order) == set(range(G.order))


def test_pruned_closure_and_gen_ids_generate_the_members():
    for name in CORPUS + ("s4wrc2#1",):
        G = named_group(name)
        for p in (2, 3):
            P = sylow(G, p)
            assert bfs_closure(G, P.gen_ids) == P.member_ids
            members, gens = G.pruned_closure_ids(sorted(P.member_ids))
            assert set(members) == P.member_ids and bfs_closure(G, gens) == P.member_ids


# -- computed once per subgroup -----------------------------------------------------


def test_gen_ids_and_derived_subgroup_are_computed_once(monkeypatch):
    G = load_group(corpus_path("s4"))  # a fresh group: nothing cached yet
    closures = []
    real = groups.normal_closure_ids

    def counting(*args):
        closures.append(args)
        return real(*args)

    monkeypatch.setattr(groups, "normal_closure_ids", counting)
    P = sylow(G, 2)
    assert P.gen_ids is P.gen_ids
    for X in (P, G.full_subgroup()):
        first = derived_subgroup(X)
        assert derived_subgroup(X) is first
    assert len(closures) == 2  # one per member set: the whole group and P


# -- orbit_and_stabilizer -------------------------------------------------------------


def _check_orbits_and_stabilizers(group, K, L) -> int:
    checked = 0
    for theta in character_table(L.view).rows:
        for actors in (K, group.full_subgroup()):
            orbit, stab = orbit_and_stabilizer(theta, L, actors=actors)
            assert [f.values for f in orbit] == bfs_orbit(theta, L, actors.gen_ids)
            assert stab.member_ids == brute_stabilizer(theta, L, actors)
            checked += 1
    _, default_stab = orbit_and_stabilizer(theta, L)
    assert default_stab.member_ids == brute_stabilizer(theta, L, group.full_subgroup())
    return checked


def test_schreier_stabilizer_on_corpus_descent_levels(positive_instances):
    checked = 0
    for _, inst in positive_instances:
        for group, K, L, *_ in descent_levels(inst):
            checked += _check_orbits_and_stabilizers(group, K, L)
    assert checked == 16  # 8 characters of L over five levels, two actor sets each


def test_schreier_stabilizer_on_s4_wreath_c2():
    for seed in (5, 6):
        (level,) = descent_levels(check_hypotheses(s4_wreath_c2(seed), 2))
        assert (level.group.order, level.K.order, level.L.order) == (1152, 144, 16)
        assert _check_orbits_and_stabilizers(level.group, level.K, level.L) == 32


def test_schreier_stabilizer_on_remark648():
    data = remark_data()
    assert _check_orbits_and_stabilizers(data.G, data.K, data.L) == 6
