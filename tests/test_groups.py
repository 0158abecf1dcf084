"""Group core: enumeration, classes, and the subgroup toolbox.

Derived expected values are frozen from independent brute-force oracles
implemented right here (conjugation orbits by double loop, commutator
closure over all pairs, exhaustive subgroup scans on the smallest groups).
"""

import json
import time
import tracemalloc

import pytest

from charcorr import perm as pm
from charcorr.groups import (
    MAX_DEGREE,
    MAX_GENERATORS,
    GroupTooLargeError,
    MalformedGroupError,
    PermGroup,
    centralizer,
    conjugacy_classes,
    coset_rep_ids,
    derived_series,
    derived_subgroup,
    fixed_points_on_cosets,
    group_from_dict,
    intersection,
    is_normal,
    is_solvable,
    load_group,
    normal_subgroups,
    normalizer,
    o_p_residual,
    p_part,
    product_subgroup,
    sylow,
)
from charcorr.showcase import corpus, load_corpus_group


# -- oracles -------------------------------------------------------------------


def brute_conj_classes(G):
    """Conjugation orbits by scanning all (g, x) pairs; returns frozensets."""
    out = []
    left = set(G.elements)
    while left:
        x = next(iter(left))
        orbit = frozenset(pm.conjugate(x, g) for g in G.elements)
        out.append(orbit)
        left -= orbit
    return set(out)


def brute_commutator_closure(G, members):
    """Closure of all commutators of the given member set, as a perm set."""
    seeds = {pm.commutator(a, b) for a in members for b in members}
    closure = {pm.identity(G.degree)}
    frontier = [pm.identity(G.degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = pm.compose(x, s)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    return closure


def brute_all_subgroups(G):
    """All subgroups by closure of every subset of a small group."""
    from itertools import combinations

    els = list(G.elements)
    found = set()
    for r in range(len(els) + 1):
        for combo in combinations(range(len(els)), min(r, 3)):
            seeds = [els[i] for i in combo]
            closure = {pm.identity(G.degree)}
            frontier = list(closure)
            while frontier:
                nxt = []
                for x in frontier:
                    for s in seeds:
                        y = pm.compose(x, s)
                        if y not in closure:
                            closure.add(y)
                            nxt.append(y)
                frontier = nxt
            found.add(frozenset(closure))
        if r >= 3:
            break  # every subgroup of a group of order <= 24 is 3-generated
    return found


# -- load_group -----------------------------------------------------------------


def test_load_group_dihedral(tmp_path):
    path = tmp_path / "d8.json"
    path.write_text(json.dumps({"name": "D8", "degree": 4, "generators": [[1, 2, 3, 0], [2, 1, 0, 3]]}))
    G = load_group(path)
    assert G.order == 8
    assert G.elements[0] == (0, 1, 2, 3)


def test_load_group_s4_from_listed_generators():
    G = PermGroup.from_generators(4, [[1, 0, 2, 3], [1, 2, 3, 0]], name="S4")
    assert G.order == 24


def test_load_group_rejects_non_bijective(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "degree": 3, "generators": [[1, 0, 1]]}))
    with pytest.raises(MalformedGroupError):
        load_group(path)


def test_load_group_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MalformedGroupError):
        load_group(path)


def test_group_description_bounds_checked_before_allocating():
    tracemalloc.start()
    t0 = time.perf_counter()
    for degree, generators in ((10**12, []), (0, []), (-3, []), (2, [[0, 1]] * 65)):
        with pytest.raises(MalformedGroupError):
            group_from_dict({"name": "big", "degree": degree, "generators": generators})
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert elapsed < 1.0 and peak < 100_000
    assert PermGroup.from_generators(MAX_DEGREE, [], name="wide").order == 1
    assert PermGroup.from_generators(2, [[1, 0]] * MAX_GENERATORS, name="many").order == 2


def test_enumeration_cap_is_explicit_error():
    with pytest.raises(GroupTooLargeError):
        PermGroup.from_generators(4, [[1, 0, 2, 3], [1, 2, 3, 0]], name="S4", cap=10)


def test_element_order_is_bfs_with_sorted_levels(s4):
    # level 1 = sorted generators; identity first
    assert s4.elements[0] == (0, 1, 2, 3)
    assert list(s4.elements[1:3]) == sorted([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert len(set(s4.elements)) == s4.order


# -- conjugacy classes ------------------------------------------------------------


def test_s4_classes_match_brute_force(s4):
    cls = conjugacy_classes(s4)
    assert cls.count == 5
    brute = brute_conj_classes(s4)
    ours = {
        frozenset(s4.elements[i] for i in members) for members in cls.members_ids
    }
    assert ours == brute
    assert sorted(cls.sizes) == [1, 3, 6, 6, 8]
    assert sum(cls.sizes) == 24


def test_class_canonical_order(s4):
    # sorted by (rep element order, class size, first member position); identity first
    cls = conjugacy_classes(s4)
    keys = [
        (cls.rep_order(i), cls.sizes[i], cls.members_ids[i][0]) for i in range(cls.count)
    ]
    assert keys == sorted(keys)
    assert cls.sizes[0] == 1 and cls.rep_order(0) == 1
    assert cls.sizes == (1, 3, 6, 8, 6)


def test_cyclic_group_classes(c7):
    cls = conjugacy_classes(c7)
    assert cls.count == 7
    assert all(s == 1 for s in cls.sizes)


def test_d8_classes(d8):
    cls = conjugacy_classes(d8)
    assert cls.count == 5
    assert cls.sizes == (1, 1, 2, 2, 2)
    brute = brute_conj_classes(d8)
    ours = {frozenset(d8.elements[i] for i in ms) for ms in cls.members_ids}
    assert ours == brute


# -- sylow ---------------------------------------------------------------------------


def test_sylow_orders(s4, f21):
    assert sylow(s4, 2).order == 8
    assert sylow(s4, 3).order == 3
    assert sylow(f21, 3).order == 3
    assert sylow(s4, 5).order == 1  # p does not divide |G|


def test_sylow_conjugate_count_f21(f21):
    P = sylow(f21, 3)
    members = set(P.members())
    conjugates = {
        frozenset(pm.conjugate(x, g) for x in members) for g in f21.elements
    }
    assert len(conjugates) == 7


def test_sylow_exact_p_part_everywhere():
    for entry in corpus():
        G = load_corpus_group(entry.name)
        for p in (2, 3, 5, 7):
            assert sylow(G, p).order == p_part(G.order, p)


# -- normalizer / centralizer ---------------------------------------------------------


def test_normalizer_of_sylow2_in_s4(s4):
    P = sylow(s4, 2)
    assert normalizer(s4, P).member_ids == P.member_ids  # 3 Sylow 2-subgroups


def test_normalizer_of_whole_group(s4):
    assert normalizer(s4, s4.full_subgroup()).order == 24


def test_normalizer_of_sylow3_in_f21(f21):
    P = sylow(f21, 3)
    assert normalizer(f21, P).order == 3


def test_centralizer_in_s3(s3):
    flip = next(p for p in s3.elements if pm.order(p) == 2)
    c3 = next(p for p in s3.elements if pm.order(p) == 3)
    cent = centralizer(s3, flip)
    rotations = s3.subgroup([pm.identity(3), c3, pm.compose(c3, c3)])
    assert intersection(cent, rotations).order == 1


# -- derived subgroup and series --------------------------------------------------------


def test_derived_subgroup_s4_is_brute_commutator_closure(s4):
    D = derived_subgroup(s4)
    assert D.order == 12
    assert set(D.members()) == brute_commutator_closure(s4, s4.elements)


def test_derived_subgroup_abelian_is_trivial(c7):
    assert derived_subgroup(c7).order == 1


def test_derived_series_s4(s4):
    series = derived_series(s4)
    assert [h.order for h in series] == [24, 12, 4, 1]
    assert is_solvable(s4)


def test_a5_not_solvable():
    a5 = PermGroup.from_generators(5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]], name="A5")
    assert a5.order == 60
    assert not is_solvable(a5)


# -- O^p ---------------------------------------------------------------------------------


def test_o2_s4_is_closure_of_odd_elements(s4):
    K = o_p_residual(s4, 2)
    assert K.order == 12
    odd = [p for p in s4.elements if pm.order(p) % 2 == 1]
    assert set(K.members()) >= set(odd)
    assert derived_subgroup(s4).member_ids == K.member_ids  # O^2(S4) = A4


def test_o2_d8_trivial(d8):
    assert o_p_residual(d8, 2).order == 1


def test_o3_f21_is_c7(f21):
    K = o_p_residual(f21, 3)
    assert K.order == 7
    assert all(pm.order(p) in (1, 7) for p in K.members())


# -- products, intersections, normality ----------------------------------------------------


def test_product_subgroup_pl_in_s4(s4):
    P = sylow(s4, 2)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    PL = product_subgroup(P, V4)
    assert PL.order == 8  # V4 lies inside the dihedral Sylow


def test_product_subgroup_rejects_non_closed(s3):
    flips = [p for p in s3.elements if pm.order(p) == 2]
    A = s3.subgroup([pm.identity(3), flips[0]])
    B = s3.subgroup([pm.identity(3), flips[1]])
    with pytest.raises(ValueError):
        product_subgroup(A, B)


def test_normal_subgroups_s4(s4):
    orders = [N.order for N in normal_subgroups(s4)]
    assert orders == [1, 4, 12, 24]
    assert all(is_normal(s4, N) for N in normal_subgroups(s4))


def test_normal_subgroups_exhaustive_small(s3, d8):
    for G in (s3, d8):
        brute = {
            fs
            for fs in brute_all_subgroups(G)
            if all(frozenset(pm.conjugate(x, g) for x in fs) == fs for g in G.generators)
        }
        ours = {frozenset(N.members()) for N in normal_subgroups(G)}
        assert ours == brute
    assert len(normal_subgroups(d8)) == 6


# -- cosets and fixed points ------------------------------------------------------------------


def test_fixed_points_trivial_p(s4):
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    A4 = next(N for N in normal_subgroups(s4) if N.order == 12)
    triv = s4.trivial_subgroup()
    assert fixed_points_on_cosets(triv, A4, V4) == 3  # |K/N|


def test_fixed_points_inverting_involution(s3):
    c3 = next(p for p in s3.elements if pm.order(p) == 3)
    K = s3.subgroup([pm.identity(3), c3, pm.compose(c3, c3)])
    flip = next(p for p in s3.elements if pm.order(p) == 2)
    P = s3.subgroup([pm.identity(3), flip])
    assert fixed_points_on_cosets(P, K, s3.trivial_subgroup()) == 1


def test_fixed_points_validates_preconditions(s4):
    P = sylow(s4, 2)
    A4 = next(N for N in normal_subgroups(s4) if N.order == 12)
    C3 = s4.subgroup(
        [pm.identity(4), (0, 2, 3, 1), pm.compose((0, 2, 3, 1), (0, 2, 3, 1))]
    )
    with pytest.raises(ValueError):
        fixed_points_on_cosets(P, C3, A4)  # N not inside K
    with pytest.raises(ValueError):
        fixed_points_on_cosets(P, A4, C3)  # C3 not normal in A4


def test_coset_reps_cover(s4):
    A4 = next(N for N in normal_subgroups(s4) if N.order == 12)
    V4 = next(N for N in normal_subgroups(s4) if N.order == 4)
    reps = coset_rep_ids(A4, V4)
    assert len(reps) == 3
    seen = set()
    for r in reps:
        seen.update(s4.mul(r, n) for n in V4.sorted_ids)
    assert seen == set(A4.sorted_ids)


# -- corpus-wide structural properties ----------------------------------------------------------


def test_lagrange_everywhere():
    for entry in corpus():
        G = load_corpus_group(entry.name)
        for N in normal_subgroups(G):
            assert G.order % N.order == 0
        P = sylow(G, entry.prime)
        assert G.order % P.order == 0


def test_frattini_normalizer_identity():
    # N_G(PM) = N_G(P) * M for every normal M and Sylow P, as subsets
    for name in ("s3", "s4", "d8", "f21", "sl23", "c5c5_c3"):
        G = load_corpus_group(name)
        for p in {q for q in (2, 3, 5, 7) if G.order % q == 0}:
            P = sylow(G, p)
            for M in normal_subgroups(G):
                PM = product_subgroup(P, M)
                left = normalizer(G, PM)
                NP = normalizer(G, P)
                right = {G.mul(a, b) for a in NP.sorted_ids for b in M.sorted_ids}
                assert left.member_ids == frozenset(right)


def _complement_pool(G):
    """Deterministic candidate complements: Sylows and cyclic subgroups."""
    pool = []
    for p in (2, 3, 5, 7):
        if G.order % p == 0:
            pool.append(sylow(G, p))
    cls = conjugacy_classes(G)
    for i in range(cls.count):
        members, _ = G.pruned_closure_ids([cls.rep_ids[i]])
        pool.append(G.subgroup_from_ids(members))
    return pool


def test_self_normalizing_iff_trivial_fixed_points():
    # for complemented normal K with complement H: N_G(H) = H <=> C_K(H) = 1
    checked = 0
    for name in ("s3", "s4", "d8", "f21", "sl23", "c5c5_c3"):
        G = load_corpus_group(name)
        for K in normal_subgroups(G):
            if K.order in (1, G.order):
                continue
            for H in _complement_pool(G):
                if K.order * H.order != G.order or intersection(K, H).order != 1:
                    continue
                self_norm = normalizer(G, H).member_ids == H.member_ids
                fixed = fixed_points_on_cosets(H, K, G.trivial_subgroup())
                assert self_norm == (fixed == 1), (name, K.order, H.order)
                checked += 1
    assert checked >= 6


def test_determinism_rebuild():
    from charcorr.showcase import corpus_path

    for name in ("s4", "f21", "sl23"):
        a = load_corpus_group(name)
        b = load_group(corpus_path(name))
        assert a.elements == b.elements
        assert conjugacy_classes(a).rep_ids == conjugacy_classes(b).rep_ids
        assert sylow(a, 2).sorted_ids == sylow(b, 2).sorted_ids
