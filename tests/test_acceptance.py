"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Timed criteria run through fresh subprocesses so the measurement includes
the full cold computation, not a cache hit from earlier tests.
"""

import json
import pathlib
import subprocess
import sys
import time
from math import gcd

from charcorr.chartab import (
    character_table,
    constituents,
    inner_product,
    inner_product_int,
    is_invariant_under,
    lying_over,
    orbit_and_stabilizer,
    p_prime_irreducibles,
    restrict,
)
from charcorr.groups import (
    conjugacy_classes,
    fixed_points_on_cosets,
    intersection,
    normal_subgroups,
    normalizer,
    sylow,
)
from charcorr.mckay import (
    check_extension,
    check_galois_equivariance,
    check_glauberman_unique,
    check_hypotheses,
    isaacs_descent,
    mckay_count,
    navarro_star,
)
from charcorr.showcase import load_corpus_group, remark_data

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(criterion: int, label: str, ok: bool) -> None:
    print(f"[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {label}"


def run_cli(args, timeout=600):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "charcorr.cli"] + args,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc, time.perf_counter() - start


def test_criterion_1_character_tables():
    expected = {
        "s4": (1, 1, 2, 3, 3),
        "d8": (1, 1, 1, 1, 2),
        "sl23": (1, 1, 1, 2, 2, 2, 3),
        "f21": (1, 1, 1, 3, 3),
    }
    ok = True
    for name, degrees in expected.items():
        proc, elapsed = run_cli(["table", "--group", name, "--format", "structured"])
        ok &= proc.returncode == 0 and elapsed < 5.0
        data = json.loads(proc.stdout)
        ok &= tuple(data["degrees"]) == degrees
        # exact orthogonality re-verified in-process (construction also asserts it)
        G = load_corpus_group(name)
        tab = character_table(G)
        ok &= sum(d * d for d in tab.degrees) == G.order
        for i, a in enumerate(tab.rows):
            for j, b in enumerate(tab.rows):
                ok &= inner_product(a, b) == (1 if i == j else 0)
        from charcorr.cyclotomic import Cyc

        cls = conjugacy_classes(G)
        for i in range(cls.count):
            for j in range(cls.count):
                acc = Cyc.zero()
                for row in tab.rows:
                    acc = acc + row.values[i] * row.values[j].conj()
                want = G.order // cls.sizes[i] if i == j else 0
                ok &= acc == want
    report(1, "exact tables for S4, D8, SL(2,3), C7:C3 under 5s each", ok)


def _star_instances():
    out = []
    for name, p in (
        ("s3", 2),
        ("c3xc2", 2),
        ("s4", 2),
        ("d8", 2),
        ("f21", 3),
        ("c5c5_c3", 3),
        ("c7", 7),
    ):
        out.append((name, check_hypotheses(load_corpus_group(name), p)))
    return out


def test_criterion_2_star_map():
    ok = True
    for name, inst in _star_instances():
        ok &= inst.solvable and inst.self_normalizing
        tab = character_table(inst.group)
        p_tab = character_table(inst.sylow.view)
        lin = p_tab.linear_indices()
        stars = []
        for ci in p_prime_irreducibles(tab, inst.p):
            chi_p = restrict(tab.rows[ci], inst.sylow)
            dec = constituents(chi_p)
            linear = [(i, m) for i, m in dec if p_tab.degrees[i] == 1]
            ok &= len(linear) == 1 and linear[0][1] == 1
            ok &= all(
                p_tab.degrees[i] % inst.p == 0 for i, _ in dec if p_tab.degrees[i] > 1
            )
            stars.append(navarro_star(inst, ci))
        ok &= sorted(stars) == list(lin) and len(set(stars)) == len(stars)
    report(2, "unique linear constituent + p-divisible rest, bijection onto Lin(P)", ok)


def test_criterion_3_coincidence():
    ok = True
    timings = []
    positive = [
        ("s3", 2),
        ("c3xc2", 2),
        ("s4", 2),
        ("d8", 2),
        ("f21", 3),
        ("c5c5_c3", 3),
        ("c7", 7),
    ]
    ok &= len(positive) >= 6
    for name, p in positive:
        proc, elapsed = run_cli(["verify", "--group", name, "-p", str(p), "--format", "structured"])
        timings.append((name, elapsed))
        ok &= proc.returncode == 0 and elapsed < 10.0
        rep = json.loads(proc.stdout)
        ok &= rep["verdict"] is True
        ok &= all(pr["coincide"] and pr["error"] is None for pr in rep["pairs"])
    # and in-process: descent equals star per character
    for name, p in (("s4", 2), ("f21", 3)):
        inst = check_hypotheses(load_corpus_group(name), p)
        tab = character_table(inst.group)
        for ci in p_prime_irreducibles(tab, p):
            ok &= navarro_star(inst, ci) == isaacs_descent(inst, ci)[0]
    report(3, "descent = star on every p'-character, under 10s per instance", ok)


def test_criterion_4_mckay_counts(corpus_instances):
    ok = True
    for entry, inst in corpus_instances:
        a, b, equal = mckay_count(inst)
        ok &= equal
    negative = [(e, i) for e, i in corpus_instances if not i.hypotheses_ok]
    ok &= len(negative) >= 2  # includes N_G(P) > P controls
    report(4, "p'-degree counts match on all instances incl. negative controls", ok)


def test_criterion_5_extension_witnesses(positive_instances):
    ok = True
    checked = 0
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
                ok &= bool(invariant)
                theta = n_tab.rows[invariant[0]]
                g_theta, witness = check_extension(inst, N, ci, theta)
                w_tab = character_table(g_theta.view)
                n_in = g_theta.view.subgroup(N.members())
                ok &= restrict(w_tab.rows[witness], n_in).values == theta.values
                checked += 1
    ok &= checked >= 40
    report(5, f"extension witness found in all {checked} (N, chi, theta) cases", ok)


def test_criterion_6_lemma_checks(corpus_instances, positive_instances):
    ok = True
    # (a) restriction bijection on factorization instances
    factorizations = 0
    for name in ("s3", "s4", "d8", "f21", "sl23", "c5c5_c3"):
        G = load_corpus_group(name)
        tab = character_table(G)
        pool = [sylow(G, q) for q in (2, 3, 5, 7) if G.order % q == 0]
        cls = conjugacy_classes(G)
        for i in range(cls.count):
            members, _ = G.pruned_closure_ids([cls.rep_ids[i]])
            pool.append(G.subgroup_from_ids(members))
        for K in normal_subgroups(G):
            k_tab = character_table(K.view)
            for H in pool:
                inter = intersection(K, H)
                if K.order * H.order // inter.order != G.order:
                    continue
                n_in_k = K.view.subgroup(inter.members())
                for idx in range(k_tab.count):
                    phi = k_tab.rows[idx]
                    _, stab = orbit_and_stabilizer(phi, K)
                    if stab.order != G.order:
                        continue
                    phi_n = restrict(phi, n_in_k)
                    if inner_product_int(phi_n, phi_n) != 1:
                        continue
                    h_tab = character_table(H.view)
                    over_phi = lying_over(tab, K, phi)
                    over_theta = lying_over(
                        h_tab, H.view.subgroup(inter.members()), phi_n
                    )
                    images = []
                    for ci in over_phi:
                        res = restrict(tab.rows[ci], H)
                        ok &= inner_product_int(res, res) == 1
                        images.append(h_tab.index_of(res))
                    ok &= sorted(images) == over_theta and len(set(images)) == len(images)
                    factorizations += 1
    ok &= factorizations >= 10
    # (b) P-invariant constituents: existence, conjugacy, uniqueness
    for entry, inst in corpus_instances:
        G = inst.group
        if G.order > 100:
            continue  # 648 covered in the showcase suite
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
                    ok &= bool(invariant)
                    if inst.self_normalizing:
                        ok &= len(invariant) == 1
                if len(invariant) > 1:
                    orbit, _ = orbit_and_stabilizer(
                        n_tab.rows[invariant[0]], N, actors=inst.normalizer
                    )
                    vals = {f.values for f in orbit}
                    ok &= all(n_tab.rows[o].values in vals for o in invariant[1:])
    # (c) coprime uniqueness count under the fixed-point condition
    data = remark_data()
    ok &= check_glauberman_unique(data.P, data.K, data.L, data.theta) == 1
    for entry, inst in positive_instances:
        if inst.group.order == inst.sylow.order:
            continue
        memo = {}
        tab = character_table(inst.group)
        for ci in p_prime_irreducibles(tab, inst.p):
            isaacs_descent(inst, ci, memo=memo)
        for K, L, P_here, H in memo.values():
            l_tab = character_table(L.view)
            for i in range(l_tab.count):
                theta = l_tab.rows[i]
                if not is_invariant_under(theta, L, P_here):
                    continue
                _, k_theta = orbit_and_stabilizer(theta, L, actors=K)
                count = check_glauberman_unique(P_here, k_theta, L, theta)
                if fixed_points_on_cosets(P_here, k_theta, L) == 1:
                    ok &= count == 1
    # (d) self-normalizing complement iff trivial fixed points
    pairs_checked = 0
    for name in ("s3", "s4", "d8", "f21", "sl23", "c5c5_c3"):
        G = load_corpus_group(name)
        pool = [sylow(G, q) for q in (2, 3, 5, 7) if G.order % q == 0]
        cls = conjugacy_classes(G)
        for i in range(cls.count):
            members, _ = G.pruned_closure_ids([cls.rep_ids[i]])
            pool.append(G.subgroup_from_ids(members))
        for K in normal_subgroups(G):
            if K.order in (1, G.order):
                continue
            for H in pool:
                if K.order * H.order != G.order or intersection(K, H).order != 1:
                    continue
                self_norm = normalizer(G, H).member_ids == H.member_ids
                ok &= self_norm == (
                    fixed_points_on_cosets(H, K, G.trivial_subgroup()) == 1
                )
                pairs_checked += 1
    ok &= pairs_checked >= 6
    report(6, "restriction bijection, conjugacy, coprime uniqueness, complement lemmas", ok)


def test_criterion_7_remark_showcase():
    proc, elapsed = run_cli(["remark648", "--format", "structured"], timeout=240)
    ok = proc.returncode == 0 and elapsed < 120.0
    rep = json.loads(proc.stdout)
    ok &= rep["orders"] == {"G": 648, "K": 27, "L": 3, "H": 24, "P": 8, "N": 72}
    ok &= rep["fully_ramified"]["e"] == 3
    psi = rep["psi"]
    ok &= psi["degree"] == 3
    ok &= psi["values_by_class_order"]["2"] == ["-1"]
    ok &= psi["values_by_class_order"]["4"] == ["1"]
    ok &= sorted(psi["values_by_class_order"]["3"]) == sorted(["1+2*z3", "-1-2*z3"])
    chosen = [
        c
        for c in rep["viable_candidates"]
        if c["alpha"] == psi["alpha"] and c["beta"] == psi["beta"]
    ]
    ok &= len(chosen) == 1 and chosen[0]["faithful"] and chosen[0]["values_ok"]
    for rec in rep["non_constituent"]:
        if rec["xi_degree"] == 1:
            ok &= rec["inner_product"] == 0
    ok &= sum(1 for rec in rep["non_constituent"] if rec["xi_degree"] == 1) == 3
    report(7, f"order-648 showcase verified in {elapsed:.1f}s (< 120s)", ok)


def test_criterion_8_galois_equivariance(positive_instances):
    ok = True
    for entry, inst in positive_instances:
        checked = check_galois_equivariance(inst)
        e = inst.group.exponent
        maps = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
        tab = character_table(inst.group)
        ok &= checked == maps * len(p_prime_irreducibles(tab, inst.p))
    report(8, "star map commutes with every Galois automorphism, exactly", ok)


def test_criterion_9_byte_determinism(tmp_path):
    outs = []
    for i in range(3):
        out = tmp_path / f"run{i}.json"
        proc, _ = run_cli(["verify", "--all", "--format", "structured", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    ok &= outs[0] == (GOLDEN / "verify_all.json").read_bytes()
    report(9, "verify --all output byte-identical across runs", ok)
