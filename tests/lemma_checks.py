"""Lemma checks behind the theorem, run from the tests.

No command of the CLI runs them, so they live beside the tests that use
them rather than in the package: every CLI process would otherwise compile
them without calling them.  ``check_extension`` finds, for a P-invariant
constituent theta of chi on a normal subgroup N, a character of the
stabilizer G_theta extending theta.  ``check_glauberman_unique`` counts the
P-invariant constituents of theta induced to K under coprime action, and
requires exactly one when P fixes only one coset of N in K.
``normal_subgroups`` lists every normal subgroup of a group, for the tests
that pick a normal subgroup or run a lemma over all of them, and
``derived_series`` interns every term of a group's derived series, as a
witness for ``is_solvable``, which walks the series without interning it.
"""

from functools import lru_cache

from charcorr.chartab import (
    ClassFunction,
    character_table,
    constituents,
    induce,
    is_invariant_under,
    orbit_and_stabilizer,
    restrict,
)
from charcorr.common import FalsificationError
from charcorr.groups import (
    PermGroup,
    Subgroup,
    check_same_group,
    conjugacy_classes,
    derived_subgroup,
    fixed_points_on_cosets,
    is_normal,
    p_part,
)
from charcorr.mckay import McKayInstance, _require, is_p_solvable
from chartab_reference import inner_product_int


@lru_cache
def normal_subgroups(G: PermGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups: normal closures of conjugacy classes, join-closed.

    Ascending by order, then by member ids.
    """
    found: dict[frozenset[int], list[int]] = {}
    for ms in conjugacy_classes(G).members_ids:
        members, gens = G.pruned_closure_ids(list(ms))
        found.setdefault(frozenset(members), gens)
    changed = True
    while changed:
        changed = False
        items = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                ki, gi = items[i]
                kj, gj = items[j]
                if ki <= kj or kj <= ki:
                    continue
                members, gens = G.pruned_closure_ids(sorted(set(gi) | set(gj)))
                key = frozenset(members)
                if key not in found:
                    found[key] = gens
                    changed = True
    return tuple(G.subgroup_from_ids(k) for k in sorted(found, key=lambda k: (len(k), sorted(k))))


def derived_series(G: PermGroup) -> list[Subgroup]:
    """G >= G' >= G'' >= ..., ending when the term stabilizes."""
    current = G.full_subgroup()
    series = [current]
    while True:
        nxt = derived_subgroup(current)
        if nxt.member_ids == current.member_ids:
            break
        series.append(nxt)
        current = nxt
    return series


def check_extension(
    inst: McKayInstance, N: Subgroup, chi_index: int, theta: ClassFunction
) -> tuple[Subgroup, int]:
    """Find an extension witness of theta to its stabilizer.

    theta must be a P-invariant constituent of chi restricted to the normal
    subgroup N; the witness is a row of Irr(G_theta) restricting exactly to
    theta.  Absence of a witness is a falsification.
    """
    _require(inst.self_normalizing, "extension check needs a self-normalizing Sylow subgroup")
    _require(is_p_solvable(inst.group, inst.p), "extension check needs a p-solvable group")
    G = inst.group
    table = character_table(G)
    _require(table.degrees[chi_index] % inst.p != 0, "chi must have p'-degree")
    if not is_normal(G, N):
        raise ValueError("check_extension: N is not normal")
    if not inner_product_int(restrict(table.rows[chi_index], N), theta):
        raise ValueError("check_extension: theta does not lie under chi")
    if not is_invariant_under(theta, N, inst.sylow):
        raise ValueError("check_extension: theta is not P-invariant")
    _, g_theta = orbit_and_stabilizer(theta, N)
    view = g_theta.view
    n_in_view = view.subgroup(N.members())
    t_table = character_table(view)
    for i, row in enumerate(t_table.rows):
        if restrict(row, n_in_view).values == theta.values:
            return g_theta, i
    raise FalsificationError(
        "no extension of theta to its stabilizer",
        group=G.name,
        chi=chi_index,
        stabilizer_order=g_theta.order,
    )


def check_glauberman_unique(
    P: Subgroup, K: Subgroup, N: Subgroup, theta: ClassFunction
) -> int:
    """Count P-invariant constituents of theta induced to K.

    Requires coprime action data: K/N a p'-group, P normalizing K and N,
    theta P-invariant.  The count is always >= 1, and must be exactly 1
    whenever P fixes only one coset of N in K; both are asserted.
    """
    G = P.parent
    check_same_group("check_glauberman_unique", K.parent, G)
    check_same_group("check_glauberman_unique", N.parent, G)
    if P.order > 1:
        p = min(f for f in range(2, P.order + 1) if P.order % f == 0)
        if p_part(P.order, p) != P.order:
            raise ValueError("check_glauberman_unique: P is not a p-group")
        if (K.order // N.order) % p == 0:
            raise ValueError("check_glauberman_unique: K/N is not a p'-group")
    if not N.member_ids <= K.member_ids:
        raise ValueError("check_glauberman_unique: N not contained in K")
    if not is_invariant_under(theta, N, P):
        raise ValueError("check_glauberman_unique: theta is not P-invariant")
    fixed = fixed_points_on_cosets(P, K, N)  # also validates normality/normalizing
    n_in_k = K.view.subgroup(N.members())
    induced = induce(theta, n_in_k)
    k_table = character_table(K.view)
    invariant = [
        i
        for i, _ in constituents(induced)
        if is_invariant_under(k_table.rows[i], K, P)
    ]
    if not invariant:
        raise FalsificationError(
            "induced character has no P-invariant constituent", k_order=K.order
        )
    if fixed == 1 and len(invariant) != 1:
        raise FalsificationError(
            "P-invariant constituent not unique despite trivial fixed points",
            count=len(invariant),
        )
    return len(invariant)
