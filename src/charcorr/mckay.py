"""The character correspondences and their machine verification.

Two maps from p'-degree irreducibles of G onto linear characters of a
self-normalizing Sylow p-subgroup P are computed independently:

* the star map: the unique linear constituent of the restriction to P
  (every other constituent must have degree divisible by p);
* the descent map: iterate G -> H = P*L where K is the smallest normal
  subgroup with p-group quotient and L = K', following at each step the
  unique constituent over the unique P-invariant character below, until
  the group shrinks to P.

``verify_main`` checks per character that both maps agree, that each is a
bijection onto Lin(P), and that the p'-degree counts match.  Internal
uniqueness and progress conditions are theorem checks: a violation raises
FalsificationError with a forensic payload and is never patched over.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .chartab import (
    ClassFunction,
    character_table,
    constituents,
    constituents_over,
    galois_classfn,
    induce,
    inner_product_int,
    is_invariant_under,
    orbit_and_stabilizer,
    p_prime_irreducibles,
    restrict,
)
from .cyclotomic import is_prime
from .groups import (
    PermGroup,
    Subgroup,
    check_same_group,
    derived_subgroup,
    fixed_points_on_cosets,
    intersection,
    is_normal,
    is_solvable,
    normal_subgroups,
    normalizer,
    o_p_residual,
    p_part,
    product_subgroup,
    sylow,
)


class HypothesisError(Exception):
    """An operation was asked to run on an instance missing its hypotheses."""


class FalsificationError(Exception):
    """A verified theorem statement failed; carries forensic context."""

    def __init__(self, message: str, **context):
        self.context = context
        if context:
            detail = "; ".join(f"{k}={v}" for k, v in sorted(context.items()))
            message = f"{message} [{detail}]"
        super().__init__(message)


@dataclass(frozen=True)
class McKayInstance:
    """A (G, p) verification instance with recomputed hypothesis flags."""

    group: PermGroup
    p: int
    sylow: Subgroup
    normalizer: Subgroup
    solvable: bool
    self_normalizing: bool
    parity_ok: bool

    @property
    def hypotheses_ok(self) -> bool:
        return self.solvable and self.self_normalizing and self.parity_ok

    def flag_summary(self) -> dict:
        return {
            "solvable": self.solvable,
            "self_normalizing": self.self_normalizing,
            "parity": self.parity_ok,
        }


def check_hypotheses(G: PermGroup, p: int) -> McKayInstance:
    """Build an instance; flags are always recomputed, never trusted."""
    if not is_prime(p):
        raise HypothesisError(f"{p} is not prime")
    P = sylow(G, p)
    N = normalizer(G, P)
    return McKayInstance(
        group=G,
        p=p,
        sylow=P,
        normalizer=N,
        solvable=is_solvable(G),
        self_normalizing=N.member_ids == P.member_ids,
        parity_ok=(p == 2) or (G.order % 2 == 1),
    )


def instance_with_sylow(G: PermGroup, p: int, P: Subgroup) -> McKayInstance:
    """Instance using a caller-chosen Sylow subgroup (for independence checks)."""
    if not is_prime(p):
        raise HypothesisError(f"{p} is not prime")
    check_same_group("instance_with_sylow", P.parent, G)
    if P.order != p_part(G.order, p):
        raise ValueError("instance_with_sylow: given subgroup is not a Sylow p-subgroup")
    N = normalizer(G, P)
    return McKayInstance(
        group=G,
        p=p,
        sylow=P,
        normalizer=N,
        solvable=is_solvable(G),
        self_normalizing=N.member_ids == P.member_ids,
        parity_ok=(p == 2) or (G.order % 2 == 1),
    )


def is_p_solvable(G: PermGroup, p: int) -> bool:
    """Chief factors are p-groups or p'-groups (solvable groups trivially pass)."""
    if is_solvable(G):
        return True
    normals = normal_subgroups(G)
    current = frozenset([0])
    cur_order = 1
    while cur_order < G.order:
        over = [M for M in normals if current < M.member_ids]
        minimal = min(
            (M for M in over if not any(current < X.member_ids < M.member_ids for X in over)),
            key=lambda M: (M.order, M.sorted_ids),
        )
        index = minimal.order // cur_order
        reduced = index
        while reduced % p == 0:
            reduced //= p
        if reduced != index and reduced != 1:
            return False  # mixed order chief factor: neither p- nor p'-group
        current, cur_order = minimal.member_ids, minimal.order
    return True


# -- the star map -----------------------------------------------------------------


def navarro_star(inst: McKayInstance, chi_index: int) -> int:
    """Unique linear constituent of the restriction to the Sylow subgroup.

    Returns the row index in Irr(P).  Asserts both halves of the statement:
    exactly one linear constituent, with multiplicity one, and every other
    constituent of degree divisible by p.
    """
    _require(inst.self_normalizing, "star map needs a self-normalizing Sylow subgroup")
    _require(is_p_solvable(inst.group, inst.p), "star map needs a p-solvable group")
    table = character_table(inst.group)
    _require(
        table.degrees[chi_index] % inst.p != 0,
        f"chi has degree {table.degrees[chi_index]} divisible by p={inst.p}",
    )
    chi_p = restrict(table.rows[chi_index], inst.sylow)
    p_table = character_table(inst.sylow.view)
    decomp = constituents(chi_p)
    linear = [(i, m) for i, m in decomp if p_table.degrees[i] == 1]
    if len(linear) != 1 or linear[0][1] != 1:
        raise FalsificationError(
            "restriction to P does not have a unique multiplicity-one linear constituent",
            group=inst.group.name,
            p=inst.p,
            chi=chi_index,
            linear_constituents=[(i, m) for i, m in linear],
        )
    bad = [
        (i, p_table.degrees[i], m)
        for i, m in decomp
        if p_table.degrees[i] > 1 and p_table.degrees[i] % inst.p != 0
    ]
    if bad:
        raise FalsificationError(
            "a non-linear constituent of the restriction has degree coprime to p",
            group=inst.group.name,
            p=inst.p,
            chi=chi_index,
            offending=bad,
        )
    return linear[0][0]


# -- the descent map ----------------------------------------------------------------


@dataclass(frozen=True)
class DescentStep:
    group_name: str
    group_order: int
    k_order: int
    l_order: int
    h_order: int
    theta_index: int
    theta_degree: int
    fixed_cosets: int
    eta_index: int
    eta_degree: int

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.group_order,
            "k_order": self.k_order,
            "l_order": self.l_order,
            "h_order": self.h_order,
            "theta": self.theta_index,
            "theta_degree": self.theta_degree,
            "fixed_cosets": self.fixed_cosets,
            "eta": self.eta_index,
            "eta_degree": self.eta_degree,
        }


@dataclass(frozen=True)
class DescentTrace:
    steps: tuple[DescentStep, ...] = ()

    def to_dict(self) -> list:
        return [s.to_dict() for s in self.steps]


def _descent_step_context(group: PermGroup, p: int, P_perms: frozenset, memo: dict):
    """K, L, P-inside, H for one descent level (chi-independent, so memoized)."""
    ctx = memo.get(id(group))
    if ctx is not None:
        return ctx
    K = o_p_residual(group, p)
    L = derived_subgroup(K)
    P_here = group.subgroup(P_perms)
    if not (L.order < K.order < group.order):
        raise FalsificationError(
            "descent cannot progress: need L < K < G",
            group=group.name,
            k_order=K.order,
            l_order=L.order,
        )
    if (K.order // L.order) % p == 0:
        raise FalsificationError(
            "K/L is not a p'-group", group=group.name, index=K.order // L.order
        )
    kp = K.order * P_here.order // intersection(K, P_here).order
    if kp != group.order:
        raise FalsificationError("G is not K*P", group=group.name, kp=kp)
    H = product_subgroup(P_here, L)
    ctx = (K, L, P_here, H)
    memo[id(group)] = ctx
    return ctx


def isaacs_descent(
    inst: McKayInstance, chi_index: int, memo: dict | None = None
) -> tuple[int, DescentTrace]:
    """Descend chi through H = P*L levels to a linear character of P.

    Every uniqueness, coprimality and progress condition along the way is a
    theorem check; failures raise FalsificationError with the partial trace.
    """
    _require(inst.hypotheses_ok, f"descent needs all hypothesis flags: {inst.flag_summary()}")
    table0 = character_table(inst.group)
    _require(
        table0.degrees[chi_index] % inst.p != 0,
        f"chi has degree {table0.degrees[chi_index]} divisible by p={inst.p}",
    )
    p = inst.p
    P_perms = inst.sylow.member_set()
    memo = {} if memo is None else memo
    group = inst.group
    current = table0.rows[chi_index]
    steps: list[DescentStep] = []
    while group.order > len(P_perms):
        K, L, P_here, H = _descent_step_context(group, p, P_perms, memo)
        l_table = character_table(L.view)
        chi_l = restrict(current, L)
        invariant = [
            i for i, _ in constituents(chi_l) if is_invariant_under(l_table.rows[i], L, P_here)
        ]
        if len(invariant) != 1:
            raise FalsificationError(
                "P-invariant constituent below chi is not unique",
                group=group.name,
                candidates=invariant,
                trace=[s.to_dict() for s in steps],
            )
        theta = l_table.rows[invariant[0]]
        _, k_theta = orbit_and_stabilizer(theta, L, actors=K)
        fixed = fixed_points_on_cosets(P_here, k_theta, L)
        if fixed != 1:
            raise FalsificationError(
                "coprime fixed-point count on K_theta/L is not 1",
                group=group.name,
                fixed=fixed,
                trace=[s.to_dict() for s in steps],
            )
        chi_h = restrict(current, H)
        l_in_h = H.view.subgroup(L.members())
        over = constituents_over(chi_h, l_in_h, theta)
        if len(over) != 1:
            raise FalsificationError(
                "constituent of chi_H over theta is not unique",
                group=group.name,
                candidates=over,
                trace=[s.to_dict() for s in steps],
            )
        h_table = character_table(H.view)
        eta_index = over[0]
        if h_table.degrees[eta_index] % p == 0:
            raise FalsificationError(
                "successor character has degree divisible by p",
                group=group.name,
                eta_degree=h_table.degrees[eta_index],
            )
        if H.view.order >= group.order:
            raise FalsificationError("descent made no progress", group=group.name)
        steps.append(
            DescentStep(
                group_name=group.name,
                group_order=group.order,
                k_order=K.order,
                l_order=L.order,
                h_order=H.order,
                theta_index=invariant[0],
                theta_degree=l_table.degrees[invariant[0]],
                fixed_cosets=fixed,
                eta_index=eta_index,
                eta_degree=h_table.degrees[eta_index],
            )
        )
        group = H.view
        current = h_table.rows[eta_index]
    # land on the canonical shared view of P and read off the row index
    p_final = group.subgroup(P_perms)
    if p_final.order != group.order:
        raise RuntimeError(f"descent ended on {group.name}, not on the Sylow subgroup")
    final_fn = restrict(current, p_final)
    p_table = character_table(inst.sylow.view)
    xi_index = p_table.index_of(final_fn)
    if p_table.degrees[xi_index] != 1:
        raise FalsificationError(
            "descent terminated on a non-linear character",
            degree=p_table.degrees[xi_index],
        )
    return xi_index, DescentTrace(tuple(steps))


# -- supporting theorem checks --------------------------------------------------------


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


def mckay_count(inst: McKayInstance) -> tuple[int, int, bool]:
    """|Irr_{p'}(G)| vs |Irr_{p'}(N_G(P))| (valid even when N_G(P) > P)."""
    a = len(p_prime_irreducibles(character_table(inst.group), inst.p))
    b = len(p_prime_irreducibles(character_table(inst.normalizer.view), inst.p))
    return a, b, a == b


# -- the coincidence verdict -----------------------------------------------------------


@dataclass(frozen=True)
class PairRecord:
    chi_index: int
    chi_degree: int
    star_index: int | None
    descent_index: int | None
    coincide: bool
    trace: DescentTrace
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "chi": self.chi_index,
            "chi_degree": self.chi_degree,
            "star": self.star_index,
            "descent": self.descent_index,
            "coincide": self.coincide,
            "trace": self.trace.to_dict(),
            "error": self.error,
        }


@dataclass(frozen=True)
class CorrespondenceReport:
    group_name: str
    group_order: int
    p: int
    flags: dict
    sylow_order: int
    normalizer_order: int
    linear_count: int
    pairs: tuple[PairRecord, ...]
    counts: tuple[int, int, bool]
    star_bijection: bool
    descent_bijection: bool
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.group_order,
            "p": self.p,
            "flags": dict(sorted(self.flags.items())),
            "sylow_order": self.sylow_order,
            "normalizer_order": self.normalizer_order,
            "linear_count": self.linear_count,
            "pairs": [p.to_dict() for p in self.pairs],
            "counts": {
                "irr_p_prime_g": self.counts[0],
                "irr_p_prime_n": self.counts[1],
                "equal": self.counts[2],
            },
            "star_bijection": self.star_bijection,
            "descent_bijection": self.descent_bijection,
            "verdict": self.verdict,
        }


def verify_main(inst: McKayInstance) -> CorrespondenceReport:
    """Run both correspondences over all of Irr_{p'}(G) and compare."""
    if not inst.hypotheses_ok:
        raise HypothesisError(
            f"({inst.group.name}, p={inst.p}) fails hypotheses: {inst.flag_summary()}"
        )
    table = character_table(inst.group)
    p_rows = p_prime_irreducibles(table, inst.p)
    p_table = character_table(inst.sylow.view)
    lin = p_table.linear_indices()
    memo: dict = {}
    pairs = []
    all_ok = True
    for ci in p_rows:
        star_i = desc_i = None
        error = None
        trace = DescentTrace()
        try:
            star_i = navarro_star(inst, ci)
            desc_i, trace = isaacs_descent(inst, ci, memo=memo)
        except FalsificationError as exc:
            error = str(exc)
        coincide = error is None and star_i == desc_i
        all_ok = all_ok and coincide
        pairs.append(
            PairRecord(
                chi_index=ci,
                chi_degree=table.degrees[ci],
                star_index=star_i,
                descent_index=desc_i,
                coincide=coincide,
                trace=trace,
                error=error,
            )
        )
    star_values = [p.star_index for p in pairs]
    desc_values = [p.descent_index for p in pairs]
    star_bij = sorted(star_values, key=_none_last) == list(lin) and len(set(star_values)) == len(pairs)
    desc_bij = sorted(desc_values, key=_none_last) == list(lin) and len(set(desc_values)) == len(pairs)
    counts = mckay_count(inst)
    verdict = all_ok and star_bij and desc_bij and counts[2]
    return CorrespondenceReport(
        group_name=inst.group.name,
        group_order=inst.group.order,
        p=inst.p,
        flags=inst.flag_summary(),
        sylow_order=inst.sylow.order,
        normalizer_order=inst.normalizer.order,
        linear_count=len(lin),
        pairs=tuple(pairs),
        counts=counts,
        star_bijection=star_bij,
        descent_bijection=desc_bij,
        verdict=verdict,
    )


def _none_last(x):
    return (x is None, x)


def check_galois_equivariance(inst: McKayInstance) -> int:
    """(chi^sigma)* = (chi*)^sigma for every Galois map of Q(zeta_exp(G)).

    Returns the number of (sigma, chi) pairs checked; any mismatch raises.
    """
    _require(inst.self_normalizing, "equivariance check needs the star map hypotheses")
    _require(is_p_solvable(inst.group, inst.p), "equivariance check needs a p-solvable group")
    G = inst.group
    e = G.exponent
    table = character_table(G)
    p_table = character_table(inst.sylow.view)
    p_rows = p_prime_irreducibles(table, inst.p)
    stars = {ci: navarro_star(inst, ci) for ci in p_rows}
    checked = 0
    for k in range(1, e + 1):
        if gcd(k, e) != 1:
            continue
        for ci in p_rows:
            sigma_chi = table.index_of(galois_classfn(table.rows[ci], k))
            lhs = stars[sigma_chi]
            rhs = p_table.index_of(galois_classfn(p_table.rows[stars[ci]], k))
            if lhs != rhs:
                raise FalsificationError(
                    "star map is not Galois equivariant",
                    group=G.name,
                    k=k,
                    chi=ci,
                    lhs=lhs,
                    rhs=rhs,
                )
            checked += 1
    return checked


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisError(message)
