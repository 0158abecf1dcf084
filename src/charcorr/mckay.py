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

What does not depend on chi is computed once per instance.  The descent
chain depends only on (G, P): ``descent_levels`` builds it once, a tuple of
``DescentLevel`` values (the group, K, L, P, H), and runs its checks.  Each
level fills in, per theta in Irr(L) on first use, whether P fixes theta, the
fixed points of P on K_theta/L and the rows of Irr(H) over theta; each chi
runs every chi-dependent check on those values.  Character tables
keep their rows packed for the pairing engine, and a group's classes keep
the class action of each element that conjugated a class function on it.

The result records are NamedTuples whose field names are the keys of the
structured output; ``as_json`` is the one function that serializes them.
It lives in ``common``, beside ``HypothesisError`` and
``FalsificationError``, since every command needs them; ``cli`` loads this
module only inside ``verify``.
"""

from __future__ import annotations

from typing import NamedTuple

from .chartab import (
    character_table,
    constituents,
    is_invariant_under,
    lying_over,
    orbit_and_stabilizer,
    p_prime_irreducibles,
    restrict,
)
from .common import FalsificationError, HypothesisError, as_json
from .cyclotomic import is_prime
from .groups import (
    PermGroup,
    Subgroup,
    check_same_group,
    conjugacy_classes,
    derived_subgroup,
    fixed_points_on_cosets,
    intersection,
    is_solvable,
    normalizer,
    o_p_residual,
    p_part,
    product_subgroup,
    sylow,
)


class McKayInstance(NamedTuple):
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
    return instance_with_sylow(G, p, sylow(G, p))


def instance_with_sylow(G: PermGroup, p: int, P: Subgroup) -> McKayInstance:
    """Instance using a given Sylow subgroup; ``check_hypotheses`` passes the canonical one."""
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
    """Chief factors are p-groups or p'-groups (solvable groups trivially pass).

    Walks the residual series from S = G: X is generated by the p-elements
    of S, so S/X is a p'-group, and Y by the p'-elements of X, so X/Y is a
    p-group; then S = Y, until Y stops shrinking.  G is p-solvable exactly
    when the series ends at the identity.
    """
    if is_solvable(G):
        return True
    cls = conjugacy_classes(G)
    orders = [cls.orders[c] for c in cls.class_of_id]
    current = list(range(G.order))
    while True:
        x, _ = G.pruned_closure_ids([i for i in current if p_part(orders[i], p) == orders[i]])
        y, _ = G.pruned_closure_ids([i for i in x if p_part(orders[i], p) == 1])
        if len(y) == len(current):
            return len(y) == 1
        current = y


# -- the star map -----------------------------------------------------------------


def navarro_star(inst: McKayInstance, chi_index: int) -> int:
    """Unique linear constituent of the restriction to the Sylow subgroup.

    Returns the row index in Irr(P).  Asserts both halves of the statement:
    exactly one linear constituent, with multiplicity one, and every other
    constituent of degree divisible by p.
    """
    _require(inst.self_normalizing, "star map needs a self-normalizing Sylow subgroup")
    _require(inst.solvable or is_p_solvable(inst.group, inst.p), "star map needs a p-solvable group")
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


class DescentStep(NamedTuple):
    group: str
    order: int
    k_order: int
    l_order: int
    h_order: int
    theta: int
    theta_degree: int
    fixed_cosets: int
    eta: int
    eta_degree: int


class DescentLevel(NamedTuple):
    """One level of the descent chain: the group, K, L, P inside it, H = P*L, per-theta results.

    Everything here is chi-independent.  The three dicts are keyed by a row
    index theta of Irr(L) and filled on first use, so each result is
    computed once per (level, theta) however many characters descend
    through it: ``invariant`` says whether P fixes theta, ``fixed`` counts
    the cosets of L in K_theta that P fixes, and ``over`` holds the rows of
    Irr(H) lying over theta.
    """

    group: PermGroup
    K: Subgroup
    L: Subgroup
    P_here: Subgroup
    H: Subgroup
    invariant: dict
    fixed: dict
    over: dict

    def is_p_invariant(self, theta: int) -> bool:
        inv = self.invariant.get(theta)
        if inv is None:
            row = character_table(self.L.view).rows[theta]
            inv = self.invariant[theta] = is_invariant_under(row, self.L, self.P_here)
        return inv

    def fixed_cosets(self, theta: int) -> int:
        """Fixed points of P on K_theta/L, K_theta the stabilizer of theta in K."""
        fixed = self.fixed.get(theta)
        if fixed is None:
            row = character_table(self.L.view).rows[theta]
            _, k_theta = orbit_and_stabilizer(row, self.L, actors=self.K)
            fixed = self.fixed[theta] = fixed_points_on_cosets(self.P_here, k_theta, self.L)
        return fixed

    def rows_over(self, theta: int) -> frozenset[int]:
        over = self.over.get(theta)
        if over is None:
            row = character_table(self.L.view).rows[theta]
            l_in_h = self.H.view.subgroup(self.L.members())
            over = self.over[theta] = frozenset(lying_over(l_in_h, row))
        return over


def descent_levels(inst: McKayInstance) -> tuple[DescentLevel, ...]:
    """The chain G = G_0 > H_0.view > ... > P, which depends only on (G, P).

    At each level K = O^p(G_i), L = K' and H = P*L.  The chi-independent
    theorem checks run here, once per level: L < K < G_i, K/L a p'-group,
    G_i = K*P, and H < G_i.
    """
    _require(inst.hypotheses_ok, f"descent needs all hypothesis flags: {inst.flag_summary()}")
    p = inst.p
    P_perms = inst.sylow.member_set()
    group = inst.group
    levels = []
    while group.order > len(P_perms):
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
        if H.order >= group.order:
            raise FalsificationError("descent made no progress", group=group.name)
        levels.append(DescentLevel(group, K, L, P_here, H, {}, {}, {}))
        group = H.view
    return tuple(levels)


def isaacs_descent(
    inst: McKayInstance, chi_index: int, levels: tuple[DescentLevel, ...] | None = None
) -> tuple[int, tuple[DescentStep, ...]]:
    """Descend chi through the levels of ``descent_levels`` to a linear character of P.

    Every uniqueness and coprimality condition that depends on chi is a
    theorem check, run for every chi on the level's cached per-theta
    results; failures raise FalsificationError with the partial trace.
    ``verify_main`` passes one chain for all characters of an instance.
    """
    _require(inst.hypotheses_ok, f"descent needs all hypothesis flags: {inst.flag_summary()}")
    table0 = character_table(inst.group)
    _require(
        table0.degrees[chi_index] % inst.p != 0,
        f"chi has degree {table0.degrees[chi_index]} divisible by p={inst.p}",
    )
    current = table0.rows[chi_index]
    steps: list[DescentStep] = []
    for level in descent_levels(inst) if levels is None else levels:
        group, K, L, H = level.group, level.K, level.L, level.H
        l_table = character_table(L.view)
        chi_l = restrict(current, L)
        invariant = [i for i, _ in constituents(chi_l) if level.is_p_invariant(i)]
        if len(invariant) != 1:
            raise FalsificationError(
                "P-invariant constituent below chi is not unique",
                group=group.name,
                candidates=invariant,
                trace=as_json(steps),
            )
        theta = invariant[0]
        fixed = level.fixed_cosets(theta)
        if fixed != 1:
            raise FalsificationError(
                "coprime fixed-point count on K_theta/L is not 1",
                group=group.name,
                fixed=fixed,
                trace=as_json(steps),
            )
        chi_h = restrict(current, H)
        over_theta = level.rows_over(theta)
        over = [i for i, _ in constituents(chi_h) if i in over_theta]
        if len(over) != 1:
            raise FalsificationError(
                "constituent of chi_H over theta is not unique",
                group=group.name,
                candidates=over,
                trace=as_json(steps),
            )
        h_table = character_table(H.view)
        eta_index = over[0]
        if h_table.degrees[eta_index] % inst.p == 0:
            raise FalsificationError(
                "successor character has degree divisible by p",
                group=group.name,
                eta_degree=h_table.degrees[eta_index],
            )
        steps.append(
            DescentStep(
                group=group.name,
                order=group.order,
                k_order=K.order,
                l_order=L.order,
                h_order=H.order,
                theta=theta,
                theta_degree=l_table.degrees[theta],
                fixed_cosets=fixed,
                eta=eta_index,
                eta_degree=h_table.degrees[eta_index],
            )
        )
        current = h_table.rows[eta_index]
    # current is now a row of Irr(P) (on the last H.view, or on G itself when P = G)
    p_table = character_table(inst.sylow.view)
    xi_index = p_table.index_of(current)
    if p_table.degrees[xi_index] != 1:
        raise FalsificationError(
            "descent terminated on a non-linear character",
            degree=p_table.degrees[xi_index],
        )
    return xi_index, tuple(steps)


class Counts(NamedTuple):
    irr_p_prime_g: int
    irr_p_prime_n: int
    equal: bool


def mckay_count(inst: McKayInstance) -> Counts:
    """|Irr_{p'}(G)| vs |Irr_{p'}(N_G(P))| (valid even when N_G(P) > P)."""
    a = len(p_prime_irreducibles(character_table(inst.group), inst.p))
    b = len(p_prime_irreducibles(character_table(inst.normalizer.view), inst.p))
    return Counts(a, b, a == b)


# -- the coincidence verdict -----------------------------------------------------------


class PairRecord(NamedTuple):
    chi: int
    chi_degree: int
    star: int | None
    descent: int | None
    coincide: bool
    trace: tuple[DescentStep, ...]
    error: str | None = None


class CorrespondenceReport(NamedTuple):
    group: str
    order: int
    p: int
    flags: dict
    sylow_order: int
    normalizer_order: int
    linear_count: int
    pairs: tuple[PairRecord, ...]
    counts: Counts
    star_bijection: bool
    descent_bijection: bool
    verdict: bool


def verify_main(inst: McKayInstance) -> CorrespondenceReport:
    """Run both correspondences over all of Irr_{p'}(G) and compare."""
    if not inst.hypotheses_ok:
        failed = ", ".join(k for k, v in inst.flag_summary().items() if not v)
        raise HypothesisError(f"({inst.group.name}, p={inst.p}) does not satisfy: {failed}")
    table = character_table(inst.group)
    p_rows = p_prime_irreducibles(table, inst.p)
    p_table = character_table(inst.sylow.view)
    lin = p_table.linear_indices()
    levels = None
    pairs = []
    all_ok = True
    for ci in p_rows:
        star_i = desc_i = None
        error = None
        trace = ()
        try:
            star_i = navarro_star(inst, ci)
            if levels is None:
                levels = descent_levels(inst)
            desc_i, trace = isaacs_descent(inst, ci, levels)
        except FalsificationError as exc:
            error = str(exc)
        coincide = error is None and star_i == desc_i
        all_ok = all_ok and coincide
        pairs.append(
            PairRecord(
                chi=ci,
                chi_degree=table.degrees[ci],
                star=star_i,
                descent=desc_i,
                coincide=coincide,
                trace=trace,
                error=error,
            )
        )
    # lin is strictly increasing, so sorting onto it also proves the values distinct
    star_bij = sorted((p.star for p in pairs), key=_none_last) == list(lin)
    desc_bij = sorted((p.descent for p in pairs), key=_none_last) == list(lin)
    counts = mckay_count(inst)
    verdict = all_ok and star_bij and desc_bij and counts.equal
    return CorrespondenceReport(
        group=inst.group.name,
        order=inst.group.order,
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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisError(message)
