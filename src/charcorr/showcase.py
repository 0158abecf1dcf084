"""The order-648 showcase group: ``remark648`` is the one command that loads this module.

G = K : H on 27 points, where K is the Heisenberg group of upper
unitriangular 3x3 matrices over F_3 (extraspecial of order 27, exponent 3)
acting on itself by right translation, and H = SL(2,3) acts by the
automorphisms fixing the center pointwise and acting symplectically on K/Z.
With P a Sylow 2-subgroup of H, the Sylow normalizer is L x H of order 72,
strictly larger than P, so this instance sits outside the coincidence
theorem's hypotheses: its correspondence is defined through a degree-3
product relation instead, and the matched linear targets are provably NOT
constituents of the restrictions.  Every numeric claim about this group is
verified here, not assumed.  Once N = L x H is proven, N's table is built
from the tables of L and H (``chartab.product_table``), not by its own
Dixon-Schneider run.  The shipped corpus and its loader live in ``common``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .chartab import (
    ClassFunction,
    character_table,
    conjugate_classfn,
    constituents,
    induce,
    lying_over,
    mul_classfn,
    product_table,
    restrict,
)
from .common import FalsificationError, as_json
from .cyclotomic import render_cyc, sqrt_minus3
from .groups import (
    DEFAULT_CAP,
    PermGroup,
    Subgroup,
    conjugacy_classes,
    derived_subgroup,
    direct_factor_classes,
    fixed_points_on_cosets,
    intersection,
    normalizer,
    product_subgroup,
    sylow,
)


class ConstructionError(RuntimeError):
    """A showcase build-time invariant failed (a bug, not a falsification)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionError(message)


# -- the 27-point realization -------------------------------------------------------


def _heis_elements() -> list[tuple[int, int, int]]:
    """Triples (a, b, c) <-> unitriangular [[1,a,c],[0,1,b],[0,0,1]] over F_3."""
    return [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]


def _heis_mul(x, y):
    return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3)


def _point_index(x) -> int:
    return 9 * x[0] + 3 * x[1] + x[2]


def _translation(k) -> tuple[int, ...]:
    pts = _heis_elements()
    return tuple(_point_index(_heis_mul(x, k)) for x in pts)


def _symplectic_auto(m) -> tuple[int, ...]:
    """Automorphism of K fixing the center, inducing the matrix m on K/Z.

    For (a', b') = m(a, b), the map (a, b, c) -> (a', b', c + (a'b' - ab)/2)
    is a group automorphism whenever det(m) = 1: the correction is the
    quadratic form whose polarization cancels the cocycle mismatch, and the
    halving is multiplication by 2 in F_3.
    """
    pts = _heis_elements()
    out = []
    for a, b, c in pts:
        a2 = (m[0][0] * a + m[0][1] * b) % 3
        b2 = (m[1][0] * a + m[1][1] * b) % 3
        c2 = (c + 2 * (a2 * b2 - a * b)) % 3
        out.append(_point_index((a2, b2, c2)))
    return tuple(out)


def remark_generators() -> list[tuple[int, ...]]:
    """Degree-27 generators: two translations and the two SL(2,3) automorphisms."""
    t1 = _translation((1, 0, 0))
    t2 = _translation((0, 1, 0))
    s = _symplectic_auto(((0, -1), (1, 0)))  # order 4
    t = _symplectic_auto(((1, 1), (0, 1)))  # order 3
    return [t1, t2, s, t]


# -- showcase data -------------------------------------------------------------------


class RemarkGroup(NamedTuple):
    """The order-648 group and its six named subgroups."""

    G: PermGroup
    K: Subgroup
    L: Subgroup
    H: Subgroup
    P: Subgroup
    N: Subgroup


class RemarkData(NamedTuple):
    """The group, its subgroups and every verified value, built once by ``remark_data``."""

    G: PermGroup
    K: Subgroup
    L: Subgroup
    H: Subgroup
    P: Subgroup
    N: Subgroup
    theta_index: int
    theta: ClassFunction
    phi_index: int
    phi: ClassFunction
    e: int
    psi_alpha: int
    psi_beta: int
    psi_h: ClassFunction
    psi_n: ClassFunction
    pairs: tuple[tuple[int, int], ...]
    viable: tuple[dict, ...]
    non_constituent: tuple[dict, ...]


def build_remark_group(cap: int = DEFAULT_CAP) -> RemarkGroup:
    """Construct the group and named subgroups; assert every invariant."""
    gens = remark_generators()
    G = PermGroup.from_generators(27, gens, name="Remark648", cap=cap)
    _require(G.order == 648, f"|G| = {G.order}, expected 648")
    translations = [_translation(k) for k in _heis_elements()]
    K = G.subgroup(translations)
    _require(K.order == 27, "K should have order 27")
    L = G.subgroup(_translation((0, 0, c)) for c in range(3))
    _require(L.order == 3, "L should have order 3")
    h_members, _ = G.pruned_closure_ids(sorted([G.id_of(gens[2]), G.id_of(gens[3])]))
    H = G.subgroup_from_ids(h_members)
    _require(H.order == 24, f"|H| = {H.order}, expected 24")
    p_in_h = sylow(H.view, 2)
    P = G.subgroup(p_in_h.members())
    _require(P.order == 8, "P should have order 8")
    N = normalizer(G, P)
    _require(N.order == 72, f"|N_G(P)| = {N.order}, expected 72")

    # N = L x H as an internal direct product
    _require(product_subgroup(L, H).member_ids == N.member_ids, "N != L*H")
    _require(intersection(L, H).order == 1, "L and H intersect nontrivially")
    for zid in L.sorted_ids:
        for hid in H.sorted_ids:
            _require(G.mul(zid, hid) == G.mul(hid, zid), "L and H do not commute")

    # K extraspecial of exponent 3: Z(K) = K' = L, every non-identity order 3
    kv = K.view
    k_classes = conjugacy_classes(kv)
    center = {kv.elements[r] for r, size in zip(k_classes.rep_ids, k_classes.sizes) if size == 1}
    _require(len(center) == 3, "Z(K) should have order 3")
    _require(center == L.member_set(), "Z(K) != L")
    _require(
        derived_subgroup(K).member_ids == L.member_ids, "K' != L"
    )
    g_classes = conjugacy_classes(G)
    orders, class_of = g_classes.orders, g_classes.class_of_id
    _require(all(orders[class_of[i]] == 3 for i in K.sorted_ids if i != 0), "K is not exponent 3")

    # coprime fixed points: C_{K/L}(x) = 1 for every non-identity x in P
    for xid in P.sorted_ids:
        if xid == 0:
            continue
        cyc_ids, _ = G.pruned_closure_ids([xid])
        fixed = fixed_points_on_cosets(G.subgroup_from_ids(cyc_ids), K, L)
        _require(fixed == 1, f"C_(K/L)(x) != 1 for x of order {orders[class_of[xid]]}")

    return RemarkGroup(G=G, K=K, L=L, H=H, P=P, N=N)


def verify_fully_ramified(
    data: RemarkGroup,
) -> tuple[int, ClassFunction, int, ClassFunction, int]:
    """theta^K = e*phi and phi_L = e*theta for a single phi.

    Returns (theta index, theta, phi index, phi, e).
    """
    l_table = character_table(data.L.view)
    _require(l_table.degrees == (1, 1, 1), "Irr(L) should be three linears")
    theta = l_table.rows[1]  # canonical first nontrivial character of L
    for i, g in enumerate(data.G.generators):  # L is normal in G
        if conjugate_classfn(theta, data.L, g).values != theta.values:
            raise FalsificationError("theta is not G-invariant", generator=i)
    l_in_k = data.K.view.subgroup(data.L.members())
    induced = induce(theta, l_in_k)
    parts = constituents(induced)
    if len(parts) != 1:
        raise FalsificationError(
            "theta^K is not a multiple of a single irreducible",
            constituents=parts,
        )
    phi_index, e = parts[0]
    k_table = character_table(data.K.view)
    phi = k_table.rows[phi_index]
    back = restrict(phi, l_in_k)
    if any(bv != e * tv for bv, tv in zip(back.values, theta.values)):
        raise FalsificationError("phi restricted to L is not e*theta", e=e)
    if e * e != data.K.order // data.L.order:
        raise FalsificationError("ramification index does not square to |K:L|", e=e)
    return 1, theta, phi_index, phi, e


def _values_by_class_order(f: ClassFunction) -> dict[int, list]:
    """The values of f grouped by the element order of their class, in class order."""
    out = {}
    for order, v in zip(conjugacy_classes(f.group).orders, f.values):
        out.setdefault(order, []).append(v)
    return out


def recover_psi(data: RemarkGroup, theta: ClassFunction, phi: ClassFunction) -> tuple:
    """Search for the degree-3 product-relation character.

    Candidates are alpha + beta over the linear characters alpha and the
    degree-2 irreducibles beta of H.  A candidate is viable when the relation
    chi_N = psi_N * xi matches the odd-degree members of Irr(G|phi) and of
    Irr(N|theta) bijectively.  Viable candidates are then screened against
    the expected value pattern (-1 on order 2, +1 on order 4, +-sqrt(-3) on
    order 3, faithful); at least one must survive.  Returns the first
    survivor as (alpha, beta, psi on H, psi on N, its pairs) followed by the
    records of all viable candidates.
    """
    g_table = character_table(data.G)
    n_view = data.N.view
    l_in_n = n_view.subgroup(data.L.members())
    h_in_n = n_view.subgroup(data.H.members())
    n_table = product_table(n_view, l_in_n, h_in_n)  # N = L x H, proven by build_remark_group
    h_table = character_table(data.H.view)

    odd_chis = [
        i
        for i in lying_over(data.K, phi)
        if g_table.degrees[i] % 2 == 1
    ]
    odd_xis = [
        i
        for i in lying_over(l_in_n, theta)
        if n_table.degrees[i] % 2 == 1
    ]
    _require(len(odd_chis) == 4 and len(odd_xis) == 4, "expected 4 odd characters on each side")

    chi_restrictions = {i: restrict(g_table.rows[i], data.N) for i in odd_chis}
    linears = [i for i, d in enumerate(h_table.degrees) if d == 1]
    deg2 = [i for i, d in enumerate(h_table.degrees) if d == 2]
    _require(len(linears) == 3 and len(deg2) == 3, "H should have 3 linear and 3 degree-2 rows")
    to_h = [h for _, h in direct_factor_classes(n_view, l_in_n, h_in_n)]  # the projection N -> H

    def psi(a: int, b: int) -> tuple[ClassFunction, ClassFunction]:  # on H, and inflated to N
        psi_h = h_table.rows[a] + h_table.rows[b]
        return psi_h, ClassFunction(n_view, (psi_h.values[c] for c in to_h))

    root = sqrt_minus3()
    candidates = []
    for a in linears:
        for b in deg2:
            psi_h, psi_n = psi(a, b)
            products = {xi: mul_classfn(psi_n, n_table.rows[xi]).values for xi in odd_xis}
            matches = {
                ci: [xi for xi in odd_xis if chi_restrictions[ci].values == products[xi]]
                for ci in odd_chis
            }
            viable = (
                all(len(h) == 1 for h in matches.values())
                and len({h[0] for h in matches.values()}) == len(odd_xis)
            )
            by_order = _values_by_class_order(psi_h)
            order2_ok = all(v == -1 for v in by_order.get(2, ()))
            order4_ok = all(v == 1 for v in by_order.get(4, ()))
            order3_ok = all(v == root or v == -root for v in by_order.get(3, ()))
            faithful = all(v != 3 for v in psi_h.values[1:])
            candidates.append(
                {
                    "alpha": a,
                    "beta": b,
                    "alpha_trivial": a == 0,
                    "viable": viable,
                    "pairs": sorted((ci, matches[ci][0]) for ci in matches) if viable else [],
                    "degree": psi_h.degree_int(),
                    "order2_ok": order2_ok,
                    "order4_ok": order4_ok,
                    "order3_ok": order3_ok,
                    "faithful": faithful,
                    "values_ok": order2_ok and order4_ok and order3_ok and faithful,
                }
            )
    viable = [c for c in candidates if c["viable"]]
    good = [c for c in viable if c["values_ok"]]
    if not good:
        raise FalsificationError(
            "no viable candidate matches the expected value pattern",
            viable=[(c["alpha"], c["beta"]) for c in viable],
        )
    chosen = good[0]
    a, b = chosen["alpha"], chosen["beta"]
    psi_h, psi_n = psi(a, b)
    return a, b, psi_h, psi_n, tuple(chosen["pairs"]), tuple(viable)


def verify_non_constituent(
    data: RemarkGroup, pairs: tuple[tuple[int, int], ...]
) -> tuple[dict, ...]:
    """<chi_N, xi> for every matched pair, read off one decomposition of chi_N.

    It must vanish whenever xi is linear.
    """
    g_table = character_table(data.G)
    n_table = character_table(data.N.view)
    records = []
    for ci, xi in pairs:
        chi_n = restrict(g_table.rows[ci], data.N)
        multiplicities = dict(constituents(chi_n))
        ip = multiplicities.get(xi, 0)
        norm = sum(m * m for m in multiplicities.values())
        if norm < 1:
            raise FalsificationError("restriction has non-positive norm", chi=ci)
        xi_degree = n_table.degrees[xi]
        if xi_degree == 1 and ip != 0:
            raise FalsificationError(
                "linear correspondence target IS a constituent of the restriction",
                chi=ci,
                xi=xi,
                inner=ip,
            )
        records.append(
            {
                "chi": ci,
                "chi_degree": g_table.degrees[ci],
                "xi": xi,
                "xi_degree": xi_degree,
                "inner_product": ip,
                "asserted_zero": xi_degree == 1,
            }
        )
    return tuple(records)


@lru_cache(maxsize=None)
def remark_data(cap: int = DEFAULT_CAP) -> RemarkData:
    """Full showcase pipeline, computed once per process."""
    group = build_remark_group(cap=cap)
    theta_index, theta, phi_index, phi, e = verify_fully_ramified(group)
    alpha, beta, psi_h, psi_n, pairs, viable = recover_psi(group, theta, phi)
    non_constituent = verify_non_constituent(group, pairs)
    return RemarkData(
        *group, theta_index, theta, phi_index, phi, e,
        alpha, beta, psi_h, psi_n, pairs, viable, non_constituent,
    )


def remark_report(cap: int = DEFAULT_CAP) -> dict:
    """The showcase's structured output, as plain JSON data."""
    data = remark_data(cap=cap)
    by_order = _values_by_class_order(data.psi_h)
    return as_json({
        "group": data.G.name,
        "orders": {
            "G": data.G.order,
            "K": data.K.order,
            "L": data.L.order,
            "H": data.H.order,
            "P": data.P.order,
            "N": data.N.order,
        },
        "fully_ramified": {
            "theta": data.theta_index,
            "e": data.e,
            "phi": data.phi_index,
            "phi_degree": data.phi.degree_int(),
        },
        "psi": {
            "alpha": data.psi_alpha,
            "beta": data.psi_beta,
            "degree": data.psi_h.degree_int(),
            "values_by_class_order": {
                str(k): sorted({render_cyc(v) for v in vs}) for k, vs in by_order.items()
            },
            "values": [render_cyc(v) for v in data.psi_h.values],
        },
        "viable_candidates": data.viable,
        "pairs": data.pairs,
        "non_constituent": data.non_constituent,
    })
