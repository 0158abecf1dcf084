"""Finite permutation groups by full enumeration, with the subgroup toolbox.

Groups are given by permutation generators and enumerated completely (desk
scale, capped).  Element order is canonical: breadth-first closure from the
generators in listed order, each level sorted lexicographically by image
tuple.  Subgroups are member sets of a parent group; every subgroup also
exposes a canonical ``view`` of itself as a stand-alone PermGroup, shared
globally by member set so that equal subgroups always yield the identical
view object (and hence identical class data downstream).
"""

from __future__ import annotations

import json
from math import gcd, lcm

from . import perm as pm
from .kernels import pure
from .perm import Perm

DEFAULT_CAP = 20000


class MalformedGroupError(ValueError):
    """Bad group description: non-bijective images, wrong degree, bad JSON."""


class GroupTooLargeError(ValueError):
    """Enumeration would exceed the configured element cap."""


def check_same_group(op: str, a: PermGroup, b: PermGroup) -> None:
    """Raise ValueError unless an operation's operands live on one group."""
    if a is not b:
        raise ValueError(f"{op}: operands on different groups ({a.name}, {b.name})")


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


class PermGroup:
    """Fully enumerated permutation group with canonical element order."""

    def __init__(self, degree: int, generators, elements, name: str):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements: tuple[Perm, ...] = tuple(elements)
        self.order = len(self.elements)
        self.name = name
        self._ctx = None
        self._orders: list[int] | None = None
        self._classes = None
        self._subgroups: dict[frozenset[int], "Subgroup"] = {}
        self._normals = None
        self._char_table = None  # filled by charcorr.chartab

    @classmethod
    def from_generators(cls, degree, generators, name="G", cap=DEFAULT_CAP) -> "PermGroup":
        gens = []
        try:
            generators = [tuple(int(x) for x in images) for images in generators]
        except (TypeError, ValueError) as exc:
            raise MalformedGroupError(f"{name}: generators are not lists of integers") from exc
        for images in generators:
            if len(images) != degree or not pm.is_perm(images):
                raise MalformedGroupError(
                    f"{name}: generator {list(images)} is not a permutation of degree {degree}"
                )
            gens.append(images)
        try:
            elements = pure.closure_bfs(degree, gens, cap)
        except ValueError as exc:
            raise GroupTooLargeError(f"{name}: {exc}") from exc
        return cls(degree, gens, elements, name)

    # -- id-level arithmetic -------------------------------------------------

    @property
    def ctx(self):
        if self._ctx is None:
            self._ctx = pure.GroupCtx(self.degree, list(self.elements))
        return self._ctx

    def id_of(self, p: Perm) -> int:
        try:
            return self.ctx.index[p]
        except KeyError:
            raise ValueError(f"{self.name}: permutation {p} is not a group element") from None

    def mul(self, i: int, j: int) -> int:
        return pure.mul(self.ctx, i, j)

    def inv(self, i: int) -> int:
        return pure.inv(self.ctx, i)

    def conj(self, i: int, j: int) -> int:
        """Id of elements[j]^-1 * elements[i] * elements[j]."""
        return self.mul(self.mul(self.inv(j), i), j)

    def element_order(self, i: int) -> int:
        if self._orders is None:
            self._orders = [pm.order(p) for p in self.elements]
        return self._orders[i]

    @property
    def exponent(self) -> int:
        cls = conjugacy_classes(self)
        return lcm(*(self.element_order(r) for r in cls.rep_ids))

    @property
    def is_abelian(self) -> bool:
        return all(s == 1 for s in conjugacy_classes(self).sizes)

    def closure_ids(self, gen_ids) -> list[int]:
        return pure.subgroup_closure(self.ctx, list(gen_ids))

    def pruned_closure_ids(self, seed_ids) -> tuple[list[int], list[int]]:
        """Closure of the seeds, adjoining only seeds that enlarge it.

        Returns (member ids, the retained generator ids).  Scanning order is
        the order of ``seed_ids``, so pass a deterministically sorted list.
        """
        gens: list[int] = []
        members = {0}
        for s in seed_ids:
            if s not in members:
                gens.append(s)
                members = set(self.closure_ids(gens))
        return sorted(members), gens

    # -- subgroups -----------------------------------------------------------

    def subgroup_from_ids(self, ids) -> "Subgroup":
        key = frozenset(ids)
        sub = self._subgroups.get(key)
        if sub is None:
            sub = Subgroup(self, key)
            self._subgroups[key] = sub
        return sub

    def subgroup(self, perms) -> "Subgroup":
        return self.subgroup_from_ids(self.id_of(p) for p in perms)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup_from_ids([0])

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup_from_ids(range(self.order))

    def __repr__(self):
        return f"PermGroup({self.name}, degree={self.degree}, order={self.order})"


# Canonical stand-alone views of subgroups, shared by member set so equal
# member sets always resolve to the identical PermGroup object.
_VIEW_CACHE: dict[tuple[int, frozenset[Perm]], PermGroup] = {}


class Subgroup:
    """Subset of a parent group's elements, closed under the group operations."""

    def __init__(self, parent: PermGroup, member_ids: frozenset[int]):
        self.parent = parent
        self.member_ids = member_ids
        self.sorted_ids = tuple(sorted(member_ids))
        self.order = len(member_ids)
        self._view: PermGroup | None = None
        self._fusion = None  # filled by charcorr.chartab

    def members(self):
        """Member permutations, ascending by parent canonical position."""
        els = self.parent.elements
        return [els[i] for i in self.sorted_ids]

    def member_set(self) -> frozenset[Perm]:
        els = self.parent.elements
        return frozenset(els[i] for i in self.member_ids)

    def contains_perm(self, p: Perm) -> bool:
        i = self.parent.ctx.index.get(p)
        return i is not None and i in self.member_ids

    @property
    def view(self) -> PermGroup:
        """Canonical PermGroup over exactly these members (globally shared)."""
        if self._view is None:
            key = (self.parent.degree, self.member_set())
            view = _VIEW_CACHE.get(key)
            if view is None:
                view = _build_view(self.parent, self.sorted_ids)
                _VIEW_CACHE.setdefault(key, view)
                view = _VIEW_CACHE[key]
            self._view = view
        return self._view

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.member_ids == self.member_ids
        )

    def __hash__(self):
        return hash((id(self.parent), self.member_ids))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


def _build_view(parent: PermGroup, sorted_ids) -> PermGroup:
    """Stand-alone PermGroup for a member set.

    Generators are chosen greedily over members in lexicographic image order
    (adjoin whatever enlarges the closure); elements then get the usual BFS
    canonical order.  Depends only on the member set, never on the parent.
    """
    els = parent.elements
    by_lex = sorted(sorted_ids, key=lambda i: els[i])
    _, gen_ids = parent.pruned_closure_ids(by_lex)
    gens = [els[i] for i in gen_ids]
    if gens:
        name = f"sub{len(sorted_ids)}@{pm.cycle_string(gens[0])}"
    else:
        name = "sub1"
    view = PermGroup.from_generators(parent.degree, gens, name=name, cap=len(sorted_ids))
    if view.order != len(sorted_ids):
        raise RuntimeError(f"{name}: generators span {view.order} elements, not {len(sorted_ids)}")
    return view


# -- loading ------------------------------------------------------------------


def group_from_dict(data: dict, cap: int = DEFAULT_CAP) -> PermGroup:
    try:
        name = str(data["name"])
        degree = int(data["degree"])
        generators = data["generators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedGroupError(f"bad group description: {exc}") from exc
    return PermGroup.from_generators(degree, generators, name=name, cap=cap)


def load_group(path, cap: int = DEFAULT_CAP) -> PermGroup:
    """Load a group description file (JSON: name, degree, generators)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedGroupError(f"{path}: not valid JSON ({exc})") from exc
    return group_from_dict(data, cap=cap)


# -- conjugacy classes ---------------------------------------------------------


class ConjClasses:
    """Conjugacy classes in canonical order.

    Classes are sorted by (element order of the representative, class size,
    canonical position of the least member); the representative is that least
    member.  Class 0 is always the identity class.
    """

    def __init__(self, group, rep_ids, sizes, class_of_id, members_ids):
        self.group = group
        self.rep_ids = rep_ids
        self.sizes = sizes
        self.class_of_id = class_of_id
        self.members_ids = members_ids
        self._power_cache: dict[tuple[int, int], int] = {}

    @property
    def count(self) -> int:
        return len(self.rep_ids)

    def rep(self, i: int) -> Perm:
        return self.group.elements[self.rep_ids[i]]

    def class_of_perm(self, p: Perm) -> int:
        return self.class_of_id[self.group.id_of(p)]

    def rep_order(self, i: int) -> int:
        return self.group.element_order(self.rep_ids[i])

    def power_class(self, i: int, j: int) -> int:
        """Class index of rep(i)**j."""
        key = (i, j)
        got = self._power_cache.get(key)
        if got is None:
            got = self.class_of_id[self.group.id_of(pm.power(self.rep(i), j))]
            self._power_cache[key] = got
        return got

    def inverse_class(self, i: int) -> int:
        return self.power_class(i, -1)


def conjugacy_classes(G: PermGroup) -> ConjClasses:
    if G._classes is not None:
        return G._classes
    gen_ids = [G.id_of(g) for g in G.generators]
    orbit = pure.conj_orbit_ids(G.ctx, gen_ids)
    buckets: dict[int, list[int]] = {}
    for eid, oid in enumerate(orbit):
        buckets.setdefault(oid, []).append(eid)
    orbits = [sorted(b) for b in buckets.values()]
    orbits.sort(key=lambda ms: (G.element_order(ms[0]), len(ms), ms[0]))
    class_of = [0] * G.order
    for ci, ms in enumerate(orbits):
        for eid in ms:
            class_of[eid] = ci
    classes = ConjClasses(
        G,
        tuple(ms[0] for ms in orbits),
        tuple(len(ms) for ms in orbits),
        tuple(class_of),
        tuple(tuple(ms) for ms in orbits),
    )
    G._classes = classes
    return classes


# -- subgroup constructions ----------------------------------------------------


def sylow(G: PermGroup, p: int) -> Subgroup:
    """Deterministic Sylow p-subgroup.

    Greedy over p-elements in canonical order: repeatedly adjoin the first
    element whose closure with the current subgroup is still a p-group, until
    the full p-part of |G| is reached.
    """
    target = p_part(G.order, p)
    if target == 1:
        return G.trivial_subgroup()
    p_elements = [
        i for i in range(G.order) if G.element_order(i) > 1 and _is_p_power(G.element_order(i), p)
    ]
    members = [0]
    gens: list[int] = []
    mset = {0}
    while len(members) < target:
        for x in p_elements:
            if x in mset:
                continue
            trial = G.closure_ids(gens + [x])
            if _is_p_power(len(trial), p):
                gens.append(x)
                members = trial
                mset = set(trial)
                break
        else:
            raise RuntimeError(f"sylow({G.name}, {p}): greedy growth stalled")  # unreachable
    return G.subgroup_from_ids(members)


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def normalizer(G: PermGroup, H: Subgroup) -> Subgroup:
    check_same_group("normalizer", H.parent, G)
    lex_ids = sorted(H.sorted_ids, key=lambda i: G.elements[i])
    _, gen_ids = G.pruned_closure_ids(lex_ids)
    ids = pure.normalizer_ids(G.ctx, set(H.member_ids), gen_ids or [0])
    return G.subgroup_from_ids(ids)


def centralizer(G: PermGroup, g: Perm) -> Subgroup:
    ids = pure.centralizer_ids(G.ctx, G.id_of(g))
    return G.subgroup_from_ids(ids)


def centralizer_of_subgroup(G: PermGroup, H: Subgroup) -> Subgroup:
    """Elements of G commuting with every member of H."""
    check_same_group("centralizer_of_subgroup", H.parent, G)
    out = set(range(G.order))
    for hid in H.sorted_ids:
        out &= set(pure.centralizer_ids(G.ctx, hid))
    return G.subgroup_from_ids(out)


def _subgroup_gen_ids(X) -> tuple[PermGroup, list[int]]:
    """(ambient group, generator ids) for a PermGroup or Subgroup argument."""
    if isinstance(X, PermGroup):
        return X, [X.id_of(g) for g in X.generators]
    G = X.parent
    lex_ids = sorted(X.sorted_ids, key=lambda i: G.elements[i])
    _, gen_ids = G.pruned_closure_ids(lex_ids)
    return G, gen_ids


def normal_closure_ids(G: PermGroup, seed_ids, under_gen_ids) -> tuple[list[int], list[int]]:
    """Closure of the seeds under generation and conjugation by the given gens."""
    members, gens = G.pruned_closure_ids(sorted(seed_ids))
    mset = set(members)
    changed = True
    while changed:
        changed = False
        for s in list(gens):
            for g in under_gen_ids:
                c = G.conj(s, g)
                if c not in mset:
                    gens.append(c)
                    members = G.closure_ids(gens)
                    mset = set(members)
                    changed = True
    return sorted(mset), gens


def derived_subgroup(X) -> Subgroup:
    """Commutator subgroup of a PermGroup or Subgroup (as Subgroup of the ambient group)."""
    G, gen_ids = _subgroup_gen_ids(X)
    seeds = set()
    for a in gen_ids:
        for b in gen_ids:
            seeds.add(G.mul(G.mul(G.mul(G.inv(a), G.inv(b)), a), b))
    seeds.discard(0)
    members, _ = normal_closure_ids(G, seeds, gen_ids)
    return G.subgroup_from_ids(members)


def derived_series(X) -> list[Subgroup]:
    """X >= X' >= X'' >= ..., ending when the term stabilizes."""
    G, _ = _subgroup_gen_ids(X)
    if isinstance(X, PermGroup):
        current = G.full_subgroup()
    else:
        current = X
    series = [current]
    while True:
        nxt = derived_subgroup(current)
        if nxt.member_ids == current.member_ids:
            break
        series.append(nxt)
        current = nxt
    return series


def is_solvable(X) -> bool:
    return derived_series(X)[-1].order == 1


def o_p_residual(X, p: int) -> Subgroup:
    """Smallest normal subgroup with p-group quotient: closure of all p'-elements."""
    G, _ = _subgroup_gen_ids(X)
    if isinstance(X, PermGroup):
        scope = list(range(G.order))
        ambient_order = G.order
    else:
        scope = list(X.sorted_ids)
        ambient_order = X.order
    seeds = [i for i in scope if gcd(G.element_order(i), p) == 1]
    members, _ = G.pruned_closure_ids(seeds)
    if not _is_p_power(ambient_order // len(members), p):
        raise RuntimeError("o_p_residual: quotient is not a p-group")  # unreachable
    return G.subgroup_from_ids(members)


def product_subgroup(A: Subgroup, B: Subgroup) -> Subgroup:
    """Set product AB, which must be a subgroup (errors otherwise)."""
    check_same_group("product_subgroup", A.parent, B.parent)
    G = A.parent
    ab = {G.mul(a, b) for a in A.sorted_ids for b in B.sorted_ids}
    ba = {G.mul(b, a) for a in A.sorted_ids for b in B.sorted_ids}
    if ab != ba:
        raise ValueError("product_subgroup: set product is not closed")
    return G.subgroup_from_ids(ab)


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    check_same_group("intersection", A.parent, B.parent)
    return A.parent.subgroup_from_ids(A.member_ids & B.member_ids)


def is_normal(G: PermGroup, N: Subgroup) -> bool:
    check_same_group("is_normal", N.parent, G)
    gen_ids = [G.id_of(g) for g in G.generators]
    _, n_gens = G.pruned_closure_ids(sorted(N.sorted_ids, key=lambda i: G.elements[i]))
    return all(G.conj(x, g) in N.member_ids for x in n_gens for g in gen_ids)


def normal_subgroups(G: PermGroup) -> tuple[Subgroup, ...]:
    """All normal subgroups: normal closures of conjugacy classes, join-closed."""
    if G._normals is not None:
        return G._normals
    classes = conjugacy_classes(G)
    found: dict[frozenset[int], list[int]] = {}
    for ms in classes.members_ids:
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
    out = [G.subgroup_from_ids(k) for k in sorted(found, key=lambda k: (len(k), sorted(k)))]
    G._normals = tuple(out)
    return G._normals


# -- cosets ---------------------------------------------------------------------


def coset_rep_ids(K: Subgroup, N: Subgroup) -> list[int]:
    """Representatives of the cosets kN inside K, least parent id per coset."""
    check_same_group("coset_rep_ids", K.parent, N.parent)
    G = K.parent
    reps = []
    covered: set[int] = set()
    for k in K.sorted_ids:
        if k in covered:
            continue
        reps.append(k)
        covered.update(G.mul(k, n) for n in N.sorted_ids)
    return reps


def _normalizes(G: PermGroup, P: Subgroup, H: Subgroup) -> bool:
    _, p_gens = G.pruned_closure_ids(sorted(P.sorted_ids, key=lambda i: G.elements[i]))
    _, h_gens = G.pruned_closure_ids(sorted(H.sorted_ids, key=lambda i: G.elements[i]))
    return all(G.conj(x, g) in H.member_ids for x in h_gens for g in p_gens)


def fixed_points_on_cosets(P: Subgroup, K: Subgroup, N: Subgroup) -> int:
    """Number of cosets kN in K fixed by every generator of P.

    This is the fixed-point count of P acting on K/N; the coprime-action
    uniqueness arguments need it to be exactly 1.
    """
    G = P.parent
    if K.parent is not G or N.parent is not G:
        raise ValueError("fixed_points_on_cosets: subgroups of different parents")
    if not N.member_ids <= K.member_ids:
        raise ValueError("fixed_points_on_cosets: N is not contained in K")
    if not _normalizes(G, K, N):
        raise ValueError("fixed_points_on_cosets: N is not normal in K")
    if not _normalizes(G, P, K) or not _normalizes(G, P, N):
        raise ValueError("fixed_points_on_cosets: P does not normalize K and N")
    _, p_gens = G.pruned_closure_ids(sorted(P.sorted_ids, key=lambda i: G.elements[i]))
    count = 0
    for k in coset_rep_ids(K, N):
        kinv = G.inv(k)
        if all(G.mul(kinv, G.conj(k, x)) in N.member_ids for x in p_gens):
            count += 1
    return count
