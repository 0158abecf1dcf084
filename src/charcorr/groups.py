"""Finite permutation groups by full enumeration, with the subgroup toolbox.

Groups are given by permutation generators and enumerated completely (desk
scale, capped).  Elements are ``charcorr.perm`` permutations: ``bytes`` up to
degree 256 and tuples above, the representation fixed once by the degree.
Element order is canonical: breadth-first closure from the generators in
listed order, each level sorted lexicographically by images (the same order
in both representations).  Subgroups are member sets of a parent group,
interned per parent; every subgroup also exposes a canonical ``view`` of
itself as a stand-alone PermGroup.  A full subgroup's view is its parent, so
a group has one table however it is reached; proper subgroups share one view
per member set, so equal subgroups always yield the identical view object
(and hence identical class data downstream).

Subgroups are generated by coset extension (Dimino's algorithm, in
``kernels.pure.extend_closure``): adjoining a generator to a closed subgroup
H adds whole right cosets of H instead of re-running a closure from the
identity.  What depends only on the member set is computed once per
interned ``Subgroup``: its lex-pruned generators (``gen_ids``), its view and
its derived subgroup.  Solvability walks the derived series on generator ids
alone, from the group's own generators, so no term of it is interned.
"""

from __future__ import annotations

import json
from math import gcd, lcm

from . import perm as pm
from .kernels import pure
from .perm import Perm

DEFAULT_CAP = 20000
# The largest --cap the CLI takes; a prime p <= cap is then tested by at most
# sqrt(MAX_CAP) trial divisions.
MAX_CAP = 1_000_000
# Bounds on a group description, checked before anything is allocated for it.
MAX_DEGREE = 1024
MAX_GENERATORS = 64
MAX_NAME_LENGTH = 256
MAX_FILE_BYTES = 16 * 1024 * 1024  # a larger group file is refused unparsed
READ_CHUNK_BYTES = 64 * 1024
# The most conjugacy classes r a character table is computed for.  The split
# starts from a dense r x r identity and the verifier makes r^2 pairings, so the
# cost grows about as r^3: ``table`` on C2^k (r = 2^k) took 4.9 s and 47 MB
# at r = 512 and 35 s and 149 MB at r = 1024 (2 cores, Python 3.11), and
# was still running after 600 s, at 919 MB, at r = 4096.
MAX_CLASSES = 1024


class MalformedGroupError(ValueError):
    """Bad group description: non-bijective images, wrong degree, bad JSON."""


class GroupTooLargeError(ValueError):
    """The group exceeds the configured element cap or the class bound ``MAX_CLASSES``."""


def check_same_group(op: str, a: PermGroup, b: PermGroup) -> None:
    """Raise ValueError unless an operation's operands live on one group."""
    if a is not b:
        raise ValueError(f"{op}: operands on different groups ({a.name}, {b.name})")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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
        self.index = {p: i for i, p in enumerate(self.elements)}  # permutation -> id
        self._inv: list[int] | None = None
        self._classes = None
        self._subgroups: dict[frozenset[int], "Subgroup"] = {}
        self._char_table = None  # filled by charcorr.chartab

    @classmethod
    def from_generators(cls, degree, generators, name="G", cap=DEFAULT_CAP) -> "PermGroup":
        """Enumerate the group generated by image sequences on 0..degree-1.

        The degree and every image must be an int (a bool is refused), and
        the generators a list or tuple of lists, tuples or stored
        permutations.  Each generator is converted by ``perm.make``.
        """
        if not _is_int(degree):
            raise MalformedGroupError(f"{name}: degree {degree!r} is not an integer")
        if not 1 <= degree <= MAX_DEGREE:
            raise MalformedGroupError(f"{name}: degree {degree} is outside 1..{MAX_DEGREE}")
        if not isinstance(generators, (list, tuple)):
            raise MalformedGroupError(f"{name}: generators are not lists of integers")
        if len(generators) > MAX_GENERATORS:
            raise MalformedGroupError(
                f"{name}: {len(generators)} generators, at most {MAX_GENERATORS} allowed"
            )
        gens = []
        for images in generators:
            if not isinstance(images, (list, tuple, bytes)) or not all(map(_is_int, images)):
                raise MalformedGroupError(f"{name}: generators are not lists of integers")
            if len(images) != degree or not pm.is_perm(images):
                raise MalformedGroupError(
                    f"{name}: generator {list(images)} is not a permutation of degree {degree}"
                )
            gens.append(pm.make(images))
        try:
            elements = pure.closure_bfs(degree, gens, cap)
        except ValueError as exc:
            raise GroupTooLargeError(f"{name}: {exc}") from exc
        return cls(degree, gens, elements, name)

    # -- id-level arithmetic -------------------------------------------------

    def id_of(self, p) -> int:
        """Id of the element with images p, any int sequence."""
        try:
            return self.index[pm.make(p)]
        except (KeyError, ValueError):
            raise ValueError(f"{self.name}: permutation {list(p)} is not a group element") from None

    def mul(self, i: int, j: int) -> int:
        return self.index[pm.compose(self.elements[i], self.elements[j])]

    def inv(self, i: int) -> int:
        if self._inv is None:
            self._inv = [self.index[pm.inverse(p)] for p in self.elements]
        return self._inv[i]

    def conj(self, i: int, j: int) -> int:
        """Id of elements[j]^-1 * elements[i] * elements[j]."""
        return self.mul(self.mul(self.inv(j), i), j)

    @property
    def exponent(self) -> int:
        return lcm(*conjugacy_classes(self).orders)

    def pruned_closure_ids(self, seed_ids) -> tuple[list[int], list[int]]:
        """Closure of the seeds, adjoining only seeds that enlarge it.

        Returns (ascending member ids, the retained generator ids).  Scanning
        order is the order of ``seed_ids``, so pass a deterministically sorted
        list.  Each retained seed extends the previous closure by cosets
        (``kernels.pure.extend_closure``) rather than rebuilding it; for a
        ``Subgroup``'s own generators use its cached ``gen_ids``.
        """
        gens: list[int] = []
        members = {0}
        for s in seed_ids:
            if s not in members:
                gens.append(s)
                members = pure.extend_closure(self, members, gens)
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


# Canonical stand-alone views of proper subgroups, shared by member set so
# equal member sets always resolve to the identical PermGroup object.  A full
# subgroup's view is its parent and is not stored here.
_VIEW_CACHE: dict[tuple[int, frozenset[Perm]], PermGroup] = {}


class Subgroup:
    """Subset of a parent group's elements, closed under the group operations.

    Interned by ``PermGroup.subgroup_from_ids``, its only constructor, so equality is identity.
    """

    def __init__(self, parent: PermGroup, member_ids: frozenset[int]):
        self.parent = parent
        self.member_ids = member_ids
        self.sorted_ids = tuple(sorted(member_ids))
        self.order = len(member_ids)
        self._gen_ids: tuple[int, ...] | None = None
        self._view: PermGroup | None = None
        self._derived: Subgroup | None = None  # filled by derived_subgroup
        self._fusion = None  # filled by charcorr.chartab

    def members(self):
        """Member permutations, ascending by parent canonical position."""
        els = self.parent.elements
        return [els[i] for i in self.sorted_ids]

    def member_set(self) -> frozenset[Perm]:
        els = self.parent.elements
        return frozenset(els[i] for i in self.member_ids)

    @property
    def gen_ids(self) -> tuple[int, ...]:
        """Lex-pruned generator ids, computed once.

        Members are scanned in lexicographic image order and each one that
        enlarges the closure so far is adjoined.  The choice depends only on
        the member permutations, never on the parent's labelling by ids.
        """
        if self._gen_ids is None:
            els = self.parent.elements
            by_lex = sorted(self.sorted_ids, key=lambda i: els[i])
            _, gens = self.parent.pruned_closure_ids(by_lex)
            self._gen_ids = tuple(gens)
        return self._gen_ids

    @property
    def view(self) -> PermGroup:
        """Canonical PermGroup over exactly these members.

        The parent itself for a full subgroup; otherwise the view shared
        globally by member set.
        """
        if self.order == self.parent.order:
            return self.parent
        if self._view is None:
            key = (self.parent.degree, self.member_set())
            if key not in _VIEW_CACHE:
                _VIEW_CACHE[key] = _build_view(self)
            self._view = _VIEW_CACHE[key]
        return self._view

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name})"


def _build_view(sub: Subgroup) -> PermGroup:
    """Stand-alone PermGroup for a member set.

    Generators are the subgroup's lex-pruned ``gen_ids``; elements then get
    the usual BFS canonical order.  Depends only on the member set, never on
    the parent.
    """
    parent = sub.parent
    gens = [parent.elements[i] for i in sub.gen_ids]
    if gens:
        name = f"sub{sub.order}@{pm.cycle_string(gens[0])}"
    else:
        name = "sub1"
    view = PermGroup.from_generators(parent.degree, gens, name=name, cap=sub.order)
    if view.order != sub.order:
        raise RuntimeError(f"{name}: generators span {view.order} elements, not {sub.order}")
    return view


# -- loading ------------------------------------------------------------------


def group_from_dict(data: dict, cap: int = DEFAULT_CAP) -> PermGroup:
    try:
        name = data["name"]
        degree = data["degree"]
        generators = data["generators"]
    except (KeyError, TypeError) as exc:
        raise MalformedGroupError(f"bad group description: {exc}") from exc
    if not isinstance(name, str) or len(name) > MAX_NAME_LENGTH:
        raise MalformedGroupError(
            f"group name is not a string of at most {MAX_NAME_LENGTH} characters"
        )
    return PermGroup.from_generators(degree, generators, name=name, cap=cap)


def load_group(path, cap: int = DEFAULT_CAP) -> PermGroup:
    """Load a group description file (UTF-8 JSON: name, degree, generators).

    A missing file raises FileNotFoundError; a file over MAX_FILE_BYTES, and
    any other failure to read or decode it (permissions, bad encoding,
    invalid or too deeply nested JSON), raises MalformedGroupError.  The file
    is read in chunks of READ_CHUNK_BYTES until it ends or passes
    MAX_FILE_BYTES, so a small file costs a small buffer and a large one is
    refused unparsed after at most MAX_FILE_BYTES + READ_CHUNK_BYTES bytes.
    """
    try:
        with open(path, "rb") as fh:
            chunks, size = [], 0
            while size <= MAX_FILE_BYTES and (chunk := fh.read(READ_CHUNK_BYTES)):
                chunks.append(chunk)
                size += len(chunk)
        if size > MAX_FILE_BYTES:
            raise MalformedGroupError(f"{path}: group file exceeds {MAX_FILE_BYTES} bytes")
        data = json.loads(b"".join(chunks).decode("utf-8"))
    except (FileNotFoundError, MalformedGroupError):
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedGroupError(f"{path}: not a readable JSON file ({exc})") from exc
    return group_from_dict(data, cap=cap)


# -- conjugacy classes ---------------------------------------------------------


class ConjClasses:
    """Conjugacy classes in canonical order.

    Classes are sorted by (element order of the representative, class size,
    canonical position of the least member); the representative is that least
    member.  Class 0 is always the identity class.  ``powers[i][j]`` is the
    class of g^j for g the representative of class i and j < ord(g), so
    ``orders[i]`` (a class invariant) is its length and ``powers[i][-1]`` is
    the class of g^-1.  For k prime to |G| the power map g -> g^k permutes
    the classes as pi_k : i -> powers[i][k % orders[i]].
    """

    def __init__(self, group, rep_ids, sizes, powers, class_of_id, members_ids):
        self.group = group
        self.rep_ids = rep_ids
        self.sizes = sizes
        self.powers = powers
        self.orders = tuple(map(len, powers))
        self.class_of_id = class_of_id
        self.members_ids = members_ids
        self._actions: dict[Perm, tuple[int, ...]] = {}  # filled by action_of

    @property
    def count(self) -> int:
        return len(self.rep_ids)

    def rep(self, i: int) -> Perm:
        return self.group.elements[self.rep_ids[i]]

    def class_of_perm(self, p: Perm) -> int:
        return self.class_of_id[self.group.id_of(p)]

    def action_of(self, g: Perm) -> tuple[int, ...]:
        """The class of g * rep * g^-1 for every class, for g normalizing the group.

        Cached per permutation g, so the group's classes hold the action of
        every element that has conjugated a class function on it; g may come
        from any group containing this one.
        """
        action = self._actions.get(g)
        if action is None:
            ginv = pm.inverse(g)
            action = tuple(
                self.class_of_perm(pm.compose(pm.compose(g, self.rep(c)), ginv))
                for c in range(self.count)
            )
            self._actions[g] = action
        return action


def conjugacy_classes(G: PermGroup) -> ConjClasses:
    if G._classes is not None:
        return G._classes
    gen_ids = [G.id_of(g) for g in G.generators]
    orbit = pure.conj_orbit_ids(G, gen_ids)
    buckets: dict[int, list[int]] = {}
    for eid, oid in enumerate(orbit):
        buckets.setdefault(oid, []).append(eid)  # ascending: ms[0] is the least member
    orbits = []
    for ms in buckets.values():
        walk = [0]  # the ids of g^0, g^1, ... for g the least member, until g^m = 1
        while x := G.mul(walk[-1], ms[0]):
            walk.append(x)
        orbits.append((walk, ms))
    orbits.sort(key=lambda wm: (len(wm[0]), len(wm[1]), wm[1][0]))
    class_of = [0] * G.order
    for ci, (_, ms) in enumerate(orbits):
        for eid in ms:
            class_of[eid] = ci
    classes = ConjClasses(
        G,
        tuple(ms[0] for _, ms in orbits),
        tuple(len(ms) for _, ms in orbits),
        tuple(tuple(class_of[x] for x in walk) for walk, _ in orbits),
        tuple(class_of),
        tuple(tuple(ms) for _, ms in orbits),
    )
    G._classes = classes
    return classes


# -- subgroup constructions ----------------------------------------------------


def sylow(G: PermGroup, p: int) -> Subgroup:
    """Deterministic Sylow p-subgroup.

    Greedy over p-elements in canonical order: repeatedly adjoin the first
    element whose closure with the current subgroup is still a p-group, until
    the full p-part of |G| is reached.  Each trial extends the current
    subgroup by cosets and is abandoned once it outgrows the p-part of |G|,
    which no p-subgroup can exceed.
    """
    target = p_part(G.order, p)
    if target == 1:
        return G.trivial_subgroup()
    cls = conjugacy_classes(G)
    p_classes = {c for c, o in enumerate(cls.orders) if o > 1 and p_part(o, p) == o}
    p_elements = [i for i, c in enumerate(cls.class_of_id) if c in p_classes]
    members = {0}
    gens: list[int] = []
    while len(members) < target:
        for x in p_elements:
            if x in members:
                continue
            trial = pure.extend_closure(G, members, gens + [x], limit=target)
            if trial is not None and p_part(len(trial), p) == len(trial):
                gens.append(x)
                members = trial
                break
        else:
            raise RuntimeError(f"sylow({G.name}, {p}): greedy growth stalled")  # unreachable
    return G.subgroup_from_ids(members)


def normalizer(G: PermGroup, H: Subgroup) -> Subgroup:
    """N_G(H), tested once per right coset Hg.

    If g normalizes H, so does every hg with h in H, so the normalizer is a
    union of right cosets.  Elements are scanned in canonical order; each one
    not yet covered marks its whole coset, which joins the result when that
    element passes ``_normalizes``.
    """
    check_same_group("normalizer", H.parent, G)
    elements, index = G.elements, G.index
    mul = pm.product(G.degree)
    members = H.members()
    covered = [False] * G.order
    out = []
    for gid, g in enumerate(elements):
        if covered[gid]:
            continue
        tg = pm.table(g)
        coset = [index[mul(h, tg)] for h in members]
        for c in coset:
            covered[c] = True
        if _normalizes(G, [gid], H):
            out.extend(coset)
    return G.subgroup_from_ids(out)


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
                    mset = pure.extend_closure(G, mset, gens)
                    changed = True
    return sorted(mset), gens


def _derived_ids(G: PermGroup, gen_ids) -> tuple[list[int], list[int]]:
    """<gen_ids>' as (member ids, generator ids): the normal closure of the commutators [a, b]."""
    seeds = {G.mul(G.mul(G.mul(G.inv(a), G.inv(b)), a), b) for a in gen_ids for b in gen_ids}
    seeds.discard(0)
    return normal_closure_ids(G, seeds, gen_ids)


def derived_subgroup(S: Subgroup) -> Subgroup:
    """Commutator subgroup of S, as a subgroup of the same parent.

    Memoized on the interned Subgroup, since it depends only on the member set.
    """
    if S._derived is None:
        S._derived = S.parent.subgroup_from_ids(_derived_ids(S.parent, S.gen_ids)[0])
    return S._derived


def is_solvable(G: PermGroup) -> bool:
    """True if the derived series of G ends at the identity.

    Walked on generator ids from G's own generators until the order reaches
    1 or stops shrinking; no term is interned as a Subgroup.
    """
    gens, order = [G.id_of(g) for g in G.generators], G.order
    while order > 1:
        members, gens = _derived_ids(G, gens)
        if len(members) == order:
            return False
        order = len(members)
    return True


def o_p_residual(G: PermGroup, p: int) -> Subgroup:
    """Smallest normal subgroup with p-group quotient: closure of all p'-elements."""
    cls = conjugacy_classes(G)
    seeds = [i for i in range(G.order) if gcd(cls.orders[cls.class_of_id[i]], p) == 1]
    members, _ = G.pruned_closure_ids(seeds)
    if p_part(G.order // len(members), p) != G.order // len(members):
        raise RuntimeError("o_p_residual: quotient is not a p-group")  # unreachable
    return G.subgroup_from_ids(members)


def product_subgroup(A: Subgroup, B: Subgroup) -> Subgroup:
    """Set product AB, which must be a subgroup (errors otherwise).

    When one operand contains the other, AB is the larger one and is
    returned as it is.
    """
    check_same_group("product_subgroup", A.parent, B.parent)
    if B.member_ids <= A.member_ids:
        return A
    if A.member_ids <= B.member_ids:
        return B
    G = A.parent
    ab = {G.mul(a, b) for a in A.sorted_ids for b in B.sorted_ids}
    ba = {G.mul(b, a) for a in A.sorted_ids for b in B.sorted_ids}
    if ab != ba:
        raise ValueError("product_subgroup: set product is not closed")
    return G.subgroup_from_ids(ab)


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    check_same_group("intersection", A.parent, B.parent)
    return A.parent.subgroup_from_ids(A.member_ids & B.member_ids)


def direct_factor_classes(G: PermGroup, A: Subgroup, B: Subgroup) -> tuple[tuple[int, int], ...]:
    """Per class of G = A x B, the classes in A and in B of the factors of its representative.

    The representative t factors as t = a*b with a in A and b = a^-1 t in B,
    found by trying each a; a representative that does not factor raises
    RuntimeError.  In a direct product the factors are unique; the caller
    proves that G is one (``showcase.build_remark_group`` does).
    """
    check_same_group("direct_factor_classes", A.parent, G)
    check_same_group("direct_factor_classes", B.parent, G)
    a_classes, b_classes = conjugacy_classes(A.view), conjugacy_classes(B.view)
    els, out = G.elements, []
    for t in conjugacy_classes(G).rep_ids:
        for a in A.sorted_ids:
            b = G.mul(G.inv(a), t)
            if b in B.member_ids:
                out.append((a_classes.class_of_perm(els[a]), b_classes.class_of_perm(els[b])))
                break
        else:
            raise RuntimeError(f"{G.name}: a class representative does not factor as a*b")
    return tuple(out)


def _normalizes(G: PermGroup, gen_ids, H: Subgroup) -> bool:
    """True if conjugating by each of the given generator ids maps H into H."""
    return all(G.conj(x, g) in H.member_ids for x in H.gen_ids for g in gen_ids)


def is_normal(G: PermGroup, N: Subgroup) -> bool:
    check_same_group("is_normal", N.parent, G)
    return _normalizes(G, [G.id_of(g) for g in G.generators], N)


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
    if not _normalizes(G, K.gen_ids, N):
        raise ValueError("fixed_points_on_cosets: N is not normal in K")
    if not _normalizes(G, P.gen_ids, K) or not _normalizes(G, P.gen_ids, N):
        raise ValueError("fixed_points_on_cosets: P does not normalize K and N")
    count = 0
    for k in coset_rep_ids(K, N):
        kinv = G.inv(k)
        if all(G.mul(kinv, G.conj(k, x)) in N.member_ids for x in P.gen_ids):
            count += 1
    return count
