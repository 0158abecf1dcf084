"""Pure-Python group kernels: enumeration, coset closure, classes, class matrices.

All functions work on element ids (positions in the canonical element list)
except ``closure_bfs``, which produces that list in the first place.  The
others take the ``PermGroup`` and read its ``elements`` and ``index``
(permutation -> id).  Permutations are ``bytes`` up to degree 256 and tuples
above (``charcorr.perm``); each loop takes the product for its degree once
and pads its fixed right factor once, by ``table``, not once per product.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..perm import Perm, identity, inverse, product, table

if TYPE_CHECKING:
    from ..groups import PermGroup


def closure_bfs(degree: int, gens: list[Perm], cap: int) -> list[Perm]:
    """Breadth-first closure from the identity, right-multiplying by gens.

    Every BFS level is sorted lexicographically by images, which pins the
    canonical element order.  Raises ValueError when the closure grows
    past ``cap``.
    """
    mul = product(degree)
    tables = [table(g) for g in gens]
    e = identity(degree)
    seen = {e}
    out = [e]
    level = [e]
    while level:
        nxt = set()
        for x in level:
            for t in tables:
                y = mul(x, t)
                if y not in seen and y not in nxt:
                    nxt.add(y)
        if not nxt:
            break
        if len(out) + len(nxt) > cap:
            raise ValueError("group closure exceeds enumeration cap %d" % cap)
        level = sorted(nxt)
        seen.update(level)
        out.extend(level)
    return out


def extend_closure(G: PermGroup, base, gen_ids, limit: int | None = None) -> set[int] | None:
    """Member ids of the subgroup generated by ``gen_ids``, grown from ``base``.

    ``base`` holds the member ids of a subgroup H of that group, typically
    the closure of a prefix of ``gen_ids``.  The result is built (Dimino) as
    a union of right cosets H*r: starting from r = identity, every product
    r*g of a coset representative r and a generator g that falls outside the
    set adds the whole coset H*(r*g), and r*g becomes a representative.  The
    union is then closed under right multiplication by every generator, so
    it is the group.  This costs one product per new element plus one per
    (representative, generator) pair, against one per (element, generator)
    pair for a breadth-first closure.

    Returns None as soon as the size would exceed ``limit``, so exactly when
    the generated group is larger than ``limit``.
    """
    elements, index = G.elements, G.index
    members = set(base)
    if limit is not None and len(members) > limit:
        return None
    mul = product(G.degree)
    base_perms = [elements[h] for h in members]
    tables = [table(elements[i]) for i in gen_ids]
    reps = [elements[0]]
    for r in reps:  # the loop also visits representatives appended on the way
        for t in tables:
            y = mul(r, t)
            if index[y] in members:
                continue
            if limit is not None and len(members) + len(base_perms) > limit:
                return None
            ty = table(y)
            members.update(index[mul(h, ty)] for h in base_perms)
            reps.append(y)
    return members


def conj_orbit_ids(G: PermGroup, gen_ids: list[int]) -> list[int]:
    """Conjugation-orbit id for every element, orbits numbered by first rep.

    Scans elements in canonical order; each unseen element starts the next
    orbit, closed under conjugation by the given generator ids.
    """
    elements, index = G.elements, G.index
    n = len(elements)
    mul = product(G.degree)
    gens = [(inverse(elements[i]), table(elements[i])) for i in gen_ids]
    orbit = [-1] * n
    next_id = 0
    for start in range(n):
        if orbit[start] >= 0:
            continue
        orbit[start] = next_id
        frontier = [elements[start]]
        while frontier:
            nxt = []
            for x in frontier:
                tx = table(x)
                for ginv, tg in gens:
                    y = mul(mul(ginv, tx), tg)
                    j = index[y]
                    if orbit[j] < 0:
                        orbit[j] = next_id
                        nxt.append(y)
            frontier = nxt
        next_id += 1
    return orbit


def class_matrix(
    G: PermGroup, class_of: list[int], inverse_members: list[int], rep_ids: list[int]
) -> list[list[tuple[int, int]]]:
    """Class-algebra structure constants for one class, as sparse columns.

    With c_ijk = #{x in C_i : x^-1 * z_k in C_j}, the r x r matrix holding
    c_ijk at row j, column k is multiplication by the class sum of C_i acting
    on class sums; its common eigenvectors drive the character table
    computation.  ``inverse_members`` holds the member ids of the inverse
    class {x^-1 : x in C_i}, so c_ijk counts its members y with y * z_k in
    C_j.  Column k is returned as the list of (j, c_ijk) with c_ijk != 0,
    ascending j: it has at most |C_i| entries.
    """
    elements, index = G.elements, G.index
    mul = product(G.degree)
    members = [elements[y] for y in inverse_members]
    columns = []
    for zk in rep_ids:
        tz = table(elements[zk])
        counts: dict[int, int] = {}
        for y in members:
            j = class_of[index[mul(y, tz)]]
            counts[j] = counts.get(j, 0) + 1
        columns.append(sorted(counts.items()))
    return columns
