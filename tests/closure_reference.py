"""Straightforward reference versions of the subgroup toolbox's fast paths.

``bfs_closure`` is the breadth-first subgroup closure that coset extension
replaced; ``bfs_orbit`` walks an orbit level by level, and
``brute_stabilizer`` finds a stabilizer by testing every actor, as
``orbit_and_stabilizer`` did before it used Schreier generators.
"""

from charcorr.chartab import conjugate_classfn
from charcorr.perm import compose


def bfs_closure(G, gen_ids) -> set[int]:
    """Member ids of the subgroup of G generated by the given ids."""
    gens = [G.elements[i] for i in gen_ids]
    seen = {0}
    frontier = [G.elements[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                j = G.id_of(y)
                if j not in seen:
                    seen.add(j)
                    nxt.append(y)
        frontier = nxt
    return seen


def bfs_orbit(theta, N, gen_ids) -> list[tuple]:
    """Value tuples of the conjugation orbit of theta, level by level."""
    G = N.parent
    orbit = [theta.values]
    seen = {theta.values}
    frontier = [theta]
    while frontier:
        nxt = []
        for f in frontier:
            for gid in gen_ids:
                t = conjugate_classfn(f, N, G.elements[gid])
                if t.values not in seen:
                    seen.add(t.values)
                    orbit.append(t.values)
                    nxt.append(t)
        frontier = nxt
    return orbit


def brute_stabilizer(theta, N, actors) -> frozenset[int]:
    """Ids of the actors g with theta^g = theta, each one tested."""
    G = N.parent
    return frozenset(
        gid
        for gid in actors.sorted_ids
        if conjugate_classfn(theta, N, G.elements[gid]).values == theta.values
    )
