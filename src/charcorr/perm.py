"""Permutations of {0, ..., degree-1} as immutable image tuples.

A permutation is a tuple ``p`` with ``p[x]`` the image of point ``x``.
Products compose left to right: ``(a * b)`` acts as "apply a, then b",
so conjugation is ``h ** g = g^-1 h g``.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(images) -> bool:
    """True if the image sequence is a bijection on {0..len-1}."""
    n = len(images)
    seen = [False] * n
    for x in images:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            return False
        seen[x] = True
    return True


def compose(a: Perm, b: Perm) -> Perm:
    """Product a*b: apply a first, then b."""
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple(b[x] for x in a)  # itemgetter of one index returns the bare item


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def conjugate(h: Perm, g: Perm) -> Perm:
    """g^-1 * h * g."""
    return compose(compose(inverse(g), h), g)


def cycles(a: Perm, include_fixed: bool = False) -> list[list[int]]:
    """Disjoint cycle decomposition, each cycle starting at its least point."""
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = a[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = a[x]
        if len(cyc) > 1 or include_fixed:
            out.append(cyc)
    return out


def order(a: Perm) -> int:
    """Multiplicative order (lcm of cycle lengths)."""
    return lcm(*(len(c) for c in cycles(a, include_fixed=True)))


def cycle_string(a: Perm) -> str:
    """Render as a product of cycles, e.g. ``(0 1 2)(3 4)``; identity is ``()``."""
    cs = cycles(a)
    if not cs:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cs)
