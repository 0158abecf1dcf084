"""Permutations of {0, ..., degree-1}: ``bytes`` up to degree 256, tuples above.

``p[x]`` is the int image of point ``x``.  Products compose left to right:
``(a * b)`` acts as "apply a, then b", so conjugation is ``h ** g = g^-1 h g``.
The degree picks the representation, as GAP picks 2- or 4-byte images.  A
bytes product is one ``a.translate(table(b))``, with ``b`` padded to 256
bytes; a tuple product is ``itemgetter(*a)(b)``.  Loops that multiply by a
fixed right factor take its ``table`` once and call ``product(degree)``.
Equal-length bytes sort like tuples of their ints.
"""

from __future__ import annotations

from operator import itemgetter

Perm = bytes | tuple[int, ...]

BYTES_DEGREE = 256
_POINTS = bytes(range(BYTES_DEGREE))


def make(images) -> Perm:
    """The permutation with these images (an int sequence), in its degree's representation."""
    return bytes(images) if len(images) <= BYTES_DEGREE else tuple(images)


def identity(degree: int) -> Perm:
    return make(range(degree))


def is_perm(images) -> bool:
    """True if the image sequence is a bijection on {0..len-1}."""
    n = len(images)
    seen = [False] * n
    for x in images:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            return False
        seen[x] = True
    return True


def table(b: Perm) -> Perm:
    """Right-factor table of b: ``product(len(b))(a, table(b))`` is a*b."""
    return b + _POINTS[len(b) :] if type(b) is bytes else b


def compose(a: Perm, b: Perm) -> Perm:
    """Product a*b: apply a first, then b."""
    if type(a) is bytes:
        return a.translate(b + _POINTS[len(b) :])
    return itemgetter(*a)(b)  # a has more than 256 points, so this is a tuple


def product(degree: int):
    """The product on right-factor tables for permutations of this degree."""
    return bytes.translate if degree <= BYTES_DEGREE else compose


def inverse(a: Perm) -> Perm:
    n = len(a)
    if type(a) is bytes:
        return bytes.maketrans(a, _POINTS[:n])[:n]  # maps a[i] to i
    inv = [0] * n
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def cycles(a: Perm) -> list[list[int]]:
    """Disjoint cycles of length > 1, each starting at its least point."""
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
        if len(cyc) > 1:
            out.append(cyc)
    return out


def cycle_string(a: Perm) -> str:
    """Render as a product of cycles, e.g. ``(0 1 2)(3 4)``; identity is ``()``."""
    cs = cycles(a)
    if not cs:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cs)
