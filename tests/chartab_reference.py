"""Straightforward reference version of the character inner product.

``inner_product`` is the Cyc loop that the packed-integer pairing engine in
``charcorr.chartab`` replaced: it sums |C_i| a(g_i) conj(b(g_i)) in exact
cyclotomic arithmetic, which gives |G| <a, b>, and divides that rational
integer by |G| outside ``Cyc``.  ``inner_product_int`` is the integer
inner product of two virtual characters read off the engine itself, which no
command needs on its own.
"""

from fractions import Fraction

from charcorr.chartab import _multiplicity, _pairings
from charcorr.cyclotomic import Cyc
from charcorr.groups import check_same_group, conjugacy_classes
from cyclotomic_reference import conj


def inner_product(a, b) -> Fraction:
    """(1/|G|) sum over classes of size * a * conj(b); exact, and it must be rational."""
    check_same_group("inner_product", a.group, b.group)
    cls = conjugacy_classes(a.group)
    acc = Cyc.zero()
    for s, x, y in zip(cls.sizes, a.values, b.values):
        acc = acc + s * (x * conj(y))
    if acc.n != 1:
        raise ValueError(f"|G| <a, b> = {acc!r} is not rational")
    return Fraction(acc.coeffs[0], a.group.order)


def inner_product_int(a, b) -> int:
    """<a, b> for virtual characters: entry (0, 1) of the pairings of [a, b] with themselves.

    NotACharacterError unless every pairing is rational and this one an integer.
    """
    pairings, _ = _pairings([a, b])
    return _multiplicity(pairings[0][1], a.group.order, "inner product")
