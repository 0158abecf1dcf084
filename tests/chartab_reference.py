"""Straightforward reference version of the character inner product.

``inner_product`` is the Cyc loop that the packed-integer pairing engine in
``charcorr.chartab`` replaced: it sums |C_i| a(g_i) conj(b(g_i)) in exact
cyclotomic arithmetic and divides by |G|, for any class functions, not only
those with algebraic-integer values.
"""

from fractions import Fraction

from charcorr.cyclotomic import Cyc
from charcorr.groups import check_same_group, conjugacy_classes


def inner_product(a, b) -> Cyc:
    """(1/|G|) sum over classes of size * a * conj(b); exact."""
    check_same_group("inner_product", a.group, b.group)
    cls = conjugacy_classes(a.group)
    acc = Cyc.zero()
    for s, x, y in zip(cls.sizes, a.values, b.values):
        acc = acc + s * (x * y.conj())
    return Fraction(1, a.group.order) * acc
