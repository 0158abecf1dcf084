"""Predicted character table of a direct product, from its factors' tables.

Irr(A x B) = {chi x psi : chi in Irr(A), psi in Irr(B)}, with
(chi x psi)(a, b) = chi(a) psi(b) (Isaacs, *Character Theory of Finite
Groups*, Thm 4.21).  ``instances.direct_product_record`` puts each factor on
its own block of points, so an element of the product restricts to one
element of each factor on that factor's block, and a conjugacy class of the
product is the product of the factor classes of those restrictions.  Rows
are keyed by those tuples of factor classes, so the comparison does not
depend on how the engine orders the classes or the rows of any table.
"""

from collections import Counter
from itertools import product

from charcorr import perm as pm
from charcorr.chartab import character_table
from charcorr.groups import conjugacy_classes


def factor_classes(G, factors) -> list[tuple[int, ...]]:
    """Per class of G, the class in each factor of its representative's block restriction."""
    classes = conjugacy_classes(G)
    keys = []
    for i in range(classes.count):
        rep, offset, key = classes.rep(i), 0, []
        for F in factors:
            block = [x - offset for x in rep[offset : offset + F.degree]]
            key.append(conjugacy_classes(F).class_of_perm(pm.make(block)))
            offset += F.degree
        keys.append(tuple(key))
    return keys


def keyed_rows(table, keys) -> Counter:
    """The table's rows, each as its values in ascending order of class key."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return Counter(tuple(row.values[i] for i in order) for row in table.rows)


def predicted_rows(factors) -> Counter:
    """Every product chi_1(a_1) ... chi_k(a_k) of factor rows, ordered like ``keyed_rows``.

    ``itertools.product`` of the factors' class ranges walks the keys in
    ascending order.
    """
    tables = [character_table(F) for F in factors]
    keys = list(product(*(range(t.count) for t in tables)))
    rows = Counter()
    for chis in product(*(t.rows for t in tables)):
        values = []
        for key in keys:
            value = chis[0].values[key[0]]
            for chi, c in zip(chis[1:], key[1:]):
                value = value * chi.values[c]
            values.append(value)
        rows[tuple(values)] += 1
    return rows
