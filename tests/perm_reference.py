"""References for permutation arithmetic the package does not carry.

The package reads element orders off its power map (``ConjClasses.orders``)
and has no order function of its own; the tests that pick elements by order
use ``reference_order``.  The package conjugates on ids (``PermGroup.conj``)
or through a class set's ``action_of``; ``conjugate`` is the permutation
form that the tests use to build conjugate subgroups and brute-force
normality.
"""

from math import lcm

from charcorr import perm as pm


def conjugate(h, g):
    """g^-1 * h * g, products applying the left factor first."""
    return pm.compose(pm.compose(pm.inverse(g), h), g)


def reference_order(a):
    """lcm of the cycle lengths, walked on a plain list."""
    seen, lengths = set(), [1]
    for start in range(len(a)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = a[x]
            length += 1
        lengths.append(length or 1)
    return lcm(*lengths)
