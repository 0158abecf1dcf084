"""Reference for the order of a permutation, walked on its images.

The package reads element orders off its power map (``ConjClasses.orders``)
and has no order function of its own; the tests that pick elements by order
use this one.
"""

from math import lcm


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
