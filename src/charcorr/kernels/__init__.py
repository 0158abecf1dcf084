"""Group kernels: the hot loops behind enumeration, subgroup closure, classes
and class matrices.

They live in ``charcorr.kernels.pure``; callers import that module directly.
Every kernel but ``closure_bfs`` reads a ``PermGroup``'s ``elements`` and
``index``.
``BACKEND`` names the kernel lane in benchmark reports.
"""

BACKEND = "pure"
