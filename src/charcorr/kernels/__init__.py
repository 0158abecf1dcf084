"""Group kernels: the hot loops behind enumeration, classes and class matrices.

They live in ``charcorr.kernels.pure``; callers import that module directly.
``BACKEND`` names the kernel lane in benchmark reports.
"""

BACKEND = "pure"
