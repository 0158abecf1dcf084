"""charcorr: exact character theory for small finite groups.

Permutation groups by full enumeration, exact cyclotomic arithmetic,
character tables via class-matrix eigenvectors over a prime field, and
machine verification that the star correspondence (unique linear constituent
on restriction to a self-normalizing Sylow subgroup) coincides with the
descent correspondence computed through iterated p-residual subgroups.
"""
