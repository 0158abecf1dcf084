"""Exact linear algebra over a prime field F_q (small q): the eigen-split of one vector.

A matrix is given by its sparse columns, as ``kernels.pure.class_matrix``
builds them: column k lists the (j, c) with c != 0 at row j, so an image
costs one pass over the nonzero entries that the vector's support picks.
Vectors are lists of residues in [0, q).  Everything is deterministic:
components come in ascending order of eigenvalue.
"""

from __future__ import annotations

from operator import mul


def apply(columns, v, q):
    """M v mod q, for M given by its sparse columns."""
    out = [0] * len(v)
    for k, x in enumerate(v):
        if x:
            for j, c in columns[k]:
                out[j] += c * x
    return [y % q for y in out]


def roots(coeffs, q):
    """The roots in F_q, ascending, of the polynomial with these coefficients (ascending, monic)."""
    values = [1] * q  # the polynomial at every x in F_q, by Horner's rule
    for c in reversed(coeffs[:-1]):
        values = [(y * x + c) % q for x, y in enumerate(values)]
    return [x for x, y in enumerate(values) if not y]


def split(columns, u, q):
    """u's components in the eigenspaces of M, one per eigenvalue on u's support, ascending.

    The Krylov vectors u, Mu, M^2 u, ... are reduced, one elimination as
    they come, until M^k u depends on those before it: that dependency is
    u's monic minimal polynomial f, of degree k.  u lies in a sum of
    eigenspaces of M exactly when f has k distinct roots in F_q; then its
    component at the root lam is L(M) u, with L = f / ((x - lam) f'(lam))
    the Lagrange polynomial that is 1 at lam and 0 at the other roots, so
    the components sum to u.  A vector that M maps to a multiple of itself
    (k = 1) is returned as it is, with no root pass (``roots``).  Any other
    f raises ValueError: then u lies in no sum of eigenspaces.
    """
    r, krylov, rows = len(u), [], []  # rows: (pivot, reduced row with 1 there)
    v = u
    while True:
        # v followed by its coefficients over the Krylov vectors, reduced by the rows
        w = v + [0] * len(krylov) + [1]
        krylov.append(v)
        for p, row in rows:
            f = w[p]
            if f:
                w = [(x - f * y) % q for x, y in zip(w, row)] + w[len(row) :]
        p = next(filter(w.__getitem__, range(r)), None)
        if p is None:  # sum_s coeffs[s] M^s u = 0: coeffs is f, ascending
            coeffs = w[r:]
            break
        inv = pow(w[p], q - 2, q)
        rows.append((p, [x * inv % q for x in w]))
        v = apply(columns, v, q)
    k = len(coeffs) - 1
    if k == 1:
        return [u]
    lams = roots(coeffs, q)
    if len(lams) != k:
        raise ValueError(f"minimal polynomial of degree {k} has {len(lams)} distinct roots mod {q}")
    columns_of_krylov = list(zip(*krylov[:k]))
    parts = []
    for lam in lams:
        quotient = [1]  # f / (x - lam) by synthetic division, top coefficient first
        for c in reversed(coeffs[1:-1]):
            quotient.append((c + lam * quotient[-1]) % q)
        at = 0  # the quotient at lam, which is f'(lam), by Horner's rule
        for c in quotient:
            at = (at * lam + c) % q
        scale = pow(at, q - 2, q)
        lagrange = [c * scale % q for c in reversed(quotient)]
        parts.append([sum(map(mul, lagrange, col)) % q for col in columns_of_krylov])
    return parts
