"""Dense exact linear algebra over prime fields F_q (small q, small matrices).

Matrices are lists of row lists of ints in [0, q).  Everything is
deterministic: pivots are chosen top-down, nullspace bases follow ascending
free columns, eigenvalues are reported ascending.
"""

from __future__ import annotations


def rref(rows, q):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c] % q), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % q:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def nullspace(M, q):
    """Basis of the right nullspace, one vector per free column, ascending.

    Returns (basis, free columns): on the free columns the basis vectors are
    the identity, so a vector of the nullspace has its coordinates there.
    """
    ncols = len(M[0])
    red, pivots = rref(M, q)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-red[i][f]) % q
        basis.append(v)
    return basis, free


def charpoly(M, q):
    """Coefficients (ascending) of det(xI - M) mod q, via Hessenberg reduction."""
    n = len(M)
    H = [[x % q for x in row] for row in M]
    for j in range(n - 2):
        sel = next((i for i in range(j + 1, n) if H[i][j]), None)
        if sel is None:
            continue
        if sel != j + 1:
            H[j + 1], H[sel] = H[sel], H[j + 1]
            for row in H:
                row[j + 1], row[sel] = row[sel], row[j + 1]
        inv = pow(H[j + 1][j], q - 2, q)
        for i in range(j + 2, n):
            if H[i][j]:
                f = (H[i][j] * inv) % q
                H[i] = [(x - f * y) % q for x, y in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + f * row[i]) % q
    # p_m(x) for the leading m x m block of the Hessenberg matrix
    polys = [[1]]
    for m in range(1, n + 1):
        d = H[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [(-d * c) % q for c in prev] + [0]
        for k, c in enumerate(prev):
            cur[k + 1] = (cur[k + 1] + c) % q
        run = 1
        for i in range(1, m):
            run = (run * H[m - i][m - i - 1]) % q
            coef = (H[m - 1 - i][m - 1] * run) % q
            if coef:
                for k, c in enumerate(polys[m - 1 - i]):
                    cur[k] = (cur[k] - coef * c) % q
        polys.append(cur)
    return polys[n]


def poly_eval(coeffs, x, q):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def eigenvalues(M, q):
    """Distinct eigenvalues in F_q, ascending (roots of the char poly)."""
    cp = charpoly(M, q)
    return [lam for lam in range(q) if poly_eval(cp, lam, q) == 0]
