"""Prime-field linear algebra against brute-force polynomial oracles."""

import random

from charcorr.fq import charpoly, eigenvalues, nullspace, poly_eval, rref


def matvec(M, v, q):
    return [sum(a * b for a, b in zip(row, v)) % q for row in M]


def brute_charpoly(M, q):
    """det(xI - M) by cofactor expansion over integer polynomial lists."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = [0]
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = poly_mul(rows[0][j], det(minor))
            if j % 2:
                term = [-c for c in term]
            acc = poly_add(acc, term)
        return acc

    n = len(M)
    rows = [
        [([-M[i][j] % q, 1] if i == j else [-M[i][j] % q]) for j in range(n)]
        for i in range(n)
    ]
    out = det(rows)
    out += [0] * (n + 1 - len(out))
    return [c % q for c in out]


def test_charpoly_against_brute_force():
    rng = random.Random(7)
    for q in (5, 13, 43):
        for n in (1, 2, 3, 4, 5):
            for _ in range(8):
                M = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                assert charpoly(M, q) == brute_charpoly(M, q), (q, M)


def test_eigenvalues_of_known_matrices():
    assert eigenvalues([[3, 0], [0, 5]], 13) == [3, 5]
    # companion matrix of x^2+1 over F_13: roots +-5
    assert eigenvalues([[0, 12], [1, 0]], 13) == [5, 8]
    # no roots in F_7 for x^2+1
    assert eigenvalues([[0, 6], [1, 0]], 7) == []


def test_nullspace_and_rank():
    q = 13
    M = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    ns, free = nullspace(M, q)
    assert len(ns) == 1
    for v in ns:
        assert matvec(M, v, q) == [0, 0, 0]
    assert [[v[f] for f in free] for v in ns] == [[1]]
    red, pivots = rref(M, q)
    assert len(pivots) + len(ns) == 3
    for i, c in enumerate(pivots):
        assert red[i][c] == 1


def test_poly_eval():
    assert poly_eval([1, 0, 1], 5, 13) == (1 + 25) % 13
