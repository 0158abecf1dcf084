"""The eigen-split of one vector over F_q against brute-force diagonalizations."""

import random

import pytest

from charcorr.fq import apply, roots, split


def columns_of(M, q):
    """The sparse columns of a dense matrix, as ``split`` takes them."""
    n = len(M)
    return [[(j, M[j][k] % q) for j in range(n) if M[j][k] % q] for k in range(n)]


def matmul(A, B, q):
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*B)] for row in A]


def inverse(S, q):
    """S^-1 mod q by Gauss-Jordan elimination; None if S is singular."""
    n = len(S)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(S)]
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c] % q), None)
        if sel is None:
            return None
        rows[c], rows[sel] = rows[sel], rows[c]
        inv = pow(rows[c][c], q - 2, q)
        rows[c] = [x * inv % q for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def random_diagonalizable(rng, n, q):
    """(S, D, S D S^-1) with eigenvalues drawn from a few values, so some repeat."""
    while True:
        S = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        S_inv = inverse(S, q)
        if S_inv is not None:
            break
    pool = rng.sample(range(q), min(q, 3))
    D = [rng.choice(pool) for _ in range(n)]
    M = matmul([[s * d % q for s, d in zip(row, D)] for row in S], S_inv, q)
    return S, S_inv, D, M


def brute_components(S, S_inv, D, u, q):
    """u = sum_a y_a s_a with y = S^-1 u; its part at lam sums the y_a s_a with D_a = lam."""
    n = len(u)
    y = [sum(a * b for a, b in zip(row, u)) % q for row in S_inv]
    parts = {}
    for a in range(n):
        if y[a]:
            part = parts.setdefault(D[a], [0] * n)
            for j in range(n):
                part[j] = (part[j] + y[a] * S[j][a]) % q
    return [parts[lam] for lam in sorted(parts) if any(parts[lam])]


@pytest.mark.parametrize("q", [5, 13, 37])
def test_split_against_brute_force(q):
    rng = random.Random(q)
    for n in range(1, 8):
        for _ in range(12):
            S, S_inv, D, M = random_diagonalizable(rng, n, q)
            columns = columns_of(M, q)
            u = [rng.randrange(q) for _ in range(n)]
            if rng.random() < 0.3:  # u on fewer eigenspaces: some coordinates y_a are 0
                y = [rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(n)]
                u = [sum(S[j][a] * y[a] for a in range(n)) % q for j in range(n)]
            parts = split(columns, u, q)
            assert parts == brute_components(S, S_inv, D, u, q), (q, M, u)
            assert [sum(col) % q for col in zip(*parts)] == (u if parts else [])
            for part in parts:
                image = apply(columns, part, q)
                p = next(j for j, x in enumerate(part) if x)
                lam = image[p] * pow(part[p], q - 2, q) % q
                assert image == [lam * x % q for x in part]


def test_split_returns_an_eigenvector_as_it_is():
    q = 13
    columns = columns_of([[2, 0], [0, 5]], q)
    assert split(columns, [0, 7], q) == [[0, 7]]
    assert split(columns, [3, 1], q) == [[3, 0], [0, 1]]  # eigenvalues 2 < 5


def test_split_refuses_a_vector_in_no_sum_of_eigenspaces():
    q = 13
    jordan = columns_of([[4, 1], [0, 4]], q)
    assert split(jordan, [1, 0], q) == [[1, 0]]  # the one eigenvector of the block
    with pytest.raises(ValueError, match="degree 2 has 1 distinct roots mod 13"):
        split(jordan, [0, 1], q)
    # x^2 + 2 has no root mod 13 (-2 is not a square): the companion matrix has no eigenvector
    companion = columns_of([[0, -2], [1, 0]], q)
    with pytest.raises(ValueError, match="degree 2 has 0 distinct roots mod 13"):
        split(companion, [1, 0], q)


def test_roots_are_the_zeros_ascending():
    assert roots([5, 7, 1], 13) == [1, 5]  # (x - 1)(x - 5) = x^2 - 6x + 5
    assert roots([1, 0, 1], 13) == [5, 8]  # x^2 + 1
    assert roots([1, 0, 1], 7) == []
