"""Integral LLL reduction with exact Gram determinants.

:func:`lll` is the fraction-free LLL of Cohen, *A Course in Computational
Algebraic Number Theory* (1993), Algorithm 2.6.7, after Lenstra, Lenstra
and Lovasz (*Math. Ann.* 261, 1982), with delta = 3/4. It works on Python
ints only: the Gram-Schmidt data are kept as the integers
D_j = det(Gram(b_1..b_j)) and lambda_{k,j} = D_j mu_{k,j}, every division
in it is exact, and |b*_j|^2 = D_j / D_{j-1}. So a
claim about the Gram-Schmidt norms of the reduced basis, such as the gap
that :func:`gap_rank` reads off, is decided exactly.
"""

from __future__ import annotations


def lll(rows) -> tuple[list[list[int]], list[int]]:
    """LLL-reduce linearly independent integer rows (delta = 3/4).

    Returns the reduced rows, a basis of the same lattice, and the Gram
    determinants [D_0, D_1, ..., D_n] of their prefixes, D_0 = 1. The
    reduced rows are size-reduced (|mu_{k,j}| <= 1/2) and satisfy the
    Lovasz condition |b*_k|^2 >= (3/4 - mu_{k,k-1}^2) |b*_{k-1}|^2, both
    in exact integers: 2 |lambda_{k,j}| <= D_{j+1} and
    4 D_{k+1} D_{k-1} >= 3 D_k^2 - 4 lambda_{k,k-1}^2 (0-based k).
    Dependent rows raise ValueError.
    """
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    # D[j + 1] = det Gram(b_0..b_j); lam[k][j] = D[j + 1] mu_{k,j} for j < k
    D = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, j):
        """Size-reduce b_k against b_j: subtract the nearest integer to
        mu_{k,j} times b_j."""
        q = (2 * lam[k][j] + D[j + 1]) // (2 * D[j + 1])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            row, pivot = lam[k], lam[j]
            row[j] -= q * D[j + 1]
            for i in range(j):
                row[i] -= q * pivot[i]

    known, k = -1, 0  # the Gram-Schmidt data of rows 0..known are known
    while k < n:
        if k > known:
            known = k
            row = lam[k]
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (D[i + 1] * u - row[i] * lam[j][i]) // D[i]
                if j < k:
                    row[j] = u
                elif u == 0:
                    raise ValueError("lll needs linearly independent rows")
                else:
                    D[k + 1] = u
        if k == 0:
            k = 1
            continue
        reduce(k, k - 1)
        mu = lam[k][k - 1]
        if 4 * D[k + 1] * D[k - 1] < 3 * D[k] * D[k] - 4 * mu * mu:
            # swap b_{k-1} and b_k, and update their Gram-Schmidt data
            b[k - 1], b[k] = b[k], b[k - 1]
            lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
            new = (D[k - 1] * D[k + 1] + mu * mu) // D[k]
            for row in lam[k + 1 : known + 1]:
                t = row[k]
                row[k] = (D[k + 1] * row[k - 1] - mu * t) // D[k]
                row[k - 1] = (new * t + mu * row[k]) // D[k + 1]
            D[k] = new
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return b, D


def gap_rank(D, radius2: int) -> int:
    """The least k with |b*_j|^2 > radius2, that is D_j > radius2 D_{j-1},
    for every j > k, from the Gram determinants of :func:`lll`.

    A lattice vector v = sum_j c_j b_j whose last nonzero c_j has index
    j > k has |v| >= |c_j| |b*_j| > sqrt(radius2), so every lattice
    vector of squared norm at most radius2 lies in the integer span of
    b_1..b_k."""
    k = len(D) - 1
    while k and D[k] > radius2 * D[k - 1]:
        k -= 1
    return k
