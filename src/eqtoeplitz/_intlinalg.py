"""Exact integer linear algebra for weight-lattice computations.

Smith normal form with unimodular transforms, used to solve phase
congruences t^(W_j - W_j0) = e^{i delta_j} over the torus and to
enumerate finite stabilizer subgroups; integer adjugates, used to list
weight slices and the vertices of polytopes {x >= 0, A x = b}.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

#: most r x r basis solves `basic_feasible_solutions` makes: 40-90 us each
#: for r <= 5, so at most ~2 s
MAX_BASIS_SOLVES = 20_000


class NumericFailure(RuntimeError):
    """Numerical breakdown with diagnostics (rank-deficient fits, work over
    a stated budget)."""


def int_det(M) -> int:
    """Exact determinant of a small integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    M = [list(row) for row in M]
    r, sign, prev = len(M), 1, 1
    for k in range(r - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, r) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap], sign = M[swap], M[k], -sign
        for row in M[k + 1:]:
            for j in range(k + 1, r):
                row[j] = (row[j] * M[k][k] - row[k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if r else 1


def int_adjugate(M) -> tuple[list, int]:
    """(adj, det) of a square integer matrix, adj @ M = det * I exactly,
    both negated if needed so that det >= 0."""
    r = len(M)
    adj = [[(-1) ** (i + j) * int_det([row[:i] + row[i + 1:] for t, row in enumerate(M)
                                       if t != j]) for j in range(r)] for i in range(r)]
    det = sum(M[0][j] * adj[j][0] for j in range(r)) if r else 1
    if det < 0:
        adj, det = [[-a for a in row] for row in adj], -det
    return adj, det


def pivot_minor(A) -> tuple:
    """(rows, cols) of a nonzero maximal minor of the integer matrix A; its
    size is the rank of A (0 for a zero or empty matrix)."""
    m, n = len(A), len(A[0]) if A else 0
    for r in range(min(m, n), 0, -1):
        for rows in combinations(range(m), r):
            for cols in combinations(range(n), r):
                if int_det([[A[i][j] for j in cols] for i in rows]):
                    return rows, cols
    return (), ()


def basic_feasible_solutions(A, b) -> list:
    """The vertices of {x >= 0, A x = b} for an integer (m, n) array A and
    integers b, exactly: sorted (numerators, denominator) pairs in lowest
    terms, x = numerators / denominator.

    With rows R spanning the row space of A (rank r), each vertex solves
    A_RB x_B = b_R for a column subset B with det A_RB != 0; one adjugate
    solve det * x_B = adj(A_RB) b_R per subset (by Cramer's rule), kept when
    nonnegative and consistent with every row.  An empty list means the
    polytope is empty.  Raises NumericFailure before any solve when C(n, r)
    exceeds MAX_BASIS_SOLVES.
    """
    n = np.shape(A)[1]
    A = np.asarray(A, dtype=np.int64).tolist()
    b = [int(v) for v in b]
    rows, _ = pivot_minor(A)
    r = len(rows)
    if math.comb(n, r) > MAX_BASIS_SOLVES:
        raise NumericFailure(f"vertex enumeration needs C({n}, {r}) = {math.comb(n, r)} "
                             f"basis solves, over the budget of {MAX_BASIS_SOLVES}")
    out = set()
    bR = [b[i] for i in rows]
    for B in combinations(range(n), r):
        M = [[A[i][j] for j in B] for i in rows]
        det = int_det(M)
        if not det:
            continue
        sign, det = (1 if det > 0 else -1), abs(det)
        x = [0] * n
        for t, j in enumerate(B):
            x[j] = sign * int_det([row[:t] + [v] + row[t + 1:] for row, v in zip(M, bR)])
        if min(x, default=0) < 0 or any(
                sum(a * v for a, v in zip(Ai, x)) != bi * det for Ai, bi in zip(A, b)):
            continue
        g = math.gcd(det, *x)
        out.add((tuple(v // g for v in x), det // g))
    return sorted(out)


def smith_normal_form(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (U, S, V) with U @ A @ V = S, U and V unimodular, S diagonal.

    S has nonnegative diagonal entries d_1 | d_2 | ... (divisibility chain).
    Uses exact Python-int arithmetic; intended for small matrices.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a 2-d integer matrix")
    m, n = A.shape
    S = [[int(x) for x in row] for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        S[dst] = [a + c * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in S:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the trailing block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0:
                    if piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])

        # clear row and column t by Euclidean steps
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    add_row(t, i, -q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    add_col(t, j, -q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if S[t][t] < 0:
            add_row(t, t, -2)  # negate row t (row += -2*row)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if a and b % a != 0:
                # fold entry b into position (i, i) via one mixed step
                add_col(i + 1, i, 1)
                dirty = True
                while dirty:
                    dirty = False
                    q = S[i + 1][i] // S[i][i]
                    add_row(i, i + 1, -q)
                    if S[i + 1][i] != 0:
                        swap_rows(i, i + 1)
                        dirty = True
                q = S[i][i + 1] // S[i][i]
                add_col(i, i + 1, -q)
                if S[i][i] < 0:
                    add_row(i, i, -2)
                if S[i + 1][i + 1] < 0:
                    add_row(i + 1, i + 1, -2)
                changed = True

    to_arr = lambda M: np.array(M, dtype=object)
    return to_arr(U), to_arr(S), to_arr(V)


def solve_phase_congruence(D: np.ndarray, delta: np.ndarray, tol: float = 1e-9):
    """Solve D @ theta = delta (mod 2*pi) for theta in R^g.

    D is an integer (m, g) matrix, delta a real m-vector.  Returns
    (theta, info) where theta is one particular solution, or (None, info)
    when the congruence has no solution.  With U @ D @ V = S the Smith form,
    obstruction row i (i >= rank) is solvable when (U @ delta)_i lies within
    tol of 2*pi*Z beyond its own rounding, 8 eps (|U_i| @ (|delta| + 2*pi)),
    which grows with the entries of U.  info carries the raw residual of the
    obstruction rows and the homogeneous solution structure:

    - info["rank"]: rank of D
    - info["free_rank"]: g - rank (continuous solution directions)
    - info["torsion"]: invariant factors d_1..d_r
    - info["residual"]: max distance of obstruction rows from 2*pi*Z
    """
    D = np.asarray(D, dtype=np.int64)
    delta = np.asarray(delta, dtype=float)
    m, g = D.shape
    U, S, V = smith_normal_form(D)
    diag = [int(S[i][i]) for i in range(min(m, g))]
    rank = sum(1 for d in diag if d != 0)
    Uf = np.array([[float(x) for x in row] for row in U]).reshape(m, m)
    Vf = np.array([[float(x) for x in row] for row in V]).reshape(g, g)
    rhs = (Uf @ delta).reshape(m)

    two_pi = 2.0 * np.pi
    frac = np.abs(rhs[rank:]) % two_pi
    miss = np.minimum(frac, two_pi - frac)
    rounding = 8.0 * np.finfo(float).eps * (np.abs(Uf[rank:]) @ (np.abs(delta) + two_pi))
    info = {
        "rank": rank,
        "free_rank": g - rank,
        "torsion": [d for d in diag[:rank]],
        "residual": float(np.max(miss, initial=0.0)),
    }
    if np.any(miss > tol + rounding):
        return None, info
    psi = np.zeros(g)
    for i in range(rank):
        psi[i] = rhs[i] / diag[i]
    theta = (Vf @ psi).reshape(g)
    return theta, info


def homogeneous_torsion_angles(D: np.ndarray, max_order: int = 4096) -> np.ndarray:
    """All theta in [0, 2*pi)^g with D @ theta = 0 (mod 2*pi), modulo the
    continuous part.

    Returns an (order, g) array enumerating the finite subgroup
    {theta : D theta in 2*pi Z^m} / (continuous directions).  Raises if the
    subgroup is larger than max_order.
    """
    D = np.asarray(D, dtype=np.int64)
    m, g = D.shape
    if m == 0 or g == 0:
        return np.zeros((1, g))
    _, S, V = smith_normal_form(D)
    diag = [int(S[i][i]) for i in range(min(m, g))]
    rank = sum(1 for d in diag if d != 0)
    Vf = np.array([[float(x) for x in row] for row in V])
    order = 1
    for d in diag[:rank]:
        order *= d
    if order > max_order:
        raise ValueError(f"stabilizer order {order} exceeds cap {max_order}")
    coeffs = np.array(list(product(*(range(d) for d in diag[:rank]))), dtype=np.int64)
    psi = np.zeros((coeffs.shape[0], g))
    psi[:, :rank] = 2.0 * np.pi * coeffs / diag[:rank]
    return psi @ Vf.T
