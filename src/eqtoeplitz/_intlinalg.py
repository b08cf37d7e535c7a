"""Exact integer linear algebra for weight-lattice computations.

Smith normal form with small unimodular transforms.  It gives the lattice
of a weight slice (`geometry._slice_plan`), and `solve_phase_congruence`
solves phase congruences t^(W_j - W_j0) = e^{i delta_j} over the torus
with it, one Smith form per support pattern: the solution is a fixed
component's g_m, and the info it returns holds the finite stabilizer
coset g_m is defined up to (`torsion_angles`; delta = 0 gives the
stabilizer alone).  Fraction-free elimination gives the vertices of
polytopes {x >= 0, A x = b}.

The exception types the CLI maps to exit codes 2, 3 and 4 are defined here,
the one module every subcommand loads.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

#: most r x r basis solves `basic_feasible_solutions` makes: 40-90 us each
#: for r <= 5, so at most ~2 s
MAX_BASIS_SOLVES = 20_000


class NumericFailure(RuntimeError):
    """Numerical breakdown with diagnostics (rank-deficient fits, work over
    a stated budget)."""


class ProbeDomainError(ValueError):
    """A kernel probe's points or displacements violate its precondition."""


class ReductionHypothesisError(RuntimeError):
    """Raised when 0 fails to be a regular value or the action is not free
    modulo a constant finite stabilizer; carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateSymmetryError(NumericFailure):
    """The normal return map has an eigenvalue 1: the determinant factor
    vanishes and the leading-term formula does not apply."""


def _row_reduce(M) -> tuple:
    """(pivots, R): the pivot columns of the row echelon form of the integer
    matrix M (a list of rows), the lex-first set of independent columns, and
    its reduced rows R, where row i < len(pivots) is zero in every pivot
    column but pivots[i].  M holds Python ints, which the callers convert
    once.  Fraction-free Gauss-Jordan elimination, each row reduced by its
    gcd, keeps every step exact."""
    M, pivots = [list(row) for row in M], []
    for j in range(len(M[0]) if M else 0):
        t = len(pivots)
        i = next((i for i in range(t, len(M)) if M[i][j]), None)
        if i is None:
            continue
        M[t], M[i] = M[i], M[t]
        for row in M[:t] + M[t + 1:]:
            if row[j]:
                row[:] = [a * M[t][j] - row[j] * b for a, b in zip(row, M[t])]
                g = math.gcd(*row)
                if g > 1:
                    row[:] = [a // g for a in row]
        pivots.append(j)
    return pivots, M


def basic_feasible_solutions(A, b) -> list:
    """The vertices of {x >= 0, A x = b} for an integer (m, n) array A and
    integers b, exactly: sorted (numerators, denominator) pairs in lowest
    terms, x = numerators / denominator.

    With rows R spanning the row space of A (rank r), the pivot columns of
    one elimination of A^T (`_row_reduce`), each vertex solves
    A_RB x_B = b_R for a column subset B with det A_RB != 0; one
    fraction-free Gauss-Jordan elimination of [A_RB | b_R] per subset
    (`_row_reduce`) leaves row i as c_i x_{B_i} = e_i, and x is kept when
    nonnegative and consistent with every row.  An empty list means the
    polytope is empty.  Raises NumericFailure before any solve when C(n, r)
    exceeds MAX_BASIS_SOLVES.
    """
    n = np.shape(A)[1]
    A = np.asarray(A, dtype=np.int64).tolist()
    b = [int(v) for v in b]
    rows = _row_reduce(list(zip(*A)))[0]
    r = len(rows)
    if math.comb(n, r) > MAX_BASIS_SOLVES:
        raise NumericFailure(f"vertex enumeration needs C({n}, {r}) = {math.comb(n, r)} "
                             f"basis solves, over the budget of {MAX_BASIS_SOLVES}")
    out = set()
    for B in combinations(range(n), r):
        pivots, R = _row_reduce([[A[i][j] for j in B] + [b[i]] for i in rows])
        if pivots[:r] != list(range(r)):
            continue
        den = math.lcm(*(abs(R[i][i]) for i in range(r)))
        x = [0] * n
        for i, j in enumerate(B):
            x[j] = R[i][r] * (den // R[i][i])
        if min(x, default=0) < 0 or any(
                sum(a * v for a, v in zip(Ai, x)) != bi * den for Ai, bi in zip(A, b)):
            continue
        g = math.gcd(den, *x)
        out.add((tuple(v // g for v in x), den // g))
    return sorted(out)


def smith_normal_form(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (U, S, V) with U @ A @ V = S, U and V unimodular, S diagonal.

    S has nonnegative diagonal entries d_1 | d_2 | ... (divisibility chain).
    The pivot is the entry of least modulus; its row and column are reduced
    against it by nearest-integer quotients, and the least remainder becomes
    the next pivot.  Reducing every row against one small pivot keeps the
    entries of U small: hundreds to thousands for 12 x 2 weight differences
    in [-60, 60], where chaining Euclid steps from row to row grows them past
    1e30 and the rounding of U @ delta past any phase tolerance.  Exact
    Python-int arithmetic; intended for small matrices.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("expected a 2-d integer matrix")
    m, n = A.shape
    # rows of [S | U] share every row operation, rows of V every column one
    R = [[int(x) for x in row] + [int(i == j) for j in range(m)]
         for i, row in enumerate(A.tolist())]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    all_rows = R + V

    def swap_rows(i, j):
        R[i], R[j] = R[j], R[i]

    def swap_cols(i, j):
        for row in all_rows:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src], in place
        R[dst][:] = [a + c * b for a, b in zip(R[dst], R[src])]

    def add_col(src, dst, c):
        for row in all_rows:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        block = [(abs(R[i][j]), i, j) for i in range(t, m) for j in range(t, n) if R[i][j]]
        if not block:
            break
        _, i, j = min(block)
        while True:
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            p = R[t][t]
            for i in range(t + 1, m):
                if R[i][t]:
                    add_row(t, i, -((2 * R[i][t] + p) // (2 * p)))
            for j in range(t + 1, n):
                if R[t][j]:
                    add_col(t, j, -((2 * R[t][j] + p) // (2 * p)))
            rest = ([(abs(R[i][t]), i, t) for i in range(t + 1, m) if R[i][t]]
                    + [(abs(R[t][j]), t, j) for j in range(t + 1, n) if R[t][j]])
            if not rest:
                # d_t must divide the trailing block: add a row holding a
                # non-multiple to row t, whose remainder is a smaller pivot
                bad = [i for i in range(t + 1, m) if abs(p) > 1
                       and any(R[i][j] % p for j in range(t + 1, n))]
                if not bad:
                    break
                add_row(bad[0], t, 1)
                i, j = t, t
                continue
            _, i, j = min(rest)
        if R[t][t] < 0:
            add_row(t, t, -2)  # negate row t (row += -2*row)
        t += 1

    to_arr = lambda M: np.array(M, dtype=object)
    return to_arr([row[n:] for row in R]), to_arr([row[:n] for row in R]), to_arr(V)


def solve_phase_congruence(D: np.ndarray, delta: np.ndarray, tol: float = 1e-9):
    """Solve D @ theta = delta (mod 2*pi) for theta in R^g.

    D is an integer (m, g) matrix, delta a real m-vector; delta = 0 is the
    homogeneous problem whose solutions are the stabilizer.  This is the one
    place that puts D in Smith form U @ D @ V = S, and info carries
    everything read off it, so no caller needs a second one:

    - info["rank"]: rank r of D
    - info["free_rank"]: g - r (continuous solution directions)
    - info["torsion"]: invariant factors d_1..d_r
    - info["V"]: the column transform, as a float (g, g) array
    - info["residual"]: max distance of obstruction rows from 2*pi*Z

    Returns (theta, info) where theta is one particular solution, reduced
    to [-pi, pi]^g, or (None, info) when the congruence has no solution; a
    theta that misses a congruence by more than tol is refined once.
    Obstruction row i (i >= r) is solvable when (U @ delta)_i lies within
    tol of 2*pi*Z beyond its own rounding, 8 eps (|U_i| @ (|delta| + 2*pi)),
    which grows with the entries of U.  All solutions are theta plus
    `torsion_angles(info)` plus the continuous directions.
    """
    D = np.asarray(D, dtype=np.int64)
    delta = np.asarray(delta, dtype=float)
    m, g = D.shape
    U, S, V = smith_normal_form(D)
    diag = [int(S[i][i]) for i in range(min(m, g))]
    rank = sum(1 for d in diag if d != 0)
    Uf = np.array(U, dtype=float).reshape(m, m)
    Vf = np.array(V, dtype=float).reshape(g, g)

    rhs = Uf @ delta

    two_pi = 2.0 * np.pi
    frac = np.abs(rhs[rank:]) % two_pi
    miss = np.minimum(frac, two_pi - frac)
    rounding = 8.0 * np.finfo(float).eps * (np.abs(Uf[rank:]) @ (np.abs(delta) + two_pi))
    info = {
        "rank": rank,
        "free_rank": g - rank,
        "torsion": diag[:rank],
        "V": Vf,
        "residual": float(np.max(miss, initial=0.0)),
    }
    if np.any(miss > tol + rounding):
        return None, info
    psi = np.zeros(g)
    psi[:rank] = rhs[:rank] / diag[:rank]
    theta = Vf @ psi
    theta -= two_pi * np.rint(theta / two_pi)
    # V S^-1 U delta cancels between large entries of V and U, and U spreads
    # the rounding of delta over the rows; where that leaves a residual
    # above tol, one least-squares step on it (mod 2 pi) removes both
    res = D @ theta - delta
    res -= two_pi * np.rint(res / two_pi)
    if np.any(np.abs(res) > tol):
        theta -= np.linalg.lstsq(D.astype(float), res, rcond=None)[0]
    return theta, info


def torsion_angles(info: dict, max_order: int = 4096) -> np.ndarray:
    """All theta in [0, 2*pi)^g with D @ theta = 0 (mod 2*pi), modulo the
    continuous part, for the info of a `solve_phase_congruence` on D.

    Returns an (order, g) array enumerating the finite subgroup
    {theta : D theta in 2*pi Z^m} / (continuous directions); NumericFailure
    when the subgroup is larger than max_order.
    """
    torsion, V = info["torsion"], info["V"]
    order = math.prod(torsion)
    if order > max_order:
        raise NumericFailure(f"stabilizer order {order} is over the budget of {max_order}")
    coeffs = np.indices(torsion, dtype=np.int64).reshape(len(torsion), order).T
    psi = np.zeros((coeffs.shape[0], V.shape[0]))
    psi[:, :len(torsion)] = 2.0 * np.pi * coeffs / torsion
    return psi @ V.T
