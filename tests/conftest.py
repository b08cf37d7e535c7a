import math
from itertools import combinations

import numpy as np
import pytest

from eqtoeplitz._intlinalg import pivot_minor
from eqtoeplitz.geometry import ProjectiveModel, section_basis
from eqtoeplitz.symmetry import TorusAction, weight_of


@pytest.fixture(scope="session")
def p1():
    return ProjectiveModel(1)


@pytest.fixture(scope="session")
def p2():
    return ProjectiveModel(2)


@pytest.fixture(scope="session")
def trivial_g1():
    return TorusAction(np.zeros((0, 2), dtype=np.int64))


@pytest.fixture(scope="session")
def trivial_g2():
    return TorusAction(np.zeros((0, 3), dtype=np.int64))


@pytest.fixture(scope="session")
def circle_p1():
    return TorusAction([[1, -1]])


@pytest.fixture(scope="session")
def circle_p2():
    return TorusAction([[1, -1, -1]])


def plain_sphere(n, d, rng):
    """Independent sampling oracle: plain-RNG uniform sphere points, kept
    deliberately separate from the package's quasi-random sampler."""
    z = rng.standard_normal((n, d + 1)) + 1j * rng.standard_normal((n, d + 1))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def read_csv(path):
    """(header, rows) of a CSV written by `iotools.write_csv`, cells as text."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def sup_bound(f):
    """Cheap upper bound for max |f| on the base: the u-term coefficients'
    moduli plus the spectral norm of the h-term."""
    out = sum(abs(c) for c in f.u_terms.values())
    if f.h_term is not None:
        out += float(np.linalg.norm(f.h_term, ord=2))
    return out


def monomial_matrix(points, indices, log_norms=None):
    """z^alpha at each point by direct powers, (n_points, n_indices); with
    log_norms, the orthonormalized values z^alpha / sqrt(N(alpha))."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    A = np.asarray(indices, dtype=np.int64)
    vals = np.prod(pts[:, None, :] ** A[None, :, :], axis=2)
    return vals if log_norms is None else vals * np.exp(-0.5 * np.asarray(log_norms))


def filtered_isotype(k, varpi, action, model):
    """Oracle for `symmetry.isotype_basis`, which walks the weight slice:
    the full level-k basis (the trivial group's slice) filtered by weight,
    as (indices, log_norms)."""
    basis = section_basis(k, model)
    keep = np.all(weight_of(basis.indices, action) == np.reshape(varpi, (1, action.g)), axis=1)
    return basis.indices[keep], basis.log_norms[keep]


def multi_indices_by_level(k, n_vars):
    """Independent oracle for the full basis `geometry.section_basis(k,
    model)`, n_vars = d+1: the tables of every degree 0..k are extended one
    variable at a time, each row of a table of degree j stacked under its
    leading coordinate j, j-1, .., 0, so the rows are lex-descending."""
    table = [np.array([[j]], dtype=np.int64) for j in range(k + 1)]

    def extend(tab, j):
        heads = np.repeat(np.arange(j, -1, -1, dtype=np.int64),
                          [tab[j - a].shape[0] for a in range(j, -1, -1)])
        tails = np.vstack([tab[j - a] for a in range(j, -1, -1)])
        return np.hstack([heads[:, None], tails])

    for _ in range(n_vars - 2):
        table = [extend(table, j) for j in range(k + 1)]
    return table[k] if n_vars == 1 else extend(table, k)


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


def cramer_vertices(A, b) -> list:
    """Oracle for `_intlinalg.basic_feasible_solutions`: every r-column basis
    B of the rows R of `pivot_minor` solved by Cramer's rule, r + 1
    determinants each, kept when nonnegative and consistent with every row;
    sorted (numerators, denominator) pairs in lowest terms."""
    n = np.shape(A)[1]
    A = np.asarray(A, dtype=np.int64).tolist()
    b = [int(v) for v in b]
    rows, _ = pivot_minor(A)
    out, bR = set(), [b[i] for i in rows]
    for B in combinations(range(n), len(rows)):
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


def int_adjugate(M):
    """(adj, det) of a square integer matrix, adj @ M = det * I exactly,
    both negated if needed so that det >= 0 (the candidate-slice oracle's
    exact solve)."""
    r = len(M)
    adj = [[(-1) ** (i + j) * int_det([row[:i] + row[i + 1:] for t, row in enumerate(M)
                                       if t != j]) for j in range(r)] for i in range(r)]
    det = sum(M[0][j] * adj[j][0] for j in range(r)) if r else 1
    if det < 0:
        adj, det = [[-a for a in row] for row in adj], -det
    return adj, det
