"""Exact geometry of projective space with the hyperplane bundle.

The ambient picture is concrete: the circle bundle is the unit sphere of
C^(d+1), the base is the sphere modulo a global phase, and level-k sections
are degree-k homogeneous monomials evaluated on unit vectors.  The volume
normalization is vol(M) = pi^d / d!, and the circle-fiber constant kappa_X
is calibrated once (pinned in `config.PINNED`, checked by
`selftest.check_kappa_calibration`).
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
from collections import namedtuple

import numpy as np

from ._intlinalg import NumericFailure, fourier_motzkin, smith_normal_form

__all__ = [
    "ProjectiveModel",
    "SectionBasis",
    "section_basis",
    "check_slice_budget",
    "log_monomial_norm",
    "monomial_norm",
    "szego_kernel",
    "sphere_cubature",
    "SAMPLER",
    "sample_sphere",
    "kernel_pair_values",
]

#: Circle-fiber normalization: vol_X = KAPPA_X * vol_M.  Calibrated once by
#: the on-diagonal kernel scaling identity (k/pi)^d; see
#: `selftest.check_kappa_calibration`.
KAPPA_X = 1.0


class ProjectiveModel(namedtuple("ProjectiveModel", "d kappa_x")):
    """Complex projective space of dimension d with its unit circle bundle.

    vol_M is pinned to pi^d/d!; vol_X = kappa_x * vol_M with kappa_x frozen
    by the one-time calibration.
    """

    def __new__(cls, d: int, kappa_x: float = KAPPA_X):
        if d < 1:
            raise ValueError("d must be a positive integer")
        if kappa_x <= 0:
            raise ValueError("kappa_x must be positive")
        return super().__new__(cls, d, kappa_x)

    @property
    def n_coords(self) -> int:
        return self.d + 1

    @property
    def vol_M(self) -> float:
        return math.pi ** self.d / math.factorial(self.d)

    @property
    def vol_X(self) -> float:
        return self.kappa_x * self.vol_M

    def dim_sections(self, k: int) -> int:
        return math.comb(k + self.d, self.d)


class SectionBasis(namedtuple("SectionBasis", "k dim blocks model points_walked")):
    """The slice of the level-k monomial basis of one torus weight; the
    trivial group's is the full basis.  `dim` rows, lex-descending, which
    `blocks()` yields in order as (rows, d+1) int64 arrays, _SLICE_BLOCK rows
    at a time; `points_walked` counts the lattice points the slice's walk
    visited.  The (dim, d+1) `indices` and their L2(X) `log_norms` are built
    on first read (`cached_property`, which needs the instance dict that a
    namedtuple subclass without `__slots__` has)."""

    @property
    def n_blocks(self) -> int:
        return -(-self.dim // _SLICE_BLOCK)

    @functools.cached_property
    def indices(self) -> np.ndarray:
        out, lo = np.empty((self.dim, self.model.n_coords), np.int64), 0
        for rows in self.blocks():
            out[lo:lo + len(rows)] = rows
            lo += len(rows)
        return out

    @functools.cached_property
    def log_norms(self) -> np.ndarray:
        return log_monomial_norm(self.indices, self.model)


#: log m! at index m; grown on demand by `_log_factorials`, never shrunk
_LOG_FACTORIALS = np.zeros(2)


def _log_factorials(n: int) -> np.ndarray:
    """A table holding log m! for (at least) m = 0..n.  A grown table is
    built whole before it replaces the shared one, so concurrent callers
    each get a complete table."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n >= len(table):
        grown = [math.lgamma(m + 1.0) for m in range(len(table), max(n + 1, 2 * len(table)))]
        table = _LOG_FACTORIALS = np.concatenate([table, grown])
    return table


def log_monomial_norm(alpha: np.ndarray, model: ProjectiveModel) -> np.ndarray:
    """log N_k(alpha) with N_k(alpha) = vol_X * d! * alpha! / (d+k)!.

    Accepts a single multi-index or a stack of them; everything stays in
    log space so (d+k)! never overflows.
    """
    a = np.asarray(alpha, dtype=np.int64)
    single = a.ndim == 1
    a = np.atleast_2d(a)
    if a.shape[1] != model.n_coords:
        raise ValueError("multi-index length must be d+1")
    if np.any(a < 0):
        raise ValueError("multi-index entries must be nonnegative")
    k = a.sum(axis=1)
    d = model.d
    log_fact = _log_factorials(d + int(k.max(initial=0)))
    out = math.log(model.vol_X) + log_fact[d] + log_fact[a].sum(axis=1) - log_fact[d + k]
    return out[0] if single else out


def monomial_norm(alpha, model: ProjectiveModel) -> float:
    return float(np.exp(log_monomial_norm(alpha, model)))


#: most lattice points one stage of `_weight_slice`'s walk holds, its last
#: stage's, only counted, being the slice's rows: `indices` holds them whole
#: with the walk's prefixes, ~0.1 GiB and ~0.35 s at d = 8 (2-vCPU Xeon)
MAX_SLICE_ROWS = 1_000_000


#: What `_weight_slice` needs of weights W (g x n) at any level k and label
#: varpi, in exact integers: A alpha = [k; varpi], A = [1; -W], has the
#: integer solutions alpha = p + t L; stage j bounds t_j given t_<j.  U, s, V:
#: the Smith form U A V = diag(s, 0), U's first r rows, V's first r columns;
#: L, m x n, a basis of the lattice ker A in row echelon form: row i is 0 left
#: of pivots[i] and > 0 there, and the rows above it in [0, that); stage j:
#: (a (rows, j) int64 array, c, lam), a . t_<j + c t_j <= lam . p; feasible:
#: the lam of the bounds left without t, 0 <= lam . p; scale bounds |a . t|
#: and |L t| over the walk by scale (k + max |p|)
_SlicePlan = namedtuple("_SlicePlan", "A U s V L pivots stages feasible scale")


@functools.lru_cache(maxsize=8)
def _slice_plan(n: int, W: tuple) -> _SlicePlan:
    """The plan of the weight rows W (a tuple of n-tuples), built once from one
    Smith form of A = [1; -W] (dependent rows give zero invariant factors)."""
    A = [[1] * n] + [[-w for w in row] for row in W]
    U, S, V = smith_normal_form(np.array(A, dtype=object))
    s = [int(S[i][i]) for i in range(min(len(A), n)) if S[i][i]]
    return _echelon_plan(A, U.tolist()[:len(s)], s, V.tolist())


def _echelon_plan(A: list, U: list, s: list, V: list) -> _SlicePlan:
    """The plan of A from a Smith form U' A_R V = diag(s, 0) of A or of rows
    A_R spanning its rows: U is U''s first r = len(s) rows, widened to act on
    all of [k; varpi], and V is n x n.  V's last n - r columns, a basis of
    the lattice ker A, are brought to row echelon form over the coordinates
    0..n-1 (Hermite normal form; Schrijver 1986, sec. 4.1).  alpha up to the
    next pivot then depends on t_0..t_i alone, rising with t_i at pivot i, so
    the walk's order on t is the lex order on alpha.  `fourier_motzkin` on the
    n rows -L t <= p of alpha >= 0 gives each stage's bounds, with right-hand
    sides lam . p, so k and varpi enter only when a level is walked."""
    n, r = len(V), len(s)
    L, pivots, beta = [[int(V[i][j]) for i in range(n)] for j in range(r, n)], [], []
    for f in range(n):
        i = len(pivots)
        for j in range(i + 1, n - r):
            while L[j][f]:
                q = L[i][f] // L[j][f]
                L[i], L[j] = L[j], [a - q * b for a, b in zip(L[i], L[j])]
        if i == n - r or not L[i][f]:
            continue
        if L[i][f] < 0:
            L[i] = [-a for a in L[i]]
        for j in range(i):
            q = L[j][f] // L[i][f]
            L[j] = [a - q * b for a, b in zip(L[j], L[i])]
        # alpha_f in [0, k] bounds a walked |t_i| by beta_i (k + max |p|)
        beta.append((1 + sum(L[j][f] * beta[j] for j in range(i))) / L[i][f])
        pivots.append(f)
    stages, feasible = fourier_motzkin([[-c[i] for c in L] for i in range(n)],
                                       "the slice plan of these weights")
    scale = max([abs(x) for row in L + [a for st in stages for a, _, _ in st] for x in row] + [0])
    if scale >= 2 ** 62:
        raise NumericFailure(f"the slice plan of these weights has an entry {scale} >= 2^62")
    stages = tuple((np.array([a for a, _, _ in st], np.int64).reshape(len(st), j),
                    [c for _, c, _ in st], [lam for _, _, lam in st])
                   for j, st in enumerate(stages))
    return _SlicePlan(A=A, U=U, s=s, V=[row[:r] for row in V], L=L,
                      pivots=tuple(pivots), stages=stages, feasible=feasible,
                      scale=scale * n * max(beta + [0]))


#: rows per block in which a walked slice's last stage is expanded, so a
#: trace, or the filling of `indices`, holds one block beyond the walk
_SLICE_BLOCK = 1 << 15


def _weight_slice(k: int, W: np.ndarray, varpi) -> tuple:
    """(dim, walked, blocks): the number of alpha >= 0 with |alpha| = k and
    -W alpha = varpi, the lattice points walked for them over all stages,
    and a function yielding them lex-descending, _SLICE_BLOCK rows at a time.

    Stage j repeats each prefix (t_0..t_{j-1}) once per integer t_j within
    its floor/ceil bounds, ascending, after checking the stage's point count
    against MAX_SLICE_ROWS (NumericFailure when over); every point of the
    last stage is in the slice.  The plan's
    echelon basis makes that order lex-ascending in alpha, so the rows are
    the walk's, reversed, and no sort is needed.  The last stage is counted
    here and expanded only by `blocks`: a block takes its rows' prefixes last
    to first and repeats each prefix's alpha once per t_{m-1}, descending,
    plus t_{m-1} times the last basis row."""
    n = W.shape[1]
    plan = _slice_plan(n, tuple(map(tuple, W.tolist())))
    b = [int(k)] + [int(v) for v in varpi]
    y = [sum(u * bi for u, bi in zip(row, b)) for row in plan.U]
    empty = 0, 0, lambda: iter(())
    if any(v % s for v, s in zip(y, plan.s)):
        return empty
    p = [sum(v * w // s for v, w, s in zip(row, y, plan.s)) for row in plan.V]
    if any(sum(a * v for a, v in zip(row, p)) != bi for row, bi in zip(plan.A, b)):
        return empty
    for i, f in enumerate(plan.pivots):     # p_f into [0, L[i][f]), stage by stage
        p = [v - p[f] // plan.L[i][f] * c for v, c in zip(p, plan.L[i])]
    dot = lambda lams: [sum(x * v for x, v in zip(lam, p)) for lam in lams]
    if min(dot(plan.feasible), default=0) < 0:
        return empty
    hs, m = [dot(lam) for _, _, lam in plan.stages], len(plan.stages)
    if max(map(abs, sum(hs, [0]))) + plan.scale * (k + max(map(abs, p))) >= 2 ** 62:
        raise NumericFailure(f"level {k}'s slice bounds overflow int64 arithmetic")
    L, p = np.array(plan.L, dtype=np.int64).reshape(-1, n), np.array(p, dtype=np.int64)
    if not m:
        return 1, 1, lambda: iter([p[None]])
    head, walked = np.zeros((1, 0), np.int64), 0
    for j, ((a, c, _), h) in enumerate(zip(plan.stages, hs)):
        lo, hi = np.full(len(head), -2 ** 62), np.full(len(head), 2 ** 62)
        for aj, cj, hj in zip(a, c, h):         # a . t + c t_j <= h: floor or ceil
            v = hj - head @ aj
            np.minimum(hi, v // cj, out=hi) if cj > 0 else np.maximum(lo, -(v // -cj), out=lo)
        count = np.maximum(hi - lo + 1, 0)
        total = int(np.minimum(count, MAX_SLICE_ROWS + 1).sum())
        if total > MAX_SLICE_ROWS:
            raise NumericFailure(f"level {k} walks at least {total} points in stage {j + 1} of "
                                 f"{m}, over the budget of {MAX_SLICE_ROWS} rows")
        walked += total
        if j == m - 1:
            break
        grown = np.empty((total, j + 1), np.int64)   # filled in place: no repeated copy beside it
        for i in range(j):
            grown[:, i] = np.repeat(head[:, i], count)
        np.subtract(np.arange(total, dtype=np.int64), np.repeat(np.cumsum(count) - count - lo, count),
                    out=grown[:, j])
        head = grown
    ends = np.cumsum(count)
    starts = ends - count
    shift = starts - lo             # point q of the last stage has t_{m-1} = q - shift[its prefix]

    def blocks():
        for q1 in range(total, 0, -_SLICE_BLOCK):      # points [q0, q1), of prefixes i0..i1-1
            q0 = max(q1 - _SLICE_BLOCK, 0)
            i0, i1 = bisect_right(ends, q0), bisect_left(ends, q1) + 1
            c = np.minimum(ends[i0:i1], q1) - np.maximum(starts[i0:i1], q0)
            col = np.arange(q0, q1, dtype=np.int64) - np.repeat(shift[i0:i1], c)
            alpha = np.repeat((head[i0:i1] @ L[:-1] + p)[::-1], c[::-1], axis=0)
            alpha += col[::-1, None] * L[-1]
            yield alpha

    return total, walked, blocks


def check_slice_budget(k: int, W, varpi) -> None:
    """Raise NumericFailure, before the slice is built, when a stage of the
    walk of level k's slice (weights W, label varpi) holds more than
    MAX_SLICE_ROWS points: the stages before the last are walked, the last
    only counted.  A sweep checks its top level before the first."""
    _weight_slice(k, np.asarray(W, dtype=np.int64), varpi)


def section_basis(k: int, model: ProjectiveModel, W=None, varpi=()) -> SectionBasis:
    """The level-k monomial basis (the trivial group's slice), or with a
    torus weight matrix W (g x (d+1)) and a label varpi its rows with
    -W alpha = varpi, walked directly (`_weight_slice`, on a plan cached per
    weight system): the rows and order of the filtered full basis, with no
    sort.  `points_walked` counts the walk's points over all its stages.
    `symmetry.isotype_basis` returns the slice as the varpi isotype.
    """
    if k < 0:
        raise ValueError("level k must be nonnegative")
    W = np.zeros((0, model.n_coords), np.int64) if W is None else np.asarray(W, dtype=np.int64)
    if W.ndim != 2 or W.shape[1] != model.n_coords:
        raise ValueError("W must be a g x (d+1) integer matrix")
    varpi = np.asarray(varpi, dtype=np.int64).reshape(W.shape[0])
    dim, walked, blocks = _weight_slice(k, W, varpi)
    return SectionBasis(k=k, dim=dim, blocks=blocks, model=model, points_walked=walked)


def szego_kernel(x, y, k: int, model: ProjectiveModel) -> complex:
    """Full level-k kernel: binom(k+d, d)/vol_X * <x, y>^k.

    <x, y> = sum_j x_j * conj(y_j).  Stable for large k via log magnitude.
    """
    xv, yv = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    ip = complex(np.sum(xv * np.conj(yv)))
    c = math.comb(k + model.d, model.d) / model.vol_X
    if ip == 0:
        return 0.0 if k >= 1 else complex(c)
    mag = math.exp(k * math.log(abs(ip)))
    return c * mag * complex(math.cos(k * np.angle(ip)), math.sin(k * np.angle(ip)))


#: most nodes `sphere_cubature` builds (16 (d+1) MiB of nodes at the budget)
MAX_CUBATURE_NODES = 1 << 20


@functools.lru_cache(maxsize=8)
def sphere_cubature(d: int, K: int) -> tuple:
    """Read-only nodes (N, d+1) on the unit sphere of C^(d+1) and weights (N,)
    summing to 1, exact for phase-invariant polynomials of bidegree <= (K, K)
    in (z, conj z): Grundmann-Moller of degree 2 floor(K/2) + 1 in the squared
    moduli (SIAM J. Numer. Anal. 15, 1978), theta_0 = 0 and K+1 equal steps
    in each other phase, phase-major (a sum over the nodes then rounds like
    one over phases).  Over MAX_CUBATURE_NODES nodes is a NumericFailure."""
    s, m = K // 2, d + 2 * (K // 2) + 1
    n = math.comb(s + d + 1, d + 1) * (K + 1) ** d
    if n > MAX_CUBATURE_NODES:
        raise NumericFailure(f"{n} cubature nodes, over the budget of {MAX_CUBATURE_NODES}")
    model = ProjectiveModel(d)
    u = np.vstack([(2 * section_basis(s - i, model).indices + 1) / (m - 2 * i)
                   for i in range(s + 1)])
    c = [(-1) ** i * math.factorial(d) * (m - 2 * i) ** (2 * s + 1)
         / (4 ** s * math.factorial(i) * math.factorial(m - i)) for i in range(s + 1)]
    w = np.repeat(c, [math.comb(s - i + d, d) for i in range(s + 1)])
    phases = np.exp(2j * math.pi / (K + 1) * np.indices((1,) + (K + 1,) * d).reshape(d + 1, -1).T)
    nodes = (phases[:, None, :] * np.sqrt(u)[None, :, :]).reshape(n, d + 1)
    weights = np.tile(w / len(phases), len(phases))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


#: bits of the Sobol generator (scipy's default for 32-bit output)
_SOBOL_BITS = 30
#: most points `sample_sphere` can draw for one seed: the direction numbers
#: have _SOBOL_BITS bits
MAX_SAMPLES = 1 << _SOBOL_BITS


#: Joe & Kuo (2008) direction numbers, rows 1..63 (the head of the table
#: scipy's Sobol engine reads) as (poly, m_1, .., m_deg): a primitive degree-deg
#: polynomial's bits and the initial odd m_j < 2^j.  Row 0 is all ones, so a
#: point has at most MAX_SOBOL_DIM coordinates
_JOE_KUO = (
    (3, 1), (7, 1, 3), (11, 1, 3, 1), (13, 1, 1, 1), (19, 1, 1, 3, 3), (25, 1, 3, 5, 13),
    (37, 1, 1, 5, 5, 17), (41, 1, 1, 5, 5, 5), (47, 1, 1, 7, 11, 19), (55, 1, 1, 5, 1, 1),
    (59, 1, 1, 1, 3, 11), (61, 1, 3, 5, 5, 31), (67, 1, 3, 3, 9, 7, 49), (91, 1, 1, 1, 15, 21, 21),
    (97, 1, 3, 1, 13, 27, 49), (103, 1, 1, 1, 15, 7, 5), (109, 1, 3, 1, 15, 13, 25),
    (115, 1, 1, 5, 5, 19, 61), (131, 1, 3, 7, 11, 23, 15, 103), (137, 1, 3, 7, 13, 13, 15, 69),
    (143, 1, 1, 3, 13, 7, 35, 63), (145, 1, 3, 5, 9, 1, 25, 53), (157, 1, 3, 1, 13, 9, 35, 107),
    (167, 1, 3, 1, 5, 27, 61, 31), (171, 1, 1, 5, 11, 19, 41, 61), (185, 1, 3, 5, 3, 3, 13, 69),
    (191, 1, 1, 7, 13, 1, 19, 1), (193, 1, 3, 7, 5, 13, 19, 59), (203, 1, 1, 3, 9, 25, 29, 41),
    (211, 1, 3, 5, 13, 23, 1, 55), (213, 1, 3, 7, 3, 13, 59, 17), (229, 1, 3, 1, 3, 5, 53, 69),
    (239, 1, 1, 5, 5, 23, 33, 13), (241, 1, 1, 7, 7, 1, 61, 123), (247, 1, 1, 7, 9, 13, 61, 49),
    (253, 1, 3, 3, 5, 3, 55, 33), (285, 1, 3, 1, 15, 31, 13, 49, 245),
    (299, 1, 3, 5, 15, 31, 59, 63, 97), (301, 1, 3, 1, 11, 11, 11, 77, 249),
    (333, 1, 3, 1, 11, 27, 43, 71, 9), (351, 1, 1, 7, 15, 21, 11, 81, 45),
    (355, 1, 3, 7, 3, 25, 31, 65, 79), (357, 1, 3, 1, 1, 19, 11, 3, 205),
    (361, 1, 1, 5, 9, 19, 21, 29, 157), (369, 1, 3, 7, 11, 1, 33, 89, 185),
    (391, 1, 3, 3, 3, 15, 9, 79, 71), (397, 1, 3, 7, 11, 15, 39, 119, 27),
    (425, 1, 1, 3, 1, 11, 31, 97, 225), (451, 1, 1, 1, 3, 23, 43, 57, 177),
    (463, 1, 3, 7, 7, 17, 17, 37, 71), (487, 1, 3, 1, 5, 27, 63, 123, 213),
    (501, 1, 1, 3, 5, 11, 43, 53, 133), (529, 1, 3, 5, 5, 29, 17, 47, 173, 479),
    (539, 1, 3, 3, 11, 3, 1, 109, 9, 69), (545, 1, 1, 1, 5, 17, 39, 23, 5, 343),
    (557, 1, 3, 1, 5, 25, 15, 31, 103, 499), (563, 1, 1, 1, 11, 11, 17, 63, 105, 183),
    (601, 1, 1, 5, 11, 9, 29, 97, 231, 363), (607, 1, 1, 5, 15, 19, 45, 41, 7, 383),
    (617, 1, 3, 7, 7, 31, 19, 83, 137, 221), (623, 1, 1, 1, 3, 23, 15, 111, 223, 83),
    (631, 1, 1, 5, 13, 31, 15, 55, 25, 161), (637, 1, 1, 3, 13, 25, 47, 39, 87, 257)
)
MAX_SOBOL_DIM = len(_JOE_KUO) + 1


@functools.lru_cache(maxsize=None)
def _sobol_directions(dim: int) -> np.ndarray:
    """Direction numbers (dim, 30), dim <= MAX_SOBOL_DIM, each column shifted
    to its bit position: row d > 0 runs the recurrence of its primitive
    polynomial from its `_JOE_KUO` initial numbers."""
    B = _SOBOL_BITS
    v = np.ones((dim, B), np.int64)
    for d, (p, *row) in enumerate(_JOE_KUO[:dim - 1], 1):
        m = len(row)
        for j in range(m, B):
            new = row[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    v <<= B - 1 - np.arange(B)
    v.setflags(write=False)
    return v


#: rows per block of the streamed Sobol draw: a power of two, so a block is
#: the first block XORed with one vector, and the bound on the working memory
#: of the draw, of the zero-locus band filter and of `kernel_pair_values`
_SOBOL_BLOCK = 1 << 12


def _random_bits(seed: int, n: int) -> np.ndarray:
    """n random bits as 0/1 uint32: the n low bits of the stdlib generator's
    (MT19937) `random.Random(seed).getrandbits(n)`, least significant first.
    A negative seed is refused, because `Random` seeds with its absolute
    value and would draw the bits of -seed."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    word = random.Random(seed).getrandbits(n).to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(word, np.uint8), count=n,
                         bitorder="little").astype(np.uint32)


@functools.lru_cache(maxsize=64)
def _sobol_scramble(dim: int, seed: int) -> tuple:
    """The seed's random digital shift (dim,) and its scrambled direction
    numbers (dim, 30): a random lower-triangular (unit diagonal) linear
    matrix scramble of the direction numbers and the shift, drawn in that
    order from `_random_bits(seed, ...)`, the order in which scipy's engine
    draws them from its generator.  Cached: each draw of the seed reuses
    it."""
    B = _SOBOL_BITS
    bits = _random_bits(seed, dim * B * (B + 1))
    shift = bits[:dim * B].reshape(dim, B) @ (1 << np.arange(B, dtype=np.uint32))
    ltm = np.tril(bits[dim * B:].reshape(dim, B, B)).astype(np.int64)
    ltm[:, np.arange(B), np.arange(B)] = 1
    pos = B - 1 - np.arange(B)          # bit position of row / column index p
    v_bits = (_sobol_directions(dim)[:, :, None] >> pos) & 1      # (dim, j, k)
    sv = ((np.einsum("dpk,djk->djp", ltm, v_bits) & 1) @ (1 << pos)).astype(np.uint32)
    shift.setflags(write=False)
    sv.setflags(write=False)
    return shift, sv


def _sobol(dim: int, seed: int, n: int):
    """The first n points of scrambled Sobol in [0, 1)^dim, dim <=
    MAX_SOBOL_DIM (more would repeat the all-ones direction row), as an
    iterator over consecutive blocks of at most _SOBOL_BLOCK rows.  The
    scramble is `_sobol_scramble`'s, the points come in Gray-code order, and
    given the same scramble bits the first 2^m are scipy's `qmc.Sobol(dim,
    scramble=True).random_base2(m)`.  The arguments are checked when
    `_sobol` is called, before any block is built."""
    B = _SOBOL_BITS
    if dim > MAX_SOBOL_DIM:
        raise ValueError(f"{dim} Sobol dimensions; the direction table has {MAX_SOBOL_DIM}")
    if not 0 <= n <= MAX_SAMPLES:
        raise ValueError(f"Sobol points 0..{n - 1} are outside 0..2^{B} - 1")
    shift, sv = _sobol_scramble(dim, seed)
    # point i is shift ^ (xor of sv[:, c] over the bits c of gray(i) = i ^ (i >> 1)),
    # and gray(j 2^b + r) = gray(j 2^b) ^ gray(r) for r < 2^b: block j is the first
    # block XORed with the sv columns of gray(j 2^b).  The reflected Gray code
    # doubles the first block one direction number at a time, once per draw
    b = min(_SOBOL_BLOCK.bit_length() - 1, (n - 1).bit_length())
    head = np.empty((1 << b, dim), np.uint32)
    head[0] = shift
    for c in range(b):
        head[1 << c:2 << c] = head[(1 << c) - 1::-1] ^ sv[:, c]

    def blocks():
        for lo in range(0, n, 1 << b):
            gray = lo ^ lo >> 1
            base = np.bitwise_xor.reduce(sv[:, [c for c in range(B) if gray >> c & 1]], axis=1)
            yield (head[:n - lo] ^ base) * 2.0 ** -B

    return blocks()


#: names `sample_sphere`'s construction; the f-bar cache key carries it, so
#: a value drawn by another construction is never served
SAMPLER = "sobol-mt19937-exponential-moduli"


def sample_sphere(n: int, seed: int, model: ProjectiveModel, keep=None, refine=None) -> np.ndarray:
    """Deterministic quasi-random unit vectors in C^(d+1): the first n rows,
    shape (n, d+1), of the seed's sequence, or the rows of them that `keep`
    selects, mapped by `refine` when it is given.

    Row i is built from the scrambled Sobol point i in [0, 1)^(2d+2) of
    `_sobol`.  The squared moduli of a uniform unit vector are independent
    Exp(1) variables over their sum, and its phases are uniform and
    independent of them: coordinate 2j gives E_j = -log(1 - u)
    (1 - u >= 2^-30 is exact, so no clip is needed), coordinate 2j+1 the
    phase 2 pi u, and z_j = sqrt(E_j / sum E) e^(i theta_j).  `keep` maps a
    block's (rows, d+1) squared moduli to a row mask; only the kept rows get
    phases and are returned, in order, each with the bits it has in the
    unfiltered draw; `refine` maps them as they stream, in batches of at
    least _SOBOL_BLOCK rows (the last may be short), to the rows returned.
    A row depends only on its index, the seed and d.  At most 2^30 rows
    exist; a larger n is refused before anything is allocated.  The rows are
    built _SOBOL_BLOCK at a time, so the working memory beyond the output
    is one block.  The direction table gives d <= 31 (NumericFailure).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if 2 * model.n_coords > MAX_SOBOL_DIM:
        raise NumericFailure(f"sampling P^{model.d} needs {2 * model.n_coords} Sobol dimensions; "
                             f"the table has {MAX_SOBOL_DIM} (d <= {MAX_SOBOL_DIM // 2 - 1})")
    blocks = _sobol(2 * model.n_coords, seed, n)
    z = np.empty((n if keep is None else 0, model.n_coords), complex)
    kept, band, lo = [], [], 0
    for u in blocks:
        lo += len(u)
        sq = np.log(1.0 - u[:, ::2])                # -E_j
        sq /= sum((sq[:, j] for j in range(1, model.n_coords)), sq[:, 0])[:, None]
        if keep is None:
            w = z[lo - len(u):lo]
        else:
            rows = keep(sq)
            sq, u = sq[rows], u[rows]
            w = np.empty(sq.shape, complex)
            band.append(w)
        theta = (2.0 * math.pi) * u[:, 1::2]
        r = np.sqrt(sq)
        np.multiply(r, np.cos(theta), out=w.real)
        np.multiply(r, np.sin(theta), out=w.imag)
        if band and (lo == n or sum(map(len, band)) >= _SOBOL_BLOCK):
            rows, band = np.concatenate(band), []
            kept.append(rows if refine is None else refine(rows))
    return z if keep is None else np.concatenate(kept)


#: Stand-in for log(0) that keeps 0 * log == 0 exact in the exponent sums
#: while exp(k * _LOG_ZERO + anything bounded) underflows to exactly 0.
_LOG_ZERO = -1e30


def kernel_pair_values(xs: np.ndarray, ys: np.ndarray, indices: np.ndarray,
                       log_norms: np.ndarray) -> np.ndarray:
    """sum_alpha z^alpha(x_i) conj(z^alpha(y_i)) / N(alpha) for paired rows.

    Stable summation: per-row terms are rescaled by their largest log
    magnitude before exponentiation.  Rows go through in blocks of about
    _SOBOL_BLOCK (row, monomial) terms, which bounds the working memory.  The
    exponents are ordered sums over the d+1 coordinates, not matrix products,
    so a row's value is the same bits alone and in any block.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=complex))
    ys = np.atleast_2d(np.asarray(ys, dtype=complex))
    A = np.asarray(indices, dtype=np.int64)
    n = xs.shape[0]
    out = np.zeros(n, dtype=complex)
    if A.shape[0] == 0:
        return out
    with np.errstate(divide="ignore"):
        log_abs = (np.maximum(np.log(np.abs(xs)), _LOG_ZERO)
                   + np.maximum(np.log(np.abs(ys)), _LOG_ZERO))
    angle = np.angle(xs) - np.angle(ys)
    log_norms = np.asarray(log_norms)[None, :]
    step = max(1, _SOBOL_BLOCK // A.shape[0])
    cols = range(1, A.shape[1])
    for lo in range(0, n, step):
        la, an = log_abs[lo:lo + step, :, None], angle[lo:lo + step, :, None]
        logmag = sum((la[:, j] * A[:, j] for j in cols), la[:, 0] * A[:, 0]) - log_norms
        phase = sum((an[:, j] * A[:, j] for j in cols), an[:, 0] * A[:, 0])
        peak = np.max(logmag, axis=1, keepdims=True)
        peak = np.minimum(np.maximum(peak, -700.0), 700.0)
        vals = np.exp(logmag - peak) * np.exp(1j * phase)
        out[lo:lo + step] = np.exp(peak[:, 0]) * vals.sum(axis=1)
    return out
