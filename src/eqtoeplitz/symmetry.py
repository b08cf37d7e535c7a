"""Torus actions on projective space, isotype decompositions, and the
commuting diagonal symmetry with its bundle lift.

Sign conventions (weight sign, moment-map sign, lift phase sign) follow the
pinned calibration: monomials pulled back by the action transform with
character t^(-W alpha); the moment map is -(W u); the lift acts on level-k
monomials by e^{i k theta_A} e^{-i <phi, alpha>}.  The self-test suite pins
each of these against independent identities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._intlinalg import NumericFailure, basic_feasible_solutions
from .geometry import SectionBasis, kernel_pair_values

__all__ = [
    "TorusAction",
    "DiagonalSymmetry",
    "IsotypeBasis",
    "weight_of",
    "isotype_basis",
    "moment_map",
    "slice_vertices",
    "moment_polytope_contains",
    "torus_grid_overlaps",
    "occurring_weights",
    "gamma_phase",
    "equivariant_kernel_pairs",
]


@dataclass(frozen=True)
class TorusAction:
    """Linear T^g action on C^(d+1): column j of W is the weight of z_j."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.int64)
        if W.ndim != 2:
            raise ValueError("W must be a g x (d+1) integer matrix")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @property
    def g(self) -> int:
        return self.W.shape[0]

    @property
    def n_coords(self) -> int:
        return self.W.shape[1]

    def act(self, theta: np.ndarray, points: np.ndarray) -> np.ndarray:
        """mu_t with t = e^{i theta}: multiplies z_j by e^{i <theta, W_j>}."""
        theta = np.asarray(theta, dtype=float).reshape(self.g)
        pts = np.asarray(points, dtype=complex)
        fac = np.exp(1j * (theta @ self.W))
        return pts * fac

    def orbit_gram(self, points: np.ndarray) -> np.ndarray:
        """Gram matrix of the generator fields in the base metric, (..., g, g).

        At moment-map zeros the fields are horizontal, so this is
        W diag(u) W^T with u the squared coordinate moduli.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        u = np.abs(pts) ** 2
        G = np.einsum("ij,nj,lj->nil", self.W.astype(float), u, self.W.astype(float))
        # remove the vertical (circle-fiber) component: subtract outer product
        # of the projections <xi_i, i x> = -Phi_i
        phi = -self.pair_weights(u)
        G -= phi[:, :, None] * phi[:, None, :]
        return G

    def pair_weights(self, u: np.ndarray) -> np.ndarray:
        """u W^T for rows u (n, d+1), summed in coordinate order, not by a BLAS
        product, whose sum order depends on the row count and on the row's
        place: a row is the same bits alone and in any batch."""
        W = self.W.astype(float)
        terms = (np.multiply.outer(W[:, j], u[:, j]) for j in range(self.n_coords))
        return sum(terms, next(terms)).T.copy()


def weight_of(alpha: np.ndarray, action: TorusAction) -> np.ndarray:
    """Character label of the monomial z^alpha under pull-back: -W alpha."""
    a = np.asarray(alpha, dtype=np.int64)
    single = a.ndim == 1
    out = -np.atleast_2d(a) @ action.W.T
    return out[0] if single else out


def moment_map(x, action: TorusAction) -> np.ndarray:
    """Phi_i = -sum_j W_ij |x_j|^2 on unit vectors; batched over rows."""
    pts = np.asarray(x, dtype=complex)
    single = pts.ndim == 1
    out = -action.pair_weights(np.abs(np.atleast_2d(pts)) ** 2)
    return out[0] if single else out


#: angles per block of the torus-grid sweep; bounds its working memory
_GRID_BLOCK = 4096
#: most torus-grid points one sweep visits: 256^g fits for g <= 3 (20-30 s)
MAX_GRID_POINTS = 1 << 24


def torus_grid_overlaps(x, y, action: TorusAction, n_grid: int):
    """Walk the uniform n_grid^g torus grid in blocks, yielding for each
    block the angles theta (rows) and <mu_theta x, y> = e^{i theta W} . (x conj(y)).

    The grid is visited in row-major order of the per-circle node indices;
    memory stays bounded by the block size, and n_grid^g by MAX_GRID_POINTS
    (NumericFailure before the first block).
    """
    total = n_grid ** action.g
    if total > MAX_GRID_POINTS:
        raise NumericFailure(f"the torus grid has {n_grid}^{action.g} = {total} points, "
                             f"over the budget of {MAX_GRID_POINTS}")
    xy = np.asarray(x, dtype=complex) * np.conj(np.asarray(y, dtype=complex))
    strides = n_grid ** np.arange(action.g - 1, -1, -1)
    for start in range(0, total, _GRID_BLOCK):
        idx = np.arange(start, min(start + _GRID_BLOCK, total))
        theta = (idx[:, None] // strides % n_grid) * (2.0 * math.pi / n_grid)
        yield theta, np.exp(1j * (theta @ action.W)) @ xy


def slice_vertices(action: TorusAction) -> list:
    """Exact vertices of the zero-locus polytope P = {u >= 0, sum u = 1, W u = 0}
    (u the squared coordinate moduli) as `basic_feasible_solutions` pairs;
    empty when the zero locus is.  Every face of P is P cut by a face of the
    simplex, so the coordinate supports of points of the zero locus are the
    unions of vertex supports."""
    n = action.n_coords
    return basic_feasible_solutions(np.vstack([np.ones((1, n), np.int64), action.W]),
                                    [1] + [0] * action.g)


def moment_polytope_contains(action: TorusAction, target: np.ndarray,
                             scale: float = 1.0) -> bool:
    """Is target inside scale * Phi(M) (scale >= 0)?  Phi(M) is the convex
    hull of the columns of -W, so this asks for nu >= 0 with sum nu = scale
    and -W nu = target; decided exactly on the binary values of the floats."""
    if action.g == 0:
        return True
    ratios = [float(v).as_integer_ratio()
              for v in (scale, *np.asarray(target, dtype=float).reshape(action.g))]
    den = math.lcm(*(q for _, q in ratios))
    A = np.vstack([np.ones((1, action.n_coords), np.int64), -action.W])
    return bool(basic_feasible_solutions(A, [p * (den // q) for p, q in ratios]))


@dataclass(frozen=True)
class DiagonalSymmetry:
    """Gamma = diag(e^{i phi_j}) with an extra global lift phase theta_A.

    Always unitary and commuting with any diagonal torus action.
    """

    phi: np.ndarray
    theta_A: float = 0.0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).reshape(-1)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def n_coords(self) -> int:
        return self.phi.shape[0]

    def gamma_M(self, points: np.ndarray) -> np.ndarray:
        """The symmetry on ambient coordinates (projectively, the map on M)."""
        return np.asarray(points, dtype=complex) * np.exp(1j * self.phi)

    def gamma_X(self, points: np.ndarray) -> np.ndarray:
        """Lifted contactomorphism on the circle bundle: e^{-i theta_A} Gamma."""
        return self.gamma_M(points) * np.exp(-1j * self.theta_A)

    def gamma_X_inv(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=complex) * np.exp(1j * (self.theta_A - self.phi))


def gamma_phase(alpha: np.ndarray, sym: DiagonalSymmetry) -> np.ndarray:
    """Eigenvalue of the induced level-k map on the monomial z^alpha:
    e^{i k theta_A} e^{-i <phi, alpha>} (k = |alpha|)."""
    a = np.asarray(alpha, dtype=np.int64)
    single = a.ndim == 1
    a2 = np.atleast_2d(a)
    k = a2.sum(axis=1)
    out = np.exp(1j * (k * sym.theta_A - a2 @ sym.phi))
    return out[0] if single else out


@dataclass(frozen=True)
class IsotypeBasis:
    """Sub-basis of a fixed character label inside a level-k basis: the rows
    of `parent` that `keep` selects, or, with keep None, the parent itself (a
    walked slice of this label), whose arrays and blocks it shares."""

    k: int
    varpi: tuple
    parent: SectionBasis = field(repr=False)
    keep: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.parent.dim if self.keep is None else len(self.indices)

    @functools.cached_property
    def indices(self) -> np.ndarray:
        return self.parent.indices if self.keep is None else self.parent.indices[self.keep]

    @functools.cached_property
    def log_norms(self) -> np.ndarray:
        return self.parent.log_norms if self.keep is None else self.parent.log_norms[self.keep]

    def blocks(self):
        return self.parent.blocks() if self.keep is None else iter([self.indices])


def isotype_basis(k: int, varpi, action: TorusAction, basis: SectionBasis) -> IsotypeBasis:
    """The level-k monomials with weight_of(alpha) == varpi.

    `basis` is the full level-k basis, the trivial group's slice, which is
    filtered (selftest's independent route), or its slice of this same
    (W, varpi), as `section_basis(k, model, action.W, varpi)` walks it: that
    slice is already the isotype and is returned as it is, its arrays and
    its walk shared.  Empty results are valid (that is the content of the
    vanishing statement).
    """
    if basis.k != k:
        raise ValueError("basis level mismatch")
    varpi_vec = np.asarray(varpi, dtype=np.int64).reshape(action.g)
    keep = None
    if basis.isotype != (tuple(map(tuple, action.W.tolist())), tuple(varpi_vec.tolist())):
        if basis.isotype != ((), ()):
            raise ValueError("basis is the slice of another torus weight")
        keep = np.all(weight_of(basis.indices, action) == varpi_vec[None, :], axis=1)
    return IsotypeBasis(k=k, varpi=tuple(int(v) for v in varpi_vec), parent=basis, keep=keep)


def occurring_weights(action: TorusAction, basis: SectionBasis) -> np.ndarray:
    """Distinct character labels present in a level's basis, lexicographically
    sorted: `np.unique(w, axis=0)`, without the `numpy.ma` that loads."""
    w = weight_of(basis.indices, action)
    w = w[np.lexsort(w.T[::-1])] if action.g else w
    return w[np.r_[True, np.any(w[1:] != w[:-1], axis=1)][:len(w)]]


def equivariant_kernel_pairs(xs, ys, iso: IsotypeBasis) -> np.ndarray:
    return kernel_pair_values(xs, ys, iso.indices, iso.log_norms)
