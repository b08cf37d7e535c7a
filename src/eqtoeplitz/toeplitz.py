"""Toeplitz compression of observables onto isotype subspaces, the twisted
composite with the symmetry lift, and exact traces across levels.

Matrix elements of u-polynomial observables are factorial ratios computed as
exact small-integer products over a single denominator, so the "exact side"
of every trace identity is correct to a few ulps even at k in the hundreds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ProjectiveModel, sphere_cubature
from .observables import Observable
from .symmetry import (DiagonalSymmetry, IsotypeBasis, TorusAction, equivariant_kernel_pairs,
                       gamma_phase, isotype_basis)

__all__ = [
    "toeplitz_matrix",
    "trace_psi",
    "trace_via_kernel_quadrature",
    "TraceRecord",
    "TraceSeries",
    "trace_sweep",
]


def _u_diagonal(indices: np.ndarray, beta: tuple, k: int, d: int) -> np.ndarray:
    """(alpha+beta)! (d+k)! / (alpha! (d+k+|beta|)!) for each index row: the
    product of the ratios (alpha_j + r) / (d+k+s), the s-th numerator factor
    over the s-th denominator factor.  Each ratio is at most 1, so no partial
    product overflows, and with |beta| <= 1 the result is one division.
    """
    out, s = np.ones(indices.shape[0]), d + k
    for j, b in enumerate(beta):
        col = indices[:, j].astype(float)
        for r in range(1, b + 1):
            s += 1
            out *= (col + r) / s
    return out


def toeplitz_diagonal(f: Observable, indices: np.ndarray, k: int,
                      model: ProjectiveModel) -> np.ndarray:
    """Diagonal matrix elements <f z^a, z^a>/N(a) over the given index rows."""
    d = model.d
    out = np.zeros(indices.shape[0])
    for beta, c in f.u_terms.items():
        out += c * _u_diagonal(indices, beta, k, d)
    if f.h_term is not None:
        hd = np.real(np.diag(f.h_term))
        out += (indices @ hd + hd.sum()) / (d + k + 1)
    return out


#: largest isotype the dense matrix is built for (4000^2 complex is 256 MB)
_DENSE_MAX_DIM = 4000


def toeplitz_matrix(f: Observable, iso: IsotypeBasis, model: ProjectiveModel) -> np.ndarray:
    """Dense matrix of the compressed operator over the orthonormalized
    isotype basis.  Meant for property tests; the trace path is diagonal."""
    if iso.dim > _DENSE_MAX_DIM:
        raise ValueError(f"isotype dimension {iso.dim} too large for the dense path")
    T = np.diag(toeplitz_diagonal(f, iso.indices, iso.k, model)).astype(complex)
    if f.h_term is not None:
        lookup = {tuple(row): i for i, row in enumerate(iso.indices)}
        n = f.h_term.shape[0]
        for j, alpha in enumerate(iso.indices):
            for a in range(n):
                for b in range(n):
                    if a == b or f.h_term[a, b] == 0 or alpha[b] == 0:
                        continue
                    target = alpha.copy()
                    target[a] += 1
                    target[b] -= 1
                    i = lookup.get(tuple(target))
                    if i is not None:
                        T[i, j] += (f.h_term[a, b]
                                    * math.sqrt((alpha[a] + 1) * alpha[b])
                                    / (model.d + iso.k + 1))
    return T


def trace_psi(k: int, varpi, f: Observable, sym: DiagonalSymmetry,
              action: TorusAction, model: ProjectiveModel,
              iso: IsotypeBasis | None = None) -> complex:
    """trace of (level-k lift of the symmetry) o (compressed observable) on
    the varpi isotype (`iso`, enumerated here when not given).

    The lift is diagonal in the monomial basis for a diagonal symmetry, so
    the trace needs only diagonal Toeplitz entries.  They are summed over
    the isotype's blocks as its walk yields them, in order, so a walked
    slice is never held whole, and a one-block isotype is one array sum.
    """
    iso = iso if iso is not None else isotype_basis(k, varpi, action, model)
    sums = (np.sum(gamma_phase(rows, sym) * toeplitz_diagonal(f, rows, k, model))
            for rows in iso.blocks())
    return complex(sum(sums, next(sums, 0j)))


def trace_via_kernel_quadrature(k: int, varpi, f: Observable, sym: DiagonalSymmetry,
                                action: TorusAction, model: ProjectiveModel) -> complex:
    """Independent circle-bundle quadrature of the trace: Pi_{varpi,k}(gamma_X^{-1}(y), y)
    f(y) is phase-invariant of bidegree (k + f.degree, k + f.degree), so
    `sphere_cubature` integrates it exactly against the calibrated volume."""
    ys, weights = sphere_cubature(model.d, k + f.degree)
    iso = isotype_basis(k, varpi, action, model)
    vals = equivariant_kernel_pairs(sym.gamma_X_inv(ys), ys, iso) * f.value(ys)
    return model.vol_X * complex(weights @ vals)


@dataclass(frozen=True)
class TraceRecord:
    k: int
    varpi: tuple
    trace: complex
    dim_isotype: int
    points_walked: int = 0     # lattice points the isotype's slice walk visited
    blocks: int = 0            # blocks of the walk the trace summed


@dataclass
class TraceSeries:
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (k, repr of error)

    def append(self, rec: TraceRecord):
        if self.records and rec.k <= self.records[-1].k:
            raise ValueError("records must be strictly increasing in k")
        if rec.dim_isotype == 0 and rec.trace != 0:
            raise ValueError("empty isotype must have zero trace")
        self.records.append(rec)

    @property
    def k_values(self) -> np.ndarray:
        return np.array([r.k for r in self.records], dtype=np.int64)

    @property
    def traces(self) -> np.ndarray:
        return np.array([r.trace for r in self.records], dtype=complex)

    def to_csv(self, path):
        from .iotools import write_csv
        rows = [[r.k, ";".join(str(v) for v in r.varpi), r.trace.real, r.trace.imag,
                 r.dim_isotype, "diagonal"] for r in self.records]
        write_csv(path, ["k", "varpi", "trace_re", "trace_im", "dim", "method"], rows)


def trace_sweep(k_values, varpi, f: Observable, sym: DiagonalSymmetry,
                action: TorusAction, model: ProjectiveModel,
                threads: int = 1) -> TraceSeries:
    """Exact traces over a level range; deterministic ordering, independent
    (k) tasks distributed over a thread pool when requested.

    Per-level failures are collected on the returned series and the sweep
    continues with the remaining levels."""
    ks = sorted(int(k) for k in k_values)
    varpi_t = tuple(int(v) for v in np.asarray(varpi, dtype=np.int64).reshape(action.g))

    def one(k: int):
        try:
            iso = isotype_basis(k, varpi_t, action, model)
            tr = trace_psi(k, varpi_t, f, sym, action, model, iso=iso)
            return TraceRecord(k=k, varpi=varpi_t, trace=tr, dim_isotype=iso.dim,
                               points_walked=iso.parent.points_walked,
                               blocks=iso.parent.n_blocks)
        except Exception as exc:
            return (k, repr(exc))

    series = TraceSeries()
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, ks))
    else:
        results = [one(k) for k in ks]
    for res in results:
        if isinstance(res, TraceRecord):
            series.append(res)
        else:
            series.failures.append(res)
    return series
