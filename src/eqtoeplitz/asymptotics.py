"""Leading terms of the twisted traces, half-power remainder fits, and the
kernel-level validators (off-diagonal decay, near-diagonal scaling limits).

The leading term sums over fixed components of the descended symmetry:

    (k/pi)^(d_l) * h_l^k / c_l * chi(F_l) * int_{F_l} fbar

with the h^k chi factor averaged over the finite stabilizer coset, which
makes the prediction well-defined (and zero to rounding at levels where the
isotype is forced empty by the stabilizer character).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._intlinalg import NumericFailure, ProbeDomainError
from .geometry import ProjectiveModel
from .observables import Observable
from .reduction import effective_volume
from .symmetry import TorusAction, equivariant_kernel_pairs, moment_map, torus_grid_overlaps
from .toeplitz import TraceSeries, isotype_slice

__all__ = [
    "NumericFailure",
    "ProbeDomainError",
    "TracePrediction",
    "predict_toeplitz_leading",
    "FitReport",
    "compare_and_fit",
    "decay_probe",
    "TangentFrame",
    "tangent_frame",
    "ScalingProbe",
    "scaling_probe",
]


@dataclass(frozen=True)
class TracePrediction:
    """Leading-term predictor assembled from completed component reports."""

    reports: tuple
    varpi: tuple

    def component_terms(self, k: int) -> np.ndarray:
        out = []
        for rep in self.reports:
            if rep.c_l is None or rep.f_bar_integral is None:
                raise ValueError("component invariants incomplete; run "
                                 "component_invariants and f_bar_integral first")
            branch = complex(np.mean(rep.branch_phases(self.varpi, k)))
            term = ((k / math.pi) ** rep.d_l
                    * rep.h_l ** k / rep.c_l * rep.chi(self.varpi)
                    * rep.f_bar_integral * branch)
            out.append(term)
        return np.array(out, dtype=complex)

    def __call__(self, k: int) -> complex:
        if not self.reports:
            return 0.0 + 0.0j
        return complex(self.component_terms(k).sum())


def predict_toeplitz_leading(k: int, f: Observable, model: ProjectiveModel) -> float:
    """Leading term of the plain Toeplitz trace: (k/pi)^d int_M f vol_M."""
    return (k / math.pi) ** model.d * f.integral_over_M(model)


@dataclass(frozen=True)
class FitReport:
    """Half-power remainder fit of trace/prediction - 1."""

    order: int
    coefficients: np.ndarray      # complex, coefficient of k^{-a/2}, a = 1..order
    residual: float
    slope: float                  # log-log slope of |ratio - 1| on the top half
    slope_stderr: float
    slope_ci95: tuple
    condition: float
    exact: bool                   # ratio - 1 at rounding level everywhere
    k_last: int                   # the last fitted level and its |ratio - 1|
    rel_last: float

    def summary(self) -> str:
        lines = [f"fit order {self.order}: residual {self.residual:.3e}, "
                 f"condition {self.condition:.3e}"]
        for a, c in enumerate(self.coefficients, start=1):
            lines.append(f"  c[{a}] (k^-{a}/2): {c.real:+.6e} {c.imag:+.6e}j")
        if self.exact:
            lines.append("  ratio is 1 to rounding: expansion truncates")
        else:
            lines.append(f"  |ratio-1| log-log slope {self.slope:+.3f} "
                         f"(95% CI {self.slope_ci95[0]:+.3f}..{self.slope_ci95[1]:+.3f})")
        return "\n".join(lines)


def _loglog_slope(ks, values) -> tuple[float, float]:
    """Least-squares slope of log values against log k over the upper half
    of the levels (from index len // 2 on), with its standard error."""
    half = len(ks) // 2
    kk = np.log(np.asarray(ks[half:], dtype=float))
    vv = np.log(values[half:])
    A = np.stack([kk, np.ones_like(kk)], axis=1)
    sol, _, _, _ = np.linalg.lstsq(A, vv, rcond=None)
    dof = max(len(kk) - 2, 1)
    s2 = float(np.sum((vv - A @ sol) ** 2)) / dof
    sxx = float(np.sum((kk - kk.mean()) ** 2))
    return float(sol[0]), math.sqrt(s2 / sxx) if sxx > 0 else float("inf")


def compare_and_fit(series: TraceSeries, predictions, order: int,
                    cond_cap: float = 1e10) -> FitReport | None:
    """Least squares of trace/prediction - 1 against {k^{-1/2}, ..., k^{-A/2}}
    plus the empirical convergence order of |ratio - 1| over the top half of
    the levels; None when no level can be fitted.  Only levels k >= 1 with a
    nonempty isotype and a nonzero prediction are fitted: a forced-empty
    level's prediction is zero only to rounding."""
    ks = series.k_values.astype(float)
    preds = np.asarray(predictions, dtype=complex)
    mask = (series.dims > 0) & (np.abs(preds) > 0) & (ks >= 1)
    if not np.any(mask):
        return None
    if np.count_nonzero(mask) < order + 3:
        raise NumericFailure(f"need at least order+3 = {order + 3} usable levels, "
                             f"have {np.count_nonzero(mask)}")
    ks = ks[mask]
    ratio = series.traces[mask] / preds[mask]
    y = ratio - 1.0
    X = np.stack([ks ** (-a / 2.0) for a in range(1, order + 1)], axis=1)
    cond = float(np.linalg.cond(X))
    if cond > cond_cap:
        raise NumericFailure(f"rank-deficient fit design: condition {cond:.3e} "
                             f"over levels {ks.min():.0f}..{ks.max():.0f}")
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < order:
        raise NumericFailure(f"fit design rank {rank} < order {order}")
    resid = float(np.linalg.norm(y - X @ coef))

    exact = bool(np.max(np.abs(y)) < 1e-9)
    slope = -math.inf if exact else 0.0
    se = 0.0
    ci = (-math.inf, -math.inf)
    if not exact:
        slope, se = _loglog_slope(ks, np.maximum(np.abs(y), 1e-300))
        ci = (slope - 1.96 * se, slope + 1.96 * se)
    return FitReport(order=order, coefficients=coef, residual=resid, slope=slope,
                     slope_stderr=se, slope_ci95=ci, condition=cond, exact=exact,
                     k_last=int(ks[-1]), rel_last=float(np.abs(y[-1])))


# ---------------------------------------------------------------------------
# kernel-level validators

def orbit_distance(x, y, action: TorusAction, n_grid: int = 256) -> float:
    """min over the torus of the base distance between mu_t(x) and y."""
    best = max(float(np.max(np.abs(ov))) for _, ov in torus_grid_overlaps(x, y, action, n_grid))
    return math.sqrt(max(0.0, 2.0 - 2.0 * best))


@dataclass(frozen=True)
class DecayProbeResult:
    k_values: np.ndarray
    abs_values: np.ndarray
    slope: float
    floored: bool


#: the decay probe's pair must have |Phi(x)| or its orbit distance at least this
DECAY_MARGIN = 0.05


def decay_probe(x, y, varpi, action: TorusAction, model: ProjectiveModel,
                k_values) -> DecayProbeResult:
    """Fitted log-log decay exponent of |Pi_{varpi,k}(x, y)| on a k grid.

    Precondition: the pair lies off the concentration set, i.e. either the
    moment map is bounded away from zero at x or the points are on distinct
    orbits; both margins are checked numerically against DECAY_MARGIN.
    The slope is fitted over the upper half of the sorted levels, which must
    hold at least two distinct levels.
    """
    ks = np.array(sorted(int(k) for k in k_values))
    half = len(ks) // 2
    if len(set(ks[half:].tolist())) < 2:
        raise ProbeDomainError(
            f"decay fit needs two distinct levels in the upper half of k_values, "
            f"got {ks[half:].tolist()}")
    phin = float(np.linalg.norm(np.atleast_1d(moment_map(x, action))))
    odist = orbit_distance(x, y, action)
    if phin < DECAY_MARGIN and odist < DECAY_MARGIN:
        raise ProbeDomainError(
            f"probe pair lies in the concentration set (|Phi| = {phin:.3g}, "
            f"orbit distance = {odist:.3g}, threshold {DECAY_MARGIN})")
    vals = []
    floored = False
    xv, yv = np.asarray(x, dtype=complex)[None, :], np.asarray(y, dtype=complex)[None, :]
    for k in ks:
        iso = isotype_slice(k, varpi, action, model)
        v = abs(complex(equivariant_kernel_pairs(xv, yv, iso)[0]))
        if v < 1e-300:
            v = 1e-300
            floored = True
        vals.append(v)
    vals = np.array(vals)
    slope, _ = _loglog_slope(ks, vals)
    return DecayProbeResult(k_values=ks, abs_values=vals, slope=slope, floored=floored)


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal splitting of the tangent space at a zero-locus lift into
    transverse / vertical / horizontal blocks."""

    x: np.ndarray
    vertical: np.ndarray     # (g, d+1) rows: orthonormal basis of the orbit dirs
    transverse: np.ndarray   # (g, d+1) rows: i * vertical

    def decompose(self, v: np.ndarray):
        v = np.asarray(v, dtype=complex)
        vv = np.zeros_like(v)
        vt = np.zeros_like(v)
        for row in self.vertical:
            vv = vv + np.real(np.vdot(row, v)) * row
        for row in self.transverse:
            vt = vt + np.real(np.vdot(row, v)) * row
        return vt, vv, v - vv - vt


def tangent_frame(x, action: TorusAction) -> TangentFrame:
    xv = np.asarray(x, dtype=complex)
    if action.g == 0:
        z = np.zeros((0, xv.shape[0]), complex)
        return TangentFrame(x=xv, vertical=z, transverse=z)
    xi = 1j * (action.W * xv[None, :])          # (g, d+1) generator fields
    gram = np.real(xi @ np.conj(xi).T)
    L = np.linalg.cholesky(gram)
    vert = np.linalg.solve(L, xi)
    return TangentFrame(x=xv, vertical=vert, transverse=1j * vert)


def _displace(x: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    out = x + v / math.sqrt(k)
    return out / np.linalg.norm(out)


@dataclass(frozen=True)
class ScalingProbe:
    """Near-diagonal probe at a zero-locus base point: displacements w, v are
    ambient tangent vectors (orthogonal to the base point), rescaled by
    1/sqrt(k) before evaluation."""

    x: np.ndarray
    w: np.ndarray
    v: np.ndarray
    k_values: tuple


@dataclass(frozen=True)
class ScalingRow:
    k: int
    exact: complex
    predicted: complex
    abs_ratio: float
    phase_err: float


def scaling_probe(probe: ScalingProbe, varpi, action: TorusAction,
                  model: ProjectiveModel) -> list[ScalingRow]:
    """Exact equivariant kernel at x + w/sqrt(k), x + v/sqrt(k) against the
    predicted Gaussian leading term.

    Prediction: (k/pi)^(d - g/2) 2^(g/2) V_eff^-1 e^Q e^psi2 with
    Q = -|v_t|^2 - |w_t|^2 + i[omega(w_v, w_t) - omega(v_v, v_t)] and
    psi2 = <w_h, v_h> - (|w_h|^2 + |v_h|^2)/2.
    """
    xv = np.asarray(probe.x, dtype=complex)
    phin = float(np.linalg.norm(np.atleast_1d(moment_map(xv, action))))
    if phin > 1e-8:
        raise ProbeDomainError("scaling probe base point must lie on the zero locus")
    for vec in (probe.w, probe.v):
        if np.linalg.norm(vec) > 2.0 + 1e-12:
            raise ProbeDomainError("displacements must have norm at most 2")
        if abs(np.vdot(xv, vec)) > 1e-10:
            raise ProbeDomainError("displacements must be tangent (orthogonal to x)")
    frame = tangent_frame(xv, action)
    wt, wv, wh = frame.decompose(probe.w)
    vt, vv, vh = frame.decompose(probe.v)

    omega = lambda a, b: float(np.imag(np.sum(b * np.conj(a))))
    Q = (-np.linalg.norm(vt) ** 2 - np.linalg.norm(wt) ** 2
         + 1j * (omega(wv, wt) - omega(vv, vt)))
    psi2 = (complex(np.sum(wh * np.conj(vh)))
            - 0.5 * (np.linalg.norm(wh) ** 2 + np.linalg.norm(vh) ** 2))
    veff = effective_volume(xv, action)
    amp = 2.0 ** (action.g / 2.0) / veff * np.exp(Q + psi2)

    rows = []
    for k in sorted(int(k) for k in probe.k_values):
        iso = isotype_slice(k, varpi, action, model)
        xk = _displace(xv, probe.w, k)[None, :]
        yk = _displace(xv, probe.v, k)[None, :]
        exact = complex(equivariant_kernel_pairs(xk, yk, iso)[0])
        pred = complex((k / math.pi) ** (model.d - action.g / 2.0) * amp)
        ratio = abs(exact) / abs(pred) if pred != 0 else math.inf
        phase = float(np.angle(exact * np.conj(pred)))
        rows.append(ScalingRow(k=k, exact=exact, predicted=pred,
                               abs_ratio=ratio, phase_err=phase))
    return rows
