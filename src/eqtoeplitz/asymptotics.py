"""Leading terms of the twisted traces, the exact trace identity they are
checked against, and the kernel-level validators (off-diagonal decay,
near-diagonal scaling limits).

The leading term sums over fixed components of the descended symmetry:

    (k/pi)^(d_l) * h_l^k / c_l * chi(F_l) * int_{F_l} fbar

with the h^k chi factor averaged over the finite stabilizer coset, each
branch with its own normal factor c_l, which makes the prediction
well-defined (and zero to rounding at levels where the isotype is forced
empty by the stabilizer character).  The traces themselves are an exact
exponential quasi-polynomial in k whose roots and degrees the components
give (`compare_and_fit`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._intlinalg import NumericFailure, ProbeDomainError
from .geometry import ProjectiveModel
from .observables import Observable
from .reduction import effective_volume, zero_locus
from .symmetry import (TorusAction, equivariant_kernel_pairs, isotype_basis, moment_map,
                       torus_grid_overlaps)
from .toeplitz import TraceSeries

__all__ = [
    "NumericFailure",
    "ProbeDomainError",
    "TracePrediction",
    "predict_toeplitz_leading",
    "FitReport",
    "identity_roots",
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
            phases = rep.branch_phases(self.varpi, k)
            if rep.branch_weights is not None:
                phases = phases * rep.branch_weights
            branch = complex(np.mean(phases))
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


#: compare_and_fit refuses a design condition above COND_CAP; a level fits the
#: identity when it misses by at most MISS_TOL max |y|, and a top coefficient
#: of the prediction is nonzero above MISS_TOL times its unaveraged size
COND_CAP, MISS_TOL = 1e10, 1e-9

#: the identity on the top levels, window = (first, last): its unknowns and
#: design condition; k_star, the lowest level from which every level fits
#: (None when a fitted one misses), and the largest miss / max |y| from there
#: (else over the window); the largest top-coefficient gap / the top level's
#: unaveraged prediction; (support, f_bar, trace-side f_bar) per lone-root component
FitReport = namedtuple("FitReport",
                       "unknowns condition k_star miss window leading_gap f_bar_trace")


def _loglog_slope(ks, values) -> float:
    """Least-squares slope of log values against log k over the upper half
    of the levels (from index len // 2 on)."""
    half = len(ks) // 2
    kk = np.log(np.asarray(ks[half:], dtype=float))
    A = np.stack([kk, np.ones_like(kk)], axis=1)
    return float(np.linalg.lstsq(A, np.log(values[half:]), rcond=None)[0][0])


def _merge_roots(fed) -> list:
    """[root, degree, feeding components] of the (root, degree, component)
    triples fed, in order of first appearance: a root within 1e-8 of a merged
    one joins the lowest-indexed such, its degree the largest fed.  Merged
    roots are looked up in cells of 2e-8, a root's own and the adjacent ones."""
    merged, cells = [], {}
    for r, deg, l in fed:
        a, b = math.floor(r.real / 2e-8), math.floor(r.imag / 2e-8)
        near = (i for x in (a - 1, a, a + 1) for y in (b - 1, b, b + 1)
                for i in cells.get((x, y), ()) if abs(merged[i][0] - r) < 1e-8)
        i = min(near, default=len(merged))
        if i == len(merged):
            cells.setdefault((a, b), []).append(i)
            merged.append([r, deg, set()])
        merged[i][1] = max(merged[i][1], deg)
        merged[i][2].add(l)
    return merged


def identity_roots(reports, action: TorusAction, f: Observable, ks) -> list:
    """The roots of the identity the components imply for the traces at
    levels ks, [root, degree, feeding components]: component l feeds the
    roots (h_l e^{i <W_j0, th_s>} z)^step, th_s over its stabilizer coset, z
    over the q-th roots of unity (q the lcm of P's vertex denominators), with
    degree d_l + f.degree; equal roots merge (`_merge_roots`).  NumericFailure,
    before any trace, with fewer than unknowns (the degrees + 1) + 3 levels,
    and before the roots are listed when one coset phase feeds too many:
    q / gcd(q, step)."""
    step = math.gcd(*np.diff(ks).tolist()) or 1
    q = math.lcm(*(den for _, den in zero_locus(action).vertices))
    if len(ks) < q // math.gcd(q, step) + 3:
        raise NumericFailure(f"the trace identity has {q // math.gcd(q, step)} distinct roots and "
                             f"needs at least {q // math.gcd(q, step) + 3} levels, have {len(ks)}")
    z = np.exp(2j * math.pi * np.arange(q) / q)
    merged = _merge_roots((r, rep.d_l + f.degree, l) for l, rep in enumerate(reports)
                          for r in np.outer(rep.h_l * np.exp(1j * (rep.stab_angles @ rep._w_j0)),
                                            z).ravel() ** step)
    n = sum(deg + 1 for _, deg, _ in merged)
    if len(ks) < n + 3:
        raise NumericFailure(f"the trace identity has {n} unknowns and needs at least "
                             f"{n + 3} levels, have {len(ks)}")
    return merged


def compare_and_fit(series: TraceSeries, predictions, reports, roots, action: TorusAction,
                    f: Observable) -> FitReport | None:
    """The exact identity the components imply for the traces, and the
    predictions' top coefficients against it; None without components.

    y(k) = D(k) trace(k), D(k) = (k+d+1)...(k+d+B) with B the largest |beta|
    of f (an h-term counts 1), is sum_rho rho^((k - k_first)/step) Q_rho(k/k_max)
    from some k* on (Brion 1988), over the roots of `identity_roots` (roots,
    listed by the caller before its sweep).  y and D(k) prediction(k) are
    fitted on the top unknowns + 3 levels, whose design condition is read off
    the fit's singular values (NumericFailure above COND_CAP);
    f_bar a_trace / a_pred of their top coefficients on a root fed by one
    component alone is that component's trace-side f-bar.
    """
    if not reports:
        return None
    ks, kf = series.k_values, series.k_values.astype(float)
    D = np.prod(kf[:, None] + action.n_coords + np.arange(f.degree), axis=1)
    step = math.gcd(*np.diff(ks).tolist()) or 1
    n = sum(deg + 1 for _, deg, _ in roots)
    e, x, top = (ks - ks[0]) // step, kf / kf[-1], slice(len(ks) - n - 3, None)
    X = np.hstack([rho ** e[:, None] * x[:, None] ** np.arange(deg + 1) for rho, deg, _ in roots])
    Y = D[:, None] * np.stack([series.traces, np.asarray(predictions, dtype=complex)], axis=1)
    coef, _, _, sv = np.linalg.lstsq(X[top], Y[top], rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] else math.inf
    if cond > COND_CAP:
        raise NumericFailure(f"ill-conditioned identity design: condition {cond:.3e} "
                             f"over levels {ks[top][0]}..{ks[-1]}")
    miss = np.abs(Y[:, 0] - X @ coef[:, 0]) / (np.max(np.abs(Y[:, 0])) or 1.0)
    first = int(np.max(np.nonzero(miss > MISS_TOL)[0], initial=-1)) + 1
    holds = first <= top.start
    a_t, a_p = coef[np.cumsum([deg + 1 for _, deg, _ in roots]) - 1].T
    # the top level's prediction before its stabilizer averages, which can cancel
    # every top coefficient to rounding (an isotype empty at every level)
    size = D[-1] * sum((kf[-1] / math.pi) ** rep.d_l * abs(rep.f_bar_integral / rep.c_l)
                       * np.max(np.abs(1 if rep.branch_weights is None else rep.branch_weights))
                       for rep in reports) or 1.0
    lone = {}                  # component -> its lone root with the largest prediction
    for i in np.argsort(np.abs(a_p)):
        if len(roots[i][2]) == 1 and abs(a_p[i]) > MISS_TOL * size:
            lone[min(roots[i][2])] = i
    return FitReport(n, cond, int(ks[first]) if holds else None,
                     float(np.max(miss[first:] if holds else miss[top])),
                     (int(ks[top][0]), int(ks[-1])),
                     float(np.max(np.abs(a_t - a_p)) / size),
                     tuple((reports[l].support, reports[l].f_bar_integral,
                            reports[l].f_bar_integral * a_t[i] / a_p[i])
                           for l, i in sorted(lone.items())))


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
        iso = isotype_basis(k, varpi, action, model)
        v = abs(complex(equivariant_kernel_pairs(xv, yv, iso)[0]))
        if v < 1e-300:
            v = 1e-300
            floored = True
        vals.append(v)
    vals = np.array(vals)
    slope = _loglog_slope(ks, vals)
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
        iso = isotype_basis(k, varpi, action, model)
        xk = _displace(xv, probe.w, k)[None, :]
        yk = _displace(xv, probe.v, k)[None, :]
        exact = complex(equivariant_kernel_pairs(xk, yk, iso)[0])
        pred = complex((k / math.pi) ** (model.d - action.g / 2.0) * amp)
        ratio = abs(exact) / abs(pred) if pred != 0 else math.inf
        phase = float(np.angle(exact * np.conj(pred)))
        rows.append(ScalingRow(k=k, exact=exact, predicted=pred,
                               abs_ratio=ratio, phase_err=phase))
    return rows
