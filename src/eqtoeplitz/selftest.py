"""Calibration and invariant self-tests.

The run pins the circle-fiber constant and the three sign conventions
(lift phase, character orientation, moment-map sign) against independent
identities, then exercises each module's invariants at small sizes.  Every
run emits a calibration record; a debug flip flag forces a wrong convention
to demonstrate that the corresponding pin actually bites.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .geometry import (ProjectiveModel, kernel_pair_values, monomial_matrix, monomial_norm,
                       sample_sphere, section_basis, szego_kernel)
from .observables import Observable
from .reduction import (component_invariants, f_bar_integral, find_fixed_components,
                        reduced_volume)
from .symmetry import (DiagonalSymmetry, TorusAction, isotype_basis,
                       moment_polytope_contains, occurring_weights)
from .toeplitz import toeplitz_matrix, trace_psi, trace_via_kernel_quadrature
from .asymptotics import ScalingProbe, TracePrediction, scaling_probe, tangent_frame

__all__ = ["CalibrationRecord", "SelfTestResult", "run_selftest", "FLIPPABLE_PINS"]

FLIPPABLE_PINS = ("gamma-phase", "h-orientation", "moment-sign")


@dataclass(frozen=True)
class CalibrationRecord:
    kappa_x: float
    gamma_phase_sign: int
    chi_orientation: int
    moment_sign: int
    pinned_by: tuple

    def to_dict(self) -> dict:
        return asdict(self)


PINNED = CalibrationRecord(
    kappa_x=1.0,
    gamma_phase_sign=-1,      # lift eigenvalue e^{i k theta_A} e^{-i <phi, alpha>}
    chi_orientation=+1,       # chi_varpi(t) = e^{+i <varpi, theta>}
    moment_sign=-1,           # Phi = -(W u)
    pinned_by=("on-diagonal kernel scaling", "holomorphic fixed-point identity",
               "weight support principle", "reduced dimension slope"),
)


@dataclass(frozen=True)
class SelfTestResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, fn) -> SelfTestResult:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:   # a crash is a failure with the exception as detail
        ok, detail = False, f"exception: {exc!r}"
    return SelfTestResult(name=name, passed=bool(ok), detail=detail,
                          seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# individual checks

def check_kappa_calibration():
    """vol_X = kappa * vol_M: the projector-trace quadrature holds for any
    kappa by construction, but the on-diagonal scaling (pi/k)^d Pi_k(x,x) -> 1
    holds only for kappa = 1."""
    details = []
    winner = None
    for kappa in (1.0, 2.0 * math.pi):
        model = ProjectiveModel(2, kappa_x=kappa)
        pts = sample_sphere(2 ** 13, 11, model)
        k = 8
        diag = np.full(pts.shape[0], math.comb(k + 2, 2) / model.vol_X)
        quad = model.vol_X * float(np.mean(diag))
        quad_ok = abs(quad - math.comb(k + 2, 2)) < 1e-9
        big = 4096
        ratio = abs(szego_kernel(pts[0], pts[0], big, model)) * (math.pi / big) ** 2
        scale_ok = abs(ratio - 1.0) < 5e-3
        details.append(f"kappa={kappa:.4f}: projector-trace ok={quad_ok}, "
                       f"on-diag ratio={ratio:.6f}")
        if quad_ok and scale_ok:
            winner = kappa
    ok = winner == 1.0
    return ok, "; ".join(details) + f"; calibrated kappa_x={winner}"


def check_gamma_phase_pin(flip: bool = False):
    """Trivial-group fixed-point identity: the exact trace of the lifted
    symmetry equals the two-point leading term identically on the line."""
    model = ProjectiveModel(1)
    action = TorusAction(np.zeros((0, 2), dtype=np.int64))
    sym = DiagonalSymmetry(phi=[0.0, 1.3], phase_sign=(+1 if flip else -1))
    one = Observable.constant(1.0, 2)
    comps = [component_invariants(c, sym, action, model)
             for c in find_fixed_components(action, sym, model)]
    comps = [f_bar_integral(c, one, action, model) for c in comps]
    pred = TracePrediction(tuple(comps), ())
    worst = max(abs(trace_psi(k, (), one, sym, action, model) - pred(k))
                for k in range(0, 41))
    return worst < 1e-9, f"max |trace - leading| = {worst:.3e} over k <= 40"


def check_h_orientation_pin(flip: bool = False):
    """Same identity, sensitive to the orientation of the residual circle
    phase h_l."""
    model = ProjectiveModel(1)
    action = TorusAction(np.zeros((0, 2), dtype=np.int64))
    sym = DiagonalSymmetry(phi=[0.4, 2.2], theta_A=0.15)
    one = Observable.constant(1.0, 2)
    comps = [component_invariants(c, sym, action, model)
             for c in find_fixed_components(action, sym, model)]
    comps = [f_bar_integral(c, one, action, model) for c in comps]
    if flip:
        comps = [replace(c, h_l=np.conj(c.h_l)) for c in comps]
    pred = TracePrediction(tuple(comps), ())
    worst = max(abs(trace_psi(k, (), one, sym, action, model) - pred(k))
                for k in range(0, 41))
    return worst < 1e-9, f"max |trace - leading| = {worst:.3e} over k <= 40"


def check_moment_sign_pin(flip: bool = False):
    """Support principle: every occurring character label at level k lies in
    k times the moment image.  A flipped moment sign reflects the polytope
    and breaks containment for asymmetric weights."""
    model = ProjectiveModel(2)
    all_ok = True
    tested = 0
    for W in ([[1, -1, -1]], [[2, -1, 0]], [[1, -1, -1], [0, 1, -1]]):
        action = TorusAction(W)
        for k in (3, 7, 12):
            basis = section_basis(k, model)
            for w in occurring_weights(k, action, basis):
                tested += 1
                target = np.asarray(w, dtype=float) * (-1.0 if flip else 1.0)
                if not moment_polytope_contains(action, target, scale=float(k)):
                    all_ok = False
    return all_ok, f"checked {tested} occurring labels against the moment polytope"


def check_projector_partition():
    model = ProjectiveModel(2)
    action = TorusAction([[1, -1, -1]])
    rng_pts = sample_sphere(2, 23, model)
    err = 0.0
    dims_ok = True
    for k in (5, 12, 40):
        basis = section_basis(k, model)
        total = 0.0 + 0.0j
        dsum = 0
        for w in occurring_weights(k, action, basis):
            iso = isotype_basis(k, w, action, basis)
            dsum += iso.dim
            total += kernel_pair_values(rng_pts[:1], rng_pts[1:], iso.indices,
                                        iso.log_norms)[0]
        err = max(err, abs(total - szego_kernel(rng_pts[0], rng_pts[1], k, model)))
        dims_ok = dims_ok and (dsum == model.dim_sections(k))
    return err < 1e-10 and dims_ok, f"partition error {err:.2e}, dimension bookkeeping ok={dims_ok}"


def check_norm_table():
    model = ProjectiveModel(1)
    ok1 = abs(monomial_norm([0, 0], model) - model.vol_X) < 1e-12
    ok2 = abs(monomial_norm([1, 1], model) - model.vol_X / 6) < 1e-12
    model2 = ProjectiveModel(2)
    ok3 = abs(monomial_norm([1, 0, 0], model2) - model2.vol_X / 3) < 1e-12
    perm = abs(monomial_norm([3, 1, 2], model2) - monomial_norm([1, 2, 3], model2)) < 1e-15
    return ok1 and ok2 and ok3 and perm, "norm closed forms and permutation symmetry"


def check_reproducing_property():
    model = ProjectiveModel(1)
    k = 6
    basis = section_basis(k, model)
    pts = sample_sphere(2 ** 16, 5, model)
    xs = sample_sphere(3, 99, model)
    vals_y = monomial_matrix(pts, basis.indices)           # z^alpha(y)
    worst = 0.0
    for x in xs:
        # quadrature of Pi_k(x, y) z^alpha(y) over y, for alpha = (k, 0)
        kxy = kernel_pair_values(np.repeat(x[None, :], pts.shape[0], 0), pts,
                                 basis.indices, basis.log_norms)
        est = model.vol_X * np.mean(kxy * vals_y[:, 0])
        exact = x[0] ** k
        worst = max(worst, abs(est - exact))
    return worst < 5e-3, f"max reproducing error {worst:.2e} at 2^16 nodes"


def check_toeplitz_closed_forms():
    model = ProjectiveModel(1)
    action = TorusAction(np.zeros((0, 2), dtype=np.int64))
    sym = DiagonalSymmetry(phi=[0.0, 0.0])
    u0 = Observable.coordinate_modulus(0, 2)
    worst = max(abs(trace_psi(k, (), u0, sym, action, model) - (k + 1) / 2)
                for k in range(1, 41))
    h = np.zeros((2, 2), complex)
    h[0, 1] = 0.3 + 0.2j
    h[1, 0] = 0.3 - 0.2j
    f = Observable(u_terms={(1, 0): 0.5}, h_term=h)
    iso = isotype_basis(8, (), action, section_basis(8, model))
    T = toeplitz_matrix(f, iso, model)
    herm = float(np.max(np.abs(T - T.conj().T)))
    return worst < 1e-10 and herm < 1e-12, \
        f"(k+1)/2 error {worst:.2e}; Hermiticity defect {herm:.2e}"


def check_trace_quadrature():
    model = ProjectiveModel(1)
    action = TorusAction(np.zeros((0, 2), dtype=np.int64))
    sym = DiagonalSymmetry(phi=[0.0, 0.0])
    u0 = Observable.coordinate_modulus(0, 2)
    alg = trace_psi(10, (), u0, sym, action, model)
    est, err = trace_via_kernel_quadrature(10, (), u0, sym, action, model,
                                           n_samples=2 ** 15, seed=31)
    ok = abs(est - alg) <= 3 * err + 1e-12
    return ok, f"|quad - alg| = {abs(est - alg):.3e} vs 3 sigma = {3 * err:.3e}"


def check_dimension_case():
    model = ProjectiveModel(1)
    action = TorusAction([[1, -1]])
    ok = True
    for k in range(0, 41):
        iso = isotype_basis(k, (0,), action, section_basis(k, model))
        ok = ok and (iso.dim == (1 if k % 2 == 0 else 0))
    return ok, "isotype dimension on the line matches parity rule for k <= 40"


def check_reduced_volume_point():
    model = ProjectiveModel(1)
    action = TorusAction([[1, -1]])
    vol, err = reduced_volume(action, model, 100_000, seed=17)
    ok = abs(vol - 1.0) <= 5 * err + 5e-3
    return ok, f"vol = {vol:.5f} +- {err:.1e} (target 1)"


def check_scaling_gaussian():
    model = ProjectiveModel(1)
    action = TorusAction([[1, -1]])
    x = np.array([1.0, 1.0], complex) / math.sqrt(2)
    fr = tangent_frame(x, action)
    vt = 0.8 * fr.transverse[0]
    rows = scaling_probe(ScalingProbe(x=x, w=vt, v=vt, k_values=(300,)), (0,),
                         action, model)
    ok = abs(rows[0].abs_ratio - 1.0) < 0.1
    return ok, f"transverse Gaussian ratio {rows[0].abs_ratio:.4f} at k=300"


def check_sampler_determinism():
    model = ProjectiveModel(2)
    a = sample_sphere(4096, 7, model)
    b = sample_sphere(4096, 7, model)
    c = sample_sphere(4096, 8, model)
    ok = np.array_equal(a, b) and not np.array_equal(a, c)
    return ok, "same seed is bit-identical; different seed differs"


def run_selftest(flip_pin: str | None = None) -> tuple[list, CalibrationRecord]:
    """Run the calibration sequence and the module invariant suites.

    flip_pin forces one convention wrong so the suite demonstrably catches
    it (negative control)."""
    if flip_pin is not None and flip_pin not in FLIPPABLE_PINS:
        raise ValueError(f"unknown pin {flip_pin!r}; choose from {FLIPPABLE_PINS}")
    checks = [
        ("calibrate-kappa-x", check_kappa_calibration),
        ("pin-gamma-phase", lambda: check_gamma_phase_pin(flip=(flip_pin == "gamma-phase"))),
        ("pin-h-orientation", lambda: check_h_orientation_pin(flip=(flip_pin == "h-orientation"))),
        ("pin-moment-sign", lambda: check_moment_sign_pin(flip=(flip_pin == "moment-sign"))),
        ("projector-partition", check_projector_partition),
        ("monomial-norms", check_norm_table),
        ("reproducing-property", check_reproducing_property),
        ("toeplitz-closed-forms", check_toeplitz_closed_forms),
        ("trace-quadrature-identity", check_trace_quadrature),
        ("isotype-dimension-rule", check_dimension_case),
        ("reduced-volume-point", check_reduced_volume_point),
        ("scaling-gaussian", check_scaling_gaussian),
        ("sampler-determinism", check_sampler_determinism),
    ]
    results = [_check(name, fn) for name, fn in checks]
    return results, PINNED
