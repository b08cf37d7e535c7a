"""Calibration and invariant self-tests.

The run pins the circle-fiber constant and the three sign conventions
(lift phase, character orientation, moment-map sign) against independent
identities, then exercises each module's invariants at small sizes.  Every
run emits a calibration record; a debug flip flag forces a wrong convention
to demonstrate that the corresponding pin actually bites.  Each check_*
function is the one written form of its identity: the test suite calls the
same checks with its own levels and tolerances.  The sphere integrals run
on the exact cubature `geometry.sphere_cubature` and hold to rounding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .config import FLIPPABLE_PINS, PINNED, CalibrationRecord
from .geometry import (ProjectiveModel, kernel_pair_values, monomial_norm, sample_sphere,
                       section_basis, sphere_cubature, szego_kernel)
from .observables import Observable
from .reduction import (component_invariants, f_bar_integral, find_fixed_components,
                        reduced_volume)
from .symmetry import (DiagonalSymmetry, TorusAction, equivariant_kernel_pairs, isotype_basis,
                       moment_polytope_contains, occurring_weights)
from .toeplitz import toeplitz_matrix, trace_psi, trace_via_kernel_quadrature
from .asymptotics import ScalingProbe, TracePrediction, scaling_probe, tangent_frame

__all__ = ["CalibrationRecord", "SelfTestResult", "run_selftest", "FLIPPABLE_PINS",
           "PIN_CHECKS"]


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
# individual checks; keyword defaults are the selftest's parameters

def check_kappa_calibration():
    """vol_X = kappa * vol_M: the projector-trace quadrature
    int_X Pi_k(x, x) = dim H^0_k holds for any kappa, but the on-diagonal
    scaling (pi/k)^d Pi_k(x,x) -> 1 holds only for kappa = 1."""
    details = []
    winner = None
    pts, weights = sphere_cubature(2, 8)
    for kappa in (1.0, 2.0 * math.pi):
        model = ProjectiveModel(2, kappa_x=kappa)
        basis = section_basis(8, model)
        diag = np.real(kernel_pair_values(pts, pts, basis.indices, basis.log_norms))
        quad_ok = abs(model.vol_X * float(weights @ diag) - model.dim_sections(8)) < 1e-9
        ratio = abs(szego_kernel(pts[0], pts[0], 4096, model)) * (math.pi / 4096) ** 2
        scale_ok = abs(ratio - 1.0) < 5e-3
        details.append(f"kappa={kappa:.4f}: projector-trace ok={quad_ok}, "
                       f"on-diag ratio={ratio:.6f}")
        if quad_ok and scale_ok:
            winner = kappa
    ok = winner == 1.0
    return ok, "; ".join(details) + f"; calibrated kappa_x={winner}"


def check_fixed_point_pin(flip=None, phi=(0.0, 1.3), theta_A=0.0, levels=range(41),
                          tol=1e-9):
    """Trivial-group holomorphic fixed-point identity on P^d, d = len(phi) - 1:
    the exact trace of the lifted symmetry equals the leading term over its
    isolated fixed points at every level.  flip="gamma-phase" reverses the
    lift phase sign; flip="h-orientation" conjugates the residual circle
    phase h_l.  Either breaks the identity for non-degenerate phases."""
    n = len(phi)
    model = ProjectiveModel(n - 1)
    action = TorusAction(np.zeros((0, n), dtype=np.int64))
    sym = DiagonalSymmetry(phi=phi, theta_A=theta_A)
    # the reversed lift eigenvalue e^{i k theta_A} e^{+i <phi, alpha>} is the
    # pinned one of the symmetry with phases -phi, so that one is traced
    traced = replace(sym, phi=-sym.phi) if flip == "gamma-phase" else sym
    one = Observable.constant(1.0, n)
    comps = [f_bar_integral(component_invariants(c, sym, action, model), one, action, model)
             for c in find_fixed_components(action, sym, model)]
    if flip == "h-orientation":
        comps = [replace(c, h_l=np.conj(c.h_l)) for c in comps]
    pred = TracePrediction(tuple(comps), ())
    worst = max(abs(trace_psi(k, (), one, traced, action, model) - pred(k)) for k in levels)
    return worst < tol, f"max |trace - leading| = {worst:.3e} over k <= {max(levels)}"


def check_moment_sign_pin(flip=None, d=2,
                          weights=([[1, -1, -1]], [[2, -1, 0]], [[1, -1, -1], [0, 1, -1]]),
                          levels=(3, 7, 12)):
    """Support principle: every occurring character label at level k lies in
    k times the moment image.  flip="moment-sign" reflects the polytope,
    which breaks containment for asymmetric weights."""
    model = ProjectiveModel(d)
    sign = -1.0 if flip == "moment-sign" else 1.0
    all_ok = True
    tested = 0
    for W in weights:
        action = TorusAction(W)
        for k in levels:
            basis = section_basis(k, model)
            for w in occurring_weights(action, basis):
                tested += 1
                target = np.asarray(w, dtype=float) * sign
                if not moment_polytope_contains(action, target, scale=float(k)):
                    all_ok = False
    return all_ok, f"checked {tested} occurring labels against the moment polytope"


def check_projector_partition(levels=(5, 12, 40), W=((1, -1, -1),)):
    """The isotype kernels of W (default (1, -1, -1), on P^2; d + 1 is its
    width) sum to the full kernel at two fixed generic points (no zero
    coordinate, distinct moduli and phases), the dimensions to dim H^0_k."""
    action = TorusAction(W)
    model = ProjectiveModel(action.n_coords - 1)
    j = np.arange(1.0, action.n_coords + 1)
    x, y = np.sqrt(j) * np.exp(1j * j), np.sqrt(j + 0.5) * np.exp(1j * (j - j * j / 5))
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    err = 0.0
    dims_ok = True
    for k in levels:
        basis = section_basis(k, model)
        total = 0.0 + 0.0j
        dsum = 0
        for w in occurring_weights(action, basis):
            iso = isotype_basis(k, w, action, basis)
            dsum += iso.dim
            total += equivariant_kernel_pairs(x, y, iso)[0]
        err = max(err, abs(total - szego_kernel(x, y, k, model)))
        dims_ok = dims_ok and (dsum == model.dim_sections(k))
    return err < 1e-10 and dims_ok, \
        f"partition error {err:.2e}, dimension bookkeeping ok={dims_ok}"


def check_norm_table(closed_forms=((1, (0, 0), 1), (1, (1, 1), 6), (2, (1, 0, 0), 3)),
                     permutations=((2, (3, 1, 2), (1, 2, 3)),), tol=1e-12, perm_tol=1e-15):
    """Closed-form norms N(alpha) = vol_X / q for (d, alpha, q) and their
    invariance under a permutation of the coordinates for (d, alpha, beta)."""
    ok = all(abs(monomial_norm(alpha, ProjectiveModel(d)) - ProjectiveModel(d).vol_X / q) < tol
             for d, alpha, q in closed_forms)
    ok = ok and all(abs(monomial_norm(a, ProjectiveModel(d))
                        - monomial_norm(b, ProjectiveModel(d))) < perm_tol
                    for d, a, b in permutations)
    return ok, "norm closed forms and permutation symmetry"


def check_reproducing_property(d=1, k=6, alpha=None, tol=1e-12):
    """Quadrature of the closed-form kernel binom(k+d, d)/vol_X <x, y>^k
    against z^alpha(y), |alpha| = k, reproduces z^alpha(x) at every node x
    of `sphere_cubature(d, 2)`; alpha defaults to (k, 0, ..., 0).  The
    integrand has bidegree (k, k) in y and is phase-invariant, so
    `sphere_cubature(d, k)` integrates it exactly."""
    alpha = np.array((k,) + (0,) * d if alpha is None else alpha)
    if alpha.sum() != k:
        raise ValueError(f"|alpha| = {alpha.sum()} is not the level k = {k}")
    ys, weights = sphere_cubature(d, k)
    # vol_X times the kernel's constant is binom(k+d, d), whatever vol_X is
    wy = ProjectiveModel(d).dim_sections(k) * weights * np.prod(ys ** alpha, axis=1)
    worst = max(abs(wy @ (ys.conj() @ x) ** k - np.prod(x ** alpha))
                for x in sphere_cubature(d, 2)[0])
    return worst < tol, f"max reproducing error {worst:.2e} on {len(ys)} cubature nodes"


def check_toeplitz_closed_forms(levels=range(1, 41), f=None, herm_level=8):
    """trace T_k(u_0) = (k+1)/2 on P^1, and the dense Toeplitz matrix of the
    real observable f (P^1, level herm_level) is Hermitian."""
    model = ProjectiveModel(1)
    action = TorusAction(np.zeros((0, 2), dtype=np.int64))
    sym = DiagonalSymmetry(phi=[0.0, 0.0])
    u0 = Observable.coordinate_modulus(0, 2)
    worst = max(abs(trace_psi(k, (), u0, sym, action, model) - (k + 1) / 2) for k in levels)
    if f is None:
        f = Observable(u_terms={(1, 0): 0.5},
                       h_term=np.array([[0.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.0]]))
    iso = isotype_basis(herm_level, (), action, section_basis(herm_level, model))
    T = toeplitz_matrix(f, iso, model)
    herm = float(np.max(np.abs(T - T.conj().T)))
    return worst < 1e-10 and herm < 1e-12, \
        f"(k+1)/2 error {worst:.2e}; Hermiticity defect {herm:.2e}"


def check_trace_quadrature(phi=(0.0, 0.0), W=None, varpi=(), f=None, k=10, tol=1e-12):
    """The exact trace on P^d, d = len(phi) - 1, against the independent
    circle-bundle quadrature, to tol relative.  W defaults to the trivial
    group, f to u_0."""
    n = len(phi)
    model = ProjectiveModel(n - 1)
    action = TorusAction(np.zeros((0, n), dtype=np.int64) if W is None else W)
    sym = DiagonalSymmetry(phi=phi)
    f = Observable.coordinate_modulus(0, n) if f is None else f
    alg = trace_psi(k, varpi, f, sym, action, model)
    miss = abs(trace_via_kernel_quadrature(k, varpi, f, sym, action, model) - alg)
    return miss <= tol * abs(alg), f"|quad - alg| = {miss:.3e}, |alg| = {abs(alg):.3e}"


def check_dimension_case(levels=range(41)):
    """Under W = (1, -1) on P^1 the invariant isotype is one-dimensional at
    even levels and empty at odd ones."""
    model = ProjectiveModel(1)
    action = TorusAction([[1, -1]])
    ok = True
    for k in levels:
        iso = isotype_basis(k, (0,), action, section_basis(k, model))
        ok = ok and (iso.dim == (1 if k % 2 == 0 else 0))
    return ok, f"isotype dimension on the line matches parity rule for k <= {max(levels)}"


def check_reduced_volume_point(n_samples=100_000, seed=17, sigmas=5):
    """The reduced space of W = (1, -1) on P^1 is a point of volume 1."""
    model = ProjectiveModel(1)
    action = TorusAction([[1, -1]])
    vol, err = reduced_volume(action, model, n_samples, seed=seed)
    ok = abs(vol - 1.0) <= sigmas * err + 5e-3
    return ok, f"vol = {vol:.5f} +- {err:.1e} (target 1)"


def check_scaling_gaussian(scales=(0.8,), levels=(300,), phase_tol=math.inf):
    """The equivariant kernel at transverse displacements s * v_t / sqrt(k)
    of the zero-locus point of W = (1, -1) on P^1 matches the predicted
    Gaussian in modulus (and in phase, to phase_tol)."""
    model = ProjectiveModel(1)
    action = TorusAction([[1, -1]])
    x = np.array([1.0, 1.0], complex) / math.sqrt(2)
    vt = tangent_frame(x, action).transverse[0]
    rows = [row for s in scales
            for row in scaling_probe(ScalingProbe(x=x, w=s * vt, v=s * vt,
                                                  k_values=tuple(levels)),
                                     (0,), action, model)]
    worst = max(rows, key=lambda r: abs(r.abs_ratio - 1.0))
    ok = all(abs(r.abs_ratio - 1.0) < 0.1 and abs(r.phase_err) < phase_tol for r in rows)
    return ok, f"transverse Gaussian ratio {worst.abs_ratio:.4f} at k={worst.k}"


def check_sampler_determinism(seed=7):
    """The same seed draws a bit-identical sample; seed + 1 a different one."""
    model = ProjectiveModel(2)
    a = sample_sphere(4096, seed, model)
    b = sample_sphere(4096, seed, model)
    c = sample_sphere(4096, seed + 1, model)
    ok = np.array_equal(a, b) and not np.array_equal(a, c)
    return ok, "same seed is bit-identical; different seed differs"


#: each flippable pin (`config.FLIPPABLE_PINS`): its selftest name, its check
#: and the selftest's parameters
PIN_CHECKS = {
    "gamma-phase": ("pin-gamma-phase", check_fixed_point_pin, {}),
    "h-orientation": ("pin-h-orientation", check_fixed_point_pin,
                      {"phi": (0.4, 2.2), "theta_A": 0.15}),
    "moment-sign": ("pin-moment-sign", check_moment_sign_pin, {}),
}


def run_selftest(flip_pin: str | None = None) -> tuple[list, CalibrationRecord]:
    """Run the calibration sequence and the module invariant suites.

    flip_pin forces one convention wrong so the suite demonstrably catches
    it (negative control)."""
    if flip_pin is not None and flip_pin not in FLIPPABLE_PINS:
        raise ValueError(f"unknown pin {flip_pin!r}; choose from {FLIPPABLE_PINS}")
    pins = [(name, partial(check, flip=pin if pin == flip_pin else None, **params))
            for pin, (name, check, params) in PIN_CHECKS.items()]
    checks = [
        ("calibrate-kappa-x", check_kappa_calibration),
        *pins,
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
