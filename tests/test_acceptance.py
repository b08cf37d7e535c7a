"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line."""

import hashlib
import json
import math
import time

import numpy as np

from eqtoeplitz.cli import main as cli_main
from eqtoeplitz.geometry import ProjectiveModel, section_basis
from eqtoeplitz.observables import Observable
from eqtoeplitz.reduction import (component_invariants, f_bar_integral,
                                  find_fixed_components, reduced_volume, vanishing_level)
from eqtoeplitz.selftest import run_selftest
from eqtoeplitz.symmetry import DiagonalSymmetry, TorusAction, isotype_basis, occurring_weights
from eqtoeplitz.toeplitz import trace_psi, trace_sweep, trace_via_kernel_quadrature
from eqtoeplitz.asymptotics import (ScalingProbe, TracePrediction, decay_probe,
                                    predict_toeplitz_leading, scaling_probe,
                                    tangent_frame)


def report(num, ok, label, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {label}: {detail} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def completed_components(action, sym, model, f, n=2 ** 17, seed=5):
    comps = [component_invariants(c, sym, action, model)
             for c in find_fixed_components(action, sym, model)]
    return [f_bar_integral(c, f, action, model, n, seed) for c in comps]


def test_criterion_1_toeplitz_trace_expansion(p1, trivial_g1):
    t0 = time.perf_counter()
    u0 = Observable.coordinate_modulus(0, 2)
    sym = DiagonalSymmetry(phi=[0.0, 0.0])
    worst_trace, worst_ratio = 0.0, 0.0
    for k in range(1, 101):
        tr = trace_psi(k, (), u0, sym, trivial_g1, p1)
        worst_trace = max(worst_trace, abs(tr - (k + 1) / 2))
        ratio = tr / predict_toeplitz_leading(k, u0, p1)
        worst_ratio = max(worst_ratio, abs(ratio - (1 + 1 / k)))
    ok = worst_trace <= 1e-10 and worst_ratio <= 1e-12
    report(1, ok, "Toeplitz trace expansion",
           f"max |trace-(k+1)/2| = {worst_trace:.2e} (tol 1e-10), "
           f"max |ratio-(1+1/k)| = {worst_ratio:.2e} (tol 1e-12)",
           time.perf_counter() - t0, 1.0)


def test_criterion_2_lefschetz_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for d, phis in ((1, [0.0, 2.2]), (2, [0.0, 0.9, 2.1])):
        model = ProjectiveModel(d)
        action = TorusAction(np.zeros((0, d + 1), dtype=np.int64))
        sym = DiagonalSymmetry(phi=phis)
        one = Observable.constant(1.0, d + 1)
        pred = TracePrediction(tuple(completed_components(action, sym, model, one)), ())
        for k in range(0, 201):
            tr = trace_psi(k, (), one, sym, action, model)
            worst = max(worst, abs(tr - pred(k)))
    ok = worst <= 1e-8
    report(2, ok, "holomorphic fixed-point exactness",
           f"max |trace - leading| = {worst:.2e} over d in (1,2), k <= 200 (tol 1e-8)",
           time.perf_counter() - t0, 5.0)


def test_criterion_3_equivariant_dimension(p2, circle_p2):
    t0 = time.perf_counter()
    # independent enumeration oracle for the isotype dimension
    def oracle_dim(k):
        return sum(1 for b in range(k // 2 + 1) for c in [k // 2 - b]
                   if c >= 0 and (k % 2 == 0))

    dims_ok = True
    for k in range(20, 401, 2):
        dim = isotype_basis(k, (0,), circle_p2, section_basis(k, p2)).dim
        if dim != k // 2 + 1 or dim != oracle_dim(k):
            dims_ok = False
    vol, err = reduced_volume(circle_p2, p2, 1_000_000, seed=41)
    slope_ok = True
    worst_gap = 0.0
    for k in range(20, 401, 2):
        gap = abs((k // 2 + 1) * math.pi / k - vol)
        worst_gap = max(worst_gap, gap - (5.0 / k + 3 * err))
        if gap > 5.0 / k + 3 * err:
            slope_ok = False
    value_ok = abs(vol - math.pi / 2) <= 3 * err + 5e-3
    ok = dims_ok and slope_ok and value_ok
    report(3, ok, "equivariant dimension asymptotics",
           f"dims exact, vol(M0) = {vol:.5f} +- {err:.1e} vs pi/2 = {math.pi / 2:.5f}, "
           f"max slope-gap excess {worst_gap:.2e}",
           time.perf_counter() - t0, 60.0)


def test_criterion_4_twisted_trace_leading(p2, circle_p2):
    t0 = time.perf_counter()
    sym = DiagonalSymmetry(phi=[0.0, 1.1, 3.7])
    u1 = Observable.coordinate_modulus(1, 3)
    pred = TracePrediction(tuple(completed_components(circle_p2, sym, p2, u1)), (0,))

    dense = list(range(40, 401, 8))
    errs_dense = []
    for k in dense:
        tr = trace_psi(k, (0,), u1, sym, circle_p2, p2)
        errs_dense.append(abs(tr / pred(k) - 1))
    end_ok = errs_dense[-1] <= 0.1

    # eventual monotonicity on the dyadic refinement of the tested grid
    dyadic = [50, 100, 200, 400]
    errs_dyadic = [abs(trace_psi(k, (0,), u1, sym, circle_p2, p2) / pred(k) - 1)
                   for k in dyadic]
    mono_from = next((i for i in range(len(errs_dyadic))
                      if all(np.diff(errs_dyadic[i:]) < 0)), None)
    mono_ok = mono_from is not None and mono_from <= len(errs_dyadic) - 3

    # log-log slope with 95% confidence over the dense tested grid
    kk = np.log(np.array(dense, float))
    vv = np.log(np.array(errs_dense))
    A = np.stack([kk, np.ones_like(kk)], axis=1)
    sol, _, _, _ = np.linalg.lstsq(A, vv, rcond=None)
    resid = vv - A @ sol
    s2 = float(np.sum(resid ** 2)) / (len(kk) - 2)
    se = math.sqrt(s2 / float(np.sum((kk - kk.mean()) ** 2)))
    upper95 = sol[0] + 1.96 * se
    slope_ok = upper95 <= -0.45

    ok = end_ok and mono_ok and slope_ok
    report(4, ok, "full twisted-trace leading term",
           f"|ratio-1|@400 = {errs_dense[-1]:.4f} (tol 0.1), dyadic errors "
           f"{['%.4f' % e for e in errs_dyadic]} monotone from {mono_from}, "
           f"slope {sol[0]:.3f} (95% upper {upper95:.3f} <= -0.45)",
           time.perf_counter() - t0, 120.0)


def test_criterion_5_vanishing(p1):
    t0 = time.perf_counter()
    action = TorusAction([[1, 1]])
    varpi = (-6,)
    one = Observable.constant(1.0, 2)
    sym = DiagonalSymmetry(phi=[0.0, 0.0])
    k0 = vanishing_level(action, varpi)
    series = trace_sweep(range(0, 41), varpi, one, sym, action, p1)
    zero_beyond = all(rec.trace == 0 for rec in series.records if rec.k >= k0)
    attained = any(rec.dim_isotype > 0 and rec.k == k0 - 1 for rec in series.records)
    ok = k0 == 7 and zero_beyond and attained
    report(5, ok, "vanishing beyond the weight range",
           f"k0 = {k0} (weight bound, attained at k0-1), trace == 0 for k >= k0",
           time.perf_counter() - t0, 1.0)


def test_criterion_6_trace_identity_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    hits, total, worst = 0, 40, 0.0
    for trial in range(total):
        d = int(rng.integers(1, 3))
        model = ProjectiveModel(d)
        g = int(rng.integers(0, 2))
        while True:
            W = rng.integers(-2, 3, size=(g, d + 1))
            if g == 0 or np.any(W != 0):
                break
        action = TorusAction(W)
        sym = DiagonalSymmetry(phi=rng.uniform(0, 2 * math.pi, size=d + 1),
                               theta_A=float(rng.uniform(0, 1)))
        beta = tuple(int(b) for b in rng.integers(0, 3, size=d + 1))
        f = Observable(u_terms={beta: float(rng.uniform(0.2, 2.0))})
        k = int(rng.integers(4, 13))
        basis = section_basis(k, model)
        ws = occurring_weights(action, basis)
        varpi = tuple(int(v) for v in ws[rng.integers(0, len(ws))])
        alg = trace_psi(k, varpi, f, sym, action, model)
        miss = abs(trace_via_kernel_quadrature(k, varpi, f, sym, action, model) - alg)
        worst = max(worst, miss / abs(alg))
        hits += miss <= 1e-10 * abs(alg)
    ok = hits == total
    report(6, ok, "trace identity (algebraic vs exact circle-bundle cubature)",
           f"{hits}/{total} within 1e-10 relative (largest miss {worst:.1e})",
           time.perf_counter() - t0, 180.0)


def test_criterion_7_scaling_validators(p1, trivial_g1, circle_p1):
    t0 = time.perf_counter()
    x = np.array([1, 0], complex)
    w = np.array([0, 1], complex)
    rows = scaling_probe(ScalingProbe(x=x, w=w, v=np.zeros(2, complex),
                                      k_values=(500,)), (), trivial_g1, p1)
    horiz = abs(rows[0].exact) * math.pi / 500
    horiz_ok = abs(horiz / math.exp(-0.5) - 1) <= 0.05

    xb = np.array([1, 1], complex) / math.sqrt(2)
    fr = tangent_frame(xb, circle_p1)
    trans_ok = True
    worst = 0.0
    for s in (0.5, 1.0):
        vt = s * fr.transverse[0]
        r = scaling_probe(ScalingProbe(x=xb, w=vt, v=vt, k_values=(500,)),
                          (0,), circle_p1, p1)[0]
        r0 = scaling_probe(ScalingProbe(x=xb, w=0 * vt, v=0 * vt, k_values=(500,)),
                           (0,), circle_p1, p1)[0]
        gauss = abs(r.exact) / abs(r0.exact)
        dev = abs(gauss / math.exp(-2 * s * s) - 1)
        worst = max(worst, dev)
        trans_ok = trans_ok and dev <= 0.10
    ok = horiz_ok and trans_ok
    report(7, ok, "near-diagonal scaling limits",
           f"horizontal (pi/k)|Pi| = {horiz:.4f} vs e^-1/2 = {math.exp(-0.5):.4f} "
           f"(tol 5%), transverse Gaussian max dev {worst:.3f} (tol 10%)",
           time.perf_counter() - t0, 30.0)


def test_criterion_8_off_diagonal_decay(p2, circle_p2):
    t0 = time.perf_counter()
    x = np.array([math.sqrt(0.8), math.sqrt(0.15), math.sqrt(0.05)], complex)
    from eqtoeplitz.symmetry import moment_map
    phin = float(np.linalg.norm(moment_map(x, circle_p2)))
    res = decay_probe(x, x, (0,), circle_p2, p2, range(20, 301, 20))
    ok = phin >= 0.3 and res.slope <= -5.0
    report(8, ok, "off-diagonal rapid decay",
           f"|Phi| = {phin:.2f}, fitted log-log slope {res.slope:.1f} (need <= -5)",
           time.perf_counter() - t0, 10.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "schema_version": 1,
        "model": {"d": 2},
        "action": {"W": [[1, -1, -1]]},
        "symmetry": {"phi": [0.0, 1.1, 3.7]},
        "observable": {"u_terms": [{"beta": [0, 1, 0], "coef": 1.0}]},
        "isotype": [0],
        "k_range": {"min": 40, "max": 120, "step": 8},
        "sampling": {"n_samples": 50000, "seed": 7},
        "fit": {"order": 3},
        "output_dir": str(tmp_path / "o"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    hashes = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert cli_main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256()
        for name in ("comparison.csv", "components.csv"):
            digest.update((out / name).read_bytes())
        hashes.append(digest.hexdigest())
    identical = hashes[0] == hashes[1]

    ts = time.perf_counter()
    results, _ = run_selftest()
    selftest_time = time.perf_counter() - ts
    suite_ok = all(r.passed for r in results)
    ok = identical and suite_ok and selftest_time < 300
    report(9, ok, "determinism and self-test budget",
           f"byte-identical reruns: {identical}; self-test "
           f"{sum(r.passed for r in results)}/{len(results)} in {selftest_time:.1f}s "
           f"(budget 300s)",
           time.perf_counter() - t0, 300.0)
