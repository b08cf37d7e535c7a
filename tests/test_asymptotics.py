import math

import numpy as np
import pytest

from eqtoeplitz.geometry import sample_sphere
from eqtoeplitz.observables import Observable
from eqtoeplitz.reduction import component_invariants, f_bar_integral, find_fixed_components
from eqtoeplitz.symmetry import DiagonalSymmetry
from eqtoeplitz.toeplitz import TraceRecord, TraceSeries, trace_psi, trace_sweep
from eqtoeplitz.asymptotics import (NumericFailure, ProbeDomainError, ScalingProbe,
                                    TracePrediction, compare_and_fit, decay_probe, orbit_distance,
                                    predict_toeplitz_leading, scaling_probe, tangent_frame)
from eqtoeplitz.selftest import check_fixed_point_pin, check_scaling_gaussian


def completed_components(action, sym, model, f, n=2 ** 15, seed=5):
    comps = [component_invariants(c, sym, action, model)
             for c in find_fixed_components(action, sym, model)]
    return [f_bar_integral(c, f, action, model, n, seed) for c in comps]


def sym_id(n, theta_A=0.0):
    return DiagonalSymmetry(phi=[0.0] * n, theta_A=theta_A)


class TestPredictLeading:
    def test_dimension_test_case_formula(self, p2, circle_p2):
        # f = 1, identity lift: prediction reduces to (k/pi)^(d-g) vol(M0),
        # gated by the stabilizer parity
        one = Observable.constant(1.0, 3)
        comps = completed_components(circle_p2, sym_id(3), p2, one, n=2 ** 17)
        vol = comps[0].f_bar_integral.real
        for k in (10, 11, 40):
            pred = TracePrediction(tuple(comps), (0,))(k)
            expect = (k / math.pi) * vol if k % 2 == 0 else 0.0
            assert pred == pytest.approx(expect, abs=1e-12)

    def test_trivial_group_two_point_sum(self, p1, trivial_g1):
        phi1 = 1.9
        sym = DiagonalSymmetry(phi=[0.0, phi1])
        one = Observable.constant(1.0, 2)
        comps = completed_components(trivial_g1, sym, p1, one)
        for k in (0, 7, 50, 200):
            pred = TracePrediction(tuple(comps), ())(k)
            manual = (1.0 / (1 - np.exp(-1j * phi1))
                      + np.exp(-1j * k * phi1) / (1 - np.exp(1j * phi1)))
            assert abs(pred - manual) < 1e-10
        ok, detail = check_fixed_point_pin(phi=(0.0, phi1), levels=(0, 7, 50, 200), tol=1e-10)
        assert ok, detail

    def test_empty_reports_vanish(self):
        assert TracePrediction((), (0,))(10) == 0.0

    def test_theta_A_sweep_covariance(self, p2, circle_p2):
        # shifting the lift phase by delta multiplies trace and prediction
        # by e^{i k delta}; their ratio is invariant
        delta = 0.29
        u1 = Observable.coordinate_modulus(1, 3)
        base = DiagonalSymmetry(phi=[0.0, 0.9, 2.1])
        shifted = DiagonalSymmetry(phi=[0.0, 0.9, 2.1], theta_A=delta)
        pred0 = TracePrediction(tuple(completed_components(circle_p2, base, p2, u1)), (0,))
        pred1 = TracePrediction(tuple(completed_components(circle_p2, shifted, p2, u1)), (0,))
        for k in (20, 33, 50):
            t0 = trace_psi(k, (0,), u1, base, circle_p2, p2)
            t1 = trace_psi(k, (0,), u1, shifted, circle_p2, p2)
            phase = np.exp(1j * k * delta)
            if t0 != 0:
                assert abs(t1 - phase * t0) < 1e-12 * abs(t0)
                assert abs(t1 / pred1(k) - t0 / pred0(k)) < 1e-10
            assert abs(pred1(k) - phase * pred0(k)) < 1e-12 * max(abs(pred0(k)), 1)

    def test_incomplete_reports_rejected(self, p1, trivial_g1):
        sym = DiagonalSymmetry(phi=[0.0, 1.0])
        comps = find_fixed_components(trivial_g1, sym, p1)
        with pytest.raises(ValueError):
            TracePrediction(tuple(comps), ())(4)


class TestPredictToeplitz:
    def test_d1_u0(self, p1):
        u0 = Observable.coordinate_modulus(0, 2)
        assert predict_toeplitz_leading(10, u0, p1) == pytest.approx(5.0, rel=1e-13)

    def test_constant_dimension_leading(self, p2):
        one = Observable.constant(1.0, 3)
        for k in (4, 9):
            assert predict_toeplitz_leading(k, one, p2) == pytest.approx(k ** 2 / 2,
                                                                         rel=1e-13)

    def test_d2_u1(self, p2):
        u1 = Observable.coordinate_modulus(1, 3)
        assert predict_toeplitz_leading(6, u1, p2) == pytest.approx(
            (6 / math.pi) ** 2 * math.pi ** 2 / 6, rel=1e-13)


class TestCompareAndFit:
    def _series(self, ks, values):
        s = TraceSeries()
        for k, v in zip(ks, values):
            s.append(TraceRecord(k=int(k), varpi=(), trace=complex(v), dim_isotype=1))
        return s

    def test_d1_toeplitz_recovers_1_over_k(self, p1, trivial_g1):
        u0 = Observable.coordinate_modulus(0, 2)
        ks = list(range(10, 101, 5))
        series = trace_sweep(ks, (), u0, sym_id(2), trivial_g1, p1)
        preds = [predict_toeplitz_leading(k, u0, p1) for k in ks]
        fit = compare_and_fit(series, preds, order=2)
        assert abs(fit.coefficients[0]) < 1e-10          # no k^{-1/2} term
        assert fit.coefficients[1].real == pytest.approx(1.0, abs=1e-9)
        assert fit.residual < 1e-10

    def test_exact_ratio_reported(self):
        ks = np.arange(10, 40, 2)
        series = self._series(ks, np.ones(len(ks)))
        fit = compare_and_fit(series, np.ones(len(ks)), order=2)
        assert fit.exact
        assert np.all(np.abs(fit.coefficients) < 1e-10)

    def test_perturbation_stability(self):
        ks = np.arange(10, 90, 4).astype(float)
        vals = 1.0 + 1.0 / ks
        rng = np.random.default_rng(3)
        noise = rng.uniform(-1e-3, 1e-3, size=len(ks))
        f0 = compare_and_fit(self._series(ks, vals), np.ones(len(ks)), order=2)
        f1 = compare_and_fit(self._series(ks, vals + noise), np.ones(len(ks)), order=2)
        shift = np.max(np.abs(f0.coefficients - f1.coefficients))
        assert shift <= 3 * f0.condition * 1e-3

    def test_too_few_levels(self):
        ks = [10, 20, 30]
        with pytest.raises(NumericFailure):
            compare_and_fit(self._series(ks, [1.0] * 3), np.ones(3), order=2)

    def test_rank_deficiency_diagnostics(self):
        ks = np.array([1000, 1001, 1002, 1003, 1004, 1005, 1006])
        vals = 1.0 + 1.0 / ks
        with pytest.raises(NumericFailure):
            compare_and_fit(self._series(ks, vals), np.ones(len(ks)), order=4,
                            cond_cap=1e4)

    def test_zero_predictions_excluded(self, p1, circle_p1):
        # odd levels have empty isotype and zero prediction; fit uses even only
        one = Observable.constant(1.0, 2)
        ks = list(range(4, 41))
        series = trace_sweep(ks, (0,), one, sym_id(2), circle_p1, p1)
        preds = [1.0 if k % 2 == 0 else 0.0 for k in ks]
        fit = compare_and_fit(series, preds, order=2)
        assert fit.exact


class TestDecayProbe:
    def test_p2_off_locus_point(self, p2, circle_p2):
        x = np.array([math.sqrt(0.8), math.sqrt(0.15), math.sqrt(0.05)], complex)
        res = decay_probe(x, x, (0,), circle_p2, p2, range(20, 301, 20))
        assert res.slope <= -5.0

    def test_concentration_set_refused(self, p1, circle_p1):
        x = np.array([1, 1], complex) / math.sqrt(2)
        with pytest.raises(ValueError):
            decay_probe(x, x, (0,), circle_p1, p1, range(10, 100, 10))

    def test_trivial_group_power_decay(self, p1, trivial_g1):
        x = np.array([1, 0], complex)
        y = np.array([1, 1], complex) / math.sqrt(2)
        res = decay_probe(x, y, (), trivial_g1, p1, range(20, 301, 40))
        assert res.slope < -20  # exponential beats any power

    def test_fit_needs_two_distinct_upper_levels(self, p2, circle_p2):
        # the slope is fitted over the upper half: here one repeated level
        x = np.array([math.sqrt(0.8), math.sqrt(0.15), math.sqrt(0.05)], complex)
        with pytest.raises(ProbeDomainError, match="two distinct levels"):
            decay_probe(x, x, (0,), circle_p2, p2, [20, 20, 20])

    def test_same_orbit_allowed_off_locus(self, p2, circle_p2):
        x = np.array([math.sqrt(0.9), math.sqrt(0.1), 0], complex)
        y = circle_p2.act(np.array([0.9]), x)
        res = decay_probe(x, y, (0,), circle_p2, p2, range(20, 200, 20))
        assert res.slope <= -5.0


class TestScalingProbe:
    def test_on_diagonal_trivial_group(self, p1, trivial_g1):
        x = sample_sphere(1, 3, p1)[0]
        rows = scaling_probe(ScalingProbe(x=x, w=np.zeros(2, complex),
                                          v=np.zeros(2, complex), k_values=(100, 500)),
                             (), trivial_g1, p1)
        assert abs(rows[-1].abs_ratio - 1) < 3e-3

    def test_horizontal_displacement_gaussian(self, p1, trivial_g1):
        x = np.array([1, 0], complex)
        w = np.array([0, 1], complex)
        rows = scaling_probe(ScalingProbe(x=x, w=w, v=np.zeros(2, complex),
                                          k_values=(500,)), (), trivial_g1, p1)
        # |Pi| (pi/k)^d -> e^{-1/2}
        measured = abs(rows[0].exact) * math.pi / 500
        assert abs(measured / math.exp(-0.5) - 1) < 0.05
        assert abs(rows[0].abs_ratio - 1) < 0.05

    def test_transverse_gaussian_g1(self):
        ok, detail = check_scaling_gaussian(scales=(0.6, 1.0), levels=(500,), phase_tol=0.02)
        assert ok, detail

    def test_frame_orthogonality(self, p1, circle_p1):
        x = np.array([1, 1], complex) / math.sqrt(2)
        fr = tangent_frame(x, circle_p1)
        rng = np.random.default_rng(7)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v -= np.vdot(x, v) * x
        # the transverse, vertical and horizontal parts are mutually orthogonal
        vt, vv, vh = fr.decompose(v)
        for a, b in ((vt, vv), (vt, vh), (vv, vh)):
            assert abs(np.real(np.vdot(a, b))) < 1e-10

    def test_off_locus_rejected(self, p1, circle_p1):
        x = np.array([1, 0], complex)
        with pytest.raises(ValueError):
            scaling_probe(ScalingProbe(x=x, w=np.zeros(2, complex),
                                       v=np.zeros(2, complex), k_values=(10,)),
                          (0,), circle_p1, p1)

    def test_large_displacement_rejected(self, p1, trivial_g1):
        x = np.array([1, 0], complex)
        w = np.array([0, 3.0], complex)
        with pytest.raises(ValueError):
            scaling_probe(ScalingProbe(x=x, w=w, v=0 * w, k_values=(10,)),
                          (), trivial_g1, p1)


class TestOrbitDistance:
    def test_same_orbit(self, p1, circle_p1):
        # grid-based: resolution is coarse but far below the 0.05 threshold
        x = np.array([1, 1], complex) / math.sqrt(2)
        y = circle_p1.act(np.array([1.1]), x)
        assert orbit_distance(x, y, circle_p1) < 0.02

    def test_distinct_orbits(self, p1, circle_p1):
        x = np.array([1, 1], complex) / math.sqrt(2)
        y = np.array([1, 0], complex)
        assert orbit_distance(x, y, circle_p1) > 0.5
