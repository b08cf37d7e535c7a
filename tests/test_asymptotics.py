import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from eqtoeplitz.geometry import ProjectiveModel, sample_sphere
from eqtoeplitz.observables import Observable
from eqtoeplitz.reduction import (DegenerateSymmetryError, component_invariants, f_bar_integral,
                                  find_fixed_components, zero_locus)
from eqtoeplitz.symmetry import DiagonalSymmetry, TorusAction
from eqtoeplitz.toeplitz import TraceRecord, TraceSeries, trace_psi, trace_sweep
from eqtoeplitz.asymptotics import (NumericFailure, ProbeDomainError, ScalingProbe,
                                    TracePrediction, _merge_roots, compare_and_fit, decay_probe,
                                    identity_roots, orbit_distance, predict_toeplitz_leading,
                                    scaling_probe, tangent_frame)
from eqtoeplitz.selftest import check_fixed_point_pin, check_scaling_gaussian

from conftest import scan_merge


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


#: (weights, phases, isotype, levels, observable): the p2-sweep and d3-reduce
#: benchmark configs, and point components with stabilizer orders 4 and 5
IDENTITY_CASES = {
    "p2-sweep": ([[1, -1, -1]], [0.0, 1.1, 3.7], (0,), range(40, 641, 8),
                 Observable.coordinate_modulus(1, 3)),
    "d3-reduce": ([[1, 0, -1, 2], [0, 1, -1, -1]], [0.3, 0.5, -0.8, 0.1], (0, 0),
                  range(30, 121, 6), Observable(u_terms={(0, 1, 0, 0): 1.0, (1, 0, 0, 1): 0.5})),
    "orbifold": ([[1, 2, -3]], [0.0, 1.1, 3.7], (0,), range(40, 201),
                 Observable.constant(1.0, 3)),
}


def identity_fit(W, phi, varpi, ks, f, drop=None):
    """compare_and_fit over the exact sweep, with component `drop` left out."""
    action = TorusAction(W)
    model = ProjectiveModel(action.n_coords - 1)
    sym = DiagonalSymmetry(phi=phi)
    comps = completed_components(action, sym, model, f, n=2 ** 12)
    if drop is not None:
        del comps[drop]
    pred = TracePrediction(tuple(comps), varpi)
    roots = identity_roots(comps, action, f, ks)
    series = trace_sweep(ks, varpi, f, sym, action, model)
    return compare_and_fit(series, [pred(k) for k in ks], comps, roots, action, f)


class TestCompareAndFit:
    def test_too_many_roots_are_refused_before_they_are_listed(self):
        # random d = 8 weights whose vertex denominators have the lcm
        # q = 7,611,403,800: listing the roots of unity would take 57 GiB
        W = np.random.default_rng(11).integers(-3, 4, (2, 9))
        rep = SimpleNamespace(h_l=1.0, d_l=6, _w_j0=np.zeros(2), stab_angles=np.zeros((1, 2)))
        with pytest.raises(NumericFailure, match="7611403800 distinct roots and needs at least "
                                                 "7611403803 levels, have 61"):
            identity_roots([rep], TorusAction(W), SimpleNamespace(degree=1), range(61))

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_identity_holds_from_the_first_level(self, name):
        fit = identity_fit(*IDENTITY_CASES[name])
        assert fit.k_star == IDENTITY_CASES[name][3][0]
        assert fit.miss <= 1e-10
        if name != "d3-reduce":      # its prediction carries a Monte-Carlo f-bar
            assert fit.leading_gap <= 1e-10

    def test_d3_reduce_trace_side_f_bar(self):
        # the d_l = 1 component's f-bar read off the traces: 91 pi / 1296 (DH)
        (support, _, f_trace), = identity_fit(*IDENTITY_CASES["d3-reduce"]).f_bar_trace
        assert support == (0, 1, 2, 3)
        assert abs(f_trace - 91 * math.pi / 1296) <= 1e-10 * 91 * math.pi / 1296

    @pytest.mark.parametrize("name, drop", [("p2-sweep", 0), ("p2-sweep", 1),
                                            ("orbifold", 0), ("orbifold", 1)])
    def test_leaving_out_a_component_breaks_the_identity(self, name, drop):
        fit = identity_fit(*IDENTITY_CASES[name], drop=drop)
        assert fit.k_star is None
        assert fit.miss > 1e-3

    def test_fitted_window_separates_a_low_sweep_from_a_missing_component(self):
        # every component is present, but at k = 2 the quasi-polynomial is
        # nonzero while the isotype is still empty: a sweep over k 0..5 fits
        # all six levels and fails, one over k 0..25 fits the top six and
        # holds from k* = 3; the window says which levels were fitted
        case = ([[-1, 0, 1], [-1, -1, 2]], [0.0, 0.0, 0.0], (1, -1))
        low = identity_fit(*case, range(6), Observable.constant(1.0, 3))
        assert (low.unknowns, low.k_star, low.window) == (3, None, (0, 5))
        assert low.miss > 0.1
        full = identity_fit(*case, range(26), Observable.constant(1.0, 3))
        assert (full.k_star, full.window) == (3, (20, 25))
        assert full.miss <= 1e-10

    def test_d1_toeplitz_identity(self, trivial_g1):
        # (k + 2) tr T_{u0} = (k + 1)(k + 2) / 2: one root, degree 2, and the
        # top coefficient k^2 / 2 is the leading term's, f-bar = pi / 2
        fit = identity_fit(trivial_g1.W, [0.0, 0.0], (), range(10, 101, 5),
                           Observable.coordinate_modulus(0, 2))
        assert (fit.unknowns, fit.k_star) == (3, 10)
        assert fit.miss <= 1e-13 and fit.leading_gap <= 1e-13
        (_, f_bar, f_trace), = fit.f_bar_trace
        assert f_bar == pytest.approx(math.pi / 2, rel=1e-15)
        assert abs(f_trace - math.pi / 2) <= 1e-12

    def test_perturbation_stability(self, p1, trivial_g1):
        # relative noise eta on the traces moves the trace-side f-bar by at
        # most condition * eta relative (the top coefficient dominates here)
        u0, eta = Observable.coordinate_modulus(0, 2), 1e-7
        ks = range(10, 101, 5)
        comps = completed_components(trivial_g1, sym_id(2), p1, u0)
        preds = [TracePrediction(tuple(comps), ())(k) for k in ks]
        exact = trace_sweep(ks, (), u0, sym_id(2), trivial_g1, p1)
        noise = np.random.default_rng(3).uniform(-eta, eta, size=len(ks))
        noisy = TraceSeries()
        for rec, e in zip(exact.records, noise):
            noisy.append(TraceRecord(k=rec.k, varpi=(), trace=rec.trace * (1 + e),
                                     dim_isotype=rec.dim_isotype))
        roots = identity_roots(comps, trivial_g1, u0, ks)
        f0, f1 = (compare_and_fit(s, preds, comps, roots, trivial_g1, u0) for s in (exact, noisy))
        shift = abs(f1.f_bar_trace[0][2] - f0.f_bar_trace[0][2]) / (math.pi / 2)
        assert 0 < shift <= 3 * f0.condition * eta

    def test_too_few_levels(self, monkeypatch):
        # 4 unknowns need 7 levels; 6 fail before any solve
        W, phi, varpi, _, f = IDENTITY_CASES["p2-sweep"]
        monkeypatch.setattr(np.linalg, "lstsq", None)
        monkeypatch.setattr(np.linalg, "svd", None)
        with pytest.raises(NumericFailure, match="4 unknowns and needs at least 7 levels, have 6"):
            identity_fit(W, phi, varpi, range(40, 81, 8), f)

    def test_rank_deficiency_diagnostics(self, trivial_g1):
        # u0^4 on P^1: one root of degree 5 over levels 400..408 (x in [0.98, 1])
        with pytest.raises(NumericFailure, match="ill-conditioned"):
            identity_fit(trivial_g1.W, [0.0, 0.0], (), range(400, 409),
                         Observable(u_terms={(4, 0): 1.0}))

    def test_forced_empty_levels_are_zeros_of_y(self, circle_p1):
        # odd levels have an empty isotype: their zero traces fit the identity
        fit = identity_fit(circle_p1.W, [0.0, 0.0], (0,), range(4, 41),
                           Observable.constant(1.0, 2))
        assert (fit.unknowns, fit.k_star) == (2, 4)
        assert fit.miss <= 1e-13 and fit.leading_gap <= 1e-13

    def test_no_components_no_report(self):
        series = TraceSeries()
        series.append(TraceRecord(k=3, varpi=(0,), trace=0j, dim_isotype=0))
        assert compare_and_fit(series, [0.0], (), [], TorusAction([[1, 1]]),
                               Observable.constant(1.0, 2)) is None

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(W=st.integers(1, 4).flatmap(lambda d: st.lists(
               st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1),
               min_size=1, max_size=2)),
           phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=5, max_size=5),
           generic=st.booleans(), varpi=st.lists(st.integers(-1, 1), min_size=2, max_size=2),
           j=st.integers(0, 5))
    @example(W=[[1, 2, -3]], phases=[0.0, 1.1, 3.7, 0.0, 0.0], generic=True,
             varpi=[0, 0], j=5)
    @example(W=[[1, 0, -1, 2], [0, 1, -1, -1]], phases=[0.1, 0.7, 1.9, 2.3, 0.0],
             generic=True, varpi=[0, 0], j=5)
    def test_identity_on_random_regular_weights(self, W, phases, generic, varpi, j):
        # step-1 sweeps from k = 0 fit the identity; when every component is
        # a point (f-bar exact) its top coefficients are the prediction's,
        # also at orbifold points whose stabilizer acts on the normal space
        # (the two examples: vertex stabilizers of orders 4, 5 and 3, 6).
        # Without generic phases the symmetry fixes the whole zero locus.
        action = TorusAction(W)
        zl = zero_locus(action)
        assume(zl.strata and all(info.free_rank == 0 for _, info in zl.strata))
        n = action.n_coords
        model = ProjectiveModel(n - 1)
        phi = phases[:n] if generic else (np.array(phases[:action.g]) @ action.W).tolist()
        # near-equal generic phases put roots within rounding of each other
        assume(not generic or all(abs(math.remainder(a - b, 2 * math.pi)) >= 0.3
                                  for i, a in enumerate(phi) for b in phi[i + 1:]))
        varpi = tuple(varpi[:action.g])
        f = Observable.constant(1.0, n) if j >= n else Observable.coordinate_modulus(j, n)
        sym = DiagonalSymmetry(phi=phi)
        try:
            comps = [component_invariants(c, sym, action, model)
                     for c in find_fixed_components(action, sym, model)]
        except DegenerateSymmetryError:       # c_l vanishes: phases too close
            assume(False)
        # the roots h_l e^{i <W_j0, th_s>} z are lcm(order, q)-th roots times h_l
        q = math.lcm(*(den for _, den in zl.vertices))
        unknowns = sum(math.lcm(c.stab_order, q) * (c.d_l + (j < n) + 1) for c in comps)
        assume(unknowns <= 60)
        # a positive-dimensional f-bar is Monte-Carlo: stand in 1, check no gap
        comps = [f_bar_integral(c, f, action, model) if c.d_l == 0
                 else replace(c, f_bar_integral=1.0 + 0j) for c in comps]
        # the identity holds from k* on (k* <= 11 in 2,000 draws): 20 levels
        # more keep the fitted ones above it
        ks = range(unknowns + 23)
        pred = TracePrediction(tuple(comps), varpi)
        series = trace_sweep(ks, varpi, f, sym, action, model)
        fit = compare_and_fit(series, [pred(k) for k in ks], comps,
                              identity_roots(comps, action, f, ks), action, f)
        # close roots raise the condition; its rounding, 256 eps cond, reaches
        # 1e-7 in the same draws
        slack = 256 * np.finfo(float).eps * fit.condition
        assert fit.k_star is not None and fit.miss <= 1e-10 + slack
        if all(c.d_l == 0 for c in comps):
            assert fit.leading_gap <= 1e-9 + slack

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_condition_is_the_top_window_s(self, seed):
        # s[0] / s[-1] of the singular values the fit's least squares returns
        # is np.linalg.cond of the design it solved: random distinct roots
        # near the unit circle, degrees 0..2 and complex traces
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        angles = 2 * np.pi * np.arange(m) / m + rng.uniform(-0.3, 0.3, m)
        roots = [[rng.uniform(0.95, 1.05) * np.exp(1j * a), int(rng.integers(0, 3)), {0}]
                 for a in angles]
        ks = range(sum(deg + 1 for _, deg, _ in roots) + 3 + int(rng.integers(0, 10)))
        series = TraceSeries()
        for k, t in zip(ks, rng.standard_normal((len(ks), 2)) @ [1, 1j]):
            series.append(TraceRecord(k=k, varpi=(), trace=t, dim_isotype=1))
        rep = SimpleNamespace(d_l=0, f_bar_integral=1.0, c_l=1.0, branch_weights=None,
                              support=(0,))
        designs, lstsq = [], np.linalg.lstsq
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "lstsq",
                       lambda X, Y, rcond: designs.append(X) or lstsq(X, Y, rcond))
            fit = compare_and_fit(series, np.ones(len(ks)), [rep], roots,
                                  SimpleNamespace(n_coords=1), SimpleNamespace(degree=0))
        X, = designs
        assert np.iscomplexobj(X) and np.linalg.matrix_rank(X) == X.shape[1]
        assert fit.condition == pytest.approx(np.linalg.cond(X), rel=1e-9)


def fed_roots(offsets):
    """(root, degree, component) triples: eighth roots of unity moved by
    multiples of 0.4e-8 in each coordinate, so roots merge, chain across
    1e-8 and straddle the 2e-8 cells of the lookup."""
    return [(np.exp(1j * math.pi * c / 4) + shift + 0.4e-8 * complex(x, y), deg, l)
            for c, x, y, deg, l, shift in offsets]


class TestMergeRoots:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(-4, 4), st.integers(-4, 4),
                              st.integers(0, 3), st.integers(0, 3),
                              st.sampled_from([0.0, 1e-8, 2e-8 - 1e-17, 3.3e-9 + 7e-9j])),
                    max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_lookup_merges_as_the_scan(self, offsets):
        fed = fed_roots(offsets)
        assert _merge_roots(fed) == scan_merge(fed)

    def test_many_roots_merge_fast(self):
        # the d = 8 system's q = 7,392 roots of unity from two components, the
        # second's turned by one root and a whole turn, so that rounding alone
        # separates each from a first one; the scan took ~3 s on the d = 8
        # system's roots.  CPU time, the best of three merges
        q = 7392
        z = np.exp(2j * math.pi * np.arange(q) / q)
        fed = [(r, 6, 0) for r in z] + [(r, 7, 1) for r in z * np.exp(2j * math.pi * (1 + 1 / q))]

        def merge():
            start = time.process_time()
            merged = _merge_roots(fed)
            assert len(merged) == q
            assert all(deg == 7 and l == {0, 1} for _, deg, l in merged)
            assert [r for r, _, _ in merged] == list(z)
            return time.process_time() - start
        assert any(merge() < 0.5 for _ in range(3))


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
