import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqtoeplitz import geometry
from eqtoeplitz.geometry import ProjectiveModel, section_basis
from eqtoeplitz.observables import Observable
from eqtoeplitz.reduction import vanishing_level
from eqtoeplitz.symmetry import DiagonalSymmetry, TorusAction, gamma_phase, isotype_basis
from eqtoeplitz.selftest import check_toeplitz_closed_forms, check_trace_quadrature
from eqtoeplitz.toeplitz import (TraceRecord, TraceSeries, isotype_slice, toeplitz_diagonal,
                                 toeplitz_matrix, trace_psi, trace_sweep,
                                 trace_via_kernel_quadrature)

from conftest import plain_sphere, read_csv, sup_bound
from test_geometry import W_8, candidate_slice, slice_systems


def sym_id(n):
    return DiagonalSymmetry(phi=[0.0] * n)


def toeplitz_entry(f, alpha, alpha2, model):
    """<f z^alpha, z^alpha2> / sqrt(N N'): the (alpha2, alpha) entry of the
    dense Toeplitz matrix of level |alpha| (trivial group, full basis)."""
    k, n = int(sum(alpha)), model.n_coords
    iso = isotype_basis(k, (), TorusAction(np.zeros((0, n), np.int64)), section_basis(k, model))
    row = {tuple(a): i for i, a in enumerate(iso.indices.tolist())}
    return toeplitz_matrix(f, iso, model)[row[tuple(alpha2)], row[tuple(alpha)]]


class TestEntries:
    def test_projector_for_constant(self, p1):
        one = Observable.constant(1.0, 2)
        a = np.array([3, 2])
        assert toeplitz_entry(one, a, a, p1) == pytest.approx(1.0, rel=1e-14)
        assert toeplitz_entry(one, a, np.array([4, 1]), p1) == 0.0

    @pytest.mark.parametrize("a,k", [(0, 4), (2, 4), (4, 4), (5, 11)])
    def test_d1_u0_diagonal(self, p1, a, k):
        u0 = Observable.coordinate_modulus(0, 2)
        alpha = np.array([a, k - a])
        assert toeplitz_entry(u0, alpha, alpha, p1) == pytest.approx((a + 1) / (k + 2),
                                                                     rel=1e-14)

    def test_d1_u0_against_beta_integral(self, p1):
        # oracle: plain quadrature of |z0|^{2a+2} |z1|^{2(k-a)} over the 3-sphere
        a, k = 3, 7
        rng = np.random.default_rng(11)
        pts = plain_sphere(2_000_000, 1, rng)
        u = np.abs(pts) ** 2
        num = np.mean(u[:, 0] ** (a + 1) * u[:, 1] ** (k - a))
        den = np.mean(u[:, 0] ** a * u[:, 1] ** (k - a))
        oracle = num / den
        u0 = Observable.coordinate_modulus(0, 2)
        alpha = np.array([a, k - a])
        assert toeplitz_entry(u0, alpha, alpha, p1) == pytest.approx(oracle, rel=5e-3)

    def test_h_term_diagonal(self, p2):
        h = np.diag([0.5, -0.25, 1.0]).astype(complex)
        f = Observable(h_term=h)
        alpha = np.array([2, 1, 0])
        k, d = 3, 2
        expect = (0.5 * 3 - 0.25 * 2 + 1.0 * 1) / (d + k + 1)
        assert toeplitz_entry(f, alpha, alpha, p2) == pytest.approx(expect, rel=1e-14)

    def test_h_term_off_diagonal_oracle(self, p1):
        # entry connecting alpha' = alpha + e0 - e1, against plain quadrature
        h = np.zeros((2, 2), complex)
        h[0, 1] = 1.0
        h[1, 0] = 1.0
        f = Observable(h_term=h)
        alpha = np.array([2, 3])
        alpha2 = np.array([3, 2])
        val = toeplitz_entry(f, alpha, alpha2, p1)
        assert val == pytest.approx(math.sqrt(3 * 3) / 7, rel=1e-14)
        rng = np.random.default_rng(13)
        pts = plain_sphere(2_000_000, 1, rng)
        z = pts
        mono_a = z[:, 0] ** 2 * z[:, 1] ** 3
        mono_b = z[:, 0] ** 3 * z[:, 1] ** 2
        fval = 2 * np.real(z[:, 0] * np.conj(z[:, 1]))
        num = np.mean(fval * mono_a * np.conj(mono_b))
        na = np.mean(np.abs(mono_a) ** 2)
        nb = np.mean(np.abs(mono_b) ** 2)
        oracle = num / math.sqrt(na * nb)
        assert val == pytest.approx(np.real(oracle), rel=5e-3)


class TestTraces:
    def test_d1_u0_closed_form(self):
        ok, detail = check_toeplitz_closed_forms(levels=range(1, 101))
        assert ok, detail

    def test_geometric_sum(self, p1, trivial_g1):
        phi1 = 1.234
        sym = DiagonalSymmetry(phi=[0.0, phi1])
        one = Observable.constant(1.0, 2)
        x = np.exp(-1j * phi1)
        for k in (0, 3, 17, 64):
            t = trace_psi(k, (), one, sym, trivial_g1, p1)
            exact = (1 - x ** (k + 1)) / (1 - x)
            assert abs(t - exact) < 1e-12 * (k + 1)

    def test_empty_isotype(self, p1, circle_p1):
        u0 = Observable.coordinate_modulus(0, 2)
        assert trace_psi(3, (0,), u0, sym_id(2), circle_p1, p1) == 0.0

    def test_full_matrix_path_agrees(self, p2, circle_p2):
        f = Observable(u_terms={(1, 0, 0): 1.0},
                       h_term=np.array([[0.1, 0, 0], [0, 0.0, 0.2 + 0.1j],
                                        [0, 0.2 - 0.1j, -0.3]]))
        sym = DiagonalSymmetry(phi=[0.2, 1.0, 2.4], theta_A=0.05)
        iso = isotype_basis(8, (0,), circle_p2, section_basis(8, p2))
        dense = np.trace(np.diag(gamma_phase(iso.indices, sym)) @ toeplitz_matrix(f, iso, p2))
        assert abs(trace_psi(8, (0,), f, sym, circle_p2, p2) - dense) < 1e-12

    def test_basis_independence_under_remix(self, p2, circle_p2):
        # full-matrix trace is invariant under a random unitary change of
        # the isotype basis
        f = Observable(u_terms={(0, 1, 0): 1.0})
        sym = DiagonalSymmetry(phi=[0.1, 0.8, 1.9])
        k, w = 10, (0,)
        iso = isotype_basis(k, w, circle_p2, section_basis(k, p2))
        T = toeplitz_matrix(f, iso, p2)
        G = np.diag(gamma_phase(iso.indices, sym))
        rng = np.random.default_rng(7)
        A = rng.normal(size=(iso.dim, iso.dim)) + 1j * rng.normal(size=(iso.dim, iso.dim))
        U, _ = np.linalg.qr(A)
        lhs = np.trace(G @ T)
        rhs = np.trace((U.conj().T @ G @ U) @ (U.conj().T @ T @ U))
        assert abs(lhs - rhs) < 1e-10
        assert abs(lhs - trace_psi(k, w, f, sym, circle_p2, p2)) < 1e-12

    @given(st.integers(0, 2), st.integers(0, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_hermiticity_property(self, b0, b1, c0, c1):
        f = Observable(u_terms={(b0, b1): c0, (0, 0): c1},
                       h_term=np.array([[0.2, 0.4 - 0.1j], [0.4 + 0.1j, -0.6]]))
        ok, detail = check_toeplitz_closed_forms(f=f, herm_level=6)
        assert ok, detail

    def test_positivity_of_diagonal(self, p2, circle_p2):
        f = Observable(u_terms={(1, 2, 0): 1.0})
        iso = isotype_basis(9, (-1,), circle_p2, section_basis(9, p2))
        T = toeplitz_matrix(f, iso, p2)
        assert np.all(np.real(np.diag(T)) >= 0)

    def test_norm_bound(self, p2, circle_p2):
        f = Observable(u_terms={(1, 0, 0): 0.7, (0, 2, 0): -0.3})
        sym = DiagonalSymmetry(phi=[0.3, 0.9, 1.4])
        k, w = 12, (0,)
        iso = isotype_basis(k, w, circle_p2, section_basis(k, p2))
        t = trace_psi(k, w, f, sym, circle_p2, p2)
        assert abs(t) <= iso.dim * sup_bound(f) + 1e-12


class TestQuadratureIdentity:
    def test_trivial_group_case(self):
        ok, detail = check_trace_quadrature(phi=(0.0, 0.0), k=10)
        assert ok, detail

    def test_equivariant_case(self):
        ok, detail = check_trace_quadrature(phi=(0.0, 0.9, 2.1), W=[[1, -1, -1]], varpi=(0,),
                                            f=Observable(u_terms={(0, 1, 0): 1.0}), k=8)
        assert ok, detail

    def test_projector_trace_over_all_labels(self, p1, circle_p1):
        # f = 1, identity lift: summing over occurring labels gives dim H^0
        from eqtoeplitz.symmetry import occurring_weights
        one = Observable.constant(1.0, 2)
        k = 6
        total = sum(trace_via_kernel_quadrature(k, tuple(w), one, sym_id(2), circle_p1, p1)
                    for w in occurring_weights(circle_p1, section_basis(k, p1)))
        assert abs(total - (k + 1)) <= 1e-12 * (k + 1)


class TestSweep:
    def test_vanishing_config(self, p1):
        act = TorusAction([[1, 1]])
        one = Observable.constant(1.0, 2)
        varpi = (-6,)
        series = trace_sweep(range(0, 30), varpi, one, sym_id(2), act, p1)
        k0 = vanishing_level(act, varpi)
        assert k0 == 7
        for rec in series.records:
            if rec.k >= k0:
                assert rec.trace == 0 and rec.dim_isotype == 0
        assert any(rec.dim_isotype > 0 and rec.k == 6 for rec in series.records)

    def test_dimension_series(self, p1, circle_p1):
        one = Observable.constant(1.0, 2)
        series = trace_sweep(range(0, 21), (0,), one, sym_id(2), circle_p1, p1)
        for rec in series.records:
            expect = 1 if rec.k % 2 == 0 else 0
            assert rec.dim_isotype == expect
            assert rec.trace == pytest.approx(expect, abs=1e-14)

    def test_sweep_continues_past_failures(self, p1, trivial_g1):
        from unittest import mock
        import eqtoeplitz.toeplitz as tp
        u0 = Observable.coordinate_modulus(0, 2)
        orig = tp.trace_psi

        def flaky(k, *a, **kw):
            if k == 5:
                raise RuntimeError("boom")
            return orig(k, *a, **kw)

        with mock.patch.object(tp, "trace_psi", flaky):
            s = tp.trace_sweep(range(3, 9), (), u0, sym_id(2), trivial_g1, p1)
        assert [r.k for r in s.records] == [3, 4, 6, 7, 8]
        assert s.failures == [(5, "RuntimeError('boom')")]

    def test_threaded_matches_serial(self, p1, trivial_g1):
        u0 = Observable.coordinate_modulus(0, 2)
        a = trace_sweep(range(1, 30), (), u0, sym_id(2), trivial_g1, p1, threads=1)
        b = trace_sweep(range(1, 30), (), u0, sym_id(2), trivial_g1, p1, threads=4)
        assert np.array_equal(a.traces, b.traces)

    def test_series_invariants(self):
        s = TraceSeries()
        s.append(TraceRecord(k=1, varpi=(), trace=1.0, dim_isotype=2))
        with pytest.raises(ValueError):
            s.append(TraceRecord(k=1, varpi=(), trace=1.0, dim_isotype=2))
        with pytest.raises(ValueError):
            s.append(TraceRecord(k=5, varpi=(), trace=1.0, dim_isotype=0))

    def test_csv_roundtrip(self, tmp_path, p1, trivial_g1):
        u0 = Observable.coordinate_modulus(0, 2)
        series = trace_sweep(range(1, 6), (), u0, sym_id(2), trivial_g1, p1)
        path = tmp_path / "trace.csv"
        series.to_csv(path)
        header, rows = read_csv(path)
        assert header == ["k", "varpi", "trace_re", "trace_im", "dim", "method"]
        assert len(rows) == 5
        # 17 significant digits survive the round trip exactly
        assert float(rows[0][2]) == series.records[0].trace.real


def row_trace_terms(k, rows, f, sym, model):
    """Oracle for `trace_psi`: its terms over the slice's rows built whole."""
    return gamma_phase(rows, sym) * toeplitz_diagonal(f, rows, k, model)


class TestBlockedTrace:
    """The trace summed over the walk's blocks against the row-built sum."""

    @given(slice_systems(), st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_block_sums_match_the_row_sum(self, case, block, seed):
        k, W, varpi = case
        n = W.shape[1]
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        f = Observable({(0,) * n: 0.5, tuple(rng.integers(0, 3, n)): 1.0}, h_term=h + h.conj().T)
        sym = DiagonalSymmetry(rng.uniform(-math.pi, math.pi, n), rng.uniform(-math.pi, math.pi))
        model, action = ProjectiveModel(n - 1), TorusAction(W)
        rows = candidate_slice(k, W, varpi)
        block = max(block, len(rows) // 50)         # a few rows, or at most ~50 blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_SLICE_BLOCK", block)
            iso = isotype_slice(k, varpi, action, model)
            blocks, n_blocks = list(iso.blocks()), iso.parent.n_blocks
            got = trace_psi(k, varpi, f, sym, action, model, iso=iso)
        assert len(blocks) == n_blocks == -(-len(rows) // block)
        assert all(0 < len(b) <= block for b in blocks)
        assert np.array_equal(np.concatenate([rows[:0], *blocks]), rows)
        terms = row_trace_terms(k, rows, f, sym, model)
        want = complex(np.sum(terms))
        if len(blocks) <= 1:
            assert got == want
        else:
            assert abs(got - want) <= 1e-11 * np.sum(np.abs(terms))

    def test_w8_top_level_heap(self):
        # W_8's k = 52 level: 838,980 rows, whose row-built trace peaks at
        # 140.8 MiB of heap; summed over the walk's blocks, the walk's last
        # prefixes dominate
        act, model = TorusAction(W_8), ProjectiveModel(8)
        f = Observable.coordinate_modulus(1, 9)
        sym = DiagonalSymmetry(np.linspace(0.1, 2.9, 9), 0.4)
        trace_sweep([20], (0, 0), f, sym, act, model)        # the plan, outside the trace
        tracemalloc.start()
        try:
            series = trace_sweep([52], (0, 0), f, sym, act, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not series.failures and series.records[0].dim_isotype == 838_980
        assert peak < 48 * 2 ** 20

    def test_trace_reads_no_log_norm(self, monkeypatch):
        # the trace needs the diagonal Toeplitz entries, not the monomial
        # norms: only the kernel paths read `log_norms`
        def refuse(*args, **kwargs):
            raise AssertionError("log_monomial_norm was called")
        monkeypatch.setattr(geometry, "log_monomial_norm", refuse)
        act, model = TorusAction([[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]]), ProjectiveModel(4)
        series = trace_sweep(range(84, 101, 8), (0, 0), Observable.coordinate_modulus(1, 5),
                             DiagonalSymmetry([0.0, 0.7, 1.9, 2.6, 0.3]), act, model)
        assert not series.failures and [r.k for r in series.records] == [84, 92, 100]
        assert all(r.dim_isotype > 0 for r in series.records)
