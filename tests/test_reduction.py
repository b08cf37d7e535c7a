import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import minimize_scalar
from scipy.special import gammaln

import eqtoeplitz.reduction as red
from eqtoeplitz import geometry
from eqtoeplitz._intlinalg import NumericFailure
from eqtoeplitz.geometry import ProjectiveModel, kernel_pair_values, sample_sphere, section_basis
from eqtoeplitz.observables import Observable
from eqtoeplitz.symmetry import DiagonalSymmetry, TorusAction, moment_map, slice_vertices
from eqtoeplitz.reduction import (DegenerateSymmetryError, ReductionHypothesisError,
                                  check_regular_and_free, component_invariants,
                                  effective_volume, f_bar_integral, find_fixed_components,
                                  reduced_space_integral, reduced_volume, stabilizer_info,
                                  zero_locus_sample)
from eqtoeplitz.selftest import check_reduced_volume_point


#: weights of a rank-2 action on P3 with a finite stabilizer of order 3
D3_WEIGHTS = [[1, 0, -1, 2], [0, 1, -1, -1]]
#: a rank-2 action on P4 whose vertex stratum {3, 4} has a circle stabilizer
D4_WEIGHTS = [[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]]


def sym_of(*phis, theta_A=0.0):
    return DiagonalSymmetry(phi=list(phis), theta_A=theta_A)


def component_representatives(report, action, n, seed=0):
    """Distinct lifts over a fixed component: random stratum phases and, for
    positive-dimensional components, interior moduli variations toward a
    random convex combination of the component's face vertices."""
    rng = np.random.default_rng(seed)
    S = list(report.support)
    face = np.array([np.array(num) / den for num, den in slice_vertices(action)
                     if not np.any(np.delete(num, S))])
    out = [report.representative]
    for _ in range(n - 1):
        u = report.u_star[S].copy()
        if report.d_l > 0:
            u = 0.6 * u + 0.4 * (rng.dirichlet(np.ones(len(face))) @ face)[S]
        z = np.zeros(report.representative.shape[0], complex)
        z[S] = np.sqrt(u) * np.exp(1j * rng.uniform(0, 2 * math.pi, size=len(S)))
        out.append(z)
    return out


def d_phi_fd(x, action, step=1e-6):
    """Finite-difference oracle for the moment-map differential in an
    orthonormal real frame of the horizontal space x^perp; shape (g, 2d)."""
    basis_c = null_space(np.conj(x)[None, :])
    cols = []
    for b in basis_c.T:
        for v in (b, 1j * b):
            xp, xm = x + step * v, x - step * v
            xp /= np.linalg.norm(xp)
            xm /= np.linalg.norm(xm)
            cols.append((moment_map(xp, action) - moment_map(xm, action)) / (2 * step))
    return np.array(cols).T.reshape(action.g, -1)


def horizontal_frames(rep, support, action):
    """Orthonormal frames of the horizontal space at a component lift,
    split into (tangent-to-component, normal) blocks.  The tangent block is
    the null space of the lift and generator rows on the support; singular
    values above max(shape) eps sigma_max count toward their rank."""
    n = rep.shape[0]
    S = list(support)
    comp = [j for j in range(n) if j not in S]
    normal = np.zeros((n, len(comp)), complex)
    for i, b in enumerate(comp):
        normal[b, i] = 1.0
    rows = np.conj(np.vstack([rep[S], action.W[:, S] * rep[S]]))
    _, sv, vh = np.linalg.svd(rows)
    rank = int(np.sum(sv > max(rows.shape) * np.finfo(float).eps * np.max(sv, initial=0.0)))
    tangent = np.zeros((n, len(S) - rank), complex)
    tangent[S, :] = np.conj(vh[rank:]).T
    return tangent, normal


def descended_differential(rep, support, t_angles, sym, action):
    """Oracle for `reduction._normal_differential`: the finite-difference
    matrix of the descended symmetry differential in the whole (tangent,
    normal) horizontal frame at the representative, with the tangent size."""
    tangent, normal = horizontal_frames(rep, support, action)
    frame = np.hstack([tangent, normal])
    ncols, step = frame.shape[1], red.FD_STEP
    base = rep / np.linalg.norm(rep)

    def push(v):
        zeta = sym.gamma_M(base + v)
        zeta = action.act(-t_angles, zeta)
        return red._affine_chart(zeta, base)

    D = np.zeros((ncols, ncols), complex)
    for b in range(ncols):
        col = (push(step * frame[:, b]) - push(-step * frame[:, b])) / (2 * step)
        D[:, b] = np.conj(frame).T @ col
    return D, tangent.shape[1]


def frame_error(D, nt):
    """How far the oracle's differential is from fixing the component: its
    tangent block from I, and its tangent-normal blocks from 0."""
    E = D.copy()
    E[:nt, :nt] -= np.eye(nt)
    E[nt:, nt:] = 0.0
    return float(np.max(np.abs(E), initial=0.0))


def injectivity_oracle(x, action, stab_angles, n_grid=48):
    """Scalar per-angle sweep of dist_M(mu_t x, x) / dist_T(t, Stab)."""
    grid = np.linspace(0, 2 * math.pi, n_grid, endpoint=False)
    mesh = np.meshgrid(*([grid] * action.g), indexing="ij")
    best = float("inf")
    for th in np.stack([mm.ravel() for mm in mesh], axis=1):
        diff = np.angle(np.exp(1j * (th[None, :] - stab_angles)))
        dt = float(np.min(np.linalg.norm(diff, axis=1)))
        if dt < 0.3:
            continue
        dist = math.sqrt(max(0.0, 2.0 - 2.0 * abs(np.vdot(action.act(th, x), x))))
        best = min(best, dist / dt)
    return best


class TestDiagnostics:
    def test_p2_regular_and_free(self, p2, circle_p2):
        diag, _ = check_regular_and_free(circle_p2, p2, n_samples=2 ** 16, seed=3)
        assert not diag.empty_locus
        assert diag.regular_value and diag.min_singular_dphi > 1.0
        assert diag.free_action and diag.stabilizer_constant
        assert diag.kernel_order == 2 and diag.stabilizer_order == 2
        # exact d Phi singular value is 2 sqrt(min eig Gram) = 2 here
        assert diag.min_singular_dphi == pytest.approx(2.0, abs=1e-4)
        assert diag.v_eff_mean == pytest.approx(math.pi, rel=1e-10)

    def test_p1_circle_locus(self, p1, circle_p1):
        diag, _ = check_regular_and_free(circle_p1, p1, n_samples=2 ** 15, seed=5)
        assert diag.regular_value and diag.free_action
        assert diag.vol_M0 == pytest.approx(1.0, abs=5 * diag.vol_M0_stderr + 5e-3)

    def test_empty_locus_flag(self, p1):
        diag, _ = check_regular_and_free(TorusAction([[1, 1]]), p1, n_samples=1000, seed=1)
        assert diag.empty_locus

    def test_continuous_stabilizer_flags(self, p1):
        # the only stratum has a circle stabilizer: reported, not sampled
        diag, _ = check_regular_and_free(TorusAction([[1, -1], [2, -2]]), p1, n_samples=4096,
                                      seed=1)
        assert not diag.empty_locus
        assert not (diag.regular_value or diag.free_action or diag.stabilizer_constant)
        assert diag.vol_M0 is None and diag.n_samples == 0

    @pytest.mark.parametrize("weights", [[[1, -1, 0]], D4_WEIGHTS])
    def test_degenerate_vertex_stratum_is_not_regular(self, weights, monkeypatch):
        # the open stratum is free (finite generic stabilizer), but a vertex
        # of P -- [0:0:1], and the support {3, 4} -- has a continuous one
        action = TorusAction(weights)
        assert stabilizer_info(action, red.zero_locus(action).generic).free_rank == 0
        monkeypatch.setattr(red, "zero_locus_sample", None)     # decided without sampling
        diag, _ = check_regular_and_free(action, ProjectiveModel(action.n_coords - 1))
        assert not diag.regular_value and not diag.free_action
        assert not diag.stabilizer_constant and diag.vol_M0 is None

    @pytest.mark.parametrize("weights,order,constant",
                             [([[1, -1, -1]], 2, True), (D3_WEIGHTS, 3, False)])
    def test_stabilizer_constant_is_exact(self, weights, order, constant):
        # D3_WEIGHTS: the vertex u = (0, 3, 2, 1)/6 has stabilizer order 6
        action = TorusAction(weights)
        diag, _ = check_regular_and_free(action, ProjectiveModel(action.n_coords - 1),
                                         n_samples=2 ** 12)
        assert diag.regular_value and diag.free_action
        assert diag.stabilizer_order == order and diag.stabilizer_constant == constant

    def test_trivial_group(self, p1, trivial_g1):
        diag, _ = check_regular_and_free(trivial_g1, p1, n_samples=2 ** 15, seed=2)
        assert diag.vol_M0 == pytest.approx(p1.vol_M, rel=1e-12)

    def test_draws_zero_locus_once(self, p2, circle_p2, monkeypatch):
        calls = []
        orig = red.zero_locus_sample

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(red, "zero_locus_sample", counting)
        check_regular_and_free(circle_p2, p2, n_samples=2 ** 12, seed=3)
        assert len(calls) == 1

    def test_volume_matches_reduced_volume(self, p2, circle_p2):
        diag, _ = check_regular_and_free(circle_p2, p2, n_samples=2 ** 14, seed=9, band=0.04)
        vol, err = reduced_volume(circle_p2, p2, 2 ** 14, seed=9, band=0.04)
        assert diag.vol_M0 == vol and diag.vol_M0_stderr == err

    @pytest.mark.parametrize("weights,dphi,veff", [
        ([[1, -1, -1]], 2.0, math.pi),
        (D3_WEIGHTS, 2.0 / math.sqrt(3.0), (2.0 * math.pi) ** 2 / (3.0 * math.sqrt(3.0)))])
    def test_exact_minima(self, weights, dphi, veff):
        # least over the vertices of P: u = (1, 1, 0)/2 on P2, u = (1, 1, 1, 0)/3 on P3
        action = TorusAction(weights)
        diag, _ = check_regular_and_free(action, ProjectiveModel(action.n_coords - 1),
                                         n_samples=2 ** 12)
        assert diag.min_singular_dphi == pytest.approx(dphi, rel=1e-12)
        assert diag.v_eff_min == pytest.approx(veff, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(W=st.integers(1, 4).flatmap(lambda d: st.lists(
               st.lists(st.integers(-3, 3), min_size=d, max_size=d),
               min_size=1, max_size=2)),
           seed=st.integers(0, 2 ** 32))
    def test_minima_bound_every_sample(self, W, seed):
        # the vertex minima are infima over the zero locus: no sampled point
        # goes below them by more than its refinement residual (|Phi| <= 1e-9);
        # a last column of minus the row sums puts u = 1/(d+1) on the locus
        action = TorusAction([row + [-sum(row)] for row in W])
        try:
            diag, sample = check_regular_and_free(
                action, ProjectiveModel(action.n_coords - 1), n_samples=2 ** 12, seed=seed)
        except NumericFailure:      # an under-sampled band
            assume(False)
        assume(diag.regular_value)
        dphi = 2.0 * np.sqrt(np.linalg.eigvalsh(action.orbit_gram(sample.points))[:, 0])
        veff = effective_volume(sample.points, action, stab_order=diag.stabilizer_order)
        assert np.all(dphi >= diag.min_singular_dphi * (1.0 - 1e-9))
        assert np.all(veff >= diag.v_eff_min * (1.0 - 1e-9))

    @pytest.mark.parametrize("weights", [[[1, -1, -1]], D3_WEIGHTS])
    def test_closed_form_dphi_matches_fd(self, weights):
        # over an orthonormal frame of x^perp, dPhi dPhi^T = 4 (orbit Gram)
        action = TorusAction(weights)
        model = ProjectiveModel(action.n_coords - 1)
        pts = zero_locus_sample(action, model, 2 ** 12, seed=4).points[:16]
        closed = 2.0 * np.sqrt(np.linalg.eigvalsh(action.orbit_gram(pts)))
        fd = np.array([np.sort(np.linalg.svd(d_phi_fd(x, action), compute_uv=False))
                       for x in pts])
        assert np.max(np.abs(closed - fd)) <= 1e-8

    @pytest.mark.parametrize("weights", [[[1, -1, -1]], D3_WEIGHTS])
    def test_sampled_orbit_map_injective_off_stabilizer(self, weights):
        # sampled cross-check of the exact freeness flag: at locus points the
        # orbit map moves x by a positive multiple of dist_T(t, Stab)
        action = TorusAction(weights)
        model = ProjectiveModel(action.n_coords - 1)
        assert red.zero_locus(action).generic == tuple(range(model.n_coords))
        pts = zero_locus_sample(action, model, 2 ** 12, seed=6).points
        for x in pts[np.linspace(0, pts.shape[0] - 1, 6).astype(int)]:
            angles = stabilizer_info(action, red.point_support(x)).angles
            assert injectivity_oracle(x, action, angles) > 0.0


class TestZeroLocusSample:
    def test_refinement_quality(self, p2, circle_p2):
        s = zero_locus_sample(circle_p2, p2, 2 ** 15, seed=7)
        assert s.points.shape[0] > 100
        resid = np.linalg.norm(moment_map(s.points, circle_p2), axis=1)
        assert np.max(resid) <= 1e-9
        assert s.weight > 0

    def test_support_restriction(self, p2, circle_p2):
        s = zero_locus_sample(circle_p2, p2, 2 ** 13, seed=7, support=(0, 1))
        assert np.max(np.abs(s.points[:, 2])) == 0.0
        resid = np.linalg.norm(moment_map(s.points, circle_p2), axis=1)
        assert np.max(resid) <= 1e-9


    @settings(max_examples=30, deadline=None)
    @given(W=st.integers(1, 4).flatmap(lambda d: st.lists(
               st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1),
               min_size=1, max_size=2)),
           seed=st.integers(0, 2 ** 32), k=st.integers(0, 8))
    @example(W=[[1, -1, -1]], seed=0, k=6)      # a one-row last block moved its bits
    @example(W=[[0, 1, 1, 1]], seed=0, k=0)     # BLAS moment maps moved Newton's bits
    @example(W=D3_WEIGHTS, seed=1, k=3)
    def test_blocks_are_bit_identical(self, W, seed, k):
        # the streamed zero-locus draw, Newton refinement included, is the
        # same bits in 2^4-row blocks, in the default ones and in one block,
        # and so are the blocked kernel sums over 289 rows in blocks of 2^4
        # and of the default terms
        action = TorusAction(W)
        model = ProjectiveModel(action.n_coords - 1)
        pts = sample_sphere(289, seed, model)
        basis = section_basis(k, model, action.W, [0] * action.g)

        def run(block):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(geometry, "_SOBOL_BLOCK", block)
                try:
                    s = zero_locus_sample(action, model, 2 ** 10, seed, band=0.2)
                    locus = [s.points, s.weight]
                except ReductionHypothesisError as exc:     # singular Gram in Newton
                    locus = [str(exc)]
                return locus, kernel_pair_values(pts[::-1], pts, basis.indices, basis.log_norms)

        def same(a, b):
            return np.asarray(a).tobytes() == np.asarray(b).tobytes()

        locus, kernel = run(geometry._SOBOL_BLOCK)
        small_locus, small_kernel = run(2 ** 4)
        one_locus, _ = run(2 ** 30)
        assert same(small_kernel, kernel)
        for got in (small_locus, one_locus):
            assert len(got) == len(locus) and all(same(a, b) for a, b in zip(got, locus))

    @pytest.mark.parametrize("W,limit", [([[1, -1, -1]], 2.5), (D3_WEIGHTS, 1.0)],
                             ids=["p2", "d3"])
    def test_draw_peak_is_a_block_and_the_output(self, W, limit):
        # 2^18 draws keep 13,104 (p2, 0.6 MiB of points) and 676 rows (d3):
        # the band filter, Newton, the residual filter and the embedding run
        # as the draw streams, so the heap holds one block of draw, one batch
        # of Newton and the output (measured 1.8 and 0.8 MiB)
        action = TorusAction(W)
        model = ProjectiveModel(action.n_coords - 1)
        zero_locus_sample(action, model, 2, seed=0)      # loads the direction table
        tracemalloc.start()
        try:
            zero_locus_sample(action, model, 2 ** 18, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2 ** 20

    def test_streamed_draw_memory(self):
        # a 2^20-point draw on P3 holds one block and the band rows at a time
        action, model = TorusAction(D3_WEIGHTS), ProjectiveModel(3)
        zero_locus_sample(action, model, 2, seed=0)      # loads the direction table
        tracemalloc.start()
        try:
            sample = zero_locus_sample(action, model, 2 ** 20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n_total == 2 ** 20 and sample.points.shape[0] > 1000
        assert peak < 16 * 2 ** 20


class TestEffectiveVolume:
    def test_trivial_group_point_orbit(self, p1, trivial_g1):
        x = sample_sphere(1, 3, p1)[0]
        assert effective_volume(x, trivial_g1) == 1.0

    def test_p1_balanced_value(self, circle_p1):
        x = np.array([1, 1], complex) / math.sqrt(2)
        # orbit sweeps the equator twice: image length is pi
        assert effective_volume(x, circle_p1) == pytest.approx(math.pi, rel=1e-12)

    def test_on_diagonal_scaling_identity(self, p1, circle_p1):
        # oracle: exact equivariant kernel at the balanced point,
        # Pi_{0,k}(x,x) = 2^{-k} (k+1)!/((k/2)!)^2 / vol_X
        x = np.array([1, 1], complex) / math.sqrt(2)
        veff = effective_volume(x, circle_p1)
        for k in (512, 2048):
            logv = k * math.log(0.5) + gammaln(k + 2) - 2 * gammaln(k / 2 + 1) \
                - math.log(p1.vol_X)
            pred = (k / math.pi) ** 0.5 * 2 ** 0.5 / veff
            ratio = math.exp(logv) / pred
            assert abs(ratio - 1) < 2.0 / k

    def test_rows_match_single_points(self):
        action, model = TorusAction(D3_WEIGHTS), ProjectiveModel(3)
        pts = zero_locus_sample(action, model, 2 ** 12, seed=8).points[:10]
        rows = effective_volume(pts, action)
        assert rows.tolist() == [effective_volume(x, action) for x in pts]

    def test_invariance_along_orbit(self, circle_p1):
        x = np.array([1, 1], complex) / math.sqrt(2)
        vals = [effective_volume(circle_p1.act(np.array([t]), x), circle_p1)
                for t in np.linspace(0, 2, 7)]
        assert np.max(np.abs(np.array(vals) - vals[0])) < 1e-8


class TestReducedVolume:
    def test_p1_point_volume(self):
        ok, detail = check_reduced_volume_point(n_samples=2 ** 17, seed=11, sigmas=3)
        assert ok, detail

    def test_p2_value(self, p2, circle_p2):
        vol, err = reduced_volume(circle_p2, p2, 2 ** 18, seed=13)
        assert abs(vol - math.pi / 2) <= 3 * err + 5e-3

    def test_p2_matches_dimension_slope(self, p2, circle_p2):
        # oracle: dim of the invariant isotype grows like (k/pi) vol(M0)
        from eqtoeplitz.symmetry import isotype_basis
        k = 300
        dim = isotype_basis(k, (0,), circle_p2, p2).dim
        assert dim == k // 2 + 1
        vol, err = reduced_volume(circle_p2, p2, 2 ** 18, seed=17)
        assert abs(dim * math.pi / k - vol) <= 5.0 / k + 3 * err

    @pytest.mark.parametrize("seed", range(5))
    def test_benchmark_draws_hit_the_exact_values(self, seed, p2, circle_p2):
        # the benchmark's 2^18-point draws: vol(M0) within 5 sigma of pi/2 on
        # P2 and of pi/6 on P3 under D3_WEIGHTS, and the f-bar of
        # u_1 + u_0 u_3 / 2 there within 5 sigma of 91 pi / 1296, the value
        # the exact trace identity reads off the traces
        diag, _ = check_regular_and_free(circle_p2, p2, n_samples=2 ** 18, seed=seed)
        assert abs(diag.vol_M0 - math.pi / 2) <= 5 * diag.vol_M0_stderr
        action, model = TorusAction(D3_WEIGHTS), ProjectiveModel(3)
        diag, sample = check_regular_and_free(action, model, n_samples=2 ** 18, seed=seed)
        assert abs(diag.vol_M0 - math.pi / 6) <= 5 * diag.vol_M0_stderr
        f = Observable(u_terms={(0, 1, 0, 0): 1.0, (1, 0, 0, 1): 0.5})
        sym = DiagonalSymmetry(phi=[0.3, 0.5, -0.8, 0.1])
        (comp,) = find_fixed_components(action, sym, model)
        comp = f_bar_integral(component_invariants(comp, sym, action, model), f, action,
                              model, 2 ** 18, seed, sample=sample)
        assert abs(comp.f_bar_integral - 91 * math.pi / 1296) <= 5 * comp.f_bar_stderr

    def test_one_weight_is_each_coarea_weight_over_v_eff(self, p2, circle_p2):
        # a point's coarea weight vol_M 2^g sqrt(det Gram) / (n ball) over its
        # orbit volume, the stabilizer order read off its support, is the
        # same for every point, so one weight serves the whole sample
        for action, model in ((circle_p2, p2), (TorusAction(D3_WEIGHTS), ProjectiveModel(3))):
            sample = zero_locus_sample(action, model, 2 ** 14, seed=2)
            det = np.linalg.det(action.orbit_gram(sample.points))
            coarea = (model.vol_M * 2.0 ** action.g * np.sqrt(det)
                      / (sample.n_total * red._ball_volume(action.g, sample.band)))
            vol, _ = reduced_space_integral(action, sample)
            assert vol == pytest.approx(np.sum(coarea / effective_volume(sample.points, action)),
                                        rel=1e-14)

    def test_halving_rate(self, p2, circle_p2):
        _, e1 = reduced_volume(circle_p2, p2, 2 ** 16, seed=19)
        _, e2 = reduced_volume(circle_p2, p2, 2 ** 17, seed=19)
        assert 1.2 <= e1 / e2 <= 1.7

    def test_empty_locus_raises(self, p1):
        with pytest.raises(ReductionHypothesisError):
            reduced_volume(TorusAction([[1, 1]]), p1, 2 ** 12, seed=1)

    def test_empty_band_sample_is_numeric_failure(self, p2, circle_p2):
        # the locus is there, the band just caught none of it
        sample = zero_locus_sample(circle_p2, p2, 2 ** 4, seed=1, band=1e-9)
        assert sample.points.shape[0] == 0
        with pytest.raises(NumericFailure, match=r"\(0, 1, 2\).*sampling.n_samples"):
            reduced_space_integral(circle_p2, sample)


class TestFixedComponents:
    def test_p2_generic_two_points(self, p2, circle_p2):
        comps = find_fixed_components(circle_p2, sym_of(0.0, 0.9, 2.1), p2)
        assert len(comps) == 2
        assert sorted(c.support for c in comps) == [(0, 1), (0, 2)]
        for c in comps:
            assert c.d_l == 0 and c.codim == 1
            assert c.stab_order == 2
            assert not c.suspected_nongeneric

    def test_identity_symmetry_full_component(self, p2, circle_p2):
        comps = find_fixed_components(circle_p2, sym_of(0.0, 0.0, 0.0), p2)
        assert len(comps) == 1
        assert comps[0].support == (0, 1, 2)
        assert comps[0].d_l == p2.d - circle_p2.g

    def test_p1_single_point(self, p1, circle_p1):
        comps = find_fixed_components(circle_p1, sym_of(0.0, 1.3), p1)
        assert len(comps) == 1 and comps[0].d_l == 0

    def test_lefschetz_points_trivial_group(self, p2, trivial_g2):
        comps = find_fixed_components(trivial_g2, sym_of(0.0, 0.9, 2.1), p2)
        assert sorted(c.support for c in comps) == [(0,), (1,), (2,)]
        assert all(c.d_l == 0 for c in comps)

    def test_near_resonance_flagged(self, p2, trivial_g2):
        # {0, 1} misses its congruence by 1e-4: it flags the components
        # within one coordinate of it, (0,) and (1,), but not (2,)
        comps = find_fixed_components(trivial_g2, sym_of(0.0, 1e-4, 2.0), p2)
        assert {c.support: c.suspected_nongeneric for c in comps} == {
            (0,): True, (1,): True, (2,): False}

    def test_near_resonance_is_local(self):
        # generic phases at d = 14: among the supports solved some miss by
        # less than RESONANCE_BAND, but they lie beside a few components only
        rng = np.random.default_rng(0)
        action = TorusAction(rng.integers(-30, 31, size=(2, 15)))
        sym = DiagonalSymmetry(phi=rng.uniform(0.0, 2 * math.pi, size=15))
        flags = [c.suspected_nongeneric for c in
                 find_fixed_components(action, sym, ProjectiveModel(14))]
        assert any(flags) and not all(flags)

    def test_resonant_phase_merges_to_reduced_space(self, p2, circle_p2):
        # phi1 = phi2 makes the descended map the identity: one component
        comps = find_fixed_components(circle_p2, sym_of(0.0, 1.3, 1.3), p2)
        assert len(comps) == 1
        assert comps[0].support == (0, 1, 2) and comps[0].d_l == 1


    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_fixing_the_locus_is_one_component(self, seed):
        # phi = theta . W with W in [-30, 30]: every support's congruence holds
        # exactly, up to the rounding of phi
        rng = np.random.default_rng(seed)
        action = TorusAction(rng.integers(-30, 31, size=(2, 9)))
        sym = DiagonalSymmetry(phi=rng.uniform(0.0, 2 * math.pi, size=2) @ action.W)
        comps = find_fixed_components(action, sym, ProjectiveModel(8))
        supp = red.zero_locus(action).generic
        assert [c.support for c in comps] == ([supp] if supp else [])
        assert not any(c.suspected_nongeneric for c in comps)
        # a true miss of 1e-7 at one coordinate is not forgiven: the locus is
        # no longer fixed, and every component lies within one coordinate of
        # a support through that coordinate that misses by about 1e-7
        shifted = DiagonalSymmetry(sym.phi + 1e-7 * (np.arange(9) == 0), sym.theta_A)
        comps = find_fixed_components(action, shifted, ProjectiveModel(8))
        assert supp not in [c.support for c in comps]
        assert all(c.suspected_nongeneric for c in comps)

    @pytest.mark.parametrize("d,seed", [(8, 1), (8, 2), (8, 3), (8, 8), (8, 9), (10, 0), (10, 1)])
    def test_symmetry_fixing_the_locus_has_finite_invariants(self, d, seed):
        # draws as above on which exploding Smith transforms once put g_m off
        # by O(1), so the representative was not fixed (DegenerateSymmetryError)
        rng = np.random.default_rng(seed)
        action = TorusAction(rng.integers(-30, 31, size=(2, d + 1)))
        sym = DiagonalSymmetry(phi=rng.uniform(0.0, 2 * math.pi, size=2) @ action.W)
        model = ProjectiveModel(d)
        [comp] = find_fixed_components(action, sym, model)
        done = component_invariants(comp, sym, action, model)
        assert done.codim == 0 and done.c_l == 1.0
        # gamma is a torus element: h_l is 1 up to the stabilizer branch
        assert abs(done.h_l ** done.stab_order - 1) < 1e-10

    @pytest.mark.parametrize("weights,vertex", [([[1, -1, 0]], (2,)), (D4_WEIGHTS, (3, 4))])
    def test_degenerate_vertex_stratum_raises_with_witness(self, weights, vertex):
        action = TorusAction(weights)
        n = action.n_coords
        with pytest.raises(ReductionHypothesisError) as err:
            find_fixed_components(action, DiagonalSymmetry(phi=np.zeros(n)),
                                  ProjectiveModel(n - 1))
        assert err.value.witness == vertex

    def test_oversize_search_fails_before_enumerating(self, monkeypatch):
        # generic phases on P^11 without a group: the generic support and the
        # 12 singletons fit a budget of 40 solves, the 66 pairs do not
        solve = red._solve_support
        solved = []
        monkeypatch.setattr(red, "MAX_SUPPORT_SOLVES", 40)
        monkeypatch.setattr(red, "_solve_support",
                            lambda *a: solved.append(a[2]) or solve(*a))
        with pytest.raises(NumericFailure, match="budget"):
            find_fixed_components(TorusAction(np.zeros((0, 12), np.int64)),
                                  sym_of(*np.linspace(0.0, 5.5, 12)), ProjectiveModel(11))
        assert len(solved) == 13


@st.composite
def fixed_component_inputs(draw):
    """Random small weights (g <= 2, d <= 5) with generic phases, phi =
    theta . W (every support solvable: positive-dimensional components) or
    theta . W on a random half of the coordinates (resonant)."""
    g, n = draw(st.integers(0, 2)), draw(st.integers(2, 6))
    W = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=g, max_size=g)), dtype=np.int64).reshape(g, n)
    family = draw(st.sampled_from(("generic", "theta-W", "resonant")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phi = rng.uniform(0.0, 2 * math.pi, g) @ W
    if family == "generic":
        phi = rng.uniform(0.0, 2 * math.pi, n)
    elif family == "resonant":
        phi = np.where(rng.random(n) < 0.5, phi, rng.uniform(0.0, 2 * math.pi, n))
    return TorusAction(W), DiagonalSymmetry(phi=phi, theta_A=rng.uniform(-3.0, 3.0))


class TestComponentInvariants:
    def test_p2_fd_matches_phase_arithmetic(self, p2, circle_p2):
        sym = sym_of(0.0, 0.9, 2.1)
        for c in find_fixed_components(circle_p2, sym, p2):
            done = component_invariants(c, sym, circle_p2, p2)
            assert abs(done.c_l - done.c_l_exact) < 1e-6
            # hand-derived: lambda = e^{i(phi_b - phi_j)} for the paired support
            j = done.support[1]
            b = 3 - j  # the missing coordinate among {1, 2}
            lam = np.exp(1j * (sym.phi[b] - sym.phi[j]))
            assert done.c_l_exact == pytest.approx(1 - np.conj(lam), rel=1e-12)
            assert abs(abs(done.h_l) - 1) < 1e-10

    def test_identity_invariants(self, p2, circle_p2):
        sym = sym_of(0.0, 0.0, 0.0, theta_A=0.3)
        c = component_invariants(find_fixed_components(circle_p2, sym, p2)[0],
                                 sym, circle_p2, p2)
        assert c.c_l == pytest.approx(1.0, abs=1e-12)
        assert c.h_l == pytest.approx(np.exp(0.3j), rel=1e-12)
        assert c.chi((0,)) == pytest.approx(1.0, rel=1e-14)

    def test_constancy_across_representatives(self, p2, circle_p2):
        sym = sym_of(0.0, 0.9, 2.1)
        comp = find_fixed_components(circle_p2, sym, p2)[0]
        vals = []
        for rep in component_representatives(comp, circle_p2, 3, seed=23):
            done = component_invariants(comp._replace(representative=rep),
                                        sym, circle_p2, p2)
            vals.append((done.c_l, done.h_l))
        for c_l, h_l in vals[1:]:
            assert abs(c_l - vals[0][0]) < 1e-6
            assert abs(h_l - vals[0][1]) < 1e-8

    def test_positive_dim_constancy(self, p2, circle_p2):
        sym = sym_of(0.0, 0.0, 0.0)
        comp = find_fixed_components(circle_p2, sym, p2)[0]
        for rep in component_representatives(comp, circle_p2, 3, seed=29):
            done = component_invariants(comp._replace(representative=rep),
                                        sym, circle_p2, p2)
            assert done.c_l == pytest.approx(1.0, abs=1e-9)
            D, nt = descended_differential(rep, comp.support, comp.t_angles, sym, circle_p2)
            assert nt == comp.d_l == 1 and frame_error(D, nt) < 1e-9

    def test_degenerate_symmetry_error(self, p2, trivial_g2, monkeypatch):
        # phi_1 within 1e-4 of phi_0: |c_l| ~ 1e-4 on the coordinate component
        sym = sym_of(0.0, 1e-4, 2.0)
        comps = find_fixed_components(trivial_g2, sym, p2)
        comp0 = next(c for c in comps if c.support == (0,))
        monkeypatch.setattr(red, "C_L_TOL", 1e-3)
        with pytest.raises(DegenerateSymmetryError):
            component_invariants(comp0, sym, trivial_g2, p2)

    def test_gm_well_defined_up_to_stabilizer(self, p2, circle_p2):
        # numeric orbit solve at a second representative recovers t mod Stab
        sym = sym_of(0.0, 0.9, 2.1)
        comp = find_fixed_components(circle_p2, sym, p2)[0]
        rep = component_representatives(comp, circle_p2, 2, seed=31)[1]

        def mismatch(theta):
            moved = circle_p2.act(np.array([theta]), rep)
            target = sym.gamma_M(rep)
            return -abs(np.vdot(moved, target))

        best = None
        for t0 in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            res = minimize_scalar(mismatch, bracket=(t0, t0 + 0.05))
            if best is None or res.fun < best.fun:
                best = res
        t_num = best.x % (2 * math.pi)
        branches = [(comp.t_angles[0] + s[0]) % (2 * math.pi)
                    for s in comp.stab_angles]
        assert min(min(abs(t_num - b), 2 * math.pi - abs(t_num - b))
                   for b in branches) < 1e-8

    def test_h_l_theta_A_covariance(self, p2, circle_p2):
        delta = 0.41
        base = sym_of(0.0, 0.9, 2.1)
        shifted = sym_of(0.0, 0.9, 2.1, theta_A=delta)
        c0 = component_invariants(find_fixed_components(circle_p2, base, p2)[0],
                                  base, circle_p2, p2)
        c1 = component_invariants(find_fixed_components(circle_p2, shifted, p2)[0],
                                  shifted, circle_p2, p2)
        assert c1.h_l / c0.h_l == pytest.approx(np.exp(1j * delta), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(fixed_component_inputs())
    @example((TorusAction(D3_WEIGHTS), sym_of(0.3, 0.5, -0.8, 0.1)))
    @example((TorusAction([[1, -1, -1]]), sym_of(0.0, 0.0, 0.0)))
    def test_normal_block_is_the_full_frame_block(self, inputs):
        # the normal-coordinate differential is the normal block of the
        # differential in the whole horizontal frame, bit for bit, and that
        # frame's tangent block is I: the component is fixed
        action, sym = inputs
        model = ProjectiveModel(action.n_coords - 1)
        try:
            comps = find_fixed_components(action, sym, model)
        except ReductionHypothesisError:
            assume(False)
        for c in comps:
            normal = [b for b in range(model.n_coords) if b not in c.support]
            DNN = red._normal_differential(c.representative, normal, c.t_angles, sym, action)
            D, nt = descended_differential(c.representative, c.support, c.t_angles, sym,
                                           action)
            assert DNN.tobytes() == np.ascontiguousarray(D[nt:, nt:]).tobytes()
            assert nt == c.d_l and frame_error(D, nt) < 1e-9


class TestFBarIntegral:
    def test_constant_gives_volume(self, p2, circle_p2):
        sym = sym_of(0.0, 0.9, 2.1)
        comp = component_invariants(find_fixed_components(circle_p2, sym, p2)[0],
                                    sym, circle_p2, p2)
        one = Observable.constant(1.0, 3)
        done = f_bar_integral(comp, one, circle_p2, p2)
        assert done.f_bar_integral == pytest.approx(1.0, rel=1e-14)  # point component

    def test_full_component_volume(self, p2, circle_p2):
        sym = sym_of(0.0, 0.0, 0.0)
        comp = component_invariants(find_fixed_components(circle_p2, sym, p2)[0],
                                    sym, circle_p2, p2)
        one = Observable.constant(1.0, 3)
        done = f_bar_integral(comp, one, circle_p2, p2, n_samples=2 ** 17, seed=3)
        assert abs(done.f_bar_integral - math.pi / 2) <= 3 * done.f_bar_stderr + 5e-3

    def test_reuses_a_sample_of_its_support(self, p2, circle_p2, monkeypatch):
        # the diagnostics' sample of the generic support (0, 1, 2) stands in
        # for the draw of the component spanning the locus, with the same bits
        sym = sym_of(0.0, 0.0, 0.0)
        comp = component_invariants(find_fixed_components(circle_p2, sym, p2)[0],
                                    sym, circle_p2, p2)
        u1 = Observable.coordinate_modulus(1, 3)
        _, sample = check_regular_and_free(circle_p2, p2, n_samples=2 ** 12, seed=3)
        fresh = f_bar_integral(comp, u1, circle_p2, p2, n_samples=2 ** 12, seed=3)
        monkeypatch.setattr(red, "zero_locus_sample", None)
        reused = f_bar_integral(comp, u1, circle_p2, p2, n_samples=2 ** 12, seed=3,
                                sample=sample)
        assert comp.support == sample.support == (0, 1, 2)
        assert (reused.f_bar_integral, reused.f_bar_stderr) == (fresh.f_bar_integral,
                                                                fresh.f_bar_stderr)

    def test_u1_on_point_component(self, p2, circle_p2):
        sym = sym_of(0.0, 0.9, 2.1)
        u1 = Observable.coordinate_modulus(1, 3)
        comps = [component_invariants(c, sym, circle_p2, p2)
                 for c in find_fixed_components(circle_p2, sym, p2)]
        vals = {c.support: f_bar_integral(c, u1, circle_p2, p2).f_bar_integral
                for c in comps}
        assert vals[(0, 1)] == pytest.approx(0.5, rel=1e-12)
        assert vals[(0, 2)] == pytest.approx(0.0, abs=1e-14)

    def test_invariant_average_is_identity(self, p2, circle_p2):
        # u-polynomials are torus-invariant: the average changes nothing
        f = Observable(u_terms={(1, 1, 0): 2.0})
        assert f.g_average(circle_p2).u_terms == f.u_terms
        pts = zero_locus_sample(circle_p2, p2, 2 ** 12, seed=3).points
        assert np.allclose(f.g_average(circle_p2).value(pts), f.value(pts), atol=1e-12)


class TestCompleteness:
    def test_no_missed_components(self, p2, circle_p2):
        # numeric orbit-distance sweep: zero-locus points that are nearly
        # fixed must lie near an enumerated component
        sym = sym_of(0.0, 0.9, 2.1)
        comps = find_fixed_components(circle_p2, sym, p2)
        pts = zero_locus_sample(circle_p2, p2, 2 ** 13, seed=37).points
        grid = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        target = sym.gamma_M(pts)
        best = np.zeros(pts.shape[0])
        for th in grid:
            moved = circle_p2.act(np.array([th]), pts)
            best = np.maximum(best, np.abs(np.sum(moved * target.conj(), axis=1)))
        fix_dist = np.sqrt(np.maximum(0.0, 2 - 2 * best))
        near = pts[fix_dist < 1e-3]
        for x in near:
            dist_to_comp = min(np.linalg.norm(x[[j for j in range(3)
                                                 if j not in c.support]])
                               for c in comps)
            assert dist_to_comp < 5e-2

    def test_perturbed_component_point_detected(self, p2, circle_p2):
        sym = sym_of(0.0, 0.9, 2.1)
        comps = find_fixed_components(circle_p2, sym, p2)
        rep = comps[0].representative
        # small perturbation off the component, still on the zero locus
        x = rep + 1e-5 * np.array([0, 0, 1], complex)
        x /= np.linalg.norm(x)
        target = sym.gamma_M(x)

        def mismatch(theta):
            return -abs(np.vdot(circle_p2.act(np.array([theta]), x), target))

        grid = np.linspace(0, 2 * math.pi, 512, endpoint=False)
        t0 = min(grid, key=mismatch)
        res = minimize_scalar(mismatch, bracket=(t0 - 0.01, t0 + 0.01))
        assert math.sqrt(max(0.0, 2 + 2 * res.fun)) < 1e-4


class TestStabilizers:
    def test_kernel_of_projective_action(self, circle_p2):
        info = stabilizer_info(circle_p2, (0, 1, 2))
        assert info.order == 2 and info.free_rank == 0

    def test_singleton_support_continuous(self, circle_p1):
        info = stabilizer_info(circle_p1, (0,))
        assert info.free_rank == 1

    def test_trivial_group(self, trivial_g1):
        info = stabilizer_info(trivial_g1, (0, 1))
        assert info.order == 1 and info.angles.shape == (1, 0)
