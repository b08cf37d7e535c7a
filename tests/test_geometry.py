import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from eqtoeplitz import geometry
from eqtoeplitz._intlinalg import NumericFailure, pivot_minor
from eqtoeplitz.geometry import (MAX_CUBATURE_NODES, MAX_SLICE_ROWS, ProjectiveModel,
                                 _log_factorials, _sobol, _weight_slice, check_slice_budget, kernel_pair_values, log_monomial_norm,
                                 monomial_norm, sample_sphere, section_basis,
                                 sphere_cubature, szego_kernel)
from eqtoeplitz.selftest import (check_kappa_calibration, check_norm_table,
                                 check_reproducing_property, check_sampler_determinism)

from conftest import int_adjugate, monomial_matrix, multi_indices_by_level, plain_sphere


#: the d4-isotype benchmark's weights, and two wider systems of the same kind
W_D4 = [[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]]
W_6 = [[1, 0, -1, 2, -2, 1, -1], [0, 1, -1, -1, 1, 1, -1]]
W_8 = [[1, 0, -1, 2, -2, 1, -1, 0, 1], [0, 1, -1, -1, 1, 1, -1, 2, -1]]


def candidate_slice(k, W, varpi):
    """Oracle for `_weight_slice`: every candidate, then a filter.  A nonzero
    r x r minor M (rows R, columns D) of A = [1; -W] makes the other n-r
    coordinates free: they run over every |alpha_F| <= k, and
    alpha_D = adj(M)(b_R - A_RF alpha_F) / det(M) exactly in integers.  Rows
    that are integral, nonnegative and satisfy all g+1 equations are the
    slice, lex-descending."""
    W = np.asarray(W, dtype=np.int64)
    n = W.shape[1]
    A = np.vstack([np.ones((1, n), np.int64), -W])
    b = np.concatenate([[k], np.asarray(varpi, dtype=np.int64)])
    rows, dep = pivot_minor(A.tolist())
    r = len(dep)
    free = [j for j in range(n) if j not in dep]
    adj, det = int_adjugate([[int(A[i, j]) for j in dep] for i in rows])
    adj = np.array(adj, dtype=np.int64)
    a_free = multi_indices_by_level(k, n - r + 1)[:, :n - r]
    num = (b[list(rows)][None, :] - a_free @ A[np.ix_(rows, free)].T) @ adj.T
    alpha = np.empty((a_free.shape[0], n), np.int64)
    alpha[:, free] = a_free
    alpha[:, dep] = num // det
    keep = (np.all(num % det == 0, axis=1) & np.all(alpha >= 0, axis=1)
            & np.all(alpha @ A.T == b[None, :], axis=1))
    alpha = alpha[keep]
    return alpha[np.lexsort(-alpha.T[::-1])]


def walked_slice(k, W, varpi):
    """(alpha, walked): `_weight_slice`'s blocks stacked into one array, which
    holds its `dim` rows, and the lattice points the walk visited."""
    W = np.asarray(W, dtype=np.int64)
    dim, walked, blocks = _weight_slice(k, W, np.asarray(varpi, dtype=np.int64))
    alpha = np.concatenate([np.zeros((0, W.shape[1]), np.int64), *blocks()])
    assert len(alpha) == dim
    return alpha, walked


@st.composite
def slice_systems(draw):
    """(k, W, varpi): W an integer array of g in 0..3 weight rows of d+1 <= 7 entries in [-3, 3],
    k <= 20, and a label that occurs at level k or an arbitrary one."""
    n, g, k = draw(st.integers(2, 7)), draw(st.integers(0, 3)), draw(st.integers(0, 20))
    W = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=g, max_size=g)), dtype=np.int64).reshape(g, n)
    if g and draw(st.booleans()):
        alpha = draw(st.lists(st.integers(0, k), min_size=n - 1, max_size=n - 1))
        alpha = np.diff(np.sort([0, k] + alpha))
        varpi = -W @ alpha
    else:
        varpi = draw(st.lists(st.integers(-40, 40), min_size=g, max_size=g))
    return k, W, [int(v) for v in varpi]


class TestWeightSlice:
    """The walk of the slice's lattice points against the candidate filter."""

    @given(slice_systems())
    @settings(max_examples=150, deadline=None)
    @example((20, np.array(W_D4), [0, 0]))
    @example((20, np.array([[1, -1, -1]]), [0]))
    @example((20, np.array(W_8), [1, 0]))                    # lattice index 3: det > 1
    @example((6, np.array([[1, -1, 0], [0, 1, -1]]), [0, 0]))    # m = 0: one point
    @example((7, np.array([[1, -1, 0], [0, 1, -1]]), [0, 0]))    # m = 0: no point
    @example((20, np.random.default_rng(0).integers(-30, 31, (2, 9)), [0, 0]))   # empty
    def test_rows_and_order_match_the_candidate_filter(self, case):
        k, W, varpi = case
        got, walked = walked_slice(k, W, varpi)
        want = candidate_slice(k, W, varpi)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert walked >= len(got)

    def test_lattice_index_above_one(self):
        # W_8's lattice projects to a sublattice of index 3 of the minor's
        # free coordinates, of which listing candidates keeps one class in
        # three: |det| of the basis on those coordinates, whatever the basis
        plan = geometry._slice_plan(9, tuple(map(tuple, W_8)))
        A = [[1] * 9] + [[-w for w in row] for row in W_8]
        free = [j for j in range(9) if j not in pivot_minor(A)[1]]
        assert int_adjugate([[row[f] for f in free] for row in plan.L])[1] == 3

    @given(slice_systems())
    @settings(max_examples=150, deadline=None)
    @example((20, np.array(W_8), [0, 0]))
    @example((6, np.array([[1, -1, 0], [0, 1, -1]]), [0, 0]))    # m = 0: no basis row
    def test_plan_basis_is_echelon(self, case):
        # the walk's order is the rows' lex order only if the basis is in row
        # echelon form over coordinates 0..n-1: each pivot right of the one
        # above, positive, zeros left of it, and the rows above it in [0, pivot)
        _, W, _ = case
        n = W.shape[1]
        plan = geometry._slice_plan(n, tuple(map(tuple, W.tolist())))
        A = np.vstack([np.ones((1, n), np.int64), -W])
        L = np.array(plan.L, dtype=np.int64).reshape(-1, n)
        assert len(L) == len(plan.pivots) == n - len(pivot_minor(A.tolist())[0])
        assert not np.any(L @ A.T)
        assert list(plan.pivots) == sorted(set(plan.pivots))
        for i, f in enumerate(plan.pivots):
            assert L[i, f] > 0 and not np.any(L[i, :f])
            assert np.all((L[:i, f] >= 0) & (L[:i, f] < L[i, f]))

    def test_w8_level_30(self):
        # 44,058 rows, where listing the C(36, 6) = 1,947,792 candidates of the
        # free coordinates would exceed the budget; the walk's stages visit at
        # most twice as many points as the last one keeps
        alpha, walked = walked_slice(30, W_8, [0, 0])
        assert len(alpha) == 44_058 and math.comb(36, 6) > MAX_SLICE_ROWS
        assert walked <= 2 * len(alpha)
        assert np.all(alpha.sum(axis=1) == 30) and not np.any(alpha @ np.array(W_8).T)

    def test_w6_top_level_heap(self):
        # the d = 6 sweep's top level, whose candidate listing peaks at 68.9 MiB
        W = np.array(W_6)
        walked_slice(20, W, [0, 0])                  # the plan, outside the trace
        tracemalloc.start()
        try:
            alpha, _ = walked_slice(56, W, [0, 0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(alpha) == 18_145 and peak < 16 * 2 ** 20

    def test_w8_top_prefix_stage_heap(self):
        # the W_8 sweep's top level: its last prefix stage sets the walk's heap
        # peak, 35.3 MiB while each stage's prefixes were repeated and then
        # stacked with the new column, 32.5 MiB filled in place
        W = np.array(W_8)
        _weight_slice(20, W, np.array([0, 0]))          # the plan, outside the trace
        tracemalloc.start()
        try:
            dim, _, _ = _weight_slice(52, W, np.array([0, 0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == 838_980 and peak < 34 * 2 ** 20


def sobol_points(*args):
    """`_sobol`'s blocks stacked into one (n, dim) array."""
    return np.concatenate(list(_sobol(*args)))


class TestModel:
    def test_volume_normalization(self, p1, p2):
        assert p1.vol_M == pytest.approx(math.pi, abs=0)
        assert p2.vol_M == pytest.approx(math.pi ** 2 / 2, abs=0)
        assert p1.vol_X == p1.kappa_x * p1.vol_M

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            ProjectiveModel(0)


class TestMultiIndices:
    """The full basis, the trivial group's weight slice, against the level
    table oracle."""

    @pytest.mark.parametrize("k,d", [(0, 1), (3, 1), (5, 2), (12, 2)])
    def test_count_and_degree(self, k, d):
        idx = section_basis(k, ProjectiveModel(d)).indices
        assert idx.shape[0] == math.comb(k + d, d)
        assert np.all(idx.sum(axis=1) == k)
        assert len({tuple(r) for r in idx}) == idx.shape[0]

    def test_matches_level_table_oracle(self):
        for d in range(1, 6):
            for k in range(41):
                if math.comb(k + d, d) > MAX_SLICE_ROWS:      # d = 5, k = 39 and 40
                    with pytest.raises(NumericFailure, match="budget"):
                        section_basis(k, ProjectiveModel(d))
                    continue
                want = multi_indices_by_level(k, d + 1)
                got = section_basis(k, ProjectiveModel(d)).indices
                assert got.dtype == want.dtype and np.array_equal(got, want), (d, k)

    @given(st.integers(1, 6), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    @example(6, 26)                               # the largest within the budget
    @example(6, 27)                               # C(33, 6) = 1,107,568 rows: refused
    def test_full_basis_is_the_level_table(self, d, k):
        model = ProjectiveModel(d)
        if math.comb(k + d, d) > MAX_SLICE_ROWS:
            with pytest.raises(NumericFailure, match="budget"):
                section_basis(k, model)
            return
        basis = section_basis(k, model)
        want = multi_indices_by_level(k, d + 1)
        assert basis.dim == len(want)
        assert basis.indices.dtype == want.dtype and np.array_equal(basis.indices, want)

    def test_basis_dimension(self, p2):
        basis = section_basis(7, p2)
        assert basis.dim == math.comb(9, 2)

    def test_slice_over_budget_fails_before_enumerating(self):
        # the d4 weights at k = 10,000: ~10^4 points in the first stage, and
        # ~3 10^7 rows in the second, refused before that stage is built
        W = np.array(W_D4)
        check_slice_budget(100, W, (0, 0))                   # the plan, outside the trace
        tracemalloc.start()
        try:
            with pytest.raises(NumericFailure, match="budget"):
                section_basis(10_000, ProjectiveModel(4), W, (0, 0))
            with pytest.raises(NumericFailure, match="budget"):
                check_slice_budget(10_000, W, (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_slice_budget_is_the_row_count(self, p2, monkeypatch):
        # W = [[1, -1, -1]] has one lattice coordinate: level 10's one stage
        # walks exactly the slice's 6 rows
        W = [[1, -1, -1]]
        monkeypatch.setattr(geometry, "MAX_SLICE_ROWS", 6)
        check_slice_budget(10, W, (0,))
        assert section_basis(10, p2, W, (0,)).dim == 6
        monkeypatch.setattr(geometry, "MAX_SLICE_ROWS", 5)
        with pytest.raises(NumericFailure, match="budget"):
            check_slice_budget(10, W, (0,))
        with pytest.raises(NumericFailure, match="budget"):
            section_basis(10, p2, W, (0,))


class TestMonomialNorms:
    def test_constant_section(self, p1):
        assert check_norm_table(closed_forms=((1, (0, 0), 1),), tol=1e-15 * p1.vol_X)[0]

    def test_d1_balanced(self, p1):
        # oracle: plain Monte-Carlo of |z0 z1|^2 over the unit 3-sphere
        rng = np.random.default_rng(2)
        pts = plain_sphere(1_000_000, 1, rng)
        mc = p1.vol_X * np.mean(np.abs(pts[:, 0] * pts[:, 1]) ** 2)
        assert check_norm_table(closed_forms=((1, (1, 1), 6),), tol=1e-14 * p1.vol_X / 6)[0]
        assert mc == pytest.approx(monomial_norm([1, 1], p1), rel=2e-3)

    def test_d2_linear(self, p2):
        rng = np.random.default_rng(3)
        pts = plain_sphere(1_000_000, 2, rng)
        mc = p2.vol_X * np.mean(np.abs(pts[:, 0]) ** 2)
        assert check_norm_table(closed_forms=((2, (1, 0, 0), 3),), tol=1e-14 * p2.vol_X / 3)[0]
        assert mc == pytest.approx(monomial_norm([1, 0, 0], p2), rel=2e-3)

    def test_negative_entries_rejected(self, p1):
        with pytest.raises(ValueError):
            monomial_norm([2, -1], p1)

    @given(st.permutations([0, 1, 3, 2]))
    @settings(max_examples=24, deadline=None)
    def test_permutation_invariance(self, perm):
        base = monomial_norm([0, 1, 3, 2], ProjectiveModel(3))
        assert check_norm_table(permutations=((3, (0, 1, 3, 2), tuple(perm)),),
                                perm_tol=1e-14 * base)[0]


class TestLogFactorials:
    def test_table_is_accurate(self):
        # math.lgamma against scipy's gammaln at x = 1..30,001: at most 6.6e-16
        # relative (log 0! = log 1! = 0 exactly)
        table = _log_factorials(30_000)
        want = gammaln(np.arange(30_001) + 1.0)
        assert table[0] == table[1] == 0.0
        assert np.max(np.abs(table[2:30_001] - want[2:]) / want[2:]) <= 1e-15
        assert _log_factorials(100) is table    # never rebuilt for a smaller n

    @pytest.mark.parametrize("d", range(1, 7))
    def test_log_norms_are_accurate(self, d):
        # random multi-indices of degree k <= 1,500 against the gammaln form
        # log vol_X + log d! + sum log alpha_j! - log (d+k)!; the terms cancel,
        # so the error is measured against the sum of their sizes (at most
        # 3.1e-16 of it)
        rng = np.random.default_rng(d)
        model = ProjectiveModel(d)
        k = rng.integers(0, 1501, 300)
        cuts = np.sort(rng.integers(0, k[:, None] + 1, (300, d)), axis=1)
        alpha = np.diff(np.hstack([np.zeros((300, 1), np.int64), cuts, k[:, None]]), axis=1)
        terms = (math.log(model.vol_X), gammaln(d + 1), gammaln(alpha + 1).sum(axis=1),
                 -gammaln(d + k + 1))
        got = log_monomial_norm(alpha, model)
        assert np.all(np.abs(got - sum(terms)) <= 1e-15 * sum(np.abs(t) for t in terms))
        assert log_monomial_norm(alpha[0], model) == got[0]


class TestSzegoKernel:
    def test_orthogonal_points(self, p1):
        x = np.array([1, 0], complex)
        y = np.array([0, 1], complex)
        assert szego_kernel(x, y, 3, p1) == 0.0

    def test_on_diagonal_value(self, p2):
        x = sample_sphere(1, 5, p2)[0]
        val = szego_kernel(x, x, 9, p2)
        assert val == pytest.approx(math.comb(11, 2) / p2.vol_X, rel=1e-12)
        # oracle: brute-force orthonormal basis sum
        basis = section_basis(9, p2)
        vals = monomial_matrix(x[None, :], basis.indices, basis.log_norms)
        assert np.sum(np.abs(vals) ** 2) == pytest.approx(abs(val), rel=1e-11)

    def test_two_term_value_d1(self, p1):
        x = np.array([1, 0], complex)
        y = np.array([1, 1], complex) / math.sqrt(2)
        # two-term basis sum oracle at k = 1
        expect = 2.0 / p1.vol_X * (1.0 / math.sqrt(2))
        assert szego_kernel(x, y, 1, p1) == pytest.approx(expect, rel=1e-14)

    def test_circle_equivariance_exact(self, p1):
        x = sample_sphere(2, 9, p1)
        t = np.exp(1.7j)
        for k in (1, 4, 11):
            lhs = szego_kernel(t * x[0], x[1], k, p1)
            rhs = t ** k * szego_kernel(x[0], x[1], k, p1)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            basis = section_basis(k, p1)
            mono_t = monomial_matrix((t * x[0])[None, :], basis.indices)
            mono = monomial_matrix(x[0][None, :], basis.indices)
            assert np.allclose(mono_t, t ** k * mono, rtol=1e-12)

    def test_large_k_stability(self, p1):
        x, y = sample_sphere(2, 13, p1)
        val = szego_kernel(x, y, 900, p1)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) < 1.0  # off-diagonal decays


class TestSampler:
    def test_rejects_empty(self, p1):
        with pytest.raises(ValueError):
            sample_sphere(0, 1, p1)

    def test_unit_norms(self, p2):
        pts = sample_sphere(1000, 4, p2)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-12

    def test_moment_d1(self, p1):
        pts = sample_sphere(2 ** 20, 11, p1)
        assert np.mean(np.abs(pts[:, 0]) ** 2) == pytest.approx(0.5, abs=0.002)

    def test_moment_d2(self, p2):
        pts = sample_sphere(2 ** 20, 12, p2)
        assert np.mean(np.abs(pts[:, 0]) ** 2) == pytest.approx(1 / 3, abs=0.002)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_moments(self, d):
        # the squared moduli of a uniform unit vector are a flat Dirichlet,
        # E|z_j|^2 = 1/(d+1) and E|z_j|^4 = 2/((d+1)(d+2)), and its phases are
        # uniform, E z_j = E z_j^2 = 0.  Over 2^16 scrambled Sobol rows each
        # mean misses by at most 7.8e-5 (seeds 0..19); the iid Monte-Carlo
        # standard error of |z_j|^2's mean is ~1e-3 at d = 1
        z = sample_sphere(2 ** 16, d, ProjectiveModel(d))
        sq = np.abs(z) ** 2
        for got, want in ((sq, 1 / (d + 1)), (sq ** 2, 2 / ((d + 1) * (d + 2))),
                          (z, 0.0), (z ** 2, 0.0)):
            assert np.max(np.abs(got.mean(axis=0) - want)) < 2e-4

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32))
    def test_kept_rows_are_rows_of_the_draw(self, n, seed):
        # `keep` gets each block's squared moduli and returns a row mask; the
        # rows it keeps are the unfiltered draw's rows under that mask, bit
        # for bit, in 2^4-row blocks
        model = ProjectiveModel(3)
        whole = sample_sphere(n, seed, model)
        seen = []

        def keep(sq):
            seen.append(sq)
            return sq[:, 0] + sq[:, 2] < 0.4

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_SOBOL_BLOCK", 2 ** 4)
            kept = sample_sphere(n, seed, model, keep=keep)
        sq = np.vstack(seen)
        assert np.max(np.abs(sq - np.abs(whole) ** 2)) <= 1e-15
        mask = sq[:, 0] + sq[:, 2] < 0.4
        assert kept.shape == (mask.sum(), 4)
        assert kept.tobytes() == whole[mask].tobytes()

    def test_deterministic(self):
        assert check_sampler_determinism(seed=21)[0]

    def test_draw_memory_is_the_output_plus_one_block(self, p2):
        # 2^20 rows on P^2 are 48 MiB of output; the Sobol points, the
        # moduli, the phases and their temporaries live one _SOBOL_BLOCK-row
        # block at a time
        # (the unblocked draw peaked at ~4 times the output)
        sample_sphere(16, 12, p2)            # the direction numbers, loaded once
        tracemalloc.start()
        try:
            pts = sample_sphere(2 ** 20, 12, p2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pts.nbytes + 8 * 2 ** 20

    @pytest.mark.parametrize("m", [0, 1, 10, 18])
    def test_sobol_bits_match_scipy(self, monkeypatch, m):
        # scipy's scrambled Sobol is the oracle of the direction numbers, the
        # scramble matrix, the shift and the Gray-code order, over every
        # dimension the committed table reaches (2^10 points at most above
        # 20), when the scramble bits are drawn from numpy's generator as
        # scipy draws them; the sequence comes in blocks, as the sampler
        # streams it
        from scipy.stats import qmc
        monkeypatch.setattr(geometry, "_random_bits", lambda seed, n: np.random.default_rng(
            seed).integers(0, 2, n, np.uint32))
        geometry._sobol_scramble.cache_clear()
        try:
            for dim in range(2, geometry.MAX_SOBOL_DIM + 1 if m <= 10 else 21):
                for seed in (0, 1, 2 ** 40 + 7) if m < 18 else (3,):
                    want = qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m)
                    assert np.array_equal(sobol_points(dim, seed, 2 ** m), want), (dim, seed)
        finally:
            geometry._sobol_scramble.cache_clear()

    @pytest.mark.parametrize("first,n", [(0, 1), (5, 11), (100, 37), (16, 16), (1000, 24)])
    def test_sobol_window_is_a_slice(self, monkeypatch, first, n):
        # rows first .. first+n-1 of a shorter draw in 2^4-row blocks, which
        # ends inside a block unless first + n is a multiple of 16, are the
        # same rows of the whole draw
        whole = sobol_points(6, 9, 1024)
        sphere = sample_sphere(1024, 9, ProjectiveModel(2))
        monkeypatch.setattr(geometry, "_SOBOL_BLOCK", 2 ** 4)
        end = first + n
        assert np.array_equal(sobol_points(6, 9, end)[first:], whole[first:end])
        assert np.array_equal(sample_sphere(end, 9, ProjectiveModel(2))[first:],
                              sphere[first:end])

    def test_draw_builds_the_gray_code_head_once(self, monkeypatch):
        # one `_sobol` call per draw, so its first block, doubled one direction
        # number at a time, is built once and XORed into each later block
        calls, sobol = [], geometry._sobol
        monkeypatch.setattr(geometry, "_sobol", lambda *a: calls.append(a) or sobol(*a))
        z = sample_sphere(2 ** 16 + 5, 3, ProjectiveModel(2))
        assert z.shape == (2 ** 16 + 5, 3) and calls == [(6, 3, 2 ** 16 + 5)]

    @pytest.mark.parametrize("seed,golden", [(0, "cd072cd8be6f9f62ac4c09c20e"),
                                             (2 ** 64 + 1, "95dc0c1a85cf67dbfd288db906")],
                             ids=["0", "2^64+1"])
    def test_scramble_bits_are_pinned(self, seed, golden):
        # the scramble bits are the stdlib Mersenne Twister's getrandbits,
        # least significant first; a change of that generator moves every draw
        bits = geometry._random_bits(seed, 100)
        assert bits.dtype == np.uint32 and set(bits.tolist()) <= {0, 1}
        assert np.packbits(bits, bitorder="little").tobytes().hex() == golden

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="negative"):
            geometry._random_bits(-1, 4)

    def test_committed_direction_rows_match_scipy(self):
        # rows 1..63 are the head of the Joe-Kuo table scipy's engine reads;
        # row 0, all ones, is implicit
        scipy = pytest.importorskip("scipy")
        path = os.path.join(os.path.dirname(scipy.__file__), "stats",
                            "_sobol_direction_numbers.npz")
        with np.load(path) as table:
            poly, vinit = table["poly"], table["vinit"]
        assert geometry.MAX_SOBOL_DIM == len(geometry._JOE_KUO) + 1 == 64
        assert poly[0] == 1
        for d, (p, *m) in enumerate(geometry._JOE_KUO, start=1):
            deg = p.bit_length() - 1
            assert (p, m) == (poly[d], vinit[d, :deg].tolist()) and len(m) == deg
            assert not vinit[d, deg:].any()

    def test_sobol_refuses_past_the_direction_table(self):
        # a row past MAX_SOBOL_DIM would repeat the all-ones row 0
        assert sobol_points(geometry.MAX_SOBOL_DIM, 0, 4).shape == (4, 64)
        with pytest.raises(ValueError, match="66 Sobol dimensions"):
            _sobol(66, 0, 4)

    def test_sobol_stops_at_2_pow_30(self, p1):
        # the direction numbers have 30 bits: no point 2^30 exists
        assert next(_sobol(4, 0, 2 ** 30)).shape == (geometry._SOBOL_BLOCK, 4)
        with pytest.raises(ValueError, match="outside"):
            _sobol(4, 0, 2 ** 30 + 1)
        with pytest.raises(ValueError, match="outside"):
            sample_sphere(2 ** 30 + 1, 0, p1, keep=lambda sq: sq[:, 0] < 0)

    def test_oversized_draw_is_refused_before_it_allocates(self, p1):
        # without `keep` the output would be (2^30 + 1, 2) complex, 32 GiB:
        # the count is refused before it is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="outside"):
                sample_sphere(2 ** 30 + 1, 0, p1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestKernelPairValues:
    @pytest.mark.parametrize("d,k", [(2, 23), (2, 30), (3, 11), (4, 8)])
    def test_row_is_independent_of_its_batch(self, monkeypatch, d, k):
        # 300-496 monomials: a row's value is the same bits alone, inside a
        # 200-row batch and in 2^4-term blocks (BLAS products over the rows
        # moved the last bits of the last monomial columns)
        model = ProjectiveModel(d)
        basis = section_basis(k, model)
        assert basis.dim >= 300
        pts = sample_sphere(200, d, model)
        xs, ys = pts[::-1], pts
        batch = kernel_pair_values(xs, ys, basis.indices, basis.log_norms)
        alone = [kernel_pair_values(xs[i], ys[i], basis.indices, basis.log_norms)[0]
                 for i in range(len(pts))]
        monkeypatch.setattr(geometry, "_SOBOL_BLOCK", 2 ** 4)
        small = kernel_pair_values(xs, ys, basis.indices, basis.log_norms)
        assert batch.tobytes() == np.array(alone).tobytes() == small.tobytes()


class TestSphereCubature:
    @settings(max_examples=25, deadline=None)
    @given(rule=st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, 12 if d < 3 else 8))), data=st.data())
    def test_exact_on_phase_invariant_monomials(self, rule, data):
        # |z^a|^2 integrates to d! a! / (|a| + d)! for every |a| <= K, and an
        # unbalanced z^a conj(z)^b, |a| = |b| <= K, to 0
        d, K = rule
        z, w = sphere_cubature(d, K)
        assert len(w) == math.comb(K // 2 + d + 1, d + 1) * (K + 1) ** d
        assert abs(w.sum() - 1) <= 1e-14
        sq = np.abs(z) ** 2
        for a in multi_indices_by_level(K, d + 2)[:, 1:]:
            want = math.factorial(d) * math.prod(map(math.factorial, a)) / math.factorial(
                sum(a) + d)
            assert abs(w @ np.prod(sq ** a, axis=1) / want - 1) <= 1e-12, a
        if K:
            deg = data.draw(st.integers(1, K))
            cuts = st.lists(st.integers(0, deg), min_size=d, max_size=d).map(sorted)
            a, b = (np.diff([0, *data.draw(cuts), deg]) for _ in range(2))
            if not np.array_equal(a, b):
                assert abs(w @ (np.prod(z ** a, axis=1) * np.prod(z.conj() ** b, axis=1))) <= 1e-14

    @pytest.mark.parametrize("d,K", [(d, K) for d in (1, 2) for K in range(13)]
                             + [(3, K) for K in range(9)] + [(2, 18)])
    def test_nodes_are_the_level_table_rule(self, d, K):
        # the Grundmann-Moller index sets are full bases: array-equal to the
        # rule built on the level table oracle's index sets
        s, m = K // 2, d + 2 * (K // 2) + 1
        u = np.vstack([(2 * multi_indices_by_level(s - i, d + 1) + 1) / (m - 2 * i)
                       for i in range(s + 1)])
        c = [(-1) ** i * math.factorial(d) * (m - 2 * i) ** (2 * s + 1)
             / (4 ** s * math.factorial(i) * math.factorial(m - i)) for i in range(s + 1)]
        w = np.repeat(c, [math.comb(s - i + d, d) for i in range(s + 1)])
        phases = np.exp(2j * math.pi / (K + 1)
                        * np.indices((1,) + (K + 1,) * d).reshape(d + 1, -1).T)
        z, weights = sphere_cubature(d, K)
        assert np.array_equal(z, (phases[:, None, :] * np.sqrt(u)[None, :, :]).reshape(-1, d + 1))
        assert np.array_equal(weights, np.tile(w / len(phases), len(phases)))

    def test_node_counts_and_read_only(self):
        for (d, K), n in {(1, 6): 70, (2, 8): 2835, (2, 18): 79_420}.items():
            z, w = sphere_cubature(d, K)
            assert z.shape == (n, d + 1) and w.shape == (n,)
            assert not (z.flags.writeable or w.flags.writeable)

    @pytest.mark.parametrize("d,K", [(3, 14), (2, 36)])
    def test_over_budget_raises_before_it_allocates(self, d, K):
        # 1.1 M and 2.1 M nodes, 71 and 101 MiB if they were built
        assert math.comb(K // 2 + d + 1, d + 1) * (K + 1) ** d > MAX_CUBATURE_NODES
        tracemalloc.start()
        try:
            with pytest.raises(NumericFailure, match="over the budget"):
                sphere_cubature(d, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


class TestReproducingProperty:
    @pytest.mark.parametrize("d,k,alpha", [(1, 12, (12, 0)), (1, 12, (7, 5)),
                                           (2, 9, (3, 3, 3)), (2, 12, (12, 0, 0))])
    def test_reproduces_monomials(self, d, k, alpha):
        # Pi_k(x, .) integrated against z^alpha returns z^alpha(x); the
        # closed-form kernel equals the basis sum (projector-partition check)
        ok, detail = check_reproducing_property(d=d, k=k, alpha=alpha)
        assert ok, detail

    def test_off_level_alpha_is_refused(self):
        # with |alpha| != k the integrand is not phase-invariant
        with pytest.raises(ValueError, match="level"):
            check_reproducing_property(d=1, k=6, alpha=(3, 2))

    def test_projector_trace(self):
        # int Pi_k(x, x) dens = dim H^0; the integrand is constant on X
        ok, detail = check_kappa_calibration()
        assert ok, detail