import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqtoeplitz import geometry, selftest, symmetry
from eqtoeplitz.geometry import ProjectiveModel, sample_sphere, section_basis
from eqtoeplitz.reduction import vanishing_level
from eqtoeplitz.symmetry import (DiagonalSymmetry, TorusAction, equivariant_kernel_pairs,
                                 gamma_phase, isotype_basis,
                                 moment_map, occurring_weights,
                                 torus_grid_overlaps, weight_of)
from eqtoeplitz.selftest import (check_dimension_case, check_moment_sign_pin,
                                 check_projector_partition)

from conftest import filtered_isotype, monomial_matrix


def equivariant_kernel_fourier(x, y, k, varpi, action, model):
    """Character-average oracle: (1/2pi)^g int chi_varpi(t) Pi_k(t.x, y) dt.

    Trapezoid rule per circle factor on 2 * band + 5 nodes, which is exact:
    it exceeds the trigonometric bandwidth band = k * max|W| + |varpi|.
    Pi_k(t.x, y) is binom(k+d, d)/vol_X * <mu_t x, y>^k, summed over the
    grid in blocks.
    """
    varpi_vec = np.asarray(varpi, dtype=np.int64).reshape(action.g)
    band = int(k * np.abs(action.W).max(initial=0) + np.abs(varpi_vec).sum())
    n = 2 * band + 5
    total = 0.0 + 0.0j
    for theta, overlap in torus_grid_overlaps(x, y, action, n):
        total += np.sum(np.exp(1j * (theta @ varpi_vec)) * overlap ** k)
    return complex(total * model.dim_sections(k) / model.vol_X / n ** action.g)


class TestWeights:
    def test_balanced(self):
        act = TorusAction([[1, -1]])
        assert weight_of(np.array([1, 1]), act)[0] == 0

    def test_direct_evaluation(self):
        act = TorusAction([[1, -1, -1]])
        assert weight_of(np.array([2, 0, 0]), act)[0] == -2

    def test_unreachable_weight_empty(self, p1):
        # W = (1, 1): all weights at level k equal -k, so +3 never occurs
        act = TorusAction([[1, 1]])
        for k in range(21):
            assert isotype_basis(k, (3,), act, p1).dim == 0

    def test_isotype_members_p2(self, p2, circle_p2):
        iso = isotype_basis(2, (0,), circle_p2, p2)
        assert sorted(map(tuple, iso.indices)) == [(1, 0, 1), (1, 1, 0)]

    def test_parity_obstruction(self):
        ok, detail = check_dimension_case(levels=(3,))
        assert ok, detail

    @settings(max_examples=60, deadline=None)
    @given(W=st.tuples(st.integers(0, 3), st.integers(2, 4)).flatmap(
               lambda gn: st.lists(st.lists(st.integers(-3, 3), min_size=gn[1], max_size=gn[1]),
                                   min_size=gn[0], max_size=gn[0]).map(
                   lambda rows: np.array(rows, np.int64).reshape(gn))),
           k=st.integers(0, 9), empty=st.booleans())
    @example(W=np.zeros((0, 3), np.int64), k=4, empty=False)   # g = 0: one label, shape (1, 0)
    @example(W=np.zeros((0, 3), np.int64), k=4, empty=True)    # and none, shape (0, 0)
    @example(W=np.array([[1, -1, -1]]), k=4, empty=True)       # an empty basis: shape (0, 1)
    def test_occurring_weights_are_numpy_unique_rows(self, W, k, empty):
        # the oracle is np.unique(w, axis=0): the same rows, order, shape and
        # dtype, from a sort that does not load numpy.ma
        action = TorusAction(W)
        basis = section_basis(k, ProjectiveModel(W.shape[1] - 1))
        if empty:
            basis = replace(basis, dim=0, blocks=lambda: iter(()))
        got = occurring_weights(action, basis)
        want = np.unique(weight_of(basis.indices, action), axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_dimension_bookkeeping_large(self, p2, circle_p2):
        for k in (40, 200):
            basis = section_basis(k, p2)
            w = weight_of(basis.indices, circle_p2)
            _, counts = np.unique(w, axis=0, return_counts=True)
            assert counts.sum() == math.comb(k + 2, 2)


@st.composite
def _slice_cases(draw):
    d, g = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    W = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1),
                      min_size=g, max_size=g))
    k = draw(st.integers(0, 12))
    if draw(st.booleans()):
        ws = occurring_weights(TorusAction(W), section_basis(k, ProjectiveModel(d)))
        varpi = tuple(int(v) for v in ws[draw(st.integers(0, len(ws) - 1))])
    else:
        varpi = tuple(draw(st.lists(st.integers(-30, 30), min_size=g, max_size=g)))
    return ProjectiveModel(d), TorusAction(W), k, varpi


def _assert_slice_matches_filter(model, action, k, varpi):
    direct = isotype_basis(k, varpi, action, model)
    indices, log_norms = filtered_isotype(k, varpi, action, model)
    assert direct.dim == len(indices)
    assert np.array_equal(direct.indices, indices)
    assert np.array_equal(direct.log_norms, log_norms)
    return direct


class TestIsotypeSlice:
    """The walked weight slice against the full-basis filter oracle."""

    @given(_slice_cases())
    @settings(max_examples=80, deadline=None)
    def test_direct_equals_filter(self, case):
        _assert_slice_matches_filter(*case)

    @pytest.mark.parametrize("W, varpi", [
        ([[1, 1]], None),                        # parallel to |alpha| = k: rank 1
        ([[1, 1]], (0,)),                        # ... and inconsistent with it
        ([[1, -1, -1], [1, -1, -1]], (0, 0)),    # repeated rows
        ([[1, -1, -1], [1, -1, -1]], (0, 1)),    # repeated rows, inconsistent labels
        ([[1, -1]], (0,)),                       # empty at odd k (parity)
        ([[2, 0, -1], [0, 1, -1]], (0, 0)),
        (np.zeros((0, 3), np.int64), ()),        # trivial group: the whole basis
    ])
    @pytest.mark.parametrize("k", [0, 1, 5, 12])
    def test_fixed_cases(self, W, varpi, k):
        W = np.asarray(W, dtype=np.int64)
        model, action = ProjectiveModel(W.shape[1] - 1), TorusAction(W)
        iso = _assert_slice_matches_filter(model, action, k, (-k,) if varpi is None else varpi)
        if W.shape[0] == 0:
            assert iso.dim == math.comb(k + W.shape[1] - 1, k)

    def test_slice_rows_scale_with_isotype(self):
        # C(104, 4) = 4,598,126 basis rows at k = 100
        action = TorusAction([[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]])
        iso = isotype_basis(100, (0, 0), action, ProjectiveModel(4))
        assert 0 < iso.dim == len(iso.indices) < 1000

    def test_walked_slice_is_returned_as_it_is(self, monkeypatch):
        # the walked slice of (W, varpi) is the isotype: no weight is
        # computed, no row masked and no array copied
        action = TorusAction([[1, 0, -1, 2, -2], [0, 1, -1, -1, 1]])
        walked = []

        def weight_of(*args, **kwargs):
            raise AssertionError("weight_of was called")
        monkeypatch.setattr(symmetry, "weight_of", weight_of)
        monkeypatch.setattr(symmetry, "section_basis",
                            lambda *a: walked.append(section_basis(*a)) or walked[-1])
        iso = isotype_basis(100, (0, 0), action, ProjectiveModel(4))
        assert [iso.parent] == walked and iso.dim == walked[0].dim > 0
        assert np.array_equal(walked[0].indices @ -action.W.T, np.zeros((iso.dim, 2)))
        assert iso.indices is walked[0].indices
        assert iso.log_norms is walked[0].log_norms


class TestMomentMap:
    def test_coordinate_point(self, circle_p2):
        assert moment_map(np.array([1, 0, 0], complex), circle_p2)[0] == pytest.approx(-1.0)

    def test_balanced_point(self, circle_p2):
        x = np.array([1, 1, 0], complex) / math.sqrt(2)
        assert moment_map(x, circle_p2)[0] == pytest.approx(0.0, abs=1e-15)

    def test_support_principle_p1(self, p1, circle_p1):
        ws = occurring_weights(circle_p1, section_basis(10, p1))
        assert set(int(w[0]) for w in ws) == set(range(-10, 11, 2))
        ok, detail = check_moment_sign_pin(d=1, weights=([[1, -1]],), levels=(10,))
        assert ok, detail

    @given(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
           st.integers(2, 14))
    @settings(max_examples=40, deadline=None)
    def test_support_principle_random(self, row, k):
        ok, detail = check_moment_sign_pin(d=2, weights=([row],), levels=(k,))
        assert ok, detail

    @settings(max_examples=40, deadline=None)
    @given(W=st.tuples(st.integers(1, 3), st.integers(2, 6)).flatmap(
               lambda gn: st.lists(st.lists(st.integers(-3, 3), min_size=gn[1], max_size=gn[1]),
                                   min_size=gn[0], max_size=gn[0])),
           seed=st.integers(0, 2 ** 32))
    @example(W=[[0, 1, 1, 1]], seed=0)          # a BLAS product moved 1,046 of 4,096 rows
    def test_rows_are_the_same_bits_in_any_batch(self, W, seed):
        # the moment map and the orbit Gram of a row are the same bits alone
        # and inside a 2^12-row batch, so Newton refinement does not depend on
        # how the zero-locus draw batches its band rows
        action = TorusAction(W)
        pts = sample_sphere(2 ** 12, seed, ProjectiveModel(action.n_coords - 1))
        for f in (lambda x: moment_map(x, action), action.orbit_gram):
            batch = f(pts)
            assert all(f(pts[i:i + 1])[0].tobytes() == batch[i].tobytes()
                       for i in range(0, len(pts), 37))


class TestVanishingLevel:
    def test_equal_weights_line(self):
        act = TorusAction([[1, 1]])
        assert vanishing_level(act, [-6]) == 7
        assert vanishing_level(act, [0]) == 1
        assert vanishing_level(act, [3]) == 0

    def test_zero_in_image(self, circle_p1):
        assert vanishing_level(circle_p1, [0]) is None


class TestGammaPhase:
    def test_identity(self):
        sym = DiagonalSymmetry(phi=[0.0, 0.0, 0.0])
        idx = np.array([[3, 1, 0], [0, 0, 4]])
        assert np.allclose(gamma_phase(idx, sym), 1.0)

    def test_direct_value(self):
        sym = DiagonalSymmetry(phi=[0.0, 0.7])
        k, b = 9, 4
        val = gamma_phase(np.array([k - b, b]), sym)
        assert val == pytest.approx(np.exp(-1j * b * 0.7), rel=1e-14)

    def test_theta_A(self):
        sym = DiagonalSymmetry(phi=[0.0, 0.7], theta_A=0.2)
        val = gamma_phase(np.array([5, 0]), sym)
        assert val == pytest.approx(np.exp(1j * 5 * 0.2), rel=1e-14)

    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
           st.lists(st.integers(0, 9), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_unitarity(self, phi, alpha):
        sym = DiagonalSymmetry(phi=phi, theta_A=0.3)
        assert abs(abs(gamma_phase(np.array(alpha), sym)) - 1.0) < 1e-12


class TestEquivariantKernel:
    def test_partition_of_basis(self):
        ok, detail = check_projector_partition(levels=(6,))
        assert ok, detail

    def test_partition_misses_a_left_out_isotype(self, monkeypatch):
        # at the fixed point pair, leaving any one isotype of level 5, or the
        # middle one of level 12 or 40, out of the kernel sum is a partition
        # error above the 1e-10 tolerance (not only a dimension miss)
        def partition_error(level, drop):
            monkeypatch.setattr(selftest, "occurring_weights", lambda action, basis: np.delete(
                occurring_weights(action, basis), drop, axis=0))
            ok, detail = check_projector_partition(levels=(level,))
            assert not ok
            return float(detail.split()[2].rstrip(","))

        assert check_projector_partition()[0]
        errors = [partition_error(5, i) for i in range(6)]
        errors += [partition_error(12, 6), partition_error(40, 20)]
        assert min(errors) > 1e-6, errors

    def test_partition_fails_when_the_walk_drops_a_row(self, monkeypatch):
        # the check walks each isotype: a weighted walk (g >= 1) that loses
        # its last row fails it, while the full basis (the g = 0 walk) and so
        # the occurring weights stay as they are
        walk = geometry._weight_slice

        def lossy(k, W, varpi):
            dim, walked, blocks = walk(k, W, varpi)
            if len(W) == 0 or dim == 0:
                return dim, walked, blocks
            rows = np.concatenate(list(blocks()))[:-1]
            return dim - 1, walked, lambda: iter([rows])
        monkeypatch.setattr(geometry, "_weight_slice", lossy)
        ok, detail = check_projector_partition()
        assert not ok and "dimension bookkeeping ok=False" in detail, detail

    @given(st.integers(1, 2), st.integers(1, 3), st.integers(0, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_over_random_weights(self, g, d, k, data):
        W = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1),
                               min_size=g, max_size=g))
        ok, detail = check_projector_partition(levels=(k,), W=W)
        assert ok, detail

    def test_character_average_oracle(self, p2, circle_p2):
        k = 5
        x, y = sample_sphere(2, 43, p2)
        for w in [(0,), (-2,), (3,)]:
            direct = equivariant_kernel_pairs(x, y, isotype_basis(k, w, circle_p2, p2))[0]
            fourier = equivariant_kernel_fourier(x, y, k, w, circle_p2, p2)
            assert abs(direct - fourier) < 1e-12

    def test_character_average_rank2(self, p2):
        act = TorusAction([[1, -1, 0], [0, 1, -1]])
        k = 3
        x, y = sample_sphere(2, 47, p2)
        w = (0, 1)
        direct = equivariant_kernel_pairs(x, y, isotype_basis(k, w, act, p2))[0]
        fourier = equivariant_kernel_fourier(x, y, k, w, act, p2)
        assert abs(direct - fourier) < 1e-12

    def test_conjugation_invariance(self, p2, circle_p2):
        k = 7
        sym = DiagonalSymmetry(phi=[0.3, 1.1, 2.9], theta_A=0.4)
        x, y = sample_sphere(2, 53, p2)
        for w in [(0,), (1,)]:
            iso = isotype_basis(k, w, circle_p2, p2)
            lhs = equivariant_kernel_pairs(sym.gamma_X(x), sym.gamma_X(y), iso)[0]
            rhs = equivariant_kernel_pairs(x, y, iso)[0]
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_projector_laws_exact(self, p2, circle_p2):
        # in the orthonormalized monomial basis the isotype projector is a
        # 0/1 diagonal selector: idempotent, self-adjoint, and the selectors
        # partition the basis
        k = 8
        basis = section_basis(k, p2)
        w = weight_of(basis.indices, circle_p2)
        labels = np.unique(w, axis=0)
        masks = [np.all(w == lab[None, :], axis=1) for lab in labels]
        assert sum(m.sum() for m in masks) == basis.dim
        for m in masks[:4]:
            P = np.diag(m.astype(float))
            assert np.array_equal(P @ P, P)
            assert np.array_equal(P, P.T)

    def test_lift_commutes_with_projectors(self, p2, circle_p2):
        k = 6
        basis = section_basis(k, p2)
        sym = DiagonalSymmetry(phi=[0.3, 1.1, 2.9], theta_A=0.1)
        g = gamma_phase(basis.indices, sym)
        w = weight_of(basis.indices, circle_p2)
        for lab in np.unique(w, axis=0)[:5]:
            m = np.all(w == lab[None, :], axis=1).astype(float)
            # diagonal matrices commute exactly; check the composite action
            assert np.array_equal(g * m, m * g)


class TestTorusAction:
    def test_unitary(self, circle_p2, p2):
        pts = sample_sphere(8, 3, p2)
        moved = circle_p2.act(np.array([0.77]), pts)
        assert np.allclose(np.linalg.norm(moved, axis=1), 1.0, atol=1e-12)

    def test_g_leq_d_violation_detectable(self):
        act = TorusAction([[1, -1], [2, -2]])
        # rank of the weight lattice is 1 < g = 2; the diagnostics layer
        # rejects this (covered in reduction tests); here just shape checks
        assert act.g == 2 and act.n_coords == 2

    def test_pullback_convention(self, p1, circle_p1):
        # monomial z^alpha pulled back by mu_{t^{-1}} transforms by t^{-W alpha}
        k = 3
        basis = section_basis(k, p1)
        x = sample_sphere(1, 5, p1)[0]
        theta = np.array([0.37])
        vals_moved = monomial_matrix(circle_p1.act(-theta, x[None, :]), basis.indices)
        vals = monomial_matrix(x[None, :], basis.indices)
        w = weight_of(basis.indices, circle_p1)
        expect = vals * np.exp(1j * (w @ theta))[None, :]
        assert np.allclose(vals_moved, expect, atol=1e-12)

    def test_grid_overlaps_cover_grid_in_blocks(self, p2):
        # 70^2 angles span two blocks; the walk must equal the full meshgrid
        act = TorusAction([[1, -1, 0], [0, 1, -1]])
        x, y = sample_sphere(2, 59, p2)
        blocks = list(torus_grid_overlaps(x, y, act, 70))
        assert len(blocks) == 2
        theta = np.concatenate([th for th, _ in blocks])
        grid = np.linspace(0, 2 * math.pi, 70, endpoint=False)
        mesh = np.meshgrid(grid, grid, indexing="ij")
        assert np.array_equal(theta, np.stack([m.ravel() for m in mesh], axis=1))
        want = [np.vdot(y, act.act(th, x)) for th in theta]
        got = np.concatenate([ov for _, ov in blocks])
        assert np.max(np.abs(got - want)) < 1e-12
