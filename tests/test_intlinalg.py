import itertools
import math
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqtoeplitz._intlinalg as il
from eqtoeplitz import geometry
from eqtoeplitz._intlinalg import (NumericFailure, homogenized_rays, smith_normal_form,
                                   solve_phase_congruence, torsion_angles)
from eqtoeplitz.reduction import vanishing_level
from eqtoeplitz.symmetry import TorusAction, slice_vertices

from conftest import cramer_vertices, int_adjugate, int_det, pivot_minor


def as_int(M):
    return np.array([[int(x) for x in row] for row in M])


def homogeneous_torsion_angles(D):
    """The stabilizer angles of D, read off its homogeneous solve."""
    _, info = solve_phase_congruence(D, np.zeros(len(D)))
    return torsion_angles(info)


@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=150, deadline=None)
def test_snf_decomposition(rows):
    A = np.array(rows, dtype=np.int64)
    U, S, V = smith_normal_form(A)
    Ui, Si, Vi = as_int(U), as_int(S), as_int(V)
    assert np.array_equal(Ui @ A @ Vi, Si)
    # unimodular transforms
    assert abs(round(float(np.linalg.det(Ui)))) == 1
    assert abs(round(float(np.linalg.det(Vi)))) == 1
    # diagonal with divisibility chain
    m, n = A.shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert Si[i, j] == 0
    diag = [Si[i, i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


def test_phase_congruence_solvable():
    D = np.array([[-2]])
    theta, info = solve_phase_congruence(D, np.array([0.9]))
    assert theta is not None
    assert abs((-2 * theta[0] - 0.9 + np.pi) % (2 * np.pi) - np.pi) < 1e-12
    assert info["rank"] == 1 and info["free_rank"] == 0


def test_phase_congruence_obstructed():
    # two incompatible congruences for a single angle
    D = np.array([[1], [1]])
    theta, info = solve_phase_congruence(D, np.array([0.3, 1.7]))
    assert theta is None
    assert info["residual"] > 1.0


@given(st.integers(1, 7), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_phase_congruence_recovers_consistent_phases(m, g, data):
    # delta = D theta0 + 2 pi n is solvable; any returned theta must satisfy it
    D = np.array(data.draw(st.lists(st.lists(st.integers(-30, 30), min_size=g, max_size=g),
                                    min_size=m, max_size=m)), dtype=np.int64)
    theta0 = np.array(data.draw(st.lists(st.floats(-7.0, 7.0), min_size=g, max_size=g)))
    n = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)))
    delta = D @ theta0 + 2.0 * np.pi * n
    theta, info = solve_phase_congruence(D, delta)
    assert theta is not None, info
    miss = np.angle(np.exp(1j * (D @ theta - delta)))
    assert np.max(np.abs(miss), initial=0.0) < 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3, 8, 9])
def test_smith_transform_stays_small(seed):
    # the full-support weight differences of a random 2 x 9 W in [-30, 30]
    # with phases phi = theta . W: chaining Euclid steps from row to row once
    # grew U to 2e12-1.5e18 here, which made the obstruction rows' rounding
    # bound pass any residual and theta wrong by O(1)
    rng = np.random.default_rng(seed)
    W = rng.integers(-30, 31, (2, 9))
    phi = rng.uniform(0, 2 * np.pi, 2) @ W
    D, delta = (W[:, 1:] - W[:, :1]).T, phi[1:] - phi[0]
    U, S, V = smith_normal_form(D)
    assert np.abs(as_int(U)).max() < 1000 and np.abs(as_int(V)).max() < 100
    rounding = 8 * np.finfo(float).eps * np.abs(as_int(U)[2:]) @ (np.abs(delta) + 2 * np.pi)
    assert rounding.max() < 1e-9
    theta, _ = solve_phase_congruence(D, delta)
    assert np.max(np.abs(np.angle(np.exp(1j * (D @ theta - delta))))) < 1e-9


def test_torsion_enumeration_order_two():
    D = np.array([[-2]])
    angles = homogeneous_torsion_angles(D)
    assert angles.shape == (2, 1)
    vals = sorted(float(a[0]) % (2 * np.pi) for a in angles)
    assert np.allclose(vals, [0.0, np.pi])


def test_torsion_enumeration_rank_two():
    D = np.array([[2, 0], [0, 3]])
    angles = homogeneous_torsion_angles(D)
    assert angles.shape == (6, 2)
    phases = {(round(float(np.exp(1j * a[0]).real), 6), round(float(np.exp(3j * a[1]).real), 6))
              for a in angles}
    # every element satisfies the congruence
    for a in angles:
        assert abs(np.exp(2j * a[0]) - 1) < 1e-9
        assert abs(np.exp(3j * a[1]) - 1) < 1e-9


def test_vertex_enumeration_over_budget_fails_before_solving(monkeypatch):
    # P of these draws: the elimination that takes the pair count over
    # MAX_PLAN_BOUNDS is refused before it forms a bound (given the budget,
    # the g = 3 one forms ~0.9 M).  Each bound formed takes one gcd, as do the
    # row operations of the one elimination of [A | -b]^T that finds the
    # spanning rows
    reduce = il._row_reduce
    for g, n, pairs in [(3, 60, 9526952), (4, 32, 3450292)]:
        calls, gcds = [], []
        monkeypatch.setattr(il, "_row_reduce", lambda M: calls.append(len(M)) or reduce(M))
        monkeypatch.setattr(il, "math",
                            SimpleNamespace(gcd=lambda *a: gcds.append(1) or math.gcd(*a)))
        W = np.random.default_rng(0).integers(-3, 4, (g, n))
        with pytest.raises(NumericFailure, match=f"vertex enumeration forms at least {pairs} "
                                                 f"candidate bounds, over the budget"):
            slice_vertices(TorusAction(W))
        assert calls == [n + 1] and len(gcds) < 10_000


@given(st.lists(st.integers(-9, 9), min_size=16, max_size=16), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_int_det_and_adjugate(entries, r):
    M = np.array(entries[:r * r], dtype=np.int64).reshape(r, r)
    det = int_det(M.tolist())
    assert det == round(np.linalg.det(M)) if r else det == 1
    adj, d = int_adjugate(M.tolist())
    assert d == abs(det)
    assert np.array_equal(np.array(adj, dtype=np.int64).reshape(r, r) @ M, d * np.eye(r))


@given(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                min_size=1, max_size=3).filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=100, deadline=None)
def test_torsion_angles_match_loop_reference(rows):
    # one angle per torsion coefficient combination, V^T-mapped row by row
    D = np.array(rows, dtype=np.int64)
    _, S, V = smith_normal_form(D)
    diag = [int(S[i][i]) for i in range(min(D.shape)) if S[i][i]]
    Vf = as_int(V).astype(float)
    want = []
    for combo in itertools.product(*(range(d) for d in diag)):
        psi = np.zeros(D.shape[1])
        psi[:len(diag)] = [2.0 * np.pi * c / d for c, d in zip(combo, diag)]
        want.append(Vf @ psi)
    with mock.patch.object(il, "MAX_STABILIZER_ORDER", 10 ** 6):
        got = homogeneous_torsion_angles(D)
    assert np.allclose(got, np.array(want), rtol=0, atol=1e-12 * max(1.0, np.abs(Vf).sum()) * 8)


def pivot_minor_search(A) -> tuple:
    """Oracle for `conftest.pivot_minor`: every (rows, cols) minor from the largest
    size down, rows and then columns in `combinations` order; the first
    nonzero one."""
    m, n = len(A), len(A[0]) if A else 0
    for r in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), r):
            for cols in itertools.combinations(range(n), r):
                if int_det([[A[i][j] for j in cols] for i in rows]):
                    return rows, cols
    return (), ()


@st.composite
def minor_matrices(draw):
    """Integer matrices of up to 5 x 7 entries in [-3, 3], with up to two
    rows combined from others inserted anywhere and some columns zeroed."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 7))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2)) if A else 0):
        i, j = draw(st.integers(0, len(A) - 1)), draw(st.integers(0, len(A) - 1))
        c = draw(st.integers(-2, 2))
        A.insert(draw(st.integers(0, len(A))), [a + c * b for a, b in zip(A[i], A[j])])
    zero = draw(st.sets(st.integers(0, 6)))
    return [[0 if j in zero else x for j, x in enumerate(row)] for row in A]


@given(minor_matrices())
@settings(max_examples=300, deadline=None)
def test_pivot_minor_is_the_search_s_first_minor(A):
    assert pivot_minor(A) == pivot_minor_search(A)


@given(minor_matrices().filter(lambda A: A and A[0]), st.data())
@settings(max_examples=300, deadline=None)
def test_vertices_match_the_cramer_enumeration(A, data):
    # b = A x0 for an integer x0 >= 0 makes the polytope nonempty; an arbitrary
    # b is mostly infeasible or inconsistent with the dependent rows
    n = len(A[0])
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = data.draw(st.lists(st.integers(-4, 4), min_size=len(A), max_size=len(A)))
    assert ray_vertices(*homogenized_rays(A, b)) == cramer_vertices(A, b)


def ray_vertices(rays, cols) -> list:
    """The vertices among `homogenized_rays`' rays, found by comparing
    supports pairwise, not by `slice_vertices`' rank test.  Every ray solves
    the system, and an extreme ray's support strictly contains no other
    ray's; a ray that is not extreme strictly contains some extreme ray's
    support, and every extreme ray is in the list."""
    n = len(cols) - 1
    for y in rays:
        assert min(y) >= 0 and any(y) and math.gcd(*y) == 1
        assert all(sum(c[i] * v for c, v in zip(cols, y)) == 0 for i in range(len(cols[0])))
    masks = [sum(1 << j for j, v in enumerate(y) if v) for y in rays]
    return sorted((y[:n], y[n]) for y, m in zip(rays, masks)
                  if y[n] and not any(o != m and o & m == o for o in masks))


@st.composite
def vertex_systems(draw):
    """(A, b) of P = {u >= 0, sum u = 1, W u = 0} or, without the sum row,
    of the unbounded {nu >= 0, -W nu = varpi} that `vanishing_level` reads:
    W of g in 1..3 rows of n in 2..9 entries in [-3, 3], with up to two rows
    combined from others or negated inserted anywhere, and some columns
    zeroed (coordinates of weight 0)."""
    g, n = draw(st.integers(1, 3)), draw(st.integers(2, 9))
    W = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=g, max_size=g))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(W) - 1)), draw(st.integers(0, len(W) - 1))
        c = draw(st.integers(-2, 2))
        row = [-a for a in W[i]] if draw(st.booleans()) else [a + c * b for a, b in zip(W[i], W[j])]
        W.insert(draw(st.integers(0, len(W))), row)
    zero = draw(st.sets(st.integers(0, n - 1)))
    W = [[0 if j in zero else x for j, x in enumerate(row)] for row in W]
    if draw(st.booleans()):
        return [[1] * n] + W, [1] + [0] * len(W)
    if draw(st.booleans()):
        nu = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return [[-a for a in row] for row in W], [-sum(a * x for a, x in zip(row, nu)) for row in W]
    return [[-a for a in row] for row in W], draw(st.lists(st.integers(-6, 6), min_size=len(W),
                                                          max_size=len(W)))


@given(vertex_systems())
@example(([[1] * 7, [0, -1, -2, 1, 1, -3, 1], [-3, 1, 0, 0, 0, 2, 0], [3, -1, -1, -3, 2, 2, 3]],
          [1, 0, 0, 0]))
@example(([[1, 3, 0, 0, -1], [-2, 1, -2, 3, -3], [2, -1, 0, -3, 3]], [5, 2, -2]))
@settings(max_examples=300, deadline=None)
def test_vertices_of_weight_systems_match_the_cramer_enumeration(system):
    # a system with the sum row is P of W = A[1:]: `slice_vertices` lists its
    # vertices.  One without it is {nu >= 0, -W nu = varpi}, W = -A, which
    # `vanishing_level` reads without listing vertices.  In both examples the
    # elimination leaves a ray that is not extreme, with s > 0: only the
    # support test drops it from P, and it never raises the max of sum(nu)
    A, b = system
    n = len(A[0])
    if A[0] == [1] * n and b == [1] + [0] * (len(b) - 1):
        assert slice_vertices(TorusAction(A[1:])) == cramer_vertices(A, b)
    else:
        W = [[-a for a in row] for row in A]
        assert vanishing_level(TorusAction(W), b) == cramer_vanishing_level(W, b)


def cramer_vanishing_level(W, varpi):
    """Oracle for `vanishing_level`, read off vertex lists: 0 when
    {nu >= 0, -W nu = varpi} has no vertex, None when P of W is nonempty
    (sum(nu) is unbounded), else floor(max sum(nu)) + 1 over the vertices."""
    nus = cramer_vertices([[-a for a in row] for row in W], varpi)
    if not nus:
        return 0
    if cramer_vertices([[1] * len(W[0])] + W, [1] + [0] * len(W)):
        return None
    return max(sum(num) // den for num, den in nus) + 1


def test_g4_n24_vertices_enumerate_fast():
    # 2,038 vertices, C(24, 5) = 42,504 bases.  CPU time, the best of up to
    # three runs, so a collector pause or a busy machine does not decide it
    W = np.random.default_rng(0).integers(-3, 4, (4, 24))

    def run():
        start = time.process_time()
        assert len(slice_vertices(TorusAction(W))) == 2038
        return time.process_time() - start
    assert any(run() < 2.0 for _ in range(3))


def test_dependent_rows_build_fast():
    # W = B stacked on -B: [1; W] has rank 4 of 7 rows, and the search tried
    # every larger minor first (2 s at n = 16).  CPU time, the best of up to
    # three builds, so a collector pause or a busy machine does not decide it
    B = np.random.default_rng(0).integers(-2, 3, (3, 16))
    W = np.vstack([B, -B])

    def build():
        start = time.process_time()
        plan = geometry._slice_plan.__wrapped__(16, tuple(map(tuple, W.tolist())))
        vertices = slice_vertices(TorusAction(W))
        assert len(plan.s) == 4 and len(vertices) == 186
        return time.process_time() - start
    assert any(build() < 0.1 for _ in range(3))
