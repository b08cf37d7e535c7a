"""The exact zero-locus polytope P = {u >= 0, sum u = 1, W u = 0} and the
moment-image questions, against scipy's HiGHS LP solver as an independent
oracle over random small weight matrices (g <= 2, d <= 5)."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import eqtoeplitz.reduction as red
from eqtoeplitz.geometry import ProjectiveModel, section_basis
from eqtoeplitz.reduction import stabilizer_info, vanishing_level
from eqtoeplitz.selftest import check_moment_sign_pin
from eqtoeplitz.symmetry import TorusAction, occurring_weights, slice_vertices


def weight_rows(max_d):
    """g in {1, 2} weight rows of d + 1 entries in [-3, 3], d in 1..max_d."""
    return st.integers(1, max_d).flatmap(lambda d: st.lists(
        st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1), min_size=1, max_size=2))


weights = weight_rows(5)
small_weights = weight_rows(4)


def lp(c, A_eq, b_eq, **kw):
    return linprog(c, A_eq=A_eq, b_eq=b_eq, method="highs", **kw)


def lp_pattern_feasible(W, S):
    """Positive interior margin: max eps with u >= eps on S, u = 0 off S."""
    g, nS = W.shape[0], len(S)
    A_eq = np.zeros((1 + g, nS + 1))
    A_eq[0, :nS] = 1.0
    A_eq[1:, :nS] = W[:, S]
    c = np.zeros(nS + 1)
    c[-1] = -1.0
    res = lp(c, A_eq, np.r_[1.0, np.zeros(g)],
             A_ub=np.hstack([-np.eye(nS), np.ones((nS, 1))]), b_ub=np.zeros(nS),
             bounds=[(0, None)] * nS + [(0, 1)])
    return res.success and -res.fun > 1e-9


def lp_contains(W, target, scale):
    n = W.shape[1]
    res = lp(np.zeros(n), np.vstack([-W * scale, np.ones((1, n))]), np.r_[target, 1.0],
             bounds=[(0, None)] * n)
    return res.status == 0


def lp_vanishing_level(W, varpi):
    n = W.shape[1]
    res = lp(-np.ones(n), -W, np.asarray(varpi, float), bounds=[(0, None)] * n)
    if res.status == 3:
        return None
    if res.status == 2 or not res.success:
        return 0
    return int(math.floor(-res.fun + 1e-9)) + 1


def test_vertices_solve_the_slice_exactly():
    action = TorusAction([[1, 0, -1, 2], [0, 1, -1, -1]])
    verts = slice_vertices(action)
    assert verts
    for num, den in verts:
        assert min(num) >= 0 and sum(num) == den
        assert not np.any(action.W @ np.array(num))
    assert slice_vertices(TorusAction([[1, 1, 2]])) == []


@given(weights)
@settings(max_examples=30, deadline=None)
def test_face_patterns_match_lp(rows):
    W = np.array(rows)
    n = W.shape[1]
    vmasks = [sum(1 << j for j, v in enumerate(num) if v)
              for num, _ in slice_vertices(TorusAction(W))]
    for mask in range(1, 1 << n):
        S = [j for j in range(n) if mask >> j & 1]
        assert red._is_face(mask, vmasks) == lp_pattern_feasible(W, S), S


@given(weights)
@settings(max_examples=40, deadline=None)
def test_generic_support_matches_lp(rows):
    W = np.array(rows)
    n = W.shape[1]
    want = []
    for j in range(n):
        res = lp(-np.eye(n)[j], np.vstack([np.ones((1, n)), W]), np.r_[1.0, np.zeros(len(W))],
                 bounds=[(0, None)] * n)
        if res.success and -res.fun > 1e-9:
            want.append(j)
    assert red.zero_locus(TorusAction(W)).generic == tuple(want)


@given(small_weights)
@settings(max_examples=25, deadline=None)
def test_vertex_strata_decide_the_hypotheses(rows):
    # brute force over every support on the zero locus: 0 is regular iff the
    # weight differences of each have rank g, and the stabilizer is constant
    # iff each has the generic finite order (the union of the supports)
    W = np.array(rows)
    g, n = W.shape
    action = TorusAction(W)
    strata = [S for S in (tuple(j for j in range(n) if m >> j & 1) for m in range(1, 1 << n))
              if lp_pattern_feasible(W, list(S))]
    with mock.patch.object(red, "zero_locus_sample"), \
            mock.patch.object(red, "reduced_space_integral", return_value=(0.0, 0.0)), \
            mock.patch.object(red, "effective_volume", return_value=np.ones(1)):
        diag, _ = red.check_regular_and_free(action, ProjectiveModel(n - 1))
    assert diag.empty_locus == (not strata)
    if not strata:
        return
    rank_g = [len(S) > g and np.linalg.matrix_rank(W[:, S[1:]] - W[:, S[:1]]) == g
              for S in strata]
    generic = stabilizer_info(action, tuple(sorted(set().union(*strata)))).order
    assert diag.regular_value == diag.free_action == all(rank_g)
    assert diag.stabilizer_order == generic
    assert diag.stabilizer_constant == all(
        ok and stabilizer_info(action, S).order == generic for ok, S in zip(rank_g, strata))


@given(weights, st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_containment_matches_lp(rows, k):
    # occurring labels lie in k Phi(M), and the moment-sign pin holds on the
    # same W and k; flipped, it misses whenever a label is nonzero
    W = np.array(rows)
    d = W.shape[1] - 1
    labels = occurring_weights(TorusAction(W), section_basis(k, ProjectiveModel(d)))
    for w in labels:
        assert lp_contains(W, w, k)
    ok, detail = check_moment_sign_pin(d=d, weights=(W,), levels=(k,))
    assert ok, detail
    ok, detail = check_moment_sign_pin(flip="moment-sign", d=d, weights=(W,), levels=(k,))
    assert ok == (not labels.any()), detail


@given(weights, st.lists(st.integers(-8, 8), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_vanishing_level_matches_lp(rows, label):
    W = np.array(rows)
    varpi = label[:W.shape[0]]
    assert vanishing_level(TorusAction(W), varpi) == lp_vanishing_level(W, varpi)
