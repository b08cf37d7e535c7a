"""The shared selftest checks as tests: each pin bites when flipped, and the
fixed-point identity holds for random non-degenerate phases."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqtoeplitz.selftest import (FLIPPABLE_PINS, PIN_CHECKS, check_fixed_point_pin,
                                 check_kappa_calibration, check_reproducing_property,
                                 check_trace_quadrature)


@pytest.mark.parametrize("pin", FLIPPABLE_PINS)
def test_pin_fails_only_when_flipped(pin):
    _, check, params = PIN_CHECKS[pin]
    ok, detail = check(**params)
    assert ok, detail
    ok, detail = check(flip=pin, **params)
    assert not ok, detail


def _separated(phis, gap=0.3):
    """Pairwise distance mod 2 pi at least gap: every c_l is bounded away from 0."""
    return all(abs(math.remainder(a - b, 2 * math.pi)) >= gap
               for i, a in enumerate(phis) for b in phis[i + 1:])


@st.composite
def _phases(draw):
    d = draw(st.integers(1, 3))
    phis = st.lists(st.floats(0.0, 2 * math.pi), min_size=d + 1, max_size=d + 1)
    return tuple(draw(phis.filter(_separated))), draw(st.floats(-math.pi, math.pi))


@given(_phases())
@settings(max_examples=30, deadline=None)
def test_fixed_point_identity_exact(case):
    # g = 0: the trace equals the fixed-point sum at every level, not only asymptotically
    phi, theta_A = case
    ok, detail = check_fixed_point_pin(phi=phi, theta_A=theta_A, levels=range(41), tol=1e-9)
    assert ok, detail


def test_quadrature_checks_peak_under_2_mib():
    # the three sphere integrals run on exact cubature rules of 70 to 2,835
    # nodes; drawn as 2^13 to 2^16 Sobol points they peaked at 2.3 to 4.8 MiB
    peaks = {}
    for check in (check_kappa_calibration, check_reproducing_property, check_trace_quadrature):
        tracemalloc.start()
        try:
            ok, detail = check()
            peaks[check.__name__] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert ok, detail
    assert max(peaks.values()) < 2.0, peaks
