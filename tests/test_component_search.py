"""The level-wise fixed-component search against the mask scan it replaced
(tests/mask_scan.py), bit for bit, on random small weights (g <= 3,
d + 1 <= 9) under four phase families: generic phases, phi = theta . W
(every support solvable), theta . W on a random half of the coordinates
(resonant), and theta . W moved by 1e-9..3e-2 on a few coordinates
(near-resonant, inside RESONANCE_BAND)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eqtoeplitz.geometry import ProjectiveModel
from eqtoeplitz.reduction import ReductionHypothesisError, find_fixed_components
from eqtoeplitz.symmetry import DiagonalSymmetry, TorusAction
from mask_scan import scan_fixed_components

FAMILIES = ("generic", "theta-W", "resonant", "near-resonant")


@st.composite
def search_inputs(draw):
    g = draw(st.integers(0, 3))
    n = draw(st.integers(2, 9))
    W = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=g, max_size=g)), dtype=np.int64).reshape(g, n)
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phi = rng.uniform(0.0, 2 * math.pi, g) @ W
    if family == "generic":
        phi = rng.uniform(0.0, 2 * math.pi, n)
    elif family == "resonant":
        phi = np.where(rng.random(n) < 0.5, phi, rng.uniform(0.0, 2 * math.pi, n))
    elif family == "near-resonant":
        moved = rng.random(n) < 0.3
        phi = phi + moved * rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-9.0, -1.5, n)
    return TorusAction(W), DiagonalSymmetry(phi=phi), ProjectiveModel(n - 1)


def outcome(search, inputs):
    """The compared fields of each component, bit for bit, or the witness
    of a violated hypothesis."""
    try:
        comps = search(*inputs)
    except ReductionHypothesisError as exc:
        return exc.witness
    return [(c.support, c.d_l, c.codim, c.stab_order, c.t_angles.tobytes(),
             c.stab_angles.tobytes(), c.u_star.tobytes()) for c in comps]


@given(search_inputs())
@settings(max_examples=300, deadline=None)
def test_levelwise_search_matches_mask_scan(inputs):
    assert outcome(find_fixed_components, inputs) == outcome(scan_fixed_components, inputs)
