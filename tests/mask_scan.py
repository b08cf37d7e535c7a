"""The fixed-component search as a scan of every coordinate mask: the
reference `reduction.find_fixed_components` is checked against.

Each of the 2^n support patterns is tested for face-ness with 2^n-sized
tables and solved when no subset missed its congruence by RESONANCE_BAND
or more; solvable patterns contained in a larger solvable pattern are
absorbed.  Only the components are compared: here any near-resonant
pattern flags every component.
"""

import numpy as np

from eqtoeplitz._intlinalg import NumericFailure, solve_phase_congruence, torsion_angles
from eqtoeplitz.reduction import (PHASE_TOL, RESONANCE_BAND, FixedComponentReport,
                                  ReductionHypothesisError, _barycenter, _difference_rows,
                                  stabilizer_info)
from eqtoeplitz.symmetry import slice_vertices

#: largest coordinate count d+1 whose 2^(d+1) support patterns the scan visits
MAX_SCAN_COORDS = 16


def _support_mask(num) -> int:
    return sum(1 << j for j, v in enumerate(num) if v)


def _face_patterns(vmasks: np.ndarray, n: int) -> np.ndarray:
    """For each coordinate pattern m < 2^n (a bitmask), whether the zero
    locus meets its open stratum: m is the union of the vertex supports
    (bitmasks vmasks) contained in it."""
    masks = np.arange(1 << n, dtype=np.int64)
    cover = np.zeros_like(masks)
    for vm in vmasks:
        cover |= np.where((masks & vm) == vm, vm, 0)
    return (cover == masks) & (masks > 0)


def scan_fixed_components(action, sym, model) -> list:
    n = model.n_coords
    g = action.g
    if n > MAX_SCAN_COORDS:
        raise NumericFailure(f"the fixed-component search scans 2^{n} coordinate supports, "
                             f"over the budget of 2^{MAX_SCAN_COORDS}")
    verts = slice_vertices(action)
    for S in sorted({tuple(j for j, v in enumerate(num) if v) for num, _ in verts}):
        if stabilizer_info(action, S).free_rank > 0:
            raise ReductionHypothesisError(
                "continuous stabilizer on the zero-locus stratum of a vertex of P", witness=S)
    vmasks = np.array([_support_mask(num) for num, _ in verts], dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    bits = 1 << np.arange(n, dtype=np.int64)
    feasible = _face_patterns(vmasks, n)
    # a pattern containing one whose congruence misses by RESONANCE_BAND
    # or more is unsolvable too: patterns are solved level by level in size,
    # skipping those above such a pattern
    far = np.zeros(1 << n, bool)
    size = ((masks[:, None] & bits) > 0).sum(axis=1)
    solvable = []
    near_resonant = []
    for level in range(1, n + 1):
        lev = masks[size == level]
        for bit in bits:
            far[lev] |= far[lev & ~bit]
        for mask in lev[feasible[lev] & ~far[lev]].tolist():
            S = tuple(j for j in range(n) if mask >> j & 1)
            D = _difference_rows(action.W, S)
            delta = np.array([sym.phi[j] - sym.phi[S[0]] for j in S[1:]])
            theta, info = solve_phase_congruence(D, delta, tol=PHASE_TOL)
            if theta is None:
                far[mask] = info["residual"] >= RESONANCE_BAND
                if not far[mask]:
                    near_resonant.append(S)
            else:
                solvable.append((mask, S, theta, info))

    # absorb patterns contained in a larger solvable pattern: above[m] says
    # some solvable pattern contains m (superset sums, one coordinate at a time)
    above = np.zeros(1 << n, bool)
    above[[mask for mask, *_ in solvable]] = True
    for bit in bits:
        low = masks[(masks & bit) == 0]
        above[low] |= above[low | bit]
    keep = []
    for mask, S, theta, info in sorted(solvable):
        if any(above[mask | bit] for bit in bits.tolist() if not mask & bit):
            continue
        stab_angles = torsion_angles(info)
        u_star = _barycenter([v for v, vm in zip(verts, vmasks) if (vm & ~mask) == 0], n)
        keep.append(dict(
            support=S, mask=mask, t_angles=theta, stab_order=stab_angles.shape[0],
            stab_angles=stab_angles, u_star=u_star, representative=np.sqrt(u_star) + 0j,
            d_l=len(S) - 1 - g))

    # overlapping maximal patterns: closures may intersect; report, don't merge
    flagged = set()
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            common = keep[i]["mask"] & keep[j]["mask"]
            if np.any((vmasks & ~common) == 0):     # a vertex of P lies in both closures
                flagged.update({i, j})
    if near_resonant:
        flagged.update(range(len(keep)))

    out = []
    for i, c in enumerate(keep):
        out.append(FixedComponentReport(
            support=c["support"], d_l=c["d_l"], codim=model.d - g - c["d_l"],
            t_angles=c["t_angles"], stab_order=c["stab_order"],
            stab_angles=c["stab_angles"], u_star=c["u_star"],
            representative=c["representative"],
            suspected_nongeneric=(i in flagged),
            _w_j0=action.W[:, c["support"][0]].astype(float)))
    return out
