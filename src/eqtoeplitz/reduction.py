"""Zero level set of the moment map, the reduced space, and every fixed-point
invariant feeding the leading trace term.

Every exact fact about the zero locus is read off the vertices of the
polytope P = {u >= 0, sum u = 1, W u = 0}, enumerated once per weight matrix
(`zero_locus`).  Every coordinate support on the zero locus contains the
support of a vertex of P and lies inside their union (the generic support),
and as a support grows its stabilizer shrinks, so the hypotheses are
decided on the vertex strata; the orbit Gram there, W diag(u) W^T, is
linear in u, so the least dPhi singular value and V_eff are vertex values.
Other volumes are Monte-Carlo over the ambient sphere with a coarea
correction, over one zero-locus draw (`zero_locus_sample`,
`reduced_space_integral`).  Fixed loci of the descended symmetry are the
faces of P whose phase congruence over the weight lattice is solvable; the
orbit-distance sweep that checks their completeness lives in
tests/test_reduction.py::TestCompleteness.

Conventions pinned here and validated by the self-test suite:

- 0 is a regular value of Phi exactly when the torus acts locally freely
  on Phi^{-1}(0), i.e. when every vertex stratum has finite stabilizer;
  "free" means free modulo finite stabilizers, and `stabilizer_constant`
  says separately whether every stratum has the generic stabilizer;
- a violated hypothesis raises ReductionHypothesisError (exit 3), while an
  empty band sample of a stratum that holds a vertex of P is under-sampling
  and raises NumericFailure (exit 4);
- the effective volume of an orbit is the Riemannian volume of its image,
  (2pi)^g sqrt(det Gram) divided by the order of the finite stabilizer;
- fixed-point data (g_m, h_l, chi) are stored together with the stabilizer
  coset so downstream predictions can average over branches.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, lru_cache, reduce
from operator import or_

import numpy as np

from ._intlinalg import (DegenerateSymmetryError, NumericFailure, ReductionHypothesisError,
                         homogenized_rays, solve_phase_congruence, torsion_angles)
from .geometry import ProjectiveModel, sample_sphere
from .observables import Observable
from .symmetry import DiagonalSymmetry, TorusAction, moment_map, slice_vertices

__all__ = [
    "ReductionHypothesisError",
    "DegenerateSymmetryError",
    "ZeroLocusSample",
    "ReductionDiagnostics",
    "FixedComponentReport",
    "zero_locus",
    "vanishing_level",
    "zero_locus_sample",
    "check_regular_and_free",
    "effective_volume",
    "reduced_volume",
    "reduced_space_integral",
    "find_fixed_components",
    "component_invariants",
    "f_bar_is_sampled",
    "f_bar_integral",
]

#: a coordinate of modulus above SUPPORT_TOL is in a point's support
SUPPORT_TOL = 1e-8
#: Newton refinement stops once every |Phi| <= NEWTON_TOL, or after NEWTON_MAX_ITER steps
NEWTON_TOL, NEWTON_MAX_ITER = 1e-12, 60
#: central finite-difference step of the descended differential, per normal coordinate
FD_STEP = 1e-5
#: a determinant factor |c_l| at or below C_L_TOL vanishes (DegenerateSymmetryError)
C_L_TOL = 1e-8


# ---------------------------------------------------------------------------
# stabilizer structure on support patterns

def _difference_rows(W: np.ndarray, support) -> np.ndarray:
    S = list(support)
    return (W[:, S[1:]] - W[:, S[:1]]).T.astype(np.int64)


#: {t in T^g : t fixes the points of an open support stratum}: its finite
#: order and (order, g) read-only angles, both None when it has a continuous
#: part of rank free_rank > 0
Stabilizer = namedtuple("Stabilizer", "order angles free_rank")


def stabilizer_info(action: TorusAction, support) -> Stabilizer:
    """The stabilizer of the open support stratum: the homogeneous phase
    solve on the support's weight differences."""
    D = _difference_rows(action.W, support)
    _, info = solve_phase_congruence(D, np.zeros(D.shape[0]))
    if info["free_rank"] > 0:
        return Stabilizer(None, None, info["free_rank"])
    angles = torsion_angles(info)
    angles.setflags(write=False)
    return Stabilizer(angles.shape[0], angles, 0)


def point_support(x) -> tuple:
    c = np.abs(np.asarray(x, dtype=complex))
    return tuple(int(j) for j in np.nonzero(c > SUPPORT_TOL)[0])


def _bits(mask: int) -> tuple:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


#: P of one weight matrix, exactly: its vertices as `slice_vertices` lists
#: them, their support bitmasks, (support, Stabilizer) of each distinct vertex
#: support by support, the generic support (their union; empty when P is)
#: and its Stabilizer (None when P is empty)
ZeroLocus = namedtuple("ZeroLocus", "vertices vmasks strata generic stabilizer")


def zero_locus(action: TorusAction) -> ZeroLocus:
    """P of action.W, enumerated once per weight matrix (memoized on W)."""
    return _zero_locus(action.W.shape, action.W.tobytes())


@lru_cache(maxsize=64)
def _zero_locus(shape: tuple, data: bytes) -> ZeroLocus:
    action = TorusAction(np.frombuffer(data, np.int64).reshape(shape))
    vertices = tuple(slice_vertices(action))
    vmasks = tuple(sum(1 << j for j, v in enumerate(num) if v) for num, _ in vertices)
    strata = tuple((S, stabilizer_info(action, S)) for S in sorted(set(map(_bits, vmasks))))
    generic, known = _bits(reduce(or_, vmasks, 0)), dict(strata)
    if strata and generic not in known:
        known[generic] = stabilizer_info(action, generic)
    return ZeroLocus(vertices, vmasks, strata, generic, known.get(generic))


def vanishing_level(action: TorusAction, varpi) -> int | None:
    """Smallest k0 with varpi outside k*Phi(M) for every k >= k0.

    k is admissible when -W nu = varpi for some nu >= 0 with sum(nu) = k.
    The rays (x, s) of {(nu, s) >= 0 : -W nu = s varpi} (`homogenized_rays`)
    decide it: none with s > 0, no nu at all (returns 0); one with s = 0, an
    unbounded sum(nu) as 0 lies in Phi(M) (returns None); else the largest
    admissible k is the largest sum(x) / s, rounded down.
    """
    varpi = np.asarray(varpi, dtype=np.int64).reshape(action.g)
    n = action.n_coords
    rays, _ = homogenized_rays(-action.W, varpi.tolist())
    if not any(y[n] for y in rays):
        return 0
    if not all(y[n] for y in rays):
        return None
    return max(sum(y[:n]) // y[n] for y in rays) + 1


# ---------------------------------------------------------------------------
# zero-locus sampling

def _ball_volume(g: int, eps: float) -> float:
    return math.pi ** (g / 2.0) * eps ** g / math.gamma(g / 2.0 + 1.0)


def _newton_refine(pts: np.ndarray, action: TorusAction) -> np.ndarray:
    """Project sphere points onto the moment-map zero set, in place, by damped
    Newton steps along the gradient directions, renormalizing each step."""
    W = action.W.astype(float)
    for _ in range(NEWTON_MAX_ITER):
        bad = np.linalg.norm(moment_map(pts, action), axis=1) > NEWTON_TOL
        if not np.any(bad):
            break
        sub = pts[bad]
        phis = moment_map(sub, action)
        try:
            c = np.linalg.solve(action.orbit_gram(sub), (phis / 2.0)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ReductionHypothesisError("singular orbit Gram during refinement",
                                           witness=sub[0])
        step = np.einsum("ni,ij,nj->nj", c, W, sub)
        new = sub + step
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        pts[bad] = new
    return pts


class ZeroLocusSample(namedtuple("ZeroLocusSample", "points weight n_total band support",
                                 defaults=(None,))):
    """Refined points on the zero locus of a stratum and their one weight.

    A point's coarea weight, vol_M 2^g sqrt(det Gram) / (n_total ball), over
    its orbit volume V_eff = (2 pi)^g sqrt(det Gram) / order is order *
    weight with weight = vol_M / (pi^g n_total ball), the same at every
    point: sum(weight * order * h(points)) estimates the integral of h over
    the reduced space of the stratum, whose stabilizer has that finite order.
    """

    def integrate(self, h_values) -> tuple[float, float]:
        h = np.asarray(h_values, dtype=float)
        est = float(np.sum(self.weight * h))
        contrib = self.weight * h * self.n_total
        s2 = float(np.sum(contrib ** 2))
        var = max(s2 / self.n_total - est ** 2, 0.0) / self.n_total
        return est, math.sqrt(var)


def zero_locus_sample(action: TorusAction, model: ProjectiveModel, n_samples: int,
                      seed: int, band: float = 0.05, support=None) -> ZeroLocusSample:
    """Sample the moment-map zero set inside the (sub)stratum of the given
    coordinate support (default: all coordinates).

    The sample count is rounded up to a power of two: Sobol blocks are
    balanced only at those sizes, which matters for the thin-band indicator.
    Phi = -W (|z_j|^2) depends on the squared moduli alone, so the draw
    tests the band on them and builds complex points only for the rows
    inside it (`keep`).  Newton, the 1e-9 residual filter and the embedding
    run row by row on batches of ~geometry._SOBOL_BLOCK band rows as the
    draw streams (`refine`): the working memory is a block plus the output.
    """
    support = tuple(sorted(range(model.n_coords) if support is None else support))
    if len(support) < 2:
        raise ValueError("support must contain at least two coordinates to sample")
    n_samples = 2 ** max(1, math.ceil(math.log2(n_samples)))
    sub_model = ProjectiveModel(len(support) - 1, kappa_x=model.kappa_x)
    sub_action = TorusAction(action.W[:, list(support)])

    def refine(band_rows):
        pts = _newton_refine(band_rows, sub_action)
        emb = np.zeros((len(pts), model.n_coords), complex)
        emb[:, list(support)] = pts
        return emb[np.linalg.norm(moment_map(pts, sub_action), axis=1) <= 1e-9]
    emb = sample_sphere(n_samples, seed, sub_model, refine=refine,
                        keep=lambda sq: np.linalg.norm(sub_action.pair_weights(sq), axis=1) < band)
    weight = sub_model.vol_M / (math.pi ** action.g * n_samples * _ball_volume(action.g, band))
    return ZeroLocusSample(points=emb, weight=weight, n_total=n_samples, band=band,
                           support=support)


# ---------------------------------------------------------------------------
# effective volume and reduced integrals

def effective_volume(x, action: TorusAction, stab_order=None):
    """Riemannian volume of the orbit through x: (2pi)^g sqrt(det Gram)
    divided by the finite stabilizer order.

    x is a unit vector or rows of unit vectors.  stab_order is one order or
    one per row; by default it is read off each row's coordinate support.
    Returns a float for a single vector, else one value per row; 1 for a
    trivial group.
    """
    single = np.ndim(x) == 1
    pts = np.atleast_2d(np.asarray(x, dtype=complex))
    det = np.linalg.det(action.orbit_gram(pts))
    if stab_order is None:
        # each row's support stabilizer; a continuous one is a violation
        infos = [stabilizer_info(action, point_support(x)) for x in pts]
        for x, info in zip(pts, infos):
            if info.free_rank > 0:
                raise ReductionHypothesisError("continuous stabilizer on zero locus", witness=x)
        stab_order = np.array([info.order for info in infos])
    if np.any(det <= 1e-16):
        raise ReductionHypothesisError("degenerate orbit Gram (non-locally-free point)",
                                       witness=pts[int(np.argmin(det))])
    out = (2.0 * math.pi) ** action.g * np.sqrt(det) / stab_order
    return float(out[0]) if single else out


def reduced_space_integral(action: TorusAction, sample: ZeroLocusSample,
                           h=None) -> tuple[float, float]:
    """Monte-Carlo of int_{reduced space of the sampled stratum} h-average,
    i.e. the zero-locus integral of h / V_eff over an already-drawn sample.
    h maps point rows to floats (default 1).

    An empty sample is under-sampling (NumericFailure) when the stratum
    holds a vertex of P, and an empty zero locus otherwise."""
    zl = zero_locus(action)
    if sample.points.shape[0] == 0:
        mask = sum(1 << j for j in sample.support)
        if any(not vm & ~mask for vm in zl.vmasks):
            raise NumericFailure(
                f"none of {sample.n_total} samples fell in the moment band around the "
                f"zero locus of the stratum {sample.support}; raise sampling.n_samples")
        raise ReductionHypothesisError("empty zero locus in the requested stratum")
    info = (zl.stabilizer if sample.support == zl.generic
            else stabilizer_info(action, sample.support))
    if info.free_rank > 0:
        raise ReductionHypothesisError("positive-dimensional stabilizer on stratum",
                                       witness=sample.points[0])
    hv = np.ones(sample.points.shape[0]) if h is None else np.asarray(h(sample.points), float)
    return sample.integrate(info.order * hv)


def reduced_volume(action: TorusAction, model: ProjectiveModel, n_samples: int,
                   seed: int, band: float = 0.05) -> tuple[float, float]:
    """vol(M0) = int over the zero locus of 1/V_eff, with standard error."""
    return reduced_space_integral(action, zero_locus_sample(action, model, n_samples, seed,
                                                            band=band))


# ---------------------------------------------------------------------------
# hypothesis diagnostics

#: Exact hypothesis flags and stabilizer orders, the exact least dPhi
#: singular value and V_eff and the Monte-Carlo volume and V_eff statistics
#: of a regular locus.  Defaults describe a locus where nothing was found.
ReductionDiagnostics = namedtuple(
    "ReductionDiagnostics", "empty_locus regular_value min_singular_dphi free_action "
    "kernel_order stabilizer_order stabilizer_constant vol_M0 vol_M0_stderr v_eff_min "
    "v_eff_mean v_eff_max n_samples",
    defaults=(False, 0.0, False, None, None, True, None, None, None, None, None, 0))


def check_regular_and_free(action: TorusAction, model: ProjectiveModel,
                           n_samples: int = 200_000, seed: int = 0, band: float = 0.05
                           ) -> tuple[ReductionDiagnostics, ZeroLocusSample | None]:
    """The reduction hypotheses and the least dPhi singular value and V_eff,
    exact on the vertices of P, then vol(M0) and the V_eff mean and maximum
    over one zero-locus sample of a regular locus, returned with that sample
    (None when none was drawn).

    0 is a regular value exactly when the action is locally free on the zero
    locus, so regular_value == free_action: every vertex stratum has a finite
    stabilizer.  stabilizer_constant: every vertex stratum (hence every
    stratum) has the generic stabilizer order.  A non-regular or empty locus
    is reported without sampling.  dPhi dPhi^T = 4 Gram over a frame of
    x^perp, and the Gram W diag(u) W^T is linear in u: its least eigenvalue
    and det^(1/g) are concave, so least at a vertex of P.  A trivial group
    passes vacuously (no dPhi, point orbits of volume 1).
    """
    zl = zero_locus(action)
    if not zl.strata:
        return ReductionDiagnostics(empty_locus=True), None
    full, order = tuple(range(action.n_coords)), zl.stabilizer.order
    kernel = zl.stabilizer if zl.generic == full else stabilizer_info(action, full)
    regular = all(info.free_rank == 0 for _, info in zl.strata)
    diag = ReductionDiagnostics(
        empty_locus=False, regular_value=regular, free_action=regular,
        kernel_order=kernel.order, stabilizer_order=order,
        stabilizer_constant=regular and all(info.order == order for _, info in zl.strata))
    if not regular:
        return diag, None
    sample = zero_locus_sample(action, model, n_samples, seed, band=band, support=zl.generic)
    vol, err = reduced_space_integral(action, sample)
    veffs = effective_volume(sample.points, action, stab_order=order)
    # after the draw, so that the eigh code pages add nothing to its peak memory
    u = np.array([[v / q for v in num] for num, q in zl.vertices])
    gram = np.einsum("ij,nj,lj->nil", action.W, u, action.W)
    lam_min = np.min(np.linalg.eigvalsh(gram), initial=np.inf)
    det_min = np.min(np.linalg.det(gram))
    return diag._replace(
        min_singular_dphi=2.0 * math.sqrt(lam_min), vol_M0=vol, vol_M0_stderr=err,
        v_eff_min=(2.0 * math.pi) ** action.g * math.sqrt(det_min) / order,
        v_eff_mean=float(np.mean(veffs)), v_eff_max=float(np.max(veffs)),
        n_samples=sample.n_total), sample


# ---------------------------------------------------------------------------
# fixed components of the descended symmetry

class FixedComponentReport(namedtuple(
        "FixedComponentReport", "support d_l codim t_angles stab_order stab_angles u_star "
        "representative w_j0 suspected_nongeneric h_l c_l c_l_exact normal_eigenvalues "
        "f_bar_integral f_bar_stderr branch_weights", defaults=(False,) + (None,) * 7)):
    """Per-component invariants feeding the leading trace term: t_angles, one
    solution g_m of gamma(m) = mu_t(m); stab_angles (order, g), the g_m
    ambiguity coset t * stab; u_star, the interior barycentric representative
    (full length); representative, a unit vector over the component; w_j0,
    the weight of its first support coordinate; branch_weights, c_l / c_l(s)
    per branch, None when all 1.  `find_fixed_components` fills the fields
    through suspected_nongeneric, `component_invariants` and `f_bar_integral`
    the rest."""

    def chi(self, varpi) -> complex:
        v = np.asarray(varpi, dtype=float).reshape(-1)
        return complex(np.exp(1j * float(v @ self.t_angles)))

    def branch_phases(self, varpi, k: int) -> np.ndarray:
        """Phase multipliers over the stabilizer coset: replacing t by t*s
        multiplies h_l^k chi_varpi by e^{i(k <W_j0, th_s> + <varpi, th_s>)}."""
        v = np.asarray(varpi, dtype=float).reshape(-1)
        return np.exp(1j * (k * (self.stab_angles @ self.w_j0) + self.stab_angles @ v))


#: most phase congruences find_fixed_components solves (one small Smith
#: form each, ~0.1 ms), checked before each support size; every search over
#: at most 16 coordinates fits
MAX_SUPPORT_SOLVES = 1 << 16
#: a support's phase congruence holds when it misses 2 pi Z by at most
#: PHASE_TOL beyond its rounding; an unsolvable support with solvable proper
#: subsets missing by less than RESONANCE_BAND is near-resonant
PHASE_TOL = 1e-8
RESONANCE_BAND = 5e-2


def _is_face(mask: int, vmasks) -> bool:
    """Whether the zero locus meets the open stratum of the support bitmask
    `mask`: mask is the union of the vertex supports (bitmasks) inside it."""
    return mask > 0 and reduce(or_, [vm for vm in vmasks if not vm & ~mask], 0) == mask


def _solve_support(action: TorusAction, sym: DiagonalSymmetry, mask: int):
    """The phase congruence e^{i phi_j} = c t^{W_j}, j in the support."""
    S = _bits(mask)
    delta = np.array([sym.phi[j] - sym.phi[S[0]] for j in S[1:]])
    return solve_phase_congruence(_difference_rows(action.W, S), delta, tol=PHASE_TOL)


def _solvable_faces(action: TorusAction, sym: DiagonalSymmetry, vmasks) -> tuple:
    """(faces, alive) inside the generic support (the union of vmasks): the
    solutions on the solvable faces by support bitmask, and whether each
    alive support (solvable, or missing by less than RESONANCE_BAND) is
    solvable.  The generic support is solved first: when it is solvable, so
    is every support inside it.  Otherwise supports are solved level by
    level in size, each only when all its one-smaller subsets are alive
    (Apriori, Agrawal and Srikant 1994): a solution on a support solves every
    subset, but whether a miss below RESONANCE_BAND passes PHASE_TOL depends
    on the Smith form, so only a larger miss rules out the supports above.
    Raises NumericFailure before a level whose solves pass MAX_SUPPORT_SOLVES.
    """
    generic = reduce(or_, vmasks)
    first = _solve_support(action, sym, generic)
    if first[0] is not None:
        return {generic: first}, {generic: True}
    faces, alive, solves, coords = {}, {}, 1, _bits(generic)
    level = [1 << j for j in coords]
    while level:
        solves += len(level)
        if solves > MAX_SUPPORT_SOLVES:
            raise NumericFailure(
                f"the fixed-component search needs {solves} phase-congruence solves "
                f"through support size {level[0].bit_count()}, over the budget of "
                f"{MAX_SUPPORT_SOLVES}")
        for mask in level:
            theta, info = first if mask == generic else _solve_support(action, sym, mask)
            if theta is not None or info["residual"] < RESONANCE_BAND:
                alive[mask] = theta is not None
            if theta is not None and _is_face(mask, vmasks):
                faces[mask] = (theta, info)
        grown = []
        for m in level:
            if m in alive:
                subs = [m ^ 1 << i for i in _bits(m)]
                grown += [m | 1 << j for j in coords
                          if 1 << j > m and all(sub | 1 << j in alive for sub in subs)]
        level = grown
    return faces, alive


def _barycenter(vertices, n: int) -> np.ndarray:
    """Mean of exact rational vertices, rounded once to doubles."""
    den = math.lcm(*(q for _, q in vertices))
    total = [sum(num[j] * (den // q) for num, q in vertices) for j in range(n)]
    return np.array([t / (den * len(vertices)) for t in total])


def find_fixed_components(action: TorusAction, sym: DiagonalSymmetry,
                          model: ProjectiveModel) -> list[FixedComponentReport]:
    """Enumerate the fixed components of the descended symmetry.

    A component is a face of the zero-locus polytope P (a union of vertex
    supports: a support whose open stratum the zero locus meets) whose phase
    congruence is solvable over the torus (`_solvable_faces`), and which lies
    in no larger such face: no join with vertex supports outside it, through
    alive supports, is solvable.  The representative sits at the barycenter
    of its vertices.  A component is flagged rather than merged when it
    shares a vertex of P with another, or when an alive unsolvable support
    lies within one coordinate of it (then so does a near-resonant one).
    Raises NumericFailure when the search would exceed MAX_SUPPORT_SOLVES,
    and ReductionHypothesisError, with the support as witness, when a vertex
    stratum of P has a continuous stabilizer (every face contains a vertex
    support, so that decides all of them).
    """
    zl = zero_locus(action)
    for S, info in zl.strata:
        if info.free_rank > 0:
            raise ReductionHypothesisError(
                "continuous stabilizer on the zero-locus stratum of a vertex of P", witness=S)
    if not zl.vertices:
        return []
    verts, vmasks = zl.vertices, zl.vmasks
    faces, alive = _solvable_faces(action, sym, vmasks)
    # covered(J): a solvable face contains J, reached by joins through alive supports
    joins = lambda J: (J | vm for vm in vmasks if vm & ~J and J | vm in alive)
    covered = cache(lambda J: J in faces or any(covered(K) for K in joins(J)))
    comps = [F for F in sorted(faces) if not any(covered(K) for K in joins(F))]
    holders = [[F for F in comps if not vm & ~F] for vm in vmasks]
    shared = {F for h in holders if len(h) > 1 for F in h}
    near = [T for T, solvable in alive.items() if not solvable]
    out = []
    for F in comps:
        theta, info = faces[F]
        S, stab_angles = _bits(F), torsion_angles(info)
        u_star = _barycenter([v for v, vm in zip(verts, vmasks) if not vm & ~F], model.n_coords)
        d_l = len(S) - 1 - action.g
        out.append(FixedComponentReport(
            support=S, d_l=d_l, codim=model.d - action.g - d_l, t_angles=theta,
            stab_order=stab_angles.shape[0], stab_angles=stab_angles, u_star=u_star,
            representative=np.sqrt(u_star) + 0j, w_j0=action.W[:, S[0]].astype(float),
            suspected_nongeneric=F in shared or any((T & ~F).bit_count() <= 1 for T in near)))
    return out


# ---------------------------------------------------------------------------
# component invariants

def _affine_chart(zeta: np.ndarray, base: np.ndarray) -> np.ndarray:
    ip = np.sum(zeta * np.conj(base))
    if abs(ip) < 1e-12:
        raise ValueError("point left the affine chart")
    return zeta / ip - base


def _normal_differential(rep, normal, t_angles, sym, action) -> np.ndarray:
    """Central finite differences of gamma followed by mu_{g_m^{-1}}, in the
    affine chart at the representative, on the normal coordinates: column i
    pushes +-FD_STEP along coordinate normal[i]."""
    base = rep / np.linalg.norm(rep)

    def push(v):
        return _affine_chart(action.act(-t_angles, sym.gamma_M(base + v)), base)[normal]

    D = np.zeros((len(normal), len(normal)), complex)
    for i, e in enumerate(FD_STEP * np.eye(rep.shape[0], dtype=complex)[normal]):
        D[:, i] = (push(e) - push(-e)) / (2 * FD_STEP)
    return D


def component_invariants(report: FixedComponentReport, sym: DiagonalSymmetry,
                         action: TorusAction, model: ProjectiveModel) -> FixedComponentReport:
    """Fill in c_l, h_l and the normal eigenvalues of a fixed component.

    c_l = det(I - DNN^{-1}) needs the descended differential DNN on the
    normal coordinates only (`_normal_differential`); h_l is the residual
    circle phase of the lift at the representative.  A stabilizer branch s
    acting on the normal coordinates has its own factor c_l(s) =
    prod_b (1 - conj(lambda_b e^{i <th_s, W_j0 - W_b>})) (`branch_weights`).
    """
    rep = report.representative
    j0, normal = report.support[0], [b for b in range(model.n_coords) if b not in report.support]
    DNN = _normal_differential(rep, normal, report.t_angles, sym, action)
    # DNN is diagonal, but prod(1 - 1/DNN_bb) rounds c_l differently from
    # det/inv in the last bits, which would move every output that holds c_l
    c_l = complex(np.linalg.det(np.eye(len(normal)) - np.linalg.inv(DNN))) if normal else 1 + 0j
    if abs(c_l) <= C_L_TOL:
        raise DegenerateSymmetryError(
            f"determinant factor {c_l!r} vanishes on component {report.support}")

    # exact phase-arithmetic counterpart (diagonal data) on the normal coordinates
    lam = np.array([np.exp(1j * (sym.phi[b] - sym.phi[j0]
                                 + float(report.t_angles @ (action.W[:, j0] - action.W[:, b]))))
                    for b in normal], dtype=complex)
    c_exact = complex(np.prod(1.0 - np.conj(lam)))

    # orbifold (Kawasaki) factors: branch s turns lambda_b by the n_b-th power of
    # e^{2 pi i / order}; a branch with every n_b = 0 keeps c_l exactly
    order = report.stab_order
    n_b = np.rint(report.stab_angles @ (action.W[:, [j0]] - action.W[:, normal]) * order
                  / (2 * math.pi)).astype(np.int64) % order
    weights = None if not n_b.any() else np.array(
        [c_l / np.prod(1.0 - np.conj(lam * np.exp(2j * math.pi * n / order))) if n.any() else 1.0
         for n in n_b])

    # residual circle phase of the lift: gamma_X^{-1}(x) = r_{h} mu_{t^{-1}}(x)
    lift = rep / np.linalg.norm(rep)
    xg = sym.gamma_X_inv(lift)
    yg = action.act(-report.t_angles, lift)
    h = complex(np.sum(xg * np.conj(yg)))
    if abs(abs(h) - 1.0) > 1e-10:
        raise DegenerateSymmetryError(
            f"representative of {report.support} is not fixed (|h| = {abs(h)})")
    h /= abs(h)

    return report._replace(c_l=c_l, c_l_exact=c_exact, normal_eigenvalues=lam, h_l=h,
                           branch_weights=weights)


def f_bar_is_sampled(report: FixedComponentReport, action: TorusAction,
                     model: ProjectiveModel) -> bool:
    """Whether f_bar_integral is Monte-Carlo for this component: it is
    positive-dimensional and, without a group, not all of M (whose
    moment-free integral is closed form)."""
    return report.d_l > 0 and not (action.g == 0 and len(report.support) == model.n_coords)


def f_bar_integral(report: FixedComponentReport, f: Observable, action: TorusAction,
                   model: ProjectiveModel, n_samples: int = 200_000,
                   seed: int = 0, sample: ZeroLocusSample | None = None
                   ) -> FixedComponentReport:
    """int_{F_l} (G-average of f) vol_{F_l}.

    Point components evaluate the averaged observable at the representative
    (vol(point) = 1), and a component that is all of M without a group
    integrates in closed form; other positive-dimensional components
    restrict to their support stratum, which is again a projective-space
    model, and reuse the reduced-space Monte-Carlo there.  `sample`, a
    zero-locus sample drawn with these n_samples and seed and the default
    band, stands in for that draw when its support is the component's.
    """
    favg = f.g_average(action)
    if not f_bar_is_sampled(report, action, model):
        val = (favg.value(report.representative[None, :])[0] if report.d_l == 0
               else favg.integral_over_M(model))
        return report._replace(f_bar_integral=complex(val), f_bar_stderr=0.0)
    if sample is None or sample.support != report.support:
        sample = zero_locus_sample(action, model, n_samples, seed, support=report.support)
    est, err = reduced_space_integral(action, sample, h=favg.value)
    return report._replace(f_bar_integral=complex(est), f_bar_stderr=err)
