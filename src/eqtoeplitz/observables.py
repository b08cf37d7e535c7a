"""Observables: real polynomial functions of the coordinate moduli plus an
optional Hermitian quadratic term.

A u-term with exponent beta contributes prod_j u_j^beta_j where
u_j = |z_j|^2 / |z|^2; the h-term contributes sum_ab h_ab z_a conj(z_b) / |z|^2.
Both classes have closed-form integrals against the normalized volume and
closed-form Toeplitz matrix elements, which keeps the exact side of every
trace computation genuinely exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Observable"]


@dataclass(frozen=True)
class Observable:
    u_terms: dict = field(default_factory=dict)   # {beta tuple: real coefficient}
    h_term: np.ndarray | None = None              # Hermitian (d+1, d+1) or None

    def __post_init__(self):
        terms = {}
        for beta, c in self.u_terms.items():
            bt = tuple(int(b) for b in beta)
            if any(b < 0 for b in bt):
                raise ValueError("u-term exponents must be nonnegative")
            if abs(complex(c).imag) > 1e-12:
                raise ValueError("u-term coefficients must be real")
            terms[bt] = float(np.real(c))
        object.__setattr__(self, "u_terms", terms)
        if self.h_term is not None:
            h = np.asarray(self.h_term, dtype=complex)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise ValueError("h_term must be a square matrix")
            if np.max(np.abs(h - h.conj().T)) > 1e-12:
                raise ValueError("h_term must be Hermitian")
            h.setflags(write=False)
            object.__setattr__(self, "h_term", h)

    @staticmethod
    def constant(value: float, n_coords: int) -> "Observable":
        return Observable(u_terms={(0,) * n_coords: value})

    @staticmethod
    def coordinate_modulus(j: int, n_coords: int) -> "Observable":
        """The function u_j."""
        beta = [0] * n_coords
        beta[j] = 1
        return Observable(u_terms={tuple(beta): 1.0})

    @property
    def degree(self) -> int:
        """The largest |beta| of the u-terms; an h-term counts 1."""
        return max([sum(beta) for beta in self.u_terms] + [int(self.h_term is not None)])

    def value(self, points) -> np.ndarray:
        """Evaluate on unit vectors; rows are points."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        u = np.abs(pts) ** 2
        out = np.zeros(pts.shape[0])
        for beta, c in self.u_terms.items():
            b = np.asarray(beta)
            out += c * np.prod(u ** b[None, :], axis=1)
        if self.h_term is not None:
            out += np.real(np.einsum("ab,na,nb->n", self.h_term, pts, pts.conj()))
        return out

    def g_average(self, action) -> "Observable":
        """Average over the torus: u-terms are invariant; h-term entries
        survive only when the two coordinates carry equal weights."""
        if self.h_term is None:
            return self
        W = action.W
        keep = np.all(W[:, :, None] == W[:, None, :], axis=0) if W.shape[0] else np.ones(
            (self.h_term.shape[0],) * 2, dtype=bool)
        return Observable(u_terms=dict(self.u_terms), h_term=self.h_term * keep)

    def integral_over_M(self, model) -> float:
        """Closed form: int u^beta vol_M = vol_M d! beta!/(d+|beta|)!,
        and int z_a conj(z_b)/|z|^2 vol_M = delta_ab vol_M/(d+1)."""
        d = model.d
        total = 0.0
        for beta, c in self.u_terms.items():
            bsum = sum(beta)
            logval = (
                math.lgamma(d + 1)
                + sum(math.lgamma(b + 1) for b in beta)
                - math.lgamma(d + bsum + 1)
            )
            total += c * math.exp(logval)
        if self.h_term is not None:
            total += float(np.real(np.trace(self.h_term))) / (d + 1)
        return total * model.vol_M
