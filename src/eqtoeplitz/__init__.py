"""Numerics for symmetry-twisted Toeplitz traces on projective space.

Exact finite-level computations (monomial section bases, equivariant
projector kernels, Toeplitz compressions) alongside the predicted large-k
leading terms over fixed components of the reduced symmetry, with fitting
and kernel-scaling validators.
"""

__version__ = "0.1.0"

from .geometry import ProjectiveModel, SectionBasis, section_basis
from .observables import Observable
from .symmetry import DiagonalSymmetry, TorusAction

__all__ = [
    "__version__",
    "ProjectiveModel",
    "SectionBasis",
    "section_basis",
    "Observable",
    "DiagonalSymmetry",
    "TorusAction",
]
