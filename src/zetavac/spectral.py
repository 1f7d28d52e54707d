"""Dense Hermitian spectral tools.

Hermitian-input validation and eigendecomposition with a deterministic
eigenvector phase convention.  Functions of an operator (H^z, damped
evolution) are never assembled as matrices: ``gauge`` evaluates them as
sums over the spectrum.  ``eig_hermitian`` runs in NumPy's LAPACK; the
ground-state solve, ``truncation.vacuum_state``, runs in SciPy's (the
``truncation`` module docstring gives the rule and its reason).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

__all__ = [
    "EigenSystem",
    "require_hermitian",
    "eig_hermitian",
]


def require_hermitian(M, tol: float = 1e-12) -> np.ndarray:
    """Validate Hermitian symmetry and return ``M`` as a complex array.

    The tolerance is relative to the largest entry magnitude, so matrices
    assembled from floating-point arithmetic pass as long as their
    asymmetry is at rounding level.  NaN or infinite entries are rejected,
    since no symmetry test can hold on them; so is an entry whose
    magnitude overflows.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    scale = np.abs(M).max() if M.size else 0.0
    # max propagates NaN, and |inf| is inf, so one pass finds both
    if not np.isfinite(scale):
        raise NonHermitianInput("matrix has non-finite entries")
    # |conj(M) - M^T| = |M - M^H|, formed in one buffer with row-order writes
    C = M.conj()
    np.subtract(C, M.T, out=C)
    dev = np.abs(C).max()
    if dev > tol * max(scale, 1e-300):
        raise NonHermitianInput(
            f"matrix deviates from Hermitian symmetry by {dev:.3e} "
            f"(allowed {tol:.1e} * {scale:.3e})"
        )
    return M


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real-positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[idx, np.arange(vectors.shape[1])]
    phases = np.where(np.abs(lead) > 0, lead / np.maximum(np.abs(lead), 1e-300), 1.0)
    return vectors * phases.conj()


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and a unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be non-decreasing")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=complex))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eig_hermitian(M) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix.

    Eigenvalues come back ascending; eigenvector phases are fixed by making
    the largest-magnitude component of each column real-positive, which makes
    repeated runs bit-reproducible.
    """
    M = require_hermitian(M)
    try:
        vals, vecs = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(f"dense eigensolver did not converge: {exc}") from exc
    return EigenSystem(vals, _fix_phases(vecs))
