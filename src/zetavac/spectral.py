"""Dense Hermitian spectral tools.

Eigendecomposition with a deterministic eigenvector phase convention,
a subset eigensolve for the smallest eigenpair, matrix functions through
the functional calculus, and (optionally damped) unitary evolution
operators built from the spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonHermitianInput,
    SingularFunctionValue,
)

__all__ = [
    "EigenSystem",
    "require_hermitian",
    "eig_hermitian",
    "smallest_eigenpair",
    "matrix_function",
    "evolution_operator",
]


def require_hermitian(M, tol: float = 1e-12) -> np.ndarray:
    """Validate Hermitian symmetry and return ``M`` as a complex array.

    The tolerance is relative to the largest entry magnitude, so matrices
    assembled from floating-point arithmetic pass as long as their
    asymmetry is at rounding level.  NaN or infinite entries are rejected,
    since no symmetry test can hold on them.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonHermitianInput("matrix has non-finite entries")
    scale = np.abs(M).max() if M.size else 0.0
    dev = np.abs(M - M.conj().T).max()
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


def smallest_eigenpair(M) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and eigenvector of a Hermitian matrix.

    One LAPACK subset eigensolve: ``scipy.linalg.eigh`` with
    ``subset_by_index=[0, 0]`` reduces to tridiagonal form and computes
    only the lowest eigenpair.  The eigenvector carries the same phase
    convention as ``eig_hermitian``.

    Returns
    -------
    (value, vector)
        The eigenvalue and a unit-norm, phase-fixed eigenvector.
    """
    M = require_hermitian(M)
    try:
        # require_hermitian has already rejected non-finite entries
        vals, vecs = scipy.linalg.eigh(M, subset_by_index=[0, 0], check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(f"subset eigensolver did not converge: {exc}") from exc
    return float(vals[0]), _fix_phases(vecs)[:, 0]


def matrix_function(E: EigenSystem, f: Callable[[float], complex]) -> np.ndarray:
    """Apply a scalar function to a Hermitian operator through its spectrum.

    Returns ``V diag(f(lambda)) V^dagger``.  ``f`` is evaluated once per
    eigenvalue and must be finite on all of them.
    """
    vals = np.array([f(x) for x in E.eigenvalues], dtype=complex)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = E.eigenvalues[bad][:3]
        raise SingularFunctionValue(f"f is non-finite at eigenvalue(s) {where}")
    return (E.vectors * vals) @ E.vectors.conj().T


def evolution_operator(E: EigenSystem, T: float, eps: float = 0.0) -> np.ndarray:
    """Evolution operator ``exp(-i (1 - i eps) T H)`` from a spectrum.

    With ``eps = 0`` this is the unitary time evolution; ``eps > 0`` damps
    high-energy contributions so that long-time traces are dominated by the
    bottom of the spectrum.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    lam = E.eigenvalues
    # The real part of the exponent is -eps*T*lambda; it only overflows
    # when that is large and positive (negative spectrum, or negative T).
    growth = max(-eps * T * lam.min(), -eps * T * lam.max()) if lam.size else 0.0
    if growth > 700.0:
        raise OverflowError(f"damping exponent {growth:.1f} exceeds 700")
    phases = np.exp(-1j * (1.0 - 1j * eps) * T * lam)
    return (E.vectors * phases) @ E.vectors.conj().T
