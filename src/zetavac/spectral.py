"""Dense Hermitian spectral tools.

Hermitian-input validation and eigendecomposition with a deterministic
eigenvector phase convention.  An accepted input stands for the
Hermitian matrix its upper triangle defines, the one ``require_hermitian``
returns to ``eig_hermitian``, ``truncation.vacuum_state`` and
``pauli.decompose`` alike.  Functions of an operator (H^z, damped
evolution) are never assembled as matrices: ``gauge`` evaluates them as
sums over the spectrum.  ``eig_hermitian`` runs in NumPy's LAPACK; the
ground-state solve, ``truncation.vacuum_state``, runs in SciPy's (the
``truncation`` module docstring gives the rule and its reason).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput, OutOfFloatRange

__all__ = [
    "EigenSystem",
    "require_hermitian",
    "eig_hermitian",
]


# Side of the square tiles require_hermitian compares with their mirrors;
# a tile pair and its scratch buffers stay in a core's cache.  128 was
# the fastest of 32..256 over the sizes of the default convergence sweep.
_TILE = 128

# Largest |M - M^H| entry allowed, relative to max|M|.
_HERMITIAN_TOL = 1e-12


def _hermitian_and_scale(M):
    """``require_hermitian``, also returning max|M| and the off-diagonal row sums.

    Each upper-triangle tile is compared with the conjugate of its mirror
    tile, so every entry is read once and the check forms no n x n
    temporary.  max|M| and ``off[i]``, the sum of |M_ij| over j != i, are taken from
    the |upper| tiles while they are in cache: each tile adds its row sums
    to its rows and its column sums to the mirror rows.  Both describe the
    returned matrix, the one the upper triangle defines.  A mirror tile
    enters only through upper - conj(lower^T), so a NaN or inf there still
    makes a deviation non-finite and is rejected.  max|M| is 0.0 for an
    empty matrix.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    b = max(min(n, _TILE), 1)
    diff = np.empty(b * b, dtype=complex)
    mag = np.empty(b * b)
    off = np.zeros(n)
    scale = dev = 0.0
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper, lower = M[i : i + b, j : j + b], M[j : j + b, i : i + b]
            h, w = upper.shape
            a = np.abs(upper, out=mag[: h * w].reshape(h, w))
            if j == i:  # a diagonal tile holds its own mirror: keep its upper part
                np.copyto(a, 0.0, where=np.tri(h, k=-1, dtype=bool))
            tile_max = a.max()
            # max propagates NaN, and |inf| is inf, so this finds both
            if not np.isfinite(tile_max):
                raise NonHermitianInput("matrix has non-finite entries")
            scale = max(scale, tile_max)
            if j == i:  # and of that, the strict upper part for the row sums
                np.fill_diagonal(a, 0.0)
            off[i : i + h] += a.sum(axis=1)
            off[j : j + w] += a.sum(axis=0)
            # |M_ij - conj(M_ji)| = |M - M^H| entry by entry
            d = np.conjugate(lower.T, out=diff[: h * w].reshape(h, w))
            np.subtract(upper, d, out=d)
            tile_dev = np.abs(d, out=a).max()
            if not np.isfinite(tile_dev):  # so does this, in the mirror tile
                raise NonHermitianInput("matrix has non-finite entries")
            dev = max(dev, tile_dev)
    if dev > _HERMITIAN_TOL * max(scale, 1e-300):
        raise NonHermitianInput(
            f"matrix deviates from Hermitian symmetry by {dev:.3e} "
            f"(allowed {_HERMITIAN_TOL:.1e} * {scale:.3e})"
        )
    if dev:  # mirror the upper triangle, with a real diagonal
        diagonal = M.diagonal().real
        M = np.triu(M, 1)
        M += M.conj().T
        np.fill_diagonal(M, diagonal)
    return M, float(scale), off


def require_hermitian(M) -> np.ndarray:
    """Validate Hermitian symmetry and return the matrix the upper triangle defines.

    The 1e-12 tolerance is relative to the largest entry magnitude of the
    upper triangle, diagonal included, so matrices assembled from
    floating-point arithmetic pass as long as their asymmetry is at
    rounding level.  Exactly Hermitian complex input comes back as the
    same array; input within the tolerance comes back as one copy whose
    lower triangle mirrors the upper one and whose diagonal is real.
    NaN or infinite entries are rejected, since no symmetry test can hold
    on them; so is an entry whose magnitude overflows.
    """
    return _hermitian_and_scale(M)[0]


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
    repeated runs bit-reproducible.  An eigenvalue that overflows the
    float range, possible when entries are near it, raises OutOfFloatRange.
    """
    M = require_hermitian(M)
    try:
        vals, vecs = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceFailure(f"dense eigensolver did not converge: {exc}") from exc
    if not np.isfinite(vals).all():
        raise OutOfFloatRange("an eigenvalue leaves the float range")
    return EigenSystem(vals, _fix_phases(vecs))
