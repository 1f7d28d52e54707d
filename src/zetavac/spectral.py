"""Dense Hermitian spectral tools.

Hermitian-input validation, eigendecomposition with a deterministic
eigenvector phase convention, and a certified iterative solve for the
smallest eigenpair.  Functions of an operator (H^z, damped evolution) are
never assembled as matrices: ``gauge`` evaluates them as sums over the
spectrum.  ``smallest_eigenpair`` runs in SciPy's BLAS and LAPACK and
``eig_hermitian`` in NumPy's; the ``truncation`` module docstring gives the
rule and its reason.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

__all__ = [
    "EigenSystem",
    "require_hermitian",
    "eig_hermitian",
    "smallest_eigenpair",
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


# A hydrogen solve takes 14-21 iterations at n = 8..4096, a random
# Hermitian matrix 67-447 at n = 40..2048.
_MAX_ITER = 5000


def smallest_eigenpair(M) -> tuple[float, np.ndarray, int]:
    """Smallest eigenvalue and eigenvector of a Hermitian matrix, certified.

    Block-size-1 LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517)
    from the unit vector e_j at the smallest diagonal entry d_j, with the
    diagonal preconditioner 1 / (d - d_j + ||H[:, j] off the diagonal||),
    which is positive for any Hermitian H and unchanged by a shift of H by
    a multiple of the identity.  Each iteration takes one product with H
    and a Rayleigh-Ritz step on the orthonormalised span of the iterate,
    the preconditioned residual and the previous direction.  It stops once
    ||H x - theta x||_2 <= 1e-14 * max|H|.

    An iterative solve can stop on an excited state whose eigenvector the
    start vector is orthogonal to, so the result is certified: a Cholesky
    factorization of H - (E - delta) I, delta = 1e-10 * max|H|, exists
    only if no eigenvalue lies below E - delta.  ConvergenceFailure is
    raised when it does not exist, or when the residual bound is not met
    within the iteration cap.  The eigenvector carries the same phase
    convention as ``eig_hermitian``.

    Returns
    -------
    (value, vector, iterations)
        The eigenvalue, a unit-norm, phase-fixed eigenvector and the
        number of LOBPCG iterations taken.
    """
    M = require_hermitian(M)
    blas = scipy.linalg.blas
    n = M.shape[0]
    scale = max(np.abs(M).max(), np.finfo(float).tiny)
    d = M.diagonal().real
    j = int(np.argmin(d))
    # columns: the iterate x, the previous direction p (from the second
    # iteration on) and the preconditioned residual w; HV holds H times each
    V = np.zeros((n, 3), dtype=complex, order="F")
    HV = np.zeros_like(V)
    V[j, 0] = 1.0
    HV[:, 0] = M[:, j]
    k = 1
    for it in range(_MAX_ITER):
        theta = blas.zdotc(V[:, 0], HV[:, 0]).real
        r = HV[:, 0] - theta * V[:, 0]
        rnorm = blas.dznrm2(r)
        if rnorm <= 1e-14 * scale:
            break
        if it == 0:  # r is H[:, j] off the diagonal
            precond = 1.0 / (d - d[j] + rnorm)
        w = precond * r
        for _ in range(2):  # Gram-Schmidt against x and p, twice
            c = blas.zgemv(1.0, V[:, :k], w, trans=2)
            w = blas.zgemv(-1.0, V[:, :k], c, beta=1.0, y=w, overwrite_y=1)
        wnorm = blas.dznrm2(w)
        if wnorm == 0.0:
            raise ConvergenceFailure("LOBPCG found no search direction outside its basis")
        V[:, k] = w / wnorm
        # M.T is the Fortran-ordered view of M; trans=1 applies M
        HV[:, k] = blas.zgemv(1.0, M.T, V[:, k], trans=1)
        k += 1
        _, ritz, info = scipy.linalg.lapack.zheev(blas.zgemm(1.0, V[:, :k], HV[:, :k], trans_a=2))
        if info != 0:
            raise ConvergenceFailure(f"Rayleigh-Ritz eigensolve failed (info={info})")
        c = ritz[:, 0]
        x, hx = blas.zgemv(1.0, V[:, :k], c), blas.zgemv(1.0, HV[:, :k], c)
        p, hp = blas.zgemv(1.0, V[:, 1:k], c[1:]), blas.zgemv(1.0, HV[:, 1:k], c[1:])
        xnorm = blas.dznrm2(x)
        V[:, 0], HV[:, 0] = x / xnorm, hx / xnorm
        a = blas.zdotc(V[:, 0], p)
        p -= a * V[:, 0]
        hp -= a * HV[:, 0]
        pnorm = blas.dznrm2(p)
        k = 1
        if pnorm > 0.0:
            V[:, 1], HV[:, 1] = p / pnorm, hp / pnorm
            k = 2
    else:
        raise ConvergenceFailure(
            f"LOBPCG residual {rnorm:.3e} above {1e-14 * scale:.3e} after {_MAX_ITER} iterations"
        )
    delta = 1e-10 * scale
    shifted = M.copy()
    shifted.flat[:: n + 1] -= theta - delta
    # Hermitian, so the Fortran-ordered view is the conjugate, which is
    # positive definite exactly when the matrix is
    _, info = scipy.linalg.lapack.zpotrf(shifted.T, overwrite_a=1, clean=0)
    if info != 0:
        raise ConvergenceFailure(
            f"LOBPCG stopped at {theta!r}, but an eigenvalue lies below it by more than {delta:.3e}"
        )
    return float(theta), _fix_phases(V[:, :1])[:, 0], it
