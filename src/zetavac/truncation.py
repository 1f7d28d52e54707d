"""Nested truncation of operators onto finite Fourier bases.

The plane-wave basis is ordered ``0, -1, +1, -2, +2, ...`` so that the
span of the first ``m`` vectors is contained in the span of the first
``n`` for every ``m <= n``.  Truncating an operator to such a basis is
then literally taking leading principal submatrices, and quantities
computed at different sizes can be compared by zero-padding.

Element functions are evaluated once per upper-triangle entry, with the
modes as Python ints.  Every operator the Schatten probe sees is
Hermitian, so it takes each nuclear norm as the sum of absolute
eigenvalues (LAPACK ``heevd``/``syevd``, about a third of the work of a
singular value decomposition), in real arithmetic whenever the weighted
operator has no imaginary part.

NumPy and SciPy each load their own OpenBLAS thread pool, and a pool's
workers keep spinning after a call, so a call into one pool right after
a call into the other competes with them for the cores.  The rule is:
SciPy's LAPACK and BLAS only for the ground-state solve and its residual
(``spectral.smallest_eigenpair`` and ``vacuum_state``), NumPy's for
everything else, the Schatten eigenvalues included.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, GridTooSmall, HermiticityViolation, NonHermitianInput
from .spectral import require_hermitian, smallest_eigenpair

__all__ = [
    "mode_of_index",
    "index_of_mode",
    "mode_list",
    "SobolevWeight",
    "DiscretizedVacuum",
    "project_operator",
    "vacuum_state",
    "expectation",
    "zero_pad",
    "strong_convergence_probe",
    "schatten_convergence_probe",
]

def mode_of_index(j: int) -> int:
    """Fourier mode sitting at ordered position ``j``.

    Position 0 carries mode 0, odd positions carry negative modes and
    even positions positive ones: 0, -1, +1, -2, +2, ...
    """
    if j < 0:
        raise ValueError("index must be non-negative")
    if j == 0:
        return 0
    return -((j + 1) // 2) if j % 2 else j // 2


def index_of_mode(k: int) -> int:
    """Ordered position of Fourier mode ``k`` (inverse of mode_of_index)."""
    if k == 0:
        return 0
    return -2 * k - 1 if k < 0 else 2 * k


def mode_list(n: int) -> np.ndarray:
    """Modes of the first ``n`` ordered basis vectors."""
    if n < 1:
        raise ValueError("basis size must be at least 1")
    j = np.arange(n)
    return np.where(j % 2 == 1, -((j + 1) // 2), j // 2)


@dataclass(frozen=True)
class SobolevWeight:
    """Diagonal weights ``(1 + k^2)^s`` over Fourier modes."""

    s: float

    def values(self, modes) -> np.ndarray:
        modes = np.asarray(modes, dtype=float)
        return (1.0 + modes**2) ** self.s


@dataclass(frozen=True)
class DiscretizedVacuum:
    """Ground state of a truncated Hamiltonian.

    ``residual`` is ``||H state - energy * state||_2 / max|H|``.  Since
    ``max|H| <= ||H||_2`` it bounds the usual relative residual from above.
    ``iterations`` counts the LOBPCG iterations of the solve.
    """

    n: int
    energy: float
    state: np.ndarray
    residual: float
    iterations: int

    def __post_init__(self):
        state = np.asarray(self.state, dtype=complex)
        if state.shape != (self.n,):
            raise DimensionMismatch(
                f"state has shape {state.shape}, expected ({self.n},)"
            )
        nrm = np.linalg.norm(state)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "state", state)


def project_operator(element, n: int, check_pairs: int = 8) -> np.ndarray:
    """Truncate a conjugate-symmetric matrix-element function to size ``n``.

    ``element(l, k)`` returns the matrix element between Fourier modes
    ``l`` (row) and ``k`` (column), which it receives as Python ints.
    Conjugate symmetry is verified on all mode pairs drawn from the first
    ``check_pairs`` ordered positions; the matrix itself is assembled from
    one call per upper-triangle entry, written with its conjugate mirror
    in two indexed assignments, so the result is Hermitian bit-exactly
    (the diagonal holds ``conj(element(l, l))``) and the leading principal
    submatrices agree exactly across sizes.  A non-finite element raises
    NonHermitianInput, wherever it sits.
    """
    if n < 1:
        raise ValueError("basis size must be at least 1")
    sample = mode_list(min(n, check_pairs))
    for a, l in enumerate(sample):
        for k in sample[a:]:
            lk, kl = complex(element(l, k)), complex(element(k, l))
            if not (cmath.isfinite(lk) and cmath.isfinite(kl)):
                raise NonHermitianInput(f"element({l},{k})={lk} or element({k},{l})={kl} is not finite")
            if abs(lk - kl.conjugate()) > 1e-12 * max(1.0, abs(lk)):
                raise HermiticityViolation(
                    f"element({l},{k})={lk} vs conj(element({k},{l}))={kl.conjugate()}"
                )
    md = mode_list(n).tolist()
    rows, cols = np.triu_indices(n)
    M = np.zeros((n, n), dtype=complex)
    M[rows, cols] = [element(md[i], md[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    # the mirror also overwrites the diagonal with conj(element(l, l))
    M[cols, rows] = M[rows, cols].conj()
    if not np.isfinite(M).all():
        raise NonHermitianInput(f"element values at n={n} are not all finite")
    return M


def vacuum_state(H) -> DiscretizedVacuum:
    """Ground-state energy, vector, residual and solver iteration count."""
    _, state, iterations = smallest_eigenpair(H)
    H = np.asarray(H, dtype=complex)
    # H @ state in SciPy's pool, where the eigensolve just ran: H.T is the
    # Fortran-ordered view of H, and trans=1 applies its transpose
    h_state = scipy.linalg.blas.zgemv(1.0, H.T, state, trans=1)
    # energy and residual from a fresh product: the solver's eigenvalue
    # comes from its recursively updated H x
    energy = float(np.vdot(state, h_state).real)
    residual = np.linalg.norm(h_state - energy * state) / max(np.abs(H).max(), 1e-300)
    return DiscretizedVacuum(H.shape[0], energy, state, float(residual), iterations)


def expectation(state, A) -> float:
    """Real quadratic form <state, A state> of a Hermitian operator."""
    state = np.asarray(state, dtype=complex)
    A = np.asarray(A, dtype=complex)
    if A.shape != (state.shape[0], state.shape[0]):
        raise DimensionMismatch(f"operator {A.shape} does not match state {state.shape}")
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-9")
    val = np.vdot(state, A @ state)
    scale = max(np.abs(A).max(), 1e-300)
    if abs(val.imag) > 1e-10 * scale:
        raise NonHermitianInput(
            f"expectation has imaginary part {val.imag:.3e} (operator not Hermitian?)"
        )
    return float(val.real)


def zero_pad(x, n: int) -> np.ndarray:
    """Embed coefficients into a larger nested basis by zero-padding."""
    x = np.asarray(x, dtype=complex)
    if n < x.shape[0]:
        raise DimensionMismatch(f"cannot pad length {x.shape[0]} down to {n}")
    out = np.zeros(n, dtype=complex)
    out[: x.shape[0]] = x
    return out


def _as_reference_matrix(A, n_ref: int) -> np.ndarray:
    if callable(A):
        return project_operator(A, n_ref)
    A = np.asarray(A, dtype=complex)
    if A.shape != (n_ref, n_ref):
        raise DimensionMismatch(f"reference operator {A.shape} vs grid {n_ref}")
    return A


def strong_convergence_probe(A, x, n_list) -> np.ndarray:
    """Residuals of truncated operator application against a reference grid.

    For each ``n`` the probe computes ``|| A_ref x - pad(A_n x_n) ||_2``
    where ``A_n`` and ``x_n`` are the leading ``n``-blocks.  ``A`` may be
    an element function or a prebuilt matrix on the grid of ``x``.  The
    reference grid must be at least twice the largest probed size.
    """
    x = np.asarray(x, dtype=complex)
    n_ref = x.shape[0]
    n_list = list(n_list)
    if n_ref < 2 * max(n_list):
        raise GridTooSmall(
            f"reference grid {n_ref} is smaller than twice max(n_list)={max(n_list)}"
        )
    A_ref = _as_reference_matrix(A, n_ref)
    ref = A_ref @ x
    out = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        approx = zero_pad(A_ref[:n, :n] @ x[:n], n_ref)
        out[i] = np.linalg.norm(ref - approx)
    return out


def schatten_convergence_probe(
    A,
    weight: SobolevWeight,
    n_list,
    rank_r: int | None = None,
    n_ref: int | None = None,
) -> np.ndarray:
    """Trace-norm residuals of truncation on a Sobolev-weighted operator.

    The operator is symmetrically scaled by ``(1 + k^2)^(-s/2)`` on both
    sides, which for the identity element and s=1 reproduces the diagonal
    ``1/(1 + k^2)``.  Residuals are nuclear norms of the difference between
    the reference operator and its leading-block truncation on the
    reference grid.  Both are Hermitian, so each nuclear norm is the sum of
    the absolute eigenvalues of the difference.  A matrix ``A`` must pass
    ``require_hermitian``; an element function is made Hermitian by
    ``project_operator``.

    ``rank_r``, an int in ``1..n_ref``, optionally replaces the reference
    by its best rank-``r`` approximation first: the ``r`` eigenpairs of
    largest ``|lambda|`` (Eckart-Young for Hermitian matrices).  A cut that
    splits a tie ``|lambda_r| = |lambda_{r+1}|`` to within
    ``1e-12 * max|lambda|`` raises ``ValueError``, since the reference is
    then not unique; a tie at that zero level is no error.  A weighted
    operator with an all-zero imaginary part is decomposed as a real
    matrix, which gives the same eigenvalues at about half the cost.
    """
    n_list = list(n_list)
    if n_ref is None:
        n_ref = (2 * max(n_list)) if not hasattr(A, "shape") else np.asarray(A).shape[0]
    if n_ref < 2 * max(n_list):
        raise GridTooSmall(
            f"reference grid {n_ref} is smaller than twice max(n_list)={max(n_list)}"
        )
    if rank_r is not None and (
        isinstance(rank_r, bool)
        or not isinstance(rank_r, (int, np.integer))
        or not 1 <= rank_r <= n_ref
    ):
        raise ValueError(f"rank_r must be None or an int in 1..{n_ref}, got {rank_r!r}")
    A_ref = _as_reference_matrix(A, n_ref)
    if not callable(A):
        A_ref = require_hermitian(A_ref)
    half = weight.values(mode_list(n_ref)) ** -0.5
    A_w = half[:, None] * A_ref * half[None, :]
    if not A_w.imag.any():
        # same eigenvalues; LAPACK runs the real dsyevd, not zheevd
        A_w = A_w.real
    if rank_r is not None:
        lam, V = np.linalg.eigh(A_w)
        order = np.argsort(-np.abs(lam))
        mag = np.abs(lam[order])
        tol = 1e-12 * mag[0]
        if rank_r < n_ref and mag[rank_r] > tol and mag[rank_r - 1] - mag[rank_r] <= tol:
            raise ValueError(
                f"rank_r={rank_r} splits the tie |lambda| = {mag[rank_r - 1]:.6e}, "
                f"{mag[rank_r]:.6e}; the rank-{rank_r} reference is not unique"
            )
        keep = order[:rank_r]
        A_w = (V[:, keep] * lam[keep]) @ V[:, keep].conj().T
    out = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        diff = A_w.copy()
        diff[:n, :n] = 0.0
        out[i] = np.abs(np.linalg.eigvalsh(diff)).sum()
    return out
