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

The ground state comes from one function, ``vacuum_state``: a LOBPCG
iteration on the dense matrix, certified by a Cholesky factorization of
a leading block, a triangular solve and a Gershgorin bound.  NumPy and
SciPy each load their own OpenBLAS thread pool, and a pool's workers keep
spinning after a call, so a call into one pool right after a call into
the other competes with them for the cores.  The rule is: every BLAS and
LAPACK call of this module goes to SciPy's pool, as does the Pauli
transform's; the other modules keep to NumPy's.  So the strong probe's
products go through ``zgemv`` and the Schatten eigenvalues through
SciPy's ``eigh``, beside the solve they follow.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    GridTooSmall,
    HermiticityViolation,
    NonHermitianInput,
    OutOfFloatRange,
)
from .spectral import _fix_phases, _hermitian_and_scale

__all__ = [
    "index_of_mode",
    "mode_list",
    "SobolevWeight",
    "DiscretizedVacuum",
    "project_operator",
    "vacuum_state",
    "strong_convergence_probe",
    "schatten_convergence_probe",
]

def index_of_mode(k: int) -> int:
    """Ordered position of Fourier mode ``k``: ``mode_list(n)[index_of_mode(k)] == k``.

    Position 0 carries mode 0, odd positions carry negative modes and
    even positions positive ones: 0, -1, +1, -2, +2, ...
    """
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
    ``iterations`` counts the LOBPCG iterations of the solve, and
    ``certificate_block`` the leading rows its certificate factored: ``n``
    for a full Cholesky factorization, 0 when Gershgorin's theorem alone
    certified the energy.
    """

    n: int
    energy: float
    state: np.ndarray
    residual: float
    iterations: int
    certificate_block: int

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


def project_operator(element, n: int) -> np.ndarray:
    """Truncate a conjugate-symmetric matrix-element function to size ``n``.

    ``element(l, k)`` returns the matrix element between Fourier modes
    ``l`` (row) and ``k`` (column), which it receives as Python ints.
    Conjugate symmetry is verified on all mode pairs drawn from the first
    8 ordered positions; the matrix itself is assembled from
    one call per upper-triangle entry, row by row, each row written with
    its conjugate mirror column, so the result is Hermitian bit-exactly
    (the diagonal holds ``conj(element(l, l))``) and the leading principal
    submatrices agree exactly across sizes.  A non-finite element raises
    NonHermitianInput, wherever it sits.
    """
    sample = mode_list(min(n, 8))  # raises for n < 1
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
    M = np.empty((n, n), dtype=complex)
    for a, l in enumerate(md):
        M[a, a:] = [element(l, k) for k in md[a:]]
        # the mirror also overwrites the diagonal with conj(element(l, l))
        np.conjugate(M[a, a:], out=M[a:, a])
    if not np.isfinite(M).all():
        raise NonHermitianInput(f"element values at n={n} are not all finite")
    return M


def _column_norms(X: np.ndarray) -> np.ndarray:
    """Column 2-norms of a Fortran-ordered complex matrix, with no complex temporary."""
    return np.sqrt(np.square(X.T.view(float)).sum(axis=1))


# A hydrogen solve takes 6-12 iterations at n = 8..4096 and 12 at q = 300,
# n = 128; a random Hermitian matrix starts from all its rows and takes 0 or 1.
_MAX_ITER = 5000


def vacuum_state(H) -> DiscretizedVacuum:
    """Ground state of a Hermitian matrix, certified.

    Block-size-1 LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517)
    from the start block: the leading rows up to the last one whose own
    Gershgorin disc reaches the smallest diagonal entry d_j
    (d_i - R_i <= d_j, R_i the off-diagonal row sum), row j among them.
    The start vector x is the block's lowest eigenvector, zero-padded,
    with Rayleigh quotient theta and residual rho = ||H x - theta x||.
    The block's eigenpairs come from the divide-and-conquer ``zheevd``:
    a strong potential widens the block (hydrogen at q = 7e4 and n = 4096
    has 2147 rows), and at 500 to 2000 rows it is 6 to 7 times faster
    than ``zheev``; it solves a random Hermitian matrix, every disc of
    which reaches d_j, whole.  The preconditioner is
    U diag(1 / (lambda - theta + rho)) U^H on the block, lambda and U its
    eigenpairs, and 1 / (d_i - theta + rho) on the other rows.  Both are
    positive for any Hermitian H: lambda >= theta up to rounding, and a
    row outside the block has d_i > d_j >= theta, since the block's lowest
    eigenvalue is at most its diagonal entry d_j; each difference is
    clipped at 0 against rounding.  Neither changes when H is shifted by
    a multiple of the identity.  A one-row block (row 0 alone) is e_0
    with the diagonal preconditioner.  On hydrogen the block is the low
    modes, where the potential couples rows as strongly as the kinetic
    diagonal separates them, and its exact inverse about halves the
    iterations.  Each iteration takes one product with H and a
    Rayleigh-Ritz step on the orthonormalised span of the iterate, the
    preconditioned residual and the previous direction.  It stops once
    ||H x - theta x||_2 <= 1e-14 * max|H|.

    An iterative solve can stop on an excited state whose eigenvector the
    start vector is orthogonal to, so the result is certified: no
    eigenvalue lies below sigma = theta - delta, delta = 1e-10 * max|H|,
    if H - sigma I is positive definite.  That holds when its leading
    k x k block A factors as L L^H and Gershgorin's theorem bounds the
    Schur complement D - W^H W, W = L^-1 H[:k, k:], away from zero: its
    entries differ from D's by at most ||w_i|| ||w_j|| (w_j the columns
    of W), so every trailing row i must pass

        (H_ii - sigma) - R_i - ||w_i|| sum_j ||w_j|| > margin_i,
        R_i = sum_{j != i} |H_ij|.

    k starts at the last row whose own Gershgorin disc reaches sigma and
    doubles while a row fails.  Once 2k > n, k = n: the full Cholesky
    factorization of H - sigma I, so a matrix without a dominant diagonal
    (every disc of a random Hermitian matrix reaches sigma) gets the
    verdict and the n^3 / 3 cost of a plain Cholesky certificate.  The
    kinetic diagonal of a hydrogen matrix outgrows its row sums: at
    (m, q) = (1, 1) the bound holds at k = 112 for n = 256..1050 and at
    k = 56 for n = 2048; below n = 256 the full factorization runs.

    The margin covers rounding.  ``ztrsm`` returns each w_j exact for
    some L + dL, |dL| <= k eps |L| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., thm 8.5), so each ||w_j|| is at most
    1 + eta times the computed one, eta = k^1.5 eps kappa(L), and the
    product term at most 1 + 3 eta times its computed value for eta <= 1.
    By interlacing, lambda_min(A) >= lambda_0(H) - sigma >= delta / 2
    when theta is within the residual of the ground level lambda_0, so
    kappa(L)^2 <= k (max|H| + |sigma|) / (delta / 2) and
    eta = k^2 eps sqrt(2 (max|H| + |sigma|) / delta): 4e-7 at k = 112,
    below 1 for k < 1.8e5 when |sigma| <= max|H|.  A leading block with
    an eigenvalue within delta / 2 above sigma is outside this bound.
    R_i sums n rounded magnitudes, and the left side rounds at the scale
    of its terms, so

        margin_i = 3 eta ||w_i|| sum_j ||w_j|| + 3 n eps (R_i + |H_ii| + |sigma|).

    The sum over j enters row i's test only through ||w_i|| sum_j ||w_j||,
    on both sides with a positive factor, and a partial sum only lowers
    it.  So a trial solves the columns in the chunks k..2k, 2k..4k, ...
    and tests the rows so far on the partial sum after each: a row that
    fails there fails the full test too, and k doubles without the rest
    of the solve.  On hydrogen the trials k = 7..28 fail in rows k..2k;
    k = 56 at n = 1050 fails in rows 224..448, after 392 of its 994
    columns.

    ConvergenceFailure is raised when a factorization fails, or when the
    residual bound is not met within the iteration cap.  The state carries
    the same phase convention as ``eig_hermitian``.  Energy and residual
    come from a fresh product H psi, since theta comes from the
    recursively updated H x.
    """
    M, scale, off = _hermitian_and_scale(H)
    scale = max(scale, np.finfo(float).tiny)
    blas, lapack = scipy.linalg.blas, scipy.linalg.lapack
    n = M.shape[0]
    d = M.diagonal().real
    # the start block: rows :b, up to the last disc reaching min(d)
    b = int(np.flatnonzero(d - off <= d.min())[-1]) + 1
    lam, U, info = lapack.zheevd(M[:b, :b])
    if info != 0:
        raise ConvergenceFailure(f"start block eigensolve failed (info={info})")
    # columns: the iterate x, the previous direction p (from the second
    # iteration on) and the preconditioned residual w; HV holds H times each
    V = np.zeros((n, 3), dtype=complex, order="F")
    HV = np.zeros_like(V)
    V[:b, 0] = U[:, 0]
    HV[:, 0] = blas.zgemv(1.0, M.T[:b], U[:, 0], trans=1)  # H[:, :b] u
    k = 1
    for it in range(_MAX_ITER):
        theta = blas.zdotc(V[:, 0], HV[:, 0]).real
        r = HV[:, 0] - theta * V[:, 0]
        rnorm = blas.dznrm2(r)
        if rnorm <= 1e-14 * scale:
            break
        if it == 0:  # r is H x outside the start block
            precond = 1.0 / (np.maximum(d - theta, 0.0) + rnorm)
            block_precond = 1.0 / (np.maximum(lam - theta, 0.0) + rnorm)
        w = precond * r
        # U diag(block_precond) U^H on the start block
        c = blas.zgemv(1.0, U, r[:b], trans=2)
        w[:b] = blas.zgemv(1.0, U, block_precond * c)
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
        _, ritz, info = lapack.zheev(blas.zgemm(1.0, V[:, :k], HV[:, :k], trans_a=2))
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
    sigma = theta - delta
    eps = np.finfo(float).eps
    gap = d - sigma - off  # own Gershgorin margins of the rows of H - sigma I
    slack = 3 * n * eps * (off + np.abs(d) + abs(sigma))
    reach = np.flatnonzero(gap <= slack)
    k = int(reach[-1]) + 1 if reach.size else 0
    while k:
        if 2 * k > n:
            k = n
        lead = M[:k, :k].copy()
        lead.flat[:: k + 1] -= sigma
        # Hermitian, so the Fortran-ordered view is the conjugate, positive
        # definite exactly when the block is; zpotrf factors it as U^H U,
        # so U^H = conj(L)
        u, info = lapack.zpotrf(lead.T, overwrite_a=1, clean=0)
        if info != 0:
            raise ConvergenceFailure(
                f"LOBPCG stopped at {theta!r}, but an eigenvalue lies below it by more "
                f"than {delta:.3e} (leading block of {k} of {n} rows)"
            )
        if k == n:
            break
        eta = k * k * eps * np.sqrt(2.0 * (scale + abs(sigma)) / delta)
        # U^-H conj(H[:k, cols]) is the conjugate of W's columns cols, with
        # their norms, solved in the chunks k..2k, 2k..4k, ... (2k <= n
        # here); the rows so far are tested on the partial sum after each
        w = np.empty(n - k)
        end = k
        while end < n:
            start, end = end, min(2 * end, n)
            w[start - k : end - k] = _column_norms(blas.ztrsm(1.0, u, M.T[:k, start:end], trans_a=2))
            t = w[: end - k] * w[: end - k].sum()
            if not (gap[k:end] - t > slack[k:end] + 3.0 * eta * t).all():
                break
        else:  # every row passed on the full sum
            break
        k *= 2
    state = _fix_phases(V[:, :1])[:, 0]
    h_state = blas.zgemv(1.0, M.T, state, trans=1)
    energy = float(np.vdot(state, h_state).real)
    # dznrm2 scales as it sums, so the norm of a residual near the float
    # range does not overflow
    residual = blas.dznrm2(h_state - energy * state) / scale
    return DiscretizedVacuum(n, energy, state, float(residual), it, k)


def _check_probe_sizes(n_list: list, n_ref: int) -> None:
    """Every probed size at least 1, as in ``mode_list``, and within half the reference grid."""
    if not n_list:
        raise ValueError("need one or more probe sizes")
    if min(n_list) < 1:
        raise ValueError(f"basis size must be at least 1, got {min(n_list)}")
    if n_ref < 2 * max(n_list):
        raise GridTooSmall(
            f"reference grid {n_ref} is smaller than twice max(n_list)={max(n_list)}"
        )


def strong_convergence_probe(A, x, n_list) -> np.ndarray:
    """Residuals of truncated operator application against a reference grid.

    For each ``n`` the probe computes ``|| A_ref x - pad(A_n x_n) ||_2``
    where ``A_n`` and ``x_n`` are the leading ``n``-blocks, ``pad`` fills
    the entries past ``n`` with zeros and ``A`` is a matrix on the grid of
    ``x``.  The reference grid must be at least twice the largest probed
    size.  A residual that is not finite, from a non-finite entry or an
    overflow, raises OutOfFloatRange naming the first such size.
    """
    x = np.asarray(x, dtype=complex)
    n_ref = x.shape[0]
    n_list = list(n_list)
    _check_probe_sizes(n_list, n_ref)
    A = np.asarray(A, dtype=complex)
    if A.shape != (n_ref, n_ref):
        raise DimensionMismatch(f"operator {A.shape} vs grid {n_ref}")
    zgemv = scipy.linalg.blas.zgemv
    # A.T is the Fortran-ordered view of A; trans=1 applies A
    ref = zgemv(1.0, A.T, x, trans=1)
    out = np.empty(len(n_list))
    with np.errstate(all="ignore"):  # the finiteness check raises instead
        for i, n in enumerate(n_list):
            r = ref.copy()  # past n the residual is ref - 0
            r[:n] -= zgemv(1.0, A.T[:n, :n], x[:n], trans=1)
            out[i] = np.linalg.norm(r)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise OutOfFloatRange(f"strong probe residual at n={n_list[bad[0]]} is not finite")
    return out


def schatten_convergence_probe(element, weight: SobolevWeight, n_list, n_ref: int) -> np.ndarray:
    """Trace-norm residuals of truncation on a Sobolev-weighted operator.

    ``element`` is a matrix-element function, made Hermitian on the
    reference grid of size ``n_ref`` (at least twice the largest probed
    size) by ``project_operator``.  The operator is symmetrically scaled by
    ``(1 + k^2)^(-s/2)`` on both sides, which for the identity element and
    s=1 reproduces the diagonal ``1/(1 + k^2)``.  Residuals are nuclear
    norms of the difference between the reference operator and its
    leading-block truncation on the reference grid.  Both are Hermitian,
    so each nuclear norm is the sum of the absolute eigenvalues of the
    difference.  A weighted operator with an all-zero imaginary part is
    decomposed as a real matrix, which gives the same eigenvalues at about
    half the cost.  A weight that takes an entry out of the float range
    (a strongly negative s underflows ``(1 + k^2)^s`` to 0) raises
    OutOfFloatRange.
    """
    n_list = list(n_list)
    _check_probe_sizes(n_list, n_ref)
    A = project_operator(element, n_ref)
    with np.errstate(all="ignore"):  # the finiteness check raises instead
        half = weight.values(mode_list(n_ref)) ** -0.5
        A_w = half[:, None] * A * half[None, :]
    if not np.isfinite(A_w).all():
        raise OutOfFloatRange(f"Sobolev weight s={weight.s} leaves the float range at n_ref={n_ref}")
    if not A_w.imag.any():
        # same eigenvalues; LAPACK runs the real dsyevd, not zheevd
        A_w = A_w.real
    out = np.empty(len(n_list))
    for i, n in enumerate(n_list):
        # Fortran-ordered, so eigh overwrites it in place of a copy
        diff = A_w.copy(order="F")
        diff[:n, :n] = 0.0
        ev = scipy.linalg.eigh(diff, eigvals_only=True, driver="evd", overwrite_a=True, check_finite=False)
        out[i] = np.abs(ev).sum()
    return out
