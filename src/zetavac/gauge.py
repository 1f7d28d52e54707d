"""Gauge-regularized expectation ratios on truncated operators.

Everything here evaluates variants of <psi, H^z A psi> / <psi, H^z psi>
on finite grids: the pointwise ratio, a sweep over grid sizes that takes
every z of a size from one pass and masks a collapsed denominator at its
size, the time-damped trace version, and a scan for zeros of the
denominator.  No H^z is formed: each value, each scale and the rounding
guard is a spectral sum sum_j lambda_j^z w_j in the eigenbasis of H,
evaluated by one function, ``_spectral_sums``, for all of them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DenominatorNearZero, DimensionMismatch, NonPositiveSpectrum, SingularFunctionValue
from .spectral import EigenSystem, eig_hermitian

__all__ = [
    "ZetaRatioSample",
    "ZGrid",
    "gauge_ratio",
    "ratio_convergence_scan",
    "damped_trace_ratio",
    "denominator_zero_scan",
]


# |<psi, H^z psi>| below this is a collapsed gauge denominator: gauge_ratio raises,
# ratio_convergence_scan makes the point NaN at its size, denominator_zero_scan reports it
_DENOMINATOR_FLOOR = 1e-10


@dataclass(frozen=True)
class ZetaRatioSample:
    """One evaluation of the regularized ratio at a point z."""

    z: complex
    numerator: complex
    denominator: complex
    ratio: complex

    def __post_init__(self):
        if abs(self.ratio * self.denominator - self.numerator) > 1e-10 * max(
            1.0, abs(self.numerator)
        ):
            raise ValueError("ratio does not reproduce numerator/denominator")


@dataclass(frozen=True)
class ZGrid:
    """Distinct complex sample points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if np.unique(pts).size != pts.size:
            raise ValueError("grid points must be distinct")
        object.__setattr__(self, "points", pts)


def _spectral_sums(lam: np.ndarray, zs, W: np.ndarray) -> np.ndarray:
    """Sums sum_j lam_j^z W[j, k], one row per z in ``zs``, one column per k.

    Raises NonPositiveSpectrum when lam (ascending) has no real logarithm,
    and SingularFunctionValue naming the first z whose sums are not finite.
    """
    if lam[0] <= 0.0:
        raise NonPositiveSpectrum(f"smallest eigenvalue {lam[0]:.6e} is not positive")
    zs = np.asarray(zs, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.exp(np.outer(zs, np.log(lam))) @ W
    bad = ~np.isfinite(sums).all(axis=1)
    if bad.any():
        raise SingularFunctionValue(f"non-finite spectral sum at z = {zs[bad][0]}")
    return sums


def _ground_sums(system: EigenSystem, zs, A=None) -> np.ndarray:
    """Sums of the ground state psi = v_0, one row per z in ``zs``.

    With c = V^dagger psi and d = V^dagger A psi the columns are the
    numerator sum_j conj(c_j) lambda_j^z d_j (only when ``A`` is given) and
    the denominator sum_j |c_j|^2 lambda_j^z.  Computed c is e_0 plus
    rounding, so term j > 0 of the numerator is rounding of size |c_j| |d_j|
    against the scale |c_0| ||d|| (>= |c_0 d_0|, and nonzero when the
    expectation is), and of the denominator rounding of size |c_j|^2
    against |c_0|^2.  With w_j the sum of the two relative sizes (the
    denominator's alone without ``A``), the guard is one more spectral sum:
    SingularFunctionValue is raised at the first z where
    sum_{j>0} w_j lambda_j^Re z exceeds 1e-9 lambda_0^Re z, past which the
    sums return amplified rounding, not their value.
    """
    zs = np.asarray(zs, dtype=complex)
    lam, V = system.eigenvalues, system.vectors
    psi = V[:, 0]
    c = (psi.conj() @ V).conj()  # V^dagger psi without copying V
    c_rel = np.abs(c / c[0])
    if A is None:
        cols, w = [np.abs(c) ** 2], c_rel**2
    else:
        d = ((A @ psi).conj() @ V).conj()
        d_norm = np.linalg.norm(d)
        d_rel = np.abs(d) / d_norm if d_norm else 0.0  # d = 0 makes the numerator exactly 0
        cols, w = [c.conj() * d, np.abs(c) ** 2], c_rel * (c_rel + d_rel)
    sums = _spectral_sums(lam, zs, np.stack(cols, axis=1))
    # the guard's two sums at Re z, the rounding terms j > 0 and their scale
    # lambda_0^Re z, in a product of their own: stacked with the value sums
    # they would change BLAS's summation order and the last bits of the values
    guard = np.zeros((lam.size, 2))
    guard[1:, 0] = w[1:]
    guard[0, 1] = 1.0
    rounding, scale = _spectral_sums(lam, zs.real, guard).real.T
    bad = rounding > 1e-9 * scale
    if bad.any():
        raise SingularFunctionValue(
            f"lambda^z amplifies eigenvector rounding above 1e-9 at z = {zs[bad][0]}"
        )
    return sums


def _operands(H, A, system: EigenSystem | None):
    """The eigensystem of H (``system`` when given, for an H of its size) and A
    (None or a complex matrix of its size)."""
    A = None if A is None else np.asarray(A, dtype=complex)
    if system is None:
        system = eig_hermitian(H)
    elif np.shape(H) != (system.dim, system.dim):
        raise DimensionMismatch(f"Hamiltonian {np.shape(H)} vs eigensystem dim {system.dim}")
    if A is not None and A.shape != (system.dim, system.dim):
        raise DimensionMismatch(f"operator {A.shape} vs Hamiltonian dim {system.dim}")
    return system, A


def gauge_ratio(H, A, z: complex, system: EigenSystem | None = None) -> ZetaRatioSample:
    """Regularized ground-state expectation of A in the gauge H^z.

    ``system`` may carry a precomputed eigendecomposition of H so that
    scans over many z points factorize H only once.  The ratio is
    sum_j conj(c_j) lambda_j^z d_j / sum_j |c_j|^2 lambda_j^z with
    c = V^dagger psi and d = V^dagger A psi.  SingularFunctionValue is
    raised where lambda^z lifts the rounding in c above 1e-9 of either sum
    (``_ground_sums``), DenominatorNearZero for |denominator| < 1e-10,
    the floor ``denominator_zero_scan`` reports.
    """
    system, A = _operands(H, A, system)
    z = complex(z)
    num, den = map(complex, _ground_sums(system, [z], A)[0])
    if abs(den) < _DENOMINATOR_FLOOR:
        raise DenominatorNearZero(f"|denominator| = {abs(den):.3e} at z = {z}")
    return ZetaRatioSample(z=z, numerator=num, denominator=den, ratio=num / den)


def ratio_convergence_scan(build_h, build_a, grid: ZGrid, n_list) -> dict:
    """Gauge ratios across grid sizes with consecutive-size residuals.

    ``build_h(n)`` and ``build_a(n)`` return the size-``n`` matrices of H
    and A, for one or more strictly increasing sizes ``n_list``.  Each size
    is one eigensolve and one ``_ground_sums`` over the whole grid.  Where
    a denominator collapses (below gauge_ratio's floor) the ratio and the
    denominator at that size are NaN; the point's other sizes keep theirs.

    Returns a dict with keys ``n`` (sizes), ``z`` (points), ``ratios`` and
    ``denominators`` (len(n) x len(z) complex), ``expectations``
    (<psi_n, A_n psi_n> per size, psi_n the ground state of H_n),
    ``residuals`` (len(n)-1 x len(z) absolute consecutive differences)
    and ``excluded`` (the points collapsed at any size).
    """
    n_list = list(n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"need one or more strictly increasing grid sizes, got {n_list}")
    pts = grid.points
    ratios = np.full((len(n_list), pts.size), complex(np.nan, np.nan))
    denominators = ratios.copy()
    expectations = np.empty(len(n_list), dtype=complex)
    for i, n in enumerate(n_list):
        system, A = _operands(build_h(n), build_a(n), None)
        psi = system.vectors[:, 0]
        expectations[i] = np.vdot(psi, A @ psi)
        num, den = _ground_sums(system, pts, A).T
        kept = np.abs(den) >= _DENOMINATOR_FLOOR
        ratios[i, kept], denominators[i, kept] = num[kept] / den[kept], den[kept]
    return {
        "n": np.array(n_list),
        "z": pts,
        "ratios": ratios,
        "denominators": denominators,
        "expectations": expectations,
        "residuals": np.abs(np.diff(ratios, axis=0)),
        "excluded": np.isnan(ratios).any(axis=0),
    }


def damped_trace_ratio(
    H, A, z: complex, T: float, eps: float, system: EigenSystem | None = None
) -> complex:
    """Trace form of the ratio with damped evolution exp(-i(1-i*eps)TH).

    The damping suppresses every excited level by exp(-eps*T*gap), so for
    eps*T large the value approaches the ground-state gauge ratio.
    """
    if eps < 0:
        raise ValueError(f"damping eps must be non-negative, got {eps}")
    system, A = _operands(H, A, system)
    z, T = complex(z), float(T)
    lam, V = system.eigenvalues, system.vectors
    # Work in the eigenbasis and pull the common ground-state evolution
    # factor out of both traces; it cancels exactly in the ratio and
    # keeps the terms representable for arbitrarily large eps*T.
    tau = np.exp((lam - lam[0]) * (-1j * (1.0 - 1j * eps) * T))
    diag_a = (V.conj() * (A @ V)).sum(axis=0)
    # the sum at Re z over |tau| is the scale sum_j |tau_j lambda_j^z|
    sums = _spectral_sums(lam, [z, z.real], np.stack([diag_a * tau, tau, np.abs(tau)], axis=1))
    num, den, scale = sums[0, 0], sums[0, 1], sums[1, 2].real
    if abs(den) < 1e-12 * scale:
        raise DenominatorNearZero(f"|trace denominator| = {abs(den):.3e} at T = {T}")
    return complex(num / den)


def denominator_zero_scan(H, grid: ZGrid, system: EigenSystem | None = None) -> np.ndarray:
    """Grid points where the gauge denominator <psi, H^z psi> collapses.

    Evaluated through the spectral sum sum_j |<v_j, psi>|^2 lambda_j^z,
    which is the same quantity gauge_ratio divides by.  Returns the
    subset of grid points with |denominator| < 1e-10, the floor below
    which gauge_ratio raises DenominatorNearZero.  Raises
    SingularFunctionValue naming the first z whose denominator is not
    finite, or else the first whose denominator is amplified rounding
    (large Re z; the denominator part of gauge_ratio's guard).
    """
    system, _ = _operands(H, None, system)
    den = _ground_sums(system, grid.points)[:, 0]
    return grid.points[np.abs(den) < _DENOMINATOR_FLOOR]
