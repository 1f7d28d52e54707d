"""Gauge-regularized expectation ratios on truncated operators.

Everything here evaluates variants of <psi, H^z A psi> / <psi, H^z psi>
on finite grids: the pointwise ratio, a sweep over grid sizes, the
time-damped trace version, and a scan for zeros of the denominator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DenominatorNearZero,
    DimensionMismatch,
    NonPositiveSpectrum,
    SingularFunctionValue,
)
from .spectral import EigenSystem, eig_hermitian, matrix_function
from .truncation import project_operator

__all__ = [
    "ZetaRatioSample",
    "ZGrid",
    "gauge_ratio",
    "ratio_convergence_scan",
    "damped_trace_ratio",
    "denominator_zero_scan",
]


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
    """Complex sample points with an exclusion radius around known zeros."""

    points: np.ndarray
    exclusion_radius: float = 0.0
    zeros: tuple = ()

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if np.unique(pts).size != pts.size:
            raise ValueError("grid points must be distinct")
        object.__setattr__(self, "points", pts)

    def admissible(self) -> np.ndarray:
        """Mask of points farther than the exclusion radius from every zero."""
        mask = np.ones(self.points.size, dtype=bool)
        for z0 in self.zeros:
            mask &= np.abs(self.points - z0) > self.exclusion_radius
        return mask


def _ground_state(system: EigenSystem):
    if system.eigenvalues[0] <= 0.0:
        raise NonPositiveSpectrum(
            f"smallest eigenvalue {system.eigenvalues[0]:.6e} is not positive"
        )
    return system.vectors[:, 0]


def gauge_ratio(H, A, z: complex, system: EigenSystem | None = None) -> ZetaRatioSample:
    """Regularized ground-state expectation of A in the gauge H^z.

    ``system`` may carry a precomputed eigendecomposition of H so that
    scans over many z points factorize H only once.  At z = 0 the ratio
    reduces to the plain ground-state expectation through the identical
    code path (H^0 is assembled like any other power).
    """
    A = np.asarray(A, dtype=complex)
    if system is None:
        system = eig_hermitian(H)
    if A.shape != (system.dim, system.dim):
        raise DimensionMismatch(f"operator {A.shape} vs Hamiltonian dim {system.dim}")
    z = complex(z)
    psi = _ground_state(system)
    G = matrix_function(system, lambda lam: np.exp(z * np.log(lam)))
    num = complex(np.vdot(psi, G @ (A @ psi)))
    den = complex(np.vdot(psi, G @ psi))
    if abs(den) < 1e-12:
        raise DenominatorNearZero(f"|denominator| = {abs(den):.3e} at z = {z}")
    return ZetaRatioSample(z=z, numerator=num, denominator=den, ratio=num / den)


def ratio_convergence_scan(
    element_h,
    element_a,
    grid: ZGrid,
    n_list,
    builder_h=None,
    builder_a=None,
) -> dict:
    """Gauge ratios across grid sizes with consecutive-size residuals.

    ``element_h``/``element_a`` are matrix-element functions; a vectorized
    ``builder(n) -> matrix`` can be supplied for either to skip the
    element-by-element projection on large grids.  Points of the grid
    where the denominator collapses are flagged in the returned
    ``excluded`` mask instead of aborting the sweep.

    Returns a dict with keys ``n`` (sizes), ``z`` (points), ``ratios``
    (len(n) x len(z) complex), ``residuals`` (len(n)-1 x len(z) absolute
    consecutive differences) and ``excluded``.
    """
    n_list = list(n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need at least 3 strictly increasing grid sizes")
    pts = grid.points
    keep = grid.admissible()
    ratios = np.full((len(n_list), pts.size), np.nan + 0j)
    excluded = ~keep
    for i, n in enumerate(n_list):
        H = builder_h(n) if builder_h is not None else project_operator(element_h, n)
        A = builder_a(n) if builder_a is not None else project_operator(element_a, n)
        system = eig_hermitian(H)
        for j, z in enumerate(pts):
            if excluded[j]:
                continue
            try:
                ratios[i, j] = gauge_ratio(H, A, z, system=system).ratio
            except DenominatorNearZero:
                excluded[j] = True
                ratios[:, j] = np.nan + 0j
    residuals = np.abs(np.diff(ratios, axis=0))
    return {
        "n": np.array(n_list),
        "z": pts,
        "ratios": ratios,
        "residuals": residuals,
        "excluded": excluded,
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
    A = np.asarray(A, dtype=complex)
    if system is None:
        system = eig_hermitian(H)
    if A.shape != (system.dim, system.dim):
        raise DimensionMismatch(f"operator {A.shape} vs Hamiltonian dim {system.dim}")
    z = complex(z)
    _ground_state(system)  # positivity check
    lam = system.eigenvalues
    # Work in the eigenbasis and pull the common ground-state evolution
    # factor out of both traces; it cancels exactly in the ratio and
    # keeps the terms representable for arbitrarily large eps*T.
    weights = np.exp(-1j * (1.0 - 1j * eps) * T * (lam - lam[0]) + z * np.log(lam))
    diag_a = np.einsum("ij,ji->i", system.vectors.conj().T, A @ system.vectors)
    num = complex(np.sum(weights * diag_a))
    den = complex(np.sum(weights))
    if abs(den) < 1e-12 * np.abs(weights).sum():
        raise DenominatorNearZero(f"|trace denominator| = {abs(den):.3e} at T = {T}")
    return num / den


def denominator_zero_scan(H, grid: ZGrid, system: EigenSystem | None = None) -> np.ndarray:
    """Grid points where the gauge denominator <psi, H^z psi> collapses.

    Evaluated through the spectral sum sum_j |<v_j, psi>|^2 lambda_j^z,
    which is the same quantity gauge_ratio divides by.  Returns the
    subset of grid points with |denominator| < 1e-10; raises
    SingularFunctionValue, naming the first such z, when a denominator
    is not finite (lambda^z overflows for large Re z).
    """
    if system is None:
        system = eig_hermitian(H)
    psi = _ground_state(system)
    w = np.abs(system.vectors.conj().T @ psi) ** 2
    log_lam = np.log(system.eigenvalues)
    pts = grid.points
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.array([np.sum(w * np.exp(z * log_lam)) for z in pts])
    bad = ~np.isfinite(den)
    if bad.any():
        raise SingularFunctionValue(f"non-finite denominator at z = {pts[bad][0]}")
    return pts[np.abs(den) < 1e-10]
