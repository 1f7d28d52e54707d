"""Concrete operators and closed-form zeta ratios.

Two families live here: matrix elements of the periodic hydrogen-type
Hamiltonian and the position operator on the plane-wave basis, and the
analytic ratio formulas for the free scalar field (single-particle and
Fock-space versions) built from log-gamma.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import GammaPole, OutOfFloatRange, SeriesDivergence
from .truncation import mode_list

__all__ = [
    "HydrogenParams",
    "hydrogen_element",
    "hydrogen_matrix",
    "position_element",
    "position_matrix",
    "FreeFieldParams",
    "freefield_zeta_ratio",
    "log_gamma",
    "fock_zeta_ratio",
]


@dataclass(frozen=True)
class HydrogenParams:
    """Mass and coupling of the periodic hydrogen-type model."""

    m: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.q < 0:
            raise ValueError(f"coupling must be non-negative, got {self.q}")


def hydrogen_element(l: int, k: int, params: HydrogenParams = HydrogenParams()) -> complex:
    """Matrix element <l| H |k> between plane-wave modes l and k.

    Kinetic term k^2/(2m) plus the Fourier coefficients of the ramp
    potential q*x on (0, pi) (zero elsewhere), which contributes
    q*pi/4 on the diagonal.
    """
    l, k = int(l), int(k)
    if l == k:
        return complex(k * k / (2.0 * params.m) + params.q * np.pi / 4.0)
    d = k - l
    return params.q * ((-1.0) ** d * (1.0 - 1j * np.pi * d) - 1.0) / (2.0 * np.pi * d * d)


# Bytes of the row block _gather_by_difference copies at a time, so the
# block's gathered windows stay a few hundred KB at any n.
_GATHER_BYTES = 1 << 18


def _gather_by_difference(table: np.ndarray, md: np.ndarray, diagonal) -> np.ndarray:
    """Matrix with entry ``table[n + md[j] - md[i]]`` at (i, j), then ``diagonal``.

    Both operators depend on the modes only through k - l, so one table
    over the differences -n..n replaces n x n integer and complex
    temporaries.  Even columns carry the modes 0, 1, 2, ... and odd ones
    -1, -2, ..., so each row is two sliding windows over the table: its
    even entries read it forwards and its odd entries backwards.  Blocks
    of rows gather their windows from two sliding-window views at once.
    """
    n = md.shape[0]
    M = np.empty((n, n), dtype=table.dtype)
    windows = np.lib.stride_tricks.sliding_window_view
    forwards, backwards = windows(table, (n + 1) // 2), windows(table[::-1], n // 2)
    start = n - md
    rows = max(1, _GATHER_BYTES // (n * table.itemsize))
    for i in range(0, n, rows):
        s = start[i : i + rows]
        M[i : i + rows, 0::2] = forwards[s]
        M[i : i + rows, 1::2] = backwards[2 * n + 1 - s]
    np.fill_diagonal(M, diagonal)
    return M


def hydrogen_matrix(n: int, params: HydrogenParams = HydrogenParams()) -> np.ndarray:
    """Truncated hydrogen Hamiltonian, vectorized.

    Agrees with projecting hydrogen_element mode by mode to the last
    couple of ulps (numpy and CPython round complex division slightly
    differently); leading principal submatrices are bit-exact across
    sizes on either path.
    """
    md = mode_list(n)
    d = np.arange(-n, n + 1)
    sign = np.where(d % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = params.q * (sign * (1.0 - 1j * np.pi * d) - 1.0) / (2.0 * np.pi * d * d)
    return _gather_by_difference(table, md, md * md / (2.0 * params.m) + params.q * np.pi / 4.0)


def position_element(l: int, k: int) -> complex:
    """Matrix element <l| x |k> of position on (-pi, pi) plane waves."""
    l, k = int(l), int(k)
    if l == k:
        return 0j
    d = k - l
    return -1j * (-1.0) ** d / d


def position_matrix(n: int) -> np.ndarray:
    """Truncated position operator, vectorized."""
    d = np.arange(-n, n + 1)
    sign = np.where(d % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = -1j * sign / d
    return _gather_by_difference(table, mode_list(n), 0.0)


def log_gamma(z: complex) -> complex:
    """Principal-branch log of the gamma function with pole detection."""
    z = complex(z)
    if abs(z.imag) < 1e-12 and z.real <= 0.5:
        nearest = round(z.real)
        if nearest <= 0 and abs(z.real - nearest) < 1e-12:
            raise GammaPole(f"gamma pole at z={z}")
    return complex(scipy.special.loggamma(z))


@dataclass(frozen=True)
class FreeFieldParams:
    """Single-mode free field: N quanta of the lowest momentum mode.

    T is the evolution time, z the regularization exponent.
    """

    N: int
    T: float
    z: complex = 0j

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"occupation N must be at least 1, got {self.N}")
        if not self.T > 0:
            raise ValueError(f"time T must be positive, got {self.T}")


def freefield_zeta_ratio(params: FreeFieldParams) -> complex:
    """Regularized particle-number ratio for the single-mode state.

    Evaluates N * Gamma(z+4) * (iT)^(-z-4) / (Gamma(z+3) * (iT)^(-z-3))
    in log space, which collapses analytically to N*(z+3)/(iT); the
    unsimplified quotient exercises the gamma plumbing of the Fock series.
    A term beyond the float range (T near 0 or huge) raises OutOfFloatRange.
    """
    z, T = complex(params.z), params.T
    log_it = math.log(T) + 1j * math.pi / 2.0
    try:
        num = params.N * cmath.exp(log_gamma(z + 4.0) - (z + 4.0) * log_it)
        return num / cmath.exp(log_gamma(z + 3.0) - (z + 3.0) * log_it)
    except (OverflowError, ZeroDivisionError) as exc:
        raise OutOfFloatRange(f"free-field terms at T={T}, z={z}: {exc}") from None


def _fock_log_terms(z: complex, T: float, cutoff: int, v: float):
    """Log-space numerator/denominator terms of the Fock ratio series."""
    log_it = math.log(T) + 1j * math.pi / 2.0
    lg3, lg4 = log_gamma(3.0), log_gamma(4.0)
    lg_z3, lg_z4 = log_gamma(z + 3.0), log_gamma(z + 4.0)
    ns = np.arange(1, cutoff + 1, dtype=float)
    ln_n = np.log(ns)
    common = (ns + z) * math.log(v) + lg4 + ns * lg3
    t_num = (z + 1.0) * ln_n + common - lg_z3 - (3.0 * ns + 1.0) * log_it
    t_den = z * ln_n + common - lg_z4 - 3.0 * ns * log_it
    return t_num, t_den


def fock_zeta_ratio(
    z: complex,
    T: float,
    cutoff: int,
    v: float = 4.0 * math.pi,
    full_output: bool = False,
):
    """Regularized mean particle number over the full Fock series.

    Both the numerator and denominator are sums over particle sectors
    N = 1..cutoff whose terms are assembled in log space and only then
    exponentiated, so very large sector factors never overflow.  The
    real log-term increment from sector N to N+1 is
    ln(v) + lnGamma(3) - 3 ln(T) + w ln((N+1)/N), with w = Re(z)+1 for the
    numerator and Re(z) for the denominator.  Past the cutoff it is at
    most its common part plus max(w, 0) ln((cutoff+1)/cutoff), so a
    ratio r < 1 there bounds the tail by a geometric series, however the
    first sectors behave.  SeriesDivergence is raised when r >= 1, when
    a partial sum is not finite, or when the denominator is not resolved
    above its tail bound.

    With ``full_output=True`` returns ``(ratio, diagnostics)`` where the
    diagnostics carry the certified geometric tail bounds.
    """
    z = complex(z)
    if not T > 0:
        raise ValueError(f"time T must be positive, got {T}")
    if cutoff < 10:
        raise ValueError(f"cutoff must be at least 10, got {cutoff}")
    t_num, t_den = _fock_log_terms(z, T, cutoff, v)
    # Geometric tail bound past the cutoff.
    base = math.log(v) + math.log(2.0) - 3.0 * math.log(T)
    step = math.log((cutoff + 1.0) / cutoff)
    log_r = (base + max(z.real + 1.0, 0.0) * step, base + max(z.real, 0.0) * step)  # numerator, denominator
    r_num, r_den = (math.exp(min(lr, 0.0)) for lr in log_r)  # tested in log space: e^lr overflows as T -> 0
    if r_num >= 1.0 or r_den >= 1.0:
        raise SeriesDivergence(
            f"tail ratio at cutoff {cutoff} is >= 1 (log-ratio num {log_r[0]:.3f}, den {log_r[1]:.3f})"
        )
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        num = np.exp(t_num).sum()
        den = np.exp(t_den).sum()
    if not (cmath.isfinite(num) and cmath.isfinite(den)):
        raise SeriesDivergence(f"partial sums are not finite (num {num}, den {den})")
    tail_num = math.exp(t_num[-1].real) * r_num / (1.0 - r_num)
    tail_den = math.exp(t_den[-1].real) * r_den / (1.0 - r_den)
    if abs(den) <= tail_den:
        raise SeriesDivergence(
            f"denominator {abs(den):.3e} not resolved above its tail bound {tail_den:.3e}"
        )
    ratio = num / den
    if not full_output:
        return ratio
    diagnostics = {
        "num": num,
        "den": den,
        "tail_num": tail_num,
        "tail_den": tail_den,
        "ratio_error_bound": (tail_num + abs(ratio) * tail_den) / (abs(den) - tail_den),
    }
    return ratio, diagnostics
