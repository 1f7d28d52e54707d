"""Convergence-series bookkeeping and exponential rate fits."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, ZeroReference

__all__ = [
    "ConvergenceSeries",
    "ExponentialFit",
    "WindowedFit",
    "relative_errors",
    "fit_exponential",
    "fit_exponential_window",
]


@dataclass(frozen=True)
class ConvergenceSeries:
    """Sequence of values on increasing resolutions plus a reference value.

    ``abscissa`` is the resolution axis (basis size or qubit count),
    ``values`` the quantity computed at each resolution, ``reference``
    the same quantity at the reference resolution the errors are
    measured against.
    """

    abscissa: np.ndarray
    values: np.ndarray
    reference: float

    def __post_init__(self):
        a = np.asarray(self.abscissa)
        v = np.asarray(self.values, dtype=float)
        if a.shape != v.shape or a.ndim != 1:
            raise ValueError(f"abscissa {a.shape} and values {v.shape} must be equal-length 1-d")
        if not np.isfinite(a).all() or np.any(np.diff(a) <= 0):
            raise ValueError("abscissa must be finite and strictly increasing")
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of errors to a*exp(-b*x) in log space."""

    amplitude: float
    rate: float
    r_squared: float


def relative_errors(series: ConvergenceSeries) -> np.ndarray:
    """|value - reference| / |reference| for each resolution."""
    if series.reference == 0.0:
        raise ZeroReference("reference value is zero; relative error undefined")
    return np.abs(series.values - series.reference) / abs(series.reference)


@dataclass(frozen=True)
class WindowedFit:
    """Exponential fit restricted to the detected exponential regime.

    ``start``/``stop`` index the input arrays (half-open) and
    ``achieved_residual`` is the largest absolute log-space residual
    inside the window.
    """

    fit: ExponentialFit
    start: int
    stop: int
    achieved_residual: float


def _check_series(x: np.ndarray, e: np.ndarray) -> None:
    """Shape check, ValueError for a NaN or infinite abscissa, DegenerateFit for such an error."""
    if x.shape != e.shape or x.ndim != 1:
        raise ValueError(f"abscissa {x.shape} and errors {e.shape} must be equal-length 1-d")
    if not np.isfinite(x).all():
        raise ValueError(f"abscissa must be finite, got {x[~np.isfinite(x)][0]}")
    if not np.isfinite(e).all():
        raise DegenerateFit(f"errors must be finite, got {e[~np.isfinite(e)][0]}")


def fit_exponential(abscissa, errors) -> ExponentialFit:
    """Fit errors ~ a*exp(-b*x) by ordinary least squares on log(errors).

    Zero errors are clipped to 1e-300 before the log.  A NaN or infinite
    error, fewer than three positive-error points, or an all-equal error vector
    cannot pin the two parameters and raise DegenerateFit (abscissa: ValueError).
    """
    x = np.asarray(abscissa, dtype=float)
    e = np.asarray(errors, dtype=float)
    _check_series(x, e)
    if np.count_nonzero(e > 0.0) < 3:
        raise DegenerateFit(f"need at least 3 positive errors, got {np.count_nonzero(e > 0.0)}")
    y = np.log(np.clip(e, 1e-300, None))
    if np.allclose(y, y[0]):
        raise DegenerateFit("errors are constant; rate is undetermined")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot
    return ExponentialFit(amplitude=float(np.exp(intercept)), rate=float(-slope), r_squared=float(r2))


# fit_exponential_window's shortest window and its starting log-space tolerance
_MIN_WINDOW = 5
_MAX_LOG_RESIDUAL = 0.15


def fit_exponential_window(abscissa, errors) -> WindowedFit:
    """Rate of the longest stretch of the series that is actually exponential.

    Convergence series measured against a finite reference typically show
    a faster pre-asymptotic transient at small resolutions and bend again
    near the end, where the distance to the reference value eats into the
    measured error; a straight log-linear fit over all points then reports
    a rate biased by both ends.  This fit scans every contiguous window of
    at least 5 positive errors, keeps those whose log-errors a decaying
    line explains to within 0.15 at every point, and fits on the longest
    such window, preferring the right-most (the asymptotic regime).  If no
    window qualifies, the tolerance is doubled until one does, so a fit is
    always returned.  Series shorter than 5 points fall back to the plain
    full-range fit, and a NaN or infinite error raises DegenerateFit (abscissa: ValueError).

    Every window's line comes from prefix sums of x and log(errors) at
    once.  Length and stop identify a window, so its residual only decides
    whether it qualifies; the chosen window's ``achieved_residual`` comes
    from its own ``polyfit``.
    """
    x = np.asarray(abscissa, dtype=float)
    e = np.asarray(errors, dtype=float)
    _check_series(x, e)
    y = np.log(np.clip(e, 1e-300, None))
    if x.size < _MIN_WINDOW:
        fit = fit_exponential(x, e)
        resid = np.abs(y - (np.log(fit.amplitude) - fit.rate * x)).max()
        return WindowedFit(fit, 0, int(x.size), float(resid))
    # windows [start, stop) of at least _MIN_WINDOW points, all errors positive
    start, stop = np.triu_indices(x.size + 1, _MIN_WINDOW)
    zeros = np.concatenate(([0], np.cumsum(e <= 0.0)))
    keep = zeros[stop] == zeros[start]
    start, stop = start[keep], stop[keep]
    xc = x - x.mean()  # centred, so the sums below cancel less
    sums = np.zeros((5, x.size + 1))
    np.cumsum([np.ones_like(xc), xc, y, xc * xc, xc * y], axis=1, out=sums[:, 1:])
    s1, sx, sy, sxx, sxy = sums[:, stop] - sums[:, start]
    slope = (s1 * sxy - sx * sy) / (s1 * sxx - sx * sx)
    intercept = (sy - slope * sx) / s1
    pos = np.arange(x.size)
    inside = (pos >= start[:, None]) & (pos < stop[:, None])
    line = slope[:, None] * xc + intercept[:, None]
    resid = np.where(inside, np.abs(y - line), 0.0).max(axis=1)
    decaying = slope < 0.0
    if not decaying.any():
        raise DegenerateFit(f"no decaying window of {_MIN_WINDOW} or more points")
    tol = _MAX_LOG_RESIDUAL
    while tol < resid[decaying].min():
        tol *= 2.0
    best = np.flatnonzero(decaying & (resid <= tol))
    w = best[np.lexsort((stop[best], stop[best] - start[best]))[-1]]
    i, j = int(start[w]), int(stop[w])
    slope, intercept = np.polyfit(x[i:j], y[i:j], 1)
    resid = float(np.abs(y[i:j] - (slope * x[i:j] + intercept)).max())
    return WindowedFit(fit_exponential(x[i:j], e[i:j]), i, j, resid)
