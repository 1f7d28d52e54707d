"""Exponential-rate fitting on synthetic series with known parameters."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from zetavac.analysis import (
    ConvergenceSeries,
    ExponentialFit,
    WindowedFit,
    fit_exponential,
    fit_exponential_window,
    relative_errors,
)
from zetavac.errors import DegenerateFit, ZeroReference


class TestConvergenceSeries:
    def test_holds_data(self):
        s = ConvergenceSeries(np.array([1, 2, 4]), np.array([3.0, 2.5, 2.1]), 2.0)
        assert s.reference == 2.0

    def test_abscissa_must_increase(self):
        with pytest.raises(ValueError):
            ConvergenceSeries(np.array([1, 3, 2]), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            ConvergenceSeries(np.array([1, 1, 2]), np.zeros(3), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ConvergenceSeries(np.array([1, 2]), np.zeros(3), 1.0)


class TestRelativeErrors:
    def test_exact_values_give_zero(self):
        s = ConvergenceSeries(np.array([1, 2]), np.array([2.0, 2.0]), 2.0)
        assert_allclose(relative_errors(s), [0.0, 0.0], atol=0)

    def test_simple_arithmetic(self):
        s = ConvergenceSeries(np.array([1]), np.array([3.0]), 2.0)
        assert_allclose(relative_errors(s), [0.5], atol=0)

    def test_sign_of_reference_irrelevant(self):
        s = ConvergenceSeries(np.array([1, 2]), np.array([-3.0, -1.0]), -2.0)
        assert_allclose(relative_errors(s), [0.5, 0.5], atol=0)

    def test_zero_reference_raises(self):
        s = ConvergenceSeries(np.array([1]), np.array([1.0]), 0.0)
        with pytest.raises(ZeroReference):
            relative_errors(s)


class TestFitExponential:
    def test_recovers_exact_model(self):
        n = np.arange(1, 11, dtype=float)
        fit = fit_exponential(n, 2.0 * np.exp(-0.5 * n))
        assert fit.amplitude == pytest.approx(2.0, abs=1e-9)
        assert fit.rate == pytest.approx(0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_uniform_scaling_moves_amplitude_not_rate(self):
        n = np.arange(1, 9, dtype=float)
        e = 3.0 * np.exp(-0.2 * n) * (1.0 + 0.01 * np.sin(n))
        f1 = fit_exponential(n, e)
        f2 = fit_exponential(n, 40.0 * e)
        assert f2.rate == pytest.approx(f1.rate, rel=1e-12)
        assert f2.amplitude == pytest.approx(40.0 * f1.amplitude, rel=1e-12)

    def test_noisy_series_r_squared_below_one(self):
        rng = np.random.default_rng(5)
        n = np.arange(1, 30, dtype=float)
        e = np.exp(-0.3 * n) * np.exp(rng.normal(0, 0.2, n.size))
        fit = fit_exponential(n, e)
        assert 0.9 < fit.r_squared < 1.0
        assert fit.rate == pytest.approx(0.3, rel=0.15)

    def test_too_few_positive_errors(self):
        with pytest.raises(DegenerateFit):
            fit_exponential(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1e-3]))

    def test_constant_errors_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_exponential(np.arange(4.0), np.full(4, 2.5))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_exponential(np.arange(4.0), np.ones(3))

    def test_growing_series_gets_negative_rate(self):
        n = np.arange(1, 8, dtype=float)
        fit = fit_exponential(n, 0.1 * np.exp(0.7 * n))
        assert fit.rate == pytest.approx(-0.7, abs=1e-9)

    def test_result_type(self):
        n = np.arange(1, 6, dtype=float)
        fit = fit_exponential(n, np.exp(-n))
        assert isinstance(fit, ExponentialFit)


class TestFitExponentialWindow:
    def test_pure_exponential_uses_all_points(self):
        n = np.arange(1, 21, dtype=float)
        w = fit_exponential_window(n, 2.0 * np.exp(-0.5 * n))
        assert (w.start, w.stop) == (0, 20)
        assert w.fit.rate == pytest.approx(0.5, abs=1e-9)
        assert w.achieved_residual < 1e-9

    def test_skips_fast_transient_head(self):
        n = np.arange(0, 30, dtype=float)
        # decays at rate 1.0 for the first 10 points, then at 0.1
        e = np.where(n < 10, np.exp(-1.0 * n), np.exp(-10.0 - 0.1 * (n - 10.0)))
        w = fit_exponential_window(n, e)
        assert w.start >= 9
        assert w.stop == 30
        assert w.fit.rate == pytest.approx(0.1, rel=0.05)

    def test_skips_floor_tail(self):
        n = np.arange(0, 30, dtype=float)
        # exponential decay saturating at a measurement floor
        e = np.exp(-0.4 * n) + 2e-5
        w = fit_exponential_window(n, e)
        assert w.stop <= 27
        assert w.fit.rate == pytest.approx(0.4, rel=0.05)

    def test_short_series_falls_back_to_full_fit(self):
        n = np.arange(1.0, 5.0)
        w = fit_exponential_window(n, np.exp(-0.3 * n))
        assert (w.start, w.stop) == (0, 4)
        assert w.fit.rate == pytest.approx(0.3, abs=1e-9)

    def test_short_degenerate_series_raises(self):
        with pytest.raises(DegenerateFit):
            fit_exponential_window(np.array([1.0, 2.0]), np.array([1.0, 0.5]))

    def test_growing_series_raises(self):
        n = np.arange(1, 11, dtype=float)
        with pytest.raises(DegenerateFit):
            fit_exponential_window(n, np.exp(0.7 * n))

    def test_tolerance_relaxes_until_a_window_qualifies(self):
        rng = np.random.default_rng(11)
        n = np.arange(1, 13, dtype=float)
        e = np.exp(-0.5 * n) * np.exp(rng.normal(0, 0.8, n.size))
        w = fit_exponential_window(n, e)
        assert isinstance(w, WindowedFit)
        assert w.stop - w.start >= 5


@pytest.mark.parametrize(
    "fit, x, e",
    [
        (fit_exponential_window, np.arange(1.0, 9.0), np.full(8, np.nan)),
        (fit_exponential_window, np.arange(1.0, 5.0), [1.0, np.nan, 0.1, 0.01]),
        (fit_exponential_window, np.arange(1.0, 5.0), [1.0, np.inf, 0.1, 0.01]),
        (fit_exponential_window, np.arange(1.0, 13.0), np.r_[np.exp(-np.arange(1.0, 12.0)), np.inf]),
        (fit_exponential, np.arange(1.0, 6.0), [1.0, 0.5, np.nan, 0.1, 0.05]),
        (fit_exponential, np.arange(1.0, 6.0), [1.0, 0.5, -np.inf, 0.1, 0.05]),
    ],
    ids=["window-all-nan", "window-short-nan", "window-short-inf", "window-long-inf", "fit-nan", "fit-minus-inf"],
)
def test_non_finite_errors_raise(fit, x, e):
    with pytest.raises(DegenerateFit, match="finite"):
        fit(x, e)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda x, e: ConvergenceSeries(x, e, 1.0),
        fit_exponential,
        fit_exponential_window,
    ],
    ids=["series", "fit", "window"],
)
def test_non_finite_abscissa_raise(entry, bad):
    # np.diff(x) <= 0 is False next to a NaN, and a NaN abscissa turned the
    # window fit's prefix sums into NaN: "no decaying window", not the cause
    x = np.arange(1.0, 10.0)
    x[3] = bad
    with pytest.raises(ValueError, match="abscissa must be finite"):
        entry(x, np.exp(-x / 2.0))


def _window_by_polyfit_loop(x, e):
    """Window, rate and residual of one ``polyfit`` per candidate window."""
    y = np.log(np.clip(e, 1e-300, None))
    candidates = []
    for i in range(x.size - 4):
        for j in range(i + 5, x.size + 1):
            if np.any(e[i:j] <= 0.0):
                continue
            slope, intercept = np.polyfit(x[i:j], y[i:j], 1)
            if slope < 0.0:
                resid = float(np.abs(y[i:j] - (slope * x[i:j] + intercept)).max())
                candidates.append((j - i, j, -resid, i))
    tol = 0.15
    while not any(-c[2] <= tol for c in candidates):
        tol *= 2.0
    _, j, neg_resid, i = max(c for c in candidates if -c[2] <= tol)
    return i, j, fit_exponential(x[i:j], e[i:j]).rate, -neg_resid


def _sweep_errors(hydrogen_vacuum, sizes, n_ref):
    energies = [hydrogen_vacuum(n).energy for n in sizes]
    series = ConvergenceSeries(np.array(sizes), np.array(energies), hydrogen_vacuum(n_ref).energy)
    return relative_errors(series)


@pytest.mark.parametrize("case", ["sweep", "qubits", "zero-errors", "tolerance-doubling"])
def test_window_scan_matches_polyfit_loop(case, hydrogen_vacuum):
    if case == "sweep":  # hydrogen-convergence defaults
        x = np.arange(50.0, 1001.0, 50.0)
        e = _sweep_errors(hydrogen_vacuum, list(range(50, 1001, 50)), 1050)
    elif case == "qubits":  # hydrogen-convergence mode=qubits
        x = np.arange(1.0, 12.0)
        e = _sweep_errors(hydrogen_vacuum, [1 << q for q in range(1, 12)], 4096)
    elif case == "zero-errors":
        x = np.arange(1.0, 25.0)
        e = np.exp(-0.3 * x) * (1.0 + 0.1 * np.sin(x))
        e[[6, 15]] = 0.0
    else:
        x = np.arange(1.0, 13.0)
        e = np.exp(-0.5 * x) * np.exp(np.random.default_rng(11).normal(0, 0.8, x.size))
    i, j, rate, resid = _window_by_polyfit_loop(x, e)
    if case == "tolerance-doubling":
        assert resid > 0.15
    w = fit_exponential_window(x, e)
    assert (w.start, w.stop) == (i, j)
    assert w.fit.rate == rate and w.achieved_residual == resid
