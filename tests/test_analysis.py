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
