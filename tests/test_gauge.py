"""Gauge-ratio machinery against independent matrix-function oracles.

The fractional powers H^z are cross-checked through scipy.linalg
(fractional_matrix_power and expm/logm), a different route from the
eigendecomposition-based production code.  The damped trace ratio is
checked against its two-level closed form.
"""
import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from zetavac.errors import (
    DenominatorNearZero,
    DimensionMismatch,
    NonPositiveSpectrum,
    SingularFunctionValue,
)
from zetavac.gauge import (
    ZetaRatioSample,
    ZGrid,
    damped_trace_ratio,
    denominator_zero_scan,
    gauge_ratio,
    ratio_convergence_scan,
)
from zetavac.models import hydrogen_element, hydrogen_matrix, position_element
from zetavac.spectral import eig_hermitian
from zetavac.truncation import project_operator


def _hpd(n, seed):
    """Random Hermitian positive-definite matrix with spectrum in (0.5, ~n)."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return B @ B.conj().T / n + 0.5 * np.eye(n)


class TestZetaRatioSample:
    def test_consistent_sample(self):
        s = ZetaRatioSample(z=0j, numerator=6.0 + 0j, denominator=2.0 + 0j, ratio=3.0 + 0j)
        assert s.ratio == 3.0 + 0j

    def test_inconsistent_sample_rejected(self):
        with pytest.raises(ValueError):
            ZetaRatioSample(z=0j, numerator=6.0 + 0j, denominator=2.0 + 0j, ratio=1.0 + 0j)


class TestZGrid:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            ZGrid(points=[0.1, 0.1])

    def test_admissible_mask(self):
        g = ZGrid(points=[0.0, 1.0, 2.0], exclusion_radius=0.25, zeros=(1.1,))
        assert g.admissible().tolist() == [True, False, True]

    def test_no_zeros_all_admissible(self):
        g = ZGrid(points=np.linspace(-1, 1, 7))
        assert g.admissible().all()


class TestGaugeRatio:
    def test_identity_observable_gives_one(self):
        H = _hpd(6, 1)
        for z in (0.0, 0.3, -0.4 + 0.2j):
            s = gauge_ratio(H, np.eye(6), z)
            assert s.ratio == pytest.approx(1.0, abs=1e-12)

    def test_denominator_is_one_at_z_zero(self):
        for seed in (2, 3):
            H = _hpd(5, seed)
            s = gauge_ratio(H, _hpd(5, seed + 10), 0.0)
            assert s.denominator == pytest.approx(1.0, abs=1e-12)

    def test_matches_fractional_power_oracle(self):
        # real z: scipy's fractional matrix power is an independent route
        H = _hpd(7, 4)
        A = _hpd(7, 5)
        system = eig_hermitian(H)
        psi = system.vectors[:, 0]
        for z in (0.7, -1.3):
            G = scipy.linalg.fractional_matrix_power(H, z)
            want = np.vdot(psi, G @ A @ psi) / np.vdot(psi, G @ psi)
            got = gauge_ratio(H, A, z, system=system).ratio
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_expm_logm_oracle_complex_z(self):
        H = _hpd(6, 6)
        A = _hpd(6, 7)
        system = eig_hermitian(H)
        psi = system.vectors[:, 0]
        z = 0.4 - 0.8j
        G = scipy.linalg.expm(z * scipy.linalg.logm(H))
        want = np.vdot(psi, G @ A @ psi) / np.vdot(psi, G @ psi)
        assert gauge_ratio(H, A, z, system=system).ratio == pytest.approx(want, rel=1e-10)

    def test_ratio_independent_of_z(self):
        # psi is an eigenvector of H, so H^z acts on it as a scalar that
        # cancels between numerator and denominator
        H = project_operator(hydrogen_element, 8)
        A = project_operator(position_element, 8)
        system = eig_hermitian(H)
        base = gauge_ratio(H, A, 0.0, system=system).ratio
        for z in (1.5, -2.0, 0.3 + 1.1j, -0.7 - 0.4j):
            assert gauge_ratio(H, A, z, system=system).ratio == pytest.approx(
                base, abs=1e-10
            )

    def test_cauchy_circle_mean_returns_center(self):
        # discrete Cauchy integral over a small circle reproduces the
        # center value for a holomorphic function of z
        H = project_operator(hydrogen_element, 8)
        A = project_operator(position_element, 8)
        system = eig_hermitian(H)
        z0 = 0.2 + 0.1j
        angles = 2.0 * np.pi * np.arange(32) / 32
        vals = [
            gauge_ratio(H, A, z0 + 0.1 * cmath.exp(1j * t), system=system).ratio
            for t in angles
        ]
        center = gauge_ratio(H, A, z0, system=system).ratio
        assert np.mean(vals) == pytest.approx(center, abs=1e-6)

    def test_near_zero_denominator_raises(self):
        # lambda_0 = e, z = -30 puts the denominator at e^-30 < 1e-12
        H = np.diag([math.e, 7.0]).astype(complex)
        with pytest.raises(DenominatorNearZero):
            gauge_ratio(H, np.eye(2), -30.0)

    def test_nonpositive_spectrum_raises(self):
        H = np.diag([-1.0, 2.0]).astype(complex)
        with pytest.raises(NonPositiveSpectrum):
            gauge_ratio(H, np.eye(2), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gauge_ratio(_hpd(4, 8), np.eye(3), 0.0)


class TestRatioConvergenceScan:
    def test_shapes_and_z_constancy(self):
        grid = ZGrid(points=np.array([-0.4, 0.0, 0.4]) + 1j * np.array([0.1, 0.0, -0.1]))
        out = ratio_convergence_scan(
            hydrogen_element, position_element, grid, [4, 8, 16]
        )
        assert out["ratios"].shape == (3, 3)
        assert out["residuals"].shape == (2, 3)
        assert not out["excluded"].any()
        # each row constant across z (eigenvector cancellation)
        for row in out["ratios"]:
            assert np.max(np.abs(row - row[0])) < 1e-10

    def test_residuals_are_consecutive_differences(self):
        grid = ZGrid(points=[0.0])
        out = ratio_convergence_scan(hydrogen_element, hydrogen_element, grid, [4, 8, 16])
        r = out["ratios"][:, 0]
        assert_allclose(out["residuals"][:, 0], np.abs(np.diff(r)), atol=0)

    def test_builder_path_matches_element_path(self):
        grid = ZGrid(points=[0.1, -0.2])
        a = ratio_convergence_scan(hydrogen_element, position_element, grid, [4, 8, 12])
        b = ratio_convergence_scan(
            hydrogen_element,
            position_element,
            grid,
            [4, 8, 12],
            builder_h=hydrogen_matrix,
        )
        assert_allclose(a["ratios"], b["ratios"], atol=1e-12)

    def test_excluded_points_masked(self):
        grid = ZGrid(points=[0.0, 1.0], exclusion_radius=0.5, zeros=(1.2,))
        out = ratio_convergence_scan(hydrogen_element, hydrogen_element, grid, [4, 8, 16])
        assert out["excluded"].tolist() == [False, True]
        assert np.isnan(out["ratios"][:, 1]).all()
        assert np.isfinite(out["ratios"][:, 0]).all()

    def test_needs_three_increasing_sizes(self):
        grid = ZGrid(points=[0.0])
        with pytest.raises(ValueError):
            ratio_convergence_scan(hydrogen_element, hydrogen_element, grid, [4, 8])
        with pytest.raises(ValueError):
            ratio_convergence_scan(hydrogen_element, hydrogen_element, grid, [4, 8, 8])


class TestDampedTraceRatio:
    def test_two_level_closed_form(self):
        H = np.diag([1.0, 2.0]).astype(complex)
        A = np.diag([10.0, 20.0]).astype(complex)
        for T in (0.0, 7.0, 200.0):
            got = damped_trace_ratio(H, A, 0.0, T, eps=0.1)
            damp = cmath.exp(-0.1 * T) * cmath.exp(-1j * T)
            want = (10.0 + 20.0 * damp) / (1.0 + damp)
            assert got == pytest.approx(want, abs=1e-12)

    def test_two_level_spec_point(self):
        H = np.diag([1.0, 2.0]).astype(complex)
        A = np.diag([10.0, 20.0]).astype(complex)
        assert damped_trace_ratio(H, A, 0.0, 200.0, eps=0.1) == pytest.approx(
            10.0, abs=1e-6
        )

    def test_hydrogen_approaches_ground_energy(self):
        H = hydrogen_matrix(4)
        got = damped_trace_ratio(H, H, 0.0, 2000.0, eps=0.05)
        assert got == pytest.approx(0.229395425745, abs=1e-6)

    def test_zero_time_is_plain_trace_ratio(self):
        H = _hpd(5, 9)
        A = _hpd(5, 10)
        z = 0.3
        G = scipy.linalg.fractional_matrix_power(H, z)
        want = np.trace(G @ A) / np.trace(G)
        assert damped_trace_ratio(H, A, z, 0.0, eps=0.2) == pytest.approx(
            complex(want), rel=1e-10
        )

    def test_huge_damping_stays_finite(self):
        # the shared ground-state factor cancels instead of underflowing
        H = hydrogen_matrix(4)
        got = damped_trace_ratio(H, H, 0.0, 4.0e5, eps=0.1)
        assert got == pytest.approx(0.229395425745, abs=1e-9)

    def test_negative_eps_rejected(self):
        H = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(ValueError):
            damped_trace_ratio(H, H, 0.0, 1.0, eps=-0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            damped_trace_ratio(_hpd(4, 11), np.eye(5), 0.0, 1.0, eps=0.1)


class TestDenominatorZeroScan:
    def test_positive_definite_clean_at_origin(self):
        zeros = denominator_zero_scan(_hpd(6, 12), ZGrid(points=[0.0]))
        assert zeros.size == 0

    def test_unit_spectrum_never_vanishes(self):
        H = np.eye(2).astype(complex)
        grid = ZGrid(points=np.linspace(-20, 20, 41) + 0.5j)
        assert denominator_zero_scan(H, grid).size == 0

    def test_underflow_zeros_located(self):
        # lambda_0 = 1e-3: |den| = e^{-6.9 Re z} drops below 1e-10 past z ~ 3.33
        H = np.diag([1e-3, 2.0]).astype(complex)
        grid = ZGrid(points=[1.0, 2.0, 3.0, 4.0, 5.0])
        zeros = denominator_zero_scan(H, grid)
        assert zeros.tolist() == [4.0, 5.0]

    def test_non_finite_denominator_raises(self):
        # lambda_max^120 overflows at n = 64: the scan must not read the
        # resulting inf/NaN denominator as "no zero"
        grid = ZGrid(points=[0.0, 120.0])
        with pytest.raises(SingularFunctionValue, match="120"):
            denominator_zero_scan(hydrogen_matrix(64), grid)

    def test_hydrogen_grid_is_clean(self):
        re = np.linspace(-3.0, 1.0, 41)
        im = np.linspace(-2.0, 2.0, 41)
        pts = (re[:, None] + 1j * im[None, :]).ravel()
        zeros = denominator_zero_scan(hydrogen_matrix(16), ZGrid(points=pts))
        assert zeros.size == 0
