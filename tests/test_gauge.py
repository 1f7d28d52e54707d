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

from zetavac import gauge
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
from zetavac.models import hydrogen_element, hydrogen_matrix, position_element, position_matrix
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
        for H, A in ((_hpd(7, 4), _hpd(7, 5)), (hydrogen_matrix(64), position_matrix(64))):
            system = eig_hermitian(H)
            psi = system.vectors[:, 0]
            for z in (0.7, -1.3):
                G = scipy.linalg.fractional_matrix_power(H, z)
                want = np.vdot(psi, G @ A @ psi) / np.vdot(psi, G @ psi)
                got = gauge_ratio(H, A, z, system=system).ratio
                assert got == pytest.approx(want, rel=1e-10)

    def test_matches_expm_logm_oracle_complex_z(self):
        for H, A in ((_hpd(6, 6), _hpd(6, 7)), (hydrogen_matrix(64), position_matrix(64))):
            system = eig_hermitian(H)
            psi = system.vectors[:, 0]
            z = 0.4 - 0.8j
            G = scipy.linalg.expm(z * scipy.linalg.logm(H))
            want = np.vdot(psi, G @ A @ psi) / np.vdot(psi, G @ psi)
            got = gauge_ratio(H, A, z, system=system).ratio
            assert got == pytest.approx(want, rel=1e-10)

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
        # lambda_0 = e, z = -30 puts the denominator at e^-30, below the 1e-10 floor
        H = np.diag([math.e, 7.0]).astype(complex)
        with pytest.raises(DenominatorNearZero):
            gauge_ratio(H, np.eye(2), -30.0)

    def test_amplified_rounding_raises(self):
        # at n = 64, lambda^5 lifts the rounding in V^dagger psi to a 2e-2
        # relative error in the ratio: raise instead of returning it
        with pytest.raises(SingularFunctionValue, match=r"z = \(5\+0j\)"):
            gauge_ratio(hydrogen_matrix(64), position_matrix(64), 5.0)

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_large_re_z_raises_or_matches_expectation(self, n):
        # at n = 1024, Re z = 1 is within 7.7e-15 (H) and 5.9e-13 (x) of
        # <psi, A psi>, so the guard must let it through
        H, X = hydrogen_matrix(n), position_matrix(n)
        system = eig_hermitian(H)
        psi = system.vectors[:, 0]
        admitted_re_z = 1.0 if n >= 1024 else 0.5
        for A in (H, X):
            direct = np.vdot(psi, A @ psi)
            for z in (np.arange(0.0, 6.01, 0.5)[:, None] + [0.0, 0.5j]).ravel():
                try:
                    ratio = gauge_ratio(H, A, z, system=system).ratio
                except SingularFunctionValue:
                    assert z.real > admitted_re_z, f"raised at z = {z}"
                    continue
                assert abs(ratio - direct) <= 1e-9 * abs(direct), f"z = {z}"

    def test_zero_expectation_observable_passes_guard(self):
        # <psi, i[H, x] psi> = 0 for an eigenvector psi: the numerator's
        # rounding is weighed against ||A psi||, not against its vanishing
        # leading term, so small z does not raise
        H, X = hydrogen_matrix(64), position_matrix(64)
        A = 1j * (H @ X - X @ H)
        system = eig_hermitian(H)
        scale = np.linalg.norm(A @ system.vectors[:, 0])
        for z in (0.0, 0.5, 1.0 + 0.5j):
            assert abs(gauge_ratio(H, A, z, system=system).ratio) <= 1e-9 * scale

    def test_nonpositive_spectrum_raises(self):
        H = np.diag([-1.0, 2.0]).astype(complex)
        with pytest.raises(NonPositiveSpectrum):
            gauge_ratio(H, np.eye(2), 0.0)
        # every gauge quantity takes lambda^z through the same spectral sum
        with pytest.raises(NonPositiveSpectrum):
            denominator_zero_scan(H, ZGrid(points=[0.0]))
        with pytest.raises(NonPositiveSpectrum):
            damped_trace_ratio(H, np.eye(2), 0.0, 1.0, eps=0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gauge_ratio(_hpd(4, 8), np.eye(3), 0.0)


# The README's table of where the rounding guard first raises on hydrogen:
# n -> Re z for A = x and A = H on the half-step grid Re z = 0..6, Im z in
# {0, 0.5} (None: never), and for denominator_zero_scan stepping Re z by 0.5
_FIRST_RAISE = {
    8: (5.5, None, 15.0),
    16: (4.0, None, 11.0),
    64: (2.5, None, 7.0),
    128: (2.5, 5.0, 6.0),
    512: (2.0, 3.5, 4.5),
}


def _first_raise(evaluate, points):
    """Re z of the first point where ``evaluate`` raises SingularFunctionValue, else None."""
    for z in points:
        try:
            evaluate(z)
        except SingularFunctionValue:
            return z.real
    return None


@pytest.mark.parametrize("n", sorted(_FIRST_RAISE))
def test_guard_first_raise_table(n):
    H, X = hydrogen_matrix(n), position_matrix(n)
    system = eig_hermitian(H)
    grid = (np.arange(0.0, 6.01, 0.5)[:, None] + [0.0, 0.5j]).ravel()
    got = (
        _first_raise(lambda z: gauge_ratio(H, X, z, system=system), grid),
        _first_raise(lambda z: gauge_ratio(H, H, z, system=system), grid),
        _first_raise(
            lambda z: denominator_zero_scan(H, ZGrid(points=[z]), system=system),
            np.arange(0.0, 20.01, 0.5) + 0j,
        ),
    )
    assert got == _FIRST_RAISE[n]


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda H, system: gauge_ratio(H, position_matrix(8), 0.3, system=system),
        lambda H, system: damped_trace_ratio(H, position_matrix(8), 0.3, 10.0, 0.1, system=system),
        lambda H, system: denominator_zero_scan(H, ZGrid(points=[0.3]), system=system),
    ],
    ids=["gauge_ratio", "damped_trace_ratio", "denominator_zero_scan"],
)
def test_system_must_match_hamiltonian_shape(evaluate):
    # a precomputed eigensystem stands in for H only when H has its size;
    # any other H, or none, is a caller error, not a value
    system = eig_hermitian(hydrogen_matrix(8))
    evaluate(hydrogen_matrix(8), system)
    for H in (hydrogen_matrix(16), "not a matrix", None):
        with pytest.raises(DimensionMismatch):
            evaluate(H, system)


def _collapsing_at_three(n):
    """Diagonal H whose smallest eigenvalue is 1e-13 at n = 3 only, so z = 1
    collapses there and keeps its ratio and denominator at n = 2 and 4."""
    return np.diag(np.r_[1e-13 if n == 3 else 0.5, np.arange(1.0, n)])


# 49 seeded points in [-0.5, 0.5]^2, the square of the CLI's default z grid
_SEEDED_Z = np.random.default_rng(7).uniform(-0.5, 0.5, (49, 2)) @ [1.0, 1j]


class TestRatioConvergenceScan:
    def test_shapes_and_z_constancy(self):
        grid = ZGrid(points=np.array([-0.4, 0.0, 0.4]) + 1j * np.array([0.1, 0.0, -0.1]))
        out = ratio_convergence_scan(hydrogen_matrix, position_matrix, grid, [4, 8, 16])
        assert out["ratios"].shape == (3, 3)
        assert out["residuals"].shape == (2, 3)
        assert not out["excluded"].any()
        # each row constant across z (eigenvector cancellation)
        for row in out["ratios"]:
            assert np.max(np.abs(row - row[0])) < 1e-10

    def test_residuals_are_consecutive_differences(self):
        grid = ZGrid(points=[0.0])
        out = ratio_convergence_scan(hydrogen_matrix, hydrogen_matrix, grid, [4, 8, 16])
        r = out["ratios"][:, 0]
        assert_allclose(out["residuals"][:, 0], np.abs(np.diff(r)), atol=0)

    def test_excluded_points_masked(self):
        # the eigenvectors of a diagonal H are exact, so <psi, H^1 psi> is
        # the smallest eigenvalue 1e-13: the denominator collapses at z = 1
        # while z = 0 gives |psi|^2 = 1
        def build_h(n):
            return np.diag(np.r_[1e-13, np.arange(1.0, n)])

        grid = ZGrid(points=[0.0, 1.0])
        out = ratio_convergence_scan(build_h, np.eye, grid, [2, 3, 4])
        assert out["excluded"].tolist() == [False, True]
        assert np.isnan(out["ratios"][:, 1]).all()
        assert np.isfinite(out["ratios"][:, 0]).all()

    def test_collapse_masks_only_its_size(self):
        grid = ZGrid(points=[0.0, 1.0])
        out = ratio_convergence_scan(_collapsing_at_three, np.eye, grid, [2, 3, 4])
        assert out["excluded"].tolist() == [False, True]
        assert_allclose(out["ratios"][[0, 2]], 1.0, atol=1e-15)
        assert_allclose(out["denominators"][[0, 2], 1], 0.5, atol=1e-15)
        assert np.isnan(out["ratios"][1, 1]) and np.isnan(out["denominators"][1, 1])
        assert out["ratios"][1, 0] == pytest.approx(1.0, abs=1e-15)
        assert np.isnan(out["residuals"][:, 1]).all()
        assert_allclose(out["expectations"], 1.0, atol=1e-15)

    def test_one_spectral_pass_per_size(self, monkeypatch):
        # each size is one eigensolve and one _ground_sums over the whole
        # grid; the one-point gauge_ratio is not on the scan's path
        calls = {"eig_hermitian": [], "_ground_sums": [], "gauge_ratio": []}
        for name in calls:
            original = getattr(gauge, name)

            def counted(*args, _original=original, _seen=calls[name], **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(gauge, name, counted)
        grid = ZGrid(points=(np.linspace(-0.5, 0.5, 3)[:, None] + 1j * np.linspace(-0.5, 0.5, 3)).ravel())
        ratio_convergence_scan(hydrogen_matrix, position_matrix, grid, [4, 8, 16])
        assert [args[0].shape for args in calls["eig_hermitian"]] == [(4, 4), (8, 8), (16, 16)]
        assert [np.shape(args[1]) for args in calls["_ground_sums"]] == [(9,)] * 3
        assert calls["gauge_ratio"] == []

    @pytest.mark.parametrize(
        "build_h, build_a, points, sizes",
        [
            (hydrogen_matrix, hydrogen_matrix, _SEEDED_Z, [8, 16, 32, 64, 128, 256, 512]),
            (hydrogen_matrix, position_matrix, _SEEDED_Z, [8, 16, 32, 64, 128, 256, 512]),
            (_collapsing_at_three, np.eye, [0.0, 1.0], [2, 3, 4]),
        ],
        ids=["hamiltonian", "position", "diagonal"],
    )
    def test_agrees_with_gauge_ratio_point_by_point(self, build_h, build_a, points, sizes):
        grid = ZGrid(points=points)
        out = ratio_convergence_scan(build_h, build_a, grid, sizes)
        for i, n in enumerate(sizes):
            H, A = build_h(n), build_a(n)
            system = eig_hermitian(H)
            for j, z in enumerate(grid.points):
                try:
                    s = gauge_ratio(H, A, z, system=system)
                except DenominatorNearZero:
                    assert np.isnan(out["ratios"][i, j]) and np.isnan(out["denominators"][i, j])
                    continue
                assert abs(out["ratios"][i, j] - s.ratio) <= 4e-15 * abs(s.ratio), (n, z)
                assert abs(out["denominators"][i, j] - s.denominator) <= 4e-15 * abs(s.denominator)

    def test_needs_one_or_more_increasing_sizes(self):
        grid = ZGrid(points=[0.0])
        for sizes in ([], [4, 8, 8], [8, 4]):
            with pytest.raises(ValueError):
                ratio_convergence_scan(hydrogen_matrix, hydrogen_matrix, grid, sizes)
        out = ratio_convergence_scan(hydrogen_matrix, hydrogen_matrix, grid, [8])
        assert out["ratios"].shape == (1, 1)
        assert out["residuals"].shape == (0, 1)


class TestDampedTraceRatio:
    def test_two_level_closed_form(self):
        H = np.diag([1.0, 2.0]).astype(complex)
        A = np.diag([10.0, 20.0]).astype(complex)
        for T in (0.0, 7.0, 200.0):
            got = damped_trace_ratio(H, A, 0.0, T, eps=0.1)
            assert type(got) is complex
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

    def test_denominator_zero_names_first_time(self):
        # tr(exp(-iTH)) = exp(-iT)(1 + exp(-iT)) vanishes at T = pi
        H = np.diag([1.0, 2.0]).astype(complex)
        with pytest.raises(DenominatorNearZero, match=f"at T = {np.pi}$"):
            damped_trace_ratio(H, H, 0.0, np.pi, eps=0.0)

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

    def test_amplified_rounding_raises(self):
        # the true |den| = lambda_0^20 = 9.5e-14 is a zero by the 1e-10
        # rule, but the computed sum is amplified rounding (9e29)
        with pytest.raises(SingularFunctionValue, match=r"z = \(20\+0j\)"):
            denominator_zero_scan(hydrogen_matrix(64), ZGrid(points=[0.0, 20.0]))

    def test_exact_ground_state_never_trips_rounding_guard(self):
        # c = e_0 exactly: its zero terms must not count, even where
        # (lambda_1 / lambda_0)^100 = 2000^100 overflows
        H = np.diag([1e-3, 2.0]).astype(complex)
        assert denominator_zero_scan(H, ZGrid(points=[100.0])).tolist() == [100.0]

    def test_agrees_with_gauge_ratio_at_the_floor(self):
        # |den| = (5e-11)^Re z: 5.3e-10 at z = 0.9, 5e-11 at z = 1; on this
        # grid the scan reports exactly the point where gauge_ratio refuses to divide
        H = np.diag([5e-11, 1.0, 2.0])
        grid = ZGrid(points=[0.9, 1.0])
        assert denominator_zero_scan(H, grid).tolist() == [1.0]
        assert gauge_ratio(H, np.eye(3), 0.9).ratio == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DenominatorNearZero):
            gauge_ratio(H, np.eye(3), 1.0)

    def test_hydrogen_grid_is_clean(self):
        re = np.linspace(-3.0, 1.0, 41)
        im = np.linspace(-2.0, 2.0, 41)
        pts = (re[:, None] + 1j * im[None, :]).ravel()
        zeros = denominator_zero_scan(hydrogen_matrix(16), ZGrid(points=pts))
        assert zeros.size == 0
