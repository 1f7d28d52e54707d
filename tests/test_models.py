"""Model operators and closed-form ratios against independent oracles.

Matrix elements are checked against direct numerical quadrature of the
defining Fourier integrals; the Fock-space series is checked against a
plain-gamma direct summation (a different arithmetic route from the
log-space production code).
"""
import cmath
import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose
from scipy.integrate import quad

from zetavac.errors import GammaPole, OutOfFloatRange, SeriesDivergence
from zetavac.models import (
    FreeFieldParams,
    HydrogenParams,
    fock_zeta_ratio,
    freefield_zeta_ratio,
    hydrogen_element,
    hydrogen_matrix,
    log_gamma,
    position_element,
    position_matrix,
)
from zetavac.truncation import mode_list


def ramp_fourier(d, q=1.0):
    """(1/2pi) * integral of q*x*exp(i*d*x) over (0, pi), by quadrature."""
    re = quad(lambda x: q * x * math.cos(d * x), 0.0, math.pi, limit=200)[0]
    im = quad(lambda x: q * x * math.sin(d * x), 0.0, math.pi, limit=200)[0]
    return (re + 1j * im) / (2.0 * math.pi)


def position_fourier(d):
    """(1/2pi) * integral of x*exp(i*d*x) over (-pi, pi), by quadrature."""
    re = quad(lambda x: x * math.cos(d * x), -math.pi, math.pi, limit=200)[0]
    im = quad(lambda x: x * math.sin(d * x), -math.pi, math.pi, limit=200)[0]
    return (re + 1j * im) / (2.0 * math.pi)


class TestHydrogenElements:
    def test_diagonal_values(self):
        assert hydrogen_element(0, 0) == pytest.approx(math.pi / 4.0)
        assert hydrogen_element(1, 1) == pytest.approx(0.5 + math.pi / 4.0)
        p = HydrogenParams(m=2.0, q=0.5)
        assert hydrogen_element(-3, -3, p) == pytest.approx(2.25 + math.pi / 8.0)

    @pytest.mark.parametrize(
        "l,k", [(0, 1), (1, 0), (0, 2), (-3, 4), (5, 2), (10, -7), (40, 41)]
    )
    def test_offdiagonal_matches_quadrature(self, l, k):
        assert hydrogen_element(l, k) == pytest.approx(ramp_fourier(k - l), abs=1e-12)

    def test_offdiagonal_scales_with_coupling(self):
        p = HydrogenParams(m=1.0, q=2.5)
        assert hydrogen_element(0, 3, p) == pytest.approx(
            ramp_fourier(3, q=2.5), abs=1e-12
        )

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        pairs = [(l, k) for l in range(-6, 7) for k in range(-6, 7)]
        pairs += [tuple(rng.integers(-100, 101, size=2)) for _ in range(200)]
        for l, k in pairs:
            assert hydrogen_element(l, k) == pytest.approx(
                hydrogen_element(k, l).conjugate(), abs=1e-15
            )

    def test_offdiagonal_magnitude_bound(self):
        # |element| <= q*(2 + pi*|d|)/(2*pi*d^2) over all modes up to 100
        H = hydrogen_matrix(201)
        md = np.arange(201)
        md = np.where(md % 2 == 0, md // 2, -(md + 1) // 2)
        D = np.abs(md[None, :] - md[:, None]).astype(float)
        np.fill_diagonal(D, 1.0)
        bound = (2.0 + np.pi * D) / (2.0 * np.pi * D * D)
        off = np.abs(H.copy())
        np.fill_diagonal(off, 0.0)
        np.fill_diagonal(bound, 1.0)
        assert np.all(off <= bound + 1e-15)

    def test_matrix_matches_elements(self):
        H = hydrogen_matrix(16, HydrogenParams(m=1.5, q=0.7))
        md = [0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5, -6, 6, -7, 7, -8]
        want = np.array(
            [
                [hydrogen_element(l, k, HydrogenParams(m=1.5, q=0.7)) for k in md]
                for l in md
            ]
        )
        assert_allclose(H, want, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 64, 513, 1024])
    def test_matrices_match_dense_difference_formula_bitwise(self, n):
        # the builders copy sliding windows of a table over k - l; the
        # reference evaluates the same expressions on the full n x n
        # difference grid (odd n ends on an even column, n = 1 has no odd one)
        params = HydrogenParams(m=0.7, q=2.3)
        md = np.arange(n)
        md = np.where(md % 2 == 0, md // 2, -(md + 1) // 2)
        D = md[None, :] - md[:, None]
        sign = np.where(D % 2 == 0, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            H = params.q * (sign * (1.0 - 1j * np.pi * D) - 1.0) / (2.0 * np.pi * D * D)
            X = -1j * sign / D
        np.fill_diagonal(H, md * md / (2.0 * params.m) + params.q * np.pi / 4.0)
        np.fill_diagonal(X, 0.0)
        assert hydrogen_matrix(n, params).tobytes() == H.tobytes()
        assert position_matrix(n).tobytes() == X.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1050])
    def test_matrices_match_fancy_index_gather_bitwise(self, n):
        # the builders gather row blocks from sliding windows; the reference
        # indexes the same difference tables with the full n x n grid k - l
        params = HydrogenParams(m=0.7, q=2.3)
        md = mode_list(n)
        d = np.arange(-n, n + 1)
        sign = np.where(d % 2 == 0, 1.0, -1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_table = params.q * (sign * (1.0 - 1j * np.pi * d) - 1.0) / (2.0 * np.pi * d * d)
            x_table = -1j * sign / d
        H = h_table[n + md[None, :] - md[:, None]]
        X = x_table[n + md[None, :] - md[:, None]]
        np.fill_diagonal(H, md * md / (2.0 * params.m) + params.q * np.pi / 4.0)
        np.fill_diagonal(X, 0.0)
        assert hydrogen_matrix(n, params).tobytes() == H.tobytes()
        assert position_matrix(n).tobytes() == X.tobytes()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HydrogenParams(m=0.0)
        with pytest.raises(ValueError):
            HydrogenParams(q=-1.0)


class TestPositionElements:
    def test_examples(self):
        assert position_element(0, 0) == 0j
        assert position_element(0, 1) == pytest.approx(1j)
        assert position_element(0, 2) == pytest.approx(-0.5j)

    @pytest.mark.parametrize("l,k", [(0, 1), (2, -1), (-4, 3), (7, 6), (0, 12)])
    def test_matches_quadrature(self, l, k):
        assert position_element(l, k) == pytest.approx(
            position_fourier(k - l), abs=1e-12
        )

    def test_matrix_hermitian_and_matches_elements(self):
        X = position_matrix(25)
        assert_allclose(X, X.conj().T, atol=0)
        md = np.arange(25)
        md = np.where(md % 2 == 0, md // 2, -(md + 1) // 2)
        for i in (0, 3, 11, 24):
            for j in (1, 8, 17):
                assert X[i, j] == position_element(md[i], md[j])


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(4.0) == pytest.approx(math.log(6.0), abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_recurrence_on_grid(self):
        rng = np.random.default_rng(11)
        zs = rng.uniform(0.2, 4.0, 100) + 1j * rng.uniform(-3.0, 3.0, 100)
        for z in zs:
            lhs = cmath.exp(log_gamma(z + 1.0))
            rhs = z * cmath.exp(log_gamma(z))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_reflection_on_grid(self):
        rng = np.random.default_rng(13)
        zs = rng.uniform(0.05, 0.95, 100) + 1j * rng.uniform(-2.0, 2.0, 100)
        for z in zs:
            lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 1e-13j])
    def test_poles_raise(self, z):
        with pytest.raises(GammaPole):
            log_gamma(z)

    def test_negative_half_integer_is_fine(self):
        # Gamma(-2.5) = -8*sqrt(pi)/15
        got = cmath.exp(log_gamma(-2.5))
        assert got == pytest.approx(-8.0 * math.sqrt(math.pi) / 15.0, abs=1e-12)


class TestFreeFieldRatio:
    def test_spec_examples(self):
        r1 = freefield_zeta_ratio(FreeFieldParams(N=1, T=10.0))
        assert r1 == pytest.approx(-0.3j, abs=1e-13)
        r2 = freefield_zeta_ratio(FreeFieldParams(N=2, T=4.0, z=-1.0))
        assert r2 == pytest.approx(-1j, abs=1e-13)

    @pytest.mark.parametrize("T", [10.0, 1e4])
    def test_collapses_to_closed_form(self, T):
        # result * (iT) / N = z + 3 on a grid clear of the gamma poles
        for z in np.linspace(-2.9, 2.9, 25):
            for off in (0.0, 0.7j):
                r = freefield_zeta_ratio(FreeFieldParams(N=3, T=T, z=z + off))
                got = r * (1j * T) / 3.0
                assert abs(got - (z + off + 3.0)) <= 1e-12 * abs(z + off + 3.0)

    def test_pole_raises(self):
        with pytest.raises(GammaPole):
            freefield_zeta_ratio(FreeFieldParams(N=1, T=5.0, z=-3.0))

    @pytest.mark.parametrize("T", [1e-200, 1e300])
    def test_terms_out_of_float_range_raise(self, T):
        # (iT)^(-z-4) overflows near T = 0 and (iT)^(-z-3) underflows to 0
        # at huge T, though the ratio N(z+3)/(iT) itself is finite
        with pytest.raises(OutOfFloatRange):
            freefield_zeta_ratio(FreeFieldParams(N=1, T=T))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FreeFieldParams(N=0, T=1.0)
        with pytest.raises(ValueError):
            FreeFieldParams(N=1, T=0.0)


def fock_direct_sum(z, T, cutoff, v=4.0 * math.pi):
    """Direct plain-gamma summation of the sector series (test oracle)."""
    g = scipy.special.gamma
    num = den = 0j
    iT = 1j * T
    for N in range(1, cutoff + 1):
        c = v ** (N + z) * g(4.0) * g(3.0) ** N
        num += N ** (z + 1.0) * c / (g(z + 3.0) * iT ** (3 * N + 1))
        den += N ** (z + 0.0) * c / (g(z + 4.0) * iT ** (3 * N))
    return num / den


class TestFockRatio:
    @pytest.mark.parametrize("z", [0.0, 0.3 - 0.2j, -0.5 + 1.0j, -1.0])
    def test_matches_direct_summation(self, z):
        got = fock_zeta_ratio(z, 5.0, 30)
        want = fock_direct_sum(z, 5.0, 30)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_one_over_T_scaling(self):
        ratio = abs(fock_zeta_ratio(-1.0, 1e3, 40)) / abs(fock_zeta_ratio(-1.0, 1e4, 40))
        assert ratio == pytest.approx(10.0, rel=0.05)

    def test_vanishes_at_large_T_with_certificate(self):
        r, diag = fock_zeta_ratio(0.0, 1e6, 40, full_output=True)
        assert abs(r) <= 1e-5
        # at T=1e6 the tail terms underflow; the certificate is a true zero
        assert 0.0 <= diag["ratio_error_bound"] < abs(r)
        assert diag["tail_num"] >= 0.0 and diag["tail_den"] >= 0.0

    def test_divergent_series_raises(self):
        with pytest.raises(SeriesDivergence):
            fock_zeta_ratio(0.0, 2.0, 30)

    def test_tail_ratio_beyond_float_range_raises(self):
        # at T = 1e-120 the tail ratio is e^832: tested as a log, not exponentiated
        with pytest.raises(SeriesDivergence, match="tail ratio"):
            fock_zeta_ratio(0.0, 1e-120, 40)

    # Edge in T below which the call must raise: where the geometric tail
    # ratio at cutoff c reaches 1, T^3 = 8 pi ((c+1)/c)^max(Re z + 1, 0).
    # For Re z <= -1 the sector prefactor N^(Re z + 1) never grows and the
    # edge is T^3 = 8 pi.  For Re z > -1 the first sectors grow up to
    # T^3 = 8 pi 2^(Re z + 1); above that every term shrinks and the call
    # must return.  Between the two the denominator guard decides.
    EDGE_Z = [0.0, -0.5 + 0.5j, -1.0, -1.5, -1.5 + 1.0j, -2.5]

    @staticmethod
    def tail_edge(z, cutoff=30):
        w = max(complex(z).real + 1.0, 0.0)
        return (8.0 * math.pi * ((cutoff + 1.0) / cutoff) ** w) ** (1.0 / 3.0)

    @pytest.mark.parametrize("z", EDGE_Z)
    @pytest.mark.parametrize("side", [0.9, 0.999, 1.01, 1.1])
    def test_overflow_edge(self, z, side):
        if side < 1.0:
            with pytest.raises(SeriesDivergence, match="tail ratio"):
                fock_zeta_ratio(z, side * self.tail_edge(z), 30)
            return
        T_shrink = (8.0 * math.pi * 2.0 ** max(z.real + 1.0, 0.0)) ** (1.0 / 3.0)
        ratio, diag = fock_zeta_ratio(z, side * T_shrink, 30, full_output=True)
        assert cmath.isfinite(ratio)
        assert math.isfinite(diag["ratio_error_bound"]) and diag["ratio_error_bound"] >= 0.0

    @pytest.mark.parametrize("z", EDGE_Z)
    def test_raises_where_tail_ratio_reaches_one(self, z):
        with pytest.raises(SeriesDivergence):
            fock_zeta_ratio(z, (8.0 * math.pi) ** (1.0 / 3.0), 30)

    def test_zero_z_edge_is_the_ratio_test(self):
        # at z = 0 the only ratio test is the tail ratio at the cutoff: the
        # call raises just below T^3 = 8 pi (31/30) and returns at
        # T^3 = 1.728 * 8 pi, where the first sectors still grow
        with pytest.raises(SeriesDivergence, match="tail ratio at cutoff 30"):
            fock_zeta_ratio(0.0, 0.999 * self.tail_edge(0.0), 30)
        T = 1.2 * (8.0 * math.pi) ** (1.0 / 3.0)
        ratio, diag = fock_zeta_ratio(0.0, T, 30, full_output=True)
        assert cmath.isfinite(ratio) and math.isfinite(diag["ratio_error_bound"])

    @pytest.mark.parametrize("factor", [1.2, 1.5])
    def test_growing_first_sectors_within_bound_of_long_sum(self, factor):
        # T^3 = 1.728 * 8 pi, where the terms grow over the first sectors,
        # and 3.375 * 8 pi, where they do not: either way the cutoff-30
        # value lies within its certified bound of the cutoff-3000 sum
        T = factor * (8.0 * math.pi) ** (1.0 / 3.0)
        ratio, diag = fock_zeta_ratio(0.0, T, 30, full_output=True)
        long_sum = fock_zeta_ratio(0.0, T, 3000)
        assert abs(ratio - long_sum) <= diag["ratio_error_bound"]

    def test_non_finite_sum_raises(self):
        # the tail ratio is below 1, but every term overflows: v^(N + z)
        # outgrows T^(3N + 1)
        with pytest.raises(SeriesDivergence, match="not finite"):
            fock_zeta_ratio(10.0, 1e102, 30, v=1e300)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fock_zeta_ratio(0.0, 1e3, 9)
        with pytest.raises(ValueError):
            fock_zeta_ratio(0.0, -1.0, 20)
