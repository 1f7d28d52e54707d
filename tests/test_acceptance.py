"""End-to-end acceptance run: one test per headline claim.

Each test prints a ``[criterion N] PASS``/``FAIL`` line on the real
stderr stream so the verdicts stay visible in piped output.
"""
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from zetavac.analysis import ConvergenceSeries, fit_exponential_window, relative_errors
from zetavac.gauge import ZGrid, damped_trace_ratio, gauge_ratio, ratio_convergence_scan
from zetavac.models import (
    FreeFieldParams,
    HydrogenParams,
    fock_zeta_ratio,
    freefield_zeta_ratio,
    hydrogen_matrix,
    position_matrix,
)
from zetavac.pauli import decompose, reconstruct
from zetavac.spectral import eig_hermitian
from zetavac.truncation import (
    SobolevWeight,
    index_of_mode,
    mode_list,
    schatten_convergence_probe,
    strong_convergence_probe,
    vacuum_state,
)
from zetavac.vqe import OptimizerConfig, warm_started_chain

PARAMS = HydrogenParams()

EXPECTED_GROUND_ENERGIES = {
    1: 0.392108816647,
    2: 0.229395425745,
    3: 0.224258841712,
    4: 0.223452200306,
    5: 0.223336689755,
}


@pytest.fixture
def criterion(capsys):
    """Context manager printing a ``[criterion N] PASS``/``FAIL`` verdict.

    ``capsys.disabled()`` suspends pytest's file-descriptor capture, so the
    verdict lines reach the real stderr even without ``-s``.
    """

    @contextmanager
    def tagged(tag):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {tag}] FAIL", file=sys.stderr, flush=True)
            raise
        with capsys.disabled():
            print(f"[criterion {tag}] PASS", file=sys.stderr, flush=True)

    return tagged


@pytest.fixture(scope="module")
def vacuum_2048():
    return vacuum_state(hydrogen_matrix(2048, PARAMS))


def test_criterion_1_ground_energies_exact(criterion):
    with criterion(1):
        start = time.perf_counter()
        for Q, expected in EXPECTED_GROUND_ENERGIES.items():
            energy = vacuum_state(hydrogen_matrix(1 << Q, PARAMS)).energy
            assert abs(energy - expected) <= 1e-9, f"Q={Q}: {energy} vs {expected}"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_ground_energies_vqe(criterion):
    with criterion(2):
        start = time.perf_counter()
        coeff_list, exact = [], []
        for Q in range(1, 6):
            H = hydrogen_matrix(1 << Q, PARAMS)
            coeff_list.append(decompose(H))
            exact.append(float(eig_hermitian(H).eigenvalues[0]))
        results = warm_started_chain(coeff_list, layers=8, cfg=OptimizerConfig(), restarts=5)
        for Q, res, e0 in zip(range(1, 6), results, exact):
            assert abs(res.energy - e0) <= 1e-6, f"Q={Q}: deviation {res.energy - e0:.3e}"
        assert time.perf_counter() - start < 300.0


def test_criterion_3_dimension_sweep_rate(criterion):
    with criterion(3):
        dims = np.arange(50, 1001, 50)
        energies = [vacuum_state(hydrogen_matrix(int(n), PARAMS)).energy for n in dims]
        reference = vacuum_state(hydrogen_matrix(1050, PARAMS)).energy
        errs = relative_errors(ConvergenceSeries(dims, np.array(energies), reference))
        rate = fit_exponential_window(dims.astype(float), errs).fit.rate
        assert abs(rate - 0.00644) <= 0.15 * 0.00644, f"rate {rate:.5f}"


def test_criterion_4_qubit_sweep_rate(criterion, vacuum_2048):
    with criterion(4):
        qubits = np.arange(1, 12)
        energies = [
            vacuum_state(hydrogen_matrix(1 << int(q), PARAMS)).energy for q in qubits[:-1]
        ]
        energies.append(vacuum_2048.energy)
        reference = vacuum_state(hydrogen_matrix(4096, PARAMS)).energy
        errs = relative_errors(ConvergenceSeries(qubits, np.array(energies), reference))
        rate = fit_exponential_window(qubits.astype(float), errs).fit.rate
        assert abs(rate - 1.92) <= 0.15 * 1.92, f"rate {rate:.4f}"


def test_criterion_5_free_field_identity_and_scaling(criterion):
    with criterion(5):
        for N in range(1, 6):
            for z in np.linspace(-2.5, 2.2, 50):
                value = freefield_zeta_ratio(FreeFieldParams(N=N, T=1000.0, z=complex(z)))
                target = N * (z + 3.0) / (1j * 1000.0)
                assert abs(value - target) <= 1e-12 * abs(target)
        t_list = np.array([10.0, 100.0, 1000.0, 1e4, 1e5])
        mags = [abs(freefield_zeta_ratio(FreeFieldParams(N=1, T=T))) for T in t_list]
        slope = np.polyfit(np.log(t_list), np.log(mags), 1)[0]
        assert abs(slope + 1.0) <= 0.01, f"T-scaling slope {slope:.5f}"


def test_criterion_6_fock_limit_certified(criterion):
    with criterion(6):
        value, diag = fock_zeta_ratio(0.0, 1e6, 40, full_output=True)
        assert abs(value) + diag["ratio_error_bound"] <= 1e-5


def test_criterion_7a_plain_expectation_all_sizes(criterion):
    with criterion("7a"):
        worst = 0.0
        for n in range(2, 513):
            H = hydrogen_matrix(n, PARAMS)
            system = eig_hermitian(H)
            psi = system.vectors[:, 0]
            for A in (H, position_matrix(n)):
                direct = complex(np.vdot(psi, A @ psi))
                ratio = gauge_ratio(H, A, 0.0, system=system).ratio
                worst = max(worst, abs(ratio - direct))
        assert worst <= 1e-10, f"worst deviation {worst:.3e}"


def test_criterion_7b_cauchy_residuals_shrink(criterion):
    with criterion("7b"):
        grid = ZGrid(
            np.array([re + 1j * im for re in (-0.5, 0.0, 0.5) for im in (-0.5, 0.0, 0.5)])
        )
        sizes = [8, 16, 32, 64, 128, 256, 512]
        for builder_a in (lambda n: hydrogen_matrix(n, PARAMS), position_matrix):
            scan = ratio_convergence_scan(lambda n: hydrogen_matrix(n, PARAMS), builder_a, grid, sizes)
            assert not scan["excluded"].any()
            residuals = scan["residuals"]
            assert np.all(residuals[1:] <= 1.1 * residuals[:-1])


def test_criterion_7c_damped_ratio_slope(criterion):
    with criterion("7c"):
        n = 16
        H = hydrogen_matrix(n, PARAMS)
        system = eig_hermitian(H)
        gap = float(system.eigenvalues[1] - system.eigenvalues[0])
        psi = system.vectors[:, 0]
        t_list = np.arange(500.0, 4001.0, 50.0)
        eps = 0.05
        for A in (H, position_matrix(n)):
            expectation = complex(np.vdot(psi, A @ psi))
            errs = np.array(
                [
                    abs(damped_trace_ratio(H, A, 0.0, T, eps, system=system) - expectation)
                    for T in t_list
                ]
            )
            # points below ~1e-13 sit at the double-precision floor of the
            # ratio and carry no slope information
            keep = errs >= 1e-13
            assert keep.sum() >= 4
            slope = np.polyfit(t_list[keep], np.log(errs[keep]), 1)[0]
            assert abs(slope - (-eps * gap)) <= 0.2 * eps * gap, f"slope {slope:.5f}"


def test_criterion_8_probe_suites(criterion, vacuum_2048):
    with criterion(8):
        sizes = [8, 16, 32, 64, 128, 256, 512]
        H = hydrogen_matrix(2048, PARAMS)
        smooth = np.zeros(2048, dtype=complex)
        smooth[:5] = [1.5, 1.0, 1.0, 0.25, 0.25]  # (1 + cos x)^2, boundary-regular
        smooth /= np.linalg.norm(smooth)
        probes = (
            (np.eye(2048), vacuum_2048.state),
            (H, vacuum_2048.state),
            (position_matrix(2048), smooth),
        )
        for A, x in probes:
            residuals = strong_convergence_probe(A, x, sizes)
            assert residuals[-1] <= 1e-3 * residuals[0]

        small = [8, 16, 32, 64, 128, 256]
        modes = mode_list(512).astype(float)
        sobolev_diag = 1.0 / (1.0 + modes**2)
        inverse_squares = 1.0 / (np.arange(512, dtype=float) + 1.0) ** 2

        def identity_element(l, k):
            return 1.0 if l == k else 0.0

        def inverse_square_element(l, k):
            return inverse_squares[index_of_mode(k)] if l == k else 0.0

        sobolev = schatten_convergence_probe(identity_element, SobolevWeight(1.0), small, n_ref=512)
        oracle = np.array([sobolev_diag[n:].sum() for n in small])
        assert np.abs(sobolev - oracle).max() <= 1e-10

        invsq = schatten_convergence_probe(
            inverse_square_element, SobolevWeight(0.0), small, n_ref=512
        )
        oracle = np.array([inverse_squares[n:].sum() for n in small])
        assert np.abs(invsq - oracle).max() <= 1e-10


def test_criterion_9_pauli_round_trip_and_coefficients(criterion):
    with criterion(9):
        rng = np.random.default_rng(3)
        for Q in range(1, 7):
            dim = 1 << Q
            M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            M = (M + M.conj().T) / 2.0
            c = decompose(M)
            assert np.abs(reconstruct(c) - M).max() <= 1e-12
            frobenius_sq = float(np.sum(np.abs(M) ** 2))
            parseval = dim * float(np.sum(c.coeffs**2))
            assert abs(parseval - frobenius_sq) <= 1e-10 * frobenius_sq
        coeffs = decompose(hydrogen_matrix(2, PARAMS)).coeffs
        expected = np.array([0.25 + np.pi / 4.0, -1.0 / np.pi, 0.5, -0.25])
        assert np.abs(coeffs - expected).max() <= 1e-12
