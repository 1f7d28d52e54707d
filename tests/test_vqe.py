"""Ansatz simulation, energy routes, and the optimizer loops.

Energies computed through the Pauli-word path are always cross-checked
against dense quadratic forms built via reconstruct (two genuinely
different routes).  Optimizer tests pin the small-qubit hydrogen values
that the nested chain must hit.
"""
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zetavac.errors import (
    DimensionMismatch,
    ParamLengthMismatch,
    SpecMismatch,
    StalledOptimization,
)
from zetavac.models import hydrogen_matrix
from zetavac.pauli import PauliCoefficients, decompose, reconstruct
from zetavac.spectral import eig_hermitian
from zetavac.vqe import (
    AnsatzSpec,
    MinimizeResult,
    OptimizerConfig,
    apply_ansatz,
    energy,
    minimize,
    sampled_energy,
    trace_to_jsonl,
    warm_start_embed,
    warm_started_chain,
)

GROUND_Q1 = 0.392108816647
GROUND_Q2 = 0.229395425745


class TestAnsatzSpec:
    def test_param_count(self):
        assert AnsatzSpec(1, 1).n_params == 4
        assert AnsatzSpec(5, 8).n_params == 90

    def test_single_qubit_gate_budget(self):
        # one layer on one qubit stays within five gate applications
        assert AnsatzSpec(1, 1).gate_count <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            AnsatzSpec(0, 1)
        with pytest.raises(ValueError):
            AnsatzSpec(1, 0)


class TestApplyAnsatz:
    def test_zero_params_give_computational_zero(self):
        spec = AnsatzSpec(3, 2)
        psi = apply_ansatz(spec, np.zeros(spec.n_params))
        want = np.zeros(8, dtype=complex)
        want[0] = 1.0
        assert_allclose(psi, want, atol=1e-15)

    def test_pi_rotation_flips_single_qubit(self):
        spec = AnsatzSpec(1, 1)
        psi = apply_ansatz(spec, np.array([math.pi, 0.0, 0.0, 0.0]))
        assert abs(psi[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(psi[0]) == pytest.approx(0.0, abs=1e-12)

    def test_norm_preserved_on_random_params(self):
        spec = AnsatzSpec(3, 4)
        rng = np.random.default_rng(17)
        for _ in range(100):
            psi = apply_ansatz(spec, rng.uniform(-math.pi, math.pi, spec.n_params))
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        spec = AnsatzSpec(2, 3)
        p = np.linspace(-1.0, 1.0, spec.n_params)
        assert np.array_equal(apply_ansatz(spec, p), apply_ansatz(spec, p))

    def test_wrong_length_rejected(self):
        with pytest.raises(ParamLengthMismatch):
            apply_ansatz(AnsatzSpec(2, 2), np.zeros(5))


class TestEnergy:
    def test_sigma_z_on_zero_state(self):
        c = PauliCoefficients(1, np.array([0.0, 0.0, 0.0, 1.0]))
        assert energy(np.array([1.0, 0.0]), c) == pytest.approx(1.0, abs=1e-14)

    def test_sigma_x_on_plus_state(self):
        c = PauliCoefficients(1, np.array([0.0, 1.0, 0.0, 0.0]))
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert energy(plus, c) == pytest.approx(1.0, abs=1e-14)

    def test_exact_ground_state_gives_table_energy(self):
        H = hydrogen_matrix(4)
        psi = eig_hermitian(H).vectors[:, 0]
        assert energy(psi, decompose(H)) == pytest.approx(GROUND_Q2, abs=1e-9)

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5])
    def test_pauli_route_matches_dense_route(self, Q):
        rng = np.random.default_rng(30 + Q)
        B = rng.normal(size=(2**Q, 2**Q)) + 1j * rng.normal(size=(2**Q, 2**Q))
        M = (B + B.conj().T) / 2.0
        psi = rng.normal(size=2**Q) + 1j * rng.normal(size=2**Q)
        psi /= np.linalg.norm(psi)
        got = energy(psi, decompose(M))
        want = float(np.vdot(psi, M @ psi).real)
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_dimension_mismatch(self):
        c = PauliCoefficients(2, np.zeros(16))
        with pytest.raises(DimensionMismatch):
            energy(np.array([1.0, 0.0]), c)


class TestGradientScale:
    def test_parameter_shift_matches_central_difference(self):
        # the exact parameter-shift gradient minimize uses, (E(+pi/2) -
        # E(-pi/2)) / 2 per angle, must agree with a central-difference
        # oracle at h = 1e-5 to 1e-4 relative
        spec = AnsatzSpec(2, 2)
        H = hydrogen_matrix(4)
        rng = np.random.default_rng(4)

        def differences(p, h):
            out = np.zeros(p.size)
            for k in range(p.size):
                pp, pm = p.copy(), p.copy()
                pp[k] += h
                pm[k] -= h
                ep = np.vdot(apply_ansatz(spec, pp), H @ apply_ansatz(spec, pp)).real
                em = np.vdot(apply_ansatz(spec, pm), H @ apply_ansatz(spec, pm)).real
                out[k] = ep - em
            return out

        for _ in range(20):
            p = rng.uniform(-math.pi, math.pi, spec.n_params)
            shift = differences(p, math.pi / 2.0) / 2.0
            oracle = differences(p, 1e-5) / 2e-5
            assert np.linalg.norm(shift - oracle) <= 1e-4 * max(np.linalg.norm(oracle), 1e-3)


class TestSampledEnergy:
    def test_deterministic_term_has_zero_stderr(self):
        c = PauliCoefficients(1, np.array([0.0, 0.0, 0.0, 1.0]))
        est, err = sampled_energy(np.array([1.0, 0.0]), c, shots=1000, seed=1)
        assert est == pytest.approx(1.0, abs=1e-12)
        assert err == 0.0

    def test_statistical_recovery_of_ground_energy(self):
        H = hydrogen_matrix(2)
        psi = eig_hermitian(H).vectors[:, 0]
        est, err = sampled_energy(psi, decompose(H), shots=100_000, seed=7)
        assert err < 0.01
        assert abs(est - GROUND_Q1) <= 3.0 * err

    def test_single_shot_lands_on_term_spectrum(self):
        H = hydrogen_matrix(2)
        c = decompose(H)
        psi = eig_hermitian(H).vectors[:, 0]
        est, _ = sampled_energy(psi, c, shots=1, seed=3)
        # identity term fixed; each other term contributes +-|c_q|
        possible = []
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                for s3 in (-1, 1):
                    possible.append(
                        c.coeffs[0] + s1 * c.coeffs[1] + s2 * c.coeffs[2] + s3 * c.coeffs[3]
                    )
        assert min(abs(est - v) for v in possible) < 1e-12

    def test_shots_validated(self):
        c = PauliCoefficients(1, np.zeros(4))
        with pytest.raises(ValueError):
            sampled_energy(np.array([1.0, 0.0]), c, shots=0)


class TestMinimize:
    def test_single_qubit_cg_hits_table_value(self):
        c = decompose(hydrogen_matrix(2))
        res = minimize(AnsatzSpec(1, 1), c, OptimizerConfig(seed=0), initial=np.zeros(4))
        assert abs(res.energy - GROUND_Q1) <= 1e-8

    def test_known_sigma_z_minimum(self):
        c = PauliCoefficients(1, np.array([0.0, 0.0, 0.0, 1.0]))
        cfg = OptimizerConfig(seed=1)
        res = minimize(AnsatzSpec(1, 1), c, cfg)
        assert res.energy == pytest.approx(-1.0, abs=1e-10)

    def test_two_qubits_warm_started(self):
        c1 = decompose(hydrogen_matrix(2))
        c2 = decompose(hydrogen_matrix(4))
        cfg = OptimizerConfig(seed=0)
        r1 = minimize(AnsatzSpec(1, 2), c1, cfg)
        x0 = warm_start_embed(r1.params, AnsatzSpec(1, 2), AnsatzSpec(2, 2))
        r2 = minimize(AnsatzSpec(2, 2), c2, cfg, initial=x0)
        assert abs(r2.energy - GROUND_Q2) <= 1e-6

    def test_variational_bound(self):
        rng = np.random.default_rng(23)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M = (B + B.conj().T) / 2.0
        exact = float(np.linalg.eigvalsh(M)[0])
        try:
            res = minimize(AnsatzSpec(2, 3), decompose(M), OptimizerConfig(seed=2))
            e = res.energy
        except StalledOptimization as stall:
            e = stall.energy
        assert e >= exact - 1e-9

    def test_stall_carries_best_state(self):
        c = decompose(hydrogen_matrix(8))
        with pytest.raises(StalledOptimization) as exc:
            minimize(AnsatzSpec(3, 2), c, OptimizerConfig(max_iter=2))
        stall = exc.value
        assert stall.params.shape == (AnsatzSpec(3, 2).n_params,)
        assert isinstance(stall.energy, float)
        assert len(stall.trace) == 2
        # the carried energy is the energy of the carried parameters
        psi = apply_ansatz(AnsatzSpec(3, 2), stall.params)
        assert stall.energy == pytest.approx(energy(psi, c), abs=1e-12)
        assert stall.energy < stall.trace[0]["energy"]

    def test_max_iter_validated(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iter=0)

    def test_seeded_run_reproducible(self):
        c = decompose(hydrogen_matrix(2))
        cfg = OptimizerConfig(seed=11)
        r1 = minimize(AnsatzSpec(1, 1), c, cfg)
        r2 = minimize(AnsatzSpec(1, 1), c, cfg)
        assert r1.energy == r2.energy
        assert np.array_equal(r1.params, r2.params)

    def test_spec_coeff_mismatch(self):
        c = decompose(hydrogen_matrix(2))
        with pytest.raises(SpecMismatch):
            minimize(AnsatzSpec(2, 1), c, OptimizerConfig())


class TestWarmStartedChain:
    def test_restarts_when_every_attempt_stalls(self):
        # max_iter=3 cuts off every attempt, so each stage goes through
        # all its restarts and keeps the best stalled attempt
        coeffs = [decompose(hydrogen_matrix(1 << Q)) for Q in (1, 2, 3)]
        exact = [float(np.linalg.eigvalsh(reconstruct(c))[0]) for c in coeffs]
        cfg = OptimizerConfig(max_iter=3)
        with pytest.raises(StalledOptimization):
            minimize(AnsatzSpec(1, 2), coeffs[0], cfg)
        first = warm_started_chain(coeffs, layers=2, cfg=cfg, restarts=2)
        second = warm_started_chain(coeffs, layers=2, cfg=cfg, restarts=2)
        assert len(first) == len(coeffs)
        for res, e0 in zip(first, exact):
            assert math.isfinite(res.energy)
            assert res.energy >= e0 - 1e-12
            assert 1 <= len(res.trace) <= 3
        for a, b in zip(first, second):
            assert a.energy == b.energy
            assert np.array_equal(a.params, b.params)
            assert a.trace == b.trace


class TestWarmStartEmbed:
    def test_zero_vector_stays_zero(self):
        out = warm_start_embed(np.zeros(4), AnsatzSpec(1, 1), AnsatzSpec(2, 1))
        assert_allclose(out, np.zeros(8), atol=0)

    def test_embedded_state_keeps_energy(self):
        # the embedded circuit prepares the old state inside the nested
        # basis, so its energy in the larger truncation is unchanged
        c1 = decompose(hydrogen_matrix(2))
        cfg = OptimizerConfig(seed=0)
        r1 = minimize(AnsatzSpec(1, 2), c1, cfg)
        x0 = warm_start_embed(r1.params, AnsatzSpec(1, 2), AnsatzSpec(2, 2))
        psi = apply_ansatz(AnsatzSpec(2, 2), x0)
        e0 = float(np.vdot(psi, hydrogen_matrix(4) @ psi).real)
        assert e0 == pytest.approx(r1.energy, abs=1e-12)

    def test_mismatched_specs_rejected(self):
        with pytest.raises(SpecMismatch):
            warm_start_embed(np.zeros(4), AnsatzSpec(1, 1), AnsatzSpec(3, 1))
        with pytest.raises(SpecMismatch):
            warm_start_embed(np.zeros(4), AnsatzSpec(1, 1), AnsatzSpec(2, 2))
        with pytest.raises(ParamLengthMismatch):
            warm_start_embed(np.zeros(5), AnsatzSpec(1, 1), AnsatzSpec(2, 1))


class TestTraceExport:
    def test_jsonl_round_trip(self, tmp_path):
        c = decompose(hydrogen_matrix(2))
        res = minimize(AnsatzSpec(1, 1), c, OptimizerConfig(seed=0))
        assert isinstance(res, MinimizeResult)
        path = tmp_path / "trace.jsonl"
        trace_to_jsonl(res.trace, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(res.trace) >= 1
        for row in rows:
            assert set(row) == {"iteration", "energy", "gradient_norm", "params_hash"}
        its = [r["iteration"] for r in rows]
        assert its == sorted(its)
