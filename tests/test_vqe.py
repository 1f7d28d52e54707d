"""Ansatz simulation, energy routes, and the optimizer loops.

The batched statevector propagation is checked against a dense circuit
built from Kronecker products, and each of its rows against the single
state bit for bit.  Energies from the Pauli-word route (word
expectations from decompose of the state's projector, paired with the
operator's coefficients; what ``sampled_energy`` measures) and from
``energy`` are cross-checked against the dense quadratic form of the
matrix itself, and ``energy`` against an extended-precision one.
Single-word cases pin individual expectations to their known values.
The (P + 1)-row gradient is checked against the +-pi/2 shift rule and
central differences, the Fubini-Study metric of its tangent matrix and
the optimizer's step direction against a metric built from
central-difference tangents, the optimizer's propagations against
exactly two per iteration, each step against the lowest energy of its
grid, and its linear algebra against one thin SVD per iteration.
``sampled_energy`` is checked against a word-by-word loop of scalar
draws.  Optimizer tests pin the
small-qubit hydrogen values that the nested chain must hit.
"""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zetavac import vqe
from zetavac.errors import DimensionMismatch, ParamLengthMismatch, SpecMismatch
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
    warm_start_embed,
    warm_started_chain,
)
from zetavac.vqe import (
    _METRIC_CUTOFF,
    _STEPS,
    _energy_and_gradient,
    _params_hash,
    _propagate,
    _word_expectations,
)

GROUND_Q1 = 0.392108816647
GROUND_Q2 = 0.229395425745


class TestAnsatzSpec:
    def test_param_count(self):
        assert AnsatzSpec(1, 1).n_params == 4
        assert AnsatzSpec(5, 8).n_params == 90

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

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("Q", [1, 2, 3, 4])
    def test_matches_dense_circuit(self, Q, layers):
        spec = AnsatzSpec(Q, layers)
        p = np.random.default_rng(10 * Q + layers).uniform(-math.pi, math.pi, spec.n_params)
        assert_allclose(apply_ansatz(spec, p), _dense_circuit(spec, p), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("batch", ["1", "12", "2P"])
    @pytest.mark.parametrize("Q", [1, 2, 4, 5])
    def test_batched_rows_match_single_states_bitwise(self, Q, batch):
        spec = AnsatzSpec(Q, 3)
        C = 2 * spec.n_params if batch == "2P" else int(batch)
        params = np.random.default_rng(Q).uniform(-math.pi, math.pi, (C, spec.n_params))
        states = _propagate(spec, params)
        assert states.shape == (C, 1 << Q) and states.flags.c_contiguous
        for row, p in zip(states, params):
            assert row.tobytes() == apply_ansatz(spec, p).tobytes()


def _dense_circuit(spec, params):
    """The ansatz as 2^Q x 2^Q matrices; qubit q is bit q of the basis index."""
    Q, L = spec.qubits, spec.layers

    def rotation(theta, phi):  # R_z(phi) R_y(theta)
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        rz = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
        return rz @ np.array([[c, -s], [s, c]])

    cz_chain = np.eye(1 << Q)
    for q in range(Q - 1):
        for b in range(1 << Q):
            if (b >> q) & 1 and (b >> (q + 1)) & 1:
                cz_chain[b, b] *= -1.0
    psi = np.zeros(1 << Q, dtype=complex)
    psi[0] = 1.0
    for layer in range(L + 1):
        U = np.eye(1)
        for q in reversed(range(Q)):  # the most significant qubit is the left factor
            k = 2 * (layer * Q + q)
            U = np.kron(U, rotation(params[k], params[k + 1]))
        psi = U @ psi
        if layer < L:
            psi = cz_chain @ psi
    return psi


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

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_pauli_route_matches_dense_route(self, Q):
        rng = np.random.default_rng(30 + Q)
        B = rng.normal(size=(2**Q, 2**Q)) + 1j * rng.normal(size=(2**Q, 2**Q))
        M = (B + B.conj().T) / 2.0
        psi = rng.normal(size=2**Q) + 1j * rng.normal(size=2**Q)
        psi /= np.linalg.norm(psi)
        c = decompose(M)
        want = float(np.vdot(psi, M @ psi).real)
        for got in (energy(psi, c), float(c.coeffs @ _word_expectations(psi, c))):
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_eight_qubit_ground_state_to_extended_precision(self):
        # the word sum's rounding scale, eps * sum_q |c_q|, is 1.8e-12 here
        H = hydrogen_matrix(256)
        c = decompose(H)
        psi = eig_hermitian(H).vectors[:, 0]
        M, x = reconstruct(c).astype(np.clongdouble), psi.astype(np.clongdouble)
        want = ((x.conj() @ M) * x).sum().real
        assert abs(energy(psi, c) - want) <= 1e-15

    def test_dimension_mismatch(self):
        c = PauliCoefficients(2, np.zeros(16))
        with pytest.raises(DimensionMismatch):
            energy(np.array([1.0, 0.0]), c)


class TestGradientScale:
    def test_parameter_shift_matches_central_difference(self):
        # the (P + 1)-row energy and gradient minimize takes must agree with
        # the +-pi/2 parameter-shift rule to rounding and with a
        # central-difference oracle at h = 1e-5 to 1e-4 relative
        rng = np.random.default_rng(4)
        for Q in range(1, 6):
            spec = AnsatzSpec(Q, 8)
            P = spec.n_params
            H = hydrogen_matrix(1 << Q)
            unit = np.concatenate([np.eye(P), -np.eye(P)])

            def differences(p, h):
                psi = _propagate(spec, p + h * unit)
                vals = np.einsum("bi,ij,bj->b", psi.conj(), H, psi).real
                return vals[:P] - vals[P:]

            for _ in range(4):
                p = rng.uniform(-math.pi, math.pi, P)
                e, g, _, _ = _energy_and_gradient(spec, H, p)
                psi = apply_ansatz(spec, p)
                assert e == pytest.approx(np.vdot(psi, H @ psi).real, rel=1e-13)
                shift = differences(p, math.pi / 2.0) / 2.0
                oracle = differences(p, 1e-5) / 2e-5
                assert np.linalg.norm(g - shift) <= 1e-13 * np.linalg.norm(shift)
                assert np.linalg.norm(g - oracle) <= 1e-4 * max(np.linalg.norm(oracle), 1e-3)

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5])
    def test_metric_matches_central_difference_fubini_study(self, Q):
        # the metric R R^T / 4 of the batch's real tangent matrix against
        # Re(<d_k psi|d_l psi> - <d_k psi|psi><psi|d_l psi>) with tangents
        # from central differences of apply_ansatz at h = 1e-5 (seen: <= 8.1e-11
        # relative); a Gram matrix of projected tangents is symmetric and
        # positive semidefinite
        spec = AnsatzSpec(Q, 8)
        P = spec.n_params
        p = np.random.default_rng(40 + Q).uniform(-math.pi, math.pi, P)
        _, _, R, _ = _energy_and_gradient(spec, hydrogen_matrix(1 << Q), p)
        assert R.shape == (P, 2 << Q)
        G = R @ R.T / 4.0
        oracle = _central_difference_metric(spec, p)
        assert np.abs(G - oracle).max() <= 1e-9 * np.abs(oracle).max()
        assert np.abs(G - G.T).max() <= 1e-15 * np.abs(G).max()
        lam = np.linalg.eigvalsh(G)
        assert lam[0] >= -1e-14 * lam[-1]

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5])
    def test_gradient_is_tangent_matrix_times_h_psi(self, Q):
        # the step -4 (R^T)^+ h equals -G^+ g only because g = R h: projecting
        # the rows off psi keeps the gradient, as Re <psi_k|psi> = 0
        spec = AnsatzSpec(Q, 8)
        H = hydrogen_matrix(1 << Q)
        rng = np.random.default_rng(70 + Q)
        for _ in range(3):
            p = rng.uniform(-math.pi, math.pi, spec.n_params)
            _, g, R, h = _energy_and_gradient(spec, H, p)
            assert h.shape == (2 << Q,)
            hpsi = H @ apply_ansatz(spec, p)
            assert np.linalg.norm(h.view(complex) - hpsi) <= 1e-14 * np.linalg.norm(hpsi)
            assert np.linalg.norm(g - R @ h) <= 1e-13 * np.linalg.norm(g)


def _central_difference_metric(spec, p, h=1e-5):
    """Re(<d_k psi|d_l psi> - <d_k psi|psi><psi|d_l psi>) from central-difference tangents."""
    psi = apply_ansatz(spec, p)
    tangents = np.array([(apply_ansatz(spec, p + h * e) - apply_ansatz(spec, p - h * e)) / (2.0 * h)
                         for e in np.eye(spec.n_params)])
    overlap = tangents.conj() @ psi
    return (tangents.conj() @ tangents.T - np.outer(overlap, overlap.conj())).real


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
        est, _ = sampled_energy(psi, c, shots=2, seed=3)
        # identity term fixed; each other term's two-shot mean is -1, 0 or 1
        possible = []
        for s1 in (-1, 0, 1):
            for s2 in (-1, 0, 1):
                for s3 in (-1, 0, 1):
                    possible.append(
                        c.coeffs[0] + s1 * c.coeffs[1] + s2 * c.coeffs[2] + s3 * c.coeffs[3]
                    )
        assert min(abs(est - v) for v in possible) < 1e-12

    @pytest.mark.parametrize("Q", [1, 3, 5])
    def test_matches_word_by_word_loop(self, Q, monkeypatch):
        # one binomial draw over the measured words gives the counts of one
        # scalar draw per word in word order; the sums then run in another
        # order, so the estimate and standard error agree to rounding
        c = decompose(hydrogen_matrix(1 << Q))
        rng = np.random.default_rng(60 + Q)
        psi = rng.normal(size=1 << Q) + 1j * rng.normal(size=1 << Q)
        psi /= np.linalg.norm(psi)
        shots, seed = 20_000, 9
        exps = np.clip(_word_expectations(psi, c), -1.0, 1.0)
        ref_rng = np.random.default_rng(seed)
        want_ones, want_est, want_var = [], c.coeffs[0], 0.0
        for q in range(1, 4**Q):
            if c.coeffs[q] == 0.0:
                continue
            ones = ref_rng.binomial(shots, (1.0 + exps[q]) / 2.0)
            mean = (2.0 * ones - shots) / shots
            want_ones.append(ones)
            want_est += c.coeffs[q] * mean
            want_var += c.coeffs[q] ** 2 * (1.0 - mean**2) / (shots - 1)

        drawn = []
        default_rng = np.random.default_rng

        class Recording:
            def __init__(self, seed_):
                self.rng = default_rng(seed_)

            def binomial(self, n, p):
                drawn.append(self.rng.binomial(n, p))
                return drawn[-1]

        monkeypatch.setattr(np.random, "default_rng", Recording)
        est, err = sampled_energy(psi, c, shots=shots, seed=seed)
        assert len(drawn) == 1 and np.array_equal(drawn[0], want_ones)
        assert est == pytest.approx(want_est, rel=1e-14)
        assert err == pytest.approx(math.sqrt(want_var), rel=1e-14)

    def test_shots_validated(self):
        # a standard error needs two shots; one would report 0.0
        c = PauliCoefficients(1, np.zeros(4))
        for shots in (0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                sampled_energy(np.array([1.0, 0.0]), c, shots=shots)


class TestMinimize:
    def test_single_qubit_cg_hits_table_value(self):
        c = decompose(hydrogen_matrix(2))
        res = minimize(AnsatzSpec(1, 1), c, OptimizerConfig(seed=0), initial=np.zeros(4))
        assert isinstance(res, MinimizeResult) and res.converged
        assert abs(res.energy - GROUND_Q1) <= 1e-8
        assert len(res.trace) >= 1
        for row in res.trace:
            assert set(row) == {"iteration", "energy", "gradient_norm", "params_hash"}
        its = [row["iteration"] for row in res.trace]
        assert its == sorted(its) and len(set(its)) == len(its)

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
        res = minimize(AnsatzSpec(2, 3), decompose(M), OptimizerConfig(seed=2))
        assert res.energy >= exact - 1e-9

    def test_stall_carries_best_state(self):
        c = decompose(hydrogen_matrix(8))
        stall = minimize(AnsatzSpec(3, 2), c, OptimizerConfig(max_iter=2))
        assert stall.converged is False
        assert stall.params.shape == (AnsatzSpec(3, 2).n_params,)
        assert isinstance(stall.energy, float)
        # two iterations, then the point it stopped at
        assert len(stall.trace) == 3
        assert stall.trace[-1]["energy"] == stall.energy
        assert stall.trace[-1]["params_hash"] == _params_hash(stall.params)
        # the returned energy is the energy of the returned parameters
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

    @staticmethod
    def _recorded_batches(monkeypatch):
        """The list every parameter batch minimize propagates is appended to."""
        batches = []
        propagate = vqe._propagate

        def recording(spec_, params):
            batches.append(np.array(params))
            return propagate(spec_, params)

        monkeypatch.setattr(vqe, "_propagate", recording)
        return batches

    def test_iteration_takes_two_propagations(self, monkeypatch):
        # the start point takes one (P + 1)-row batch; every iteration is
        # one 22-row step grid and one (P + 1)-row batch at its winner; a
        # converged run ends on the grid that found no descent, a run cut
        # off at max_iter = k after 1 + 2k batches
        spec = AnsatzSpec(3, 8)
        P = spec.n_params
        c = decompose(hydrogen_matrix(8))
        batches = self._recorded_batches(monkeypatch)
        for max_iter, converged in ((25000, True), (5, False)):
            batches.clear()
            res = minimize(spec, c, OptimizerConfig(seed=0, max_iter=max_iter))
            assert res.converged is converged
            rows = [b.shape[0] for b in batches]
            steps = len(res.trace) - 1
            assert rows == [P + 1] + [_STEPS.size, P + 1] * steps + [_STEPS.size] * converged
            if not converged:
                assert len(rows) == 1 + 2 * max_iter

    def test_converged_point_takes_one_grid(self, monkeypatch):
        # restarted at the point a converged run stopped at, the run finds
        # no descent along d in its first grid and returns: two propagations
        spec = AnsatzSpec(1, 8)
        c = decompose(hydrogen_matrix(2))
        first = minimize(spec, c, OptimizerConfig(seed=0))
        assert first.converged
        batches = self._recorded_batches(monkeypatch)
        again = minimize(spec, c, OptimizerConfig(seed=0), initial=first.params)
        assert again.converged and len(again.trace) == 1
        assert again.energy == first.energy
        assert [b.shape[0] for b in batches] == [spec.n_params + 1, _STEPS.size]

    def test_step_goes_to_lowest_grid_energy(self, monkeypatch):
        # each accepted step lands on the lowest of the 22 grid energies,
        # long or short; preferring a descending long step over a lower
        # short one skipped the lowest in most Q = 4 iterations.  The taken
        # row is found by the next trace row's params_hash; its energy there
        # comes from a one-row contraction, so it may differ in the last bit
        spec = AnsatzSpec(4, 8)
        c = decompose(hydrogen_matrix(16))
        H = reconstruct(c)
        grids = []
        propagate = vqe._propagate

        def recording(spec_, params):
            psi = propagate(spec_, params)
            if params.shape[0] == _STEPS.size:
                vals = ((psi.conj() @ H) * psi).sum(axis=1).real  # minimize's contraction
                grids.append(([_params_hash(p) for p in params], vals))
            return psi

        monkeypatch.setattr(vqe, "_propagate", recording)
        res = minimize(spec, c, OptimizerConfig(seed=0))
        assert res.converged and len(grids) == len(res.trace)
        for (hashes, vals), row in zip(grids, res.trace[1:]):
            taken = vals[hashes.index(row["params_hash"])]
            assert taken == vals.min()
            assert row["energy"] == pytest.approx(taken, rel=1e-15)

    @pytest.mark.parametrize("Q", [1, 2, 3, 4, 5])
    def test_step_direction_is_pseudo_inverse_of_metric_times_gradient(self, Q, monkeypatch):
        # the step grid runs along d = -G^+ g; recovered from its longest
        # step (4.0) against the pseudo-inverse of the central-difference metric,
        # eigenvalues at or below _METRIC_CUTOFF times the largest dropped
        # (seen: <= 8.9e-9 relative, at Q = 5)
        spec = AnsatzSpec(Q, 8)
        c = decompose(hydrogen_matrix(1 << Q))
        x = np.random.default_rng(50 + Q).uniform(-math.pi, math.pi, spec.n_params)
        batches = self._recorded_batches(monkeypatch)
        minimize(spec, c, OptimizerConfig(max_iter=1), initial=x)
        grid = batches[1]
        assert grid.shape == (_STEPS.size, spec.n_params)
        k = int(np.argmax(_STEPS))
        d = (grid[k] - x) / _STEPS[k]
        _, g, _, _ = _energy_and_gradient(spec, reconstruct(c), x)
        metric = _central_difference_metric(spec, x)
        oracle = -np.linalg.pinv(metric, rcond=_METRIC_CUTOFF, hermitian=True) @ g
        assert np.linalg.norm(d - oracle) <= 1e-7 * np.linalg.norm(oracle)

    def test_step_drops_metric_eigenvalues_below_cutoff(self, monkeypatch):
        # a tangent matrix whose singular values straddle sqrt(_METRIC_CUTOFF):
        # 1e-3 stays (eigenvalue of G 2.5e-7), 1e-7 goes (2.5e-15), as in the
        # pseudo-inverse of G at _METRIC_CUTOFF.  At random points of the real
        # ansatz no singular value falls between the two, so only a made-up
        # R shows the cutoff; without it d gains a 1e7-fold component (seen:
        # 1.0e-10 relative with it)
        spec = AnsatzSpec(1, 2)
        rng = np.random.default_rng(8)
        U = np.linalg.qr(rng.normal(size=(spec.n_params, 4)))[0]
        V = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        R = U @ np.diag([1.0, 0.5, 1e-3, 1e-7]) @ V.T
        h = rng.normal(size=4)
        g = R @ h
        monkeypatch.setattr(vqe, "_energy_and_gradient", lambda *args: (1.0, g, R, h))
        batches = self._recorded_batches(monkeypatch)
        x = np.zeros(spec.n_params)
        minimize(spec, PauliCoefficients(1, np.zeros(4)), OptimizerConfig(max_iter=1), initial=x)
        k = int(np.argmax(_STEPS))
        d = (batches[0][k] - x) / _STEPS[k]
        oracle = -np.linalg.pinv(R @ R.T / 4.0, rcond=_METRIC_CUTOFF, hermitian=True) @ g
        assert np.linalg.norm(d - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_step_takes_one_lstsq_and_no_svd_eigh_or_pinv(self, monkeypatch):
        # d comes from one least-squares solve on the 2^(Q+1) x P transposed
        # tangent matrix per iteration: at every trace row of a converged run
        # (the last finds no descent), at all but the last of a cut-off one;
        # no SVD, P x P eigensolve or pseudo-inverse runs
        coeffs = {Q: decompose(hydrogen_matrix(1 << Q)) for Q in (1, 3)}
        shapes = []
        lstsq = np.linalg.lstsq

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return lstsq(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.svd, eigh or pinv called")

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        for name in ("svd", "eigh", "pinv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for Q, max_iter, converged in ((1, 25000, True), (3, 25000, True), (3, 4, False)):
            spec = AnsatzSpec(Q, 8)
            shapes.clear()
            res = minimize(spec, coeffs[Q], OptimizerConfig(seed=0, max_iter=max_iter))
            assert res.converged is converged
            assert shapes == [(2 << Q, spec.n_params)] * (len(res.trace) - (not converged))


class TestWarmStartedChain:
    def test_restarts_when_every_attempt_stalls(self):
        # max_iter=3 cuts off every attempt, so each stage goes through
        # all its restarts and keeps the best cut-off attempt
        coeffs = [decompose(hydrogen_matrix(1 << Q)) for Q in (1, 2, 3)]
        exact = [float(np.linalg.eigvalsh(reconstruct(c))[0]) for c in coeffs]
        cfg = OptimizerConfig(max_iter=3)
        assert minimize(AnsatzSpec(1, 2), coeffs[0], cfg).converged is False
        first = warm_started_chain(coeffs, layers=2, cfg=cfg, restarts=2)
        second = warm_started_chain(coeffs, layers=2, cfg=cfg, restarts=2)
        assert len(first) == len(coeffs)
        for res, e0 in zip(first, exact):
            assert math.isfinite(res.energy)
            assert res.energy >= e0 - 1e-12
            assert len(res.trace) == cfg.max_iter + 1
            assert not res.converged
        for a, b in zip(first, second):
            assert a.energy == b.energy
            assert np.array_equal(a.params, b.params)
            assert a.trace == b.trace

    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError):
            warm_started_chain([decompose(hydrogen_matrix(2))], layers=1, cfg=OptimizerConfig(), restarts=-1)


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
