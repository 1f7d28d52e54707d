"""Statevector VQE for operators given in the Pauli basis.

The ansatz is the hardware-efficient layout: per layer an R_y and R_z
rotation on every qubit followed by a chain of CZ gates on neighbouring
qubits, plus one final rotation pair per qubit.  States are propagated
for many parameter sets at once, with the batch as the last, contiguous
axis of the state, so each gate is three ufunc calls over the whole
batch; this makes the gradient, the metric and the line search nearly
free.  The classical loop is memoryless natural-gradient descent: one
batch of P + 1 circuits (the pi-shift parameter-shift rule) gives the
energy, the P x 2^(Q+1) tangent matrix R of the Fubini-Study metric
G = R R^T / 4 and the gradient g = R h, h the float view of H psi.  As
(R R^T)^+ R = (R^T)^+, each step goes to the lowest point of one batched
grid of 22 steps along -G^+ g = -4 (R^T)^+ h, one least-squares solve.
Energies are quadratic forms of the reconstructed matrix.  Word
expectations, the quantities a device measures and the input of
``sampled_energy``, come from the package's one Pauli transform:
<psi|S^q|psi> is 2^Q times coefficient q of decompose(|psi><psi|).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, OutOfFloatRange, ParamLengthMismatch, SpecMismatch
from .pauli import PauliCoefficients, decompose, reconstruct

__all__ = [
    "AnsatzSpec",
    "OptimizerConfig",
    "MinimizeResult",
    "apply_ansatz",
    "energy",
    "sampled_energy",
    "minimize",
    "warm_start_embed",
    "warm_started_chain",
]


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the layered R_y/R_z + CZ-chain circuit."""

    qubits: int
    layers: int

    def __post_init__(self):
        if self.qubits < 1 or self.layers < 1:
            raise ValueError(f"need qubits >= 1 and layers >= 1, got {self}")

    @property
    def n_params(self) -> int:
        return 2 * self.qubits * (self.layers + 1)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of minimize: the seed of the random start and the iteration budget."""

    seed: int = 0
    max_iter: int = 25000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


class MinimizeResult(NamedTuple):
    params: np.ndarray
    energy: float
    trace: list
    converged: bool = True  # False: cut off by max_iter


def _cz_signs(qubits: int) -> np.ndarray:
    """Diagonal of the whole CZ chain: (-1) to the number of neighbouring 1-bit pairs."""
    b = np.arange(1 << qubits)
    return 1.0 - 2.0 * (np.bitwise_count(b & (b >> 1)) & 1)


def _propagate(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Ansatz states for a batch of parameter vectors.

    ``params`` has shape (batch, n_params); parameters are ordered layer
    by layer, qubit by qubit, (theta, phi) per qubit.  The R_z(phi)R_y(theta)
    product is applied as one 2x2 gate per qubit, and the diagonal CZ
    chain collapses to a single sign vector per layer.  The entries of all
    gates come from one vectorised pass over the whole parameter array,
    so the gate loop only does state arithmetic.

    The state is held batch-last, shape (2^Q, batch), so the batch is the
    contiguous inner axis of every slice a gate touches; qubit q splits it
    into the view (2^(Q-1-q), 2, 2^q, batch).  These views of the two
    ping-pong buffers and the scratch buffer are made once per call, and
    a gate is three ufunc calls into them: column 0 (u00, u10) times the
    low half, column 1 stored negated, (-u01, u11), times the high half,
    and the sum.  Negation is exact, so every amplitude is bit for bit
    u00*lo - u01*hi (resp. u10*lo + u11*hi).  The result is returned as a
    C-ordered (batch, 2^Q) copy: the energy contraction psi.conj() @ H
    then runs on the same operand layout, and so gives the same bits, as
    with a batch-first state, and ``apply_ansatz`` returns a contiguous row.
    """
    Q, L = spec.qubits, spec.layers
    C = params.shape[0]
    half = params / 2.0
    cos, sin = np.cos(half[:, 0::2]), np.sin(half[:, 0::2])
    ep = np.exp(1j * half[:, 1::2])
    em = ep.conj()  # the bits of exp(-1j * half): cexp(+-0 + iy) is (cos y, sin y)
    cols = np.empty((cos.shape[1], 2, 2, 1, C), dtype=complex)  # gate, column, row, 1, batch
    w = cols[:, :, :, 0, :].transpose(3, 0, 1, 2)
    np.multiply(em, cos, out=w[..., 0, 0])
    np.multiply(ep, sin, out=w[..., 0, 1])
    np.negative(em * sin, out=w[..., 1, 0])
    np.multiply(ep, cos, out=w[..., 1, 1])
    cz = _cz_signs(Q)[:, None]
    psi = np.zeros((1 << Q, C), dtype=complex)
    psi[0] = 1.0
    bufs, tmp = [psi, np.empty_like(psi)], np.empty_like(psi)  # gate g reads bufs[g % 2]
    views = []  # per qubit and parity: the (lo, hi, dest, tmp) views
    for q in range(Q):
        shape = (1 << (Q - 1 - q), 2, 1 << q, C)
        a, b, t = bufs[0].reshape(shape), bufs[1].reshape(shape), tmp.reshape(shape)
        views.append(((a[:, 0:1], a[:, 1:2], b, t), (b[:, 0:1], b[:, 1:2], a, t)))
    for g, (col0, col1) in enumerate(cols):
        layer, q = divmod(g, Q)
        lo, hi, dest, t = views[q][g % 2]
        np.multiply(col0, lo, out=dest)
        np.multiply(col1, hi, out=t)
        dest += t
        if q == Q - 1 and layer < L and Q > 1:
            bufs[(g + 1) % 2] *= cz
    return np.ascontiguousarray(bufs[len(cols) % 2].T)


def apply_ansatz(spec: AnsatzSpec, params) -> np.ndarray:
    """Statevector prepared by the circuit from |0...0>."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ParamLengthMismatch(
            f"got {params.shape}, ansatz {spec} needs ({spec.n_params},)"
        )
    return _propagate(spec, params[None, :])[0]


def _state_vector(state, c: PauliCoefficients) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << c.qubits,):
        raise DimensionMismatch(f"state {state.shape} vs {c.qubits} qubits")
    return state


def _word_expectations(state, c: PauliCoefficients) -> np.ndarray:
    """<state| S^q |state> for every word q.

    tr(|state><state| S^q) is 2^Q times the Pauli coefficient of the
    projector, so one decompose call gives all 4^Q expectations.
    """
    state = _state_vector(state, c)
    return decompose(np.outer(state, state.conj())).coeffs * (1 << c.qubits)


def energy(state, c: PauliCoefficients) -> float:
    """Expectation of the Pauli-sum operator in the given state.

    Evaluated as the quadratic form psi^dagger M psi of M = reconstruct(c),
    the form ``minimize`` evaluates.  The sum over words of coefficient
    times word expectation is equal in exact arithmetic, but its rounding
    scale is eps * sum_q |c_q|, which grows about 4x per qubit for
    hydrogen and costs digits on low-energy states.
    """
    psi = _state_vector(state, c)
    return float(((psi.conj() @ reconstruct(c)) * psi).sum().real)


def sampled_energy(state, c: PauliCoefficients, shots: int, seed: int = 0):
    """Finite-shot estimate of the energy, term by term.

    Each non-identity word is measured ``shots`` times as a +/-1
    variable with the exact expectation; the identity coefficient enters
    exactly.  Returns (estimate, standard_error) with the standard error
    combined across terms in quadrature.  The sample variance behind it
    needs at least two shots, so fewer raise ValueError.
    """
    if shots < 2:
        raise ValueError(f"shots must be at least 2 for a standard error, got {shots}")
    q = np.flatnonzero(c.coeffs[1:]) + 1  # the measured words, drawn in this order
    exps = np.clip(_word_expectations(state, c)[q], -1.0, 1.0)
    ones = np.random.default_rng(seed).binomial(shots, (1.0 + exps) / 2.0)
    mean = (2.0 * ones - shots) / shots
    estimate = c.coeffs[0] + c.coeffs[q] @ mean
    var = c.coeffs[q] ** 2 @ (1.0 - mean**2) / (shots - 1)
    return float(estimate), float(np.sqrt(var))


def _params_hash(params: np.ndarray) -> str:
    return hashlib.sha256(params.tobytes()).hexdigest()[:16]


# the line search's steps, propagated as one batch: 12 long ones around step 1 and
# 10 short ones down to 1e-7; the step taken is the lowest of all 22 when it descends
_STEPS = np.concatenate((np.geomspace(1.0 / 32.0, 4.0, 12), np.geomspace(1e-7, 1.0 / 64.0, 10)))

# eigenvalues of G (squared singular values of R, over 4) below this fraction of the largest
# are dropped from -G^+ g.  It stays at rounding level: at Q = 5, 8 layers, cutoffs of 1e-8 and
# 1e-6 were 4e-6 and 7e-5 above the ground energy after 6,000 iterations; 1e-14..1e-10 converged.
_METRIC_CUTOFF = 1e-10


def _energy_and_gradient(spec: AnsatzSpec, H: np.ndarray, x: np.ndarray):
    """Energy, exact gradient, real tangent matrix and H psi at x from one (P + 1)-row propagation.

    Row 0 is psi(x) and row k is psi(x + pi e_k).  Angle k enters as
    exp(-i x_k S / 2) with S a Pauli word and exp(-i pi S / 2) = -iS, so
    psi(x + pi e_k) = 2 d psi / d x_k and dE/dx_k = Re <psi(x + pi e_k)|H|psi(x)>.
    Rows 1..P are then projected off psi in place, T_k = psi_k - <psi|psi_k> psi,
    so the Fubini-Study metric Re(<d_k psi|d_l psi> - <d_k psi|psi><psi|d_l psi>)
    is Re(T T^dagger) / 4 = R R^T / 4, with R the float view of T: P x 2^(Q+1),
    the real and imaginary part of each amplitude in neighbouring columns.
    R, never the metric, is returned, with h = H psi as floats: Re <psi_k|psi> = 0, so g = R h.
    """
    P = spec.n_params
    psi = _propagate(spec, x + np.pi * np.eye(P + 1, P, k=-1))  # rows 1..P shift one angle each
    hpsi = psi[0].conj() @ H
    grad = (psi[1:] @ hpsi).real
    tangents = psi[1:]
    tangents -= np.outer(tangents @ psi[0].conj(), psi[0])
    return float((hpsi * psi[0]).sum().real), grad, tangents.view(float), hpsi.conj().view(float)


def minimize(spec: AnsatzSpec, c: PauliCoefficients, cfg: OptimizerConfig, initial=None) -> MinimizeResult:
    """Minimize the Pauli-sum energy over the ansatz parameters by natural gradient.

    One (P + 1)-row propagation gives the energy, the exact gradient g (the
    parameter-shift rule in its pi-shift form) and the tangent matrix R of
    the Fubini-Study metric G = R R^T / 4 at a point (``_energy_and_gradient``).
    As g = R h (h: H psi as floats) and (R R^T)^+ R = (R^T)^+, d = -G^+ g is
    -4 (R^T)^+ h, one least-squares solve on R^T that drops singular values
    below sqrt(``_METRIC_CUTOFF``) of the largest.  One 22-row propagation is the line
    search along d: 12 log-spaced long steps, 1/32..4, and 10 short ones,
    1e-7..1/64.  The step taken is the lowest of all 22 energies when it
    is below the current one; when none is, the run has converged and returns.
    Nothing but the point carries between iterations, so an iteration is
    exactly two propagations, the grid and the batch at the new point.
    The trace records (iteration, energy, gradient_norm, params_hash) rows
    ready for JSON-lines serialization.

    When max_iter iterations pass first, the run was cut off, not finished:
    the result has ``converged`` False and its trace ends with a row for
    the point it stopped at, iteration ``max_iter``.  A point whose energy
    or gradient norm is not finite (an operator near the float range)
    raises OutOfFloatRange.
    """
    if spec.qubits != c.qubits:
        raise SpecMismatch(f"ansatz on {spec.qubits} qubits, coefficients on {c.qubits}")
    if initial is None:
        x = np.random.default_rng(cfg.seed).normal(0.0, 0.3, size=spec.n_params)
    else:
        x = np.asarray(initial, dtype=float).copy()
        if x.shape != (spec.n_params,):
            raise ParamLengthMismatch(f"initial {x.shape} vs ({spec.n_params},)")
    H = reconstruct(c)
    fx, g, R, h = _energy_and_gradient(spec, H, x)
    trace: list = []
    for it in range(cfg.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if not np.isfinite([fx, gnorm]).all():
            raise OutOfFloatRange(f"energy {fx} and gradient norm {gnorm} at iteration {it}")
        trace.append({"iteration": it, "energy": fx, "gradient_norm": gnorm, "params_hash": _params_hash(x)})
        if it == cfg.max_iter:  # cut off; the last row is the point it stopped at
            return MinimizeResult(x, fx, trace, converged=False)
        d = np.linalg.lstsq(R.T, -4.0 * h, rcond=np.sqrt(_METRIC_CUTOFF))[0]
        psi = _propagate(spec, x + _STEPS[:, None] * d)
        vals = ((psi.conj() @ H) * psi).sum(axis=1).real
        i = int(np.argmin(vals))
        if not vals[i] < fx:  # nothing below fx
            return MinimizeResult(x, fx, trace)
        x = x + _STEPS[i] * d
        fx, g, R, h = _energy_and_gradient(spec, H, x)


def warm_start_embed(params, spec_from: AnsatzSpec, spec_to: AnsatzSpec) -> np.ndarray:
    """Lift optimal parameters one qubit up, new qubit left untouched.

    The added qubit is the most significant one; with its rotations at
    zero and CZ acting trivially on |0>, the embedded circuit prepares
    exactly the old state inside the first 2^Q coordinates of the nested
    basis.
    """
    if spec_to.qubits != spec_from.qubits + 1 or spec_to.layers != spec_from.layers:
        raise SpecMismatch(f"cannot embed {spec_from} into {spec_to}")
    params = np.asarray(params, dtype=float)
    if params.shape != (spec_from.n_params,):
        raise ParamLengthMismatch(f"params {params.shape} vs ({spec_from.n_params},)")
    L, Q = spec_from.layers, spec_from.qubits
    out = np.zeros((L + 1, Q + 1, 2))
    out[:, :Q] = params.reshape(L + 1, Q, 2)
    return out.ravel()


def warm_started_chain(coeff_list, layers: int, cfg: OptimizerConfig, restarts: int = 5):
    """Optimize a nested family of operators with warm-started inits.

    ``coeff_list`` holds PauliCoefficients for Q = 1, 2, ... qubits in
    order.  Each stage starts from the previous optimum embedded one
    qubit up (the first from the seeded random point minimize draws);
    when a run is cut off by ``max_iter`` it is retried up to ``restarts``
    times from seeded perturbations of the best parameters so far, wider
    with every retry, keeping the best result seen.  Returns a list of
    MinimizeResult, with ``converged`` False where the kept result is a
    cut-off attempt.
    Raises ValueError for ``restarts`` < 0, which would run no attempt.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    results = []
    prev = None
    for c in coeff_list:
        spec = AnsatzSpec(qubits=c.qubits, layers=layers)
        rng = np.random.default_rng(cfg.seed + 977 * c.qubits)
        if prev is not None:
            x0 = warm_start_embed(prev.params, AnsatzSpec(c.qubits - 1, layers), spec)
        else:
            x0 = None
        best = None
        for attempt in range(restarts + 1):
            res = minimize(spec, c, cfg, initial=x0)
            if best is None or res.energy < best.energy:
                best = res
            if res.converged:
                break
            x0 = best.params + rng.normal(0.0, 0.1 * (attempt + 1), size=spec.n_params)
        results.append(best)
        prev = best
    return results
