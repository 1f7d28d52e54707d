"""Statevector VQE for operators given in the Pauli basis.

The ansatz is the hardware-efficient layout: per layer an R_y and R_z
rotation on every qubit followed by a chain of CZ gates on neighbouring
qubits, plus one final rotation pair per qubit.  States are propagated
for many parameter sets at once (one batch axis), which makes both the
gradient and the line search essentially free.  The classical loop is
BFGS on exact parameter-shift gradients (the energy is a sinusoid in
any one angle, so two shifted evaluations per angle give the exact
derivative) with a batched grid line minimization.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParamLengthMismatch, SpecMismatch, StalledOptimization
from .pauli import PauliCoefficients, reconstruct

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
    "trace_to_jsonl",
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

    @property
    def gate_count(self) -> int:
        return self.n_params + (self.qubits - 1) * self.layers


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


def _cz_signs(qubits: int) -> np.ndarray:
    """(-1)^(b_q and b_{q+1}) sign table of the CZ chain, one row per pair."""
    basis = np.arange(1 << qubits)
    rows = []
    for q in range(qubits - 1):
        both = ((basis >> q) & 1) & ((basis >> (q + 1)) & 1)
        rows.append(1.0 - 2.0 * both)
    return np.array(rows) if rows else np.empty((0, 1 << qubits))


def _propagate(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Ansatz states for a batch of parameter vectors.

    ``params`` has shape (batch, n_params); parameters are ordered layer
    by layer, qubit by qubit, (theta, phi) per qubit.  The R_z(phi)R_y(theta)
    product is applied as one 2x2 gate per qubit, written out on slice
    views (cheaper than a general contraction at these sizes), and the
    diagonal CZ chain collapses to a single sign vector per layer.  The
    entries of all gates come from one vectorised pass over the whole
    parameter array, so the gate loop only does state arithmetic.
    """
    Q, L = spec.qubits, spec.layers
    C = params.shape[0]
    cz = _cz_signs(Q)
    cz_total = cz.prod(axis=0) if cz.size else None
    half = params / 2.0
    cos, sin = np.cos(half[:, 0::2]), np.sin(half[:, 0::2])
    em, ep = np.exp(-1j * half[:, 1::2]), np.exp(1j * half[:, 1::2])
    gates = np.stack([em * cos, em * sin, ep * sin, ep * cos])[..., None, None]
    psi = np.zeros((C, 1 << Q), dtype=complex)
    psi[:, 0] = 1.0
    out = np.empty_like(psi)
    for layer in range(L + 1):
        for q in range(Q):
            u00, u01, u10, u11 = gates[:, :, layer * Q + q]
            view = psi.reshape(C, 1 << (Q - 1 - q), 2, 1 << q)
            dest = out.reshape(C, 1 << (Q - 1 - q), 2, 1 << q)
            lo, hi = view[:, :, 0, :], view[:, :, 1, :]
            dest[:, :, 0, :] = u00 * lo - u01 * hi
            dest[:, :, 1, :] = u10 * lo + u11 * hi
            psi, out = out, psi
        if layer < L and cz_total is not None:
            psi *= cz_total
    return psi


def apply_ansatz(spec: AnsatzSpec, params) -> np.ndarray:
    """Statevector prepared by the circuit from |0...0>."""
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.n_params,):
        raise ParamLengthMismatch(
            f"got {params.shape}, ansatz {spec} needs ({spec.n_params},)"
        )
    return _propagate(spec, params[None, :])[0]


def _word_action(qubits: int, digits) -> tuple[int, np.ndarray]:
    """XOR mask and per-basis-state phase of one Pauli word.

    S|j> = phase[j] |j ^ mask>: X and Y flip their bit, Y contributes
    i*(-1)^bit and Z contributes (-1)^bit.
    """
    basis = np.arange(1 << qubits)
    mask = 0
    phase = np.ones(1 << qubits, dtype=complex)
    for n, d in enumerate(reversed(digits)):  # digit n acts on qubit n
        bit = (basis >> n) & 1
        if d in (1, 2):
            mask |= 1 << n
        if d == 2:
            phase = phase * (1j * (1.0 - 2.0 * bit))
        elif d == 3:
            phase = phase * (1.0 - 2.0 * bit)
    return mask, phase


def _word_expectations(state: np.ndarray, c: PauliCoefficients) -> np.ndarray:
    """<state| S^q |state> for every word with a nonzero coefficient."""
    Q = c.qubits
    basis = np.arange(1 << Q)
    out = np.zeros(4**Q)
    for q in range(4**Q):
        if c.coeffs[q] == 0.0 and q != 0:
            continue
        digits = tuple((q >> (2 * n)) & 3 for n in reversed(range(Q)))
        mask, phase = _word_action(Q, digits)
        flipped = (phase * state)[basis ^ mask]
        out[q] = np.vdot(state, flipped).real
    return out


def energy(state, c: PauliCoefficients) -> float:
    """Expectation of the Pauli-sum operator in the given state.

    Words act through an XOR mask and a phase vector, so each term costs
    O(2^Q) and the words themselves are never materialized.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << c.qubits,):
        raise DimensionMismatch(f"state {state.shape} vs {c.qubits} qubits")
    return float(c.coeffs @ _word_expectations(state, c))


def sampled_energy(state, c: PauliCoefficients, shots: int, seed: int = 0):
    """Finite-shot estimate of the energy, term by term.

    Each non-identity word is measured ``shots`` times as a +/-1
    variable with the exact expectation; the identity coefficient enters
    exactly.  Returns (estimate, standard_error) with the standard error
    combined across terms in quadrature.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    state = np.asarray(state, dtype=complex)
    if state.shape != (1 << c.qubits,):
        raise DimensionMismatch(f"state {state.shape} vs {c.qubits} qubits")
    rng = np.random.default_rng(seed)
    exps = np.clip(_word_expectations(state, c), -1.0, 1.0)
    estimate = c.coeffs[0]
    var = 0.0
    for q in range(1, 4**c.qubits):
        if c.coeffs[q] == 0.0:
            continue
        ones = rng.binomial(shots, (1.0 + exps[q]) / 2.0)
        mean = (2.0 * ones - shots) / shots
        estimate += c.coeffs[q] * mean
        if shots > 1:
            var += c.coeffs[q] ** 2 * (1.0 - mean**2) / (shots - 1)
    return float(estimate), float(np.sqrt(var))


def _params_hash(params: np.ndarray) -> str:
    return hashlib.sha256(params.tobytes()).hexdigest()[:16]


def _line_min(fbatch, x, d, fx):
    """Batched grid line minimization along d; returns (step, energy) or None.

    One coarse pass of 12 log-spaced steps around the quasi-Newton step
    length 1 (with a finer fallback pass down to 1e-7 when none of them
    descends), one linear refinement around the coarse winner, and a
    parabolic polish through the refined triple.  All candidates of a
    pass are evaluated in a single batched propagation, so the whole
    search costs about two gradient-free energy evaluations.
    """
    steps = np.geomspace(1.0 / 32.0, 4.0, 12)
    vals = fbatch(x[None, :] + steps[:, None] * d[None, :])
    i = int(np.argmin(vals))
    if vals[i] >= fx:  # nothing below fx at coarse scale; probe far smaller
        steps = np.geomspace(1e-7, 1.0 / 64.0, 10)
        vals = fbatch(x[None, :] + steps[:, None] * d[None, :])
        i = int(np.argmin(vals))
        if vals[i] >= fx:
            return None
    lo = steps[i - 1] if i > 0 else steps[0] / 4.0
    hi = steps[i + 1] if i < steps.size - 1 else steps[-1] * 2.0
    fine = np.linspace(lo, hi, 10)
    fvals = fbatch(x[None, :] + fine[:, None] * d[None, :])
    j = int(np.argmin(fvals))
    if fvals[j] < vals[i]:
        best_step, best_val = fine[j], fvals[j]
    else:
        best_step, best_val = steps[i], vals[i]
    if 0 < j < fine.size - 1:
        left, mid, right = fvals[j - 1], fvals[j], fvals[j + 1]
        curvature = left - 2.0 * mid + right
        if curvature > 0.0:
            polished = fine[j] + 0.5 * (left - right) / curvature * (fine[1] - fine[0])
            val = fbatch((x + polished * d)[None, :])[0]
            if val < best_val:
                best_step, best_val = polished, val
    return float(best_step), float(best_val)


def minimize(spec: AnsatzSpec, c: PauliCoefficients, cfg: OptimizerConfig, initial=None) -> MinimizeResult:
    """Minimize the Pauli-sum energy over the ansatz parameters by BFGS.

    The gradient is the exact parameter-shift rule: every gate angle
    enters the state through a half-angle rotation, so the energy is
    a + b*cos(t) + c*sin(t) in any one angle t and
    dE/dt_k = (E(t + pi/2 e_k) - E(t - pi/2 e_k)) / 2, all 2P shifted
    energies coming from one batched propagation.  Steps are taken with
    the batched grid line search; the inverse-Hessian estimate is reset
    to the identity when its direction does not descend or the search
    along it finds nothing, and the run returns once a search along the
    steepest-descent direction finds nothing either.  The trace records
    (iteration, energy, gradient_norm, params_hash) rows ready for
    JSON-lines serialization.

    Raises StalledOptimization -- carrying the best parameters, energy
    and trace -- when max_iter iterations pass without that happening,
    i.e. the run was cut off rather than finished.
    """
    if spec.qubits != c.qubits:
        raise SpecMismatch(f"ansatz on {spec.qubits} qubits, coefficients on {c.qubits}")
    if initial is None:
        rng = np.random.default_rng(cfg.seed)
        x = rng.normal(0.0, 0.3, size=spec.n_params)
    else:
        x = np.asarray(initial, dtype=float).copy()
        if x.shape != (spec.n_params,):
            raise ParamLengthMismatch(f"initial {x.shape} vs ({spec.n_params},)")
    H = reconstruct(c)
    P = spec.n_params
    shifts = np.concatenate([np.eye(P), -np.eye(P)]) * (np.pi / 2.0)

    def fbatch(batch):
        psi = _propagate(spec, batch)
        return ((psi.conj() @ H) * psi).sum(axis=1).real

    def grad(p):
        vals = fbatch(p[None, :] + shifts)
        return 0.5 * (vals[:P] - vals[P:])

    fx = float(fbatch(x[None, :])[0])
    g = grad(x)
    hinv = np.eye(P)
    trace: list = []
    for it in range(cfg.max_iter):
        gnorm = float(np.linalg.norm(g))
        trace.append({"iteration": it, "energy": fx, "gradient_norm": gnorm, "params_hash": _params_hash(x)})
        d = -hinv @ g
        if g @ d >= 0.0:  # lost descent; fall back to steepest descent
            hinv = np.eye(P)
            d = -g
        found = _line_min(fbatch, x, d, fx)
        if found is None:
            if not np.any(d + g):  # already searching along -g: converged
                return MinimizeResult(x, fx, trace)
            hinv = np.eye(P)
            continue
        step, fx = found
        s = step * d
        x = x + s
        gnew = grad(x)
        y = gnew - g
        g = gnew
        sy = s @ y
        if sy > 0.0:  # BFGS update, skipped where the curvature condition fails
            hy = hinv @ y
            hinv += ((sy + y @ hy) * np.outer(s, s) / sy - np.outer(s, hy) - np.outer(hy, s)) / sy
    raise StalledOptimization(
        f"no convergence within max_iter={cfg.max_iter} iterations "
        f"(gradient norm {np.linalg.norm(g):.3e})",
        params=x,
        energy=fx,
        trace=trace,
    )


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
    out = np.zeros(spec_to.n_params)
    for layer in range(spec_from.layers + 1):
        for q in range(spec_from.qubits):
            src = 2 * (layer * spec_from.qubits + q)
            dst = 2 * (layer * spec_to.qubits + q)
            out[dst : dst + 2] = params[src : src + 2]
    return out


def warm_started_chain(coeff_list, layers: int, cfg: OptimizerConfig, restarts: int = 5):
    """Optimize a nested family of operators with warm-started inits.

    ``coeff_list`` holds PauliCoefficients for Q = 1, 2, ... qubits in
    order.  Each stage starts from the previous optimum embedded one
    qubit up (the first from the seeded random point minimize draws);
    when a run stalls it is retried up to ``restarts`` times from seeded
    perturbations of the best parameters so far, wider with every retry,
    keeping the best result seen.  Returns a list of MinimizeResult.
    """
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
            try:
                res = minimize(spec, c, cfg, initial=x0)
            except StalledOptimization as stall:
                res = MinimizeResult(stall.params, stall.energy, stall.trace)
                if best is None or res.energy < best.energy:
                    best = res
                x0 = best.params + rng.normal(0.0, 0.1 * (attempt + 1), size=spec.n_params)
                continue
            if best is None or res.energy < best.energy:
                best = res
            break
        results.append(best)
        prev = best
    return results


def trace_to_jsonl(trace, path) -> None:
    """Append-free JSON-lines dump of a minimize trace."""
    with open(path, "w") as fh:
        for row in trace:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
