"""The four benchmark workloads.

Each workload has three parts:

* ``build(seed)`` makes the inputs (timed as set-up);
* ``run(zv, inp)`` is one pass: it calls the zetavac layers, through the
  namespace ``zv`` from ``tracing.library``, in the order of the CLI
  subcommand it mirrors, and returns the raw outputs;
* ``check(inp, out)`` runs outside the timed pass.  It returns one
  ``(result, ok)`` verdict per checked result and the count metrics the
  outputs carry.

A result is one ground energy, one R(z) sample, one VQE stage or one
probe series (plus the few scalar checks named below).  A result whose
computation raised is kept as a ``Failed`` and its verdict is false.
Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in NOTES.md.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.special import digamma, polygamma

import zetavac


class Failed:
    """Stands in for a result whose computation raised."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def __repr__(self):
        return f"Failed({type(self.exc).__name__}: {self.exc})"


def attempt(fn, *args, **kwargs):
    # A raising result is recorded as failed and the pass goes on, so one
    # bad result cannot hide the verdicts of the others.
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return Failed(exc)


def ok(value) -> bool:
    return not isinstance(value, Failed)


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


# -- convergence_sweep: `zetavac hydrogen-convergence` with its defaults ----

CONV_DIMS = list(range(50, 1001, 50))
CONV_REF = 1050
CONV_RATE = 0.00644


def build_convergence(seed: int):
    # The sweep has no random input; the seed is ignored.
    return SimpleNamespace(dims=CONV_DIMS, n_ref=CONV_REF, exact_ref=None)


def run_convergence(zv, inp):
    params = zv.HydrogenParams()
    energies = [
        attempt(lambda n=n: zv.vacuum_state(zv.hydrogen_matrix(n, params)).energy)
        for n in inp.dims
    ]
    reference = attempt(lambda: zv.vacuum_state(zv.hydrogen_matrix(inp.n_ref, params)).energy)

    def fit():
        series = zv.ConvergenceSeries(np.array(inp.dims), np.array(energies), reference)
        errs = zv.relative_errors(series)
        return zv.fit_exponential_window(np.array(inp.dims, dtype=float), errs).fit

    return SimpleNamespace(energies=energies, reference=reference, fit=attempt(fit))


def check_convergence(inp, out):
    if inp.exact_ref is None:  # once per run, never inside a timed pass
        inp.exact_ref = float(np.linalg.eigvalsh(zetavac.hydrogen_matrix(inp.n_ref))[0])
    ref = out.reference
    verdicts = [("reference", ok(ref) and _rel(ref, inp.exact_ref) <= 1e-9)]
    prev = None
    for n, e in zip(inp.dims, out.energies):
        good = ok(e) and ok(ref) and e >= ref and (prev is None or e <= prev)
        verdicts.append((f"energy.n{n}", good))
        prev = e if ok(e) else prev
    verdicts.append(
        ("fit_rate", ok(out.fit) and abs(out.fit.rate - CONV_RATE) <= 0.15 * CONV_RATE)
    )
    return verdicts, {}


# -- gauge_scan: `zetavac zeta` on seeded z points, plus free-field checks --

GAUGE_SIZES = (64, 128, 256, 512)
GAUGE_POINTS = 49
DAMPED_N = 64
DAMPED_T = np.arange(500.0, 4001.0, 500.0)
DAMPED_EPS = 0.05
FF_N_MAX = 5
FF_T = [10.0, 100.0, 1000.0, 10000.0, 100000.0]
FF_Z = np.linspace(-2.5, 2.2, 50)


def build_gauge(seed: int):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.5, 0.5, GAUGE_POINTS) + 1j * rng.uniform(-0.5, 0.5, GAUGE_POINTS)
    return SimpleNamespace(z=z)


def run_gauge(zv, inp):
    params = zv.HydrogenParams()
    grid = zv.ZGrid(inp.z)
    sizes = {}
    for n in GAUGE_SIZES:
        H = zv.hydrogen_matrix(n, params)
        X = zv.position_matrix(n)
        system = zv.eig_hermitian(H)
        samples = {
            label: [attempt(zv.gauge_ratio, H, A, z, system=system) for z in grid.points]
            for label, A in (("H", H), ("x", X))
        }
        zeros = attempt(zv.denominator_zero_scan, H, grid, system=system)
        sizes[n] = SimpleNamespace(H=H, X=X, system=system, samples=samples, zeros=zeros)

    small = sizes[DAMPED_N]
    damped = {
        label: [
            attempt(zv.damped_trace_ratio, small.H, A, 0.0, T, DAMPED_EPS, system=small.system)
            for T in DAMPED_T
        ]
        for label, A in (("H", small.H), ("x", small.X))
    }

    # Free-field closed form and Fock series, as `zetavac zeta` checks them.
    def freefield():
        max_rel, mags = 0.0, []
        for N in range(1, FF_N_MAX + 1):
            for T in FF_T:
                mags.append(abs(zv.freefield_zeta_ratio(zv.FreeFieldParams(N=N, T=T))))
            for z in FF_Z:
                val = zv.freefield_zeta_ratio(zv.FreeFieldParams(N=N, T=1000.0, z=complex(z)))
                target = N * (z + 3.0) / (1j * 1000.0)
                max_rel = max(max_rel, abs(val - target) / abs(target))
        slope = float(np.polyfit(np.log(FF_T), np.log(mags[: len(FF_T)]), 1)[0])
        return max_rel, slope

    ff = attempt(freefield)
    fock = attempt(zv.fock_zeta_ratio, 0.0, 1e6, 40, full_output=True)
    return SimpleNamespace(sizes=sizes, damped=damped, freefield=ff, fock=fock)


def check_gauge(inp, out):
    verdicts = []
    attempted = excluded = 0
    for n, s in out.sizes.items():
        psi = s.system.vectors[:, 0]
        for label, A in (("H", s.H), ("x", s.X)):
            direct = complex(np.vdot(psi, A @ psi))
            for i, sample in enumerate(s.samples[label]):
                attempted += 1
                if not ok(sample):
                    excluded += type(sample.exc).__name__ == "DenominatorNearZero"
                good = ok(sample) and _rel(sample.ratio, direct) <= 1e-9
                verdicts.append((f"ratio.n{n}.{label}.z{i}", good))
        verdicts.append((f"zero_scan.n{n}", ok(s.zeros) and s.zeros.size == 0))
    small = out.sizes[DAMPED_N]
    psi = small.system.vectors[:, 0]
    for label, A in (("H", small.H), ("x", small.X)):
        direct = complex(np.vdot(psi, A @ psi))
        series = out.damped[label]
        good = all(map(ok, series)) and _rel(series[-1], direct) <= 1e-9
        verdicts.append((f"damped.{label}", good))
    ff = out.freefield
    verdicts.append(("freefield.identity", ok(ff) and ff[0] <= 1e-12))
    verdicts.append(("freefield.t_slope", ok(ff) and abs(ff[1] + 1.0) <= 0.01))
    good = ok(out.fock) and abs(out.fock[0]) + out.fock[1]["ratio_error_bound"] <= 1e-5
    verdicts.append(("fock", good))
    return verdicts, {"gauge.excluded_frac": excluded / attempted}


# -- vqe_chain: `zetavac vqe --set q_max=4` with shot-sampled energies ------

VQE_Q_MAX = 4
VQE_LAYERS = 8
VQE_RESTARTS = 5
# Fixed, not taken from --seed: the optimizer start sets the cost of the
# chain (1878 CG iterations at Q=4 for start 0, 2037-2861 for starts 1-3),
# and a 3-standard-error check on seed-drawn shots fails by chance in about
# one stage in 370.  See NOTES.md.
VQE_OPT_SEED = 0
VQE_SHOTS = 20000


def build_vqe(seed: int):
    return SimpleNamespace()


def run_vqe(zv, inp):
    params = zv.HydrogenParams()
    coeffs, exact = [], []
    for Q in range(1, VQE_Q_MAX + 1):
        H = zv.hydrogen_matrix(1 << Q, params)
        coeffs.append(zv.decompose(H))
        exact.append(float(zv.eig_hermitian(H).eigenvalues[0]))
    cfg = zv.OptimizerConfig(seed=VQE_OPT_SEED)
    chain = attempt(zv.warm_started_chain, coeffs, VQE_LAYERS, cfg, restarts=VQE_RESTARTS)
    sampled = []
    if ok(chain):
        for Q, res in enumerate(chain, 1):
            state = zv.apply_ansatz(zv.AnsatzSpec(Q, VQE_LAYERS), res.params)
            sampled.append(attempt(zv.sampled_energy, state, coeffs[Q - 1], VQE_SHOTS, seed=Q))
    return SimpleNamespace(exact=exact, chain=chain, sampled=sampled)


def check_vqe(inp, out):
    verdicts, counts = [], {}
    for Q in range(1, VQE_Q_MAX + 1):
        good = ok(out.chain) and ok(out.sampled[Q - 1])
        if good:
            res = out.chain[Q - 1]
            est, err = out.sampled[Q - 1]
            counts[f"vqe.cg_iterations.q{Q}"] = len(res.trace)
            # 1e-12 absorbs a zero standard error, as `zetavac vqe --check` does
            good = (abs(res.energy - out.exact[Q - 1]) <= 1e-6
                    and abs(est - res.energy) <= 3.0 * err + 1e-12)
        verdicts.append((f"stage.q{Q}", good))
    return verdicts, counts


# -- probe_suite: `zetavac lemma-probes` at n_ref=512, Pauli round trip Q=10

PROBE_N_REF = 512
PROBE_N = [8, 16, 32, 64, 128, 256]
PAULI_Q = 10


def _smooth_probe(n: int) -> np.ndarray:
    """Unit vector of (1 + cos x)^2 Fourier coefficients, zero beyond 5 modes."""
    x = np.zeros(n, dtype=complex)
    x[:5] = [1.5, 1.0, 1.0, 0.25, 0.25]
    return x / np.linalg.norm(x)


def _sobolev_tail(n: int, n_ref: int) -> float:
    """sum of 1/(1+k^2) over the modes at ordered positions n..n_ref-1.

    Positive modes sit at even positions and negative ones at odd
    positions; each range is summed with
    sum_{m=a}^{b} 1/(1+m^2) = Im[psi(a+i) - psi(b+1+i)].
    """
    total = 0.0
    for a, b in (((n + 1) // 2, (n_ref - 1) // 2), ((n + 2) // 2, n_ref // 2)):
        if b >= a:
            total += float((digamma(a + 1j) - digamma(b + 1 + 1j)).imag)
    return total


def build_probe(seed: int):
    # The probe series have no random input; the seed is ignored.
    n = np.array(PROBE_N, dtype=float)
    return SimpleNamespace(
        smooth=_smooth_probe(PROBE_N_REF),
        sobolev_oracle=np.array([_sobolev_tail(m, PROBE_N_REF) for m in PROBE_N]),
        invsq_oracle=polygamma(1, n + 1.0) - polygamma(1, PROBE_N_REF + 1.0),
    )


def run_probe(zv, inp):
    params = zv.HydrogenParams()
    H = zv.hydrogen_matrix(PROBE_N_REF, params)
    vac = zv.vacuum_state(H).state
    strong = {
        "identity": attempt(zv.strong_convergence_probe, np.eye(PROBE_N_REF), vac, PROBE_N),
        "hamiltonian": attempt(zv.strong_convergence_probe, H, vac, PROBE_N),
        "position": attempt(
            zv.strong_convergence_probe, zv.position_matrix(PROBE_N_REF), inp.smooth, PROBE_N
        ),
    }

    def id_element(l, k):
        return 1.0 if l == k else 0.0

    def invsq_element(l, k):
        return 1.0 / (zv.index_of_mode(k) + 1) ** 2 if l == k else 0.0

    schatten = {
        "sobolev": attempt(zv.schatten_convergence_probe, id_element, zv.SobolevWeight(1.0),
                           PROBE_N, n_ref=PROBE_N_REF),
        "inverse_squares": attempt(zv.schatten_convergence_probe, invsq_element,
                                   zv.SobolevWeight(0.0), PROBE_N, n_ref=PROBE_N_REF),
    }
    M = zv.hydrogen_matrix(1 << PAULI_Q, params)
    back = attempt(lambda: zv.reconstruct(zv.decompose(M)))
    return SimpleNamespace(strong=strong, schatten=schatten, M=M, back=back)


def check_probe(inp, out):
    verdicts = [
        (f"strong.{name}", ok(r) and bool(np.all(np.diff(r) < 0)))
        for name, r in out.strong.items()
    ]
    for name, oracle in (("sobolev", inp.sobolev_oracle), ("inverse_squares", inp.invsq_oracle)):
        r = out.schatten[name]
        verdicts.append((f"schatten.{name}", ok(r) and np.abs(r - oracle).max() <= 1e-10))
    scale = np.abs(out.M).max()
    good = ok(out.back) and np.abs(out.back - out.M).max() <= 1e-14 * scale
    verdicts.append((f"pauli_round_trip.q{PAULI_Q}", good))
    return verdicts, {}


WORKLOADS = {
    "convergence_sweep": (build_convergence, run_convergence, check_convergence),
    "gauge_scan": (build_gauge, run_gauge, check_gauge),
    "vqe_chain": (build_vqe, run_vqe, check_vqe),
    "probe_suite": (build_probe, run_probe, check_probe),
}
