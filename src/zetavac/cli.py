"""Command-line driver: experiment subcommands with deterministic outputs.

Subcommands: hydrogen-convergence, vqe, zeta, pauli-export, lemma-probes.
Every output file starts with a header block carrying the config hash and
package version, and repeated runs with the same config and seed produce
byte-identical files.  Exit codes: 0 success, 2 config error, 3 numeric
failure, 4 acceptance-check failure (with --check).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import sys

import numpy as np
from scipy.special import polygamma

from . import __version__
from .analysis import ConvergenceSeries, fit_exponential_window, relative_errors
from .errors import DegenerateFit
from .gauge import ZGrid, ratio_convergence_scan
from .models import (
    HydrogenParams,
    FreeFieldParams,
    fock_zeta_ratio,
    freefield_zeta_ratio,
    hydrogen_matrix,
    position_matrix,
)
from .pauli import decompose, reconstruct
from .truncation import (
    SobolevWeight,
    index_of_mode,
    schatten_convergence_probe,
    strong_convergence_probe,
    vacuum_state,
)
from .vqe import AnsatzSpec, OptimizerConfig, apply_ansatz, sampled_energy, warm_started_chain


class ConfigError(Exception):
    """Bad config file or option value."""


class CheckFailure(Exception):
    """An acceptance check requested via --check did not hold."""


_DEFAULTS = {
    "hydrogen-convergence": {
        "mode": "dimension",
        "m": 1.0,
        "q": 1.0,
        "n_start": 50,
        "n_stop": 1000,
        "n_step": 50,
        "n_ref": 1050,
        "q_max": 11,
        "q_ref": 12,
    },
    "vqe": {
        "m": 1.0,
        "q": 1.0,
        "q_max": 5,
        "layers": 8,
        "max_iter": 25000,
        "restarts": 5,
        "shots": 0,
    },
    "zeta": {
        "m": 1.0,
        "q": 1.0,
        "observable": "hamiltonian",
        "n_list": [8, 16, 32, 64],
        "z_re_min": -0.5,
        "z_re_max": 0.5,
        "z_re_points": 3,
        "z_im_min": -0.5,
        "z_im_max": 0.5,
        "z_im_points": 3,
        "ff_n_max": 5,
        "ff_t_list": [10.0, 100.0, 1000.0, 10000.0, 100000.0],
        "ff_z_points": 50,
        "fock_t": 1000000.0,
        "fock_cutoff": 40,
    },
    "pauli-export": {"m": 1.0, "q": 1.0, "qubits": 3},
    "lemma-probes": {
        "m": 1.0,
        "q": 1.0,
        "n_ref": 512,
        "n_list": [8, 16, 32, 64, 128, 256],
        "sobolev_s": 1.0,
    },
}


def _parse_value(text: str, default, where: str):
    """One config value, read as the type of its key's default; ``where`` prefixes errors.

    A string may be quoted or not; a float key takes a finite int or float
    (an int literal stays an int, so config hashes keep); a list is bracketed
    and its elements take the type of the default's (no list default is empty).
    """
    if isinstance(default, list):
        if not text.startswith("["):
            raise ConfigError(f"{where}: expected a bracketed list, got {text!r}")
        if not text.endswith("]"):
            raise ConfigError(f"{where}: unterminated list {text!r}")
        inner = text[1:-1].strip()
        return [_parse_value(t.strip(), default[0], where) for t in inner.split(",")] if inner else []
    if isinstance(default, str):
        return text[1:-1] if len(text) >= 2 and text[0] == text[-1] == '"' else text
    try:
        return int(text)
    except ValueError:
        if isinstance(default, int):
            raise ConfigError(f"{where}: expected an int, got {text!r}") from None
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {text!r}")
    return value


def parse_config_text(text: str) -> dict:
    """Split the key = value config dialect into keys and the raw text of their values."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line, quoted = raw, False
        for i, ch in enumerate(raw):  # a "#" outside double quotes starts a comment
            quoted ^= ch == '"'
            if ch == "#" and not quoted:
                line = raw[:i]
                break
        line = line.strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = val
    return out


def _effective_config(command: str, args) -> dict:
    defaults = dict(_DEFAULTS[command], seed=0)
    cfg = dict(defaults)
    items = []
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        items += [(key, val, f"{args.config}: {key}") for key, val in parse_config_text(text).items()]
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        items.append((key, val, f"--set {key}"))
    for key, val, where in items:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r} for {command}")
        cfg[key] = _parse_value(val, defaults[key], where)  # a repeated key too
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg["seed"] < 0:  # NumPy seeds only from non-negative integers
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


def _hydrogen_params(cfg) -> HydrogenParams:
    """The model of ``m`` and ``q``; a value out of range is a config error."""
    try:
        return HydrogenParams(m=cfg["m"], q=cfg["q"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sizes(cfg) -> list:
    """``n_list`` of ``zeta`` and ``lemma-probes``: non-empty, positive, strictly increasing."""
    n_list = cfg["n_list"]
    if not n_list or n_list[0] < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(f"n_list must be non-empty, positive and strictly increasing, got {n_list}")
    return n_list


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_outputs(out_dir, cfg: dict, files: dict) -> None:
    """Write a run's files, named by the keys of ``files``, into ``out_dir``.

    The suffix picks the format: ``.csv`` takes (columns, rows) under a
    header block, ``.json`` a payload stamped with the config hash and
    package version, ``.jsonl`` rows only, one JSON object a line.  Each
    command calls this once, after its last computation, and the output
    directory is made here, so a run that fails leaves nothing behind.
    """
    cfg_hash = _config_hash(cfg)
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            if name.endswith(".csv"):
                columns, rows = content
                fh.write(f"# config_hash: {cfg_hash}\n# version: {__version__}\n")
                w = csv.writer(fh)
                w.writerow(columns)
                w.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
            elif name.endswith(".jsonl"):
                fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in content)
            else:
                json.dump(dict(content, config_hash=cfg_hash, version=__version__), fh, sort_keys=True, indent=2)
                fh.write("\n")


# --check bound on every vacuum's ||H psi - E psi||_2 / max|H|.  The solver
# stops at 1e-14, and the hydrogen matrices up to n = 4096 reach at most
# 8.8e-15, so a value above this bound is a solver failure, not rounding.
_VACUUM_RESIDUAL_BOUND = 1e-12


def cmd_hydrogen_convergence(cfg, out_dir, check) -> int:
    params = _hydrogen_params(cfg)
    if cfg["mode"] == "dimension":
        if cfg["n_step"] < 1 or not 1 <= cfg["n_start"] <= cfg["n_stop"]:
            raise ConfigError("need n_step >= 1 and 1 <= n_start <= n_stop")
        abscissa = list(range(cfg["n_start"], cfg["n_stop"] + 1, cfg["n_step"]))
        dims = abscissa
        if cfg["n_ref"] <= dims[-1]:
            raise ConfigError(f"n_ref must exceed the largest swept size {dims[-1]}, got {cfg['n_ref']}")
        ref_dim, expected_rate = cfg["n_ref"], 0.00644
    elif cfg["mode"] == "qubits":
        if not 1 <= cfg["q_max"] < cfg["q_ref"]:
            raise ConfigError(f"need 1 <= q_max < q_ref, got {cfg['q_max']} and {cfg['q_ref']}")
        abscissa = list(range(1, cfg["q_max"] + 1))
        dims = [1 << a for a in abscissa]
        ref_dim, expected_rate = 1 << cfg["q_ref"], 1.92
    else:
        raise ConfigError(f"mode must be 'dimension' or 'qubits', got {cfg['mode']!r}")
    vacua = [vacuum_state(hydrogen_matrix(n, params)) for n in dims + [ref_dim]]
    energies = [v.energy for v in vacua[:-1]]
    reference = vacua[-1].energy
    series = ConvergenceSeries(np.array(abscissa), np.array(energies), reference)
    errs = relative_errors(series)
    worst = max(vacua, key=lambda v: v.residual)
    slowest = max(vacua, key=lambda v: v.iterations)
    fit_payload = {
        "reference_abscissa": ref_dim,
        "reference_energy": reference,
        "max_vacuum_residual": worst.residual,
        "max_vacuum_iterations": slowest.iterations,
        "max_certificate_block": max(v.certificate_block for v in vacua),
    }
    try:
        window = fit_exponential_window(np.array(abscissa, dtype=float), errs)
        fit = window.fit
        fit_payload.update(
            a=fit.amplitude,
            b=fit.rate,
            r_squared=fit.r_squared,
            window_lo=abscissa[window.start],
            window_hi=abscissa[window.stop - 1],
            window_points=window.stop - window.start,
        )
    except DegenerateFit as exc:
        print(f"warning: fit skipped ({exc})", file=sys.stderr)
        fit = None
    _write_outputs(out_dir, cfg, {
        "convergence.csv": (
            ["abscissa", "energy", "rel_error"],
            [(a, float(e), float(r)) for a, e, r in zip(abscissa, energies, errs)],
        ),
        "fit.json": fit_payload,
    })
    if check:
        if worst.residual > _VACUUM_RESIDUAL_BOUND:
            raise CheckFailure(
                f"vacuum residual {worst.residual:.3e} at n={worst.n} "
                f"above {_VACUUM_RESIDUAL_BOUND:.0e} (most solver iterations: "
                f"{slowest.iterations} at n={slowest.n})"
            )
        if fit is None:
            raise CheckFailure("no exponential fit available")
        if abs(fit.rate - expected_rate) > 0.15 * expected_rate:
            raise CheckFailure(
                f"fit rate {fit.rate:.5f} outside 15% of {expected_rate}"
            )
    return 0


def cmd_vqe(cfg, out_dir, check) -> int:
    if not 1 <= cfg["q_max"] <= 12 or cfg["layers"] < 1:
        raise ConfigError("need layers >= 1 and q_max in 1..12 (the 12-qubit statevector guard)")
    if cfg["max_iter"] < 1 or cfg["restarts"] < 0:
        raise ConfigError(f"need max_iter >= 1 and restarts >= 0, got {cfg['max_iter']} and {cfg['restarts']}")
    if cfg["shots"] < 0 or cfg["shots"] == 1:
        raise ConfigError(f"shots must be 0 (off) or at least 2 for a standard error, got {cfg['shots']}")
    params = _hydrogen_params(cfg)
    opt = OptimizerConfig(seed=cfg["seed"], max_iter=cfg["max_iter"])
    coeff_list, exact = [], []
    for Q in range(1, cfg["q_max"] + 1):
        H = hydrogen_matrix(1 << Q, params)
        coeff_list.append(decompose(H))
        exact.append(vacuum_state(H).energy)
    results = warm_started_chain(coeff_list, cfg["layers"], opt, restarts=cfg["restarts"])
    rows = []
    for Q, res, e0 in zip(range(1, cfg["q_max"] + 1), results, exact):
        row = {"qubits": Q, "exact": e0, "vqe": res.energy, "deviation": res.energy - e0,
               "exit": "converged" if res.converged else "max_iter",
               "iterations": len(res.trace), "gradient_norm": res.trace[-1]["gradient_norm"]}
        if cfg["shots"] > 0:
            state = apply_ansatz(AnsatzSpec(Q, cfg["layers"]), res.params)
            est, err = sampled_energy(state, coeff_list[Q - 1], cfg["shots"], seed=cfg["seed"] + Q)
            row["sampled"] = est
            row["stderr"] = err
        rows.append(row)
    _write_outputs(out_dir, cfg, {
        "iterations.jsonl": [dict(entry, qubits=Q) for Q, res in enumerate(results, 1) for entry in res.trace],
        "vqe_results.json": {"rows": rows},
    })
    if check:
        bad = [r for r in rows if abs(r["deviation"]) > 1e-6]
        if bad:
            raise CheckFailure(f"deviations above 1e-6 at Q={[r['qubits'] for r in bad]}")
        if cfg["shots"] > 0:
            for r in rows:
                slack = 3.0 * r["stderr"] + 1e-12
                if abs(r["sampled"] - r["vqe"]) > slack:
                    raise CheckFailure(f"sampled energy off by >3 stderr at Q={r['qubits']}")
    return 0


def cmd_zeta(cfg, out_dir, check) -> int:
    n_list = _sizes(cfg)
    if min(cfg["z_re_points"], cfg["z_im_points"], cfg["ff_z_points"], cfg["ff_n_max"]) < 1:
        raise ConfigError("need z_re_points, z_im_points, ff_z_points and ff_n_max at least 1")
    times = cfg["ff_t_list"]
    if len(set(times)) < 2 or min(times) <= 0 or cfg["fock_t"] <= 0 or cfg["fock_cutoff"] < 10:
        raise ConfigError("need two distinct positive ff_t_list times (the slope), fock_t > 0, fock_cutoff >= 10")
    params = _hydrogen_params(cfg)
    observables = {"hamiltonian": lambda n: hydrogen_matrix(n, params), "position": position_matrix}
    if cfg["observable"] not in observables:
        raise ConfigError(f"observable must be hamiltonian or position, got {cfg['observable']!r}")
    z_re = np.linspace(cfg["z_re_min"], cfg["z_re_max"], cfg["z_re_points"])
    z_im = np.linspace(cfg["z_im_min"], cfg["z_im_max"], cfg["z_im_points"])
    try:
        grid = ZGrid(np.array([re + 1j * im for re in z_re for im in z_im]))
    except ValueError as exc:  # repeated points come from the grid keys
        raise ConfigError(f"z grid: {exc}") from exc
    scan = ratio_convergence_scan(observables["hamiltonian"], observables[cfg["observable"]], grid, n_list)
    rows = []
    for n, ratio_row, den_row in zip(n_list, scan["ratios"], scan["denominators"]):
        for z, r, d in zip(grid.points, ratio_row, den_row):
            collapsed = bool(np.isnan(r))  # the denominator collapsed at this size
            rows.append((n, float(z.real), float(z.imag), float(r.real), float(r.imag),
                         0.0 if collapsed else float(abs(d)), int(collapsed)))

    # Free-field closed form: identity against N*(z+3)/(iT), T-scaling slope.
    z_grid = np.linspace(-2.5, 2.2, cfg["ff_z_points"])
    max_rel = 0.0
    ff_rows = []
    for N in range(1, cfg["ff_n_max"] + 1):
        for T in cfg["ff_t_list"]:
            val = freefield_zeta_ratio(FreeFieldParams(N=N, T=T))
            ff_rows.append({"N": N, "T": T, "magnitude": abs(val)})
        for z in z_grid:
            val = freefield_zeta_ratio(FreeFieldParams(N=N, T=1000.0, z=complex(z)))
            target = N * (z + 3.0) / (1j * 1000.0)
            max_rel = max(max_rel, abs(val - target) / abs(target))
    mags = [r["magnitude"] for r in ff_rows if r["N"] == 1]
    slope = np.polyfit(np.log(cfg["ff_t_list"]), np.log(mags), 1)[0]
    fock_val, fock_diag = fock_zeta_ratio(0.0, cfg["fock_t"], cfg["fock_cutoff"], full_output=True)
    payload = {
        "freefield_rows": ff_rows,
        "identity_max_rel_err": max_rel,
        "t_scaling_slope": float(slope),
        "fock": {
            "T": cfg["fock_t"],
            "cutoff": cfg["fock_cutoff"],
            "ratio_re": fock_val.real,
            "ratio_im": fock_val.imag,
            "magnitude": abs(fock_val),
            "tail_error_bound": fock_diag["ratio_error_bound"],
        },
    }
    _write_outputs(out_dir, cfg, {
        "zeta_grid.csv": (["n", "z_re", "z_im", "ratio_re", "ratio_im", "denom_abs", "excluded"], rows),
        "freefield.json": payload,
    })
    if check:
        empty = np.isnan(scan["ratios"]).all(axis=1)
        if empty.any():  # the identity below would compare nothing at that size
            raise CheckFailure(f"every denominator collapsed at n={n_list[empty.argmax()]}: no R(z) to check")
        direct = scan["expectations"][:, None]
        off_identity = np.argwhere(np.abs(scan["ratios"] - direct) > 1e-9 * np.abs(direct))
        if off_identity.size:
            i, j = off_identity[0]
            raise CheckFailure(
                f"R(z) differs from <psi, A psi> by more than 1e-9 at n={n_list[i]}, z={complex(grid.points[j])}"
            )
        if max_rel > 1e-12:
            raise CheckFailure(f"free-field identity error {max_rel:.3e} above 1e-12")
        if abs(slope + 1.0) > 0.01:
            raise CheckFailure(f"T-scaling slope {slope:.5f} not within 1% of -1")
        if abs(fock_val) + fock_diag["ratio_error_bound"] > 1e-5:
            raise CheckFailure(
                f"Fock magnitude {abs(fock_val):.3e} + tail bound exceeds 1e-5"
            )
    return 0


def cmd_pauli_export(cfg, out_dir, check) -> int:
    params = _hydrogen_params(cfg)
    Q = cfg["qubits"]
    if Q < 1:
        raise ConfigError(f"qubits must be at least 1, got {Q}")
    H = hydrogen_matrix(1 << Q, params)
    c = decompose(H)
    # product counts in base 4, most significant digit first: the word index order
    labels = ("".join(digits) for digits in itertools.product("0123", repeat=Q))
    rows = [(q, label, coeff) for q, (label, coeff) in enumerate(zip(labels, c.coeffs.tolist()))]
    _write_outputs(out_dir, cfg, {"pauli_coefficients.csv": (["q_index", "base4_word", "coefficient"], rows)})
    if check:
        scale = np.abs(H).max()
        err = np.abs(reconstruct(c) - H).max()
        if err > 1e-14 * scale:
            raise CheckFailure(f"round-trip error {err:.3e} above 1e-14 * max|M| = {1e-14 * scale:.3e}")
    return 0


def _smooth_probe(n: int) -> np.ndarray:
    """Unit vector of (1+cos x)^2 Fourier coefficients, zero beyond 5 modes."""
    x = np.zeros(n, dtype=complex)
    x[:5] = [1.5, 1.0, 1.0, 0.25, 0.25][: min(5, n)]
    return x / np.linalg.norm(x)


def _mode_tail_oracle(n: int, n_ref: int, s: float) -> float:
    """sum of (1+k^2)^-s over modes at ordered positions n..n_ref-1.

    Summed directly over the integer magnitudes m of the positive and the
    negative mode ranges, without the mode ordering or the probe's weight.
    """
    ranges = (
        ((n + 1) // 2, (n_ref - 1) // 2),  # positive modes
        ((n + 2) // 2, n_ref // 2),  # magnitudes of negative modes
    )
    return sum(float(((1.0 + np.arange(a, b + 1.0) ** 2) ** -s).sum()) for a, b in ranges)


def cmd_lemma_probes(cfg, out_dir, check) -> int:
    params = _hydrogen_params(cfg)
    n_ref = cfg["n_ref"]
    n_list = _sizes(cfg)
    if n_ref < 2 * n_list[-1]:
        raise ConfigError(f"need n_ref >= 2 * max(n_list), got n_ref={n_ref}")
    H = hydrogen_matrix(n_ref, params)
    vac = vacuum_state(H).state
    strong = {
        "identity": strong_convergence_probe(np.eye(n_ref), vac, n_list),
        "hamiltonian": strong_convergence_probe(H, vac, n_list),
        "position": strong_convergence_probe(position_matrix(n_ref), _smooth_probe(n_ref), n_list),
    }

    def id_element(l, k):
        return 1.0 if l == k else 0.0

    def invsq_element(l, k):
        return 1.0 / (index_of_mode(k) + 1) ** 2 if l == k else 0.0

    weight = SobolevWeight(cfg["sobolev_s"])
    sob = schatten_convergence_probe(id_element, weight, n_list, n_ref=n_ref)
    invsq = schatten_convergence_probe(invsq_element, SobolevWeight(0.0), n_list, n_ref=n_ref)
    sob_oracle = np.array([_mode_tail_oracle(n, n_ref, cfg["sobolev_s"]) for n in n_list])
    invsq_oracle = polygamma(1, np.array(n_list) + 1.0) - polygamma(1, n_ref + 1.0)
    payload = {
        "n": n_list,
        "n_ref": n_ref,
        "strong": {k: list(map(float, v)) for k, v in strong.items()},
        "schatten_sobolev": {
            "residuals": list(map(float, sob)),
            "oracle": list(map(float, sob_oracle)),
            "max_abs_err": float(np.abs(sob - sob_oracle).max()),
        },
        "schatten_inverse_squares": {
            "residuals": list(map(float, invsq)),
            "oracle": list(map(float, invsq_oracle)),
            "max_abs_err": float(np.abs(invsq - invsq_oracle).max()),
        },
    }
    _write_outputs(out_dir, cfg, {"probes.json": payload})
    if check:
        for name, r in strong.items():
            # equal only where both are exactly 0, as every residual is for psi = e_0 (q = 0)
            if any(b >= a and not a == b == 0.0 for a, b in zip(r, r[1:])):
                raise CheckFailure(f"strong probe {name} residuals not strictly decreasing")
        for key in ("schatten_sobolev", "schatten_inverse_squares"):
            if payload[key]["max_abs_err"] > 1e-10:
                raise CheckFailure(f"{key} tail does not match the analytic oracle")
    return 0


_COMMANDS = {
    "hydrogen-convergence": cmd_hydrogen_convergence,
    "vqe": cmd_vqe,
    "zeta": cmd_zeta,
    "pauli-export": cmd_pauli_export,
    "lemma-probes": cmd_lemma_probes,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="zetavac", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"zetavac {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", default=".", help="output directory, created when the run writes its files")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--check", action="store_true", help="verify acceptance thresholds")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args.out, args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # numeric/module failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
