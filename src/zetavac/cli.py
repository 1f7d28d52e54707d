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
import json
import os
import sys

import numpy as np
from scipy.special import digamma, polygamma

from . import __version__
from .analysis import ConvergenceSeries, fit_exponential_window, relative_errors
from .errors import DegenerateFit
from .gauge import ZGrid, gauge_ratio
from .models import (
    HydrogenParams,
    FreeFieldParams,
    fock_zeta_ratio,
    freefield_zeta_ratio,
    hydrogen_matrix,
    position_matrix,
)
from .pauli import PauliWord, decompose, reconstruct
from .spectral import eig_hermitian
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


def _parse_scalar(tok: str, lineno: int):
    tok = tok.strip()
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return tok[1:-1]
    if tok in ("true", "false"):
        return tok == "true"
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {tok!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse the key = value config dialect (strings, numbers, bools, lists)."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if val.startswith("["):
            if not val.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated list")
            inner = val[1:-1].strip()
            out[key] = [_parse_scalar(t, lineno) for t in inner.split(",")] if inner else []
        else:
            if '"' not in val:
                val = val.split("#", 1)[0].strip()
            out[key] = _parse_scalar(val, lineno)
    return out


def _check_type(key: str, val, default):
    if isinstance(default, bool):
        ok = isinstance(val, bool)
    elif isinstance(default, int):
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif isinstance(default, float):
        ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    elif isinstance(default, list):
        ok = isinstance(val, list)
    else:
        ok = isinstance(val, str)
    if not ok:
        raise ConfigError(f"{key!r} expects {type(default).__name__}, got {val!r}")


def _effective_config(command: str, args) -> dict:
    cfg = dict(_DEFAULTS[command])
    cfg["seed"] = 0
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        for key, val in parse_config_text(text).items():
            if key not in cfg:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            _check_type(key, val, cfg[key])
            cfg[key] = val
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r} for {command}")
        if isinstance(cfg[key], str):
            # string-valued keys take the flag value verbatim (quotes optional)
            strip = val.startswith('"') and val.endswith('"') and len(val) >= 2
            parsed = val[1:-1] if strip else val
        elif val.startswith("["):
            inner = val[1:-1].strip()
            if not val.endswith("]"):
                raise ConfigError(f"--set {key}: unterminated list {val!r}")
            parsed = [_parse_scalar(t, 0) for t in inner.split(",")] if inner else []
        else:
            parsed = _parse_scalar(val, 0)
        _check_type(key, parsed, cfg[key])
        cfg[key] = parsed
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path, cfg_hash, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash: {cfg_hash}\n")
        fh.write(f"# version: {__version__}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_json(path, cfg_hash, payload: dict):
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    payload["version"] = __version__
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _hydrogen_energies(dims, params):
    out = []
    for n in dims:
        out.append(vacuum_state(hydrogen_matrix(n, params)).energy)
    return out


def cmd_hydrogen_convergence(cfg, out_dir, check) -> int:
    params = HydrogenParams(m=cfg["m"], q=cfg["q"])
    if cfg["mode"] == "dimension":
        abscissa = list(range(cfg["n_start"], cfg["n_stop"] + 1, cfg["n_step"]))
        dims = abscissa
        ref_dim, expected_rate = cfg["n_ref"], 0.00644
    elif cfg["mode"] == "qubits":
        abscissa = list(range(1, cfg["q_max"] + 1))
        dims = [1 << a for a in abscissa]
        ref_dim, expected_rate = 1 << cfg["q_ref"], 1.92
    else:
        raise ConfigError(f"mode must be 'dimension' or 'qubits', got {cfg['mode']!r}")
    energies = _hydrogen_energies(dims, params)
    reference = vacuum_state(hydrogen_matrix(ref_dim, params)).energy
    series = ConvergenceSeries(np.array(abscissa), np.array(energies), reference)
    errs = relative_errors(series)
    cfg_hash = _config_hash(cfg)
    _write_csv(
        os.path.join(out_dir, "convergence.csv"),
        cfg_hash,
        ["abscissa", "energy", "rel_error"],
        [(a, float(e), float(r)) for a, e, r in zip(abscissa, energies, errs)],
    )
    fit_payload = {"reference_abscissa": ref_dim, "reference_energy": reference}
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
    _write_json(os.path.join(out_dir, "fit.json"), cfg_hash, fit_payload)
    if check:
        if fit is None:
            raise CheckFailure("no exponential fit available")
        if abs(fit.rate - expected_rate) > 0.15 * expected_rate:
            raise CheckFailure(
                f"fit rate {fit.rate:.5f} outside 15% of {expected_rate}"
            )
    return 0


def cmd_vqe(cfg, out_dir, check) -> int:
    if cfg["q_max"] > 12:
        raise ConfigError(f"q_max {cfg['q_max']} exceeds the 12-qubit statevector guard")
    params = HydrogenParams(m=cfg["m"], q=cfg["q"])
    opt = OptimizerConfig(seed=cfg["seed"], max_iter=cfg["max_iter"])
    coeff_list, exact = [], []
    for Q in range(1, cfg["q_max"] + 1):
        H = hydrogen_matrix(1 << Q, params)
        coeff_list.append(decompose(H))
        exact.append(float(eig_hermitian(H).eigenvalues[0]))
    results = warm_started_chain(coeff_list, cfg["layers"], opt, restarts=cfg["restarts"])
    cfg_hash = _config_hash(cfg)
    rows = []
    with open(os.path.join(out_dir, "iterations.jsonl"), "w") as fh:
        for Q, res, e0 in zip(range(1, cfg["q_max"] + 1), results, exact):
            row = {"qubits": Q, "exact": e0, "vqe": res.energy, "deviation": res.energy - e0}
            if cfg["shots"] > 0:
                state = apply_ansatz(AnsatzSpec(Q, cfg["layers"]), res.params)
                est, err = sampled_energy(state, coeff_list[Q - 1], cfg["shots"], seed=cfg["seed"] + Q)
                row["sampled"] = est
                row["stderr"] = err
            rows.append(row)
            for entry in res.trace:
                fh.write(json.dumps(dict(entry, qubits=Q), sort_keys=True) + "\n")
    _write_json(os.path.join(out_dir, "vqe_results.json"), cfg_hash, {"rows": rows})
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
    params = HydrogenParams(m=cfg["m"], q=cfg["q"])
    z_re = np.linspace(cfg["z_re_min"], cfg["z_re_max"], cfg["z_re_points"])
    z_im = np.linspace(cfg["z_im_min"], cfg["z_im_max"], cfg["z_im_points"])
    grid = ZGrid(np.array([re + 1j * im for re in z_re for im in z_im]))
    cfg_hash = _config_hash(cfg)

    rows = []
    for n in cfg["n_list"]:
        H = hydrogen_matrix(n, params)
        if cfg["observable"] == "hamiltonian":
            A = H
        elif cfg["observable"] == "position":
            A = position_matrix(n)
        else:
            raise ConfigError(f"observable must be hamiltonian or position, got {cfg['observable']!r}")
        system = eig_hermitian(H)
        for z in grid.points:
            try:
                s = gauge_ratio(H, A, z, system=system)
                rows.append(
                    (n, float(z.real), float(z.imag), float(s.ratio.real),
                     float(s.ratio.imag), float(abs(s.denominator)), 0)
                )
            except ArithmeticError:
                rows.append((n, float(z.real), float(z.imag), float("nan"), float("nan"), 0.0, 1))
    _write_csv(
        os.path.join(out_dir, "zeta_grid.csv"),
        cfg_hash,
        ["n", "z_re", "z_im", "ratio_re", "ratio_im", "denom_abs", "excluded"],
        rows,
    )

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
    _write_json(os.path.join(out_dir, "freefield.json"), cfg_hash, payload)
    if check:
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
    params = HydrogenParams(m=cfg["m"], q=cfg["q"])
    Q = cfg["qubits"]
    H = hydrogen_matrix(1 << Q, params)
    c = decompose(H)
    cfg_hash = _config_hash(cfg)
    rows = []
    for q in range(4**Q):
        rows.append((q, PauliWord.from_index(Q, q).label(), float(c.coeffs[q])))
    _write_csv(
        os.path.join(out_dir, "pauli_coefficients.csv"),
        cfg_hash,
        ["q_index", "base4_word", "coefficient"],
        rows,
    )
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


def _mode_tail_oracle(n: int, n_ref: int) -> float:
    """sum of 1/(1+k^2) over modes at ordered positions n..n_ref-1.

    Uses the partial-fraction digamma identity
    sum_{m=a}^{b} 1/(1+m^2) = Im[psi(a+i) - psi(b+1+i)]
    on the positive and negative mode ranges separately.
    """
    ranges = (
        ((n + 1) // 2, (n_ref - 1) // 2),  # positive modes
        ((n + 2) // 2, n_ref // 2),  # magnitudes of negative modes
    )
    total = 0.0
    for a, b in ranges:
        if b >= a:
            total += float((digamma(a + 1j) - digamma(b + 1 + 1j)).imag)
    return total


def cmd_lemma_probes(cfg, out_dir, check) -> int:
    params = HydrogenParams(m=cfg["m"], q=cfg["q"])
    n_ref = cfg["n_ref"]
    n_list = list(cfg["n_list"])
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
    sob_oracle = np.array([_mode_tail_oracle(n, n_ref) for n in n_list])
    invsq_oracle = polygamma(1, np.array(n_list) + 1.0) - polygamma(1, n_ref + 1.0)
    cfg_hash = _config_hash(cfg)
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
    _write_json(os.path.join(out_dir, "probes.json"), cfg_hash, payload)
    if check:
        for name, r in strong.items():
            if np.any(np.diff(r) >= 0):
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
        sp.add_argument("--out", default=".", help="output directory")
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
    os.makedirs(args.out, exist_ok=True)
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
