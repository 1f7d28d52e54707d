"""Tests for the command-line driver: config handling, outputs, exit codes."""
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import zetavac
from zetavac import __version__, cli, errors, gauge
from zetavac.cli import build_parser, main
from zetavac.models import HydrogenParams, hydrogen_matrix
from zetavac.pauli import decompose
from zetavac.truncation import vacuum_state


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_headed_csv(path):
    """Return (config_hash_line, header, rows) of a CLI CSV output."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash: ")
    assert lines[1] == f"# version: {__version__}"
    reader = csv.reader(lines[2:])
    header = next(reader)
    return lines[0], header, list(reader)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestParseConfigText:
    """The config-file dialect, read through ``main`` with real keys."""

    def effective_config(self, tmp_path, capsys, monkeypatch, text, command="zeta"):
        seen = {}
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, out, check: seen.update(cfg) or 0)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        code, _, err = run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")], capsys)
        assert code == 0, err
        return seen

    def test_scalar_types(self, tmp_path, capsys, monkeypatch):
        text = 'z_re_points = 5\nz_re_min = -1.5\nq = 2\nobservable = "position"'
        cfg = self.effective_config(tmp_path, capsys, monkeypatch, text)
        assert (cfg["z_re_points"], cfg["z_re_min"], cfg["observable"]) == (5, -1.5, "position")
        # an int literal for a float key stays an int, so the config hash does not change
        assert type(cfg["z_re_points"]) is int and type(cfg["q"]) is int

    def test_lists(self, tmp_path, capsys, monkeypatch):
        text = "n_list = [8, 16, 32]\nff_t_list = [0.5, 1.5]"
        cfg = self.effective_config(tmp_path, capsys, monkeypatch, text)
        assert cfg["n_list"] == [8, 16, 32]
        assert cfg["ff_t_list"] == [0.5, 1.5]
        assert self.effective_config(tmp_path, capsys, monkeypatch, "n_list = []")["n_list"] == []

    def test_comments_sections_and_blanks_skipped(self, tmp_path, capsys, monkeypatch):
        cfg = self.effective_config(tmp_path, capsys, monkeypatch, "# a comment\n\n[zeta]  # section\nz_re_points = 1\n")
        assert cfg == dict(cli._DEFAULTS["zeta"], z_re_points=1, seed=0)

    def test_inline_comment_stripped(self, tmp_path, capsys, monkeypatch):
        cfg = self.effective_config(tmp_path, capsys, monkeypatch, "z_re_points = 5 # five")
        assert cfg["z_re_points"] == 5

    def test_hash_inside_quotes_preserved(self, tmp_path, capsys, monkeypatch):
        assert self.effective_config(tmp_path, capsys, monkeypatch, 'observable = "a#b"')["observable"] == "a#b"

    def test_comment_after_list_or_closing_quote(self, tmp_path, capsys, monkeypatch):
        text = 'n_list = [8, 16]  # sizes\nobservable = "position"  # x'
        cfg = self.effective_config(tmp_path, capsys, monkeypatch, text)
        assert (cfg["n_list"], cfg["observable"]) == ([8, 16], "position")
        cfg = self.effective_config(tmp_path, capsys, monkeypatch, 'mode = "qubits" # q', "hydrogen-convergence")
        assert cfg["mode"] == "qubits"

    def test_unquoted_string_accepted(self, tmp_path, capsys, monkeypatch):
        cfg = self.effective_config(tmp_path, capsys, monkeypatch, "mode = qubits", "hydrogen-convergence")
        assert cfg["mode"] == "qubits"

    @pytest.mark.parametrize(
        "text",
        ["just words", "= 5", "n_list = [8, 16", "z_re_points = @@"],
        ids=["no-equals", "empty-key", "open-list", "bad-token"],
    )
    def test_malformed_lines_raise(self, tmp_path, capsys, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        code, _, err = run_cli(["zeta", "--config", str(path), "--out", str(out)], capsys)
        assert code == 2, err
        assert "config error" in err
        assert not out.exists()


class TestConfigHandling:
    def test_unknown_set_key_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["hydrogen-convergence", "--out", str(tmp_path), "--set", "bogus=1"], capsys
        )
        assert code == 2
        assert "config error" in err

    def test_malformed_set_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["hydrogen-convergence", "--out", str(tmp_path), "--set", "n_start"], capsys
        )
        assert code == 2
        assert "config error" in err

    def test_wrong_typed_set_value_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["hydrogen-convergence", "--out", str(tmp_path), "--set", "n_start=fast"], capsys
        )
        assert code == 2
        assert "config error" in err

    def test_unterminated_set_list_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["lemma-probes", "--out", str(tmp_path), "--set", "n_list=[8, 16"], capsys
        )
        assert code == 2
        assert "config error" in err and "--set n_list: unterminated list" in err

    @pytest.mark.parametrize("first", ["--set", "--config"])
    def test_repeated_key_parses_against_its_default(self, tmp_path, capsys, first):
        # z_re_min is a float key: an int literal set first must not make
        # the later float a type error
        argv = ["zeta", "--out", str(tmp_path / "out"), "--set", "n_list=[4, 8]", "--set", "z_re_points=1"]
        if first == "--set":
            argv += ["--set", "z_re_min=0"]
        else:
            (tmp_path / "run.cfg").write_text("z_re_min = 0\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        code, _, err = run_cli(argv + ["--set", "z_re_min=-0.25"], capsys)
        assert code == 0, err
        _, _, rows = read_headed_csv(tmp_path / "out" / "zeta_grid.csv")
        assert {float(r[1]) for r in rows} == {-0.25}

    def test_unknown_config_file_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_knob = 3\n")
        code, _, err = run_cli(
            ["hydrogen-convergence", "--config", str(cfg), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        assert "not_a_knob" in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["hydrogen-convergence", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # a size that leaves nothing to compute or check is a configuration error
            ["zeta", "--check", "--set", "n_list=[]"],
            ["zeta", "--check", "--set", "z_re_points=0"],
            ["vqe", "--check", "--set", "q_max=0"],
            ["vqe", "--set", "layers=0"],
            ["lemma-probes", "--set", "n_list=[]"],
            ["lemma-probes", "--set", "n_ref=16"],
            ["hydrogen-convergence", "--set", "n_step=0"],
            ["hydrogen-convergence", "--set", "n_start=100", "--set", "n_stop=50"],
            ["pauli-export", "--set", "qubits=0"],
            ["vqe", "--set", "restarts=-1"],
            ["vqe", "--set", "max_iter=0"],
            # one shot gives no standard error; a negative count samples nothing
            ["vqe", "--check", "--set", "shots=1"],
            ["vqe", "--set", "shots=-5"],
            ["zeta", "--check", "--set", "ff_z_points=0"],
            ["zeta", "--set", "ff_n_max=0"],
            ["zeta", "--set", "ff_t_list=[]"],
            ["zeta", "--set", "ff_t_list=[1000.0]"],
            ["hydrogen-convergence", "--set", "n_ref=0"],
            ["hydrogen-convergence", "--set", "mode=qubits", "--set", "q_max=2", "--set", "q_ref=0"],
            # a reference no larger than the sweep leaves nothing to converge to
            ["hydrogen-convergence", "--set", "n_ref=500"],
            ["hydrogen-convergence", "--set", "mode=qubits", "--set", "q_max=6", "--set", "q_ref=4"],
            # physics keys out of their model's range
            ["hydrogen-convergence", "--set", "m=-1"],
            ["pauli-export", "--set", "m=0"],
            ["vqe", "--set", "m=0"],
            ["zeta", "--set", "q=-1"],
            ["zeta", "--set", "fock_cutoff=5"],
            ["zeta", "--set", "fock_t=-1"],
            ["zeta", "--set", "ff_t_list=[-1.0, 10.0]"],
            # the size sweep and its residuals need strictly increasing sizes
            ["zeta", "--set", "n_list=[16, 8]"],
            ["zeta", "--set", "n_list=[8, 8]"],
            ["lemma-probes", "--set", "n_list=[16, 8]"],
            ["lemma-probes", "--set", "n_list=[8, 8]"],
            # the T-scaling slope needs two distinct times
            ["zeta", "--set", "ff_t_list=[10.0, 10.0]"],
            ["zeta", "--set", "ff_t_list=[1.0, 1.0]"],
        ],
    )
    def test_out_of_range_size_exits_2(self, tmp_path, capsys, argv):
        code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 2, err
        assert "config error" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            # list elements take the type of the default's elements
            ["zeta", "--set", "n_list=[8.5,16]"],
            ["lemma-probes", "--set", "n_list=[8,16.0]"],
            ["zeta", "--set", 'n_list=["a"]'],
            ["zeta", "--set", "ff_t_list=[true,false]"],
            # floats must be finite
            ["zeta", "--set", "q=nan"],
            ["lemma-probes", "--set", "sobolev_s=nan"],
            ["zeta", "--set", "fock_t=inf"],
            ["zeta", "--set", "ff_t_list=[10.0, inf]"],
        ],
    )
    def test_mistyped_or_non_finite_value_exits_2(self, tmp_path, capsys, argv):
        code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert code == 2, err
        assert "config error" in err
        assert not list(tmp_path.iterdir())

    def test_set_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_start = 8\nn_stop = 16\nn_step = 8\nn_ref = 32\n")
        code, _, _ = run_cli(
            [
                "hydrogen-convergence",
                "--config", str(cfg),
                "--out", str(tmp_path),
                "--set", "n_stop=24",
            ],
            capsys,
        )
        assert code == 0
        _, _, rows = read_headed_csv(tmp_path / "convergence.csv")
        assert [int(r[0]) for r in rows] == [8, 16, 24]

    @pytest.mark.parametrize("command", ["hydrogen-convergence", "vqe", "zeta", "pauli-export", "lemma-probes"])
    @pytest.mark.parametrize("seed", [["--seed", "-1"], ["--set", "seed=-1"]], ids=["flag", "set"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, seed):
        code, _, err = run_cli([command, "--out", str(tmp_path)] + seed, capsys)
        assert code == 2, err
        assert "seed must be non-negative" in err
        assert not list(tmp_path.iterdir())

    def test_seed_flag_changes_config_hash(self, tmp_path, capsys):
        args = ["hydrogen-convergence", "--set", "n_stop=16", "--set", "n_start=8",
                "--set", "n_step=8", "--set", "n_ref=24"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(args + ["--out", str(out_a)], capsys)
        run_cli(args + ["--out", str(out_b), "--seed", "7"], capsys)
        hash_a, _, _ = read_headed_csv(out_a / "convergence.csv")
        hash_b, _, _ = read_headed_csv(out_b / "convergence.csv")
        assert hash_a != hash_b


class TestHydrogenConvergenceCommand:
    def run_small(self, out_dir, capsys, extra=()):
        args = [
            "hydrogen-convergence", "--out", str(out_dir),
            "--set", "n_start=8", "--set", "n_stop=24",
            "--set", "n_step=8", "--set", "n_ref=32",
        ] + list(extra)
        return run_cli(args, capsys)

    def test_small_run_outputs(self, tmp_path, capsys):
        code, _, _ = self.run_small(tmp_path, capsys)
        assert code == 0
        _, header, rows = read_headed_csv(tmp_path / "convergence.csv")
        assert header == ["abscissa", "energy", "rel_error"]
        assert len(rows) == 3
        for abscissa, energy, _ in rows:
            n = int(abscissa)
            exact = vacuum_state(hydrogen_matrix(n, HydrogenParams())).energy
            assert_allclose(float(energy), exact, rtol=1e-12)
        fit = read_json(tmp_path / "fit.json")
        assert fit["reference_abscissa"] == 32
        assert {"a", "b", "r_squared", "config_hash", "version"} <= fit.keys()
        vacua = [vacuum_state(hydrogen_matrix(n, HydrogenParams())) for n in (8, 16, 24, 32)]
        assert fit["max_vacuum_residual"] == max(v.residual for v in vacua)
        assert fit["max_vacuum_iterations"] == max(v.iterations for v in vacua)
        assert fit["max_certificate_block"] == max(v.certificate_block for v in vacua) == 32

    def test_two_points_skip_fit_with_warning(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "hydrogen-convergence", "--out", str(tmp_path),
                "--set", "n_start=8", "--set", "n_stop=16",
                "--set", "n_step=8", "--set", "n_ref=24",
            ],
            capsys,
        )
        assert code == 0
        assert "fit skipped" in err
        assert "b" not in read_json(tmp_path / "fit.json")

    def test_two_points_fail_check(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "hydrogen-convergence", "--out", str(tmp_path), "--check",
                "--set", "n_start=8", "--set", "n_stop=16",
                "--set", "n_step=8", "--set", "n_ref=24",
            ],
            capsys,
        )
        assert code == 4
        assert "check failed" in err

    def test_large_vacuum_residual_fails_check(self, tmp_path, capsys, monkeypatch):
        solve = cli.vacuum_state
        monkeypatch.setattr(
            cli, "vacuum_state",
            lambda H: dataclasses.replace(solve(H), residual=1e-9, iterations=999)
            if len(H) == 16 else solve(H),
        )
        code, _, err = self.run_small(tmp_path, capsys, extra=["--check"])
        assert code == 4
        assert "vacuum residual 1.000e-09 at n=16 above 1e-12" in err
        assert "most solver iterations: 999 at n=16" in err

    def test_qubit_mode(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "hydrogen-convergence", "--out", str(tmp_path),
                "--set", "mode=qubits", "--set", "q_max=3", "--set", "q_ref=4",
            ],
            capsys,
        )
        assert code == 0
        _, _, rows = read_headed_csv(tmp_path / "convergence.csv")
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        exact = vacuum_state(hydrogen_matrix(8, HydrogenParams())).energy
        assert_allclose(float(rows[2][1]), exact, rtol=1e-12)

    def test_bad_mode_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["hydrogen-convergence", "--out", str(tmp_path), "--set", "mode=banana"],
            capsys,
        )
        assert code == 2

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        self.run_small(out_a, capsys)
        self.run_small(out_b, capsys)
        for name in ("convergence.csv", "fit.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestVqeCommand:
    def test_single_qubit_sweep(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "vqe", "--out", str(tmp_path),
                "--set", "q_max=1", "--set", "layers=2",
            ],
            capsys,
        )
        assert code == 0
        rows = read_json(tmp_path / "vqe_results.json")["rows"]
        assert len(rows) == 1
        assert rows[0]["qubits"] == 1
        exact = np.linalg.eigvalsh(hydrogen_matrix(2, HydrogenParams()))[0]
        assert_allclose(rows[0]["exact"], exact, rtol=1e-12)
        assert abs(rows[0]["deviation"]) <= 1e-8

    def test_two_qubit_cg_passes_check(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["vqe", "--out", str(tmp_path), "--check",
             "--set", "q_max=2", "--set", "layers=3"],
            capsys,
        )
        assert code == 0
        rows = read_json(tmp_path / "vqe_results.json")["rows"]
        assert [r["qubits"] for r in rows] == [1, 2]
        for row in rows:
            assert abs(row["deviation"]) <= 1e-6

    def test_iteration_log_lines(self, tmp_path, capsys):
        run_cli(
            ["vqe", "--out", str(tmp_path),
             "--set", "q_max=2", "--set", "layers=3"],
            capsys,
        )
        lines = (tmp_path / "iterations.jsonl").read_text().splitlines()
        assert lines
        seen_qubits = set()
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"iteration", "energy", "gradient_norm", "params_hash", "qubits"}
            seen_qubits.add(entry["qubits"])
        assert seen_qubits == {1, 2}

    @pytest.mark.parametrize("max_iter,exit_reason", [(25000, "converged"), (1, "max_iter")])
    def test_rows_report_what_ran(self, tmp_path, capsys, max_iter, exit_reason):
        code, _, _ = run_cli(
            ["vqe", "--out", str(tmp_path), "--set", "q_max=2", "--set", "layers=2",
             "--set", "restarts=1", "--set", f"max_iter={max_iter}"],
            capsys,
        )
        assert code == 0
        rows = read_json(tmp_path / "vqe_results.json")["rows"]
        entries = [json.loads(line) for line in (tmp_path / "iterations.jsonl").read_text().splitlines()]
        for row in rows:
            trace = [e for e in entries if e["qubits"] == row["qubits"]]
            assert row["exit"] == exit_reason
            assert row["iterations"] == len(trace)
            assert row["gradient_norm"] == trace[-1]["gradient_norm"]
        if exit_reason == "max_iter":
            # one iteration plus the row for the point it stopped at
            assert all(row["iterations"] == 2 for row in rows)

    def test_max_iter_rows_describe_the_stopping_point(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["vqe", "--out", str(tmp_path), "--set", "q_max=2", "--set", "layers=2",
             "--set", "restarts=0", "--set", "max_iter=1"],
            capsys,
        )
        assert code == 0
        rows = read_json(tmp_path / "vqe_results.json")["rows"]
        entries = [json.loads(line) for line in (tmp_path / "iterations.jsonl").read_text().splitlines()]
        for row in rows:
            last = [e for e in entries if e["qubits"] == row["qubits"]][-1]
            assert row["exit"] == "max_iter"
            assert last["iteration"] == 1
            assert last["energy"] == row["vqe"]
            assert last["gradient_norm"] == row["gradient_norm"]

    def test_shots_add_sampled_columns(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["vqe", "--out", str(tmp_path),
             "--set", "q_max=1", "--set", "layers=2", "--set", "shots=4000"],
            capsys,
        )
        assert code == 0
        row = read_json(tmp_path / "vqe_results.json")["rows"][0]
        assert {"sampled", "stderr"} <= row.keys()
        assert abs(row["sampled"] - row["vqe"]) <= 5.0 * row["stderr"] + 1e-9

    def test_failed_sampling_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise FloatingPointError("sampling failed")

        monkeypatch.setattr(cli, "sampled_energy", fail)
        out = tmp_path / "new"
        code, _, err = run_cli(
            ["vqe", "--out", str(out), "--set", "q_max=1", "--set", "layers=2", "--set", "shots=4000"],
            capsys,
        )
        assert code == 3 and "sampling failed" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["q=1e300", "m=1e-300"])
    def test_overflowed_energy_exits_3(self, tmp_path, capsys, setting):
        # energies near 1e300 overflow the gradient norm; no stage may
        # report Infinity as converged
        out = tmp_path / "new"
        code, _, err = run_cli(
            ["vqe", "--out", str(out), "--set", "q_max=2", "--set", "layers=2",
             "--set", "max_iter=300", "--set", "restarts=1", "--set", setting],
            capsys,
        )
        assert code == 3
        assert "error: OutOfFloatRange: " in err
        assert not out.exists()

    def test_qubit_guard_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["vqe", "--out", str(tmp_path), "--set", "q_max=13"], capsys
        )
        assert code == 2
        assert "12-qubit" in err

    @pytest.mark.parametrize(
        "setting",
        [
            "kind=conjugate_gradient", "sweeps=3", "cg_tol=1e-9", "fd_step=1e-6",
            "patience=600", "rounds=4", "stall_tol=2e-8",
        ],
    )
    def test_removed_optimizer_key_exits_2(self, tmp_path, capsys, setting):
        code, _, err = run_cli(["vqe", "--out", str(tmp_path), "--set", setting], capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["vqe", "--set", "q_max=2", "--set", "layers=3", "--set", "shots=500"]
        run_cli(args + ["--out", str(out_a)], capsys)
        run_cli(args + ["--out", str(out_b)], capsys)
        for name in ("vqe_results.json", "iterations.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestZetaCommand:
    SMALL = [
        "--set", "n_list=[4, 8]",
        "--set", "z_re_min=0", "--set", "z_re_max=0", "--set", "z_re_points=1",
        "--set", "z_im_min=0", "--set", "z_im_max=0", "--set", "z_im_points=1",
        "--set", "ff_n_max=2", "--set", "ff_z_points=5",
        "--set", "ff_t_list=[10.0, 100.0, 1000.0]",
    ]

    def test_small_run_grid_and_freefield(self, tmp_path, capsys):
        code, _, _ = run_cli(["zeta", "--out", str(tmp_path)] + self.SMALL, capsys)
        assert code == 0
        _, header, rows = read_headed_csv(tmp_path / "zeta_grid.csv")
        assert header == ["n", "z_re", "z_im", "ratio_re", "ratio_im", "denom_abs", "excluded"]
        assert len(rows) == 2
        for row in rows:
            n = int(row[0])
            vac = vacuum_state(hydrogen_matrix(n, HydrogenParams()))
            expected = float(np.real(np.vdot(vac.state, hydrogen_matrix(n, HydrogenParams()) @ vac.state)))
            assert_allclose(float(row[3]), expected, atol=1e-10)
            assert abs(float(row[4])) < 1e-10
            assert int(row[6]) == 0
        payload = read_json(tmp_path / "freefield.json")
        assert payload["identity_max_rel_err"] <= 1e-12
        assert abs(payload["t_scaling_slope"] + 1.0) < 0.01
        assert payload["fock"]["magnitude"] <= 1e-5
        assert payload["fock"]["tail_error_bound"] >= 0.0

    def test_gauge_column_matches_convergence_energies(self, tmp_path, capsys):
        zeta_out, conv_out = tmp_path / "z", tmp_path / "c"
        run_cli(["zeta", "--out", str(zeta_out)] + self.SMALL + ["--set", "n_list=[8, 16]"], capsys)
        run_cli(
            [
                "hydrogen-convergence", "--out", str(conv_out),
                "--set", "n_start=8", "--set", "n_stop=16",
                "--set", "n_step=8", "--set", "n_ref=24",
            ],
            capsys,
        )
        _, _, zrows = read_headed_csv(zeta_out / "zeta_grid.csv")
        _, _, crows = read_headed_csv(conv_out / "convergence.csv")
        for zrow, crow in zip(zrows, crows):
            assert int(zrow[0]) == int(crow[0])
            assert_allclose(float(zrow[3]), float(crow[1]), rtol=1e-12)

    def test_z_independence_across_grid(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "zeta", "--out", str(tmp_path),
                "--set", "n_list=[8]",
                "--set", "z_re_min=-0.5", "--set", "z_re_max=0.5", "--set", "z_re_points=2",
                "--set", "z_im_min=-0.5", "--set", "z_im_max=0.5", "--set", "z_im_points=2",
                "--set", "ff_n_max=1", "--set", "ff_z_points=5",
                "--set", "ff_t_list=[10.0, 100.0]",
            ],
            capsys,
        )
        assert code == 0
        _, _, rows = read_headed_csv(tmp_path / "zeta_grid.csv")
        values = [float(r[3]) for r in rows]
        assert len(values) == 4
        assert np.ptp(values) < 1e-9

    def test_collapsed_denominator_excludes_only_its_size(self, tmp_path, capsys):
        # at q = 100, m = 0.01 the ground energy is about 39.2 at n = 2 and
        # 22.3-22.9 at n >= 4, so lambda_0^Re z falls below the 1e-10 floor
        # from Re z = -7 down at n = 2, but only from Re z = -7.5 down at n >= 4
        code, _, err = run_cli(
            ["zeta", "--out", str(tmp_path),
               "--set", "q=100.0", "--set", "m=0.01", "--set", "z_re_min=-8.5",
               "--set", "z_re_max=-6", "--set", "z_re_points=6", "--set", "z_im_points=1",
               "--set", "n_list=[2, 4, 8, 16]"],
            capsys,
        )
        assert code == 0, err
        _, _, rows = read_headed_csv(tmp_path / "zeta_grid.csv")
        assert len(rows) == 24
        collapsed = {(n, x) for n in (2, 4, 8, 16) for x in (-8.5, -8.0, -7.5)} | {(2, -7.0), (2, -6.5)}
        for r in rows:
            if (int(r[0]), float(r[1])) in collapsed:
                assert r[3:] == ["nan", "nan", "0.0", "1"]
            else:
                assert r[6] == "0" and np.isfinite(float(r[3])) and float(r[5]) >= 1e-10

    def test_check_fails_when_a_size_keeps_no_point(self, tmp_path, capsys):
        # every z collapses at every size here, so the identity check would
        # compare nothing; --check names the first such size instead of passing
        out = tmp_path / "new"
        code, _, err = run_cli(
            ["zeta", "--out", str(out), "--check",
             "--set", "q=100.0", "--set", "m=0.01", "--set", "z_re_min=-8.5",
             "--set", "z_re_max=-7.5", "--set", "z_im_points=1",
             "--set", "n_list=[2, 4, 8, 16]", "--set", "ff_n_max=1"],
            capsys,
        )
        assert code == 4
        assert "every denominator collapsed at n=2" in err
        _, _, rows = read_headed_csv(out / "zeta_grid.csv")
        assert len(rows) == 12 and all(r[6] == "1" for r in rows)

    def test_position_observable(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["zeta", "--out", str(tmp_path), "--set", "observable=position"] + self.SMALL,
            capsys,
        )
        assert code == 0

    def test_check_passes_on_small_config(self, tmp_path, capsys):
        code, _, _ = run_cli(["zeta", "--out", str(tmp_path), "--check"] + self.SMALL, capsys)
        assert code == 0

    def test_check_fails_when_ratio_leaves_expectation(self, tmp_path, capsys, monkeypatch):
        sums = gauge._ground_sums

        def perturbed(*args, **kwargs):
            out = sums(*args, **kwargs)
            out[:, 0] *= 1.0 + 1e-6  # the numerator column, every z at once
            return out

        monkeypatch.setattr(gauge, "_ground_sums", perturbed)
        code, _, err = run_cli(["zeta", "--out", str(tmp_path), "--check"] + self.SMALL, capsys)
        assert code == 4
        assert "differs from <psi, A psi> by more than 1e-9" in err

    def test_amplified_rounding_exits_3(self, tmp_path, capsys):
        # at n = 64, lambda^5 lifts eigenvector rounding to a 2e-2 error
        # in the ratio; the run must fail instead of writing it
        code, _, err = run_cli(
            ["zeta", "--out", str(tmp_path)] + self.SMALL
            + ["--set", "n_list=[64]", "--set", "observable=position",
               "--set", "z_re_min=5", "--set", "z_re_max=5"],
            capsys,
        )
        assert code == 3
        assert "SingularFunctionValue" in err and "z = (5+0j)" in err

    def test_bad_observable_exits_2(self, tmp_path, capsys):
        # a range error raised inside the subcommand creates no output directory
        out = tmp_path / "new"
        code, _, _ = run_cli(
            ["zeta", "--out", str(out), "--set", "observable=momentum"] + self.SMALL,
            capsys,
        )
        assert code == 2
        assert not out.exists()

    def test_repeated_z_points_exit_2(self, tmp_path, capsys):
        # z_re_min == z_re_max with three points repeats every z: a grid
        # configuration error, not a numeric failure
        code, _, err = run_cli(
            ["zeta", "--out", str(tmp_path)] + self.SMALL
            + ["--set", "z_re_min=5", "--set", "z_re_max=5", "--set", "z_re_points=3"],
            capsys,
        )
        assert code == 2
        assert "config error" in err and "distinct" in err

    def test_divergent_fock_series_exits_3(self, tmp_path, capsys):
        # the series are evaluated before any file is written, so the
        # failed run leaves no partial output behind, not even its directory
        out = tmp_path / "new"
        code, _, err = run_cli(
            ["zeta", "--out", str(out), "--set", "fock_t=2.0"] + self.SMALL, capsys
        )
        assert code == 3
        assert "SeriesDivergence" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, error",
        [
            # the Fock tail ratio e^832 and a free-field term e^1843 leave the float range
            ("fock_t=1e-120", "SeriesDivergence"),
            ("ff_t_list=[1e-200, 10.0]", "OutOfFloatRange"),
        ],
    )
    def test_out_of_float_range_time_exits_3_typed(self, tmp_path, capsys, setting, error):
        out = tmp_path / "new"
        code, _, err = run_cli(["zeta", "--out", str(out)] + self.SMALL + ["--set", setting], capsys)
        assert code == 3
        assert f"error: {error}:" in err
        assert not out.exists()


class TestPauliExportCommand:
    def test_two_qubit_table(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["pauli-export", "--out", str(tmp_path), "--check", "--set", "qubits=2"],
            capsys,
        )
        assert code == 0
        _, header, rows = read_headed_csv(tmp_path / "pauli_coefficients.csv")
        assert header == ["q_index", "base4_word", "coefficient"]
        assert [int(r[0]) for r in rows] == list(range(16))
        assert rows[5][1] == "11"
        coeffs = decompose(hydrogen_matrix(4, HydrogenParams()))
        for row in rows:
            q = int(row[0])
            # base-4 digits of the word index, most significant first
            assert row[1] == f"{q >> 2}{q & 3}"
            # the shortest repr of a double round-trips it exactly
            assert float(row[2]) == coeffs.coeffs[q]

    def test_nine_qubit_check_uses_relative_bound(self, tmp_path, capsys):
        # the round-trip error at Q=9 is ~1e-16 relative to max|M| but
        # above an absolute 1e-12, so only a relative bound passes it
        code, _, err = run_cli(
            ["pauli-export", "--out", str(tmp_path), "--check", "--set", "qubits=9"],
            capsys,
        )
        assert code == 0, err

    def test_out_dir_created_at_first_write(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        code, _, err = run_cli(["pauli-export", "--out", str(out), "--set", "qubits=2"], capsys)
        assert code == 0, err
        assert [p.name for p in out.iterdir()] == ["pauli_coefficients.csv"]

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["pauli-export", "--out", str(out_a), "--set", "qubits=3"], capsys)
        run_cli(["pauli-export", "--out", str(out_b), "--set", "qubits=3"], capsys)
        assert (out_a / "pauli_coefficients.csv").read_bytes() == (
            out_b / "pauli_coefficients.csv"
        ).read_bytes()


class TestLemmaProbesCommand:
    def test_small_run_payload(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "lemma-probes", "--out", str(tmp_path), "--check",
                "--set", "n_ref=64", "--set", "n_list=[8, 16, 32]",
            ],
            capsys,
        )
        assert code == 0
        payload = read_json(tmp_path / "probes.json")
        assert payload["n"] == [8, 16, 32]
        for residuals in payload["strong"].values():
            assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert payload["schatten_sobolev"]["max_abs_err"] <= 1e-10
        assert payload["schatten_inverse_squares"]["max_abs_err"] <= 1e-10

    def test_zero_coupling_check_passes(self, tmp_path, capsys):
        # at q = 0 the vacuum is e_0 exactly, so every identity and
        # Hamiltonian residual is exactly 0: equal, not increasing
        code, _, err = run_cli(
            ["lemma-probes", "--out", str(tmp_path), "--check", "--set", "q=0",
             "--set", "n_ref=64", "--set", "n_list=[8, 16, 32]"],
            capsys,
        )
        assert code == 0, err
        strong = read_json(tmp_path / "probes.json")["strong"]
        assert strong["identity"] == strong["hamiltonian"] == [0.0, 0.0, 0.0]

    def test_sobolev_oracle_follows_the_exponent(self, tmp_path, capsys):
        # the tail oracle sums (1+k^2)^-s, so s = 2 is checked against s = 2
        code, _, err = run_cli(
            [
                "lemma-probes", "--out", str(tmp_path), "--check",
                "--set", "n_ref=64", "--set", "n_list=[8, 16, 32]", "--set", "sobolev_s=2.0",
            ],
            capsys,
        )
        assert code == 0, err
        assert read_json(tmp_path / "probes.json")["schatten_sobolev"]["max_abs_err"] <= 1e-15

    @pytest.mark.parametrize("s", ["-200", "-1e300"])
    def test_weight_out_of_float_range_exits_3(self, tmp_path, capsys, s):
        # (1 + k^2)^s underflows to 0 for the outer modes, so the weighted
        # operator is not finite; the error is typed and nothing is written
        out = tmp_path / "new"
        code, _, err = run_cli(
            ["lemma-probes", "--out", str(out), "--set", "n_ref=16",
             "--set", "n_list=[2, 4, 8]", "--set", f"sobolev_s={s}"],
            capsys,
        )
        assert code == 3
        assert "error: OutOfFloatRange: " in err
        assert not out.exists()

    def test_weight_out_of_float_range_prints_only_the_error(self, tmp_path):
        # in a fresh interpreter, where NumPy's RuntimeWarnings would reach
        # stderr ahead of the typed error
        src = os.path.dirname(os.path.dirname(zetavac.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "zetavac.cli", "lemma-probes", "--out", str(tmp_path / "new"),
             "--set", "n_ref=16", "--set", "n_list=[2, 4, 8]", "--set", "sobolev_s=-200"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == 3
        assert run.stderr.splitlines() == [
            "error: OutOfFloatRange: Sobolev weight s=-200 leaves the float range at n_ref=16"
        ]


class TestParserBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_missing_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2


# Small base configs of the boundary-input sweep; each swept key is set on
# top of its base.  hydrogen-convergence has a second base in qubits mode,
# the only mode that reads q_max and q_ref.
_SWEEP_BASES = {
    "hydrogen-convergence": ["n_start=4", "n_stop=12", "n_step=4", "n_ref=16"],
    "hydrogen-convergence qubits": ["mode=qubits", "q_max=2", "q_ref=3"],
    "vqe": ["q_max=2", "layers=2", "max_iter=300", "restarts=1"],
    "zeta": ["n_list=[4, 8]", "z_re_points=2", "z_im_points=2", "ff_n_max=1",
             "ff_t_list=[10.0, 100.0]", "ff_z_points=2"],
    "pauli-export": ["qubits=2"],
    "lemma-probes": ["n_ref=16", "n_list=[2, 4, 8]"],
}


def _sweep_keys(base):
    command = base.split()[0]
    keys = list(cli._DEFAULTS[command]) + ["seed"]
    if command == "hydrogen-convergence":
        qubit_keys = ["q_max", "q_ref"]
        keys = qubit_keys if base.endswith("qubits") else [k for k in keys if k not in qubit_keys]
    return keys


def _boundary_values(default):
    """Boundary values of a key, by the type of its default (no size large enough to matter)."""
    if isinstance(default, list):
        tiny_or_huge = ["[1e-300, 10.0]", "[10.0, 1e300]"] if isinstance(default[0], float) else ["[1, 2]"]
        return ["[]", "[0]", "[1]", "[2]", "[-1]", "[1, 1]", "[3, 2]"] + tiny_or_huge
    if isinstance(default, str):
        return ['""', "x"]
    if isinstance(default, float):
        return ["0", "-1", "1e12", "1e-12", "1e300", "1e-300", "0.5"]
    return ["-1", "0", "1", "2", "3"]


# The runs whose --check claim is really false, so exit 4 is the true
# verdict: (command, key or None for every key, values or None for every
# value, the failure message).
_FALSE_CLAIMS = [
    # the rate targets describe the default sweep only (README); the base
    # sweep is small, so its fitted rate or its fit is off at every value
    ("hydrogen-convergence", None, None, r"fit rate \S+ outside 15%|no exponential fit available"),
    # the deviation bound is an absolute 1e-6, below the rounding of
    # energies of order 1/m or q = 1e12 and more
    ("vqe", "m", {"1e-12"}, "deviations above 1e-6"),
    ("vqe", "q", {"1e12"}, "deviations above 1e-6"),
    # three natural-gradient iterations do not reach 1e-6
    ("vqe", "max_iter", {"1", "2", "3"}, "deviations above 1e-6"),
    # size 2 keeps the modes 0 and +1 but not -1, and its truncated x lands
    # farther from the reference than size 1's: the residual rises
    ("lemma-probes", "n_list", {"[1, 2]"}, "strong probe position residuals not strictly decreasing"),
]


@pytest.mark.parametrize(
    "base, key", [(base, key) for base in _SWEEP_BASES for key in _sweep_keys(base)]
)
def test_boundary_inputs_end_as_documented(base, key, tmp_path, capsys):
    # every value ends in a result, a config error or a typed numeric error
    # with nothing written, or a --check failure whose claim is false
    command = base.split()[0]
    wrong = []
    for i, value in enumerate(_boundary_values(cli._DEFAULTS[command].get(key, 0))):
        out = tmp_path / str(i)
        argv = [command, "--out", str(out), "--check"]
        for item in _SWEEP_BASES[base] + [f"{key}={value}"]:
            argv += ["--set", item]
        code, _, err = run_cli(argv, capsys)
        last = err.strip().splitlines()[-1] if err.strip() else ""
        typed = re.match(r"error: (\w+): ", last)
        if code == 0:
            ok = True
        elif code == 2:
            ok = last.startswith("config error: ") and not out.exists()
        elif code == 3:
            ok = typed is not None and typed[1] in vars(errors) and not out.exists()
        elif code == 4:
            ok = any(
                c == command and k in (None, key) and (vals is None or value in vals)
                and re.search(message, last)
                for c, k, vals, message in _FALSE_CLAIMS
            )
        else:
            ok = False
        if not ok:
            wrong.append((value, code, last))
    assert not wrong


@pytest.mark.parametrize("base", ["hydrogen-convergence", "lemma-probes"])
def test_strong_coupling_solves_at_the_reference_size(base, tmp_path, capsys):
    # q = 1e12 at n_ref = 16: every Gershgorin disc of the reference
    # matrix reaches its smallest diagonal entry, so the start block holds
    # every row; from row j alone the iteration does not resolve the
    # relative gap of 2.6e-9 within its cap
    argv = [base, "--out", str(tmp_path)]
    for item in _SWEEP_BASES[base] + ["q=1e12"]:
        argv += ["--set", item]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
