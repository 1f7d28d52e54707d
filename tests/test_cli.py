"""Tests for the command-line driver: config handling, outputs, exit codes."""
import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from zetavac import __version__
from zetavac.cli import ConfigError, build_parser, main, parse_config_text
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
    def test_scalar_types(self):
        text = 'count = 5\nrate = 1.5\nname = "abc"\non = true\noff = false'
        cfg = parse_config_text(text)
        assert cfg == {"count": 5, "rate": 1.5, "name": "abc", "on": True, "off": False}
        assert isinstance(cfg["count"], int)

    def test_lists(self):
        cfg = parse_config_text("xs = [1, 2, 3]\nys = [0.5, 1.5]\nempty = []")
        assert cfg["xs"] == [1, 2, 3]
        assert cfg["ys"] == [0.5, 1.5]
        assert cfg["empty"] == []

    def test_comments_sections_and_blanks_skipped(self):
        cfg = parse_config_text("# a comment\n\n[section]\nkey = 1\n")
        assert cfg == {"key": 1}

    def test_inline_comment_stripped(self):
        assert parse_config_text("k = 5 # five")["k"] == 5

    def test_hash_inside_quotes_preserved(self):
        assert parse_config_text('k = "a#b"')["k"] == "a#b"

    @pytest.mark.parametrize(
        "text",
        ["just words", "= 5", "xs = [1, 2", "k = @@"],
        ids=["no-equals", "empty-key", "open-list", "bad-token"],
    )
    def test_malformed_lines_raise(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)


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

    def test_position_observable(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["zeta", "--out", str(tmp_path), "--set", "observable=position"] + self.SMALL,
            capsys,
        )
        assert code == 0

    def test_check_passes_on_small_config(self, tmp_path, capsys):
        code, _, _ = run_cli(["zeta", "--out", str(tmp_path), "--check"] + self.SMALL, capsys)
        assert code == 0

    def test_bad_observable_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["zeta", "--out", str(tmp_path), "--set", "observable=momentum"] + self.SMALL,
            capsys,
        )
        assert code == 2

    def test_divergent_fock_series_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["zeta", "--out", str(tmp_path), "--set", "fock_t=2.0"] + self.SMALL, capsys
        )
        assert code == 3
        assert "error" in err


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
            assert_allclose(float(row[2]), coeffs.coeffs[int(row[0])], atol=1e-14)

    def test_nine_qubit_check_uses_relative_bound(self, tmp_path, capsys):
        # the round-trip error at Q=9 is ~1e-16 relative to max|M| but
        # above an absolute 1e-12, so only a relative bound passes it
        code, _, err = run_cli(
            ["pauli-export", "--out", str(tmp_path), "--check", "--set", "qubits=9"],
            capsys,
        )
        assert code == 0, err

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
