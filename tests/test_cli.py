import json
import math
import subprocess
import sys

import pytest

from thermoprobe import cli
from thermoprobe.numerics import Table


def run(tmp_path, argv, name="out.csv"):
    """Invoke the CLI writing to a temp file; return (exit code, text)."""
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestEquilibriumScan:
    def test_default_has_six_series(self, tmp_path):
        code, text = run(tmp_path, ["equilibrium-scan", "--points", "40"])
        assert code == 0
        header, rows = parse_csv(text)
        assert header == ["N", "T", "qfi", "qfi_normalized"]
        series = {r["N"] for r in rows}
        assert series == {"2", "4", "6", "8", "10", "ho"}
        assert len(rows) == 6 * 40

    def test_single_probe_two_series(self, tmp_path):
        code, text = run(tmp_path, ["equilibrium-scan", "--n", "2", "--points", "10"])
        assert code == 0
        _, rows = parse_csv(text)
        assert {r["N"] for r in rows} == {"2", "ho"}

    def test_no_harmonic(self, tmp_path):
        code, text = run(tmp_path, ["equilibrium-scan", "--n", "2,4", "--points", "10", "--no-harmonic"])
        assert code == 0
        _, rows = parse_csv(text)
        assert {r["N"] for r in rows} == {"2", "4"}

    def test_empty_n_list_exits_two(self, tmp_path):
        code, _ = run(tmp_path, ["equilibrium-scan", "--n", ""])
        assert code == 2

    def test_bad_grid_exits_two(self, tmp_path):
        code, _ = run(tmp_path, ["equilibrium-scan", "--x-min", "5", "--x-max", "1"])
        assert code == 2

    def test_large_ratio_writes_finite_rows(self, tmp_path):
        # x/2 runs to 1000, through the band where sinh(x/2)^2 overflows a double
        code, text = run(tmp_path, ["equilibrium-scan", "--x-max", "2000"])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 6 * 400
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("T", "qfi", "qfi_normalized"))

    def test_vanishing_curve_exits_three(self, tmp_path, capsys):
        # every QFI underflows to 0, so no curve can be normalized by its peak
        code, text = run(tmp_path, ["equilibrium-scan", "--x-min", "1e-300", "--x-max", "1e-299",
                                    "--points", "3"])
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert "numerical failure" in err and "Traceback" not in err

    def test_csv_round_trips_full_precision(self, tmp_path):
        code, text = run(tmp_path, ["equilibrium-scan", "--n", "3", "--points", "17"])
        assert code == 0
        code2, jtext = run(tmp_path, ["equilibrium-scan", "--n", "3", "--points", "17",
                                      "--format", "json"], name="out.json")
        assert code2 == 0
        _, csv_rows = parse_csv(text)
        json_rows = json.loads(jtext)
        for crow, jrow in zip(csv_rows, json_rows):
            for key in ("T", "qfi", "qfi_normalized"):
                assert float(crow[key]) == jrow[key]  # bit-exact after re-parse


class TestOptimalGap:
    def test_default_nine_rows_ascending(self, tmp_path):
        code, text = run(tmp_path, ["optimal-gap"])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 9
        xs = [float(r["x_star"]) for r in rows]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert xs[0] == pytest.approx(2.3994, abs=5e-4)

    def test_degeneracy_sweep(self, tmp_path):
        code, text = run(tmp_path, ["optimal-gap", "--n", "4", "--n0", "1,2,3"])
        assert code == 0
        _, rows = parse_csv(text)
        peaks = {int(r["n0"]): float(r["qfi_peak"]) for r in rows}
        assert peaks[1] > peaks[2] > peaks[3]
        assert rows[0]["variance_excess_vs_lower_n0"] == ""
        assert float(rows[1]["variance_excess_vs_lower_n0"]) > 0.0

    def test_invalid_degeneracy_exits_two(self, tmp_path):
        code, _ = run(tmp_path, ["optimal-gap", "--n", "2", "--n0", "2"])
        assert code == 2

    def test_range_syntax(self, tmp_path):
        code, text = run(tmp_path, ["optimal-gap", "--n", "2..4"])
        assert code == 0
        _, rows = parse_csv(text)
        assert [r["N"] for r in rows] == ["2", "3", "4"]

    @pytest.mark.parametrize("flags", [
        ["--temperature", "1e-300"],  # T^4 underflows to 0
        ["--n", "100000000"],         # the gap equation's residual stays above 1e-10
    ])
    def test_numerical_failure_exits_three(self, tmp_path, capsys, flags):
        code, text = run(tmp_path, ["optimal-gap"] + flags)
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert "numerical failure" in err and "Traceback" not in err


class TestHessianCheck:
    def test_default_range(self, tmp_path):
        code, text = run(tmp_path, ["hessian-check"])
        assert code == 0
        _, rows = parse_csv(text)
        assert [int(r["N"]) for r in rows] == list(range(2, 21))
        assert all(r["certifies_maximum"] == "true" for r in rows)
        assert all(float(r["eigenvalue_error"]) <= 1e-8 for r in rows)
        assert rows[0]["lambda_shift"] == ""  # no shift sector at N = 2

    def test_invalid_range_exits_two(self, tmp_path):
        code, _ = run(tmp_path, ["hessian-check", "--n-min", "5", "--n-max", "3"])
        assert code == 2

    def test_dimensions_beyond_64(self, tmp_path):
        code, text = run(tmp_path, ["hessian-check", "--n-min", "60", "--n-max", "100"])
        assert code == 0
        _, rows = parse_csv(text)
        assert [int(r["N"]) for r in rows] == list(range(60, 101))
        assert all(r["certifies_maximum"] == "true" for r in rows)
        assert all(float(r["eigenvalue_error"]) <= 1e-8 for r in rows)


class TestTransientScan:
    def test_default_five_series(self, tmp_path):
        code, text = run(tmp_path, ["transient-scan", "--points", "15"])
        assert code == 0
        _, rows = parse_csv(text)
        series = {(r["prep"], r["N"]) for r in rows}
        assert series == {("ground", "2"), ("ground", "4"), ("ground", "10"),
                          ("thermal-0.8", "2"), ("thermal-0.9", "2")}
        assert len(rows) == 5 * 15
        assert all(float(r["fisher_rate"]) > 0 for r in rows)

    def test_optional_series(self, tmp_path):
        code, text = run(tmp_path, ["transient-scan", "--points", "8",
                                    "--include-plus", "--include-harmonic"])
        assert code == 0
        _, rows = parse_csv(text)
        assert len({(r["prep"], r["N"]) for r in rows}) == 7

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = ["transient-scan", "--include-plus", "--include-harmonic"]
        code_a, a = run(tmp_path, argv, name="a.csv")
        code_b, b = run(tmp_path, argv, name="b.csv")
        assert code_a == code_b == 0
        assert a == b

    def test_large_gap_writes_finite_rows(self, tmp_path):
        # every excited population underflows to 0 and must contribute 0, not 0/0
        code, text = run(tmp_path, ["transient-scan", "--gap", "1000"])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 5 * 200
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("dt", "fisher_rate"))

    @pytest.mark.parametrize("flags", [
        ["--temperature", "1e-300"],  # gap^3 underflows: the relaxation time is infinite
        ["--gamma", "1e-320"],        # coupling * gap^3 is subnormal: the time overflows
        ["--gamma", "1e-310"],        # finite relaxation time, but the grid's end overflows
    ])
    def test_degenerate_time_scale_exits_three(self, tmp_path, capsys, flags):
        code, text = run(tmp_path, ["transient-scan"] + flags)
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert "numerical failure" in err and "Traceback" not in err

    def test_zero_coupling_exits_two(self, tmp_path):
        code, _ = run(tmp_path, ["transient-scan", "--gamma", "0"])
        assert code == 2

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 5, "n": "2", "t_prep": "0.8"}))
        code, text = run(tmp_path, ["transient-scan", "--config", str(cfg)], name="a.csv")
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 2 * 5  # ground N=2 plus thermal-0.8
        # a flag overrides the config file
        code, text = run(tmp_path, ["transient-scan", "--config", str(cfg), "--points", "3"], name="b.csv")
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 2 * 3

    def test_unknown_config_key_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"walrus": 1}))
        code, _ = run(tmp_path, ["transient-scan", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("config, field", [
        ({"points": "abc"}, "points"),
        ({"points": 2.5}, "points"),
        ({"n": [3.0]}, "n"),
        ({"include_plus": 1}, "include_plus"),
        ({"gamma": True}, "gamma"),
    ])
    def test_config_value_of_wrong_type_exits_two(self, tmp_path, capsys, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _ = run(tmp_path, ["transient-scan", "--config", str(cfg)])
        assert code == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err

    def test_config_takes_ints_for_floats_and_null_gap(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1, "temperature": 2, "gap": None, "t_prep": [1],
                                   "points": 4}))
        code, text = run(tmp_path, ["transient-scan", "--config", str(cfg)])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 4 * 4  # three ground series and thermal-1

    def test_missing_config_file_exits_two(self, tmp_path):
        code, _ = run(tmp_path, ["transient-scan", "--config", str(tmp_path / "nope.json")])
        assert code == 2


class TestLimits:
    def test_default_rows(self, tmp_path):
        code, text = run(tmp_path, ["limits"])
        assert code == 0
        _, rows = parse_csv(text)
        assert [r["N"] for r in rows] == ["2", "4", "10"]
        xts = {r["x_tilde"] for r in rows}
        assert len(xts) == 1  # identical column
        assert float(next(iter(xts))) == pytest.approx(4.885, abs=5e-3)
        rates = [float(r["rate"]) for r in rows]
        assert rates[1] / rates[0] == pytest.approx(3.0, rel=1e-12)
        assert rates[2] / rates[0] == pytest.approx(9.0, rel=1e-12)

    def test_single_dimension(self, tmp_path):
        code, text = run(tmp_path, ["limits", "--n", "7"])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 1


class TestExitCodes:
    def test_numerical_failure_maps_to_three(self, tmp_path, monkeypatch):
        from thermoprobe.numerics import NoConvergence

        def explode(params):
            raise NoConvergence("synthetic")

        monkeypatch.setitem(cli._RUNNERS, "limits", explode)
        code = cli.main(["limits", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    @pytest.mark.parametrize("argv, field", [
        (["transient-scan", "--gamma", "inf"], "gamma"),
        (["equilibrium-scan", "--gap", "inf"], "gap"),
        (["limits", "--temperature", "inf"], "temperature"),
        (["limits", "--temperature", "nan"], "temperature"),
    ])
    def test_non_finite_float_exits_two(self, tmp_path, capsys, argv, field):
        code, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert f"configuration error: {field}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, config, field", [
        (["equilibrium-scan", "--points", "1000000000000000"], None, "points"),
        (["equilibrium-scan", "--points", "100000000000000000000"], None, "points"),
        (["equilibrium-scan"], {"points": 10**15}, "points"),
        (["transient-scan", "--points", "1000000000000000"], None, "points"),
        (["transient-scan", "--points", "100000000000000000000"], None, "points"),
        (["transient-scan"], {"points": 10**20}, "points"),
        (["limits", "--n", "2..1000000000000000"], None, "n"),
        (["limits", "--n", "2..100000000000000000000"], None, "n"),
        (["limits"], {"n": "2..1000000000000000"}, "n"),
        (["optimal-gap", "--n0", "1..1000000000000000"], None, "n0"),
        (["optimal-gap"], {"n0": "1..100000000000000000000"}, "n0"),
    ])
    def test_oversized_size_exits_two(self, tmp_path, capsys, argv, config, field):
        # sizes of 1e15 and more exceed a 47-bit address space, so allocation fails at once
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        code, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert f"configuration error: {field}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, quantity", [
        (["limits", "--gamma", "1e308", "--temperature", "1e308"], "rate"),
        (["limits", "--gamma", "1e308", "--temperature", "1e100"], "rate"),
        (["optimal-gap", "--temperature", "1e100"], "temperature**4"),
        (["hessian-check", "--temperature", "1e100"], "temperature**4"),
        (["transient-scan", "--gap", "1e300"], "gap**3"),
        (["transient-scan", "--span-min", "1e-104", "--include-plus"], None),
        (["transient-scan", "--temperature", "1e-300", "--gap", "0.5", "--include-harmonic"], "harmonic"),
        (["transient-scan", "--temperature", "1e308"], "gap"),
        (["equilibrium-scan", "--gap", "1e-200", "--x-min", "1e150", "--x-max", "1e200"], "temperature"),
        (["transient-scan", "--temperature", "1e-320", "--gap", "1"], "temperature step"),
    ])
    def test_numerical_edge_exits_three(self, tmp_path, capsys, argv, quantity):
        code, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert err.startswith("thermoprobe: numerical failure: ")
        if quantity is not None:
            assert quantity in err

    @pytest.mark.parametrize("command, field", [
        ("equilibrium-scan", "n"),
        ("optimal-gap", "n"),
        ("optimal-gap", "n0"),
        ("transient-scan", "n"),
        ("limits", "n"),
    ])
    def test_empty_list_in_config_exits_two(self, tmp_path, capsys, command, field):
        # a flag cannot give an empty list, a config file can
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: []}))
        code, text = run(tmp_path, [command, "--config", str(cfg)])
        assert code == 2
        assert text == ""
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--include-plus", "--gap", "10", "--span-max", "1e308"],
        ["--temperature", "1e-300", "--gap", "0.5", "--include-harmonic"],
    ])
    def test_numerical_failure_prints_one_line(self, flags):
        # a fresh interpreter shows numpy warnings on stderr as a user sees them
        proc = subprocess.run(
            [sys.executable, "-m", "thermoprobe.cli", "transient-scan", *flags],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("thermoprobe: numerical failure: ")

    def test_stdout_default(self, capsys):
        code = cli.main(["limits", "--n", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("N,x_tilde,rate")


class TestRendering:
    def test_none_becomes_empty_cell(self):
        text = cli.render_rows(Table(("a", "b"), [([1], [None])]), "csv")
        assert text == "a,b\n1,\n"

    def test_float_shortest_round_trip(self):
        value = 0.1 + 0.2
        text = cli.render_rows(Table(("v",), [([value],)]), "csv")
        assert float(text.splitlines()[1]) == value


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "limits.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "thermoprobe.cli", "limits", "--n", "2", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.read_text().startswith("N,x_tilde,rate")
