import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys

import pytest

from thermoprobe import cli
from thermoprobe.dynamics import DissipationModel, optimal_interrogation_ratio, ultimate_rate
from thermoprobe.numerics import geometric_grid

from oracles import UNREADABLE_CONFIGS, UNWRITABLE_STDOUTS, flag, place_unreadable_config, unwritable_stdout
from test_golden import GOLDEN


def run(tmp_path, argv, name="out.csv"):
    """Invoke the CLI writing to a temp file; return (exit code, text)."""
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def default_stdio_env():
    """The environment without PYTHONUNBUFFERED, so that a child's stdout is
    block-buffered into a file or pipe, as an interpreter's is by default."""
    return {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def run_program(command_line):
    """Run ``thermoprobe <command_line>`` in a fresh interpreter through ``sh``,
    so that the line can redirect or close the program's streams."""
    return subprocess.run(["sh", "-c", f'"$0" -m thermoprobe.cli {command_line}', sys.executable],
                          capture_output=True, text=True, timeout=30, env=default_stdio_env())


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

    @pytest.mark.parametrize("x_max", ["2000", "1e300"])
    def test_large_ratio_writes_finite_rows(self, tmp_path, x_max):
        # x/2 runs through the band where sinh(x/2)^2 overflows a double, and
        # at 1e300 past x = 1.34e154, where x^2 does
        code, text = run(tmp_path, ["equilibrium-scan", "--x-max", x_max])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 6 * 400
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("T", "qfi", "qfi_normalized"))

    @pytest.mark.parametrize("flags, rows", [
        (["--x-max", "1.7976931348623157e308", "--points", "50"], 6 * 50),  # e^{-x/2} underflows, gap/T overflows
        (["--gap", "1e-16", "--x-min", "5e-324", "--x-max", "1", "--points", "3"], 6 * 3),  # x/2 underflows
    ], ids=["largest-x", "smallest-x"])
    def test_oscillator_at_the_ends_of_the_ratio_writes_finite_rows(self, tmp_path, flags, rows):
        code, text = run(tmp_path, ["equilibrium-scan", *flags])
        assert code == 0
        _, got = parse_csv(text)
        assert len(got) == rows
        assert all(math.isfinite(float(r[k])) for r in got for k in ("T", "qfi", "qfi_normalized"))

    @pytest.mark.parametrize("flags", [
        ["--x-min", "1e-181", "--x-max", "1e-180", "--n", "2"],           # x^2 and gap are subnormal
        ["--x-min", "1e-163", "--x-max", "1e-160", "--n", "1000000"],     # so is the squared root
    ], ids=["n=2", "n=1e6"])
    def test_two_level_below_the_normal_intermediates_matches_mpmath(self, tmp_path, flags):
        # gap 1e-300: the value is a normal float though x^2, gap * (1 + (n-1) e^{-x})
        # or the root squared is not
        mp = pytest.importorskip("mpmath").mp
        code, text = run(tmp_path, ["equilibrium-scan", "--gap", "1e-300", "--points", "2",
                                    "--no-harmonic", *flags])
        assert code == 0
        _, rows = parse_csv(text)
        n = int(flags[-1])
        for x, row in zip(geometric_grid(float(flags[1]), float(flags[3]), 2), rows):
            with mp.workdps(50):
                w = (n - 1) * mp.exp(-mp.mpf(x))
                want = mp.mpf(x) ** 4 * w / (mp.mpf(1e-300) ** 2 * (1 + w) ** 2)
            assert abs(float(row["qfi"]) - want) <= 1e-15 * want

    def test_values_past_the_normal_half_exponential_match_mpmath(self, tmp_path):
        # gap 1e-300: e^{-x/2} is subnormal from x = 1416.8, though both curves
        # are normal floats down to 1.9e-299 at x = 2100
        mp = pytest.importorskip("mpmath").mp
        code, text = run(tmp_path, ["equilibrium-scan", "--gap", "1e-300", "--x-min", "1450", "--x-max", "2100",
                                    "--points", "6", "--n", "2"])
        assert code == 0
        _, rows = parse_csv(text)
        assert [r["N"] for r in rows] == ["2"] * 6 + ["ho"] * 6
        grid = geometric_grid(1450.0, 2100.0, 6)
        for x, qubit, oscillator in zip(grid, rows[:6], rows[6:]):
            with mp.workdps(60):
                gap, t = mp.mpf(1e-300), mp.mpf(float(oscillator["T"]))
                w = mp.exp(-mp.mpf(x))
                want_qubit = mp.mpf(x) ** 4 * w / (gap**2 * (1 + w) ** 2)
                want_oscillator = (gap / (2 * t * t) / mp.sinh(gap / (2 * t))) ** 2
            assert abs(float(qubit["qfi"]) - want_qubit) <= 1e-15 * want_qubit
            assert abs(float(oscillator["qfi"]) - want_oscillator) <= (1.0 + x) * 5e-16 * want_oscillator

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

    def test_invalid_degeneracy_exits_two(self, tmp_path, capsys):
        # a runner check, n0 within [1, n - 1], which the shared rules cannot express
        code, text = run(tmp_path, ["optimal-gap", "--n", "2", "--n0", "2"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("thermoprobe: configuration error: n0:")

    def test_range_syntax(self, tmp_path):
        code, text = run(tmp_path, ["optimal-gap", "--n", "2..4"])
        assert code == 0
        _, rows = parse_csv(text)
        assert [r["N"] for r in rows] == ["2", "3", "4"]

    @pytest.mark.parametrize("flags", [
        ["--temperature", "1e-300"],  # T^2 underflows to 0
        ["--n", "1" + "0" * 400],     # n - n0 exceeds the float range
    ])
    def test_numerical_failure_exits_three(self, tmp_path, capsys, flags):
        code, text = run(tmp_path, ["optimal-gap"] + flags)
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert "numerical failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("t", ["1e-100", "1e100"])
    def test_temperatures_far_from_one_exit_zero(self, tmp_path, t):
        # T^2 and 1/T^2 are normal floats; the values themselves are checked
        # against mpmath in test_equilibrium_oracle
        code, text = run(tmp_path, ["optimal-gap", "--n", "3..10", "--n0", "1,2", "--temperature", t])
        assert code == 0
        _, rows = parse_csv(text)
        _, at_one = parse_csv(run(tmp_path, ["optimal-gap", "--n", "3..10", "--n0", "1,2"], "one.csv")[1])
        assert [r["x_star"] for r in rows] == [r["x_star"] for r in at_one]
        assert all(math.isfinite(float(r["qfi_peak"])) for r in rows)

    @pytest.mark.parametrize("flags, pairs", [
        (["--n", "1000000"], [(10**6, 1)]),
        (["--n", "1000000000000000", "--n0", "1,2"], [(10**15, 1), (10**15, 2)]),
    ])
    def test_large_dimensions_meet_the_relative_residual(self, tmp_path, flags, pairs):
        code, text = run(tmp_path, ["optimal-gap"] + flags)
        assert code == 0
        _, rows = parse_csv(text)
        assert [(int(r["N"]), int(r["n0"])) for r in rows] == pairs
        for row, (n, n0) in zip(rows, pairs):
            x = float(row["x_star"])
            assert abs(math.exp(x) * (x - 2.0) * n0 / ((n - n0) * (x + 2.0)) - 1.0) <= 1e-10


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

    def test_five_thousand_dimensions_in_one_pass(self, tmp_path):
        # a fresh interpreter under a timeout: a certificate that costs more
        # than linear time in n_max fails the test instead of hanging the suite
        out = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "thermoprobe.cli", "hessian-check", "--n-max", "5000",
                               "--out", str(out)], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        _, rows = parse_csv(out.read_text())
        assert [int(r["N"]) for r in rows] == list(range(2, 5001))
        for row in rows:
            n, x = int(row["N"]), float(row["x_star"])
            assert float(row["lambda_pair"]) == pytest.approx(-n * (x * x - 4.0) / (8.0 * (n - 1)), rel=1e-12)
            if n > 2:
                assert float(row["lambda_shift"]) == pytest.approx(-(x - 2.0) / (2.0 * (n - 1)), rel=1e-12)
            assert row["certifies_maximum"] == "true"

    @pytest.mark.parametrize("argv, field", [
        (["hessian-check", "--n-max", str(10**7)], "n_max"),
        (["limits", "--n", f"2..{10**7}"], "n"),
        (["optimal-gap", "--n", f"2..{3 * 10**6}", "--n0", "1"], "n"),
        (["equilibrium-scan", "--points", str(10**7)], "points"),
        (["transient-scan", "--points", str(10**7)], "points"),
    ], ids=["hessian-check", "limits", "optimal-gap", "equilibrium-scan", "transient-scan"])
    def test_range_beyond_the_address_space_limit_exits_two(self, tmp_path, argv, field):
        # millions of dimensions fit as a list of ints (a few hundred MB at most)
        # but their rows need gigabytes; under a 1 GB address-space limit on the
        # child alone the run must end at the reservation, not in a MemoryError
        # traceback partway through
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = tmp_path / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "thermoprobe.cli", *argv, "--out", str(out)],
                              capture_output=True, text=True, timeout=30, preexec_fn=limit_address_space)
        assert proc.returncode == 2, proc.stderr
        assert not out.exists()
        assert proc.stderr.startswith(f"thermoprobe: configuration error: {field}:")
        assert "Traceback" not in proc.stderr

    def test_dimensions_beyond_64_bit_ints(self, tmp_path):
        n = 10**20
        code, text = run(tmp_path, ["hessian-check", "--n-min", str(n), "--n-max", str(n)])
        assert code == 0
        _, [row] = parse_csv(text)
        x = float(row["x_star"])
        assert int(row["N"]) == n and row["certifies_maximum"] == "true"
        assert float(row["lambda_shift"]) == -(x - 2.0) / (2.0 * (n - 1))

    @pytest.mark.parametrize("t", ["1e-300", "1e-200", "0.7", "1e200", "1e300"])
    def test_output_does_not_depend_on_the_temperature(self, tmp_path, t):
        # the variance Hessian in the level energies is dimensionless, so the
        # certificate is formed at T = 1 whatever --temperature says
        code, text = run(tmp_path, ["hessian-check", "--n-max", "64", "--temperature", t])
        assert code == 0
        assert text == run(tmp_path, ["hessian-check", "--n-max", "64"], "one.csv")[1]

    def test_dimensions_beyond_64(self, tmp_path):
        code, text = run(tmp_path, ["hessian-check", "--n-min", "60", "--n-max", "100"])
        assert code == 0
        _, rows = parse_csv(text)
        assert [int(r["N"]) for r in rows] == list(range(60, 101))
        assert all(r["certifies_maximum"] == "true" for r in rows)
        assert all(float(r["eigenvalue_error"]) <= 1e-8 for r in rows)

    @pytest.mark.parametrize("n, t", [pytest.param(n, None, id=str(n)) for n in (10**8, 10**12, 10**15)]
                             + [pytest.param(10**k, None, id=f"1e{k}") for k in (162, 200, 300, 307)]
                             # N T beyond the float range, where the T-independent certificate still holds
                             + [pytest.param(10**k, t, id=f"1e{k}-T{t}")
                                for k, t in ((274, "1e50"), (184, "1e140"), (20, "1e153"))])
    def test_certifies_very_large_dimensions(self, tmp_path, n, t):
        # the shift eigenvalue -(x-2)/(2(n-1)) shrinks as 1/n but stays negative,
        # and the entries b and d, about 1/n and 1/n^2, must not underflow before it
        temperature = ["--temperature", t] if t else []
        code, text = run(tmp_path, ["hessian-check", "--n-min", str(n), "--n-max", str(n), *temperature])
        assert code == 0
        _, (row,) = parse_csv(text)
        x = float(row["x_star"])
        assert float(row["lambda_shift"]) == pytest.approx(-(x - 2.0) / (2.0 * (n - 1)), rel=1e-12)
        assert row["certifies_maximum"] == "true"


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

    def test_coldest_preparation_is_the_ground_state(self, tmp_path):
        # gap / T_prep = 4.9e300, where e^{-x0} is 0 as at the ground state's x0 = inf
        code, text = run(tmp_path, ["transient-scan", "--t-prep", "1e-300"])
        assert code == 0
        _, rows = parse_csv(text)
        thermal = [(r["dt"], r["fisher_rate"]) for r in rows if (r["prep"], r["N"]) == ("thermal-1e-300", "2")]
        ground = [(r["dt"], r["fisher_rate"]) for r in rows if (r["prep"], r["N"]) == ("ground", "2")]
        assert len(thermal) == 200 and thermal == ground

    def test_hottest_preparation_writes_finite_rows(self, tmp_path):
        # gap / T_prep = 4.9e-300: equal populations to the last bit
        code, text = run(tmp_path, ["transient-scan", "--t-prep", "1e300"])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 4 * 200 and {r["prep"] for r in rows} == {"ground", "thermal-1e+300"}
        assert all(math.isfinite(float(r["fisher_rate"])) and float(r["fisher_rate"]) >= 0.0 for r in rows)

    def test_underflowing_series_are_zero_and_unchanged(self, tmp_path):
        # at gap/T = 800 every exact value underflows, so each rate is 0.0; the
        # digest pins the whole output, dt column included, whose points are
        # 10 ** exponent from the platform's libm pow
        code, text = run(tmp_path, ["transient-scan", "--gap", "800", "--include-plus", "--include-harmonic"])
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 7 * 200 and {r["fisher_rate"] for r in rows} == {"0.0"}
        digest = "0c779ae4f285663f6fb2d8d775fda9d239b4c742d1873dfa51792e4b6d4851a8"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("flags", [
        ["--span-min", "1e-104", "--include-plus"],  # plus a hair from its pure preparation
        ["--include-plus", "--gap", "10", "--span-max", "1e308"],
        ["--temperature", "1e-300", "--gap", "0.5", "--include-harmonic"],  # every value underflows
    ])
    def test_extreme_contact_times_and_ratios_write_finite_rows(self, tmp_path, flags):
        # exact derivatives take no temperature step, which would underflow or
        # lose its digits to roundoff at these contact times and ratios
        code, text = run(tmp_path, ["transient-scan", "--points", "20"] + flags)
        assert code == 0
        _, rows = parse_csv(text)
        assert all(math.isfinite(float(r["fisher_rate"])) and float(r["fisher_rate"]) >= 0.0 for r in rows)

    @pytest.mark.parametrize("flags", [
        ["--temperature", "1e-300"],  # gap^3 underflows: the relaxation time is infinite
        ["--gamma", "1e-320"],        # coupling * gap^3 is subnormal: the time overflows
        ["--gamma", "1e-310"],        # finite relaxation time, but the grid's end overflows
        pytest.param(["--span-max", "1e308"], id="span_max=1e308"),  # tau of 8.4, the last contact time overflows
    ])
    def test_degenerate_time_scale_exits_three(self, tmp_path, capsys, flags):
        code, text = run(tmp_path, ["transient-scan"] + flags)
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert "numerical failure: interrogation grid [" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--span-min", "1e-320"],
        ["--span-min", "5e-324"],
        ["--gamma", "1e308", "--gap", "1"],    # at the default span_min of a subnormal relaxation time,
        ["--gamma", "1e300", "--gap", "500"],  # 4.6e-309 and 8e-309
        ["--span-min", "5e-324", "--span-max", "1e308"],  # a subnormal first end wins over an infinite last
    ], ids=["1e-320", "5e-324", "tau=4.6e-309", "tau=8e-309", "5e-324,span_max=1e308"])
    def test_subnormal_first_contact_time_exits_two(self, tmp_path, capsys, flags):
        # a subnormal dt carries too few digits for its rate, which came out 2 % off at 1e-320
        code, text = run(tmp_path, ["transient-scan", *flags, "--include-plus", "--include-harmonic"])
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("thermoprobe: configuration error: span_min:") and "Traceback" not in err

    def test_smallest_accepted_span_min_meets_the_short_time_limit(self, tmp_path):
        x, gamma, t = optimal_interrogation_ratio(), 1e-3, 1.0
        tau = DissipationModel(gap=x * t, temperature=t, coupling=gamma).relaxation_time
        span_min = sys.float_info.min / tau
        while span_min * tau < sys.float_info.min:
            span_min = math.nextafter(span_min, math.inf)
        assert run(tmp_path, ["transient-scan", "--span-min", repr(math.nextafter(span_min, 0.0))])[0] == 2
        code, text = run(tmp_path, ["transient-scan", "--span-min", repr(span_min), "--include-plus",
                                    "--include-harmonic"])
        assert code == 0
        _, rows = parse_csv(text)
        assert float(rows[0]["dt"]) >= sys.float_info.min
        assert float(rows[0]["fisher_rate"]) == pytest.approx(ultimate_rate(2, x, gamma, t), rel=1e-9)

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
        ({"gap": [1.0]}, "gap"),  # a list only for a list key
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

    @pytest.mark.parametrize("flags, config, preps", [
        (["--t-prep", ""], {"t_prep": []}, {"ground"}),
        # a number given as text in a config file reads as its flag does
        (["--gap", "1.5"], {"gap": "1.5"}, {"ground", "thermal-0.8", "thermal-0.9"}),
    ])
    def test_flag_matches_the_config(self, tmp_path, flags, config, preps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        from_flag = run(tmp_path, ["transient-scan", *flags], name="flag.csv")
        from_config = run(tmp_path, ["transient-scan", "--config", str(cfg)], name="config.csv")
        assert from_flag == from_config
        code, text = from_flag
        assert code == 0
        assert {row["prep"] for row in parse_csv(text)[1]} == preps

    @pytest.mark.parametrize("kind", UNREADABLE_CONFIGS)
    def test_unreadable_config_file_exits_two(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        place_unreadable_config(cfg, kind)
        code, text = run(tmp_path, ["transient-scan", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("thermoprobe: configuration error: config:") and "Traceback" not in err

    @pytest.mark.parametrize("top", [[1, 2], "points"])
    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys, top):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(top))
        code, text = run(tmp_path, ["transient-scan", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2 and text == ""
        assert err.startswith("thermoprobe: configuration error: config: top level must be a JSON object")
        assert "Traceback" not in err


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


# One bad value for each command and key that a shared rule governs: finite
# and positive, dimensions and grid sizes of at least 2, non-empty lists, and
# ordered pairs, where the value lies below its partner's default. An int
# beyond the floats, such as BEYOND_FLOATS, reads as inf where a float is due.
BEYOND_FLOATS = 10**400
RULE_CASES = [
    ("equilibrium-scan", "n", []),
    ("equilibrium-scan", "n", [2, 1]),
    ("equilibrium-scan", "gap", 0.0),
    ("equilibrium-scan", "x_min", -1.0),
    ("equilibrium-scan", "x_max", math.inf),
    ("equilibrium-scan", "x_max", 0.25),
    ("equilibrium-scan", "x_max", BEYOND_FLOATS),
    ("equilibrium-scan", "points", 0),
    ("equilibrium-scan", "points", 1),
    ("optimal-gap", "n", []),
    ("optimal-gap", "n", [1, 4]),
    ("optimal-gap", "n0", []),
    ("optimal-gap", "temperature", math.nan),
    ("optimal-gap", "temperature", BEYOND_FLOATS),
    ("hessian-check", "n_min", 1),
    ("hessian-check", "n_max", 1),
    ("hessian-check", "temperature", -1.0),
    ("transient-scan", "n", []),
    ("transient-scan", "n", [0]),
    ("transient-scan", "gamma", 0.0),
    ("transient-scan", "temperature", -math.inf),
    ("transient-scan", "gap", -1.0),
    ("transient-scan", "gap", BEYOND_FLOATS),
    ("transient-scan", "t_prep", [0.8, -0.9]),
    ("transient-scan", "t_prep", [0.8, 0.0]),
    ("transient-scan", "t_prep", [0.8, math.nan]),
    ("transient-scan", "points", 0),
    ("transient-scan", "points", 1),
    ("transient-scan", "span_min", 0.0),
    ("transient-scan", "span_max", math.nan),
    ("transient-scan", "span_max", 1e-4),
    ("transient-scan", "span_max", BEYOND_FLOATS),
    ("limits", "n", []),
    ("limits", "n", [2, 1]),
    ("limits", "gamma", -1e-3),
    ("limits", "temperature", 0.0),
    ("limits", "temperature", BEYOND_FLOATS),
]


class TestSharedRules:
    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", RULE_CASES,
                             ids=lambda v: "1e400" if v is BEYOND_FLOATS else None)
    def test_bad_value_exits_two_naming_the_key(self, tmp_path, capsys, form, command, key, value):
        argv = [command]
        if form == "flag":
            argv += flag(key, value)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            argv += ["--config", str(cfg)]
        code = cli.main(argv + ["--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert not (tmp_path / "out.csv").exists()
        assert err.startswith(f"thermoprobe: configuration error: {key}:") and "Traceback" not in err

    def test_the_table_covers_every_governed_key(self):
        governed = cli._POSITIVE | cli._AT_LEAST_TWO | cli._NON_EMPTY | {high for _, high, _ in cli._ORDERED}
        expected = {(c, k) for c, defaults in cli._DEFAULTS.items() for k in defaults if k in governed}
        assert {(c, k) for c, k, _ in RULE_CASES} == expected

    @pytest.mark.parametrize("argv, code, expected", [
        (["transient-scan", "--points", "2"], 0, 10),  # two rows per series
        (["equilibrium-scan", "--points", "2"], 0, 12),
        (["hessian-check", "--n-min", "5", "--n-max", "5"], 0, 1),
        (["transient-scan", "--points", "1"], 2, "points"),
        (["equilibrium-scan", "--points", "1"], 2, "points"),
        # a configuration error wins over the default gap x_tilde * T, which overflows
        (["transient-scan", "--temperature", "1e308", "--t-prep", "-1"], 2, "t_prep"),
        # flag text that does not parse as the type of its default
        (["transient-scan", "--points", "x"], 2, "points"),
        (["transient-scan", "--points", "2.5"], 2, "points"),
        (["transient-scan", "--gap", "abc"], 2, "gap"),
        (["hessian-check", "--n-max", "1e3"], 2, "n_max"),
        (["limits", "--n", "2..x"], 2, "n"),
        (["transient-scan", "--t-prep", "0.8,abc"], 2, "t_prep"),
    ])
    def test_boundaries(self, tmp_path, capsys, argv, code, expected):
        """Exit 0 with the expected number of rows, or exit 2 naming the expected
        field on the first line of stderr, which holds no argparse usage."""
        got, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert got == code
        if code == 0:
            assert len(parse_csv(text)[1]) == expected
        else:
            assert text == "" and err.startswith(f"thermoprobe: configuration error: {expected}:")
            assert "usage:" not in err


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

    @pytest.mark.parametrize("argv, target, field", [
        (["hessian-check", "--n-max", "64"], "hessian_certificate", "n_max"),
        (["equilibrium-scan"], "render_rows", "points"),
        (["optimal-gap"], "render_rows", "n"),
        (["hessian-check"], "render_rows", "n_max"),
        (["transient-scan"], "render_rows", "points"),
        (["limits"], "render_rows", "n"),
    ], ids=["certificate", "equilibrium-scan", "optimal-gap", "hessian-check", "transient-scan", "limits"])
    def test_memory_error_while_running_exits_two(self, tmp_path, capsys, monkeypatch, argv, target, field):
        """Memory that runs out after the reservation, while computing or
        rendering, is a configuration error naming the command's size field."""
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        code, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith(f"thermoprobe: configuration error: {field}:") and "Traceback" not in err

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_out_path_exits_two(self, tmp_path, capsys, target):
        """A missing directory, or a directory as the path, is a configuration error naming out."""
        before = sorted(tmp_path.iterdir())
        code = cli.main(["limits", "--out", str(tmp_path / target)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("thermoprobe: configuration error: out:") and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("kind", UNWRITABLE_STDOUTS)
    def test_unwritable_stdout_exits_two(self, capsys, monkeypatch, kind):
        """A stdout whose write or flush fails, or a closed one, is a configuration error naming out."""
        monkeypatch.setattr(sys, "stdout", unwritable_stdout(kind))
        code = cli.main(["limits"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("thermoprobe: configuration error: out:") and "Traceback" not in err

    @pytest.mark.parametrize("redirect", ["> /dev/full", ">&-"])
    def test_unwritable_stdout_of_the_program_exits_two(self, redirect):
        # a fresh interpreter with block-buffered stdout, where output left in
        # the buffer would fail again at exit with "Exception ignored" and exit 120
        proc = run_program(f"limits {redirect}")
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("thermoprobe: configuration error: out:")

    def test_pipe_without_reader_exits_two(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.run([sys.executable, "-m", "thermoprobe.cli", "limits"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=30, env=default_stdio_env())
        os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("thermoprobe: configuration error: out: [Errno 32] Broken pipe")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["block-buffered", "python-u"])
    def test_reader_gone_mid_output_exits_two(self, unbuffered):
        # under python -u stdout writes straight to the pipe, where a write the
        # reader leaves during stops short instead of failing
        env = {**default_stdio_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
        proc = subprocess.Popen([sys.executable, "-m", "thermoprobe.cli", "equilibrium-scan", "--points", "20000",
                                 "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100_000)) == 100_000
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 2
        assert err.decode().splitlines() == ["thermoprobe: configuration error: out: [Errno 32] Broken pipe"]

    @pytest.mark.parametrize("redirect", ["2>&-", "2> /dev/full"])
    def test_diagnostic_that_cannot_be_written_stays_off_stdout(self, redirect):
        # a closed stderr (None) must not send the diagnostic to stdout, as
        # print(file=None) would; a full one fails the write, and again at exit
        proc = run_program(f"limits --n 1 {redirect}")
        assert proc.returncode == 2
        assert proc.stdout == ""

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
        # the size is refused before the default gap x_tilde * T, or gamma * gap**3, overflows
        (["transient-scan", "--temperature", "1e308", "--points", "1000000000000"], None, "points"),
        (["transient-scan", "--gap", "1e300", "--points", "1000000000000"], None, "points"),
    ])
    def test_oversized_size_exits_two(self, tmp_path, capsys, argv, config, field):
        # sizes of 1e12 rows and more exceed a 47-bit address space, so allocation fails at once
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        code, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert f"configuration error: {field}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, config", [
        (["transient-scan", "--t-prep", "0.8000001,0.8000002"], None),
        (["transient-scan"], {"t_prep": [0.8000001, 0.8000002]}),
        # the collision is refused before the default gap x_tilde * T overflows
        (["transient-scan", "--t-prep", "0.8000001,0.8000002", "--temperature", "1e308"], None),
    ])
    def test_thermal_temperatures_sharing_a_label_exit_two(self, tmp_path, capsys, argv, config):
        # both curves would be labelled thermal-0.8, so the output could not be read back
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        code, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert "configuration error: t_prep:" in err and "Traceback" not in err

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("n_max", [10**15, 10**20])
    def test_unallocatable_hessian_exits_two(self, tmp_path, form, n_max):
        # a fresh interpreter under a timeout, so that a loop of certificates
        # without end fails the test instead of hanging the suite
        argv = ["hessian-check", "--out", str(tmp_path / "out.csv")]
        if form == "flag":
            argv += ["--n-max", str(n_max)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n_max": n_max}))
            argv += ["--config", str(cfg)]
        proc = subprocess.run([sys.executable, "-m", "thermoprobe.cli", *argv],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert not (tmp_path / "out.csv").exists()
        assert proc.stderr.startswith("thermoprobe: configuration error: n_max:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, quantity", [
        (["limits", "--gamma", "1e308", "--temperature", "1e308"], "rate"),
        (["limits", "--gamma", "1e308", "--temperature", "1e100"], "rate"),
        (["optimal-gap", "--temperature", "1e200"], "temperature T=1e+200"),
        (["transient-scan", "--gap", "1e300"], "gap**3"),
        # the rate overflows; span_min keeps the first contact time of 4.6e-309 relaxation times normal
        (["transient-scan", "--gamma", "1e308", "--gap", "1", "--span-min", "10"], "prep=ground"),
        (["transient-scan", "--temperature", "1e308"], "gap"),
        (["equilibrium-scan", "--gap", "1e-200", "--x-min", "1e150", "--x-max", "1e200"], "temperature"),
        (["transient-scan", "--temperature", "1e-320", "--gap", "1"], "gap/temperature"),
        (["optimal-gap", "--temperature", "1e-200"], "temperature T=1e-200"),
        (["optimal-gap", "--n", str(10**15), "--temperature", "2e-154"], f"qfi_peak is not finite at N={10**15}"),
        pytest.param(["hessian-check", "--n-min", str(10**400), "--n-max", str(10**400)], f"N={10**400}",
                     id="hessian-check-N-beyond-floats"),
        (["equilibrium-scan", "--gap", "1e-300", "--x-min", "1e-10", "--x-max", "1", "--points", "3"],
         "qfi is not finite at N=2"),  # the QFI overflows
        (["transient-scan", "--gamma", "1e300", "--gap", "1000"], "gap**3"),  # finite gap**3, infinite product
        # finite product, infinite decay rate: exits before the span_min check, as no span_min lets it run
        (["transient-scan", "--gamma", "1e300", "--gap", "100", "--temperature", "1e10"], "gap**3"),
    ])
    def test_numerical_edge_exits_three(self, tmp_path, capsys, argv, quantity):
        code, text = run(tmp_path, argv)
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert err.startswith("thermoprobe: numerical failure: ")
        if quantity is not None:
            assert quantity in err

    @pytest.mark.parametrize("command", ["equilibrium-scan", "limits", "transient-scan"])
    def test_dimension_beyond_the_floats_names_n(self, tmp_path, capsys, command):
        # the kernels take n - 1 as a float; a bare OverflowError would name no N
        code, text = run(tmp_path, [command, "--n", str(10**400)])
        err = capsys.readouterr().err
        assert code == 3
        assert text == ""
        assert f"numerical failure: dimension N={10**400} exceeds the float range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, field", [
        ("equilibrium-scan", "n"),
        ("optimal-gap", "n"),
        ("optimal-gap", "n0"),
        ("transient-scan", "n"),
        ("limits", "n"),
    ])
    def test_empty_list_in_config_exits_two(self, tmp_path, capsys, command, field):
        # a flag cannot give an empty int list, a config file can
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: []}))
        code, text = run(tmp_path, [command, "--config", str(cfg)])
        assert code == 2
        assert text == ""
        assert f"configuration error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--gamma", "1e308", "--gap", "1", "--span-min", "10", "--include-plus", "--include-harmonic"],
        ["--temperature", "1e-320", "--gap", "1"],
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


class TestGeneratedParser:
    @pytest.mark.parametrize("command, key", [(c, k) for c in cli._DEFAULTS for k in cli._DEFAULTS[c]])
    def test_flag_form_of_a_default_gives_the_defaults(self, command, key):
        default = cli._DEFAULTS[command][key]
        argv = flag(key, default) or []  # no flag expresses a None default
        args = cli._build_parser().parse_args([command] + argv)
        assert cli.build_run_config(args) == cli._DEFAULTS[command]
        if isinstance(default, bool):  # the flag of a switch turns it the other way
            args = cli._build_parser().parse_args([command] + flag(key, not default))
            assert cli.build_run_config(args) == {**cli._DEFAULTS[command], key: not default}

    @pytest.mark.parametrize("command", sorted(cli._DEFAULTS))
    def test_help_names_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main([command, "--help"])
        assert stop.value.code == 0
        shown = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        expected = {flag(key, not default)[0] if isinstance(default, bool) else "--" + key.replace("_", "-")
                    for key, default in cli._DEFAULTS[command].items()}
        assert expected | {"--config", "--out", "--format", "--help"} == shown

    def test_help_lists_every_command_with_its_line(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["--help"])
        assert stop.value.code == 0
        listed = dict(re.findall(r"^    ([a-z-]+) +(\S.*)$", capsys.readouterr().out, flags=re.M))
        assert listed == {
            "equilibrium-scan": "QFI vs temperature curves at fixed gap",
            "optimal-gap": "variance-maximizing gaps and peak QFI",
            "hessian-check": "curvature certificate of the optimal spectrum",
            "transient-scan": "QFI per unit time vs interrogation time",
            "limits": "short-interrogation sensitivity bounds",
        }


class TestRowBudget:
    def test_every_command_declares_its_rows(self):
        assert set(cli._ROWS) == set(cli._DEFAULTS) == set(cli._RUNNERS)

    @pytest.mark.parametrize("argv", [
        *[[command] for command in sorted(cli._DEFAULTS)],
        ["equilibrium-scan", "--no-harmonic"],
        ["transient-scan", "--include-plus", "--include-harmonic"],
    ], ids=" ".join)
    def test_declared_rows_bound_the_table(self, argv):
        # each command at its defaults, where equilibrium-scan has its harmonic series, and
        # with the optional series switched the other way
        params = cli.build_run_config(cli._build_parser().parse_args(argv))
        _, rows = cli._ROWS[argv[0]]
        assert rows(params) >= len(cli._RUNNERS[argv[0]](params))


class TestRendering:
    def test_none_becomes_empty_cell(self):
        text = cli.render_rows(cli.Table(("a", "b"), [([1], [None])]), "csv")
        assert text == "a,b\n1,\n"

    def test_float_shortest_round_trip(self):
        value = 0.1 + 0.2
        text = cli.render_rows(cli.Table(("v",), [([value],)]), "csv")
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

    def test_optimized_interpreter_changes_only_the_command_help_lines(self):
        # python -OO strips the runners' docstrings, which the top-level help
        # lines are: the commands are still listed, with blank lines
        limits = subprocess.run([sys.executable, "-OO", "-m", "thermoprobe.cli", "limits"],
                                capture_output=True, text=True, timeout=30)
        assert limits.returncode == 0 and limits.stderr == ""
        assert hashlib.sha256(limits.stdout.encode()).hexdigest() == GOLDEN["limits"]
        usage = subprocess.run([sys.executable, "-OO", "-m", "thermoprobe.cli", "--help"],
                               capture_output=True, text=True, timeout=30)
        assert usage.returncode == 0
        assert set(re.findall(r"^    ([a-z-]+)$", usage.stdout, flags=re.M)) == set(cli._RUNNERS)
