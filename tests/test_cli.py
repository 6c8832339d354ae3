import contextlib
import csv
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satwiretap import cli
from satwiretap.cli import _COMMON, _SUBCOMMANDS, _emit, _load_config, main
from satwiretap.code import bits_to_hex, hash_bits, hex_to_bits

from oracles import toeplitz_from_seed, toeplitz_mul_naive


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


SUBCOMMANDS = (
    "geometry", "capacity", "densities", "bound", "code", "simulate", "oracle", "reproduce",
)


class TestGeometry:
    def test_single_point(self, capsys):
        rc, out, err = run_cli(
            capsys,
            "geometry",
            "--rho-b", "500", "--rho-e", "1000",
            "--theta-e", "2", "--r", "2", "--a", "2", "--mu", "1",
        )
        assert rc == 0 and err == ""
        (row,) = rows_of(out)
        assert float(row["beta"]) == pytest.approx(0.5)
        assert float(row["alpha"]) == pytest.approx(0.25)
        assert float(row["gamma_g"]) == pytest.approx(0.125)
        assert row["eve_stronger"] == "0"

    def test_region_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "geometry", "--grid", "0.5:2:4,0.1:1:5")
        assert rc == 0
        rows = rows_of(out)
        assert len(rows) == 20
        assert set(rows[0]) == {"theta_deg", "rho_ratio", "gamma_g", "protected"}
        assert all(row["protected"] in ("0", "1") for row in rows)

    @pytest.mark.parametrize(
        "argv",
        [["--r", "400", "--rho-e", "2000"], ["--rho-b", "1e308"], ["--rho-b", "1e308", "--rho-e", "1e-10"]],
    )
    def test_overflowing_powers_exit_without_traceback(self, capsys, argv):
        rc, out, err = run_cli(capsys, "geometry", *argv)
        assert (rc, err) == (0, "") or (rc, out) == (1, "") and err.startswith("error: ")

    def test_malformed_grid(self, capsys):
        rc, _, err = run_cli(capsys, "geometry", "--grid", "0.5:2:4")
        assert rc == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("capacity", "--snr-sweep", "1:2"),
            ("geometry", "--grid", "1:2:0,1:2:3"),
            ("capacity", "--snr-sweep", "nan:1:3"),
            ("capacity", "--snr-sweep", "1:inf:3"),
            ("geometry", "--grid", "0.5:2:4,-inf:1:5"),
        ],
        ids=["missing-count", "zero-count", "nan-low", "inf-high", "inf-grid"],
    )
    def test_malformed_linspace_spec_exits_one(self, capsys, argv):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 1
        assert "error:" in err


class TestCapacity:
    def test_undegraded_point_has_zero_secrecy(self, capsys):
        rc, out, _ = run_cli(capsys, "capacity", "--gamma-g", "1", "--gamma-n", "1")
        assert rc == 0
        (row,) = rows_of(out)
        assert abs(float(row["c_s"])) <= 1e-12
        assert row["positive_condition"] == "0"

    def test_snr_sweep(self, capsys):
        rc, out, _ = run_cli(
            capsys, "capacity", "--gamma-g", "0.5", "--snr-sweep=-5:5:11"
        )
        assert rc == 0
        rows = rows_of(out)
        assert len(rows) == 11
        assert float(rows[0]["snr_db"]) == pytest.approx(-5.0)
        cs = [float(r["c_s"]) for r in rows]
        assert all(v >= 0.0 for v in cs)
        assert cs[-1] > cs[0]

    def test_sweep_prints_the_requested_grid(self, capsys):
        # not the grid's round trip through linear SNR (-0.49999999999999983)
        rc, out, _ = run_cli(capsys, "capacity", "--snr-sweep", "-.5:1:3")
        assert rc == 0
        assert [line.split(",")[0] for line in out.splitlines()] == [
            "snr_db", "-0.5", "0.25", "1.0",
        ]

    def test_domain_error_exits_one(self, capsys):
        rc, _, err = run_cli(capsys, "capacity", "--gamma-n", "-1")
        assert rc == 1
        assert "error:" in err


class TestDensities:
    def test_mixture_columns(self, capsys):
        rc, out, _ = run_cli(capsys, "densities", "--side", "eve", "--points", "11")
        assert rc == 0
        rows = rows_of(out)
        assert len(rows) == 11
        mix = [float(r["pdf_mix"]) for r in rows]
        assert all(v > 0 for v in mix)
        assert mix[0] == pytest.approx(mix[-1], rel=1e-9)  # even function

    def test_point_count_checked(self, capsys):
        rc, _, err = run_cli(capsys, "densities", "--points", "1")
        assert rc == 1 and "error:" in err


# 10^14 float64 values need 728 TiB, beyond a 64-bit process's address space,
# so numpy raises MemoryError without allocating anything
@pytest.mark.parametrize(
    "argv",
    [["densities", "--points", str(10**14)], ["bound", "--s-grid", str(10**14)]],
)
def test_unallocatable_size_exits_one(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "allocate" in err
    assert "Traceback" not in err


class TestBound:
    def test_min_row_matches_curve(self, capsys):
        rc, out, _ = run_cli(
            capsys, "bound", "--n", "1024", "--k-prime", "128", "--s-grid", "120"
        )
        assert rc == 0
        rows = rows_of(out)
        mins = [r for r in rows if r["is_min"] == "1"]
        assert len(mins) == 1
        curve_min = min(float(r["log2_bound"]) for r in rows if r["is_min"] == "0")
        refined = float(mins[0]["log2_bound"])
        assert refined <= curve_min + 1e-12

    def test_blind_eavesdropper_preset(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "bound",
            "--gamma-g", "0", "--gamma-n", "1",
            "--n", "1024", "--k-prime", "128", "--s-grid", "120",
        )
        assert rc == 0
        (min_row,) = [r for r in rows_of(out) if r["is_min"] == "1"]
        assert float(min_row["log2_bound"]) == pytest.approx(-128.0, abs=1e-6)
        assert float(min_row["s"]) == 1.0

    def test_rate_and_count_are_exclusive(self, capsys):
        rc, _, err = run_cli(
            capsys, "bound", "--k-prime", "10", "--rho-sec", "0.1"
        )
        assert rc == 1 and "error:" in err

    @pytest.mark.parametrize("rate", ["inf", "nan", "-0.5", "2"])
    def test_rate_outside_unit_interval_names_the_flag(self, capsys, rate):
        rc, out, err = run_cli(capsys, "bound", "--rho-sec", rate)
        assert rc == 1 and out == ""
        assert err.startswith("error: --rho-sec must be a finite rate in [0, 1]")
        assert "Traceback" not in err


class TestCode:
    def test_encode_decode_round_trip(self, capsys):
        args = ["code", "--k", "2", "--k-prime", "2", "--ecc", "hamming74",
                "--seed", "a0"]
        rc, out, _ = run_cli(
            capsys, *args, "--op", "encode", "--message", "80", "--sacrifice", "40"
        )
        assert rc == 0
        (row,) = rows_of(out)
        assert row["codeword"] == "d2"
        rc, out, _ = run_cli(capsys, *args, "--op", "decode", "--word", "d2")
        assert rc == 0
        (row,) = rows_of(out)
        assert row["message"] == "80"

    def test_hash_matches_library(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "code", "--op", "hash", "--k", "2", "--k-prime", "2",
            "--seed", "a0", "--word", "f0",
        )
        assert rc == 0
        (row,) = rows_of(out)
        expected = hash_bits(hex_to_bits("f0", 4), hex_to_bits("a0", 3), 2, 2)
        assert row["digest"] == bits_to_hex(expected)

    def test_hash_across_word_edges_matches_naive(self, capsys):
        rng = np.random.default_rng(12)
        k, kp = 70, 60
        seed = rng.integers(0, 2, k + kp - 1, dtype=np.uint8)
        word = rng.integers(0, 2, k + kp, dtype=np.uint8)
        rc, out, _ = run_cli(
            capsys,
            "code", "--op", "hash", "--k", str(k), "--k-prime", str(kp),
            "--seed", bits_to_hex(seed), "--word", bits_to_hex(word),
        )
        assert rc == 0
        (row,) = rows_of(out)
        expected = word[:k] ^ toeplitz_mul_naive(toeplitz_from_seed(seed, k, kp), word[k:])
        assert row["digest"] == bits_to_hex(expected)

    def test_missing_op(self, capsys):
        rc, _, err = run_cli(capsys, "code", "--k", "2", "--k-prime", "2")
        assert rc == 1 and "--op" in err

    def test_missing_operand(self, capsys):
        rc, _, err = run_cli(
            capsys, "code", "--op", "encode", "--k", "2", "--k-prime", "2",
            "--seed", "a0",
        )
        assert rc == 1 and "error:" in err

    @pytest.mark.parametrize(
        "flag, k, k_prime", [("--k", "-1", "2"), ("--k", "0", "2"), ("--k-prime", "2", "-1")]
    )
    def test_bad_dimension_is_named_before_any_hex_flag(self, capsys, flag, k, k_prime):
        rc, out, err = run_cli(
            capsys, "code", "--op", "hash", "--k", k, "--k-prime", k_prime,
            "--seed", "00", "--word", "00",
        )
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {flag} must be >= ")

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--seed", ["--op", "hash", "--seed", "0", "--word", "00"]),
            ("--message", ["--op", "encode", "--seed", "00", "--message", "zz", "--sacrifice", "00"]),
            ("--sacrifice", ["--op", "encode", "--seed", "00", "--message", "00", "--sacrifice", "q"]),
            ("--word", ["--op", "decode", "--seed", "00", "--word", "x"]),
            ("--word", ["--op", "hash", "--seed", "00", "--word", "0"]),
        ],
    )
    def test_bad_hex_names_its_flag(self, capsys, flag, argv):
        rc, out, err = run_cli(capsys, "code", "--k", "2", "--k-prime", "1", *argv)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {flag}: non-hexadecimal number")

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--seed", ["--k", "1", "--k-prime", "1", "--seed", "000000", "--word", "8000"]),
            ("--seed", ["--k", "8", "--k-prime", "2", "--seed", "a0 00", "--word", "ffc0"]),
            ("--word", ["--k", "2", "--k-prime", "2", "--seed", "a0", "--word", "f000"]),
        ],
    )
    def test_over_long_or_spaced_hex_names_its_flag(self, capsys, flag, argv):
        rc, out, err = run_cli(capsys, "code", "--op", "hash", *argv)
        assert rc == 1 and out == ""
        assert re.match(f"error: {flag}: expected [0-9]+ hex digits for [0-9]+ bits", err)


class TestSimulate:
    ARGS = (
        "simulate", "--n", "3", "--k", "1", "--k-prime", "0", "--ecc", "rep3",
        "--n0", "0.8", "--trials", "3000", "--master-seed", "3",
    )

    def test_deterministic_output(self, capsys):
        rc1, out1, _ = run_cli(capsys, *self.ARGS)
        rc2, out2, _ = run_cli(capsys, *self.ARGS)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_thread_count_invisible(self, capsys):
        _, serial, _ = run_cli(capsys, *self.ARGS, "--block-size", "256")
        _, pooled, _ = run_cli(capsys, *self.ARGS, "--block-size", "256", "--threads", "4")
        assert serial == pooled

    def test_bad_hash_seed_names_its_flag(self, capsys):
        rc, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--k", "2", "--k-prime", "1", "--hash-seed", "zz"
        )
        assert rc == 1 and out == ""
        assert err.startswith("error: --hash-seed: non-hexadecimal number")

    def test_report_fields(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS)
        (row,) = rows_of(out)
        assert row["trials"] == "3000"
        assert 0.0 <= float(row["ber"]) <= float(row["fer"]) <= 1.0

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--master-seed", "-1", "master_seed"),
            ("--threads", "0", "workers"),
            ("--trials", "0", "trials"),
            ("--block-size", "-5", "block_size"),
        ],
    )
    def test_bad_input_exits_one_naming_the_field(self, capsys, flag, value, field):
        rc, out, err = run_cli(capsys, *self.ARGS, flag, value)
        assert rc == 1 and out == ""
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


class TestOracle:
    def test_bound_holds_on_default_instance(self, capsys):
        rc, out, _ = run_cli(capsys, "oracle")
        assert rc == 0
        (row,) = rows_of(out)
        assert row["bound_holds"] == "1"
        assert float(row["exact_leak_bits"]) <= float(row["bound_bits"])

    def test_per_seed_rows(self, capsys):
        rc, out, _ = run_cli(
            capsys, "oracle", "--n", "3", "--k", "2", "--k-prime", "1", "--per-seed"
        )
        assert rc == 0
        rows = rows_of(out)
        assert len(rows) == 4
        assert all(float(r["leak_bits"]) >= 0.0 for r in rows)

    def test_oversized_instance_exits_one(self, capsys):
        rc, _, err = run_cli(capsys, "oracle", "--n", "13", "--k", "5", "--k-prime", "5")
        assert rc == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "4", "--k", "0", "--k-prime", "4"),
            ("--n", "3", "--k", "0", "--k-prime", "1", "--ecc", "rep3"),
        ],
    )
    def test_no_message_bits_exits_one_naming_k(self, capsys, argv):
        rc, out, err = run_cli(capsys, "oracle", *argv)
        assert (rc, out) == (1, "")
        assert err == "error: k must be >= 1 to count message-bit errors, got 0\n"

    def test_level_cap_is_checked_before_the_quantizer_is_built(self, capsys):
        # level_probs allocates per level; the cap refuses this size before it runs
        tracemalloc.start()
        try:
            rc, out, err = run_cli(capsys, "oracle", "--levels", "2000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (1, "")
        assert err == "error: instance too large: output table exceeds the enumeration cap\n"
        assert peak < 1 << 20

    def test_one_level_exits_one_naming_levels(self, capsys):
        rc, out, err = run_cli(capsys, "oracle", "--levels", "1")
        assert (rc, out) == (1, "")
        assert err == "error: levels must be >= 2, got 1\n"


class TestReproduce:
    def test_figure_dataset(self, capsys):
        rc, out, _ = run_cli(capsys, "reproduce", "--figure", "4")
        assert rc == 0
        rows = rows_of(out)
        assert len(rows) > 50
        assert "c_s" in rows[0]

    def test_out_of_range_figure_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--figure", "99"])
        assert exc.value.code == 2

    def test_missing_figure(self, capsys):
        rc, _, err = run_cli(capsys, "reproduce")
        assert rc == 1 and "error:" in err


# config keys hold no space, '=' or '#'; values may hold '=' but not '#'
_KEY_CHARS = string.ascii_letters + string.digits + "_-."
_VALUE_CHARS = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) != "#")


@pytest.mark.parametrize(
    "figure, argv",
    [
        ("5", ["capacity", "--gamma-g", "0.5", "--gamma-n", "1", "--snr-sweep", "-10:10:41"]),
        ("6", ["densities", "--side", "bob"]),
        ("7", ["densities", "--side", "eve"]),
    ],
)
def test_figure_equals_its_cli_twin(capsys, figure, argv):
    figure_out = run_cli(capsys, "reproduce", "--figure", figure)
    assert figure_out[0] == 0
    assert figure_out == run_cli(capsys, *argv)


class TestConfigAndOutput:
    def test_config_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_g=0.9  # overrides the built-in default\n\n")
        rc, out, _ = run_cli(capsys, "capacity", "--config", str(cfg))
        assert rc == 0
        (row,) = rows_of(out)
        assert float(row["gamma_g"]) == pytest.approx(0.9)

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_g=0.9\n")
        rc, out, _ = run_cli(
            capsys, "capacity", "--config", str(cfg), "--gamma-g", "0.5"
        )
        assert rc == 0
        (row,) = rows_of(out)
        assert float(row["gamma_g"]) == pytest.approx(0.5)

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_q=0.9\n")
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma_g 0.9\n")
        rc, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert rc == 1 and "error:" in err

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(_KEY_CHARS, min_size=1, max_size=12),
                st.text(_VALUE_CHARS, max_size=12).map(str.strip),
                st.sampled_from(["", " ", "\t", "  "]),
                st.sampled_from(["", "# note", "  #k=v", "#"]),
                st.booleans(),
            ),
            max_size=8,
        )
    )
    def test_config_parser_round_trip(self, entries):
        # padding, comments and blank lines do not change the KEY=VALUE pairs
        lines, expected = [], {}
        for key, value, pad, comment, blank in entries:
            if blank:
                lines.append(pad + comment)
            lines.append(f"{pad}{key}{pad}={pad}{value}{pad}{comment}")
            expected[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            assert _load_config(path) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5), st.text(_KEY_CHARS + " ", min_size=1, max_size=12))
    def test_config_line_without_equals_names_its_line(self, before, bad):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("# header\n" + "a=1\n" * before + f" {bad}x \nb=2\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}:{before + 2}:")):
                _load_config(path)

    def test_config_value_of_wrong_type(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=abc\n")
        rc, out, err = run_cli(capsys, "bound", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "n='abc'" in err

    def test_missing_config_file(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "capacity", "--config", str(tmp_path / "nope.cfg"))
        assert rc == 1 and "cannot read config" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "cap.csv"
        rc, out, _ = run_cli(capsys, "capacity", "--out", str(target))
        assert rc == 0
        assert out == ""
        rows = rows_of(target.read_text())
        assert len(rows) == 1 and "c_s" in rows[0]

    def test_out_holds_the_bytes_stdout_gets(self, capsys, tmp_path):
        target = tmp_path / "fig2.csv"
        rc, printed, _ = run_cli(capsys, "reproduce", "--figure", "2")
        assert rc == 0 and len(printed.splitlines()) == 1093
        assert run_cli(capsys, "reproduce", "--figure", "2", "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == printed.encode("utf-8")

    def test_unwritable_out_exits_one(self, capsys, tmp_path):
        target = tmp_path / "missing" / "cap.csv"
        rc, out, err = run_cli(capsys, "capacity", "--out", str(target))
        assert rc == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_no_subcommand_prints_help(self, capsys):
        rc, _, err = run_cli(capsys)
        assert rc == 2
        assert "SUBCOMMAND" in err or "usage" in err


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, satwiretap.cli; print(satwiretap.cli.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded_from, scipy_modules = result.stdout.splitlines()
    assert Path(loaded_from).resolve().is_relative_to(Path(src).resolve())
    assert scipy_modules == "[]"


_WATCHED = ("concurrent.futures", "argparse", "gettext", "locale")


def _loaded_after(*argv):
    """satwiretap modules and the _WATCHED ones loaded by a fresh process
    that imports satwiretap.cli and, given argv, runs that subcommand."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = f"satwiretap.cli.main({list(argv)!r} + ['--out', os.devnull]); " if argv else ""
    probe = (
        "import json, os, sys, satwiretap.cli; " + run +
        "print(json.dumps([m for m in sys.modules "
        f"if m.startswith('satwiretap.') or m in {_WATCHED!r}]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120, check=True,
    )
    return set(json.loads(result.stdout))


def test_cli_import_loads_no_other_package_module():
    assert _loaded_after() == {"satwiretap.cli"}


def test_cli_import_loads_neither_argparse_nor_gettext():
    assert not _loaded_after() & {"argparse", "gettext"}


@pytest.mark.parametrize(
    "argv", [("bound", "--n", "1000", "--k-prime", "100"), ("reproduce", "--figure", "10")]
)
def test_bound_and_reproduce_never_load_locale(argv):
    assert "locale" not in _loaded_after(*argv)


def test_bound_loads_only_the_leakage_stack():
    loaded = _loaded_after("bound", "--n", "1000", "--k-prime", "100")
    assert loaded == {
        "satwiretap.cli", "satwiretap.leakage", "satwiretap.channel", "satwiretap.quadrature",
    }


def test_reproduce_loads_neither_sim_nor_the_thread_pool():
    loaded = _loaded_after("reproduce", "--figure", "10")
    assert "satwiretap.figures" in loaded
    assert "satwiretap.sim" not in loaded and "concurrent.futures" not in loaded
    assert "satwiretap.code" not in loaded


# CSV cells as the subcommands produce them, plus text that needs quoting
_CELLS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.floats().map(np.float64),
    st.text(max_size=8),
)

# cells that are equal but print differently (0.0 and -0.0; 1, 1.0 and True), cells
# that print alike from two types (1.0 and np.float64(1.0)), and cells csv.writer quotes
_POOL = (
    0.0, -0.0, np.float64(-0.0), 1, 1.0, True, np.float64(1.0), 2.5, np.float64(2.5), 7,
    math.nan, math.inf, -math.inf, None, "", "a,b", 'q"', "x\ny", "ok",
)


@st.composite
def _repeating_tables(draw):
    """(width, rows) of up to 60 rows; each column draws from a few pool values, so cells repeat."""
    width, count = draw(st.integers(1, 4)), draw(st.integers(0, 60))
    columns = [
        draw(st.lists(st.sampled_from(draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3))),
                      min_size=count, max_size=count))
        for _ in range(width)
    ]
    return width, [list(row) for row in zip(*columns)]


_REPEATING_TABLES = _repeating_tables()


class TestFrontEnd:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_lists_every_flag(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        usage, *lines = capsys.readouterr().out.splitlines()
        assert usage.startswith(f"usage: satwiretap {name} ")
        for flag, _, default, text in _SUBCOMMANDS[name][1] + _COMMON:
            (line,) = [line for line in lines if line.split()[:1] == [flag]]
            assert line.endswith(text if default is None else f"{text} (default {default})")

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["--", "bound"], ["-h", "bound"]])
    def test_anything_but_a_leading_subcommand_lists_all(self, capsys, argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == (0 if argv[:1] == ["-h"] else 2)
        for name in SUBCOMMANDS:
            assert name in captured.out + captured.err

    def test_top_level_help_and_invalid_choice_list_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        error = capsys.readouterr().err
        for name in SUBCOMMANDS:
            assert name in help_text and repr(name) in error

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--n", "x"], "argument --n: 'x' is not a valid int"),
            (["capacity", "--gamma-g", "--n0", "1"], "argument --gamma-g: expected one argument"),
            (["capacity", "--gamma-g", "-inf"], "argument --gamma-g: expected one argument"),
            (["densities", "--side", "up"], "argument --side: 'up' is not a valid bob|eve"),
            (["oracle", "--per-seed=1"], "argument --per-seed: ignored explicit argument '1'"),
            (["capacity", "--gamma", "1"],
             "ambiguous option: --gamma could match --gamma-g, --gamma-n"),
            (["capacity", "--", "1"], "unrecognized arguments: --"),
        ],
    )
    def test_usage_error_names_the_problem(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        usage, error = captured.err.splitlines()
        assert captured.out == "" and usage.startswith(f"usage: satwiretap {argv[0]} ")
        assert error == f"satwiretap {argv[0]}: error: {message}"

    def test_unique_prefix_and_negative_values(self, capsys):
        full = run_cli(capsys, "densities", "--side", "eve", "--points", "11", "--gamma-g", "-0")
        short = run_cli(capsys, "densities", "--si", "eve", "--po=11", "--gamma-g", "-0")
        assert full == short and full[0] == 0
        rc, _, err = run_cli(capsys, "capacity", "--gamma-n", "-1e-3")
        assert rc == 1 and err == "error: gamma_n must be > 0, got -0.001\n"
        rc, out, _ = run_cli(capsys, "capacity", "--snr-sweep", "-.5:1:3")
        assert rc == 0 and len(rows_of(out)) == 3
        rc, _, err = run_cli(capsys, "capacity", "--gamma-g", "-.5")
        assert rc == 1 and err == "error: gamma_g must be >= 0, got -0.5\n"

    def test_unknown_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=6),
            )
        )
    )
    def test_emit_matches_dictwriter(self, table):
        width, values = table
        fields = [f"f{i}" for i in range(width)]
        rows = [dict(zip(fields, row)) for row in values]
        want = io.StringIO()
        writer = csv.DictWriter(want, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            _emit(fields, rows, None)
        assert got.getvalue() == want.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(_REPEATING_TABLES)
    @example((1, [[""]]))  # csv.writer quotes a row that is one empty str
    @example((1, [[None]]))
    def test_emit_matches_dictwriter_on_repeated_cells(self, table):
        width, values = table
        fields = [f"f{i}" for i in range(width)]
        rows = [dict(zip(fields, row)) for row in values]
        want = io.StringIO()
        writer = csv.DictWriter(want, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        got = io.StringIO()
        with contextlib.redirect_stdout(got):
            _emit(fields, rows, None)
        assert got.getvalue() == want.getvalue()


# a cheap argv per subcommand, for the property test to change one flag of
_CHEAP_ARGV = {
    "geometry": [],
    "capacity": [],
    "densities": ["--points", "11"],
    "bound": ["--n", "64", "--s-grid", "100"],
    "code": ["--op", "hash", "--k", "2", "--k-prime", "2", "--seed", "a0", "--word", "f0"],
    "simulate": ["--n", "3", "--k", "1", "--k-prime", "0", "--ecc", "rep3", "--trials", "64"],
    "oracle": ["--n", "2", "--k", "1", "--k-prime", "1", "--levels", "2"],
    "reproduce": ["--figure", "1"],
}


@pytest.mark.parametrize("name", _CHEAP_ARGV)
def test_each_invocation_emits_once(monkeypatch, name):
    calls = []
    monkeypatch.setattr(cli, "_emit", lambda *args: calls.append(args))
    assert main([name, *_CHEAP_ARGV[name]]) == 0
    ((fields, rows, out),) = calls
    assert fields == list(rows[0]) and out is None


_CODE = ["code", "--k", "2", "--k-prime", "2", "--ecc", "hamming74", "--seed", "a0"]
_ORACLE = ["oracle", *_CHEAP_ARGV["oracle"]]


@pytest.mark.parametrize(
    "argv, header",
    [
        (["geometry"], "rho_b_km,rho_e_km,theta_e_deg,r,a,mu,beta,alpha,gamma_g,eve_stronger"),
        (["geometry", "--grid", "0.5:2:2,0.1:1:2"], "theta_deg,rho_ratio,gamma_g,protected"),
        (["capacity"],
         "gamma_g,gamma_n,n0,e0,c_bob,c_eve,c_s,positive_condition,c_separation"),
        (["capacity", "--snr-sweep", "0:1:2"], "snr_db,c_bob,c_eve,c_s,gauss_ref,bsc_ref"),
        (["densities", "--points", "3"], "y,pdf_plus,pdf_minus,pdf_mix"),
        (["bound", "--n", "64", "--s-grid", "100"], "s,log2_bound,is_min"),
        ([*_CODE, "--op", "encode", "--message", "80", "--sacrifice", "40"], "op,n,codeword"),
        ([*_CODE, "--op", "decode", "--word", "d2"], "op,n,message"),
        ([*_CODE, "--op", "hash", "--word", "f0"], "op,n,digest"),
        (["simulate", *_CHEAP_ARGV["simulate"]],
         "master_seed,trials,message_bits,bit_errors,frame_errors,decode_failures,"
         "ber,fer,ber_ci95,fer_ci95"),
        (_ORACLE, "n,k,k_prime,levels,exact_leak_bits,bound_log2,bound_bits,bound_holds"),
        ([*_ORACLE, "--per-seed"], "seed_hex,leak_bits"),
    ],
)
def test_csv_header_is_pinned(capsys, argv, header):
    # point headers come from dataclass field names: a renamed field must fail here
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == header


_ODD_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", str(10**30), "x", "")
# 10**30 trials is real work and 10**30 threads would start threads: these two
# get only values they reject. The other sizes reject 10**30 themselves, numpy
# before it allocates ("Maximum allowed size exceeded").
_FLAG_CASES = [
    (name, flag, value)
    for name, (_, flags, _) in _SUBCOMMANDS.items()
    for flag, *_ in flags
    for value in _ODD_VALUES
    if not (flag in ("--trials", "--threads") and value == str(10**30))
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FLAG_CASES))
def test_odd_flag_values_end_in_an_exit_code_not_a_traceback(case):
    name, flag, value = case
    token = [f"{flag}={value}"] if flag == "--per-seed" else [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([name, *_CHEAP_ARGV[name], *token])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
    assert rc == 0 or out.getvalue() == ""
    if rc == 1:
        assert err.getvalue().startswith("error: ")



@pytest.mark.parametrize(
    "argv, field",
    [
        (["capacity", "--gamma-g", "1e308"], "gamma_g"),
        (["bound", "--gamma-g", "1e308", "--n", "100"], "gamma_g"),
        (["oracle", "--e0", "1e308"], "e0"),
        (["capacity", "--e0", "1e200", "--n0", "1e-200"], "e0"),
        (["densities", "--e0", "1e308"], "e0"),
        (["capacity", "--gamma-n", "1e-200", "--n0", "1e-200"], "gamma_n"),
    ],
)
def test_channel_scales_past_the_float_range_name_a_field(capsys, argv, field):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and field in err
    assert "overflow encountered" not in err


def test_an_empty_exception_message_prints_the_exception_name(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("satwiretap.sim.run_reliability", no_memory)
    rc, out, err = run_cli(capsys, "simulate", *_CHEAP_ARGV["simulate"])
    assert (rc, out, err) == (1, "", "error: MemoryError\n")


def test_a_closed_pipe_exits_zero(capsys, monkeypatch):
    def closed(*args):
        raise BrokenPipeError()

    monkeypatch.setattr(cli, "_emit", closed)
    assert run_cli(capsys, "geometry") == (0, "", "")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_float_errors_raise_in_pool_threads(capsys, monkeypatch, threads):
    def overflowing_block(*args):
        np.array([1e308]) * 10.0
        return 0, 0, 0

    monkeypatch.setattr("satwiretap.sim._reliability_block", overflowing_block)
    argv = [*_CHEAP_ARGV["simulate"], "--block-size", "16", "--threads", threads]
    rc, out, err = run_cli(capsys, "simulate", *argv)
    assert (rc, out) == (1, "")
    assert err == "error: overflow encountered in multiply\n"


def _run_module(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "satwiretap.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_entry_point_reads_sys_argv():
    result = _run_module("--help")
    assert result.returncode == 0
    for name in SUBCOMMANDS:
        assert name in result.stdout
    result = _run_module("bound", "--n", "1000", "--k-prime", "100")
    assert result.returncode == 0 and result.stderr == ""
    assert len(rows_of(result.stdout)) == 402
