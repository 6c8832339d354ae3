"""Replay CLI argv on another revision and on this checkout; list what differs.

Checks REV out into a temporary git worktree. Then, in one child process per
tree, it runs each argv through satwiretap.cli.main with the tree's own src/
and records the exit code, stdout and stderr. The argv are every perfbench
workload at seeds 1-3 (simulate at its tiny size), read from
perfbench/workloads.py by path, then EXTRA below: paths the benchmark does not
run. Each argv whose record differs is printed with the first differing line
of each stream that differs; when both stdouts are CSV with one header and
one shape, also with their largest absolute numeric cell difference.

Exit status: 1 if any argv differs, else 0. The worktree is removed on exit.

Run from anywhere: python3 tests/replay_cli.py REV
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CODE = ["code", "--k", "2", "--k-prime", "2", "--ecc", "hamming74", "--seed", "a0"]
_SIM = ["simulate", "--n", "7", "--k", "2", "--k-prime", "2", "--ecc", "hamming74", "--trials", "3000"]
_ORACLE = ["oracle", "--n", "7", "--k", "2", "--k-prime", "2", "--ecc", "hamming74", "--levels", "4"]
# k' = 0, where the hash ignores the seed; at 128 levels the sweep also pairs levels
ORACLE_K0 = ["oracle", "--n", "3", "--k", "1", "--k-prime", "0", "--ecc", "rep3"]

EXTRA = [
    ["geometry"],
    ["geometry", "--rho-e", "500", "--theta-e", "3.5", "--mu", "0.4", "--r", "2.2"],
    ["geometry", "--grid", "0.5:8:6,0.01:1:5", "--mu", "0.1"],
    ["geometry", "--grid", "0.5:8:6"],
    ["geometry", "--rho-e", "-1"],
    ["capacity"],
    ["capacity", "--gamma-g", "0.8", "--gamma-n", "0.5", "--n0", "2", "--e0", "1.5"],
    ["capacity", "--gamma-g", "0.5", "--gamma-n", "1", "--snr-sweep", "-10:10:41"],
    ["capacity", "--snr-sweep", "-.5:1:3"],
    ["capacity", "--snr-sweep", "1:2"],
    ["capacity", "--gamma-n", "0"],
    ["densities"],
    ["densities", "--side", "eve", "--points", "9", "--gamma-g", "1.2"],
    ["densities", "--points", "1"],
    ["bound"],
    ["bound", "--n", "1000", "--rho-sec", "0.2", "--s-grid", "150"],
    ["bound", "--n", "64", "--k-prime", "0", "--gamma-g", "0"],
    ["bound", "--k-prime", "3", "--rho-sec", "0.1"],
    [*_CODE, "--op", "encode", "--message", "80", "--sacrifice", "40"],
    [*_CODE, "--op", "decode", "--word", "d2"],
    [*_CODE, "--op", "hash", "--word", "f0"],
    [*_CODE, "--op", "hash", "--word", ""],
    [*_CODE, "--op", "hash", "--word", "f"],
    [*_CODE, "--op", "hash", "--word", "f000"],
    [*_CODE, "--op", "hash", "--word", "f1"],
    [*_CODE, "--op", "encode", "--message", "80"],
    ["code", "--op", "hash", "--k", "70", "--k-prime", "60",
     "--seed", "55" * 16 + "80", "--word", "c3" * 16 + "c0"],
    ["code", "--op", "hash", "--k", "1", "--k-prime", "0", "--seed", "", "--word", "80"],
    ["code", "--op", "hash", "--k", "1", "--k-prime", "0", "--seed", "00", "--word", "80"],
    ["code", "--op", "hash", "--k", "1", "--k-prime", "1", "--seed", "000000", "--word", "8000"],
    ["code", "--op", "hash", "--k", "8", "--k-prime", "2", "--seed", "a0 00", "--word", "ffc0"],
    ["code", "--op", "hash", "--k", "-1", "--k-prime", "2", "--seed", "00", "--word", "00"],
    ["code", "--k", "2", "--k-prime", "2"],
    _SIM,
    [*_SIM, "--hash-seed", "a0", "--master-seed", "5"],
    [*_SIM, "--hash-seed", "a000"],
    [*_SIM, "--hash-seed", "zz"],
    ["simulate", "--n", "30", "--k", "6", "--k-prime", "4", "--ecc", "rep3", "--trials", "5000",
     "--block-size", "700", "--threads", "2"],
    ["simulate", "--n", "65", "--k", "1", "--k-prime", "64", "--trials", "800", "--block-size", "777"],
    ["simulate", "--n", "130", "--k", "70", "--k-prime", "60", "--trials", "500"],
    ["simulate", "--k", "0"],
    ["oracle"],
    ["oracle", "--per-seed"],
    [*_ORACLE, "--per-seed"],
    [*ORACLE_K0, "--levels", "3", "--per-seed"],
    [*ORACLE_K0, "--levels", "128"],
    # k' = 0 with k = 3: one leaf serves all four seeds
    ["oracle", "--n", "3", "--k", "3", "--k-prime", "0", "--ecc", "identity", "--levels", "4",
     "--per-seed"],
    ["oracle", "--n", "20"],
    ["oracle", "--levels", "1"],
    ["reproduce"],
    ["reproduce", "--figure", "12"],
    [],
    ["-h"],
    ["nope"],
    ["bound", "--bogus"],
    ["bound", "--n"],
    ["bound", "--n", "abc"],
    ["simulate", "--help"],
]

# runs in a child: argv list as JSON on stdin, [exit code, stdout, stderr] per argv on stdout
_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from satwiretap.cli import main
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    records.append([code, out.getvalue(), err.getvalue()])
json.dump(records, sys.stdout)
"""


def perfbench_argv() -> list:
    """Every perfbench invocation's argv at seeds 1-3, in order, without repeats."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    refs = workloads.load_refs()
    argvs = []
    for name in workloads.NAMES:
        for seed in (1, 2, 3):
            for invocation in workloads.build(name, seed, refs, tiny=name == "simulate"):
                if invocation.argv not in argvs:
                    argvs.append(invocation.argv)
    return argvs


def replay(src: Path, argvs: list, cwd: str) -> list:
    """[exit code, stdout, stderr] per argv, from one child that imports src/satwiretap."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src)],
        input=json.dumps(argvs), capture_output=True, text=True, cwd=cwd, env=env, check=True,
    )
    return json.loads(child.stdout)


def first_difference(old: str, new: str) -> str:
    """How many lines differ, and the first of them."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    pad = max(len(old_lines), len(new_lines))
    old_lines += ["<none>"] * (pad - len(old_lines))
    new_lines += ["<none>"] * (pad - len(new_lines))
    changed = [i for i in range(pad) if old_lines[i] != new_lines[i]]
    if not changed:
        return "line endings only"
    i = changed[0]
    return f"{len(changed)} of {pad} lines, first line {i + 1}: {old_lines[i]!r} -> {new_lines[i]!r}"


def largest_cell_difference(old: str, new: str):
    """Largest |a - b| over the differing numeric cells of two CSV texts, or None.

    None unless both have the same header and the same number of rows and
    cells per row. A cell that does not read as a number on both sides is
    skipped; a NaN against anything else counts as infinitely far.
    """
    old_rows, new_rows = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return None
    if [len(row) for row in old_rows] != [len(row) for row in new_rows]:
        return None
    largest = 0.0
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        for a, b in zip(old_row, new_row):
            if a == b:
                continue
            try:
                diff = abs(float(a) - float(b))
            except ValueError:
                continue
            largest = max(largest, math.inf if math.isnan(diff) else diff)
    return largest


def report(argvs: list, before: list, after: list) -> int:
    """Print each argv whose record differs between before and after; return their count."""
    differ = 0
    for args, old, new in zip(argvs, before, after):
        if old == new:
            continue
        differ += 1
        print(" ".join(args) or "(no arguments)")
        for stream, a, b in zip(("exit", "stdout", "stderr"), old, new):
            if a == b:
                continue
            detail = f"{a} -> {b}" if stream == "exit" else first_difference(a, b)
            largest = largest_cell_difference(a, b) if stream == "stdout" else None
            if largest is not None:
                detail += f"; largest numeric cell difference {largest:.3g}"
            print(f"  {stream}: {detail}")
    return differ


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    argvs = perfbench_argv() + EXTRA
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), argv[0]], check=True)
        try:
            before = replay(tree / "src", argvs, tmp)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
        after = replay(ROOT / "src", argvs, tmp)
    differ = report(argvs, before, after)
    print(f"{len(argvs)} argv replayed against {argv[0]}: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
