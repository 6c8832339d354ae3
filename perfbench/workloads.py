"""The benchmark's workloads: seeded CLI argv lists and their output checks.

Each workload is a list of ``Invocation``s, one pass. An invocation is the argv
a CLI user would type after ``satwiretap`` plus a check that returns the
problems it found in the CSV the command printed (empty when correct). The
checks compare against references made once from the seed commit and stored
under ``ref/``; a reference is looked up by the exact argv, so an invocation
drawn by another seed is held to the checks that need no reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "ref")

DEFAULT_SEED = 1
NAMES = ("figures_cold", "bound_scan", "simulate", "oracle")

FIGURE_TOL = 1e-6
BOUND_TOL = 1e-6
ORACLE_LEAK_TOL = 1e-9
FER_SIGMAS = 6.0

BOUND_GRID = (8, 6)  # gamma_g strata x gamma_n strata: 48 queries
BOUND_NS = (8192, 16200, 32400, 64800)

# (ecc, n, k, k', trials, block size, threads); the last two rows are the same
# shape, so their rows must agree bit for bit
SIMULATE_SHAPES = (
    ("hamming74", 7, 2, 2, 200_000, 8192, 1),
    ("rep3", 30, 6, 4, 200_000, 8192, 1),
    ("identity", 64, 48, 16, 200_000, 8192, 1),
    ("rep3", 300, 80, 20, 20_000, 1024, 1),
    ("identity", 64, 48, 16, 200_000, 8192, 2),
)

# (n, k, k', ecc, levels, gamma_g, gamma_n): each instance on its own channel
ORACLE_INSTANCES = (
    (4, 1, 3, "identity", 8, 0.3, 2.0),
    (7, 2, 2, "hamming74", 4, 0.4, 1.5),
    (9, 1, 2, "rep3", 4, 0.5, 2.5),
    (10, 3, 7, "identity", 2, 0.35, 1.2),
)


@dataclass
class Invocation:
    argv: List[str]
    check: Callable[[str], List[str]]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def load_refs() -> dict:
    """References made from the seed commit: figure CSVs and per-argv rows."""
    with open(os.path.join(REF_DIR, "invocations.json"), encoding="utf-8") as handle:
        refs = json.load(handle)
    refs["figures"] = {}
    for name in sorted(os.listdir(REF_DIR)):
        if name.startswith("figure_") and name.endswith(".csv"):
            with open(os.path.join(REF_DIR, name), encoding="utf-8") as handle:
                refs["figures"][int(name[7:-4])] = handle.read()
    return refs


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _cells_differ(got: str, want: str, tol: float) -> bool:
    a, b = _float(got), _float(want)
    if a is None or b is None:
        return got != want
    if math.isnan(a) or math.isnan(b):
        return not (math.isnan(a) and math.isnan(b))
    return not abs(a - b) <= tol


def compare_csv(got: str, want: str, tol: float) -> List[str]:
    """Header and row count exactly; each cell within tol when numeric."""
    got_head, got_rows = parse_csv(got)
    want_head, want_rows = parse_csv(want)
    if got_head != want_head:
        return [f"header {got_head} != reference {want_head}"]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows != reference {len(want_rows)}"]
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        for field, a, b in zip(got_head, g, w):
            if len(g) != len(w) or _cells_differ(a, b, tol):
                return [f"row {i} {field}: {a} != reference {b}"]
    return []


def _single_row(text: str, fields) -> tuple:
    head, rows = parse_csv(text)
    if head != list(fields):
        return None, [f"header {head} != {list(fields)}"]
    if len(rows) != 1 or len(rows[0]) != len(head):
        return None, [f"expected one row of {len(head)} fields"]
    return dict(zip(head, rows[0])), []


# -- figures_cold --------------------------------------------------------------


def figures_cold(seed: int, refs: dict, tiny: bool = False) -> List[Invocation]:
    """Every figure preset, each in a cold process, in a seed-shuffled order."""
    figures = [1, 6, 9] if tiny else list(range(1, 12))
    random.Random(seed).shuffle(figures)

    def checker(fig):
        def check(out):
            want = refs["figures"].get(fig)
            if want is None:
                return [f"no reference for figure {fig}"]
            return compare_csv(out, want, FIGURE_TOL)

        return check

    return [Invocation(["reproduce", "--figure", str(f)], checker(f)) for f in figures]


# -- bound_scan ----------------------------------------------------------------


def _jitter(rng: random.Random, stratum: int, strata: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (stratum + rng.random()) / strata


def bound_queries(seed: int, grid=BOUND_GRID):
    """(n, k', gamma_g, gamma_n) for one channel per cell of a jittered grid.

    A query's cost grows with Eve's SNR gamma_g^2/gamma_n (more quadrature
    panels), so each seed draws one (gamma_g, gamma_n) point in every cell of
    the same grid: the marginals stay uniform and the cost mix, hence pass_s
    and the latency percentiles, barely depends on the seed.
    """
    rng = random.Random(seed)
    g_strata, n_strata = grid
    count = g_strata * n_strata
    channels = [
        (_jitter(rng, i, g_strata, 0.1, 1.2), _jitter(rng, j, n_strata, 0.5, 4.0))
        for i in range(g_strata)
        for j in range(n_strata)
    ]
    rho_strata = list(range(count))
    rng.shuffle(rho_strata)
    ns = [BOUND_NS[i % len(BOUND_NS)] for i in range(count)]
    rng.shuffle(ns)
    queries = [
        (n, int(round(_jitter(rng, r, count, 0.02, 0.3) * n)), round(g, 6), round(v, 6))
        for n, r, (g, v) in zip(ns, rho_strata, channels)
    ]
    rng.shuffle(queries)
    return queries


def bound_summary(text: str) -> dict:
    """Row count plus every 20th row and the last two, as stored references."""
    _, rows = parse_csv(text)
    picks = sorted(set(range(0, len(rows), 20)) | {len(rows) - 2, len(rows) - 1})
    return {"rows": len(rows), "samples": [[i] + rows[i] for i in picks if i >= 0]}


def check_bound(text: str, ref) -> List[str]:
    head, rows = parse_csv(text)
    if head != ["s", "log2_bound", "is_min"]:
        return [f"header {head}"]
    try:
        values = [(float(s), float(v), int(m)) for s, v, m in rows]
    except ValueError as exc:
        return [f"unparseable row: {exc}"]
    mins = [r for r in values if r[2] == 1]
    curve = [r for r in values if r[2] == 0]
    if len(mins) != 1 or not curve:
        return [f"{len(mins)} is_min rows, {len(curve)} curve rows"]
    s_star, best, _ = mins[0]
    problems = []
    if not 0.0 < s_star <= 1.0:
        problems.append(f"s* = {s_star} outside (0, 1]")
    if not all(math.isfinite(v) for _, v, _ in values):
        problems.append("non-finite log2_bound")
    lowest = min(v for _, v, _ in curve)
    if best > lowest + 1e-9:
        problems.append(f"minimum {best} above curve value {lowest}")
    if ref is not None:
        if len(rows) != ref["rows"]:
            problems.append(f"{len(rows)} rows != reference {ref['rows']}")
        else:
            for i, *want in ref["samples"]:
                for field, a, b in zip(head, rows[i], want):
                    if _cells_differ(a, b, BOUND_TOL):
                        problems.append(f"row {i} {field}: {a} != reference {b}")
    return problems


def bound_scan(seed: int, refs: dict, tiny: bool = False) -> List[Invocation]:
    """Distinct-channel `bound` queries, so the e0_max cache never hits."""
    invocations = []
    for n, k_prime, g, v in bound_queries(seed, (2, 1) if tiny else BOUND_GRID):
        argv = ["bound", "--n", str(n), "--k-prime", str(k_prime),
                "--gamma-g", repr(g), "--gamma-n", repr(v)]
        ref = refs["bound_scan"].get(" ".join(argv))
        invocations.append(Invocation(argv, lambda out, ref=ref: check_bound(out, ref)))
    return invocations


# -- simulate ------------------------------------------------------------------

SIM_FIELDS = ("master_seed", "trials", "message_bits", "bit_errors", "frame_errors",
              "decode_failures", "ber", "fer", "ber_ci95", "fer_ci95")
SIM_COUNTS = ("master_seed", "trials", "message_bits", "bit_errors", "frame_errors",
              "decode_failures")


def simulate_argv(shape, master_seed: int, trials: int) -> List[str]:
    ecc, n, k, k_prime, _, block, threads = shape
    return ["simulate", "--n", str(n), "--k", str(k), "--k-prime", str(k_prime),
            "--ecc", ecc, "--trials", str(trials), "--master-seed", str(master_seed),
            "--block-size", str(block), "--threads", str(threads)]


def shape_fer(refs: dict, shape) -> float:
    """Reference frame error rate of a shape, from its default-seed row."""
    ecc, n, k, k_prime = shape[:4]
    for key, row in refs["simulate"].items():
        argv = key.split()
        if argv[argv.index("--ecc") + 1] == ecc and argv[2:8:2] == [str(n), str(k), str(k_prime)]:
            return float(row["fer"])
    return None


def check_simulate(text: str, argv, ref, fer_ref) -> List[str]:
    row, problems = _single_row(text, SIM_FIELDS)
    if problems:
        return problems
    k = int(argv[argv.index("--k") + 1])
    trials = int(argv[argv.index("--trials") + 1])
    try:
        bit_errors, frame_errors = int(row["bit_errors"]), int(row["frame_errors"])
        ber, fer = float(row["ber"]), float(row["fer"])
        if row["master_seed"] != argv[argv.index("--master-seed") + 1]:
            problems.append("master_seed not echoed")
        if int(row["trials"]) != trials or int(row["message_bits"]) != k:
            problems.append("trials or message_bits differ from the request")
        if not (0 <= frame_errors <= trials and frame_errors <= bit_errors <= trials * k):
            problems.append(f"impossible counts {bit_errors}, {frame_errors}")
        if abs(ber - bit_errors / (trials * k)) > 1e-12 or abs(fer - frame_errors / trials) > 1e-12:
            problems.append("ber/fer disagree with the counts")
    except ValueError as exc:
        return [f"unparseable row: {exc}"]
    if ref is not None:
        for field in SIM_COUNTS:
            if row[field] != ref[field]:
                problems.append(f"{field} {row[field]} != reference {ref[field]}")
    if fer_ref is not None:
        sigma = math.sqrt(max(fer_ref * (1.0 - fer_ref), 1.0 / trials) / trials)
        if abs(fer - fer_ref) > FER_SIGMAS * math.sqrt(2.0) * sigma:
            problems.append(f"fer {fer} far from reference rate {fer_ref}")
    return problems


def simulate(seed: int, refs: dict, tiny: bool = False) -> List[Invocation]:
    """Four code shapes at one thread, then the identity shape at two."""
    master_seed = random.Random(seed).randrange(1, 2**31)
    threaded: Dict[str, str] = {}
    invocations = []
    for shape in SIMULATE_SHAPES:
        trials = shape[4] // 100 if tiny else shape[4]
        argv = simulate_argv(shape, master_seed, trials)
        ref = refs["simulate"].get(" ".join(argv))
        fer_ref = shape_fer(refs, shape)
        pair = " ".join(argv[:-2])  # same shape and seed, any thread count

        def check(out, argv=argv, ref=ref, fer_ref=fer_ref, pair=pair):
            problems = check_simulate(out, argv, ref, fer_ref)
            first = threaded.setdefault(pair, out)
            if first != out:
                problems.append("rows differ between thread counts")
            return problems

        invocations.append(Invocation(argv, check))
    return invocations


# -- oracle --------------------------------------------------------------------

ORACLE_FIELDS = ("n", "k", "k_prime", "levels", "exact_leak_bits", "bound_log2",
                 "bound_bits", "bound_holds")


def check_oracle(text: str, instance, ref) -> List[str]:
    row, problems = _single_row(text, ORACLE_FIELDS)
    if problems:
        return problems
    n, k, k_prime, _, levels = instance[:5]
    if [row["n"], row["k"], row["k_prime"], row["levels"]] != [str(n), str(k), str(k_prime), str(levels)]:
        problems.append("instance dimensions not echoed")
    if row["bound_holds"] != "1":
        problems.append(f"bound_holds = {row['bound_holds']}")
    leak = _float(row["exact_leak_bits"])
    if leak is None or not -1e-12 <= leak <= k:
        problems.append(f"exact_leak_bits {row['exact_leak_bits']} outside [0, k]")
    if ref is not None:
        if _cells_differ(row["exact_leak_bits"], ref["exact_leak_bits"], ORACLE_LEAK_TOL):
            problems.append(f"exact_leak_bits {row['exact_leak_bits']} != reference {ref['exact_leak_bits']}")
        if _cells_differ(row["bound_log2"], ref["bound_log2"], BOUND_TOL):
            problems.append(f"bound_log2 {row['bound_log2']} != reference {ref['bound_log2']}")
    return problems


def oracle_argv(instance) -> List[str]:
    n, k, k_prime, ecc, levels, gamma_g, gamma_n = instance
    return ["oracle", "--n", str(n), "--k", str(k), "--k-prime", str(k_prime), "--ecc", ecc,
            "--levels", str(levels), "--gamma-g", repr(gamma_g), "--gamma-n", repr(gamma_n)]


def oracle(seed: int, refs: dict, tiny: bool = False) -> List[Invocation]:
    """Four exhaustive-leakage instances, in a seed-shuffled order."""
    instances = list(ORACLE_INSTANCES[:2] if tiny else ORACLE_INSTANCES)
    random.Random(seed).shuffle(instances)
    invocations = []
    for instance in instances:
        argv = oracle_argv(instance)
        ref = refs["oracle"].get(" ".join(argv))
        if ref is None:
            check = lambda out: ["no reference for this oracle instance"]  # noqa: E731
        else:
            check = lambda out, i=instance, r=ref: check_oracle(out, i, r)  # noqa: E731
        invocations.append(Invocation(argv, check))
    return invocations


BY_NAME = {
    "figures_cold": figures_cold,
    "bound_scan": bound_scan,
    "simulate": simulate,
    "oracle": oracle,
}


def build(name: str, seed: int, refs: dict, tiny: bool = False) -> List[Invocation]:
    return BY_NAME[name](seed, refs, tiny)
