"""Benchmark of the satwiretap CLI: seeded workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is figures_cold, bound_scan, simulate, oracle, or all. The benchmark
imports the package from ``src/`` of the checkout it sits in and drives the
public CLI (``satwiretap.cli.main`` with normal argv). One closed-loop client
runs each invocation in a process forked from a parent that has imported the
package but never run it, so every invocation starts with cold caches like a
user's fresh process, and waits for it to end before sending the next.
Passes over the workload's invocation list repeat until ``--seconds`` is
spent.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` a third of the time runs untraced and the rest
with the span tracer installed, and the JSON has the per-layer metrics. A
result file with provenance goes to ``.bench_results/`` in the checkout. See
README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import MODULES, Tracer, shape_key  # noqa: E402

SETUP_REPEATS = 5
TRACED_SHARE = 2.0 / 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "peak_rss_mb": "MiB",
}

SIM_SHAPE_KEYS = tuple(shape_key(s[0], s[1], s[2], s[3], s[6]) for s in workloads.SIMULATE_SHAPES)
FIGURE_IDS = tuple(range(1, 12))
ECCS = ("identity", "rep3", "hamming74")


def _layer_metrics():
    """Per-layer metric -> (unit, summary table, key); table None: derived."""
    spans = {
        "quadrature.integrate_doubling.calls": ("count", "calls", "quadrature.integrate_doubling"),
        "quadrature.nodes": ("count", "counts", "quadrature.nodes"),
        "quadrature.self_s": ("s", "self_s", "quadrature.integrate_doubling"),
        "capacity.mi_biawgn.calls": ("count", "calls", "capacity.mi_biawgn"),
        "capacity.mi_biawgn.total_s": ("s", "total_s", "capacity.mi_biawgn"),
        "leakage.min_leakage_bound.calls": ("count", "calls", "leakage.min_leakage_bound"),
        "leakage.min_leakage_bound.total_s": ("s", "total_s", "leakage.min_leakage_bound"),
        "leakage.min_leakage_bound.self_s": ("s", "self_s", "leakage.min_leakage_bound"),
        "leakage.evals_per_min": ("evals/call", None, None),
        "leakage.e0.calls": ("count", "calls", "leakage.e0"),
        "leakage.e0.total_s": ("s", "total_s", "leakage.e0"),
        "leakage.e0_max.hit_ratio": ("fraction", None, None),
        "geometry.protected_region_map.total_s": ("s", "total_s", "geometry.protected_region_map"),
        "channel.density.total_s": ("s", "total_s", "channel.density"),
    }
    spans.update({f"figures.fig{i}_s": ("s", "total_s", f"figures.fig{i}") for i in FIGURE_IDS})
    spans.update({
        "code.toeplitz_apply_batch.calls": ("count", "calls", "code.toeplitz_apply_batch"),
        "code.toeplitz_apply_batch.total_s": ("s", "total_s", "code.toeplitz_apply_batch"),
        "code.toeplitz_apply_batch.bit_products":
            ("count", "counts", "code.toeplitz_apply_batch.bit_products"),
        "code.toeplitz_apply_batch.bytes_computed":
            ("B", "counts", "code.toeplitz_apply_batch.bytes_computed"),
    })
    spans.update({
        f"code.ecc_{op}.{ecc}_s": ("s", "total_s", f"code.ecc_{op}.{ecc}")
        for op in ("encode", "decode")
        for ecc in ECCS
    })
    spans.update({
        "sim.run_reliability.self_s": ("s", "self_s", "sim.run_reliability"),
        "sim.frames": ("count", "counts", "sim.frames"),
        "sim.blocks": ("count", "counts", "sim.blocks"),
    })
    spans.update({f"sim.frames_per_s.{key}": ("frames/s", None, None) for key in SIM_SHAPE_KEYS})
    spans.update({
        "sim.exact_leakage.self_s": ("s", "self_s", "sim.exact_leakage"),
        "sim.oracle.seeds": ("count", "counts", "sim.oracle.seeds"),
        "sim.oracle.cells": ("count", "counts", "sim.oracle.cells"),
        "cli.main.self_s": ("s", "self_s", "cli.main"),
    })
    spans.update({f"{module}.total_s": ("s", "module_s", module) for module in MODULES})
    spans.update({"trace.pass_s": ("s", None, None), "trace.overhead_s": ("s", None, None)})
    return spans


LAYER_METRICS = _layer_metrics()
PER_LAYER_UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}


# -- the program under test ----------------------------------------------------


def load_package():
    """Import satwiretap from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "satwiretap", "cli.py")):
        sys.exit(f"error: {SRC}/satwiretap not found; run from a full checkout")
    sys.path.insert(0, SRC)
    import importlib

    modules = {name: importlib.import_module(f"satwiretap.{name}") for name in MODULES}
    if not os.path.abspath(modules["cli"].__file__).startswith(SRC + os.sep):
        sys.exit(f"error: satwiretap imported from {modules['cli'].__file__}, not {SRC}")
    return modules


def measure_setup(repeats: int) -> list:
    """Seconds from starting a Python process until satwiretap.cli is imported."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import satwiretap.cli; print('ready', flush=True)"
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("satwiretap.cli failed to import in a fresh process")
        samples.append(t1 - t0)
    return samples


# -- one invocation in a forked child --------------------------------------------


def _child(cli, argv, tracer, keep_spans, invocation):
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported as a failed invocation, never raised
        traceback.print_exc(file=err)
        rc = 1
    seconds = time.perf_counter() - t0
    payload = {
        "rc": rc,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        payload["layers"] = tracer.summary()
        if keep_spans:
            payload["spans"] = tracer.span_records(invocation)
    return payload


def invoke(cli, argv, tracer=None, keep_spans=False, invocation=0) -> dict:
    """Run `satwiretap <argv>` in a fresh fork and return what it produced."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = json.dumps(_child(cli, argv, tracer, keep_spans, invocation)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"rc": None, "seconds": None, "stdout": "", "stderr": f"child status {status}"}
    return json.loads(data)


# -- passes ---------------------------------------------------------------------


def run_pass(cli, invocations, log, tracer=None, keep_spans=False) -> dict:
    """One closed-loop pass: each invocation starts after the previous ends."""
    seconds, layers, spans = [], [], []
    for inv in invocations:
        result = invoke(cli, inv.argv, tracer, keep_spans, len(log))
        if result["rc"] == 0:
            problems = inv.check(result["stdout"])
        else:
            problems = [f"exit {result['rc']}: {result['stderr'].strip()[-300:]}"]
        log.append({"argv": inv.key, "seconds": result["seconds"], "problems": problems,
                    "maxrss_kib": result.get("maxrss_kib")})
        seconds.append(result["seconds"] or 0.0)
        if "layers" in result:
            layers.append(result["layers"])
        spans.extend(result.get("spans", ()))
    return {"seconds": seconds, "pass_s": sum(seconds), "layers": layers, "spans": spans}


def run_passes(cli, invocations, budget, log, tracer=None, keep_spans=False) -> list:
    """Repeat passes while the next one is expected to end within `budget` s."""
    start = time.perf_counter()
    passes, walls = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cli, invocations, log, tracer, keep_spans and not passes))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return passes


# -- metrics --------------------------------------------------------------------


def invocation_medians(passes) -> list:
    """Each invocation's latency as its median over the passes."""
    return [statistics.median(column) for column in zip(*(p["seconds"] for p in passes))]


def end_to_end(passes, log, setup) -> dict:
    # percentiles over per-invocation medians: a raw percentile of a few
    # distinct invocations falls between two of them and jumps with noise
    latencies = invocation_medians(passes)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "query_p50_s": statistics.median(latencies),
        "query_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "peak_rss_mb": max(entry["maxrss_kib"] or 0 for entry in log) / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _pass_layers(layers) -> dict:
    """Sum the per-invocation summaries of one pass and derive the metrics."""
    merged = {"calls": {}, "total_s": {}, "self_s": {}, "module_s": {}, "counts": {}}
    for summary in layers:
        for part, table in summary.items():
            for key, value in table.items():
                merged[part][key] = merged[part].get(key, 0) + value
    calls, counts = merged["calls"], merged["counts"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: merged[table].get(key, 0) for name, (_, table, key) in LAYER_METRICS.items() if table}
    m["leakage.evals_per_min"] = ratio(calls.get("leakage.leakage_bound", 0),
                                       calls.get("leakage.min_leakage_bound", 0))
    m["leakage.e0_max.hit_ratio"] = ratio(calls.get("leakage.e0_max", 0) - calls.get("leakage.e0", 0),
                                          calls.get("leakage.e0_max", 0))
    for key in SIM_SHAPE_KEYS:
        m[f"sim.frames_per_s.{key}"] = ratio(counts.get(f"sim.shape_frames.{key}", 0),
                                             counts.get(f"sim.shape_s.{key}", 0.0))
    return m


def per_layer(traced, untraced) -> dict:
    per_pass = [_pass_layers(p["layers"]) for p in traced]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.pass_s"] = statistics.median(p["pass_s"] for p in traced)
    values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(p["pass_s"] for p in untraced)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def frames_per_s(passes, invocations) -> float:
    """Simulated frames over the pass's summed invocation time."""
    frames = sum(int(inv.argv[inv.argv.index("--trials") + 1])
                 for inv in invocations if inv.argv[0] == "simulate")
    return frames / statistics.median(p["pass_s"] for p in passes) if frames else None


# -- provenance -----------------------------------------------------------------


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload, seed, seconds, traced) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "satwiretap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- one workload ---------------------------------------------------------------


def run_workload(modules, name, seed, seconds, trace, refs, tiny=False, setup_repeats=SETUP_REPEATS):
    """Measure one workload; returns the result document (metrics and log)."""
    cli = modules["cli"]
    invocations = workloads.build(name, seed, refs, tiny)
    log = []
    doc = {"provenance": provenance(name, seed, seconds, bool(trace))}
    if not trace:
        setup = measure_setup(setup_repeats)
        passes = run_passes(cli, invocations, seconds, log)
        doc["metrics"] = end_to_end(passes, log, setup)
        doc["setup_samples_s"] = setup
        doc["frames_per_s"] = frames_per_s(passes, invocations)
    else:
        untraced = run_passes(cli, invocations, seconds * (1.0 - TRACED_SHARE), log)
        tracer = Tracer(modules)
        tracer.install()
        try:
            passes = run_passes(cli, invocations, seconds * TRACED_SHARE, log, tracer, keep_spans=True)
        finally:
            tracer.uninstall()
        doc["metrics"] = per_layer(passes, untraced)
        doc["absent"] = tracer.absent
        doc["hook_errors"] = dict(tracer.hook_errors)
        doc["spans"] = passes[0]["spans"]
        passes = untraced + passes
    failed = sum(1 for entry in log if entry["problems"])
    doc.update({
        "correct": failed == 0,
        "attempted": len(log),
        "failed": failed,
        "failed_ratio": failed / len(log),
        "passes": len(passes),
        "invocations_per_pass": len(invocations),
        "query_samples": sum(len(p["seconds"]) for p in passes),
        "log": log,
    })
    return doc


def write_result(doc) -> str:
    prov = doc["provenance"]
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{prov['workload']}-seed{prov['seed']}-trace{int(prov['traced'])}")
    spans = doc.pop("spans", None)
    if spans is not None:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    return stem + ".json"


def report(doc, path, stream=sys.stdout):
    prov = doc["provenance"]
    print(f"workload {prov['workload']}  seed {prov['seed']}  traced {int(prov['traced'])}  "
          f"nproc {prov['nproc']}  passes {doc['passes']}  invocations {doc['attempted']}  "
          f"failed {doc['failed']}", file=stream)
    for problem in sorted({p for entry in doc["log"] for p in entry["problems"]}):
        print(f"  FAILED CHECK: {problem}", file=stream)
    for name, metric in doc["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}", file=stream)
    if doc.get("frames_per_s"):
        print(f"  {'frames_per_s':<44} {doc['frames_per_s']:>14.6g} frames/s", file=stream)
    print(f"  {'failed_ratio':<44} {doc['failed_ratio']:>14.6g} fraction", file=stream)
    print(f"  result file: {os.path.relpath(path, ROOT)}", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_package()
    refs = workloads.load_refs()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        doc = run_workload(modules, name, args.seed, args.seconds, args.trace, refs)
        report(doc, write_result(doc))
        summary["correct"] &= doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in doc["metrics"].items()})
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
