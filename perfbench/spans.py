"""Span tracing for the benchmark's traced runs.

The tracer wraps public satwiretap functions at module-attribute level: every
package module whose namespace holds the original function object gets the
wrapper, so names imported into other modules (``figures.min_leakage_bound``,
``capacity.integrate_doubling``) are traced too. ECC classes get their
``encode``/``decode`` methods wrapped on the class. Nothing inside ``src/`` is
edited; a wrapped name that the package no longer defines is listed in
``Tracer.absent`` instead of failing the run.

Spans (id, name, start, end, parent, thread) are kept in memory for one
invocation and summarized when it ends. A span's self time is its duration
minus the part of it that its child spans cover; totals are the wall time
covered by the union of a name's (or a module's) spans, so overlapping spans
from worker threads are not counted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "quadrature",
    "channel",
    "capacity",
    "leakage",
    "geometry",
    "code",
    "sim",
    "figures",
    "cli",
)

ECC_CLASSES = (
    ("IdentityCode", "identity"),
    ("Repetition3Code", "rep3"),
    ("Hamming74Code", "hamming74"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def shape_key(ecc_name, n, k, k_prime, workers):
    """Label of one simulated code shape, as used in per-shape metric names."""
    return f"{ecc_name}_{n}_{k}_{k_prime}_t{workers}"


def _count_toeplitz(tracer, args, kwargs, seconds):
    seeds = _arg(args, kwargs, 0, "seeds")
    k = int(_arg(args, kwargs, 2, "k"))
    k_prime = int(_arg(args, kwargs, 3, "k_prime"))
    products = int(seeds.shape[0]) * k * k_prime
    tracer.add("code.toeplitz_apply_batch.bit_products", products)
    tracer.add("code.toeplitz_apply_batch.bytes_computed", 8 * products)


def _count_reliability(tracer, args, kwargs, seconds):
    code = _arg(args, kwargs, 0, "code")
    ecc = _arg(args, kwargs, 1, "ecc")
    trials = int(_arg(args, kwargs, 3, "trials"))
    block_size = int(kwargs.get("block_size", 8192))
    workers = int(kwargs.get("workers", 1))
    key = shape_key(ecc.name, code.n, code.k, code.k_prime, workers)
    tracer.add("sim.frames", trials)
    tracer.add("sim.blocks", -(-trials // block_size))
    tracer.add(f"sim.shape_frames.{key}", trials)
    tracer.add(f"sim.shape_s.{key}", seconds)


def _count_oracle(tracer, args, kwargs, seconds):
    code = _arg(args, kwargs, 0, "code")
    quantizer = _arg(args, kwargs, 2, "quantizer")
    levels = 8 if quantizer is None else quantizer.levels
    hash_bits = code.k + code.k_prime
    tracer.add("sim.oracle.seeds", 2 ** (hash_bits - 1))
    tracer.add("sim.oracle.cells", 2**hash_bits * levels**code.n)


def _figure_name(args, kwargs):
    return f"figures.fig{_arg(args, kwargs, 0, 'figure')}"


# (home module, function, span name, counter hook run after each call)
FUNCTIONS = (
    ("quadrature", "integrate_doubling", "quadrature.integrate_doubling", None),
    ("channel", "density_bob", "channel.density", None),
    ("channel", "density_eve", "channel.density", None),
    ("channel", "mixture_density_bob", "channel.density", None),
    ("channel", "mixture_density_eve", "channel.density", None),
    ("capacity", "mi_biawgn", "capacity.mi_biawgn", None),
    ("capacity", "secrecy_capacity", "capacity.secrecy_capacity", None),
    ("capacity", "capacity_curves", "capacity.capacity_curves", None),
    ("capacity", "cs_gamma_sweep", "capacity.cs_gamma_sweep", None),
    ("leakage", "min_leakage_bound", "leakage.min_leakage_bound", None),
    ("leakage", "leakage_bound", "leakage.leakage_bound", None),
    ("leakage", "e0_max", "leakage.e0_max", None),
    ("leakage", "e0", "leakage.e0", None),
    ("geometry", "protected_region_map", "geometry.protected_region_map", None),
    ("geometry", "beta", "geometry.beta", None),
    ("code", "toeplitz_apply_batch", "code.toeplitz_apply_batch", _count_toeplitz),
    ("sim", "run_reliability", "sim.run_reliability", _count_reliability),
    ("sim", "exact_leakage", "sim.exact_leakage", _count_oracle),
    ("figures", "figure_data", _figure_name, None),
    ("cli", "main", "cli.main", None),
)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -np.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


class Tracer:
    """Records spans around wrapped satwiretap functions in this process.

    Create it in the benchmark process, ``install`` it before forking the
    invocations, and call ``reset`` at the start and ``summary`` at the end of
    each invocation. ``uninstall`` restores every original attribute.
    """

    def __init__(self, package_modules):
        self.modules = package_modules
        self.absent = []
        self.hook_errors = defaultdict(int)
        self._patched = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stacks = {}
        self._main = threading.get_ident()

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to whatever the main thread is
        # blocked in (run_reliability's thread pool)
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def _span(self, fn, name, hook=None, prepare=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, label, t0, t1, parent, threading.get_ident()))
                if hook is not None:
                    try:
                        hook(tracer, args, kwargs, t1 - t0)
                    except Exception:  # a changed signature must not stop the program
                        tracer.hook_errors[label] += 1

        return traced

    def _trace_integrand(self, args, kwargs):
        # count the points each integrand call evaluates and time it as a child
        f = _arg(args, kwargs, 0, "f")

        def integrand(x):
            self.add("quadrature.nodes", np.size(x))
            return f(x)

        traced = self._span(integrand, "quadrature.integrand")
        if args:
            return (traced,) + tuple(args[1:]), kwargs
        return args, dict(kwargs, f=traced)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for home, fname, span_name, hook in FUNCTIONS:
            original = getattr(self.modules[home], fname, None)
            if original is None:
                self.absent.append(f"{home}.{fname}")
                continue
            prepare = self._trace_integrand if fname == "integrate_doubling" else None
            wrapped = self._span(original, span_name, hook, prepare)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        for cls_name, ecc in ECC_CLASSES:
            cls = getattr(self.modules["code"], cls_name, None)
            if cls is None:
                self.absent.append(f"code.{cls_name}")
                continue
            for method in ("encode", "decode"):
                self._patch(cls, method, self._span(getattr(cls, method), f"code.ecc_{method}.{ecc}"))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Calls, totals, self times, module totals and counts of this invocation."""
        by_name = defaultdict(list)
        by_module = defaultdict(list)
        children = defaultdict(list)
        for _, name, t0, t1, parent, _ in self.spans:
            by_name[name].append((t0, t1))
            by_module[name.split(".", 1)[0]].append((t0, t1))
            if parent is not None:
                children[parent].append((t0, t1))
        self_s = defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            self_s[name] += (t1 - t0) - covered(children.get(sid, ()))
        return {
            "calls": {name: len(v) for name, v in by_name.items()},
            "total_s": {name: covered(v) for name, v in by_name.items()},
            "self_s": dict(self_s),
            "module_s": {name: covered(v) for name, v in by_module.items()},
            "counts": dict(self.counts),
        }

    def span_records(self, invocation: int) -> list:
        return [
            {"name": name, "start": t0, "end": t1, "id": sid, "parent": parent,
             "thread": thread, "invocation": invocation}
            for sid, name, t0, t1, parent, thread in self.spans
        ]
