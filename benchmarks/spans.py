"""Spans around calls into walkzeta's public functions, kept in memory.

``Tracer.install`` wraps every public module-level function of each
walkzeta module (not methods: wrapping ``Poly`` or ``Matrix`` would swamp
their arithmetic) and rebinds the wrapper in every walkzeta namespace that
holds the original, so ``from .exact import charpoly_exact`` call sites
are traced too.  The program itself is not changed.

Pool workers forked by ``run_identity_suite`` inherit the wrappers and the
open span stack.  Each worker appends its finished top-level spans to a
file in the spool directory; ``collect`` folds them back in after the call.
"""

from __future__ import annotations

import glob
import importlib
import inspect
import json
import math
import os
import time

MODULES = ("graphs", "exact", "operators", "zeta", "identities", "spectra", "experiments", "cli")


def _charpoly_attrs(args, result):
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs)
    return {"dim": args[0].rows, "bits": bits}


PROBES = {
    "exact.charpoly_exact": _charpoly_attrs,
    "spectra.roots": lambda args, result: {"degree": args[0].degree},
    "zeta.prime_cycle_classes": lambda args, result: {"classes": len(result)},
    "experiments.run_identity_suite": lambda args, result: {
        "busy": sum(c.elapsed for c in result.checks)
    },
}


class Tracer:
    """Records (id, parent, name, start, end, attrs) spans."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.in_worker = False
        self.worker_depth = 0
        self.stack: list[tuple[int, int]] = []
        self.spans: list[tuple] = []
        self.counter = 0
        self.originals: list[tuple[object, str, object]] = []

    def install(self):
        modules = [importlib.import_module(f"walkzeta.{name}") for name in MODULES]
        namespaces = [importlib.import_module("walkzeta"), *modules]
        for short, module in zip(MODULES, modules):
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self.originals.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, fn in reversed(self.originals):
            setattr(ns, key, fn)
        self.originals.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        probe = PROBES.get(name)

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_worker()
            tracer.counter += 1
            span_id = (tracer.pid, tracer.counter)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    attrs = probe(args, result)
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, attrs))
                if tracer.in_worker and len(tracer.stack) == tracer.worker_depth:
                    tracer._spool()

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    def _enter_worker(self):
        """First traced call in a forked worker: drop the parent's spans."""
        self.pid = os.getpid()
        self.in_worker = True
        self.worker_depth = len(self.stack)
        self.spans = []

    def _spool(self):
        path = os.path.join(self.spool_dir, f"spool-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self):
        """Fold in the spans that pool workers spooled, then delete the files."""
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spool-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    span_id, parent, name, start, end, attrs = json.loads(line)
                    self.spans.append(
                        (tuple(span_id), tuple(parent) if parent else None, name, start, end, attrs)
                    )
            os.remove(path)

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


PER_LAYER = (
    "exact.self_s",
    "exact.charpoly_exact.s",
    "exact.charpoly_exact.calls",
    "exact.charpoly_exact.dim_max",
    "exact.charpoly_exact.coeff_bits_max",
    "exact.charpoly_exact.scaling_exp",
    "exact.polymat_det.s",
    "exact.polymat_det.calls",
    "exact.det_exact.calls",
    "exact.square_free_decomposition.s",
    "operators.self_s",
    "operators.transition_matrix.s",
    "operators.power_support.s",
    "operators.power_support.calls",
    "zeta.self_s",
    "zeta.weighted_zeta_reciprocal.s",
    "zeta.weighted_zeta_reciprocal.calls",
    "zeta.ihara_reciprocal_edge_form.s",
    "zeta.ihara_reciprocal_bass_form.s",
    "zeta.euler_product_oracle.s",
    "zeta.prime_cycle_classes.classes",
    "identities.self_s",
    "spectra.self_s",
    "spectra.roots.s",
    "spectra.roots.degree_sum",
    "spectra.compare.s",
    "spectra.map.s",
    "experiments.self_s",
    "experiments.run_identity_suite.s",
    "experiments.run_identity_suite.worker_busy_s",
    "experiments.srg_distinguish.s",
    "graphs.self_s",
    "cli.self_s",
)

MAP_FUNCTIONS = ("spectra.map_random_walk_spectrum", "spectra.map_adjacency_spectrum")


def scaling_exponent(points) -> float:
    """Least-squares slope of log(time) against log(dim); 0 without two sizes."""
    points = [(math.log(d), math.log(t)) for d, t in points if d >= 4 and t > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer figures per round from the spans of ``rounds`` traced rounds."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    self_s: dict[str, float] = {}
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        span_id, _, name, start, end, _ = span
        layer = name.split(".", 1)[0]
        kids = [(c[3], c[4]) for c in children.get(span_id, ())]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - _covered(kids, start, end)
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + end - start  # no traced function calls itself

    def attrs(name, key):
        return [s[5][key] for s in spans if s[2] == name and s[5]]

    charpolys = [(s[5]["dim"], s[4] - s[3]) for s in spans if s[2] == "exact.charpoly_exact" and s[5]]
    total = {
        "exact.charpoly_exact.dim_max": max(attrs("exact.charpoly_exact", "dim"), default=0),
        "exact.charpoly_exact.coeff_bits_max": max(attrs("exact.charpoly_exact", "bits"), default=0),
        "exact.charpoly_exact.scaling_exp": scaling_exponent(charpolys),
    }
    per_round = {
        "spectra.roots.degree_sum": sum(attrs("spectra.roots", "degree")),
        "zeta.prime_cycle_classes.classes": sum(attrs("zeta.prime_cycle_classes", "classes")),
        "experiments.run_identity_suite.worker_busy_s": sum(attrs("experiments.run_identity_suite", "busy")),
        "spectra.map.s": sum(incl.get(name, 0.0) for name in MAP_FUNCTIONS),
    }
    metrics = {}
    for key in PER_LAYER:
        if key in total:
            value = total[key]
        elif key in per_round:
            value = per_round[key]
        elif key.count(".") == 1:
            value = self_s.get(key.split(".")[0], 0.0)
        else:
            name, kind = key.rsplit(".", 1)
            value = calls.get(name, 0) if kind == "calls" else incl.get(name, 0.0)
        metrics[key] = value if key in total else value / rounds
    return metrics


def units() -> dict[str, str]:
    """Unit of every per-layer metric, tracing overhead included."""
    special = {"dim_max": "rows", "coeff_bits_max": "bits", "scaling_exp": "1"}
    result = {}
    for key in (*PER_LAYER, "tracing.overhead_s"):
        kind = key.rsplit(".", 1)[1]
        result[key] = special.get(kind, "s" if kind == "s" or kind.endswith("_s") else "count")
    return result
