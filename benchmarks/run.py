"""walkzeta benchmark: CLI workloads run in-process, checked and timed.

    python3 benchmarks/run.py --workload spectra-corpus --seed 1 --seconds 10 --trace 0

Run from a checkout; walkzeta is imported from its ``src`` directory and
from nowhere else.  One round is a fixed list of ``walkzeta.cli.main``
calls with stdout captured.  Rounds repeat until ``--seconds`` have passed
(at least two, so that every output is produced twice and compared byte
for byte).  The first round's outputs are checked by ``checks.py``.
Times are reported at a fixed reference speed (see ``speed.py``); the
times as measured go to the copy of the result in ``results/``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs one
untraced round and then traced rounds, and reports per-layer metrics.
The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
MIN_ROUNDS = 2
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def setup(workload: str, seed: int):
    """Import walkzeta from the checkout and build one round of operations."""
    sys.path.insert(0, SRC)
    import walkzeta.cli

    if not os.path.abspath(walkzeta.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"walkzeta was imported from {walkzeta.cli.__file__}, not {SRC}")
    import workloads

    inputs_dir = os.path.join(RESULTS, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    return walkzeta.cli, workloads.WORKLOADS[workload](seed, inputs_dir)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, at reference speed and as timed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-sample",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append([float(x) for x in proc.stdout.split()])
    return tuple(statistics.median(column) for column in zip(*samples))


class Round:
    def __init__(self):
        self.spans: list[tuple[float, float, float]] = []  # start, end, seconds net of sampling
        self.op_times: list[float] = []  # at reference speed, filled in by ``scale``
        self.outputs: list[tuple[int, str]] = []

    def scale(self, sampler: speed.Sampler):
        self.op_times = [net * sampler.scale(start, end) for start, end, net in self.spans]

    @property
    def wall(self) -> float:
        return sum(self.op_times)

    @property
    def raw_op_times(self) -> list[float]:
        return [net for _, _, net in self.spans]

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_op_times)


def run_round(cli, ops, sampler: speed.Sampler, tracer=None) -> Round:
    gc.collect()
    result = Round()
    for op in ops:
        buf = io.StringIO()
        mark = sampler.mark()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(op.argv)
        except Exception:  # an escaped exception is a failed operation
            log(f"operation {op.argv[:3]} raised:\n{traceback.format_exc()}")
            code = -1
        end = time.perf_counter()
        result.spans.append((start, end, end - start - sampler.busy_since(mark)))
        result.outputs.append((code, buf.getvalue()))
        if tracer is not None:
            tracer.collect()
    return result


def run_rounds(cli, ops, seconds: float, min_rounds: int, tracer=None) -> list[Round]:
    """Rounds until ``seconds`` have passed, with times at reference speed."""
    rounds = []
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            rounds.append(run_round(cli, ops, sampler, tracer))
            log(f"round {len(rounds)}: {rounds[-1].raw_wall:.3f} s as timed")
    for r in rounds:
        r.scale(sampler)
    log("rounds at reference speed: " + ", ".join(f"{r.wall:.3f} s" for r in rounds))
    return rounds


def check_outputs(ops, rounds: list[Round], seed: int) -> list[str]:
    """Independent checks on the first round, byte identity on the rest."""
    rng = random.Random(f"check:{seed}")
    problems = []
    reference = rounds[0].outputs
    for op, (code, out) in zip(ops, reference):
        if code != 0:
            continue
        try:
            doc = json.loads(out)
        except ValueError:
            problems.append(f"{op.argv[:3]}: stdout is not JSON")
            continue
        problems += [f"{op.argv[:3]}: {p}" for p in op.check(doc, rng)]
    for later in rounds[1:]:
        for op, (_, first), (_, out) in zip(ops, reference, later.outputs):
            if out != first:
                problems.append(f"{op.argv[:3]}: stdout differs between rounds")
    return problems


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def harrell_davis_median(values) -> float:
    """Harrell-Davis estimate of the median.

    A mean of the order statistics weighted by the Beta((n+1)/2, (n+1)/2)
    mass between (i-1)/n and i/n.  Unlike the sample median it moves
    smoothly when values near the middle swap places, which matters where
    the operation times have a gap at the middle (``zeta-oracle``'s jump
    from 17 to 22 ms).
    """
    import numpy as np  # here, so that set-up time still counts its import

    xs = np.sort(np.asarray(values, dtype=float))
    n, cells = len(xs), 64
    mid = (np.arange(cells * n) + 0.5) / (cells * n)
    log_density = ((n + 1) / 2 - 1) * (np.log(mid) + np.log1p(-mid))
    mass = np.exp(log_density - log_density.max()).reshape(n, cells).sum(axis=1)
    return float(mass @ xs / mass.sum())


def metric_doc(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        with speed.Sampler() as sampler:
            cli, ops = setup(args.workload, args.seed)
            end = time.perf_counter()
            setup_net = end - start - sampler.busy_since(0)
    except (ImportError, KeyError) as exc:
        log(f"error: cannot set up workload {args.workload!r}: {exc!r}")
        return 2
    if args.setup_sample:
        print(setup_net * sampler.scale(start, end), setup_net)
        return 0
    os.makedirs(RESULTS, exist_ok=True)
    log(f"{args.workload}: {len(ops)} operations per round")

    if args.trace:
        import spans

        tracer = spans.Tracer(RESULTS)
        tracer.collect()  # drop spool files a killed run left behind
        tracer.take()
        rounds = run_rounds(cli, ops, 0, 1)
        untraced_wall = rounds[0].wall
        tracer.install()
        try:
            traced = run_rounds(cli, ops, args.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        rounds += traced
        recorded = tracer.take()
        layer = spans.layer_metrics(recorded, len(traced))
        # Span times are as timed; one factor per run brings them to reference speed.
        gross = sum(end - start for r in traced for start, end, _ in r.spans)
        factor = sum(r.wall for r in traced) / gross
        units = spans.units()
        layer = {k: v * factor if units[k] == "s" else v for k, v in layer.items()}
        layer["tracing.overhead_s"] = statistics.median(r.wall for r in traced) - untraced_wall
        metrics = metric_doc(layer, units)
        with open(os.path.join(RESULTS, f"spans-{args.workload}-{args.seed}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span in recorded:
                fh.write(json.dumps(span) + "\n")
    else:
        import workloads

        min_rounds = workloads.MIN_ROUNDS.get(args.workload, MIN_ROUNDS)
        rounds = run_rounds(cli, ops, args.seconds, min_rounds)
        peak_rss = peak_rss_mb()  # before the checks add their own memory

    problems = check_outputs(ops, rounds, args.seed)
    for problem in problems:
        log(f"CHECK FAILED {problem}")
    as_timed = {"run_s": statistics.median(r.raw_wall for r in rounds)}
    if not args.trace:
        setup_s, as_timed["setup_s"] = setup_seconds(args.workload, args.seed)
        as_timed["op_p50_s"] = harrell_davis_median([t for r in rounds for t in r.raw_op_times])
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(r.wall for r in rounds),
            "op_p50_s": harrell_davis_median([t for r in rounds for t in r.op_times]),
            "peak_rss_mb": peak_rss,
        }
        metrics = metric_doc(values, END_TO_END_UNITS)

    attempted = sum(len(r.outputs) for r in rounds)
    failed = sum(1 for r in rounds for code, _ in r.outputs if code != 0)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(RESULTS, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "as_timed": as_timed}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
