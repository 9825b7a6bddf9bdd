"""Tests of the benchmark's own output checks, tracer and speed sampler.

    python3 -m pytest benchmarks/test_checks.py

Every check is shown accepting a genuine walkzeta output and rejecting the
same output with one deliberate corruption.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from walkzeta import cli  # noqa: E402

K4 = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
DOUBLED_TRIANGLE = (3, [(0, 1), (0, 1), (1, 2), (2, 0)])
PATH4 = (4, [(0, 1), (1, 2), (2, 3)])


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def cli_graph_args(graph, tmp_path) -> list[str]:
    return workloads.graph_args("g", *graph, str(tmp_path))


def rng():
    return random.Random(7)


def bump(value: str, delta=1) -> str:
    return str(Fraction(value) + delta)


def exact_det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def test_det_mod_p_matches_exact_determinant():
    gen = np.random.default_rng(3)
    for size in (1, 2, 5, 9):
        for _ in range(5):
            a = gen.integers(-50, 50, size=(size, size))
            if size > 2:
                a[1] = a[0]  # also cover singular matrices
            assert checks.det_mod_p(a) == exact_det(a.tolist()) % checks.PRIME


def test_graph6_round_trip_matches_walkzeta():
    from walkzeta.graphs import parse_graph6

    for g6 in (pair for pairs in workloads.COSPECTRAL_PAIRS for pair in pairs):
        n, edges = workloads.decode_graph6(g6)
        assert workloads.encode_graph6(n, edges) == g6
        g = parse_graph6(g6)
        assert (g.n, sorted(g.edges)) == (n, sorted(edges))


def test_workloads_are_built_from_the_seed(tmp_path):
    sizes = {"distinguish-cospectral": 3, "verify-builtin": 1, "spectra-corpus": 308, "zeta-oracle": 62}
    for name, build in workloads.WORKLOADS.items():
        first = [op.argv for op in build(1, str(tmp_path))]
        assert len(first) == sizes[name]
        assert first == [op.argv for op in build(1, str(tmp_path))]
        if name != "verify-builtin":
            assert first != [op.argv for op in build(2, str(tmp_path))]


def test_relabel_keeps_degrees():
    n, edges = K4
    moved = workloads.relabel(n, edges, random.Random(1))
    assert sorted(checks.degrees(n, moved)) == sorted(checks.degrees(n, edges))
    assert len(moved) == len(edges)


@pytest.mark.parametrize("graph", [K4, DOUBLED_TRIANGLE, PATH4], ids=["K4", "doubled", "P4"])
@pytest.mark.parametrize("target", checks.TARGETS)
def test_charpoly_check_rejects_changed_coefficient(graph, target, tmp_path):
    doc = run_cli(["spectrum", "--target", target, *cli_graph_args(graph, tmp_path)])
    num, den = checks.operator(*graph, target)
    assert checks.check_charpoly(doc["charpoly"], num, den, rng()) == []
    corrupted = list(doc["charpoly"])
    corrupted[0] = bump(corrupted[0])
    assert checks.check_charpoly(corrupted, num, den, rng())


@pytest.mark.parametrize("target", checks.TARGETS)
def test_power_sum_check_rejects_moved_root(target, tmp_path):
    doc = run_cli(["spectrum", "--target", target, *cli_graph_args(K4, tmp_path)])
    assert checks.check_spectrum_doc(doc, *K4, rng()) == []
    moved = [dict(z) for z in doc["spectrum"]]
    moved[-1]["re"] += 1e-3
    num, den = checks.operator(*K4, target)
    assert checks.check_power_sums(moved, num, den)


@pytest.mark.parametrize("graph", [K4, DOUBLED_TRIANGLE, PATH4], ids=["K4", "doubled", "P4"])
def test_zeta_check_rejects_changed_series_term(graph, tmp_path):
    doc = run_cli(["zeta", "--oracle", "--order", "8", *cli_graph_args(graph, tmp_path)])
    assert checks.check_zeta_doc(doc, *graph, 8, rng()) == []
    for key in ("series", "oracle_series"):
        corrupted = dict(doc, **{key: list(doc[key])})
        corrupted[key][4] = bump(corrupted[key][4])
        assert checks.check_zeta_doc(corrupted, *graph, 8, rng())
    corrupted = dict(doc, edge_form=list(doc["edge_form"]))
    corrupted["edge_form"][-1] = bump(corrupted["edge_form"][-1])
    assert checks.check_zeta_doc(corrupted, *graph, 8, rng())


def test_zeta_series_counts_cycles_of_a_triangle():
    # the triangle's only reduced cycles are its two orientations and their powers
    assert checks.zeta_series([(0, 1), (1, 2), (2, 0)], 6) == [1, 0, 0, 2, 0, 0, 3]


def test_distinguish_check_rejects_wrong_level_and_coefficient():
    g6_left, g6_right = workloads.COSPECTRAL_PAIRS[0]
    left, right = workloads.decode_graph6(g6_left), workloads.decode_graph6(g6_right)
    doc = run_cli(["distinguish", g6_left, g6_right])
    assert checks.check_distinguish_doc(doc, left, right, 3, rng()) == []
    wrong_level = json.loads(json.dumps(doc))
    wrong_level["result"]["level"] = 2
    assert checks.check_distinguish_doc(wrong_level, left, right, 3, rng())
    wrong_coeff = json.loads(json.dumps(doc))
    pair = wrong_coeff["result"]["charpolys"]["support_u2"]
    pair["left"][5] = bump(pair["left"][5])
    pair["right"][5] = bump(pair["right"][5])
    assert checks.check_distinguish_doc(wrong_coeff, left, right, 3, rng())
    assert checks.check_distinguish_doc(doc, left, right, 2, rng())


def test_verify_check_rejects_missing_or_failed_check():
    smoke = [entry for entry in workloads.corpus() if entry[1] <= 4]
    doc = run_cli(["verify", "--corpus", "smoke", "--trials", "1"])
    assert checks.check_verify_doc(doc, smoke, 42, 1) == []
    dropped = json.loads(json.dumps(doc))
    dropped["report"]["checks"].pop()
    dropped["report"]["total_checks"] -= 1
    assert checks.check_verify_doc(dropped, smoke, 42, 1)
    failed = json.loads(json.dumps(doc))
    failed["report"]["checks"][0]["passed"] = False
    assert checks.check_verify_doc(failed, smoke, 42, 1)


def test_tracer_gathers_worker_spans_and_restores_functions(tmp_path):
    from walkzeta import exact, experiments

    original = exact.charpoly_exact
    smoke = [e for e in experiments.builtin_corpus(42) if e.graph.n <= 3]
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    try:
        assert experiments.charpoly_exact is not original  # rebound where imported
        experiments.run_identity_suite(smoke, weight_trials=1, workers=2)
        tracer.collect()
    finally:
        tracer.uninstall()
    assert exact.charpoly_exact is original and experiments.charpoly_exact is original
    recorded = tracer.take()
    suite = [s for s in recorded if s[2] == "experiments.run_identity_suite"]
    assert len(suite) == 1
    worker_pids = {s[0][0] for s in recorded if s[1] == suite[0][0]}
    assert worker_pids and os.getpid() not in worker_pids
    metrics = spans.layer_metrics(recorded, 1)
    assert metrics["exact.charpoly_exact.calls"] > 0
    assert metrics["experiments.run_identity_suite.worker_busy_s"] > 0
    assert set(metrics) == set(spans.PER_LAYER)


def test_self_time_excludes_covered_child_intervals():
    recorded = [
        ((1, 1), None, "cli.main", 0.0, 10.0, None),
        ((1, 2), (1, 1), "exact.det_exact", 1.0, 4.0, None),
        ((2, 1), (1, 1), "exact.det_exact", 3.0, 6.0, None),
    ]
    metrics = spans.layer_metrics(recorded, 1)
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["exact.self_s"] == pytest.approx(6.0)
    assert metrics["exact.det_exact.calls"] == 2


def test_scaling_exponent_recovers_a_power_law():
    points = [(d, 1e-6 * d**3.5) for d in (8, 16, 32, 64)]
    assert spans.scaling_exponent(points) == pytest.approx(3.5)


def test_sampler_subtracts_its_bursts_and_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [n for e, n in zip(sampler.ends, sampler.lengths) if start <= e <= end]
    assert len(inside) >= 5  # one burst per 10 ms of wall time
    assert 0 < sum(inside) <= sampler.busy_since(0) < 0.2 * (end - start)
    assert sampler.scale(start, end) == pytest.approx(
        speed.NOMINAL_BURST_S * len(inside) / sum(inside)
    )


def test_sampler_scales_a_short_interval_by_the_nearest_bursts():
    sampler = speed.Sampler()
    sampler.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    sampler.lengths = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    nominal = speed.NOMINAL_BURST_S
    assert sampler.scale(2.5, 5.5) == pytest.approx(nominal * 3 / 28)  # bursts at 3, 4, 5
    assert sampler.scale(3.9, 4.2) == pytest.approx(nominal * 3 / 28)  # 4, then 3 and 5
    assert sampler.scale(0.0, 0.5) == pytest.approx(nominal * 3 / 7)  # 1, 2, 3
    assert sampler.scale(9.0, 9.0) == pytest.approx(nominal * 3 / 56)  # 4, 5, 6


def test_harrell_davis_median_is_smooth_across_a_gap():
    assert run.harrell_davis_median([5.0]) == pytest.approx(5.0)
    assert run.harrell_davis_median([1.0, 3.0]) == pytest.approx(2.0)
    assert run.harrell_davis_median(range(101)) == pytest.approx(50.0)
    # Half the values at 17, half at 22: the sample median jumps by 5 when
    # one value crosses the gap, this estimate by a small part of that.
    low = [17.0] * 62 + [22.0] * 62
    crossed = [17.0] * 61 + [22.0] * 63
    assert run.harrell_davis_median(low) == pytest.approx(19.5)
    assert abs(run.harrell_davis_median(crossed) - 19.5) < 0.5
