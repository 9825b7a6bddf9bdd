import json
import random
import time

import networkx as nx
import pytest

from walkzeta import experiments
from walkzeta.exact import Matrix, Poly, SizeGuardError, charpoly_exact
from walkzeta.graphs import Graph, parse_graph6
from walkzeta.identities import (
    charpoly_support_via_adjacency_form,
    charpoly_u_via_degree_form,
    charpoly_u_via_walk_form,
    degree_form_matrix,
    vertex_matrix,
)
from walkzeta.operators import (
    arc_operator,
    coin_weights,
    nonbacktracking_matrix,
    operator_matrix,
    positive_support,
    transition_matrix,
)
from walkzeta.zeta import ihara_reciprocal_bass_form, ihara_reciprocal_edge_form, weighted_zeta_reciprocal
from walkzeta.experiments import (
    CorpusEntry,
    builtin_corpus,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    named_graph,
    path_graph,
    petersen_graph,
    random_arc_weights,
    rook_graph_4x4,
    run_identity_suite,
    shrikhande_graph,
    srg_distinguish,
    triangle_with_doubled_edge,
)

from oracles import strongly_regular_params

# graph6 forms of the strongly regular test pair; parse_graph6 of these
# matches the algebraic constructions (pinned below)
SHRIKHANDE_G6 = "OlfJHsHBGK_\\oHWKeBK_\\"
ROOK_4X4_G6 = "O~`HW}GPHDaNaGPCcPWaN"


def _edge_set(g: Graph):
    return frozenset(frozenset(e) for e in g.edges)


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def test_corpus_names_and_size():
    corpus = builtin_corpus()
    expected = (
        [f"K{n}" for n in range(2, 8)]
        + [f"C{n}" for n in range(3, 13)]
        + [f"P{n}" for n in range(3, 7)]
        + ["K2_3", "K3_3", "petersen", "triangle_double_edge"]
        + [f"random_{i:02d}" for i in range(1, 21)]
    )
    assert [e.name for e in corpus] == expected
    assert len(corpus) == 44
    # the structured members, built by named_graph, are the family constructions
    direct = (
        [complete_graph(n) for n in range(2, 8)]
        + [cycle_graph(n) for n in range(3, 13)]
        + [path_graph(n) for n in range(3, 7)]
        + [complete_bipartite_graph(2, 3), complete_bipartite_graph(3, 3)]
        + [petersen_graph(), triangle_with_doubled_edge()]
    )
    assert [(e.graph.n, e.graph.edges) for e in corpus[:24]] == [(g.n, g.edges) for g in direct]


def test_corpus_random_members():
    corpus = builtin_corpus()
    randoms = [e for e in corpus if e.name.startswith("random_")]
    assert len(randoms) == 20
    for entry in randoms:
        assert 4 <= entry.graph.n <= 8
        assert entry.graph.connected
    # seed determinism and sensitivity
    again = builtin_corpus()
    assert [e.graph.edges for e in again] == [e.graph.edges for e in corpus]
    other = builtin_corpus(seed=7)
    assert [e.graph.edges for e in other] != [e.graph.edges for e in corpus]


def test_named_graph_lookup():
    assert named_graph("K4").edges == complete_graph(4).edges
    assert named_graph("c7").edges == cycle_graph(7).edges
    assert named_graph("P5").edges == path_graph(5).edges
    assert named_graph("K2_3").edges == complete_bipartite_graph(2, 3).edges
    assert named_graph("petersen").edges == petersen_graph().edges
    assert named_graph("shrikhande").edges == shrikhande_graph().edges
    assert named_graph("rook44").edges == rook_graph_4x4().edges
    # sizes are ASCII digits only: no sign, inner space or other script's digits
    for bad in ("Q5", "K", "Kx", "frobnitz", "K3_-1", "K+4", "k 4", "C\u0661\u0662"):
        with pytest.raises(KeyError):
            named_graph(bad)


def test_strongly_regular_params_fixtures():
    assert strongly_regular_params(petersen_graph()) == (10, 3, 0, 1)
    assert strongly_regular_params(cycle_graph(5)) == (5, 2, 0, 1)
    assert strongly_regular_params(shrikhande_graph()) == (16, 6, 2, 2)
    assert strongly_regular_params(rook_graph_4x4()) == (16, 6, 2, 2)
    assert strongly_regular_params(complete_graph(4)) is None
    assert strongly_regular_params(cycle_graph(6)) is None
    assert strongly_regular_params(path_graph(3)) is None
    assert strongly_regular_params(triangle_with_doubled_edge()) is None


def test_srg_pair_same_params_not_isomorphic():
    s = shrikhande_graph()
    r = rook_graph_4x4()
    assert strongly_regular_params(s) == strongly_regular_params(r)
    assert not nx.is_isomorphic(_to_nx(s), _to_nx(r))


def test_cayley_graph_on_other_groups():
    # Cay(Z3^2, {+-(1,0), +-(0,1)}) is the 3x3 rook graph, SRG(9, 4, 1, 2); Cay(Z7, {+-1}) is C7
    rook33 = experiments._cayley_graph((3, 3), {(1, 0), (2, 0), (0, 1), (0, 2)})
    assert strongly_regular_params(rook33) == (9, 4, 1, 2)
    c7 = experiments._cayley_graph((7,), {(1,), (6,)})
    assert c7.n == 7 and _edge_set(c7) == _edge_set(cycle_graph(7))


def test_srg_pair_graph6_constants():
    assert _edge_set(parse_graph6(SHRIKHANDE_G6)) == _edge_set(shrikhande_graph())
    assert _edge_set(parse_graph6(ROOK_4X4_G6)) == _edge_set(rook_graph_4x4())


def test_random_arc_weights_nonzero_and_deterministic():
    g = complete_bipartite_graph(2, 3)
    w = random_arc_weights(g, random.Random(5))
    assert len(w) == 2 * g.m
    assert all(x != 0 and abs(x) <= 9 for x in w)
    assert w == random_arc_weights(g, random.Random(5))
    assert w != random_arc_weights(g, random.Random(6))


def _small_corpus():
    wanted = {"K4", "C3", "P3", "K2_3", "triangle_double_edge"}
    return [e for e in builtin_corpus() if e.name in wanted]


def test_identity_suite_passes_on_small_corpus():
    report = run_identity_suite(_small_corpus(), weight_trials=2)
    assert report.passed
    assert report.failures() == []
    names = {c.identity for c in report.checks}
    assert names == {
        "u_charpoly_walk_form",
        "u_charpoly_degree_form",
        "zeta_edge_vs_vertex",
        "weighted_zeta_forms",
        "support_identity",
        "support_charpoly_form",
    }
    # hypothesis gating: the tree P3 gets no support checks, the multigraph
    # gets the closed form but not the weighted or simple-only checks
    by_graph = {}
    for c in report.checks:
        by_graph.setdefault(c.graph, set()).add(c.identity)
    assert "support_identity" not in by_graph["P3"]
    assert "support_charpoly_form" not in by_graph["P3"]
    assert "weighted_zeta_forms" not in by_graph["triangle_double_edge"]
    assert "support_identity" not in by_graph["triangle_double_edge"]
    assert "support_charpoly_form" in by_graph["triangle_double_edge"]
    assert "support_identity" in by_graph["K4"]


def test_identity_suite_report_serialization():
    report = run_identity_suite(_small_corpus(), weight_trials=1)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["failed_checks"] == 0
    assert doc["total_checks"] == len(report.checks)
    assert "elapsed" not in doc
    assert all("elapsed" not in c for c in doc["checks"])
    assert json.loads(json.dumps(report.to_dict())) == doc
    text = report.to_text()
    assert "result: PASS" in text


def test_identity_suite_parallel_matches_serial():
    corpus = _small_corpus()
    serial = run_identity_suite(corpus, weight_trials=1, workers=1)
    parallel = run_identity_suite(corpus, weight_trials=1, workers=2)
    assert parallel.passed
    assert parallel.to_dict() == serial.to_dict()  # timings excluded


def test_identity_suite_captures_crash_as_failure():
    # an isolated vertex has no coin weight, so U cannot be built: both
    # char(U) checks fail with the error, and the zeta checks still run
    isolated = Graph(3, ((0, 1),))
    report = run_identity_suite([CorpusEntry("iso", isolated)], weight_trials=2, workers=1)
    assert not report.passed
    assert [(c.identity, c.passed) for c in report.checks] == [
        ("u_charpoly_walk_form", False),
        ("u_charpoly_degree_form", False),
        ("zeta_edge_vs_vertex", True),
        ("weighted_zeta_forms", True),
    ]
    for c in report.failures():
        assert c.witness == "ValueError: transition matrix needs every vertex to have an arc"
    assert "FAIL u_charpoly_walk_form on iso: ValueError" in report.to_text()


def test_identity_suite_builds_shared_operands_once(monkeypatch):
    calls = {"arc_operator": 0, "positive_support": 0, "vertex_matrix": 0}
    for name in calls:
        def counted(*args, _fn=getattr(experiments, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(experiments, name, counted)
    report = run_identity_suite([CorpusEntry("K4", complete_graph(4))], weight_trials=2, workers=1)
    assert report.passed and len(report.checks) == 6
    # U^T, its support and the unit-weight vertex matrix once each, the
    # coin-weight vertex matrix once, and an edge and a vertex matrix per trial
    assert calls == {"arc_operator": 1 + 2, "positive_support": 1, "vertex_matrix": 2 + 2}


def _entry_matrices(entry, trials):
    """Every distinct matrix the checks on one entry batch for the kernel, from the public builders."""
    g = entry.graph
    ut = arc_operator(g, coin_weights(g))  # char(U) itself is a charpoly_exact call of its own
    out = {vertex_matrix(g, coin_weights(g)), degree_form_matrix(g), nonbacktracking_matrix(g)}
    out.add(vertex_matrix(g, [1] * (2 * g.m)))
    for t in range(trials if g.simple else 0):
        weights = random_arc_weights(g, random.Random(f"42:{entry.name}:{t}"))
        out |= {arc_operator(g, weights), vertex_matrix(g, weights)}
    if min(g.degrees) >= 2:
        out.add(positive_support(ut))
    return out


def test_identity_suite_feeds_the_kernel_once_per_task(monkeypatch):
    batches, singles = [], []
    kernel, single = experiments.charpolys_exact, experiments.charpoly_exact

    def recording(matrices):
        batches.append(list(matrices))
        return kernel(matrices)

    def recording_single(m):
        singles.append(m)
        return single(m)

    monkeypatch.setattr(experiments, "charpolys_exact", recording)
    monkeypatch.setattr(experiments, "charpoly_exact", recording_single)
    corpus = {e.name: e for e in _small_corpus()}
    report = run_identity_suite(list(corpus.values()), weight_trials=3, workers=1)
    assert report.passed
    assert list(dict.fromkeys(c.graph for c in report.checks)) == list(corpus)  # reported in corpus order
    # five entries by (n, m), largest first, in tasks of ceil(5 / 4) = 2
    tasks = [["K2_3", "K4"], ["triangle_double_edge", "C3"], ["P3"]]
    assert len(batches) == len(tasks)
    for names, batch in zip(tasks, batches):
        assert len(set(batch)) == len(batch), names
        assert set(batch) == set().union(*(_entry_matrices(corpus[name], 3) for name in names)), names
    # char(U) once per entry, in task order
    graphs = [corpus[name].graph for names in tasks for name in names]
    assert singles == [arc_operator(g, coin_weights(g)) for g in graphs]
    # K4 is regular and meets the support identity: 12 batched sides, 9 matrices
    assert len(_entry_matrices(corpus["K4"], 3)) == 9


def test_identity_suite_kernel_error_fails_the_checks_that_fed_it(monkeypatch):
    def refuse(matrices):
        raise SizeGuardError("kernel refused")

    monkeypatch.setattr(experiments, "charpolys_exact", refuse)
    report = run_identity_suite([CorpusEntry("K4", complete_graph(4))], weight_trials=2, workers=1)
    refused = "SizeGuardError: kernel refused"
    assert [(c.identity, c.witness) for c in report.checks] == [
        ("u_charpoly_walk_form", refused),
        ("u_charpoly_degree_form", refused),
        ("zeta_edge_vs_vertex", refused),
        ("weighted_zeta_forms", refused),
        ("support_identity", None),
        ("support_charpoly_form", refused),
    ]
    assert [c.passed for c in report.checks] == [False] * 4 + [True, False]


def test_identity_suite_kernel_error_stays_with_its_entry(monkeypatch):
    # C3's degree-form matrix makes the kernel raise: the task's batch fails, each
    # entry is retried on its own, and only C3's checks carry the error
    c3 = cycle_graph(3)
    bad, kernel, calls = degree_form_matrix(c3), experiments.charpolys_exact, []

    def refuse_c3(matrices):
        calls.append(len(matrices))
        if bad in matrices:
            raise SizeGuardError("kernel refused")
        return kernel(matrices)

    monkeypatch.setattr(experiments, "charpolys_exact", refuse_c3)
    entries = [CorpusEntry("K4", complete_graph(4)), CorpusEntry("C3", c3), CorpusEntry("C4", cycle_graph(4))]
    per_entry = experiments._task_checks(entries, 42, 2)
    sizes = [len(_entry_matrices(e, 2)) for e in entries]
    assert calls == [sum(sizes), *sizes]  # the task's batch, then one batch per entry
    assert [[c.graph for c in checks] for checks in per_entry] == [[e.name] * 6 for e in entries]
    assert all(c.passed for c in per_entry[0] + per_entry[2])
    refused = "SizeGuardError: kernel refused"
    assert [c.witness for c in per_entry[1]] == [refused] * 4 + [None, refused]


def test_identity_suite_check_times_sum_to_the_task_time(monkeypatch):
    kernel, calls = experiments.charpolys_exact, []

    def slow(matrices):
        calls.append(len(matrices))
        time.sleep(0.05)
        return kernel(matrices)

    monkeypatch.setattr(experiments, "charpolys_exact", slow)
    entries = [CorpusEntry("K4", complete_graph(4)), CorpusEntry("C5", cycle_graph(5))]
    start = time.perf_counter()
    per_entry = experiments._task_checks(entries, 42, 3)
    wall = time.perf_counter() - start
    assert len(calls) == 1 and [len(checks) for checks in per_entry] == [6, 6]
    times = [c.elapsed for checks in per_entry for c in checks]
    assert len(set(times)) == 1  # an equal share of the task each
    assert 0.05 <= sum(times) <= wall


def _side_value(g, side):
    """A table side as the check compares it: a (matrix, finish) side finished from charpoly_exact."""
    if not isinstance(side, tuple):
        return side
    matrix, finish = side
    return experiments._finished(g, (0, finish), [charpoly_exact(matrix)])


def test_identity_table_sides_are_the_public_forms():
    # every side the table builds, finished from its charpoly, equals the
    # library function it stands for, so the table cannot drift from it
    corpus = [e for e in builtin_corpus() if e.graph.n <= 4 or e.name in {"K5", "K6", "K7"}]
    assert {"K2", "K4", "K7", "C4", "P4", "triangle_double_edge"} <= {e.name for e in corpus}
    for entry in corpus:
        g, operands = entry.graph, experiments._Operands(entry, 42, 2)
        u = charpoly_exact(transition_matrix(g))
        public = {
            "u_charpoly_walk_form": lambda: [(u, charpoly_u_via_walk_form(g))],
            "u_charpoly_degree_form": lambda: [(u, charpoly_u_via_degree_form(g))],
            "zeta_edge_vs_vertex": lambda: [(ihara_reciprocal_edge_form(g), ihara_reciprocal_bass_form(g))],
            "weighted_zeta_forms": lambda: [
                tuple(weighted_zeta_reciprocal(g, random_arc_weights(g, random.Random(f"42:{entry.name}:{t}"))))
                for t in range(2)
            ],
            "support_identity": lambda: [(operator_matrix(g, "U+").transpose(), nonbacktracking_matrix(g))],
            "support_charpoly_form": lambda: [
                (charpoly_exact(operator_matrix(g, "U+")), charpoly_support_via_adjacency_form(g))
            ],
        }
        for identity, applies, sides in experiments._IDENTITY_CHECKS:
            if not applies(g):
                continue
            values = [tuple(_side_value(g, side) for side in two) for _, *two in sides(operands)]
            assert values == public[identity](), (identity, entry.name)


def test_identity_suite_witness_names_the_failing_trial_and_side(monkeypatch):
    k4 = complete_graph(4)
    second = random_arc_weights(k4, random.Random("42:K4:1"))
    build, support = experiments.vertex_matrix, experiments.positive_support

    def second_trial_differs(g, weights):  # trial 1's vertex side doubles its first arc weight
        return build(g, [2 * weights[0], *weights[1:]] if weights == second else weights)

    def relabelled(m):  # the support with its arcs read backwards: a new matrix, the same charpoly
        return Matrix.from_ints([row[::-1] for row in support(m).ints[::-1]])

    monkeypatch.setattr(experiments, "vertex_matrix", second_trial_differs)
    monkeypatch.setattr(experiments, "positive_support", relabelled)
    report = run_identity_suite([CorpusEntry("K4", k4)], weight_trials=3, workers=1)
    failed = {c.identity: c.witness for c in report.failures()}
    assert set(failed) == {"weighted_zeta_forms", "support_identity"}
    assert failed["weighted_zeta_forms"].startswith("trial 1, edge vs vertex, coefficient ")
    assert failed["support_identity"] == "support differs from edge matrix"


def test_identity_suite_witness_names_the_first_differing_coefficient(monkeypatch):
    # the paw, a triangle with a pendant edge, is irregular and has a leaf,
    # so its degree-form matrix and B - J0 each feed one check; m = n, so
    # the circle factor is 1
    paw = Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    degree, edge_matrix = degree_form_matrix(paw), nonbacktracking_matrix(paw)
    kernel = experiments.charpolys_exact

    def wrong(matrices):
        out = kernel(matrices)
        for i, (m, p) in enumerate(zip(matrices, out)):
            if m == degree:  # coefficient 2 grows by one
                out[i] = Poly.from_ints([c + p.scale * (k == 2) for k, c in enumerate(p.ints)], p.scale)
            elif m == edge_matrix:  # its lowest term dropped, so the edge form loses its top one
                low = next(k for k, c in enumerate(p.ints) if c)
                out[i] = Poly.from_ints([0] * (low + 1) + list(p.ints[low + 1 :]), p.scale)
        return out

    monkeypatch.setattr(experiments, "charpolys_exact", wrong)
    report = run_identity_suite([CorpusEntry("paw", paw)], weight_trials=1, workers=1)
    failed = {c.identity: c.witness for c in report.failures()}
    assert set(failed) == {"u_charpoly_degree_form", "zeta_edge_vs_vertex"}
    right = charpoly_u_via_degree_form(paw)
    a, b = right.to_strings()[2], str(right.coeffs[2] + 1)
    assert failed["u_charpoly_degree_form"] == f"direct vs closed form, coefficient 2: {a} vs {b}"
    edge = ihara_reciprocal_edge_form(paw)
    assert failed["zeta_edge_vs_vertex"] == f"edge vs vertex, coefficient {edge.degree}: 0 vs {edge.to_strings()[-1]}"


def test_distinguish_level0_fixture():
    result = srg_distinguish(complete_graph(4), cycle_graph(4))
    assert result.distinguished
    assert result.level == 0
    assert result.level_name == "adjacency"
    assert set(result.charpolys) == {"adjacency"}
    left, right = result.charpolys["adjacency"]
    assert left == ["-3", "-8", "-6", "0", "1"]
    assert right == ["0", "0", "-4", "0", "1"]
    doc = json.loads(json.dumps(result.to_dict()))
    assert doc["distinguished"] is True
    assert doc["level"] == 0
    assert doc["charpolys"]["adjacency"]["left"] == left


def test_distinguish_self_is_indistinct():
    result = srg_distinguish(cycle_graph(5), cycle_graph(5))
    assert not result.distinguished
    assert result.level is None
    assert result.level_name is None
    assert set(result.charpolys) == {
        "adjacency", "support_u", "support_u2", "support_u3"
    }
    doc = result.to_dict()
    assert doc["distinguished"] is False


# The cospectral connected 4-regular pairs of the distinguish-cospectral
# benchmark workload: like Shrikhande and the 4x4 rook graph, they agree
# through support(U^2) and first separate at support(U^3).
COSPECTRAL_PAIRS = (
    ("I[?i~`KeG", "IH^E_mg`W"),
    ("INQKzA`BW", "IJ_[G~ay?"),
    ("KJ_aGjgb_UQH", "K[l_GdG`_bg["),
)


@pytest.mark.parametrize("pair", COSPECTRAL_PAIRS)
def test_cospectral_pairs_separate_at_support_u3(pair):
    g, h = (parse_graph6(g6) for g6 in pair)
    result = srg_distinguish(g, h)
    assert (result.level, result.level_name) == (3, "support_u3")
    # level 1 is the closed form; check it against the 2m-row charpolys of U+
    for x, strings in zip((g, h), result.charpolys["support_u"]):
        direct = charpoly_exact(operator_matrix(x, "U+"))
        assert charpoly_support_via_adjacency_form(x) == direct
        assert strings == direct.to_strings()


def test_distinguish_graphs_of_different_sizes():
    # 10 against 5 vertices: the adjacency matrices differ in size
    result = srg_distinguish(petersen_graph(), cycle_graph(5))
    assert (result.level, result.level_name) == (0, "adjacency")
    left, right = result.charpolys["adjacency"]
    assert left == charpoly_exact(operator_matrix(petersen_graph(), "A")).to_strings()
    assert right == charpoly_exact(operator_matrix(cycle_graph(5), "A")).to_strings()
    assert (len(left), len(right)) == (11, 6)


def test_distinguish_invariant_under_relabeling():
    base = complete_bipartite_graph(3, 3)
    rng = random.Random(3)
    for _ in range(3):
        perm = list(range(base.n))
        rng.shuffle(perm)
        relabeled = Graph(
            base.n, tuple((perm[u], perm[v]) for u, v in base.edges)
        )
        result = srg_distinguish(base, relabeled)
        assert result.level is None


def test_distinguish_is_symmetric():
    ab = srg_distinguish(complete_graph(4), cycle_graph(4))
    ba = srg_distinguish(cycle_graph(4), complete_graph(4))
    assert ab.level == ba.level == 0
    assert srg_distinguish(cycle_graph(6), complete_bipartite_graph(3, 3)).level == 0


def test_distinguish_hypothesis_errors():
    with pytest.raises(ValueError, match="regular"):
        srg_distinguish(path_graph(3), cycle_graph(4))
    with pytest.raises(ValueError, match="simple"):
        srg_distinguish(triangle_with_doubled_edge(), cycle_graph(3))
    two_triangles = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    with pytest.raises(ValueError, match="connected"):
        srg_distinguish(cycle_graph(6), two_triangles)
