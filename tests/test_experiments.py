import json
import random

import networkx as nx
import pytest

from walkzeta import experiments
from walkzeta.exact import Poly, charpoly_exact
from walkzeta.graphs import Graph, parse_graph6
from walkzeta.graphs import encode_graph6
from walkzeta.identities import charpoly_support_via_adjacency_form, charpoly_u_via_degree_form
from walkzeta.operators import operator_matrix
from walkzeta.zeta import ihara_reciprocal_edge_form
from walkzeta.experiments import (
    ROOK_4X4_G6,
    SHRIKHANDE_G6,
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
    strongly_regular_params,
    triangle_with_doubled_edge,
)


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
    for bad in ("Q5", "K", "Kx", "frobnitz"):
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


def test_srg_pair_graph6_constants():
    assert _edge_set(parse_graph6(SHRIKHANDE_G6)) == _edge_set(shrikhande_graph())
    assert _edge_set(parse_graph6(ROOK_4X4_G6)) == _edge_set(rook_graph_4x4())
    assert encode_graph6(shrikhande_graph()) == SHRIKHANDE_G6
    assert encode_graph6(rook_graph_4x4()) == ROOK_4X4_G6


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
    disconnected = Graph(4, ((0, 1), (2, 3)))
    report = run_identity_suite([CorpusEntry("two_edges", disconnected)], weight_trials=1)
    assert not report.passed
    failed = {c.identity for c in report.failures()}
    assert "zeta_edge_vs_vertex" in failed
    for c in report.failures():
        assert c.witness
    assert "FAIL" in report.to_text()


def test_identity_suite_witness_names_the_first_differing_coefficient(monkeypatch):
    k4 = complete_graph(4)
    right = charpoly_u_via_degree_form(k4)
    # coefficient 2 grows by one
    wrong = Poly.from_ints([c + right.scale * (k == 2) for k, c in enumerate(right.ints)], right.scale)
    monkeypatch.setattr(experiments, "charpoly_u_via_degree_form", lambda g: wrong)
    edge = ihara_reciprocal_edge_form(k4)
    longer = Poly.from_ints(list(edge.ints) + [0, 5], edge.scale)  # equal up to the top, then 5 t^(d+2)
    monkeypatch.setattr(experiments, "ihara_reciprocal_bass_form", lambda g: longer)
    report = run_identity_suite([CorpusEntry("K4", k4)], weight_trials=1, workers=1)
    failed = {c.identity: c.witness for c in report.failures()}
    assert set(failed) == {"u_charpoly_degree_form", "zeta_edge_vs_vertex"}
    a, b = right.to_strings()[2], wrong.to_strings()[2]
    assert a != b and failed["u_charpoly_degree_form"] == f"direct vs closed form, coefficient 2: {a} vs {b}"
    top = edge.degree + 2
    assert failed["zeta_edge_vs_vertex"] == f"edge vs vertex, coefficient {top}: 0 vs 5"


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
