import pickle
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings

from walkzeta.graphs import (
    Graph,
    GraphFormatError,
    SizeGuardError,
    adjacency_matrix,
    parse_edge_list,
    parse_graph6,
)
from walkzeta.experiments import (
    builtin_corpus,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    triangle_with_doubled_edge,
)

from oracles import relabelled_multigraphs


def _edge_set(g):
    return {frozenset(e) for e in g.edges}


def test_graph_invariants():
    g = Graph(3, ((0, 1), (1, 2)))
    assert g.n == 3 and g.m == 2
    with pytest.raises(GraphFormatError):
        Graph(2, ((0, 0),))
    with pytest.raises(GraphFormatError):
        Graph(2, ((0, 2),))
    with pytest.raises(GraphFormatError):
        Graph(0, ())


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1")
    assert g.n == 2 and g.edges == ((0, 1),)
    g = parse_edge_list("0 1\n1 2\n2 0")
    assert g.n == 3 and g.m == 3


def test_parse_edge_list_declared_count_and_comments():
    text = "# a triangle plus an isolated vertex\nn 4\n0 1\n1 2  # back\n\n2 0\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.m == 3
    assert g.degrees == (2, 2, 2, 0)


def test_parse_edge_list_multigraph():
    g = parse_edge_list("0 1\n0 1")
    assert g.m == 2 and not g.simple


def test_parse_edge_list_errors():
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 0")  # loop
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 a")
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 1 2")
    with pytest.raises(GraphFormatError):
        parse_edge_list("-1 2")
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 2\n0 5")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 0")
    for text in ("n", "n 2 3", "n x"):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list(text)


def test_parse_graph6_fixtures():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and _edge_set(k4) == _edge_set(complete_graph(4))
    p3 = parse_graph6("Bg")
    assert p3.n == 3 and p3.edges == ((0, 1), (1, 2))
    k1 = parse_graph6("@")
    assert k1.n == 1 and k1.m == 0
    # optional format header is accepted
    assert parse_graph6(">>graph6<<C~").n == 4


def test_parse_graph6_errors():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6("C~~")  # extra byte
    with pytest.raises(GraphFormatError):
        parse_graph6("C")  # missing bit bytes
    with pytest.raises(GraphFormatError):
        parse_graph6("B" + chr(30))  # byte below the graph6 range
    with pytest.raises(GraphFormatError):
        parse_graph6("Bx")  # nonzero padding: triangle needs only 3 bits
    with pytest.raises(GraphFormatError):
        parse_graph6("?")  # zero-vertex graph
    for text in ("~", "~?", "~??", "~~?????"):  # 4- and 8-byte size fields cut short
        with pytest.raises(GraphFormatError, match="truncated graph6 size field"):
            parse_graph6(text)


def test_parse_graph6_guards_size_before_decoding():
    # '~' and an 18-bit size field for n = 2049, with no body: the size
    # guard speaks before the body's length is checked
    with pytest.raises(SizeGuardError, match="graph needs 4098 matrix rows"):
        parse_graph6("~?_@")
    # '~~' and a 36-bit size field for n = 10^6
    n = 10**6
    field = "~~" + "".join(chr(63 + (n >> shift & 63)) for shift in range(30, -1, -6))
    with pytest.raises(SizeGuardError, match="graph needs 2000000 matrix rows"):
        parse_graph6(field)


def test_parse_graph6_triangle():
    # triangle on 3 vertices: bits 111 + 000 padding -> 56 + 63
    g = parse_graph6("B" + chr(63 + 0b111000))
    assert _edge_set(g) == _edge_set(cycle_graph(3))


def test_parse_graph6_reads_networkx_encoding_of_corpus():
    # from 63 vertices on, graph6 writes n in 18 bits after a leading '~';
    # C2048 is the largest cycle the size guard admits
    graphs = [(entry.name, entry.graph) for entry in builtin_corpus()]
    for name, g in graphs + [(f"C{n}", cycle_graph(n)) for n in (63, 64, 2048)]:
        if not g.simple:
            continue
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        back = parse_graph6(nx.to_graph6_bytes(h, header=False).decode())
        assert back.n == g.n and _edge_set(back) == _edge_set(g), name


def test_connected_and_simple_fixtures():
    k2 = complete_graph(2)
    assert k2.connected and k2.simple and min(k2.degrees) == 1
    c3 = cycle_graph(3)
    assert c3.connected and c3.simple and min(c3.degrees) == 2
    dt = triangle_with_doubled_edge()
    assert dt.connected and not dt.simple and min(dt.degrees) == 2
    assert not Graph(4, ((0, 1), (2, 3))).connected
    assert Graph(1, ()).connected and Graph(1, ()).simple


def test_arcs_fixtures():
    k2 = complete_graph(2)
    assert k2.arcs == ((0, 1), (1, 0))
    assert k2.inverse_arc(0) == 1 and k2.inverse_arc(1) == 0
    c3 = cycle_graph(3)
    assert len(c3.arcs) == 6
    assert all(c3.inverse_arc(i) == i + 3 for i in range(3))
    arcs = path_graph(3).arcs
    assert [arcs[a][0] for a in range(4)] == [0, 1, 1, 2]
    assert [arcs[a][1] for a in range(4)] == [1, 2, 0, 1]


def test_arc_involution_over_corpus():
    for entry in builtin_corpus()[:12]:
        g = entry.graph
        assert len(g.arcs) == 2 * g.m
        for a in range(len(g.arcs)):
            inv = g.inverse_arc(a)
            assert g.inverse_arc(inv) == a
            assert g.arcs[inv] == g.arcs[a][::-1]


def test_vertex_matrices():
    k2 = complete_graph(2)
    assert adjacency_matrix(k2).data == [[0, 1], [1, 0]]
    c3 = cycle_graph(3)
    assert adjacency_matrix(c3).data == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    dt = triangle_with_doubled_edge()
    assert adjacency_matrix(dt)[0, 1] == 2
    assert dt.degrees == (3, 3, 2)


def test_degrees():
    assert petersen_graph().degrees == (3,) * 10
    assert path_graph(4).degrees == (1, 2, 2, 1)
    # handshake: degree sum is twice the edge count
    for entry in builtin_corpus()[:20]:
        assert sum(entry.graph.degrees) == 2 * entry.graph.m


@settings(max_examples=100, deadline=None)
@given(relabelled_multigraphs())
def test_graph_facts_match_networkx(graphs):
    g, h = graphs
    union = Graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))
    for graph in (g, h, union):
        ref = nx.MultiGraph()
        ref.add_nodes_from(range(graph.n))
        ref.add_edges_from(graph.edges)
        assert graph.degrees == tuple(d for _, d in sorted(ref.degree))
        assert graph.connected == nx.is_connected(ref)
        assert graph.simple == (nx.Graph(ref).number_of_edges() == ref.number_of_edges())
        # the arcs are the edges taken both ways; arc a + m is the inverse of arc a
        arcs, m = graph.arcs, graph.m
        assert Counter(arcs) == Counter(nx.MultiDiGraph(ref).edges())
        assert arcs[:m] == graph.edges
        for a in range(2 * m):
            assert graph.inverse_arc(a) == (a + m) % (2 * m)
            assert arcs[graph.inverse_arc(a)] == arcs[a][::-1]


def test_graph_with_read_facts_is_interchangeable_with_a_fresh_one():
    # the process pool pickles corpus graphs, so cached facts must not ride along
    for g in (petersen_graph(), triangle_with_doubled_edge(), Graph(4, ((0, 1), (2, 3)))):
        used = Graph(g.n, g.edges)
        facts = (used.arcs, used.degrees, used.connected, used.simple)
        assert used.arcs is facts[0]  # computed once
        fresh = Graph(g.n, g.edges)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(used))
        assert vars(back) == {"n": g.n, "edges": g.edges}
        assert back == fresh and (back.arcs, back.degrees, back.connected, back.simple) == facts
