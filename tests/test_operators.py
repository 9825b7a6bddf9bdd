import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

from walkzeta import exact, experiments
from walkzeta.exact import Matrix, Poly, charpoly_exact
from walkzeta.graphs import Graph, adjacency_matrix, parse_graph6
from walkzeta.identities import _linearisation, vertex_determinant, vertex_matrix
from walkzeta.operators import (
    TARGETS,
    arc_operator,
    coin_weights,
    nonbacktracking_matrix,
    operator_matrix,
    positive_support,
    power_support,
    random_walk_matrix,
    transition_matrix,
)
from walkzeta.spectra import real_roots
from walkzeta.zeta import ihara_reciprocal_edge_form, weighted_zeta_reciprocal
from walkzeta.experiments import (
    builtin_corpus,
    complete_graph,
    cycle_graph,
    named_graph,
    path_graph,
    petersen_graph,
    rook_graph_4x4,
    shrikhande_graph,
    srg_distinguish,
    triangle_with_doubled_edge,
)

from oracles import matmul, nonbacktracking_by_definition, transition_matrix_by_definition
from oracles import relabelled_multigraphs, support_u3_by_sign_rule
from test_experiments import COSPECTRAL_PAIRS


def test_transition_matrix_k2():
    u = transition_matrix(complete_graph(2))
    assert u.data == [[0, 1], [1, 0]]


def test_transition_matrix_c3():
    g = cycle_graph(3)
    u = transition_matrix(g)
    arcs = g.arcs
    # degree-2 vertices: coin entries are 0 on the inverse, 1 on the other
    for e in range(6):
        for f in range(6):
            if arcs[f][1] != arcs[e][0]:
                assert u[e, f] == 0
            elif f == g.inverse_arc(e):
                assert u[e, f] == 0
            else:
                assert u[e, f] == 1
    assert all(sum(row) == 1 for row in u.data)


def test_transition_matrix_k4():
    k4 = complete_graph(4)
    u, arcs = transition_matrix(k4), k4.arcs
    for e in range(12):
        for f in range(12):
            if arcs[f][1] != arcs[e][0]:
                assert u[e, f] == 0
            elif f == k4.inverse_arc(e):
                assert u[e, f] == Fraction(-1, 3)
            else:
                assert u[e, f] == Fraction(2, 3)


def test_transition_matrix_multigraph():
    # doubled edge contributes two incoming arcs with the same coin weight
    u = transition_matrix(triangle_with_doubled_edge())
    assert all(sum(row) == 1 for row in u.data)


def test_transition_matrix_isolated_vertex():
    with pytest.raises(ValueError):
        transition_matrix(Graph(2, ()))


def test_orthogonality_samples():
    for g in (complete_graph(4), cycle_graph(5), path_graph(4),
              triangle_with_doubled_edge()):
        u = transition_matrix(g)
        identity = Matrix([[int(i == j) for j in range(2 * g.m)] for i in range(2 * g.m)])
        assert matmul(u.transpose(), u) == identity


def test_positive_support():
    assert positive_support(Matrix([[Fraction(1, 2), -1], [0, 2]])).data == [[1, 0], [0, 1]]
    assert positive_support(Matrix([[0, 0], [0, 0]])) == Matrix([[0, 0], [0, 0]])


def test_operators_match_definitions_on_corpus():
    corpus = builtin_corpus()
    assert any(not entry.graph.simple for entry in corpus)
    for entry in corpus:
        g = entry.graph
        assert transition_matrix(g) == transition_matrix_by_definition(g), entry.name
        assert nonbacktracking_matrix(g) == nonbacktracking_by_definition(g), entry.name


def test_arc_matrices_k2():
    # on K2 each arc feeds only its inverse, so B = J0 and B - J0 vanishes
    k2 = complete_graph(2)
    assert nonbacktracking_by_definition(k2) == Matrix([[0, 0], [0, 0]])
    assert nonbacktracking_matrix(k2) == arc_operator(k2, [1, 1]) == Matrix([[0, 0], [0, 0]])


def test_arc_matrices_row_sums():
    # each arc has deg(terminus) - 1 non-backtracking successors
    for g in (cycle_graph(3), complete_graph(4), triangle_with_doubled_edge()):
        nb = nonbacktracking_matrix(g)
        for e in range(2 * g.m):
            assert sum(nb.data[e]) == g.degrees[g.arcs[e][1]] - 1


def test_support_identity():
    for g in (cycle_graph(3), complete_graph(4)):
        assert positive_support(transition_matrix(g).transpose()) == nonbacktracking_matrix(g)


def test_weighted_edge_matrix_unit_weights():
    # unit W gives B_w - J0 = B - J0, so the weighted edge form is 1/zeta
    for g in (cycle_graph(3), complete_graph(4), path_graph(4), triangle_with_doubled_edge()):
        edge = weighted_zeta_reciprocal(g, [1] * (2 * g.m)).edge_form
        assert edge == ihara_reciprocal_edge_form(g)


def test_weighted_edge_matrix_k2():
    k2 = complete_graph(2)
    # the only transitions are onto the respective inverse arcs, which pay 1
    assert arc_operator(k2, [5, 7]) == Matrix([[0, 6], [4, 0]])
    with pytest.raises(ValueError):
        arc_operator(k2, [5])


def test_weighted_zeta_rejects_wrong_weight_count():
    p3 = path_graph(3)  # 4 arcs
    for count in (0, 3, 5):
        with pytest.raises(ValueError):
            weighted_zeta_reciprocal(p3, [1] * count)
        with pytest.raises(ValueError):
            vertex_determinant(p3, [1] * count)


def test_coin_weights_recover_transition_matrix():
    # U = transpose(B_w - J0) when the weights are the coin weights 2/deg(o(f))
    for g in (cycle_graph(4), complete_graph(4), triangle_with_doubled_edge()):
        assert coin_weights(g) == [Fraction(2, g.degrees[o]) for o, _ in g.arcs]
        assert arc_operator(g, coin_weights(g)).transpose() == transition_matrix_by_definition(g)
    with pytest.raises(ValueError):
        coin_weights(Graph(3, ((0, 1),)))  # vertex 2 has no arc


def test_coin_weights_are_doubled_walk_matrix():
    # summed over the arcs u -> v the coin weights give W = 2T and D_w = 2I,
    # parallel edges included, and both weighted forms are det(I - tU)
    for g in (cycle_graph(5), complete_graph(3), path_graph(4), triangle_with_doubled_edge()):
        t = random_walk_matrix(g)
        doubled = _linearisation([[2 * x for x in row] for row in t.ints], [t.scale] * g.n, t.scale)
        assert vertex_matrix(g, coin_weights(g)) == doubled
        assert vertex_determinant(g, coin_weights(g)) == charpoly_exact(doubled)
        forms = weighted_zeta_reciprocal(g, coin_weights(g))
        det_u = charpoly_exact(transition_matrix(g)).reversed()
        assert forms.edge_form == forms.bass_form == det_u


def test_random_walk_matrix_fixtures():
    assert random_walk_matrix(complete_graph(2)).data == [[0, 1], [1, 0]]
    half = Fraction(1, 2)
    assert random_walk_matrix(path_graph(3)).data == [
        [0, 1, 0],
        [half, 0, half],
        [0, 1, 0],
    ]
    t = random_walk_matrix(cycle_graph(3))
    assert all(t[i, j] == (0 if i == j else half) for i in range(3) for j in range(3))
    # multigraph: parallel edges count in the numerator
    t = random_walk_matrix(triangle_with_doubled_edge())
    assert t.data[0] == [0, Fraction(2, 3), Fraction(1, 3)]


def test_random_walk_matrix_is_inverse_degree_times_adjacency():
    corpus = builtin_corpus()
    assert any(not entry.graph.simple for entry in corpus)
    for entry in corpus:
        g = entry.graph
        dinv = Matrix([[Fraction(1, d) if i == j else 0 for j in range(g.n)] for i, d in enumerate(g.degrees)])
        assert random_walk_matrix(g) == matmul(dinv, adjacency_matrix(g)), entry.name


def test_random_walk_rows_sum_to_one():
    for entry in builtin_corpus()[:15]:
        assert [sum(row) for row in random_walk_matrix(entry.graph).data] == [1] * entry.graph.n


def test_random_walk_spectrum_in_unit_interval():
    for g in (complete_graph(5), path_graph(5), triangle_with_doubled_edge()):
        eigs = real_roots(charpoly_exact(random_walk_matrix(g)))
        assert all(-1 - 1e-8 <= lam <= 1 + 1e-8 for lam in eigs)
        assert max(eigs) == pytest.approx(1.0, abs=1e-8)


def test_power_support_fixtures():
    k2 = complete_graph(2)
    u = transition_matrix(k2)
    # U(K_2)^2 = I
    assert power_support(u, 2) == Matrix([[1, 0], [0, 1]])
    assert power_support(u, 1) == positive_support(u)
    with pytest.raises(ValueError):
        power_support(u, 4)
    for k in (1, 2, 3):
        assert power_support(Matrix([]), k) == Matrix([])


def test_power_support_k4_row_sums_equal():
    u = transition_matrix(complete_graph(4))
    sums = {sum(row) for row in power_support(u, 3).data}
    assert len(sums) == 1  # vertex-transitive graph


def _multigraph_with_degrees(degrees):
    """A loopless multigraph with this degree sequence: join the two largest, repeat."""
    left, edges = list(degrees), []
    while any(left):
        a, b = sorted(range(len(left)), key=lambda v: -left[v])[:2]
        edges.append((a, b))
        left[a] -= 1
        left[b] -= 1
    return Graph(len(degrees), tuple(edges))


def test_power_support_matches_rational_power():
    # C4 and Petersen: the lifted U^3 fits int64.  Degrees 5..17: 70 arcs and
    # lift scale 4 * 9 * 5 * 7 * 11 * 13 * 17 = 3063060, so some entries of
    # the lifted U^3 need 65 bits and int64 would wrap.
    irregular = _multigraph_with_degrees((5, 7, 8, 9, 11, 13, 17))
    for g, fits in ((cycle_graph(4), True), (petersen_graph(), True), (irregular, False)):
        u = transition_matrix(g)
        top = max(abs(x) for row in u.ints for x in row)
        assert (top**3 * u.rows**2 < 2**63) == fits
        square = matmul(u, u)
        assert power_support(u, 2) == positive_support(square)
        assert power_support(u, 3) == positive_support(matmul(square, u))


def test_power_support_falls_back_to_ints_past_float_exactness():
    # (L^2)[0][0] = 2^60 + 1 - 2^60 = 1, which float64 summed in order rounds
    # to 0; max|L|^2 * 3 passes 2^53, so the product runs in Python ints
    a = 2**30
    m = Matrix.from_ints([[a, 1, -a], [1, 1, 0], [a, 0, 0]])
    assert power_support(m, 2).ints[0][0] == 1
    assert power_support(m, 2) == positive_support(matmul(m, m))


def test_power_support_takes_python_ints_past_int64():
    # entries of 2^63 and 2^1024 pass int64, and 2^1024 the double range too
    for big in (2**63, 2**1024):
        m = Matrix.from_ints([[big, -1, 0], [1, 0, -big], [-3, big, 1]])
        square = matmul(m, m)
        assert power_support(m, 2) == positive_support(square)
        assert power_support(m, 3) == positive_support(matmul(square, m))
    # -2^63 fits int64 but its modulus does not (abs wraps in int64): read
    # as 2^63, so the square runs in Python ints, while float64 summed in
    # order rounds (L^2)[0][2] = -2^63 + 1 + 2^63 to 0
    a = 2**63
    m = Matrix.from_ints([[0, -a, 0, 1, -a], [0, 0, 1, 0, 0], [0] * 5, [0, 0, 1, 0, 0], [0, 0, -1, 0, 0]])
    assert power_support(m, 2).ints[0][2] == 1
    assert power_support(m, 2) == positive_support(matmul(m, m))


def test_arc_operator_is_canonical_as_built():
    # arc_operator takes no gcd pass, so reducing its pair again must change
    # nothing: degree-1 vertices, parallel edges, zero weights and a weight
    # lcm above 2^63
    rng = random.Random(36)
    primes = (999983, 1000003, 1000033, 1000037, 1000039)
    graphs = [path_graph(4), triangle_with_doubled_edge(), Graph(3, ((0, 1), (0, 1), (1, 2))),
              Graph(2, ((0, 1), (0, 1))), named_graph("K2_3"), petersen_graph()]
    for g in graphs:
        arcs = 2 * g.m
        trials = [
            [0] * arcs,
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(arcs)],
            [Fraction(rng.choice((0, 1, -4, 6)), rng.choice((2, 4, 6))) for _ in range(arcs)],
            [Fraction(rng.randint(-9, 9) or 1, p) for p in (primes * arcs)[:arcs]],
        ]
        assert lcm(*(w.denominator for w in trials[-1])) > 2**63
        for weights in trials:
            op = arc_operator(g, weights)
            assert Matrix.from_ints(op.ints, op.scale) == op
            assert op == Matrix([[op[e, f] for f in range(arcs)] for e in range(arcs)])


@pytest.mark.parametrize(
    "g",
    [
        *(pytest.param(named_graph(name), id=name) for name in ("shrikhande", "rook44", "petersen", "K5", "K3_3")),
        *(pytest.param(parse_graph6(g6), id=g6) for pair in COSPECTRAL_PAIRS for g6 in pair),
    ],
)
def test_power_support_u3_matches_sign_rule(g):
    assert power_support(transition_matrix(g), 3) == support_u3_by_sign_rule(g).transpose()


def test_operator_matrix_table_and_distinguish_levels(monkeypatch):
    for g in (complete_graph(4), cycle_graph(5), petersen_graph(), triangle_with_doubled_edge()):
        u = transition_matrix(g)
        definitions = {
            "U": u,
            "U+": power_support(u, 1),
            "U2+": power_support(u, 2),
            "U3+": power_support(u, 3),
            "A": adjacency_matrix(g),
            "T": random_walk_matrix(g),
            "B-J0": nonbacktracking_matrix(g),
        }
        assert tuple(definitions) == TARGETS
        for target, matrix in definitions.items():
            assert operator_matrix(g, target) == matrix, target
    with pytest.raises(ValueError):
        operator_matrix(complete_graph(4), "U4+")

    # Levels 0 and 3 are one charpolys_exact call on both graphs'
    # operator_matrix results.  Levels 1 and 2 are composed from level 0's
    # pair, through each graph's support determinant, with no kernel call.
    # Record every batch the kernel is fed, from srg_distinguish and through
    # charpoly_exact alike.
    fed = []
    batched = exact.charpolys_exact

    def recording_charpolys(matrices):
        fed.append((matrices, batched(matrices)))
        return fed[-1][1]

    monkeypatch.setattr(experiments, "charpolys_exact", recording_charpolys)
    monkeypatch.setattr(exact, "charpolys_exact", recording_charpolys)
    g, h = shrikhande_graph(), rook_graph_4x4()
    result = srg_distinguish(g, h)
    monkeypatch.undo()
    assert result.level_name == "support_u3"
    assert [[m.rows for m in matrices] for matrices, _ in fed] == [[16, 16], [96, 96]]
    levels = dict(experiments.DISTINGUISH_LEVELS)
    for name, (matrices, polys) in zip(("adjacency", "support_u3"), fed):
        assert matrices == [operator_matrix(g, levels[name]), operator_matrix(h, levels[name])], name
        assert result.charpolys[name] == tuple(p.to_strings() for p in polys), name
    # the closed forms at levels 1 and 2 against the 96-row charpolys of U+ and U2+
    for name in ("support_u", "support_u2"):
        direct = tuple(charpoly_exact(operator_matrix(x, levels[name])).to_strings() for x in (g, h))
        assert result.charpolys[name] == direct, name


@settings(max_examples=50, deadline=None)
@given(relabelled_multigraphs(min_n=2, max_n=8, max_edges=12))
def test_target_charpolys_invariant_under_relabelling(graphs):
    # relabelling conjugates each target by a permutation; 12 edges reach Hessenberg
    for target in TARGETS:
        g, h = (charpoly_exact(operator_matrix(graph, target)) for graph in graphs)
        assert g == h, target
