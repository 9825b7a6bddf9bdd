from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import random

from walkzeta import identities
from walkzeta.exact import ExactDivisionError, Matrix, charpoly_exact
from walkzeta.graphs import Graph, parse_graph6
from walkzeta.identities import (
    apply_circle_prefactor,
    charpoly_support2_from_determinant,
    charpoly_support_via_adjacency_form,
    charpoly_u_via_degree_form,
    charpoly_u_via_walk_form,
    circled,
    support_determinant_from_adjacency,
    vertex_determinant,
)
from walkzeta.operators import (
    coin_weights,
    nonbacktracking_matrix,
    operator_matrix,
    positive_support,
    power_support,
    transition_matrix,
)
from walkzeta.zeta import (
    ihara_reciprocal_bass_form,
    ihara_reciprocal_edge_form,
    weighted_zeta_reciprocal,
)
from walkzeta.experiments import (
    builtin_corpus,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    named_graph,
    path_graph,
    triangle_with_doubled_edge,
)

from oracles import FractionPoly, matmul, perm_det
from test_experiments import COSPECTRAL_PAIRS

X = FractionPoly.x()

SAMPLE_GRAPHS = [
    complete_graph(2),
    path_graph(3),
    cycle_graph(3),
    cycle_graph(5),
    complete_graph(4),
    complete_bipartite_graph(2, 3),
    triangle_with_doubled_edge(),
    Graph(2, ((0, 1), (0, 1))),
]


def _charpoly_u_direct(g):
    return charpoly_exact(transition_matrix(g))


def test_apply_circle_prefactor():
    p = X**4 - 1
    assert apply_circle_prefactor(p, 0) == p
    assert apply_circle_prefactor(p, 2) == p * (X**2 - 1) ** 2
    assert apply_circle_prefactor(p * (X**2 - 1), -1) == p
    # tree closed form: degree-6 walk determinant divided by one circle factor
    assert apply_circle_prefactor((X - 1) ** 2 * (X + 1) ** 2 * (X**2 + 1), -1) == X**4 - 1
    with pytest.raises(ExactDivisionError) as err:
        apply_circle_prefactor(X**3 + 1, -1)
    assert err.value.remainder == (X**3 + 1).divmod(X**2 - 1)[1] == X + 1
    sixth = Fraction(1, 6) * (X**5 + 3 * X + 2)
    with pytest.raises(ExactDivisionError) as err:
        apply_circle_prefactor(sixth, -2)
    assert err.value.remainder == sixth.divmod((X**2 - 1) ** 2)[1]
    half = FractionPoly.constant(Fraction(1, 2))
    assert apply_circle_prefactor(half, 0) == half
    assert apply_circle_prefactor(half, 3) == half * (X**2 - 1) ** 3
    assert apply_circle_prefactor(half * (X**2 - 1) ** 2, -2) == half
    with pytest.raises(ExactDivisionError) as err:
        apply_circle_prefactor(half, -1)
    assert err.value.remainder == half
    with pytest.raises(ExactDivisionError) as err:
        apply_circle_prefactor((X**2 - 1) * (X + 1), -2)
    assert err.value.remainder == (X**2 - 1) * (X + 1)
    assert apply_circle_prefactor(FractionPoly.zero(), -2) == FractionPoly.zero()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=12), st.integers(1, 30), st.integers(1, 4))
@example([], 1, 4)  # the zero polynomial
@example([3, 0, 1], 6, 2)  # a nonzero dividend of degree below 2k
def test_circle_division_matches_fraction_division(ints, scale, k):
    p, circle = FractionPoly.from_ints(ints, scale), (X**2 - 1) ** k
    assert apply_circle_prefactor(p * circle, -k) == p
    quotient, remainder = p.divmod(circle)
    if remainder.is_zero():
        assert apply_circle_prefactor(p, -k) == quotient
    else:
        with pytest.raises(ExactDivisionError) as err:
            apply_circle_prefactor(p, -k)
        assert err.value.remainder == remainder


def _lifted_charpoly(a, c):
    """char of the linearisation of Matrix a and diagonal c, lifted to integer rows over one scale."""
    lifted = Matrix([*a.data, c])
    return charpoly_exact(identities._linearisation(lifted.ints[:-1], lifted.ints[-1], lifted.scale))


def _check_linearisation(a, c):
    n = a.rows
    p = FractionPoly.of(_lifted_charpoly(a, c))
    assert p.degree == 2 * n and p.ints[-1] == p.scale
    for x in range(-n, n + 1):
        x = Fraction(x)
        direct = Matrix(
            [[(x * x + c[i] if i == j else 0) - x * a[i, j] for j in range(n)] for i in range(n)]
        )
        assert p(x) == perm_det(direct)


def _rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def test_linearised_charpoly_matches_permutation_expansion():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(1, 5)
        if rng.random() < 0.5:
            a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            c = [rng.randint(-3, 3) for _ in range(n)]
        else:
            a = Matrix([[_rand_fraction(rng) for _ in range(n)] for _ in range(n)])
            c = [_rand_fraction(rng) for _ in range(n)]
        _check_linearisation(a, c)


def test_linearised_charpoly_degenerate_cases():
    for n in (1, 3, 5):
        # A = 0, c = 0: a root of multiplicity 2n at zero
        assert _lifted_charpoly(Matrix([[0] * n] * n), [0] * n) == X ** (2 * n)
        # A = J: eigenvalue 0 repeated n - 1 times
        ones = Matrix([[1] * n for _ in range(n)])
        _check_linearisation(ones, [Fraction(k, 2) for k in range(n)])
    singular = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    _check_linearisation(singular, [0, 1, Fraction(-1, 3)])
    _check_linearisation(singular, [0, 0, 0])
    assert charpoly_exact(identities._linearisation([], [], 1)) == FractionPoly.one()


def test_path3_tree_division():
    # U on the 3-path is a single 4-cycle permutation of the arcs
    assert _charpoly_u_direct(path_graph(3)) == X**4 - 1
    assert charpoly_u_via_walk_form(path_graph(3)) == X**4 - 1
    assert charpoly_u_via_degree_form(path_graph(3)) == X**4 - 1
    g = path_graph(3)
    assert g.m - g.n == -1
    assert vertex_determinant(g, coin_weights(g)) == (X**4 - 1) * (X**2 - 1)


def test_k4_factored_shape():
    g = complete_graph(4)
    det = vertex_determinant(g, coin_weights(g))
    assert g.m - g.n == 2
    assert det.degree == 8
    assert apply_circle_prefactor(det, 2) == _charpoly_u_direct(g)


@pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_walk_form_matches_direct_charpoly(g):
    assert charpoly_u_via_walk_form(g) == _charpoly_u_direct(g)


@pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_degree_form_matches_direct_charpoly(g):
    assert charpoly_u_via_degree_form(g) == _charpoly_u_direct(g)


def test_degree_form_rejects_isolated_vertex():
    with pytest.raises(ValueError):
        charpoly_u_via_degree_form(Graph(3, ((0, 1),)))


def test_support_form_c3_fixture():
    # the non-backtracking matrix of a 3-cycle is two disjoint 3-cycles
    assert charpoly_support_via_adjacency_form(cycle_graph(3)) == (X**3 - 1) ** 2


@pytest.mark.parametrize(
    "g",
    [cycle_graph(3), complete_graph(4), cycle_graph(6),
     complete_bipartite_graph(2, 3), triangle_with_doubled_edge()],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_support_form_matches_direct_charpoly(g):
    direct = charpoly_exact(nonbacktracking_matrix(g))
    assert charpoly_support_via_adjacency_form(g) == direct
    # and the support of U-transpose is that same matrix on these graphs
    sup = positive_support(transition_matrix(g).transpose())
    assert charpoly_exact(sup) == direct


def test_support_form_requires_min_degree_two():
    with pytest.raises(ValueError):
        charpoly_support_via_adjacency_form(path_graph(3))


TWO_REGULAR_GRAPHS = [
    *(pytest.param(cycle_graph(n), id=f"C{n}") for n in range(3, 13)),
    pytest.param(Graph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3))), id="C3+C4"),
]
SUPPORT2_GRAPHS = [
    *(pytest.param(e.graph, id=e.name) for e in builtin_corpus() if e.graph.simple and min(e.graph.degrees) >= 3),
    *(pytest.param(parse_graph6(g6), id=g6) for pair in COSPECTRAL_PAIRS for g6 in pair),
    *(pytest.param(named_graph(name), id=name) for name in ("shrikhande", "rook44")),
    *TWO_REGULAR_GRAPHS,
]


@pytest.mark.parametrize("g", SUPPORT2_GRAPHS)
def test_support2_form_matches_direct_charpoly(g):
    h = vertex_determinant(g, [1] * (2 * g.m))
    assert charpoly_support2_from_determinant(g, h) == charpoly_exact(operator_matrix(g, "U2+"))


def test_support2_form_shrikhande_and_rook_value():
    # a function of the spectrum 6, 2^6, (-2)^9 of both graphs
    expected = (X - 2) ** 64 * (X**2 - 28 * X + 52) * (X**2 + 4 * X + 20) ** 15
    for name in ("shrikhande", "rook44"):
        g = named_graph(name)
        assert charpoly_support2_from_determinant(g, vertex_determinant(g, [1] * (2 * g.m))) == expected, name


@st.composite
def simple_graphs_min_degree_3(draw):
    """A simple graph on 4-9 vertices, regular or not: a random edge set, then
    each vertex of degree below 3 joined to its first other vertices until
    it reaches 3."""
    n = draw(st.integers(4, 9))
    edges = draw(st.sets(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)])))
    for u in range(n):
        others = (v for v in range(n) if v != u)
        while sum(u in e for e in edges) < 3:
            v = next(others)
            edges.add((min(u, v), max(u, v)))
    return Graph(n, tuple(sorted(edges)))


@settings(max_examples=40, deadline=None)
@given(simple_graphs_min_degree_3())
def test_support2_form_on_random_graphs_of_min_degree_3(g):
    assert min(g.degrees) >= 3
    h = vertex_determinant(g, [1] * (2 * g.m))
    assert charpoly_support2_from_determinant(g, h) == charpoly_exact(operator_matrix(g, "U2+"))


def _support_squared(g, shift):
    """P P + shift I for P the support of U."""
    p = power_support(transition_matrix(g), 1)
    square = matmul(p, p)
    return Matrix.from_ints([[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(square.ints)])


@settings(max_examples=40, deadline=None)
@given(simple_graphs_min_degree_3())
def test_support_of_u2_is_support_squared_plus_identity(g):
    assert power_support(transition_matrix(g), 2) == _support_squared(g, 1)


@pytest.mark.parametrize("g", TWO_REGULAR_GRAPHS)
def test_support_of_u2_is_support_squared_on_2_regular_graphs(g):
    assert power_support(transition_matrix(g), 2) == _support_squared(g, 0)


K4_MINUS_EDGE = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))


@pytest.mark.parametrize("g", [K4_MINUS_EDGE, triangle_with_doubled_edge()], ids=["K4_minus_edge", "triangle_double_edge"])
def test_support2_form_requires_simple_min_degree_three(g):
    # irregular of minimum degree 2, and a multigraph: neither 2-regular nor of minimum degree 3
    with pytest.raises(ValueError):
        charpoly_support2_from_determinant(g, vertex_determinant(g, [1] * (2 * g.m)))


def _random_regular_graphs():
    """Seeded networkx k-regular graphs, k = 2-5, on k + 1 to 12 vertices, connected or not."""
    for k in range(2, 6):
        for n in range(k + 1, 13):
            if n * k % 2 == 0:
                g = nx.random_regular_graph(k, n, seed=1000 * k + n)
                yield pytest.param(Graph(n, tuple(sorted(tuple(sorted(e)) for e in g.edges))), id=f"k{k}n{n}")


@pytest.mark.parametrize("g", _random_regular_graphs())
def test_support_from_adjacency_matches_dense_charpoly(g):
    # composed from char(A) with no kernel call, against the 2n-row
    # linearisation and, circled, the dense 2m-row charpoly of U+
    h = support_determinant_from_adjacency(g, charpoly_exact(operator_matrix(g, "A")))
    assert h == vertex_determinant(g, [1] * (2 * g.m))
    assert circled(g, h) == charpoly_exact(operator_matrix(g, "U+"))


@pytest.mark.parametrize("g", _random_regular_graphs())
def test_support2_from_adjacency_matches_dense_charpoly(g):
    # level 2 as srg_distinguish takes it, from the determinant composed from char(A)
    h = support_determinant_from_adjacency(g, charpoly_exact(operator_matrix(g, "A")))
    assert charpoly_support2_from_determinant(g, h) == charpoly_exact(operator_matrix(g, "U2+"))


@pytest.mark.parametrize("g", [K4_MINUS_EDGE, complete_bipartite_graph(2, 3), path_graph(4), complete_graph(2)],
                         ids=["K4_minus_edge", "K2_3", "P4", "K2"])
def test_support_from_adjacency_requires_regular_degree_two(g):
    with pytest.raises(ValueError):
        support_determinant_from_adjacency(g, charpoly_exact(operator_matrix(g, "A")))


def test_support_determinant_degree():
    # the vertex side at unit weights, det(x^2 I - xA + D - I)
    g = complete_graph(4)
    assert vertex_determinant(g, [1] * (2 * g.m)).degree == 2 * g.n


@pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_bass_identity_holds_on_samples(g):
    edge = ihara_reciprocal_edge_form(g)
    assert ihara_reciprocal_bass_form(g) == edge


@st.composite
def weighted_multigraphs(draw):
    """A multigraph on 1-7 vertices, possibly disconnected, a forest or with
    isolated vertices, and one nonzero rational weight per arc."""
    n = draw(st.integers(1, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(pair, max_size=10)) if n > 1 else []
    weight = st.fractions(-9, 9, max_denominator=9).filter(bool)
    weights = draw(st.lists(weight, min_size=2 * len(edges), max_size=2 * len(edges)))
    return Graph(n, tuple(edges)), weights


@settings(max_examples=100, deadline=None)
@given(weighted_multigraphs())
def test_vertex_side_equals_edge_side_on_random_multigraphs(drawn):
    # the weighted identity holds on every graph once W sums parallel arcs
    g, weights = drawn
    forms = weighted_zeta_reciprocal(g, weights)
    assert forms.bass_form == forms.edge_form
    if min(g.degrees) >= 1:
        direct = _charpoly_u_direct(g)
        assert charpoly_u_via_walk_form(g) == direct
        assert charpoly_u_via_degree_form(g) == direct
