import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walkzeta.exact import Matrix, Poly, charpoly_exact
from walkzeta.graphs import Graph, SizeGuardError
from walkzeta.operators import (
    arc_operator,
    coin_weights,
    nonbacktracking_matrix,
    random_walk_matrix,
    transition_matrix,
)
from walkzeta.zeta import (
    MAX_ORACLE_ARCS,
    euler_product_oracle,
    ihara_reciprocal_bass_form,
    ihara_reciprocal_edge_form,
    prime_cycle_classes,
    series_inverse,
    weighted_zeta_reciprocal,
)
from walkzeta.experiments import (
    builtin_corpus,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_arc_weights,
    triangle_with_doubled_edge,
)

from oracles import FractionPoly, matmul, nonbacktracking_by_definition, perm_det, trace
from oracles import reduced_cycle_classes_bruteforce, relabelled_multigraphs
from oracles import series_inverse_by_fractions

T = FractionPoly.x()


def _series_log(series):
    """log of a series with constant term 1, given and returned as its
    coefficients 0..order: the integral of f'/f."""
    if series[0] != 1:
        raise ValueError("log needs constant term 1")
    order = len(series) - 1
    inverse = series_inverse(Poly(series), order)
    deriv = [k * c for k, c in enumerate(series)][1:]
    quotient = [sum(deriv[i] * inverse[k - i] for i in range(k + 1)) for k in range(order)]
    return [Fraction(0)] + [q / (k + 1) for k, q in enumerate(quotient)]


def test_power_series_arithmetic():
    assert series_inverse(1 - T, 6) == [1] * 7
    half = Fraction(1, 2)
    assert series_inverse(2 - 2 * T**2, 4) == [half, 0, half, 0, half]
    assert series_inverse(1 + T, 0) == [1]
    assert series_inverse(1 - T + T**9, 3) == [1, 1, 1, 1]  # terms past the order play no part
    with pytest.raises(ZeroDivisionError):
        series_inverse(T, 3)
    with pytest.raises(ZeroDivisionError):
        series_inverse(FractionPoly.zero(), 3)
    with pytest.raises(ValueError):
        series_inverse(Poly([2, 1]), -3)


@st.composite
def series_denominators(draw):
    """A rational polynomial of degree 0-8, integers a_i over a scale of
    1-30, the drawn a_0 neither 0 nor +-1."""
    a0 = draw(st.integers(-40, 40).filter(lambda v: v not in (-1, 0, 1)))
    rest = draw(st.lists(st.integers(-40, 40), max_size=8))
    return Poly.from_ints([a0, *rest], draw(st.integers(1, 30)))


@settings(max_examples=200, deadline=None)
@given(series_denominators(), st.integers(0, 20))
def test_series_inverse_matches_fraction_recurrence(p, order):
    assert series_inverse(p, order) == series_inverse_by_fractions(p, order)


def test_power_series_log():
    # log(1/(1-t)) = sum t^k / k
    assert _series_log(series_inverse(1 - T, 6)) == [0] + [Fraction(1, k) for k in range(1, 7)]
    with pytest.raises(ValueError):
        _series_log([2, 1, 0, 0])


def test_edge_form_fixtures():
    assert ihara_reciprocal_edge_form(complete_graph(2)) == FractionPoly.one()
    c3 = ihara_reciprocal_edge_form(cycle_graph(3))
    assert c3 == 1 - 2 * T**3 + T**6
    # K_4: (1-t^2)^2 (1-t)(1-2t)(1+t+2t^2)^3, built independently by factor product
    expected = (
        (1 - T**2) ** 2
        * (1 - T)
        * (1 - 2 * T)
        * (1 + T + 2 * T**2) ** 3
    )
    assert ihara_reciprocal_edge_form(complete_graph(4)) == expected


def test_bass_form_fixtures():
    assert ihara_reciprocal_bass_form(complete_graph(2)) == FractionPoly.one()
    c3 = ihara_reciprocal_bass_form(cycle_graph(3))
    assert c3 == (1 - T**3) ** 2
    k4_edge = ihara_reciprocal_edge_form(complete_graph(4))
    assert ihara_reciprocal_bass_form(complete_graph(4)) == k4_edge


def test_bass_identity_on_samples():
    for g in (
        cycle_graph(4),
        path_graph(4),
        complete_graph(5),
        triangle_with_doubled_edge(),
        Graph(2, ((0, 1), (0, 1))),
    ):
        edge = ihara_reciprocal_edge_form(g)
        assert ihara_reciprocal_bass_form(g) == edge


def test_bass_form_holds_on_disconnected_graphs():
    # the exponent is m - n, so the components multiply; forests with
    # isolated vertices take a negative power that divides exactly
    for g in (
        Graph(4, ((0, 1), (2, 3))),  # 2K2
        Graph(9, (*complete_graph(4).edges, *((4 + u, 4 + v) for u, v in cycle_graph(5).edges))),
        Graph(3, ((0, 1),)),  # K2 and an isolated vertex
        Graph(5, ((0, 1), (2, 3))),  # 2K2 and an isolated vertex
        Graph(4, ()),
        Graph(6, ((0, 1), (0, 1), (1, 2), (2, 0), (4, 5))),  # doubled-edge triangle, isolated vertex, K2
    ):
        assert ihara_reciprocal_bass_form(g) == ihara_reciprocal_edge_form(g)


def test_weighted_forms_divide_exactly_on_forests():
    # m - n < 0 on each graph; the prefactor divides, so both forms are Polys
    forests = (
        Graph(5, ((0, 1), (2, 3))),  # two K2 and an isolated vertex, exponent -3
        path_graph(5),
        complete_bipartite_graph(1, 3),
        Graph(1, ()),
    )
    for g in forests:
        for seed in range(3):
            forms = weighted_zeta_reciprocal(g, random_arc_weights(g, random.Random(seed)))
            assert isinstance(forms.bass_form, Poly)
            assert forms.bass_form == forms.edge_form, (g, seed)
    p4 = path_graph(4)
    w = random_arc_weights(p4, random.Random(7))
    w[0] = 0
    forms = weighted_zeta_reciprocal(p4, w)
    assert isinstance(forms.bass_form, Poly)
    assert forms.bass_form == forms.edge_form


def test_weighted_unit_weights_reduce_to_ihara():
    g = complete_graph(4)
    forms = weighted_zeta_reciprocal(g, [1] * 12)
    assert forms.edge_form == ihara_reciprocal_edge_form(g)
    assert forms.bass_form == ihara_reciprocal_bass_form(g)


def test_weighted_k2_hand_fixture():
    # arc 0 -> 1 weighs 5 and arc 1 -> 0 weighs 7
    forms = weighted_zeta_reciprocal(complete_graph(2), [5, 7])
    assert forms.edge_form == 1 - 24 * T**2
    assert forms.bass_form == forms.edge_form


def test_weighted_coin_weights_on_c3():
    # the coin weights 2/deg(o(e)) sum to W = 2T over the arcs u -> v
    g = cycle_graph(3)
    t_matrix = random_walk_matrix(g)
    forms = weighted_zeta_reciprocal(g, coin_weights(g))
    assert forms.bass_form.degree <= 6
    # m = n, so the vertex form is det(I - 2tT + t^2 I) with no prefactor
    for node in range(7):
        t = Fraction(node)
        direct = Matrix(
            [
                [(1 + t * t if i == j else 0) - 2 * t * t_matrix[i, j] for j in range(3)]
                for i in range(3)
            ]
        )
        assert FractionPoly.of(forms.bass_form)(t) == perm_det(direct)


def test_weighted_random_on_k4():
    g = complete_graph(4)
    for seed in range(5):
        forms = weighted_zeta_reciprocal(g, random_arc_weights(g, random.Random(seed)))
        assert forms.bass_form == forms.edge_form


def test_weighted_forms_agree_on_multigraph():
    # W sums the weights of parallel arcs, so the vertex form sees them:
    # on the 2-vertex banana at unit weights W = 2J - 2I and D_w = 2I
    banana = Graph(2, ((0, 1), (0, 1)))
    forms = weighted_zeta_reciprocal(banana, [1, 1, 1, 1])
    assert forms.edge_form == (1 - T**2) ** 2
    assert forms.bass_form == forms.edge_form
    dt = triangle_with_doubled_edge()
    for seed in range(3):
        forms = weighted_zeta_reciprocal(dt, random_arc_weights(dt, random.Random(seed)))
        assert forms.bass_form == forms.edge_form


def test_oracle_fixtures():
    # C_3: two prime classes (the two orientations), series of (1-t^3)^-2
    series = euler_product_oracle(nonbacktracking_matrix(cycle_graph(3)), 8)
    assert series == [1, 0, 0, 2, 0, 0, 3, 0, 0]
    # K_2 is a tree: no reduced cycles at all
    k2 = nonbacktracking_matrix(complete_graph(2))
    assert euler_product_oracle(k2, 8) == [1] + [0] * 8


def test_oracle_matches_series_inversion():
    for g in (cycle_graph(3), cycle_graph(5), complete_graph(4), path_graph(5),
              triangle_with_doubled_edge()):
        inverted = series_inverse(ihara_reciprocal_edge_form(g), 8)
        assert euler_product_oracle(nonbacktracking_matrix(g), 8) == inverted


def test_k4_reduced_three_walk_count():
    nb = nonbacktracking_matrix(complete_graph(4))
    assert trace(matmul(matmul(nb, nb), nb)) == 24


def test_trace_identity():
    # log(1/edge form) = sum tr((B - J0)^k) t^k / k through the order
    order = 8
    for g in (cycle_graph(3), complete_graph(4), triangle_with_doubled_edge()):
        series = _series_log(series_inverse(ihara_reciprocal_edge_form(g), order))
        nb = nonbacktracking_matrix(g)
        power = nb
        expected = [Fraction(0), trace(nb)]
        for k in range(2, order + 1):
            power = matmul(power, nb)
            expected.append(trace(power) / k)
        assert series == expected


def test_prime_cycle_classes_c3():
    # the two oriented triangles, arcs 0 -> 1 -> 2 and their inverses 3 -> 5 -> 4;
    # their length-6 powers are not prime, so they do not come out
    classes = prime_cycle_classes(nonbacktracking_matrix(cycle_graph(3)), 8)
    assert classes == [(0, 1, 2), (3, 5, 4)]


def test_prime_classes_pair_under_inversion():
    for g in (cycle_graph(3), complete_graph(4), triangle_with_doubled_edge()):
        primes = set(prime_cycle_classes(nonbacktracking_matrix(g), 6))
        self_inverse = 0
        for c in primes:
            # the reversed cycle: inverse arcs in the opposite order
            rev = tuple(g.inverse_arc(a) for a in reversed(c))
            inv = min(rev[i:] + rev[:i] for i in range(len(rev)))
            assert inv in primes  # closed under inversion
            if inv == c:
                self_inverse += 1
        assert (len(primes) - self_inverse) % 2 == 0


def test_cycle_norm_fixtures():
    # C_3 with one orientation 0->1->2->0 of norm 2 * 3 * 5 = 30 and the
    # reverse of norm 13 * 11 * 7 = 1001.  The reduced weighted matrix puts
    # W[o(f), t(f)] on each non-backtracking step e -> f and 0 elsewhere.
    c3 = cycle_graph(3)
    arcs = c3.arcs
    w = Matrix([[0, 2, 13], [7, 0, 3], [5, 11, 0]])
    reduced = Matrix(
        [
            [
                w[arcs[f]]
                if arcs[e][1] == arcs[f][0] and f != c3.inverse_arc(e)
                else 0
                for f in range(6)
            ]
            for e in range(6)
        ]
    )
    expected = series_inverse((1 - 30 * T**3) * (1 - 1001 * T**3), 6)
    assert euler_product_oracle(reduced, 6) == expected
    # halving the weights (scale 2) divides each norm by 2^3
    halved = series_inverse((1 - Fraction(30, 8) * T**3) * (1 - Fraction(1001, 8) * T**3), 6)
    assert euler_product_oracle(Matrix.from_ints(reduced.ints, 2), 6) == halved
    # unit weights: both classes have norm 1
    unit = series_inverse((1 - T**3) ** 2, 6)
    assert euler_product_oracle(nonbacktracking_matrix(c3), 6) == unit


def test_oracle_size_guard():
    big = cycle_graph(12)  # 24 arcs
    with pytest.raises(SizeGuardError):
        prime_cycle_classes(nonbacktracking_matrix(big), 4)
    for order in (13, 10**12):  # refused before the series is sized by the order
        with pytest.raises(SizeGuardError):
            euler_product_oracle(nonbacktracking_matrix(cycle_graph(3)), order)
    for wide in (Matrix([[0, 1, 1], [1, 0, 1]]), Matrix([[0, 1], [1, 0], [1, 1]])):
        with pytest.raises(ValueError):
            euler_product_oracle(wide, 4)


def test_oracle_order_zero_and_negative():
    nb = nonbacktracking_matrix(cycle_graph(3))
    assert prime_cycle_classes(nb, 0) == []
    assert euler_product_oracle(nb, 0) == [1]
    with pytest.raises(ValueError):
        prime_cycle_classes(nb, -1)
    with pytest.raises(ValueError):
        euler_product_oracle(nb, -1)


def test_prime_cycle_classes_match_bruteforce_on_corpus():
    # the doubled-edge triangle and K4 have figure-eight classes that pass
    # through their least arc twice
    for entry in builtin_corpus():
        g = entry.graph
        if 2 * g.m > MAX_ORACLE_ARCS:
            continue
        nb, by_definition = nonbacktracking_matrix(g), nonbacktracking_by_definition(g)
        for order in range(9):
            expected = reduced_cycle_classes_bruteforce(by_definition, order)
            assert prime_cycle_classes(nb, order) == expected, (entry.name, order)


def _matrix_from_entries(size, entries):
    rows = [[0] * size for _ in range(size)]
    for (e, f), x in entries.items():
        rows[e][f] = x
    return Matrix(rows)


DEAD_END_MATRICES = {
    # 0 -> 1 -> 2 leads into the cycle 2 -> 3 -> 4 -> 5 -> 2 with the chord
    # 4 -> 2; 0, 1 and the sink 6 lie on no cycle
    "path_into_cycle": _matrix_from_entries(7, {
        (0, 1): 3, (1, 2): Fraction(1, 2), (2, 3): 2, (3, 4): -1, (4, 5): 5,
        (5, 2): Fraction(-2, 3), (4, 2): 7, (5, 6): 4}),
    # every arc e -> f with e < f on 6 rows and the back edge 4 -> 1: the
    # source 0 and the sink 5 lie on no cycle
    "upper_triangular_and_back_edge": _matrix_from_entries(6, {
        **{(e, f): (-1) ** (e + f) * (e + f) for e in range(6) for f in range(e + 1, 6)},
        (4, 1): Fraction(1, 3)}),
    # the arcs into the pendant path 2 - 3 - 4 lead only to a dead end
    "triangle_with_pendant_path": nonbacktracking_matrix(
        Graph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4)))),
}


@pytest.mark.parametrize("name", DEAD_END_MATRICES)
def test_oracle_on_digraphs_with_dead_ends(name):
    # the walk prunes every index that cannot get back to the start within
    # the order; here most of them never can
    m = DEAD_END_MATRICES[name]
    det = charpoly_exact(m).reversed()
    for order in range(11):
        assert prime_cycle_classes(m, order) == reduced_cycle_classes_bruteforce(m, order), order
        assert euler_product_oracle(m, order) == series_inverse(det, order), order


def _affordable_order(m, order, budget=10_000):
    """The largest order <= the given one at which the brute force walks at
    most `budget` paths in the digraph of m; the B - J0 of 20 parallel arcs
    reaches 4.8 million paths at order 7."""
    support = [[x != 0 for x in row] for row in m.ints]
    walks = [1] * len(support)
    total = len(support)
    for k in range(2, order + 1):
        walks = [sum(b * w for b, w in zip(row, walks)) for row in support]
        total += sum(walks)
        if total > budget:
            return k - 1
    return order


@settings(max_examples=100, deadline=None)
@given(relabelled_multigraphs(), st.integers(1, 7))
def test_prime_cycle_classes_match_bruteforce_under_relabelling(graphs, order):
    g, h = graphs
    order = _affordable_order(nonbacktracking_matrix(h), order)
    classes = prime_cycle_classes(nonbacktracking_matrix(h), order)
    assert classes == reduced_cycle_classes_bruteforce(nonbacktracking_by_definition(h), order)
    unrelabelled = prime_cycle_classes(nonbacktracking_matrix(g), order)
    assert sorted(map(len, classes)) == sorted(map(len, unrelabelled))


@st.composite
def square_matrices(draw):
    """A square matrix of 1-6 rows with small rational entries of either
    sign, about half of them zero, the diagonal included."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))
    return Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=100, deadline=None)
@given(square_matrices(), st.integers(0, 6))
def test_oracle_matches_bruteforce_and_charpoly_on_square_matrices(m, order):
    # arc matrices have zero diagonals; loops and their powers are where the
    # necklace walk's period bookkeeping matters
    assert prime_cycle_classes(m, order) == reduced_cycle_classes_bruteforce(m, order)
    inverted = series_inverse(charpoly_exact(m).reversed(), order)
    assert euler_product_oracle(m, order) == inverted


@st.composite
def sparse_square_matrices(draw):
    """A square matrix of 7-9 rows with about a quarter of its entries
    nonzero: small rationals of either sign."""
    n = draw(st.integers(7, 9))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)))
    rows = [[0] * n for _ in range(n)]
    for i, j, x in draw(st.lists(entry, min_size=n * n // 4, max_size=n * n // 4)):
        rows[i][j] = x
    return Matrix(rows)


@settings(max_examples=100, deadline=None)
@given(sparse_square_matrices(), st.integers(0, 8))
def test_oracle_matches_bruteforce_and_charpoly_on_sparse_matrices(m, order):
    # at 7-9 sparse rows most last steps cannot close, so the walk's
    # last-step cut prunes; the brute force walks every path
    order = _affordable_order(m, order, budget=20_000)
    assert prime_cycle_classes(m, order) == reduced_cycle_classes_bruteforce(m, order)
    inverted = series_inverse(charpoly_exact(m).reversed(), order)
    assert euler_product_oracle(m, order) == inverted


def _moebius(n):
    result, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return result


@pytest.mark.parametrize("k", [1, 2, 3])
def test_prime_class_counts_of_all_ones_matrix_are_lyndon_word_counts(k):
    # every word over k letters is a closed walk, so the prime classes of
    # length l are the Lyndon words, (1/l) sum over d | l of mu(d) k^(l/d)
    # (Moreau)
    order = 8
    classes = prime_cycle_classes(Matrix([[1] * k for _ in range(k)]), order)
    for length in range(1, order + 1):
        divisors = [d for d in range(1, length + 1) if length % d == 0]
        lyndon = sum(_moebius(d) * k ** (length // d) for d in divisors) // length
        assert sum(len(c) == length for c in classes) == lyndon, (k, length)


def test_corpus_small_members_satisfy_series_identity():
    for entry in builtin_corpus():
        if entry.graph.n > 4:
            continue
        inverted = series_inverse(ihara_reciprocal_edge_form(entry.graph), 6)
        assert euler_product_oracle(nonbacktracking_matrix(entry.graph), 6) == inverted


def test_oracle_streams_k5_at_order_12():
    # K5's B - J0 is 20 rows, the heaviest call the guard admits: 69,348
    # prime classes through order 12, each multiplied in and none kept;
    # prime_cycle_classes, which collects them, peaks at about 9.7 MB
    nb = nonbacktracking_matrix(complete_graph(5))
    inverted = series_inverse(ihara_reciprocal_edge_form(complete_graph(5)), 12)
    tracemalloc.start()
    try:
        series = euler_product_oracle(nb, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series == inverted
    assert peak < 1_000_000, peak


def _guarded_corpus():
    entries = [e for e in builtin_corpus() if 2 * e.graph.m <= MAX_ORACLE_ARCS]
    assert len(entries) == 31 and any(not e.graph.simple for e in entries)
    return entries


def test_oracle_matches_reversed_charpoly_of_u_on_corpus():
    # Amitsur's identity on the paper's main closed form: 1/det(I - tU) is
    # the Euler product over U's prime cycle classes, whose backtracking
    # steps weigh 2/deg - 1 (zero, so absent, only at degree 2)
    order = 8
    for entry in _guarded_corpus():
        u = transition_matrix(entry.graph)
        det_u = charpoly_exact(u).reversed()
        inverted = series_inverse(det_u, order)
        assert euler_product_oracle(u, order) == inverted, entry.name


def test_oracle_matches_weighted_edge_form_on_corpus():
    order = 8
    for seed, entry in enumerate(_guarded_corpus()):
        w = random_arc_weights(entry.graph, random.Random(seed))
        bw = arc_operator(entry.graph, w)
        edge = weighted_zeta_reciprocal(entry.graph, w).edge_form
        inverted = series_inverse(edge, order)
        assert euler_product_oracle(bw, order) == inverted, entry.name
