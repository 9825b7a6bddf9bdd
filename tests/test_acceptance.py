"""Acceptance gate: ten criteria over the full built-in corpus.

Each test prints a single PASS/FAIL line.  Exact criteria allow zero
tolerance; numeric multiset comparisons run at 1e-8.  Expensive shared
artifacts (charpoly of U, numeric spectra, support charpolys) are cached
at module scope so each is computed once, with the cost charged to the
first criterion that needs it.
"""

import random
import time
from fractions import Fraction

from walkzeta.exact import Matrix, charpoly_exact
from walkzeta.graphs import adjacency_matrix
from walkzeta.identities import (
    charpoly_support_via_adjacency_form,
    charpoly_u_via_degree_form,
    charpoly_u_via_walk_form,
)
from walkzeta.operators import (
    nonbacktracking_matrix,
    positive_support,
    random_walk_matrix,
    transition_matrix,
)
from walkzeta.spectra import (
    SpectrumMultiset,
    compare,
    map_adjacency_spectrum,
    map_random_walk_spectrum,
    real_roots,
    roots,
)
from walkzeta.zeta import (
    euler_product_oracle,
    ihara_reciprocal_bass_form,
    ihara_reciprocal_edge_form,
    series_inverse,
)
from walkzeta.experiments import (
    builtin_corpus,
    random_arc_weights,
    rook_graph_4x4,
    shrikhande_graph,
    srg_distinguish,
    strongly_regular_params,
)
from walkzeta.zeta import weighted_zeta_reciprocal

from oracles import conjugate_closed, matmul, trace

TOLERANCE = 1e-8
SEED = 42

_CORPUS = builtin_corpus(SEED)
_CHAR_U = {}
_SPECTRA = {}
_SUPPORT_CHAR = {}


def _char_u(entry):
    if entry.name not in _CHAR_U:
        _CHAR_U[entry.name] = charpoly_exact(transition_matrix(entry.graph))
    return _CHAR_U[entry.name]


def _spectrum_u(entry):
    if entry.name not in _SPECTRA:
        _SPECTRA[entry.name] = roots(_char_u(entry))
    return _SPECTRA[entry.name]


def _char_support(entry):
    if entry.name not in _SUPPORT_CHAR:
        sup = positive_support(transition_matrix(entry.graph).transpose())
        _SUPPORT_CHAR[entry.name] = charpoly_exact(sup)
    return _SUPPORT_CHAR[entry.name]


def _md2(entry):
    return min(entry.graph.degrees) >= 2


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_charpoly_closed_forms():
    start = time.perf_counter()
    bad = []
    for entry in _CORPUS:
        direct = _char_u(entry)
        if direct != charpoly_u_via_walk_form(entry.graph):
            bad.append((entry.name, "walk form"))
        if direct != charpoly_u_via_degree_form(entry.graph):
            bad.append((entry.name, "degree form"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120
    _report(1, ok, f"char(U) equals both closed forms on {len(_CORPUS)} graphs, "
                   f"exact, {elapsed:.1f}s (budget 120s)")
    assert not bad, bad
    assert elapsed < 120


def test_criterion_02_bass_identity():
    start = time.perf_counter()
    bad = [
        e.name
        for e in _CORPUS
        if ihara_reciprocal_bass_form(e.graph)
        != ihara_reciprocal_edge_form(e.graph)
    ]
    elapsed = time.perf_counter() - start
    trees = sum(1 for e in _CORPUS if e.graph.connected and e.graph.m == e.graph.n - 1)
    ok = not bad and elapsed < 120
    _report(2, ok, f"zeta edge form equals vertex form on {len(_CORPUS)} graphs "
                   f"({trees} trees via exact division), {elapsed:.1f}s (budget 120s)")
    assert not bad, bad
    assert elapsed < 120


def test_criterion_03_weighted_zeta_forms():
    # W sums the weights of parallel arcs, so the identity holds on every
    # corpus member, the parallel-edge member included
    start = time.perf_counter()
    trials = 10
    bad = []
    for entry in _CORPUS:
        for trial in range(trials):
            rng = random.Random(f"{SEED}:{entry.name}:{trial}")
            forms = weighted_zeta_reciprocal(entry.graph, random_arc_weights(entry.graph, rng))
            if forms.bass_form != forms.edge_form:
                bad.append((entry.name, trial))
    multigraphs = sum(1 for e in _CORPUS if not e.graph.simple)
    elapsed = time.perf_counter() - start
    ok = not bad and multigraphs and elapsed < 180
    _report(3, ok, f"weighted zeta forms agree on {len(_CORPUS)} graphs "
                   f"({multigraphs} multigraph) x {trials} seeded per-arc weight lists, "
                   f"{elapsed:.1f}s (budget 180s)")
    assert not bad, bad
    assert multigraphs
    assert elapsed < 180


def test_criterion_04_support_identity():
    eligible = [e for e in _CORPUS if e.graph.simple and e.graph.connected and _md2(e)]
    bad = [
        e.name for e in eligible
        if positive_support(transition_matrix(e.graph).transpose()) != nonbacktracking_matrix(e.graph)
    ]
    ok = not bad
    _report(4, ok, f"support of U-transpose equals the non-backtracking matrix "
                   f"on {len(eligible)} simple md2 graphs, exact")
    assert not bad, bad
    assert len(eligible) >= 20


def test_criterion_05_walk_spectrum_map():
    eligible = [e for e in _CORPUS if e.graph.m >= e.graph.n]
    worst = 0.0
    bad = []
    for entry in eligible:
        g = entry.graph
        walk_eigs = real_roots(charpoly_exact(random_walk_matrix(g)), TOLERANCE)
        mapped = map_random_walk_spectrum(walk_eigs, g.m, g.n, TOLERANCE)
        verdict = compare(_spectrum_u(entry), mapped, TOLERANCE)
        worst = max(worst, verdict.max_pair_distance)
        if not verdict.equal:
            bad.append(entry.name)
    ok = not bad
    _report(5, ok, f"numeric char(U) roots match the random-walk eigenvalue map "
                   f"on {len(eligible)} graphs with m >= n, max pair distance "
                   f"{worst:.2e} (tolerance 1e-8)")
    assert not bad, bad


def test_criterion_06_support_spectrum_map():
    eligible = [e for e in _CORPUS if min(e.graph.degrees) == max(e.graph.degrees) >= 2]
    worst = 0.0
    bad = []
    for entry in eligible:
        g = entry.graph
        adj_eigs = real_roots(charpoly_exact(adjacency_matrix(g)), TOLERANCE)
        mapped = map_adjacency_spectrum(adj_eigs, g.degrees[0], g.m, g.n)
        verdict = compare(roots(_char_support(entry)), mapped, TOLERANCE)
        worst = max(worst, verdict.max_pair_distance)
        if not verdict.equal:
            bad.append(entry.name)

    # pinned fixture: the Petersen support spectrum, written out explicitly
    half7 = 7 ** 0.5 / 2
    pinned = SpectrumMultiset(
        tuple(sorted(
            [complex(2), complex(1)]
            + [complex(0.5, half7)] * 5 + [complex(0.5, -half7)] * 5
            + [complex(-1, 1)] * 4 + [complex(-1, -1)] * 4
            + [complex(1)] * 5 + [complex(-1)] * 5,
            key=lambda z: (z.real, z.imag),
        )),
    )
    petersen = next(e for e in _CORPUS if e.name == "petersen")
    pinned_ok = compare(roots(_char_support(petersen)), pinned, TOLERANCE).equal

    ok = not bad and pinned_ok
    _report(6, ok, f"numeric support-charpoly roots match the adjacency eigenvalue "
                   f"map on {len(eligible)} regular md2 graphs, Petersen multiset "
                   f"pinned, max pair distance {worst:.2e}")
    assert not bad, bad
    assert pinned_ok


def test_criterion_07_support_charpoly_closed_form():
    eligible = [e for e in _CORPUS if _md2(e)]
    bad = [
        e.name for e in eligible
        if _char_support(e) != charpoly_support_via_adjacency_form(e.graph)
    ]
    multigraphs = sum(1 for e in eligible if not e.graph.simple)
    ok = not bad
    _report(7, ok, f"char of the U-transpose support equals the vertex closed form "
                   f"on {len(eligible)} md2 graphs ({multigraphs} with a parallel "
                   f"edge), exact")
    assert not bad, bad


def test_criterion_08_euler_product_oracle():
    order = 8
    eligible = [e for e in _CORPUS if e.graph.n <= 5]
    bad = []
    for entry in eligible:
        series = series_inverse(ihara_reciprocal_edge_form(entry.graph), order)
        if euler_product_oracle(nonbacktracking_matrix(entry.graph), order) != series:
            bad.append(entry.name)
    k4 = next(e for e in _CORPUS if e.name == "K4")
    nb = nonbacktracking_matrix(k4.graph)
    trace3 = trace(matmul(matmul(nb, nb), nb))
    ok = not bad and trace3 == 24
    _report(8, ok, f"prime-cycle Euler product matches the determinant series to "
                   f"order {order} on {len(eligible)} graphs with n <= 5; "
                   f"K4 reduced 3-walk trace = {trace3} (expected 24)")
    assert not bad, bad
    assert trace3 == Fraction(24)


def test_criterion_09_srg_experiment():
    start = time.perf_counter()
    s = shrikhande_graph()
    r = rook_graph_4x4()
    params = (strongly_regular_params(s), strongly_regular_params(r))
    result = srg_distinguish(s, r)
    elapsed = time.perf_counter() - start
    equal_below = all(
        result.charpolys[name][0] == result.charpolys[name][1]
        for name in ("adjacency", "support_u", "support_u2")
    )
    differs_at_3 = (
        result.level == 3
        and result.charpolys["support_u3"][0] != result.charpolys["support_u3"][1]
    )
    ok = (
        params == ((16, 6, 2, 2), (16, 6, 2, 2))
        and equal_below
        and differs_at_3
        and elapsed < 600
    )
    _report(9, ok, f"Shrikhande vs 4x4 rook, both SRG(16,6,2,2): cospectral at "
                   f"adjacency, support U, support U^2; distinguished at support "
                   f"U^3, {elapsed:.1f}s (budget 600s)")
    assert params == ((16, 6, 2, 2), (16, 6, 2, 2))
    assert equal_below
    assert differs_at_3
    assert elapsed < 600


def test_criterion_10_structural_invariants():
    bad = []
    for entry in _CORPUS:
        g = entry.graph
        u = transition_matrix(g)
        identity = Matrix([[int(i == j) for j in range(2 * g.m)] for i in range(2 * g.m)])
        if matmul(u.transpose(), u) != identity:
            bad.append((entry.name, "orthogonality"))
        if [sum(row) for row in random_walk_matrix(g).data] != [Fraction(1)] * g.n:
            bad.append((entry.name, "row sums"))
        coeffs = _char_u(entry).coeffs
        reverse = tuple(reversed(coeffs))
        if reverse != coeffs and reverse != tuple(-c for c in coeffs):
            bad.append((entry.name, "self-reciprocity"))
        if not conjugate_closed(_spectrum_u(entry), TOLERANCE):
            bad.append((entry.name, "conjugate closure"))
    ok = not bad
    _report(10, ok, f"transpose(U) U = I, stochastic T rows, self-reciprocal "
                    f"char(U), conjugate-closed spectra on all {len(_CORPUS)} "
                    f"graphs")
    assert not bad, bad
