"""Built-in graph corpus, identity verification suite and SRG experiment.

The corpus mixes structured families (complete, cycle, path, bipartite,
Petersen, one multigraph) with seeded random connected graphs, so every
identity gets exercised on regular, irregular, tree and parallel-edge
inputs.  The verification suite recomputes both sides of each identity
from scratch and reports failures with witnesses.

The strongly-regular-graph experiment asks at which level of the hierarchy
adjacency, support of U, support of U^2, support of U^3 two graphs first
get different characteristic polynomials.  The classic test pair is the
Shrikhande graph against the 4x4 rook graph: same parameters (16, 6, 2, 2),
first separated at the third power.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import Poly, charpoly_exact, charpolys_exact
from .graphs import Graph
from .identities import (
    charpoly_support_via_adjacency_form,
    charpoly_u_via_degree_form,
    charpoly_u_via_walk_form,
)
from .operators import (
    operator_matrix,
    positive_support,
    power_support,
    transition_matrix,
    verify_support_identity,
)
from .zeta import ihara_reciprocal_bass_form, ihara_reciprocal_edge_form, weighted_zeta_reciprocal

DEFAULT_SEED = 42
DEFAULT_WEIGHT_TRIALS = 10

# graph6 forms of the strongly regular test pair; parse_graph6 of these
# matches the algebraic constructions below (pinned by tests)
SHRIKHANDE_G6 = "OlfJHsHBGK_\\oHWKeBK_\\"
ROOK_4X4_G6 = "O~`HW}GPHDaNaGPCcPWaN"


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def petersen_graph() -> Graph:
    """Kneser graph on 2-subsets of a 5-set: adjacent iff disjoint."""
    subsets = list(itertools.combinations(range(5), 2))
    index = {s: i for i, s in enumerate(subsets)}
    edges = [
        (index[s], index[t])
        for s, t in itertools.combinations(subsets, 2)
        if not set(s) & set(t)
    ]
    return Graph(10, tuple(sorted(edges)))


def triangle_with_doubled_edge() -> Graph:
    """Triangle with one parallel edge: the smallest interesting multigraph."""
    return Graph(3, ((0, 1), (0, 1), (1, 2), (2, 0)))


def shrikhande_graph() -> Graph:
    """Cayley graph of Z4 x Z4 with connection set +/-(1,0), (0,1), (1,1)."""
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(16):
        for b in range(a + 1, 16):
            d = ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4)
            if d in diffs:
                edges.append((a, b))
    return Graph(16, tuple(edges))


def rook_graph_4x4() -> Graph:
    """4x4 rook graph: cells adjacent iff they share a row or a column."""
    edges = []
    for a in range(16):
        for b in range(a + 1, 16):
            if a // 4 == b // 4 or a % 4 == b % 4:
                edges.append((a, b))
    return Graph(16, tuple(edges))


RANDOM_MAX_N = 8


def _random_connected_graph(rng: random.Random) -> Graph:
    while True:
        n = rng.randint(4, RANDOM_MAX_N)
        edges = tuple(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        )
        if not edges:
            continue
        g = Graph(n, edges)
        if g.connected:
            return g


def strongly_regular_params(g: Graph) -> tuple[int, int, int, int] | None:
    """(n, k, lambda, mu) if the graph is strongly regular, else None.

    Complete graphs are excluded (mu has no witness pairs).
    """
    if not (g.simple and g.connected) or min(g.degrees) != max(g.degrees):
        return None
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    lambdas = set()
    mus = set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = len(nbrs[u] & nbrs[v])
            if v in nbrs[u]:
                lambdas.add(common)
            else:
                mus.add(common)
    if len(lambdas) == 1 and len(mus) == 1:
        return (g.n, g.degrees[0], lambdas.pop(), mus.pop())
    return None


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    graph: Graph


# the structured corpus members, in corpus order, each built by named_graph
_STRUCTURED_NAMES = (
    *(f"K{n}" for n in range(2, 8)),
    *(f"C{n}" for n in range(3, 13)),
    *(f"P{n}" for n in range(3, 7)),
    "K2_3",
    "K3_3",
    "petersen",
    "triangle_double_edge",
)


def builtin_corpus(seed: int = DEFAULT_SEED) -> list[CorpusEntry]:
    """The 44-graph verification corpus; random members are seed-determined."""
    entries = [CorpusEntry(name, named_graph(name)) for name in _STRUCTURED_NAMES]
    rng = random.Random(seed)
    for i in range(1, 21):
        entries.append(CorpusEntry(f"random_{i:02d}", _random_connected_graph(rng)))
    return entries


_NAMED_BUILDERS = {
    "petersen": petersen_graph,
    "shrikhande": shrikhande_graph,
    "rook44": rook_graph_4x4,
    "triangle_double_edge": triangle_with_doubled_edge,
}


def named_graph(name: str) -> Graph:
    """Look up a graph by corpus-style name (K5, C7, P4, K3_3, petersen...)."""
    key = name.strip().lower()
    if key in _NAMED_BUILDERS:
        return _NAMED_BUILDERS[key]()
    try:
        if key.startswith("k") and "_" in key:
            a, b = key[1:].split("_", 1)
            return complete_bipartite_graph(int(a), int(b))
        if key.startswith("k"):
            return complete_graph(int(key[1:]))
        if key.startswith("c"):
            return cycle_graph(int(key[1:]))
        if key.startswith("p"):
            return path_graph(int(key[1:]))
    except ValueError:
        pass
    raise KeyError(f"unknown graph name {name!r}")


def random_arc_weights(g: Graph, rng: random.Random) -> list[Fraction]:
    """One nonzero random rational weight per arc of g.arcs."""
    numerators = [x for x in range(-9, 10) if x]
    return [Fraction(rng.choice(numerators), rng.randint(1, 9)) for _ in range(2 * g.m)]


@dataclass
class IdentityCheck:
    identity: str
    graph: str
    passed: bool
    witness: str | None = None
    elapsed: float = 0.0


@dataclass
class VerificationReport:
    seed: int
    weight_trials: int
    checks: list[IdentityCheck] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        """The report without timings, so equal runs give equal documents."""
        return {
            "seed": self.seed,
            "weight_trials": self.weight_trials,
            "total_checks": len(self.checks),
            "failed_checks": len(self.failures()),
            "passed": self.passed,
            "checks": [
                dict(identity=c.identity, graph=c.graph, passed=c.passed, witness=c.witness)
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"identity verification (seed={self.seed}, weight_trials={self.weight_trials})",
        ]
        by_identity: dict[str, list[IdentityCheck]] = {}
        for c in self.checks:
            by_identity.setdefault(c.identity, []).append(c)
        for identity, items in by_identity.items():
            ok = sum(1 for c in items if c.passed)
            lines.append(f"  {identity}: {ok}/{len(items)} graphs")
        for c in self.failures():
            lines.append(f"  FAIL {c.identity} on {c.graph}: {c.witness}")
        lines.append(
            f"result: {'PASS' if self.passed else 'FAIL'}"
            f" ({len(self.checks)} checks, {self.elapsed:.1f}s)"
        )
        return "\n".join(lines)


def _first_difference(left: Poly, right: Poly) -> str:
    """The lowest power whose coefficients differ, with both, for two unequal polynomials."""
    pairs = list(itertools.zip_longest(left.to_strings(), right.to_strings(), fillvalue="0"))
    k = next(k for k, (a, b) in enumerate(pairs) if a != b)
    return f"coefficient {k}: {pairs[k][0]} vs {pairs[k][1]}"


def _entry_checks(entry: CorpusEntry, seed: int, weight_trials: int) -> list[IdentityCheck]:
    """All identity checks for one corpus entry, in a fixed order.

    Top-level (not a closure) so corpus entries can be farmed out to worker
    processes; everything it needs rides in on the arguments.
    """
    checks: list[IdentityCheck] = []

    def record(identity: str, fn):
        start = time.perf_counter()
        try:
            passed, witness = fn()
        except Exception as exc:  # a crash is a failure with the error as witness
            passed, witness = False, f"{type(exc).__name__}: {exc}"
        checks.append(
            IdentityCheck(
                identity=identity,
                graph=entry.name,
                passed=passed,
                witness=None if passed else witness,
                elapsed=time.perf_counter() - start,
            )
        )

    g = entry.graph
    u = transition_matrix(g)
    char_u = charpoly_exact(u)

    def same_charpoly(actual: Poly, closed_form):
        expected = closed_form(g)
        if actual == expected:
            return True, None
        return False, f"direct vs closed form, {_first_difference(actual, expected)}"

    record("u_charpoly_walk_form", lambda: same_charpoly(char_u, charpoly_u_via_walk_form))
    record("u_charpoly_degree_form", lambda: same_charpoly(char_u, charpoly_u_via_degree_form))

    def check_zeta():
        edge = ihara_reciprocal_edge_form(g)
        vertex = ihara_reciprocal_bass_form(g)
        if vertex == edge:
            return True, None
        return False, f"edge vs vertex, {_first_difference(edge, vertex)}"

    record("zeta_edge_vs_vertex", check_zeta)

    if g.simple:

        def check_weighted():
            for trial in range(weight_trials):
                rng = random.Random(f"{seed}:{entry.name}:{trial}")
                forms = weighted_zeta_reciprocal(g, random_arc_weights(g, rng))
                if forms.bass_form != forms.edge_form:
                    return False, f"trial {trial}: forms differ"
            return True, None

        record("weighted_zeta_forms", check_weighted)

    if g.simple and g.connected and min(g.degrees) >= 2:

        def check_support():
            return verify_support_identity(g), "support differs from edge matrix"

        record("support_identity", check_support)

    if min(g.degrees) >= 2:
        record(
            "support_charpoly_form",
            lambda: same_charpoly(
                charpoly_exact(positive_support(u.transpose())), charpoly_support_via_adjacency_form
            ),
        )

    return checks


def run_identity_suite(
    corpus: list[CorpusEntry] | None = None,
    seed: int = DEFAULT_SEED,
    weight_trials: int = DEFAULT_WEIGHT_TRIALS,
    workers: int | None = None,
) -> VerificationReport:
    """Recompute both sides of every identity on every corpus graph.

    Checks, per graph: the two closed forms of char(U); the edge-versus-
    vertex zeta determinant identity; the weighted variant on random
    per-arc weights (on simple graphs, so the check list stays the one
    ``benchmarks/checks.py`` derives, though the identity holds on every
    graph); the support identity and the support characteristic polynomial
    closed form (where the minimum-degree hypothesis holds).

    workers=None uses one process per CPU; entries are independent and
    seeded per graph, so the report is identical (minus timings) at any
    worker count, aggregated in corpus order.
    """
    corpus = builtin_corpus(seed) if corpus is None else corpus
    if workers is None:
        workers = os.cpu_count() or 1
    report = VerificationReport(seed=seed, weight_trials=weight_trials)
    suite_start = time.perf_counter()
    task = functools.partial(_entry_checks, seed=seed, weight_trials=weight_trials)
    if workers > 1 and len(corpus) > 1:
        # imported here: it takes about a tenth of the package's import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_entry = list(pool.map(task, corpus))
    else:
        per_entry = [task(entry) for entry in corpus]
    for checks in per_entry:
        report.checks.extend(checks)
    report.elapsed = time.perf_counter() - suite_start
    return report


DISTINGUISH_LEVELS = (  # (level name, operator_matrix target), level 0 first
    ("adjacency", "A"),
    ("support_u", "U+"),
    ("support_u2", "U2+"),
    ("support_u3", "U3+"),
)


@dataclass
class DistinguishResult:
    level: int | None
    level_name: str | None
    charpolys: dict[str, tuple[list[str], list[str]]]

    @property
    def distinguished(self) -> bool:
        return self.level is not None

    def to_dict(self) -> dict:
        return {
            "distinguished": self.distinguished,
            "level": self.level,
            "level_name": self.level_name,
            "charpolys": {
                name: {"left": left, "right": right}
                for name, (left, right) in self.charpolys.items()
            },
        }


def _check_srg_hypotheses(g: Graph, label: str):
    if not g.simple:
        raise ValueError(f"{label}: must be simple")
    if not g.connected:
        raise ValueError(f"{label}: must be connected")
    if not min(g.degrees) == max(g.degrees) >= 2:
        raise ValueError(f"{label}: must be regular of degree >= 2")


def srg_distinguish(g: Graph, h: Graph) -> DistinguishResult:
    """Lowest level of the support hierarchy telling two graphs apart.

    Levels: 0 adjacency, 1 support of U, 2 support of U^2, 3 support of
    U^3, compared by exact characteristic polynomial.  Returns level None
    when all four agree.  Level 1 comes from the closed form
    ``charpoly_support_via_adjacency_form``, a 2n-row charpoly instead of a
    2m-row one: on a simple graph of minimum degree 2 the support of U is
    the pattern of (B - J0)^T.  Each other level is one ``charpolys_exact``
    call on both graphs' matrices, of one size or not.  Levels 2 and 3 take
    ``power_support`` of one U per graph, built when level 2 is reached.
    """
    _check_srg_hypotheses(g, "left graph")
    _check_srg_hypotheses(h, "right graph")
    charpolys: dict[str, tuple[list[str], list[str]]] = {}
    walks = None
    for idx, (name, target) in enumerate(DISTINGUISH_LEVELS):
        if target == "U+":
            left, right = charpoly_support_via_adjacency_form(g), charpoly_support_via_adjacency_form(h)
        elif target == "A":
            left, right = charpolys_exact([operator_matrix(g, "A"), operator_matrix(h, "A")])
        else:
            walks = walks or [transition_matrix(g), transition_matrix(h)]
            left, right = charpolys_exact([power_support(u, idx) for u in walks])  # level k: U^k
        charpolys[name] = (left.to_strings(), right.to_strings())
        if left != right:
            return DistinguishResult(idx, name, charpolys)
    return DistinguishResult(None, None, charpolys)
