"""Built-in graph corpus, identity verification suite and SRG experiment.

The corpus mixes structured families (complete, cycle, path, bipartite,
Petersen, one multigraph) with seeded random connected graphs, so every
identity gets exercised on regular, irregular, tree and parallel-edge
inputs.  The verification suite recomputes both sides of each identity
from scratch and reports witnesses.  Its entries, ordered by size, are cut
into a few tasks per worker, and each task feeds the exact kernel its
entries' distinct matrices in one batch, so matrices of equal size share
a call.

The strongly-regular-graph experiment asks at which level of the hierarchy
adjacency, support of U, support of U^2, support of U^3 two graphs first
get different characteristic polynomials (``srg_distinguish``).  The
classic test pair, the Shrikhande graph against the 4x4 rook graph, are
Cayley graphs of Z4 x Z4 with the same parameters (16, 6, 2, 2), first
separated at the third power.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import Matrix, Poly, charpoly_exact, charpolys_exact
from .graphs import Graph, check_dense_size
from .identities import (charpoly_support2_from_determinant, circled, degree_form_matrix,
                         support_determinant_from_adjacency, vertex_matrix)
from .operators import arc_operator, coin_weights, nonbacktracking_matrix, operator_matrix, positive_support
from .zeta import edge_reciprocal, vertex_reciprocal

DEFAULT_SEED = 42
DEFAULT_WEIGHT_TRIALS = 10


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


def _cayley_graph(moduli: tuple[int, ...], connection: set[tuple[int, ...]]) -> Graph:
    """Cayley graph of Z_m1 x ... x Z_mk on a connection set closed under negation:
    x ~ y iff y - x lies in it.  Elements are numbered in lexicographic order."""
    elements = list(itertools.product(*map(range, moduli)))
    edges = [(a, b) for (a, x), (b, y) in itertools.combinations(enumerate(elements), 2)
             if tuple((v - u) % m for u, v, m in zip(x, y, moduli)) in connection]
    return Graph(len(elements), tuple(edges))


def shrikhande_graph() -> Graph:
    """Cayley graph of Z4 x Z4 with connection set +/-(1,0), (0,1), (1,1)."""
    return _cayley_graph((4, 4), {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})


def rook_graph_4x4() -> Graph:
    """4x4 rook graph, cells adjacent iff they share a row or a column: the Cayley
    graph of Z4 x Z4 with connection set {(a, 0), (0, a) : a != 0}."""
    return _cayley_graph((4, 4), {(a, 0) for a in range(1, 4)} | {(0, a) for a in range(1, 4)})


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
    sizes = re.fullmatch(r"([kcp])([0-9]+)|k([0-9]+)_([0-9]+)", name.strip(), re.ASCII | re.IGNORECASE)
    try:
        if sizes and sizes[1]:
            n, kind = int(sizes[2]), sizes[1].lower()
            check_dense_size(n, {"k": n * (n - 1) // 2, "c": n, "p": n - 1}[kind])
            return {"k": complete_graph, "c": cycle_graph, "p": path_graph}[kind](n)
        if sizes:
            a, b = int(sizes[3]), int(sizes[4])
            check_dense_size(a + b, a * b)
            return complete_bipartite_graph(a, b)
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


def _witness(label: str, left, right) -> str:
    """What a failed check reports for two unequal sides: the label, and for
    polynomials also the lowest power whose coefficients differ, with both."""
    if not isinstance(left, Poly):
        return label
    pairs = list(itertools.zip_longest(left.to_strings(), right.to_strings(), fillvalue="0"))
    k = next(k for k, (a, b) in enumerate(pairs) if a != b)
    return f"{label}, coefficient {k}: {pairs[k][0]} vs {pairs[k][1]}"


class _Operands:
    """One corpus entry and the operands several of its checks share, each
    built once, on first use, inside the check that first needs it.  A build
    that raises is not kept, so each check that needs it fails with its error."""

    def __init__(self, entry: CorpusEntry, seed: int, weight_trials: int):
        self.g, self.name, self.seed, self.weight_trials = entry.graph, entry.name, seed, weight_trials

    # U^T = B_w - J0 at the coin weights, and char(U^T) = char(U)
    ut = functools.cached_property(lambda self: arc_operator(self.g, coin_weights(self.g)))
    char_u = functools.cached_property(lambda self: charpoly_exact(self.ut))
    support_ut = functools.cached_property(lambda self: positive_support(self.ut))
    unit = functools.cached_property(lambda self: vertex_matrix(self.g, [1] * (2 * self.g.m)))  # W = A, D_w = D

    def weights(self, trial: int) -> list[Fraction]:
        """The random per-arc weights of one trial, seeded by seed, graph name and trial."""
        return random_arc_weights(self.g, random.Random(f"{self.seed}:{self.name}:{trial}"))


# (identity, applies, sides), in report order.  applies(g) is the
# identity's hypothesis; sides(operands) yields the (label, left, right)
# pairs it compares: the two closed forms of char(U), the edge and vertex
# zeta forms, the weighted forms once per random per-arc weight trial, the
# support identity and the support charpoly closed form.  A side
# (matrix, finish) is finish(g, char(matrix)), or char(matrix) for finish
# None: the builder and finish of the library form it stands for.  Other
# sides are compared as they are; char(U), the direct side, is one
# charpoly_exact call of its own, outside the task's batch.
# The weighted check runs on simple graphs only, so the check list stays the
# one ``benchmarks/checks.py`` derives, though the identity holds on every graph.
_IDENTITY_CHECKS = (
    ("u_charpoly_walk_form", lambda g: True,
     lambda s: [("direct vs closed form", s.char_u, (vertex_matrix(s.g, coin_weights(s.g)), circled))]),
    ("u_charpoly_degree_form", lambda g: True,
     lambda s: [("direct vs closed form", s.char_u, (degree_form_matrix(s.g), circled))]),
    ("zeta_edge_vs_vertex", lambda g: True,
     lambda s: [("edge vs vertex", (nonbacktracking_matrix(s.g), edge_reciprocal), (s.unit, vertex_reciprocal))]),
    ("weighted_zeta_forms", lambda g: g.simple,
     lambda s: ((f"trial {t}, edge vs vertex", (arc_operator(s.g, w), edge_reciprocal),
                 (vertex_matrix(s.g, w), vertex_reciprocal))
                for t in range(s.weight_trials) for w in [s.weights(t)])),
    ("support_identity", lambda g: g.simple and g.connected and min(g.degrees) >= 2,
     lambda s: [("support differs from edge matrix", s.support_ut, nonbacktracking_matrix(s.g))]),
    ("support_charpoly_form", lambda g: min(g.degrees) >= 2,
     lambda s: [("direct vs closed form", (s.support_ut, None), (s.unit, circled))]),
)


def _finished(g: Graph, side, chars: list[Poly]):
    """A (position in chars, finish) side as finish(g, chars[position]); any other side as it is."""
    if not isinstance(side, tuple):
        return side
    position, finish = side
    return finish(g, chars[position]) if finish else chars[position]


def _task_checks(entries: list[CorpusEntry], seed: int, weight_trials: int) -> list[list[IdentityCheck]]:
    """Every check of ``_IDENTITY_CHECKS`` whose hypothesis holds on each of a task's entries, a list per entry.

    Each check builds its pairs up to the first build that raises; then one
    ``charpolys_exact`` call takes each distinct matrix of the task's
    (matrix, finish) sides once.  If that call raises, each entry's matrices
    are retried as a batch of their own, and each check that fed a batch that
    still raises fails with its error.  A check passes when each pair is
    equal, and fails with the witness of the first unequal pair, else with
    its build error as ``Type: message``.  The task is timed once, and each
    check's elapsed time is an equal share of it.  Top-level (not a closure)
    so tasks can be farmed out to worker processes; everything it needs rides
    in on the arguments.
    """
    start = time.perf_counter()
    batch: dict[Matrix, int] = {}  # distinct matrix -> its position in the kernel call
    built = []  # per entry: its graph, the positions it feeds, and (identity, pairs, build error or None)
    for entry in entries:
        operands, g, checks = _Operands(entry, seed, weight_trials), entry.graph, []
        for identity, applies, sides in _IDENTITY_CHECKS:
            if not applies(g):
                continue
            pairs, error = [], None
            try:
                for label, *two in sides(operands):
                    two = [(batch.setdefault(s[0], len(batch)), s[1]) if isinstance(s, tuple) else s for s in two]
                    pairs.append((label, *two))
            except Exception as exc:  # a crash is a failure with the error as witness
                error = f"{type(exc).__name__}: {exc}"
            checks.append((identity, pairs, error))
        fed = sorted({s[0] for _, pairs, _ in checks for pair in pairs for s in pair if isinstance(s, tuple)})
        built.append((g, fed, checks))
    matrices, errors = list(batch), [None] * len(built)
    try:
        chars = charpolys_exact(matrices)
    except Exception:  # entry by entry, so only the checks whose own matrices raise fail
        chars = [None] * len(matrices)
        for k, (_, fed, _) in enumerate(built):
            try:
                for i, char in zip(fed, charpolys_exact([matrices[i] for i in fed])):
                    chars[i] = char
            except Exception as exc:
                errors[k] = f"{type(exc).__name__}: {exc}"
    witnesses = []  # per entry: (identity, witness or None)
    for (g, _, checks), kernel_error in zip(built, errors):
        witnesses.append([])
        for identity, pairs, witness in checks:
            if kernel_error and any(isinstance(s, tuple) for pair in pairs for s in pair):
                witness, pairs = kernel_error, []
            try:
                finished = ((label, _finished(g, a, chars), _finished(g, b, chars)) for label, a, b in pairs)
                witness = next((_witness(*pair) for pair in finished if pair[1] != pair[2]), witness)
            except Exception as exc:  # a finish that raises fails its check like a build
                witness = f"{type(exc).__name__}: {exc}"
            witnesses[-1].append((identity, witness))
    share = (time.perf_counter() - start) / max(1, sum(map(len, witnesses)))
    return [[IdentityCheck(identity, entry.name, witness is None, witness, share) for identity, witness in checks]
            for entry, checks in zip(entries, witnesses)]


def run_identity_suite(
    corpus: list[CorpusEntry] | None = None,
    seed: int = DEFAULT_SEED,
    weight_trials: int = DEFAULT_WEIGHT_TRIALS,
    workers: int | None = None,
) -> VerificationReport:
    """Recompute both sides of every identity on every corpus graph.

    The checks are the rows of ``_IDENTITY_CHECKS`` whose hypothesis holds,
    in table order for each graph, the graphs in corpus order.

    The entries, ordered by (n, m), largest first, are cut into about four
    tasks per worker; each task feeds the kernel its entries' distinct
    matrices in one batch (``_task_checks``), so equal sizes share a call.
    workers=None uses one process per CPU, and workers=1 runs the same tasks
    in this process; entries are seeded per graph, so the report is
    identical (minus timings) at any worker count, put back in corpus order.
    """
    corpus = builtin_corpus(seed) if corpus is None else corpus
    if workers is None:
        workers = os.cpu_count() or 1
    report = VerificationReport(seed=seed, weight_trials=weight_trials)
    suite_start = time.perf_counter()
    order = sorted(range(len(corpus)), key=lambda i: (corpus[i].graph.n, corpus[i].graph.m), reverse=True)
    size = max(1, -(-len(corpus) // (4 * max(1, workers))))
    tasks = [[corpus[i] for i in order[s : s + size]] for s in range(0, len(order), size)]
    run = functools.partial(_task_checks, seed=seed, weight_trials=weight_trials)
    if workers > 1 and len(tasks) > 1:
        # imported here: it takes about a tenth of the package's import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(run, tasks, chunksize=1))
    else:
        per_task = [run(task) for task in tasks]
    per_entry = dict(zip(order, itertools.chain.from_iterable(per_task)))
    for i in range(len(corpus)):
        report.checks.extend(per_entry[i])
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
    when all four agree.  Only levels 0 and 3 reach the exact kernel, each
    as one ``charpolys_exact`` call on both graphs' ``operator_matrix``, of
    one size or not.  On regular graphs levels 1 and 2 are functions of the
    spectrum of A (Godsil-Guo 2011), so they make no kernel call: each
    graph's vertex side at unit weights, h = det(x^2 I - xA + (k - 1) I),
    is composed once from level 0's char(A)
    (``support_determinant_from_adjacency``).  Level 1 is h circled, and
    level 2 is h after one Graeffe root-squaring step, shifted, times
    (x - c - 1)^(2(m - n)) (``charpoly_support2_from_determinant``), so it
    can never separate two graphs that level 1 does not.  Level 3 is the
    first that can separate cospectral graphs.
    """
    _check_srg_hypotheses(g, "left graph")
    _check_srg_hypotheses(h, "right graph")
    charpolys: dict[str, tuple[list[str], list[str]]] = {}
    for idx, (name, target) in enumerate(DISTINGUISH_LEVELS):
        if target == "U+":  # from level 0's pair
            dets = support_determinant_from_adjacency(g, left), support_determinant_from_adjacency(h, right)
            left, right = circled(g, dets[0]), circled(h, dets[1])
        elif target == "U2+":  # from level 1's determinants
            left, right = charpoly_support2_from_determinant(g, dets[0]), charpoly_support2_from_determinant(h, dets[1])
        else:
            left, right = charpolys_exact([operator_matrix(g, target), operator_matrix(h, target)])
        charpolys[name] = (left.to_strings(), right.to_strings())
        if left != right:
            return DistinguishResult(idx, name, charpolys)
    return DistinguishResult(None, None, charpolys)
