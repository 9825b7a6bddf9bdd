"""Workload inputs: one round of CLI operations per workload, built from a seed.

For the corpus workloads the seed relabels every input graph (a vertex
permutation and a shuffled edge order): characteristic polynomials,
spectra and zeta series are invariant under relabelling, so the outputs
to check stay the same while the inputs change.  The corpus itself is walkzeta's built-in corpus at its
documented seed 42.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

CORPUS_SEED = 42
VERIFY_TRIALS = 1
# Below order 10 the two determinant forms cost as much as the oracle; at
# orders 10 and 11 the oracle takes most of the time.  Order 12 would add
# 15 s per round, 13 s of it K5.
ZETA_ORDERS = (10, 11)
ORACLE_MAX_ARCS = 20

# Cospectral connected 4-regular pairs that, like Shrikhande and the 4x4
# rook graph, agree through support(U^2) and first separate at support(U^3).
COSPECTRAL_PAIRS = (
    ("I[?i~`KeG", "IH^E_mg`W"),
    ("INQKzA`BW", "IJ_[G~ay?"),
    ("KJ_aGjgb_UQH", "K[l_GdG`_bg["),
)
SEPARATING_LEVEL = 3
# Workloads that run more than the usual two rounds.  A round of
# distinguish-cospectral is three operations of 1.6-3.4 s, short enough
# for one slowed stretch of the host to cover a whole round; with three
# rounds the median leaves such a round out.
MIN_ROUNDS = {"distinguish-cospectral": 3}


@dataclass
class Operation:
    """One walkzeta CLI call and the check its parsed JSON output must pass."""

    argv: list[str]
    check: Callable[[dict, random.Random], list[str]]


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    vals = [ord(ch) - 63 for ch in text]
    n = vals[0]
    bits = [(v >> shift) & 1 for v in vals[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def encode_graph6(n: int, edges) -> str:
    present = {frozenset(e) for e in edges}
    bits = [1 if frozenset((i, j)) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(moved)
    return moved


def corpus() -> list[tuple[str, int, list[tuple[int, int]]]]:
    from walkzeta.experiments import builtin_corpus

    return [(e.name, e.graph.n, list(e.graph.edges)) for e in builtin_corpus(CORPUS_SEED)]


def graph_args(name: str, n: int, edges, inputs_dir: str) -> list[str]:
    """--graph6 for simple graphs, an edge-list file for multigraphs."""
    if checks.graph_flags(n, edges)[0]:
        return ["--graph6", encode_graph6(n, edges)]
    path = os.path.join(inputs_dir, f"{name}.edges")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return ["--input", path]


def _relabelled_corpus(seed: int):
    for name, n, edges in corpus():
        yield name, n, relabel(n, edges, random.Random(f"{seed}:{name}"))


def distinguish_ops(seed: int, inputs_dir: str) -> list[Operation]:
    """The pairs in seed-chosen order and orientation, labelled as given.

    Relabelling is left out here: the cost of charpoly_exact on these
    pairs moves by up to a quarter with the vertex labelling, which would
    drown the run-to-run spread of a three-operation round.
    """
    rng = random.Random(f"{seed}:distinguish")
    pairs = [list(pair) for pair in COSPECTRAL_PAIRS]
    rng.shuffle(pairs)
    ops = []
    for pair in pairs:
        rng.shuffle(pair)
        left, right = (decode_graph6(g6) for g6 in pair)

        def check(doc, rng, left=left, right=right):
            return checks.check_distinguish_doc(doc, left, right, SEPARATING_LEVEL, rng)

        ops.append(Operation(["distinguish", *pair], check))
    return ops


def verify_ops(seed: int, inputs_dir: str) -> list[Operation]:
    graphs = corpus()

    def check(doc, rng):
        return checks.check_verify_doc(doc, graphs, CORPUS_SEED, VERIFY_TRIALS)

    argv = ["verify", "--corpus", "builtin", "--trials", str(VERIFY_TRIALS), "--seed", str(CORPUS_SEED)]
    return [Operation(argv, check)]


def spectra_ops(seed: int, inputs_dir: str) -> list[Operation]:
    ops = []
    for name, n, edges in _relabelled_corpus(seed):
        given = graph_args(name, n, edges, inputs_dir)
        for target in checks.TARGETS:

            def check(doc, rng, n=n, edges=edges):
                return checks.check_spectrum_doc(doc, n, edges, rng)

            ops.append(Operation(["spectrum", "--target", target, *given], check))
    return ops


def zeta_ops(seed: int, inputs_dir: str) -> list[Operation]:
    ops = []
    for name, n, edges in _relabelled_corpus(seed):
        if 2 * len(edges) > ORACLE_MAX_ARCS:
            continue
        given = graph_args(name, n, edges, inputs_dir)
        for order in ZETA_ORDERS:

            def check(doc, rng, n=n, edges=edges, order=order):
                return checks.check_zeta_doc(doc, n, edges, order, rng)

            ops.append(Operation(["zeta", "--oracle", "--order", str(order), *given], check))
    return ops


WORKLOADS = {
    "distinguish-cospectral": distinguish_ops,
    "verify-builtin": verify_ops,
    "spectra-corpus": spectra_ops,
    "zeta-oracle": zeta_ops,
}
