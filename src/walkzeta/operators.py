"""Arc-indexed walk operators and their vertex-level companions.

The central object is the Grover-coined quantum-walk transition matrix on
arcs: a step from arc f to arc e is allowed when f feeds into the origin
of e, carries amplitude 2/deg, and the backtracking transition pays an
extra -1.  Alongside it live the non-backtracking arc matrices, weighted
variants, the random-walk matrix and exact positive supports of powers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import Matrix, integer_lift
from .graphs import ArcSet, Graph, adjacency_matrix, build_arcs, degree_info, validate


_ZERO, _ONE = Fraction(0), Fraction(1)


class ArcMatrices(NamedTuple):
    adjacency: Matrix  # entry (e, f) is 1 iff terminus(e) == origin(f)
    inversion: Matrix  # entry (e, f) is 1 iff f is the inverse arc of e


def transition_matrix(g: Graph, arcs: ArcSet | None = None) -> Matrix:
    """Quantum-walk transition matrix U on the 2m arcs.

    U[e][f] is 2/deg(o(e)) when arc f ends at the origin of e, with 1
    subtracted on the backtracking arc f = inverse(e), and 0 elsewhere.
    Rows and columns follow the arc order of build_arcs.
    """
    info = degree_info(g)
    if info.min_degree < 1:
        raise ValueError("transition matrix needs every vertex to have an arc")
    arcs = build_arcs(g) if arcs is None else arcs
    size = len(arcs)
    data = [[Fraction(0)] * size for _ in range(size)]
    for e in range(size):
        oe = arcs.origin(e)
        coin = Fraction(2, info.degrees[oe])
        inv = arcs.inverse(e)
        row = data[e]
        for f in range(size):
            if arcs.terminus(f) == oe:
                row[f] = coin - 1 if f == inv else coin
    return Matrix(data)


def arc_matrices(arcs: ArcSet) -> ArcMatrices:
    """The 0/1 arc-adjacency matrix and the arc-inversion matrix."""
    size = len(arcs)
    adj = [
        [1 if arcs.terminus(e) == arcs.origin(f) else 0 for f in range(size)]
        for e in range(size)
    ]
    inv = [
        [1 if arcs.inverse(e) == f else 0 for f in range(size)]
        for e in range(size)
    ]
    return ArcMatrices(Matrix(adj), Matrix(inv))


def nonbacktracking_matrix(arcs: ArcSet) -> Matrix:
    """Arc adjacency minus arc inversion (the Hashimoto edge matrix)."""
    adj, inv = arc_matrices(arcs)
    return adj - inv


def weighted_edge_matrix(arcs: ArcSet, weights: Matrix) -> Matrix:
    """Weighted arc adjacency: entry (e, f) is w(f) when e feeds into f.

    ``weights`` is an n x n matrix whose support must lie on arc positions;
    a nonzero weight anywhere else is rejected.
    """
    if not weights.is_square:
        raise ValueError("weight matrix must be square")
    positions = {(arcs.origin(a), arcs.terminus(a)) for a in range(len(arcs))}
    for i in range(weights.rows):
        for j in range(weights.cols):
            if weights[i, j] != 0 and (i, j) not in positions:
                raise ValueError(f"weight on non-arc position ({i}, {j})")
    size = len(arcs)
    data = [[Fraction(0)] * size for _ in range(size)]
    for e in range(size):
        te = arcs.terminus(e)
        row = data[e]
        for f in range(size):
            if arcs.origin(f) == te:
                row[f] = weights[arcs.origin(f), arcs.terminus(f)]
    return Matrix(data)


def coin_weight_matrix(g: Graph) -> Matrix:
    """Vertex weight matrix with 2/deg(u) on every adjacent pair (u, v)."""
    info = degree_info(g)
    if info.min_degree < 1:
        raise ValueError("coin weights need every vertex to have an arc")
    adj = adjacency_matrix(g)
    data = [
        [Fraction(2, info.degrees[u]) if adj[u, v] != 0 else Fraction(0) for v in range(g.n)]
        for u in range(g.n)
    ]
    return Matrix(data)


def random_walk_matrix(g: Graph) -> Matrix:
    """Simple random-walk matrix T with T[u][v] = multiplicity(u,v)/deg(u)."""
    info = degree_info(g)
    if info.min_degree < 1:
        raise ValueError("random walk needs every vertex to have an arc")
    adj = adjacency_matrix(g)
    return Matrix(
        [
            [Fraction(int(adj[u, v]), info.degrees[u]) for v in range(g.n)]
            for u in range(g.n)
        ]
    )


def positive_support(m: Matrix) -> Matrix:
    """0/1 matrix marking the strictly positive entries."""
    return Matrix([[_ONE if x > 0 else _ZERO for x in row] for row in m.data])


def power_support(m: Matrix, k: int) -> Matrix:
    """Positive support of m**k for k in {1, 2, 3}, computed exactly.

    The matrix is scaled to integers L first, so the sign pattern of L^k is
    that of m**k.  L^k is one numpy product: in int64 when no entry can
    reach 2^63, that is max|L|^k * n^(k-1) < 2^63, and in Python ints
    (dtype=object) otherwise.
    """
    if k not in (1, 2, 3):
        raise ValueError("power_support supports k in {1, 2, 3}")
    if not m.is_square:
        raise ValueError("power_support needs a square matrix")
    if k == 1:
        return positive_support(m)
    lifted, _ = integer_lift(m.data)
    top = max((abs(x) for row in lifted for x in row), default=0)
    fits = top**k * m.rows ** (k - 1) < 2**63
    lift = np.array(lifted, dtype=np.int64 if fits else object)
    power = lift @ lift if k == 2 else lift @ lift @ lift
    return Matrix([[_ONE if x else _ZERO for x in row] for row in (power > 0).tolist()])


TARGETS = ("U", "U+", "U2+", "U3+", "A", "T", "B-J0")


def operator_matrix(g: Graph, target: str) -> Matrix:
    """The matrix a target name stands for.

    U is the transition matrix and U+, U2+, U3+ the positive supports of
    U, U^2, U^3; A is adjacency, T the random walk, B-J0 the edge matrix.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if target == "A":
        return adjacency_matrix(g)
    if target == "T":
        return random_walk_matrix(g)
    if target == "B-J0":
        return nonbacktracking_matrix(build_arcs(g))
    u = transition_matrix(g)
    return u if target == "U" else power_support(u, {"U+": 1, "U2+": 2, "U3+": 3}[target])


def verify_support_identity(g: Graph, arcs: ArcSet | None = None) -> bool:
    """Check that the positive support of U-transpose is the edge matrix.

    Holds for simple connected graphs of minimum degree 2; those hypotheses
    are enforced rather than assumed.
    """
    rep = validate(g)
    if not (rep.simple and rep.connected and rep.md2):
        raise ValueError("support identity requires a simple connected graph with min degree 2")
    arcs = build_arcs(g) if arcs is None else arcs
    u = transition_matrix(g, arcs)
    return positive_support(u.transpose()) == nonbacktracking_matrix(arcs)
