"""Arc-indexed walk operators and their vertex-level companions.

Every arc matrix comes from one builder, ``arc_operator(g, weights)``, on
the arcs ``g.arcs`` of a graph: arc e feeds arc f when terminus(e) =
origin(f), the step weighs w(f), and the step onto inverse(e) pays 1 less.
Every operator takes the Graph itself, and its hypotheses (minimum degree,
simplicity, connectivity) are read off the graph's cached facts.  The Grover-coined quantum-walk
transition matrix U is the transpose of the weighted edge matrix B_w - J0
for the coin weights ``coin_weights(g)``, 2/deg(o(f)) on each arc f, and
the non-backtracking matrix B - J0 is the same call with unit weights.
Alongside them live the random-walk matrix, the operator table and exact
positive supports of powers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .exact import Matrix, _lift
from .graphs import Graph, adjacency_matrix


def _lift_arc_weights(g: Graph, weights: Sequence) -> tuple[list[int], int]:
    """One weight per arc of g.arcs as integers over the lcm s of their denominators, and s."""
    if len(weights) != 2 * g.m:
        raise ValueError(f"need one weight per arc: {len(weights)} for {2 * g.m} arcs")
    (scaled,), scale = _lift([weights])
    return scaled, scale


def arc_operator(g: Graph, weights: Sequence) -> Matrix:
    """The weighted edge matrix B_w - J0 on the arcs of g.

    Entry (e, f) is weights[f] when arc e feeds arc f, that is when
    terminus(e) = origin(f), minus 1 when f = inverse(e).  This is the one
    place that decides how arcs connect: B - J0 has unit weights, and U is
    the transpose for the coin weights 2/deg(o(f)).  Each row is built from
    the arcs leaving terminus(e), in integers over the lcm s of the weight
    denominators, so the step onto inverse(e) pays s.

    The pair is canonical as built, so it takes no gcd pass: a common
    divisor of s and every entry would divide each scaled weight, since
    column f holds scaled[f] - s at row inverse(f), the arc that feeds f
    and backtracks onto it, and ``_lift`` makes gcd(s, scaled weights) = 1.
    """
    scaled, scale = _lift_arc_weights(g, weights)
    size = len(g.arcs)
    leaving: dict[int, list[int]] = {}
    for f, (origin, _) in enumerate(g.arcs):
        leaving.setdefault(origin, []).append(f)
    data = []
    for e, (_, terminus) in enumerate(g.arcs):
        row = [0] * size
        for f in leaving[terminus]:
            row[f] = scaled[f]
        row[g.inverse_arc(e)] -= scale
        data.append(row)
    return Matrix._canonical(data, scale)


def coin_weights(g: Graph) -> list[Fraction]:
    """The Grover coin weight 2/deg(o(e)) of each arc e of g.arcs."""
    if min(g.degrees) < 1:
        raise ValueError("transition matrix needs every vertex to have an arc")
    return [Fraction(2, g.degrees[o]) for o, _ in g.arcs]


def transition_matrix(g: Graph) -> Matrix:
    """Quantum-walk transition matrix U on the 2m arcs.

    U[e][f] is 2/deg(o(e)) when arc f ends at the origin of e, with 1
    subtracted on the backtracking arc f = inverse(e), and 0 elsewhere:
    U^T = B_w - J0 for the coin weights w(e) = 2/deg(o(e)).  Rows and
    columns follow the arc order of g.arcs.
    """
    return arc_operator(g, coin_weights(g)).transpose()


def nonbacktracking_matrix(g: Graph) -> Matrix:
    """Arc adjacency minus arc inversion (the Hashimoto edge matrix)."""
    return arc_operator(g, [1] * (2 * g.m))


def random_walk_matrix(g: Graph) -> Matrix:
    """Simple random-walk matrix T with T[u][v] = multiplicity(u,v)/deg(u), over lcm(degrees)."""
    if min(g.degrees) < 1:
        raise ValueError("random walk needs every vertex to have an arc")
    scale = lcm(*g.degrees)
    rows = adjacency_matrix(g).ints
    return Matrix.from_ints([[x * (scale // d) for x in row] for row, d in zip(rows, g.degrees)], scale)


def positive_support(m: Matrix) -> Matrix:
    """0/1 matrix marking the strictly positive entries."""
    return Matrix.from_ints([[int(x > 0) for x in row] for row in m.ints])


def power_support(m: Matrix, k: int) -> Matrix:
    """Positive support of m**k for k in {1, 2, 3}, computed exactly.

    The integer rows L = m.ints are m times a positive scale, so the sign
    pattern of L^k is that of m**k.  L is lifted to numpy once, to int64, or
    to Python ints (dtype=object) where an entry passes int64, and max|L| is
    read off that array.  L^k is one numpy product: in float64 (BLAS) when
    no partial sum can reach 2^53, that is max|L|^k * n^(k-1) < 2^53, so
    every product and sum is an exactly represented integer, and in Python
    ints otherwise.  A 0 x 0 matrix is its own support at every k.
    """
    if k not in (1, 2, 3):
        raise ValueError("power_support supports k in {1, 2, 3}")
    if not m.is_square:
        raise ValueError("power_support needs a square matrix")
    if k == 1 or not m.rows:
        return positive_support(m)
    try:
        lift = np.array(m.ints, dtype=np.int64)
    except OverflowError:
        lift = np.array(m.ints, dtype=object)
    top = max(int(lift.max()), -int(lift.min()))  # -min in Python ints: abs(-2^63) wraps in int64
    lift = lift.astype(np.float64 if top**k * m.rows ** (k - 1) < 2**53 else object)
    power = lift @ lift if k == 2 else lift @ lift @ lift
    return Matrix._canonical((power > 0).astype(int).tolist(), 1)


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
        return nonbacktracking_matrix(g)
    u = transition_matrix(g)
    return u if target == "U" else power_support(u, {"U+": 1, "U2+": 2, "U3+": 3}[target])
