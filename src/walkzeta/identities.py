"""Closed vertex-level forms for arc-operator characteristic polynomials.

The paper's identity has one vertex side, ``vertex_determinant(g, w)`` =
det(x^2 I - xW + D_w - I) on one weight per arc: W[u][v] sums the weights
of the arcs u -> v and D_w holds the out-arc sums.  Times the circle factor
(x^2 - 1)^(m - n) it is char(B_w - J0) on every graph; on forests the
exponent is negative and the factor divides out exactly.  The Grover coin
weights 2/deg(o(e)) give W = 2T, D_w = 2I and char(U); unit weights give
W = A, D_w = D, the Ihara zeta's Bass form and, at minimum degree 2, the
support of U-transpose.  ``apply_circle_prefactor`` is the one place the
circle factor is applied.  ``degree_adjacency_determinant_form`` is a
second closed form of char(U), from A and the degrees alone.

Each quadratic determinant det(x^2 I - xA + C) is evaluated by the one
exact kernel as the characteristic polynomial of its 2n x 2n
linearisation (``exact.quadratic_charpoly``), the device of Bass (1992)
and Kotani-Sunada (2000) in their proofs of the Ihara-Bass formula.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import ExactDivisionError, Matrix, Poly, quadratic_charpoly
from .graphs import Graph, adjacency_matrix
from .operators import coin_weights


def _times_circle(c: list[int], k: int) -> list[int]:
    """The integer coefficient list c times (x^2 - 1)^k, one shift by two less c per factor."""
    for _ in range(k):
        c = [b - a for a, b in zip(c + [0, 0], [0, 0] + c)]
    return c


def apply_circle_prefactor(det_poly: Poly, exponent: int) -> Poly:
    """Multiply by (x^2 - 1)**exponent; negative exponents divide exactly.

    Works on the integer coefficients det_poly.ints and keeps its scale.
    Each division by x^2 - 1 is synthetic: from the top down c_k adds into
    c_(k-2), the quotient is what sits above the two lowest places, and
    those two must be zero, or ExactDivisionError is raised.
    """
    c = _times_circle(list(det_poly.ints), exponent)
    for _ in range(-exponent):
        for k in range(len(c) - 1, 1, -1):
            c[k - 2] += c[k]
        if any(c[:2]):
            circle = _times_circle([1], -exponent)
            raise ExactDivisionError.dividing(list(det_poly.ints), circle, det_poly.scale)
        c = c[2:]
    return Poly.from_ints(c, det_poly.scale)


def vertex_determinant(g: Graph, weights: Sequence) -> Poly:
    """det(x^2 I - xW + D_w - I) for one weight per arc of g.arcs.

    The only place per-arc weights become W and D_w, in integers over the
    lcm s of the weight denominators.
    """
    if len(weights) != 2 * g.m:
        raise ValueError(f"need one weight per arc: {len(weights)} for {2 * g.m} arcs")
    lifted = Matrix([weights])
    scaled, scale = lifted.ints[0], lifted.scale
    w = [[0] * g.n for _ in range(g.n)]
    sums = [-scale] * g.n  # s times the diagonal of D_w - I
    for (o, t), x in zip(g.arcs.arcs, scaled):
        w[o][t] += x
        sums[o] += x
    return quadratic_charpoly(Matrix.from_ints(w, scale), [Fraction(x, scale) for x in sums])


def degree_adjacency_determinant_form(g: Graph) -> Poly:
    """det((x^2 + 1) D - 2x A) divided by the product of the degrees.

    Equal to det((x^2 + 1) I - 2x A D^-1); A D^-1 is the transpose of T, so
    this form does not share its matrix with the coin-weight vertex
    determinant.
    """
    degs = g.degrees
    if min(degs) < 1:
        raise ValueError("needs every vertex to have an arc")
    rows = adjacency_matrix(g).ints
    scaled = Matrix([[Fraction(2 * x, d) for x, d in zip(row, degs)] for row in rows])
    return quadratic_charpoly(scaled, [1] * g.n)


def charpoly_u_via_walk_form(g: Graph) -> Poly:
    """Characteristic polynomial of U: the vertex side at the coin weights."""
    return apply_circle_prefactor(vertex_determinant(g, coin_weights(g)), g.m - g.n)


def charpoly_u_via_degree_form(g: Graph) -> Poly:
    """Characteristic polynomial of U from the degree-adjacency determinant."""
    return apply_circle_prefactor(degree_adjacency_determinant_form(g), g.m - g.n)


def charpoly_support_via_adjacency_form(g: Graph) -> Poly:
    """Characteristic polynomial of the support of U-transpose, vertex form.

    The vertex side at unit weights.  Valid for connected graphs of minimum
    degree 2, where the support equals the non-backtracking edge matrix.
    """
    if min(g.degrees) < 2:
        raise ValueError("support closed form requires minimum degree 2")
    return apply_circle_prefactor(vertex_determinant(g, [1] * (2 * g.m)), g.m - g.n)
