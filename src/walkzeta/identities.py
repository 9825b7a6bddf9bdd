"""Closed vertex-level forms for arc-operator characteristic polynomials.

The characteristic polynomial of the 2m x 2m transition matrix collapses
to an n x n quadratic determinant in the random-walk matrix, with a circle
factor (x^2 - 1) accounting for the dimension gap: one copy per
independent cycle beyond a spanning tree.  For trees the gap is negative
one and the circle factor divides out exactly.  A parallel form exists for
the positive support of U-transpose on graphs of minimum degree 2.
``apply_circle_prefactor`` is the one place the circle factor is applied;
the zeta vertex forms are its results with the coefficients reversed.

Each quadratic determinant det(x^2 I - xA + C) is evaluated by the one
exact kernel as the characteristic polynomial of its 2n x 2n
linearisation (``exact.quadratic_charpoly``), the device of Bass (1992)
and Kotani-Sunada (2000) in their proofs of the Ihara-Bass formula.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Matrix, Poly, poly_divexact, quadratic_charpoly
from .graphs import Graph, adjacency_matrix, degree_info
from .operators import random_walk_matrix

CIRCLE = Poly((-1, 0, 1))  # x^2 - 1


def apply_circle_prefactor(det_poly: Poly, exponent: int) -> Poly:
    """Multiply by (x^2 - 1)**exponent; negative exponents divide exactly."""
    if exponent >= 0:
        return det_poly * CIRCLE**exponent
    return poly_divexact(det_poly, CIRCLE ** (-exponent))


def walk_determinant_form(g: Graph) -> Poly:
    """det((x^2 + 1) I - 2x T) with T the random-walk matrix."""
    t = random_walk_matrix(g)
    doubled = Matrix.from_ints([[2 * x for x in row] for row in t.ints], t.scale)
    return quadratic_charpoly(doubled, [1] * g.n)


def degree_adjacency_determinant_form(g: Graph) -> Poly:
    """det((x^2 + 1) D - 2x A) divided by the product of the degrees.

    Equal to det((x^2 + 1) I - 2x A D^-1); A D^-1 is the transpose of T, so
    this form does not share its matrix with ``walk_determinant_form``.
    """
    degs = degree_info(g).degrees
    if min(degs) < 1:
        raise ValueError("needs every vertex to have an arc")
    rows = adjacency_matrix(g).ints
    scaled = Matrix([[Fraction(2 * x, d) for x, d in zip(row, degs)] for row in rows])
    return quadratic_charpoly(scaled, [1] * g.n)


def support_determinant_form(g: Graph) -> Poly:
    """det((x^2 - 1) I - x A + D)."""
    return quadratic_charpoly(adjacency_matrix(g), [d - 1 for d in degree_info(g).degrees])


def charpoly_u_via_walk_form(g: Graph) -> Poly:
    """Characteristic polynomial of U from the random-walk determinant."""
    return apply_circle_prefactor(walk_determinant_form(g), g.m - g.n)


def charpoly_u_via_degree_form(g: Graph) -> Poly:
    """Characteristic polynomial of U from the degree-adjacency determinant."""
    return apply_circle_prefactor(degree_adjacency_determinant_form(g), g.m - g.n)


def charpoly_u_factored(g: Graph) -> tuple[int, Poly]:
    """(circle exponent, walk determinant) pair describing char(U)."""
    return g.m - g.n, walk_determinant_form(g)


def charpoly_support_via_adjacency_form(g: Graph) -> Poly:
    """Characteristic polynomial of the support of U-transpose, vertex form.

    Valid for connected graphs of minimum degree 2, where the support
    equals the non-backtracking edge matrix.
    """
    if degree_info(g).min_degree < 2:
        raise ValueError("support closed form requires minimum degree 2")
    return apply_circle_prefactor(support_determinant_form(g), g.m - g.n)
