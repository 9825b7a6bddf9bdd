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

Each quadratic determinant det(x^2 I - xA + C), A = L / s and C a
diagonal, is evaluated by the one exact kernel as the characteristic
polynomial of its 2n x 2n linearisation [[A, -C], [I, 0]]
(``_linearised_charpoly``), the device of Bass (1992) and Kotani-Sunada
(2000) in their proofs of the Ihara-Bass formula; the callers hand it the
integer rows of L, s C and s.

The support of U^2 has a vertex form too, from the same device
det(yI - XY) = y^(r - s) det(yI - YX): on a simple graph of minimum
degree 3, char((U^2)+) = (x - 2)^(2m - 2n) char(K) for the 2n x 2n
integer matrix K = [[A^2 - D + 2I, A(D - I)], [-A, 2I - D]]
(``support2_matrix``, ``charpoly_support2_form``).  The hypothesis is
needed: at degree 2 the coin weight is 1, the signs of the two-step terms
change and the form is wrong, so it raises ValueError there, and callers
take the direct 2m-row support, which has 2n rows on a 2-regular graph.
``apply_support2_prefactor`` applies the (x - 2)^(2m - 2n) factor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact import Matrix, Poly, _int_divexact, charpoly_exact
from .graphs import Graph, adjacency_matrix
from .operators import _lift_arc_weights, coin_weights, random_walk_matrix


def _linearised_charpoly(rows: list[list[int]], diag: list[int], scale: int) -> Poly:
    """det(x^2 I - xA + C) for A = rows / scale and the diagonal C = diag / scale.

    Monic of degree 2n: the characteristic polynomial of
    L = [[A, -C], [I, 0]], since the Schur complement of the lower-right
    block xI gives det(xI - L) = x^n det(xI - A + C/x).
    """
    n = len(rows)
    top = [row + [-c if j == i else 0 for j in range(n)] for i, (row, c) in enumerate(zip(rows, diag))]
    bottom = [[scale if j == i else 0 for j in range(2 * n)] for i in range(n)]
    return charpoly_exact(Matrix.from_ints(top + bottom, scale))


def _times_binomial(c: list[int], d: int, r: int, k: int) -> list[int]:
    """The integer coefficient list c times (x^d - r)^k, one shift by d less r c per factor."""
    pad = [0] * d
    for _ in range(k):
        c = [b - r * a for a, b in zip(c + pad, pad + c)]
    return c


def apply_circle_prefactor(det_poly: Poly, exponent: int) -> Poly:
    """Multiply by (x^2 - 1)**exponent; negative exponents divide exactly.

    Works on the integer coefficients det_poly.ints and keeps its scale;
    a division that leaves a remainder raises ExactDivisionError.
    """
    c = list(det_poly.ints)
    if exponent < 0:
        c = _int_divexact(c, _times_binomial([1], 2, 1, -exponent), det_poly.scale)
    else:
        c = _times_binomial(c, 2, 1, exponent)
    return Poly.from_ints(c, det_poly.scale)


def apply_support2_prefactor(char_k: Poly, g: Graph) -> Poly:
    """Multiply char(K), K = ``support2_matrix(g)``, by (x - 2)^(2m - 2n).

    Works on the integer coefficients char_k.ints and keeps its scale.
    """
    return Poly.from_ints(_times_binomial(list(char_k.ints), 1, 2, 2 * (g.m - g.n)), char_k.scale)


def vertex_determinant(g: Graph, weights: Sequence) -> Poly:
    """det(x^2 I - xW + D_w - I) for one weight per arc of g.arcs.

    The only place per-arc weights become W and D_w, in integers over the
    lcm s of the weight denominators.
    """
    scaled, scale = _lift_arc_weights(g, weights)
    w = [[0] * g.n for _ in range(g.n)]
    sums = [-scale] * g.n  # s times the diagonal of D_w - I
    for (o, t), x in zip(g.arcs.arcs, scaled):
        w[o][t] += x
        sums[o] += x
    return _linearised_charpoly(w, sums, scale)


def degree_adjacency_determinant_form(g: Graph) -> Poly:
    """det((x^2 + 1) D - 2x A) divided by the product of the degrees.

    Equal to det((x^2 + 1) I - 2x A D^-1); A D^-1 is the transpose of T, so
    this form does not share its matrix with the coin-weight vertex
    determinant.
    """
    t = random_walk_matrix(g).transpose()
    return _linearised_charpoly([[2 * x for x in row] for row in t.ints], [t.scale] * g.n, t.scale)


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


def support2_matrix(g: Graph) -> Matrix:
    """K = [[A^2 - D + 2I, A(D - I)], [-A, 2I - D]], 2n x 2n, for char of the support of U^2.

    With Tm and Om the arc-to-terminus and arc-to-origin incidence
    matrices, the support of (U^T)^2 is S = Tm A Om^T - Tm Tm^T - Om Om^T + 2I
    on a simple graph of minimum degree 3: every coin weight 2/d is below 1
    there, so a two-step term through a backtrack is negative and the
    diagonal (1 - 2/d)^2 positive.  S - 2I = XY for X = [Tm, Om] and
    Y = [A Om^T - Tm^T; -Om^T], and K - 2I = YX, so by
    det(yI - XY) = y^(2m - 2n) det(yI - YX) at y = x - 2,
    char(S) = (x - 2)^(2m - 2n) char(K).  At degree 2 the coin weight is 1
    and the sign analysis, so the form, fails: raises ValueError unless g
    is simple of minimum degree 3.
    """
    if not (g.simple and min(g.degrees) >= 3):
        raise ValueError("support of U^2 closed form requires a simple graph of minimum degree 3")
    a = np.array(adjacency_matrix(g).ints, dtype=np.int64)
    d = np.diag(g.degrees)
    eye = np.eye(g.n, dtype=np.int64)
    k = np.block([[a @ a - d + 2 * eye, a @ (d - eye)], [-a, 2 * eye - d]])
    return Matrix.from_ints(k.tolist())


def charpoly_support2_form(g: Graph) -> Poly:
    """Characteristic polynomial of the support of U^2 from the 2n-row matrix K.

    (x - 2)^(2m - 2n) char(K) for K = ``support2_matrix(g)``, which raises
    ValueError unless g is simple of minimum degree 3.
    """
    return apply_support2_prefactor(charpoly_exact(support2_matrix(g)), g)
