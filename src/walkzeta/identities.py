"""Closed vertex-level forms for arc-operator characteristic polynomials.

The paper's identity has one vertex side, ``vertex_determinant(g, w)`` =
det(x^2 I - xW + D_w - I) on one weight per arc: W[u][v] sums the weights
of the arcs u -> v and D_w holds the out-arc sums.  Times the circle factor
(x^2 - 1)^(m - n) it is char(B_w - J0) on every graph; on forests the
exponent is negative and the factor divides out exactly.  The Grover coin
weights 2/deg(o(e)) give W = 2T, D_w = 2I and char(U); unit weights give
W = A, D_w = D, the Ihara zeta's Bass form and, at minimum degree 2, the
support of U-transpose.  ``apply_circle_prefactor``, through ``circled``,
is the one place the circle factor is applied.  ``charpoly_u_via_degree_form``
is a second closed form of char(U), from A and the degrees alone.

Each quadratic determinant det(x^2 I - xA + C), A = L / s and C a
diagonal, is the characteristic polynomial of its 2n x 2n linearisation
[[A, -C], [I, 0]] (``_linearisation``), the device of Bass (1992) and
Kotani-Sunada (2000) in their proofs of the Ihara-Bass formula.  The
builders ``vertex_matrix`` and ``degree_form_matrix`` return it, so
``experiments`` can batch their matrices for the one exact kernel.

On regular graphs two levels of the support hierarchy need no kernel call:
``support_determinant_from_adjacency`` composes the vertex side at unit
weights, h, from char(A); circled, h is char(U+), and
``charpoly_support2_from_determinant`` takes char(support of U^2) from h;
each docstring proves the identity it rests on.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .exact import ExactDivisionError, Matrix, Poly, _int_mul, _int_sub, charpoly_exact
from .graphs import Graph
from .operators import _lift_arc_weights, coin_weights, random_walk_matrix


def _linearisation(rows: list[list[int]], diag: list[int], scale: int) -> Matrix:
    """L = [[A, -C], [I, 0]] for A = rows / scale and the diagonal C = diag / scale.

    Its characteristic polynomial is det(x^2 I - xA + C), monic of degree
    2n, since the Schur complement of the lower-right block xI gives
    det(xI - L) = x^n det(xI - A + C/x).
    """
    n = len(rows)
    top = [row + [-c if j == i else 0 for j in range(n)] for i, (row, c) in enumerate(zip(rows, diag))]
    bottom = [[scale if j == i else 0 for j in range(2 * n)] for i in range(n)]
    return Matrix.from_ints(top + bottom, scale)


def _times_binomial(c: list[int], k: int) -> list[int]:
    """The integer coefficient list c times (x^2 - 1)^k, one shift by 2 less c per factor."""
    for _ in range(k):
        c = [b - a for a, b in zip(c + [0, 0], [0, 0] + c)]
    return c


def apply_circle_prefactor(det_poly: Poly, exponent: int) -> Poly:
    """Multiply by (x^2 - 1)**exponent; negative exponents divide exactly.

    Works on the integer coefficients det_poly.ints and keeps its scale.  A
    division is one long division by the monic (x^2 - 1)^k, so its quotient
    and remainder are integral; a nonzero remainder raises ExactDivisionError.
    """
    c = list(det_poly.ints)
    if exponent >= 0:
        return Poly.from_ints(_times_binomial(c, exponent), det_poly.scale)
    divisor = _times_binomial([1], -exponent)
    tail = len(divisor) - 1
    quotient = [0] * max(len(c) - tail, 0)
    for k in reversed(range(len(quotient))):
        quotient[k] = q = c[k + tail]
        c[k : k + tail] = [x - q * v for x, v in zip(c[k : k + tail], divisor)]
    if any(c[:tail]):
        raise ExactDivisionError("inexact polynomial division", Poly.from_ints(c[:tail], det_poly.scale))
    return Poly.from_ints(quotient, det_poly.scale)


def circled(g: Graph, det: Poly) -> Poly:
    """det times the circle factor (x^2 - 1)^(m - n) of g."""
    return apply_circle_prefactor(det, g.m - g.n)


def vertex_matrix(g: Graph, weights: Sequence) -> Matrix:
    """The linearisation of x^2 I - xW + D_w - I for one weight per arc of g.arcs.

    The only place per-arc weights become W and D_w, in integers over the
    lcm s of the weight denominators.
    """
    scaled, scale = _lift_arc_weights(g, weights)
    w = [[0] * g.n for _ in range(g.n)]
    sums = [-scale] * g.n  # s times the diagonal of D_w - I
    for (o, t), x in zip(g.arcs, scaled):
        w[o][t] += x
        sums[o] += x
    return _linearisation(w, sums, scale)


def vertex_determinant(g: Graph, weights: Sequence) -> Poly:
    """det(x^2 I - xW + D_w - I) for one weight per arc of g.arcs: char(vertex_matrix)."""
    return charpoly_exact(vertex_matrix(g, weights))


def charpoly_u_via_walk_form(g: Graph) -> Poly:
    """Characteristic polynomial of U: the vertex side at the coin weights."""
    return circled(g, vertex_determinant(g, coin_weights(g)))


def degree_form_matrix(g: Graph) -> Matrix:
    """The linearisation of (x^2 + 1) I - 2x A D^-1.

    det((x^2 + 1) D - 2x A), divided by the product of the degrees, is
    det((x^2 + 1) I - 2x A D^-1); A D^-1 is the transpose of T, so this
    form shares its matrix with the coin-weight vertex determinant only
    on regular graphs, where T is symmetric.
    """
    t = random_walk_matrix(g).transpose()
    return _linearisation([[2 * x for x in row] for row in t.ints], [t.scale] * g.n, t.scale)


def charpoly_u_via_degree_form(g: Graph) -> Poly:
    """Characteristic polynomial of U from the degree-adjacency determinant, char(degree_form_matrix)."""
    return circled(g, charpoly_exact(degree_form_matrix(g)))


def charpoly_support_via_adjacency_form(g: Graph) -> Poly:
    """Characteristic polynomial of the support of U-transpose, vertex form.

    The vertex side at unit weights.  Valid for connected graphs of minimum
    degree 2, where the support equals the non-backtracking edge matrix.
    """
    if min(g.degrees) < 2:
        raise ValueError("support closed form requires minimum degree 2")
    return circled(g, vertex_determinant(g, [1] * (2 * g.m)))


def support_determinant_from_adjacency(g: Graph, char_a: Poly) -> Poly:
    """The vertex side at unit weights of a regular g, det(x^2 I - xA + (k - 1) I), from char_a, that of A.

    On a k-regular graph, k >= 2, it is x^n char_A((x^2 + k - 1) / x)
    = sum_i a_i (x^2 + k - 1)^i x^(n - i), for char_A = sum_i a_i y^i, so
    it is ``vertex_determinant(g, [1] * 2m)`` with no kernel call: circled,
    the characteristic polynomial of U+ (``charpoly_support_via_adjacency_form``).
    The sum runs by Horner's rule in integers, h <- h (x^2 + k - 1) + a_i x^(n - i)
    from h = a_n.  Raises ValueError unless g is regular of degree >= 2.
    """
    k = min(g.degrees)
    if not k == max(g.degrees) >= 2:
        raise ValueError("support closed form from adjacency requires a regular graph of degree >= 2")
    a = char_a.ints
    h = [a[g.n]]
    for i in reversed(range(g.n)):
        h = [(k - 1) * x + y for x, y in zip(h + [0, 0], [0, 0] + h)]
        h[g.n - i] += a[i]
    return Poly.from_ints(h, char_a.scale)


def charpoly_support2_from_determinant(g: Graph, h: Poly) -> Poly:
    """Characteristic polynomial of the support of U^2 from h, the vertex side at unit weights.

    With Tm and Om the arc-to-terminus and arc-to-origin incidence
    matrices, B = Tm Om^T, B J0 = Tm Tm^T, J0 B = Om Om^T and
    Om^T Tm = A, so (B - J0)^2 = Tm A Om^T - Tm Tm^T - Om Om^T + I.  On a
    simple graph of minimum degree 3 every coin weight 2/d is below 1, so a
    two-step term through a backtrack is negative and the diagonal
    (1 - 2/d)^2 positive: the support of (U^T)^2 is
    Tm A Om^T - Tm Tm^T - Om Om^T + 2I = (B - J0)^2 + I, and B - J0 is the
    pattern of U^T.  On a 2-regular graph the coin weight is 1, so
    U^T = B - J0 is a permutation matrix and the support of (U^T)^2 is
    (B - J0)^2.  So the roots are those of U+ squared, plus c = 1 at
    minimum degree 3 and c = 0 on a 2-regular graph; raises ValueError
    unless g is simple and one of the two.

    char(U+) = h (x^2 - 1)^(m - n) on these graphs, with h =
    ``vertex_determinant(g, [1] * 2m)`` of degree 2n, and root squaring is
    multiplicative.  Graeffe's step on h(x) = e(x^2) + x o(x^2) is
    h(x) h(-x) = e(x^2)^2 - x^2 o(x^2)^2, so q = e^2 - x o^2 has the squares
    of h's roots, and the circle factor's roots +1 and -1 square to
    (x - 1)^(2(m - n)).  The result is q(x - c), by Horner's rule, times
    the binomial expansion of (x - c - 1)^(2(m - n)).
    """
    if not (g.simple and (min(g.degrees) >= 3 or set(g.degrees) == {2})):
        raise ValueError("support of U^2 closed form requires a simple graph, 2-regular or of minimum degree 3")
    p = list(h.ints)
    q = _int_sub(_int_mul(p[::2], p[::2]), [0] + _int_mul(p[1::2], p[1::2]))
    c = 1 if min(g.degrees) >= 3 else 0
    shifted: list[int] = []
    for a in reversed(q):
        shifted = [x - c * y for x, y in zip([a] + shifted, shifted + [0])]
    k = 2 * (g.m - g.n)
    circle = [comb(k, i) * (-c - 1) ** (k - i) for i in range(k + 1)]  # (x - c - 1)^k
    return Poly.from_ints(_int_mul(shifted, circle), h.scale**2)
