"""Ihara zeta and second weighted zeta reciprocals, plus a cycle oracle.

The reciprocal of the zeta function is computed two independent ways: as
the arc-level determinant det(I - t(B_w - J0)) and through the vertex-level
three-term determinant with its (1 - t^2) prefactor.  Both go through the
one exact kernel: det(I - tM) is the coefficient reversal of char(M), and
the vertex form is the reversal of ``identities.vertex_determinant``,
det(x^2 I - xW + D_w - I) on the same per-arc weights, times the circle
factor (x^2 - 1)^k, k = m - n: ``edge_reciprocal`` and ``vertex_reciprocal``
finish each from its charpoly.  The two agree on every graph, forests and
disconnected graphs included.  The Ihara zeta is the unit-weight case, so
W = A and D_w = D.  Reversal is multiplicative and takes x^2 - 1 to
1 - t^2, so the factor is applied in one place,
``identities.apply_circle_prefactor``.  A brute-force Euler product
serves as a combinatorial cross-check on small matrices: by Amitsur's
identity, in the combinatorial proof of Foata and Zeilberger (Trans. AMS
1999), 1/det(I - tM) is a product over the prime cycle classes of the
digraph of any square matrix M, each weighted by the product of M's
entries around it.  The oracle reads the matrix it is given, so it checks
B - J0, U and B_w - J0 alike, and it multiplies each class into the series
as the walk of ``_walk_prime_classes`` emits it, so it keeps no class
list.  A truncated series is a plain list of its Fraction coefficients
0..order: the oracle returns one, and ``series_inverse`` expands 1/p(t)
into one by a recurrence in Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .exact import Matrix, Poly, charpoly_exact
from .graphs import Graph, SizeGuardError
from .identities import circled, vertex_determinant
from .operators import arc_operator, nonbacktracking_matrix

MAX_ORACLE_ARCS = 20
MAX_ORACLE_ORDER = 12
# the printed series grows about 4x as the order doubles: K12 prints 516 KB
# at order 1000 and 2 MB at 2000, while the paper's checks stop at order 12
MAX_SERIES_ORDER = 1000


def series_inverse(p: Poly, order: int) -> list[Fraction]:
    """Coefficients 0..order of the power series 1/p(t).

    With p = (a_0 + a_1 t + ...) / s over Python ints a_i, coefficient k is
    s N_k / a_0^(k+1), where N_0 = 1 and N_k = -sum_i a_i a_0^(i-1) N_(k-i):
    the recurrence runs in ints and each coefficient becomes one Fraction at
    the end.  A zero constant term is a ZeroDivisionError and a negative
    order a ValueError.
    """
    if order < 0:
        raise ValueError(f"series order must be >= 0, got {order}")
    a = p.ints
    if not a or a[0] == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    a0 = a[0]
    steps = [a[i] * a0 ** (i - 1) for i in range(1, min(p.degree, order) + 1)]
    nums = [1]
    for _ in range(order):
        nums.append(-sum(map(mul, steps, reversed(nums))))
    scale = p.scale
    return [Fraction(scale * n, a0 ** (k + 1)) for k, n in enumerate(nums)]


def edge_reciprocal(g: Graph, char: Poly) -> Poly:
    """det(I - tM) from char(M), for an arc matrix M of g: the coefficient reversal."""
    return char.reversed()


def vertex_reciprocal(g: Graph, det: Poly) -> Poly:
    """The vertex form from det(x^2 I - xW + D_w - I): times the circle factor, reversed."""
    return circled(g, det).reversed()


def ihara_reciprocal_edge_form(g: Graph) -> Poly:
    """1/zeta as det(I - t(B - J0)) over the arcs: char(B - J0) reversed."""
    return edge_reciprocal(g, charpoly_exact(nonbacktracking_matrix(g)))


def ihara_reciprocal_bass_form(g: Graph) -> Poly:
    """1/zeta as (1 - t^2)^(m - n) det(I - tA + t^2 (D - I)), on every graph.

    The reversal of (x^2 - 1)^(m - n) det(x^2 I - xA + D - I), the vertex
    side at unit weights.  m - n is the first Betti number minus the number
    of components, so the form holds on disconnected graphs too: both sides
    multiply over components.  It is always a polynomial: the edge form is
    one, so on a forest the negative power of 1 - t^2 divides exactly.
    """
    return vertex_reciprocal(g, vertex_determinant(g, [1] * (2 * g.m)))


class WeightedZetaForms(NamedTuple):
    edge_form: Poly
    bass_form: Poly


def weighted_zeta_reciprocal(g: Graph, weights: Sequence) -> WeightedZetaForms:
    """Both determinant forms of the second weighted zeta reciprocal.

    weights holds one weight per arc of g.arcs; a list of another
    length is a ValueError.  The edge form is det(I - t(B_w - J0)), where
    the step onto arc f weighs weights[f]; the vertex form is
    (1 - t^2)^(m - n) det(I - tW + t^2 (D_w - I)), with W[u][v] the sum of
    the weights of the arcs u -> v and D_w the diagonal of out-arc weight
    sums.  The two agree on every graph, multigraphs and forests included.
    The vertex form is a polynomial: the edge form is one, so the negative
    power of 1 - t^2 on a forest divides exactly.
    """
    edge = edge_reciprocal(g, charpoly_exact(arc_operator(g, weights)))
    return WeightedZetaForms(edge, vertex_reciprocal(g, vertex_determinant(g, weights)))


def _check_oracle_size(rows: int, order: int):
    """Raise SizeGuardError if the oracle's matrix or order is past its guard."""
    if rows > MAX_ORACLE_ARCS:
        raise SizeGuardError(f"cycle oracle limited to {MAX_ORACLE_ARCS} rows, got {rows}")
    if order > MAX_ORACLE_ORDER:
        raise SizeGuardError(f"cycle oracle limited to length {MAX_ORACLE_ORDER}, got {order}")


def _walk_prime_classes(m: Matrix, order: int, emit: Callable[[list[int], int], object]):
    """emit(path, weight) once per prime rotation class of closed walks of
    length 1..order in the digraph of m, which has an edge e -> f wherever
    m[e][f] is nonzero, in sorted order: path is the class's least rotation,
    a Lyndon word of indices, and weight the product of m.ints around it,
    carried along the path.  emit sees the walker's own path list and must
    copy what it keeps.

    The walk only extends prenecklaces, by the rule of the FKM necklace
    algorithm (Cattell, Ruskey, Sawada, Serra and Miers, J. Algorithms
    2000): with p the length of the longest Lyndon prefix of the path, the
    next index must be >= the one p steps back; p stays when it equals that
    index and becomes the new length otherwise.  A closed path is a Lyndon
    word exactly when p is its length, so each prime class comes out once.
    Every index of a prenecklace that begins at start is >= start, so from
    each start one breadth-first search over the predecessor lists gives
    dist[e], the fewest steps from e back to start through indices >= start
    (order where no such walk is shorter), and a step to nxt is taken only
    while dist[nxt] leaves room to close within the order: a path cut off
    has no completion.  closes[e] is the entry e -> start.  With one step
    left the walk takes only a step that closes the path and rises above the
    floor: any other last step ends a path that cannot close, or one whose
    p stays short of its length.  So the pruning loses no class.
    Order 0 gives no classes; a negative order or a non-square matrix is a
    ValueError, and a matrix or order past the oracle's guard SizeGuardError.
    """
    if not m.is_square:
        raise ValueError("cycle oracle needs a square matrix")
    size = m.rows
    _check_oracle_size(size, order)
    if order < 0:
        raise ValueError(f"cycle order must be >= 0, got {order}")
    lifted = m.ints
    successors = [[f for f, x in enumerate(row) if x] for row in lifted]
    predecessors: list[list[int]] = [[] for _ in range(size)]
    for e, row in enumerate(successors):
        for f in row:
            predecessors[f].append(e)
    path: list[int] = []

    def grow(last: int, period: int, weight: int):
        length = len(path)
        if closes[last] and period == length:
            emit(path, weight * closes[last])
        if length < order:
            floor = path[length - period]
            row = lifted[last]
            if length + 1 < order:
                budget = order - length
                for nxt in successors[last]:
                    if nxt >= floor and dist[nxt] <= budget:
                        path.append(nxt)
                        grow(nxt, period if nxt == floor else length + 1, weight * row[nxt])
                        path.pop()
            else:  # the last step: emit at once, or not at all
                for nxt in successors[last]:
                    if nxt > floor and closes[nxt]:
                        path.append(nxt)
                        emit(path, weight * row[nxt] * closes[nxt])
                        path.pop()

    for start in range(size if order else 0):
        closes = [row[start] for row in lifted]
        dist = [order] * size
        dist[start] = 0
        queue = [start]
        for u in queue:  # breadth first, so dist only grows along the queue
            d = dist[u] + 1
            if d >= order:
                break
            for e in predecessors[u]:
                if e > start and dist[e] > d:
                    dist[e] = d
                    queue.append(e)
        path = [start]
        grow(start, 1, 1)


def euler_product_oracle(m: Matrix, order: int) -> list[Fraction]:
    """Coefficients 0..order of 1/det(I - tm), as an Euler product.

    Amitsur's identity, proved combinatorially by Foata and Zeilberger
    (Trans. AMS 1999): 1/det(I - tM) is the product over prime classes C
    of 1/(1 - w(C) t^|C|), with w(C) the product of M's entries around C.
    With L = m.ints and s = m.scale, so M = L / s, each class that
    ``_walk_prime_classes`` emits multiplies the integer coefficients in
    place by 1 + w t^l + w^2 t^(2l) + ... with w its weight in L, and
    coefficient k is divided by s^k at the end.  No class list is kept, so
    memory stays O(order) beyond the walk's successor and predecessor lists.
    """
    _check_oracle_size(m.rows, order)  # before order sizes the list
    coeffs = [1] + [0] * order

    def multiply(path: list[int], weight: int):
        length = len(path)
        for k in range(length, order + 1):
            coeffs[k] += weight * coeffs[k - length]

    _walk_prime_classes(m, order, multiply)
    scale = m.scale
    return [Fraction(c, scale**k) for k, c in enumerate(coeffs)]
