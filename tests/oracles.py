"""Independent slow oracles used only by the tests.

These deliberately use different algorithms from the package, which reads
every determinant off a characteristic polynomial computed mod primes and
combined by CRT: by power sums and Newton's identities while one
power-sum slice fits CHUNK_BYTES and by Hessenberg reduction otherwise.  The
package builds every arc matrix from per-vertex lists of leaving arcs.
The oracles are permutation expansion for determinants, Berkowitz's
division-free algorithm and the Faddeev-LeVerrier recursion for
characteristic polynomials, U and B - J0 entry by entry from their
definitions over all arc pairs, and Yun's square-free split in Fraction
arithmetic with a Euclidean gcd over Q, where the package splits in Z[x]
with a primitive remainder sequence.  Faddeev-LeVerrier shares the trace
recursion (Newton's identities) with the package's power-sum kernel, so
below the crossover Berkowitz, which takes no traces and divides by
nothing, is the check that shares no algorithm with the package.

The prime cycle classes of a matrix come from an unpruned walk from every
start index that takes the minimum over all rotations of each closed walk
and keeps it when no nontrivial rotation equals it.  The package prunes its
walk to Lyndon words; this one stays unpruned so that it shares no rule
with it.

The power series of 1/p(t) comes from the recurrence on p's Fraction
coefficients, c_k = -(1/a_0) sum_i a_i c_(k-i), where the package runs an
integer recurrence and divides once per coefficient at the end.

The support of U^3 on a regular graph comes from a sign rule on each arc
pair, in vertex terms, where the package takes the sign pattern of the
integer matrix power.

The arc matrices by definition share only the arc layout with the package:
they read the order of ``g.arcs``, ``g.inverse_arc`` and the degrees
``g.degrees``, which ``tests/test_graphs.py`` checks against networkx on
the graphs that ``relabelled_multigraphs`` draws.

``matmul`` and ``trace`` are the tests' only matrix arithmetic, on integer
rows and scales.  ``FractionPoly`` is the tests' only polynomial
arithmetic: a ``Poly`` with Fraction operators, so that expected values
read as ``X**2 - 1``.  ``conjugate_closed`` compares a spectrum with its
conjugate; ``relabelled_multigraphs`` draws a connected multigraph and a
relabelling of it.
"""

from fractions import Fraction
from itertools import permutations
from operator import mul

import numpy as np
from hypothesis import strategies as st

from walkzeta.exact import Matrix, Poly
from walkzeta.graphs import Graph
from walkzeta.spectra import DEFAULT_TOLERANCE, SpectrumMultiset, compare


class FractionPoly(Poly):
    """A Poly with Fraction arithmetic: +, -, *, ** by an int, evaluation,
    derivative, monic and division with remainder.

    Every operation reads the Fraction view ``coeffs`` and returns a new
    FractionPoly; the other operand may be any Poly, an int or a Fraction.
    Equality and hashing are Poly's, so a FractionPoly equals the Poly with
    the same coefficients.
    """

    __slots__ = ()

    @classmethod
    def of(cls, p: Poly) -> "FractionPoly":
        return cls.from_ints(p.ints, p.scale)

    @classmethod
    def zero(cls) -> "FractionPoly":
        return cls()

    @classmethod
    def one(cls) -> "FractionPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "FractionPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "FractionPoly":
        return cls((c,))

    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.scale)

    @staticmethod
    def _operand(other):
        if isinstance(other, Poly):
            return other.coeffs
        if isinstance(other, (int, Fraction)):
            return (Fraction(other),)
        return None

    def __add__(self, other) -> "FractionPoly":
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "FractionPoly":
        b = self._operand(other)
        return NotImplemented if b is None else self + FractionPoly(-c for c in b)

    def __rsub__(self, other) -> "FractionPoly":
        return -self + other

    def __mul__(self, other) -> "FractionPoly":
        b = self._operand(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if not a or not b:
            return FractionPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FractionPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = FractionPoly.one()
        for _ in range(k):
            result = result * self
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; works for Fraction, float or complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "FractionPoly":
        return FractionPoly(k * c for k, c in enumerate(self.coeffs) if k)

    def monic(self) -> "FractionPoly":
        if not self.ints:
            raise ValueError("cannot normalize the zero polynomial")
        return self * (1 / self.leading())

    def divmod(self, other: Poly) -> tuple["FractionPoly", "FractionPoly"]:
        """Division with remainder in Fractions."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = rem[k + len(b) - 1] / b[-1]
            for j, v in enumerate(b):
                rem[k + j] -= c * v
        return FractionPoly(quo), FractionPoly(rem[: len(b) - 1])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product ab."""
    if a.cols != b.rows:
        raise ValueError("inner dimensions do not match")
    cols = list(zip(*b.ints))
    product = [[sum(map(mul, row, col)) for col in cols] for row in a.ints]
    return Matrix.from_ints(product, a.scale * b.scale)


def trace(a: Matrix) -> Fraction:
    return Fraction(sum(a.ints[i][i] for i in range(a.rows)), a.scale)


def perm_det(m: Matrix) -> Fraction:
    """Determinant by the Leibniz permutation expansion (n <= 7)."""
    n = m.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Fraction(-1) if inversions % 2 else Fraction(1)
        for i in range(n):
            term *= m[i, perm[i]]
            if term == 0:
                break
        total += term
    return total


def berkowitz(lifted: list[list[int]]) -> list[int]:
    """Descending coefficients of det(xI - L) by Berkowitz's algorithm (1984).

    The leading block of L grows one row and column at a time: with A the
    current k x k block, a the new diagonal entry, C the column above it and
    R the row to its left, char of the grown block is the Toeplitz matrix of
    (1, -a, -RC, -RAC, ..., -RA^(k-1)C) times char(A), by integer products
    and sums only.
    """
    p = [1]  # descending coefficients of char of the leading k x k block
    for k, row in enumerate(lifted):
        block = [r[:k] for r in lifted[:k]]
        left = row[:k]
        q = [1, -row[k]]
        v = [r[k] for r in lifted[:k]]
        for _ in range(k):
            q.append(-sum(map(mul, left, v)))
            v = [sum(map(mul, b, v)) for b in block]
        p = [sum(q[i - j] * p[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return p


def faddeev_leverrier(a: Matrix) -> FractionPoly:
    """char(a) by the Faddeev-LeVerrier recursion on numpy Fraction arrays (n <= 8)."""
    n = a.rows
    m = np.array(a.data, dtype=object).reshape(n, n)
    descending = [Fraction(1)]
    for k in range(1, n + 1):
        work = m if k == 1 else m @ (work + descending[-1] * np.identity(n, dtype=object))
        descending.append(-work.trace() / k)
    return FractionPoly(list(reversed(descending)))


def transition_matrix_by_definition(g: Graph) -> Matrix:
    """U entry by entry: U[e][f] = 2/deg(o(e)) when f ends at the origin of
    e, less 1 when f is the inverse of e."""
    arcs, degrees = g.arcs, g.degrees
    size = len(arcs)
    data = [[Fraction(0)] * size for _ in range(size)]
    for e in range(size):
        coin = Fraction(2, degrees[arcs[e][0]])
        for f in range(size):
            if arcs[f][1] == arcs[e][0]:
                data[e][f] = coin - 1 if f == g.inverse_arc(e) else coin
    return Matrix(data)


def nonbacktracking_by_definition(g: Graph) -> Matrix:
    """B - J0 as the 0/1 arc adjacency B minus the arc inversion J0."""
    arcs = g.arcs
    size = len(arcs)
    return Matrix(
        [
            [int(arcs[e][1] == arcs[f][0]) - int(g.inverse_arc(e) == f) for f in range(size)]
            for e in range(size)
        ]
    )


def support_u3_by_sign_rule(g: Graph) -> Matrix:
    """The support of (U^T)^3 on a simple k-regular graph, one sign per arc pair.

    U^T = P - J0 with P[e][f] = (2/k) [t(e) = o(f)], and in the expansion
    of (P - J0)^3 the terms -P J0 P + 2P cancel at one degree k.  What is
    left, times k^3, is the (e, f) entry
    8 A^2[t(e), o(f)] - 4k (A[t(e), t(f)] + A[o(e), o(f)])
    + 2k^2 [o(e) = t(f)] - k^3 [f = inverse(e)],
    read here entry by entry with A built from the edge list.
    """
    degrees = g.degrees
    if not (g.simple and min(degrees) == max(degrees)):
        raise ValueError("the sign rule needs a simple regular graph")
    k, arcs = degrees[0], g.arcs
    adj = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = 1
    adj2 = [[sum(map(mul, row, col)) for col in zip(*adj)] for row in adj]

    def entry(e, f):
        (oe, te), (of, tf) = arcs[e], arcs[f]
        return (
            8 * adj2[te][of]
            - 4 * k * (adj[te][tf] + adj[oe][of])
            + 2 * k**2 * (oe == tf)
            - k**3 * (f == g.inverse_arc(e))
        )

    size = len(arcs)
    return Matrix([[int(entry(e, f) > 0) for f in range(size)] for e in range(size)])


def reduced_cycle_classes_bruteforce(m: Matrix, order: int) -> list[tuple[int, ...]]:
    """Prime rotation classes of closed walks of length 1..order in the
    digraph of m, which has an edge e -> f wherever m[e][f] is nonzero.

    Walks every path from every start index, so each class is found once
    per index it contains, and keeps the least rotation of each closed one.
    A class is prime when no nontrivial rotation of it equals itself; the
    sorted prime classes are returned.  On B - J0 the closed walks are the
    reduced cycles of the graph.
    """
    size = m.rows
    successors = [[f for f in range(size) if m[e, f] != 0] for e in range(size)]
    seen = set()

    def grow(path):
        if path[0] in successors[path[-1]]:
            seen.add(min(path[i:] + path[:i] for i in range(len(path))))
        if len(path) < order:
            for nxt in successors[path[-1]]:
                grow(path + (nxt,))

    for start in range(size if order > 0 else 0):
        grow((start,))
    return [c for c in sorted(seen) if all(c != c[p:] + c[:p] for p in range(1, len(c)))]


def series_inverse_by_fractions(p: Poly, order: int) -> list[Fraction]:
    """Coefficients 0..order of the power series 1/p(t), in Fractions."""
    a = p.coeffs
    if not a or a[0] == 0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    inv0 = 1 / a[0]
    out = [inv0]
    for k in range(1, order + 1):
        acc = sum(a[i] * out[k - i] for i in range(1, min(k, p.degree) + 1))
        out.append(-acc * inv0)
    return out


def fraction_gcd(a: Poly, b: Poly) -> FractionPoly:
    """Monic gcd by Euclid's algorithm with Fraction remainders."""
    a, b = FractionPoly.of(a), FractionPoly.of(b)
    while b:
        a, b = b, a.divmod(b)[1]
    return a.monic() if a else a


def fraction_divexact(p: FractionPoly, q: Poly) -> FractionPoly:
    quo, rem = p.divmod(q)
    assert rem.is_zero(), f"inexact division, remainder {rem!r}"
    return quo


def square_free_by_fractions(p: Poly) -> list[tuple[FractionPoly, int]]:
    """Yun's algorithm on monic Fraction polynomials: (factor, multiplicity)
    pairs, each factor monic and square free."""
    p = FractionPoly.of(p).monic()
    if p.degree < 1:
        return []
    out = []
    g = fraction_gcd(p, p.derivative())
    c = fraction_divexact(p, g)
    d = fraction_divexact(p.derivative(), g) - c.derivative()
    i = 1
    while c.degree > 0:
        f = fraction_gcd(c, d)
        if f.degree > 0:
            out.append((f, i))
        c = fraction_divexact(c, f)
        d = fraction_divexact(d, f) - c.derivative()
        i += 1
    return out


def conjugate_closed(spectrum: SpectrumMultiset, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """True when the multiset equals its own conjugate within tolerance."""
    conj = SpectrumMultiset(tuple(z.conjugate() for z in spectrum.values))
    return compare(spectrum, conj, tolerance).equal


@st.composite
def relabelled_multigraphs(draw, min_n=1, max_n=7, max_edges=10):
    """A connected multigraph on min_n..max_n vertices with at most
    max_edges edges, and the same graph relabelled: its vertices permuted,
    its edges shuffled and some of them reversed."""
    n = draw(st.integers(min_n, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    if n > 1:
        edges += draw(st.lists(pair, max_size=max_edges - len(edges)))
    perm = draw(st.permutations(range(n)))
    shuffled = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    relabelled = [
        (perm[v], perm[u]) if flip else (perm[u], perm[v])
        for (u, v), flip in zip(shuffled, flips)
    ]
    return Graph(n, tuple(edges)), Graph(n, tuple(relabelled))
