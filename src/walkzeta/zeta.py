"""Ihara zeta and second weighted zeta reciprocals, plus a cycle oracle.

The reciprocal of the zeta function is computed two independent ways: as
the arc-level determinant det(I - t(B - J0)) and through the vertex-level
three-term determinant with its (1 - t^2) prefactor.  Both go through the
one exact kernel: det(I - tM) is the coefficient reversal of char(M), and
the vertex determinant is the reversal of det(x^2 I - xA + D - I), the
characteristic polynomial of its 2n x 2n linearisation (Bass 1992,
Kotani-Sunada 2000).  A brute-force Euler product over equivalence classes
of prime reduced cycles serves as a combinatorial cross-check on small
graphs; each class is enumerated once, from its least arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .exact import Matrix, Poly, RationalFunction, charpoly_exact, quadratic_charpoly
from .graphs import ArcSet, Graph, betti
from .identities import support_determinant_form
from .operators import nonbacktracking_matrix, weighted_edge_matrix, arc_matrices

MAX_ORACLE_ARCS = 20
MAX_ORACLE_ORDER = 12

ONE_MINUS_T_SQUARED = Poly((1, 0, -1))


class OracleSizeError(ValueError):
    """The cycle oracle was asked for more than the size guard allows."""


class PowerSeries:
    """Power series truncated at a fixed order, rational coefficients."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = [Fraction(c) for c in coeffs][: order + 1]
        cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls((1,), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "PowerSeries":
        return cls(p.coeffs, order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def _check_order(self, other: "PowerSeries"):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(
            (a + b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_order(other)
        return PowerSeries(
            (a - b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries((c * other for c in self.coeffs), self.order)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_order(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(self.order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, self.order)

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = Fraction(1) / a0
        out = [inv0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -acc * inv0
        return PowerSeries(out, self.order)

    def log(self) -> "PowerSeries":
        """Series logarithm; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        # d/dt log f = f'/f, integrated back with zero constant term
        deriv = PowerSeries(
            (k * c for k, c in enumerate(self.coeffs) if k), self.order
        )
        quotient = deriv * self.inverse()
        out = [Fraction(0)] * (self.order + 1)
        for k in range(1, self.order + 1):
            out[k] = quotient.coeffs[k - 1] / k
        return PowerSeries(out, self.order)

    def __repr__(self) -> str:
        return f"PowerSeries({[str(c) for c in self.coeffs]}, order={self.order})"


@dataclass(frozen=True)
class CycleClass:
    """Rotation class of a reduced closed arc sequence, canonical form."""

    arcs: tuple[int, ...]
    prime: bool

    @property
    def length(self) -> int:
        return len(self.arcs)


def ihara_reciprocal_edge_form(arcs: ArcSet) -> Poly:
    """1/zeta as det(I - t(B - J0)) over the arcs: char(B - J0) reversed."""
    return Poly(charpoly_exact(nonbacktracking_matrix(arcs)).reversed_coeffs())


def ihara_reciprocal_bass_form(g: Graph) -> RationalFunction:
    """1/zeta as (1 - t^2)^(r - 1) det(I - tA + t^2 (D - I)).

    r is the first Betti number; for trees the exponent is negative and the
    result is a genuine rational function.  The determinant is the
    reversal of the support form det(x^2 I - xA + D - I).
    """
    det = Poly(support_determinant_form(g).reversed_coeffs())
    prefactor = RationalFunction.from_power(ONE_MINUS_T_SQUARED, betti(g) - 1)
    return prefactor * det


class WeightedZetaForms(NamedTuple):
    edge_form: Poly
    bass_form: RationalFunction


def weighted_zeta_reciprocal(arcs: ArcSet, weights: Matrix) -> WeightedZetaForms:
    """Both determinant forms of the second weighted zeta reciprocal.

    The edge form is det(I - t(B_w - J0)) on arcs; the vertex form is
    (1 - t^2)^(m - n) det(I - tW + t^2 (D_w - I)) with D_w the diagonal of
    out-arc weight sums.  The two agree on simple graphs; an n x n weight
    matrix cannot see parallel-edge multiplicity, so on multigraphs the
    forms genuinely differ.
    """
    n = weights.rows
    bw = weighted_edge_matrix(arcs, weights)  # validates the weight support
    edge = Poly(charpoly_exact(bw - arc_matrices(arcs).inversion).reversed_coeffs())
    shifted_sums = [Fraction(-1)] * n  # diagonal of D_w - I
    for a in range(len(arcs)):
        shifted_sums[arcs.origin(a)] += weights[arcs.origin(a), arcs.terminus(a)]
    det = Poly(quadratic_charpoly(weights, shifted_sums).reversed_coeffs())
    prefactor = RationalFunction.from_power(ONE_MINUS_T_SQUARED, arcs.m - n)
    return WeightedZetaForms(edge, prefactor * det)


def _least_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def _is_primitive(seq: tuple[int, ...]) -> bool:
    length = len(seq)
    for period in range(1, length):
        if length % period == 0 and seq == seq[period:] + seq[:period]:
            return False
    return True


def prime_cycle_classes(arcs: ArcSet, order: int) -> list[CycleClass]:
    """All rotation classes of reduced closed cycles up to the given length.

    Reduced means no step backtracks, including around the wrap.  Classes
    are canonicalized by least rotation and marked prime when the sequence
    is not a power of a shorter one.  Each class is enumerated from its
    least arc: from start arc s the walk takes only arcs >= s.  The least
    arc can recur in a cycle (powers, figure-eights), so every closed walk
    is still canonicalized.  Order 0 gives no classes; a negative order is
    a ValueError.  Guarded to 2m <= 20 arcs and length <= 12; cost grows
    exponentially past that.
    """
    size = len(arcs)
    if size > MAX_ORACLE_ARCS:
        raise OracleSizeError(f"cycle oracle limited to {MAX_ORACLE_ARCS} arcs, got {size}")
    if order > MAX_ORACLE_ORDER:
        raise OracleSizeError(f"cycle oracle limited to length {MAX_ORACLE_ORDER}, got {order}")
    if order < 0:
        raise ValueError(f"cycle order must be >= 0, got {order}")
    successors = [
        [f for f in range(size) if arcs.terminus(e) == arcs.origin(f) and f != arcs.inverse(e)]
        for e in range(size)
    ]
    seen: set[tuple[int, ...]] = set()
    path: list[int] = []

    def grow(last: int):
        if closes[last]:
            seen.add(_least_rotation(tuple(path)))
        if len(path) < order:
            for nxt in upward[last]:
                path.append(nxt)
                grow(nxt)
                path.pop()

    for start in range(size if order else 0):
        closes = [start in succ for succ in successors]
        upward = [[f for f in succ if f >= start] for succ in successors]
        path = [start]
        grow(start)
    return [CycleClass(c, _is_primitive(c)) for c in sorted(seen)]


def euler_product_oracle(arcs: ArcSet, order: int) -> PowerSeries:
    """Truncated Euler product over prime cycle classes up to the order.

    Each class of length L multiplies the integer coefficients in place by
    1 / (1 - t^L) = 1 + t^L + t^(2L) + ...
    """
    coeffs = [1] + [0] * order
    for cls in prime_cycle_classes(arcs, order):
        if not cls.prime:
            continue
        for k in range(cls.length, order + 1):
            coeffs[k] += coeffs[k - cls.length]
    return PowerSeries(coeffs, order)


def cycle_norm(cycle: CycleClass, weights: Matrix, arcs: ArcSet) -> Fraction:
    """Product of the arc weights along the cycle."""
    norm = Fraction(1)
    for a in cycle.arcs:
        norm *= weights[arcs.origin(a), arcs.terminus(a)]
    return norm


def inverse_cycle_class(cycle: CycleClass, arcs: ArcSet) -> CycleClass:
    """The class of the reversed cycle (inverse arcs in opposite order)."""
    rev = tuple(arcs.inverse(a) for a in reversed(cycle.arcs))
    return CycleClass(_least_rotation(rev), cycle.prime)
