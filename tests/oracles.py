"""Independent slow oracles used only by the tests.

These deliberately use different algorithms from the package, which reads
every determinant off a characteristic polynomial computed by Berkowitz's
algorithm or, from 16 rows on, by a multimodular Hessenberg kernel:
permutation expansion for determinants and the Faddeev-LeVerrier trace
recursion for characteristic polynomials, and an unpruned walk from every
start arc for the reduced cycle classes.
"""

from fractions import Fraction
from itertools import permutations

from walkzeta.exact import Matrix, Poly
from walkzeta.graphs import ArcSet
from walkzeta.zeta import CycleClass


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


def faddeev_leverrier(a: Matrix) -> Poly:
    """Characteristic polynomial via the Faddeev-LeVerrier recursion (n <= 8)."""
    n = a.rows
    ident = Matrix.identity(n)
    descending = [Fraction(1)]
    work = None
    for k in range(1, n + 1):
        work = a if k == 1 else a * (work + descending[-1] * ident)
        descending.append(-work.trace() / k)
    return Poly(list(reversed(descending)))


def reduced_cycle_classes_bruteforce(arcs: ArcSet, order: int) -> list[CycleClass]:
    """Rotation classes of reduced closed cycles of length 1..order.

    Walks every non-backtracking path from every one of the 2m start arcs,
    so each class is found once per arc it contains, and keeps the least
    rotation of each closed one.  A class is prime when no nontrivial
    rotation of it equals itself.
    """
    size = len(arcs)
    successors = [
        [f for f in range(size) if arcs.terminus(e) == arcs.origin(f) and f != arcs.inverse(e)]
        for e in range(size)
    ]
    seen = set()

    def grow(path):
        last, first = path[-1], path[0]
        if arcs.terminus(last) == arcs.origin(first) and first != arcs.inverse(last):
            seen.add(min(path[i:] + path[:i] for i in range(len(path))))
        if len(path) < order:
            for nxt in successors[last]:
                grow(path + (nxt,))

    for start in range(size if order > 0 else 0):
        grow((start,))
    return [
        CycleClass(c, all(c != c[p:] + c[:p] for p in range(1, len(c))))
        for c in sorted(seen)
    ]
