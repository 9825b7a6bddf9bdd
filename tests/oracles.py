"""Independent slow oracles used only by the tests.

These deliberately use different algorithms from the package, which reads
every determinant off a characteristic polynomial by Berkowitz's algorithm:
permutation expansion for determinants and the Faddeev-LeVerrier trace
recursion for characteristic polynomials.
"""

from fractions import Fraction
from itertools import permutations

from walkzeta.exact import Matrix, Poly


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
