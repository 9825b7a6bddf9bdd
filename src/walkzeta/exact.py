"""Exact rational linear algebra: polynomials, matrices, one determinant kernel.

Both types hold integers over one positive scale, made canonical once
when built.  ``Poly`` holds ascending integer coefficients ``ints`` over a
``scale``, p = ints / scale; ``Matrix`` holds integer rows L over a scale
s, M = L / s.  The kernels work in Python ints, so every result is exact.
``square_free_decomposition`` (Yun 1976) runs on primitive integer
coefficient lists: each divisor is a primitive gcd, so each quotient is
integral by Gauss's lemma, and each returned factor a is the monic
a / lead(a).  There is one determinant kernel, ``charpolys_exact``, for
a batch of square matrices of any sizes; ``charpoly_exact`` is a batch
of one.  It reads each L and s and takes one of two paths, split at
HESSENBERG_MIN_DIM = 13 rows:

- below 13 rows, Berkowitz's division-free algorithm in Python ints, one
  matrix at a time;
- from 13 rows on, Hessenberg reduction mod primes sized from n (17 bits
  for 23-63 rows, 16 for 64-181, 15 for 182-511), one kernel call per
  size with one prime list, sized from the largest proven Hadamard bound
  on the coefficients of the batch's matrices; the (matrix mod prime)
  slices of the whole batch go at once into one numpy int64 array,
  reducing O(n) entries per elimination step while the rest stay under a
  proven int64 bound, then one set of CRT weights serves every matrix.

Berkowitz costs O(n^4) big-integer operations, the numpy kernel O(n^3)
word operations per prime plus a fixed cost of some 0.3 ms per call.
On random 0/1, integer and rational matrices (2-CPU x86-64 Linux host,
numpy 2.4) the two are level at 12 rows; the numpy kernel is 3.3-3.4
times slower at 6 rows and 8-50 times faster at 40-96, and most closed
forms of small graphs fall below the crossover.

Every determinant the package needs is fed to the kernel as one constant
matrix, built by its caller as integer rows over one scale: an arc-level
determinant det(I - tM) is the coefficient reversal of char(M), and
``identities`` builds the linearisation of its vertex-level quadratic
determinants.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence

import numpy as np


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was expected to be exact left a remainder."""

    def __init__(self, message: str, remainder: "Poly"):
        super().__init__(f"{message}; remainder {remainder!r}")
        self.remainder = remainder

    @classmethod
    def dividing(cls, a: list[int], b: list[int], scale: int = 1) -> "ExactDivisionError":
        """The error for (a / scale) / b, a and b integer lists, b nonzero.

        After the k steps of the pseudo-division lead(b)^k a = qb + r, so
        the remainder in Q[x] is r / (scale lead(b)^k), in integers.
        """
        rem, steps = _int_pseudo_rem(a, b)
        d = scale * b[-1] ** steps
        remainder = Poly.from_ints(rem if d > 0 else [-x for x in rem], abs(d))
        return cls("inexact polynomial division", remainder)


class Poly:
    """Univariate polynomial over the rationals: integer ``ints`` over one positive ``scale``.

    Coefficient k, of x**k, is ints[k] / scale; ints has no trailing zeros,
    and the pair is canonical as in ``Matrix``: no prime divides scale and
    every coefficient, so the zero polynomial, with empty ints and degree
    -1, has scale 1.  ``Poly(rationals)`` lifts ascending rationals;
    ``from_ints`` takes integers over a scale and reduces them.  Instances
    are immutable and hashable.
    """

    __slots__ = ("ints", "scale")

    def __init__(self, coeffs: Iterable = ()):
        (ints,), scale = _lift([coeffs])
        self._fill(ints, scale)

    @classmethod
    def from_ints(cls, ints: Iterable[int], scale: int = 1) -> "Poly":
        """The polynomial ints / scale, for ascending Python ints and a positive scale."""
        (ints,), scale = _reduced([list(ints)], scale)
        p = cls.__new__(cls)
        p._fill(ints, scale)
        return p

    def _fill(self, ints: list[int], scale: int):
        while ints and ints[-1] == 0:
            ints.pop()
        self.ints, self.scale = tuple(ints), scale

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending, computed afresh on each read."""
        return tuple(Fraction(c, self.scale) for c in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.scale == other.scale and self.ints == other.ints

    def __hash__(self):
        return hash((self.scale, self.ints))

    def reversed(self) -> "Poly":
        """x^deg p(1/x): the coefficients read back to front."""
        return Poly.from_ints(self.ints[::-1], self.scale)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def format(self, var: str = "t") -> str:
        """Human-readable form like '1 - 2*t^3 + t^6'."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.to_strings()})"


def _lift(rows: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """The rational rows times s as Python ints, and s, the lcm of their
    reduced denominators; no prime divides s and every entry."""
    rows = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in rows]
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _reduced(rows: list[list[int]], scale: int) -> tuple[list[list[int]], int]:
    """Integer rows over a positive scale, divided by their gcd with the scale."""
    if scale < 1:
        raise ValueError(f"scale must be a positive int, got {scale}")
    g = gcd(scale, *chain.from_iterable(rows)) if scale > 1 else 1
    if g > 1:
        rows, scale = [[x // g for x in row] for row in rows], scale // g
    return rows, scale


def _int_primitive(ints: list[int]) -> list[int]:
    while ints and ints[-1] == 0:
        ints.pop()
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _int_pseudo_rem(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """(r, k): the pseudo-remainder r of integer polynomials (b nonzero) after k steps.

    Each step multiplies by lead(b), so lead(b)^k a = qb + r.
    """
    rem = list(a)
    lead_b = b[-1]
    steps = 0
    while len(rem) >= len(b) and rem:
        steps += 1
        shift = len(rem) - len(b)
        lead_r = rem[-1]
        if lead_b != 1:
            rem[:shift] = [c * lead_b for c in rem[:shift]]
        rem[shift:] = [c * lead_b - lead_r * v for c, v in zip(rem[shift:], b)]
        while rem and rem[-1] == 0:
            rem.pop()
    return rem, steps


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, leading coefficient positive, by a primitive remainder sequence.

    a and b are integer coefficient lists, not both zero.
    """
    x, y = _int_primitive(list(a)), _int_primitive(list(b))
    while y:
        x, y = y, _int_primitive(_int_pseudo_rem(x, y)[0])
    return x


def _int_divexact(a: list[int], b: list[int], scale: int = 1) -> list[int]:
    """a / b in Z[x] for a primitive b; ExactDivisionError unless b divides a.

    By Gauss's lemma a quotient by a primitive divisor is integral whenever
    it exists in Q[x], so a leading coefficient that does not divide, or a
    nonzero remainder, means b does not divide a at all.  The error's
    remainder is that of a / scale.
    """
    rem = list(a)
    lead = b[-1]
    tail = len(b) - 1
    quo = [0] * max(len(rem) - tail, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + tail], lead)
        if r:
            break
        quo[k] = c
        if c:
            rem[k : k + tail] = [x - c * v for x, v in zip(rem[k : k + tail], b)]
    else:
        if not any(rem[:tail]):
            return quo
    raise ExactDivisionError.dividing(a, b, scale)


def _int_derivative(a: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and out[-1] == 0:
        out.pop()
    return out


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm (1976) on primitive integer coefficient lists.

    Returns pairs (factor, multiplicity) with each factor monic, square free
    and pairwise coprime; the product of factor**multiplicity is p made
    monic.  f is the primitive part of p.ints.  Every divisor is a
    primitive gcd, so every quotient is integral (Gauss's lemma) and each
    step stays in Python ints; a factor a becomes the monic a / lead(a)
    only when it is returned.
    """
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    f = _int_primitive(list(p.ints))
    if len(f) < 2:
        return []
    out: list[tuple[Poly, int]] = []
    df = _int_derivative(f)
    g = _int_gcd(f, df)
    c = _int_divexact(f, g)
    d = _int_sub(_int_divexact(df, g), _int_derivative(c))
    i = 1
    while len(c) > 1:
        a = _int_gcd(c, d)
        if len(a) > 1:
            out.append((Poly.from_ints(a, a[-1]), i))
        c = _int_divexact(c, a)
        d = _int_sub(_int_divexact(d, a), _int_derivative(c))
        i += 1
    return out


class Matrix:
    """Dense rational matrix: integer rows ``ints`` over one positive ``scale``.

    Entry (i, j) is ints[i][j] / scale, and the pair is canonical: scale is
    the lcm of the reduced entry denominators, so no prime divides it and
    every entry.  ``Matrix(rows)`` lifts rational rows; ``from_ints`` takes
    integer rows over a scale and reduces them.  Treat as immutable.
    """

    __slots__ = ("rows", "cols", "ints", "scale")

    def __init__(self, data: Iterable[Iterable]):
        self._fill(*_lift(data))

    @classmethod
    def from_ints(cls, ints: Iterable[Iterable[int]], scale: int = 1) -> "Matrix":
        """The matrix ints / scale, for rows of Python ints and a positive scale."""
        ints, scale = _reduced([list(row) for row in ints], scale)
        m = cls.__new__(cls)
        m._fill(ints, scale)
        return m

    def _fill(self, ints: list[list[int]], scale: int):
        self.ints, self.scale = ints, scale
        self.rows = len(ints)
        self.cols = len(ints[0]) if ints else 0
        if any(len(row) != self.cols for row in ints):
            raise ValueError("ragged rows")

    @property
    def data(self) -> list[list[Fraction]]:
        """The entries as Fractions, computed afresh on each read."""
        return [[Fraction(x, self.scale) for x in row] for row in self.ints]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self.ints[i][j], self.scale)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.scale == other.scale and self.ints == other.ints

    def __hash__(self):
        return hash((self.scale, tuple(map(tuple, self.ints))))

    def transpose(self) -> "Matrix":
        """The transpose; ValueError for r x 0 with r > 0, since rows cannot hold 0 x r."""
        if self.rows and not self.cols:
            raise ValueError(f"cannot transpose a {self.rows}x0 matrix")
        return Matrix.from_ints(zip(*self.ints), self.scale)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


HESSENBERG_MIN_DIM = 13  # Berkowitz below, the numpy kernel from here on (module docstring)
# The search for the primes of an n-row kernel call starts here and comes
# down to _prime_bits(n), the int64 bound of its delayed reduction.
PRIME_BITS = 31
# The most bytes of one (primes, n, n) int64 block; more primes than fit
# are reduced one chunk after another.  In a sweep of 2^17-2^21 bytes over
# 42-336 rows, 2^20 ran 64-192 rows up to twice as fast as 2^18, at twice
# the peak memory; at 336 rows one prime fills either.
CHUNK_BYTES = 2**18

_PRIMES: dict[int, list[int]] = {}  # bits -> the primes below 2^bits, descending, found on demand


def _prime_bits(n: int) -> int:
    """The largest b <= PRIME_BITS with (2^b + n 4^b)(1 + n 2^b) < 2^63.

    For primes p < 2^b every entry of the n-row lazily reduced kernel stays
    below 2^b + n 4^b, and a column update of such entries stays in int64.
    """
    b = PRIME_BITS
    while (2**b + n * 4**b) * (1 + n * 2**b) >= 2**63:
        b -= 1
    return b


def _is_prime(n: int) -> bool:
    """Trial division by 2 and by the odd d <= isqrt(n)."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))


def _primes_exceeding(bound: int, bits: int) -> list[int]:
    """The largest odd primes below 2^bits, as few as make a product > bound."""
    primes = _PRIMES.setdefault(bits, [])
    count, product = 0, 1
    while product <= bound:
        if count == len(primes):
            c = primes[-1] - 2 if primes else 2**bits - 1
            while c >= 3 and not _is_prime(c):
                c -= 2
            if c < 3:
                raise ValueError(f"the odd primes below 2^{bits} multiply to less than {bound}")
            primes.append(c)
        product *= primes[count]
        count += 1
    return primes[:count]


def _berkowitz(lifted: list[list[int]]) -> list[int]:
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


def _coefficient_bound(lifted: list[list[int]]) -> int:
    """A proven bound on |coefficient| of det(xI - L), for an integer L.

    The coefficient of x^(n-k) is (-1)^k times the sum of the k x k
    principal minors of L.  By Hadamard's inequality the minor on rows S is
    at most the product over i in S of the norms of its rows, and each of
    those is at most ||r_i||, the Euclidean norm of the full row i of L.  So
    the coefficient is at most e_k(||r_1||, ..., ||r_n||) <= prod(1 + ||r_i||)
    in absolute value, and ||r_i|| <= isqrt(sum_j L_ij^2) + 1.  Only this
    bound fixes how many primes are used: a CRT value that stops changing
    as primes are added proves nothing.
    """
    return prod(isqrt(sum(x * x for x in row)) + 2 for row in lifted)


def _hessenberg_charpolys(batch: list[list[list[int]]]) -> list[list[int]]:
    """Descending coefficients of det(xI - L) for each integer L of one size, multimodular.

    The call takes one list of primes below 2^b, b = _prime_bits(n), with a
    product M above twice the batch's largest _coefficient_bound, so every
    coefficient is its residue mod M taken symmetrically about 0.  The
    (L mod p) slices form a grid of matrices x primes, taken in chunks of
    at most CHUNK_BYTES of int64 residues (_charpoly_residues), and one
    list of CRT weights serves every L.
    """
    n = len(batch[0])
    primes = _primes_exceeding(2 * max(map(_coefficient_bound, batch)), _prime_bits(n))
    q = primes[0]  # the largest prime below 2^bits
    assert (q + n * q * q) * (1 + n * q) < 2**63, "the lazy kernel would overflow int64"
    try:
        stack = np.array(batch, dtype=np.int64).reshape(len(batch), n, n)
    except OverflowError:  # an entry beyond int64: reduce it as a Python int
        stack = np.array(batch, dtype=object).reshape(len(batch), n, n)
    count = len(primes)
    moduli = np.array(primes, dtype=stack.dtype)
    step = max(1, CHUNK_BYTES // (8 * n * n or 1))
    residues = []
    for s in range(0, len(batch) * count, step):
        matrix, prime = np.divmod(np.arange(s, min(s + step, len(batch) * count)), count)
        h = stack[matrix]  # a copy, reduced in place
        h %= moduli[prime, None, None]
        residues += _charpoly_residues(h.astype(np.int64, copy=False), moduli[prime].tolist())
    modulus = prod(primes)
    weights = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    out = []
    for i in range(0, len(residues), count):  # the residues of one L under every prime
        coeffs = []
        for column in zip(*residues[i : i + count]):
            v = sum(map(mul, column, weights)) % modulus
            coeffs.append(v - modulus if v > modulus // 2 else v)
        out.append(coeffs[::-1])
    return out


def _charpoly_residues(h: np.ndarray, primes: list[int]) -> list[list[int]]:
    """Ascending coefficients of det(xI - H) mod each prime, one list per prime.

    h holds H mod primes[i] in h[i], is reduced to upper Hessenberg form in
    place by similarity transforms (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9), pivoting per prime; the pivot
    search runs only at a step where some pivot is 0, and a column with no
    pivot mod some prime is already reduced there and its elimination
    multiplies by zero.  h may hold slices of several matrices.

    Reduction is delayed, as in FFLAS-FFPACK (Dumas, Giorgi and Pernet,
    ACM TOMS 2008).  Step j reduces only pivot row k = j + 1, the
    multipliers u and, after the column update, column k, which is the next
    pivot column.  The row update adds p - u times the reduced row k, less
    than p^2 per entry, so after at most n steps every entry is below
    p + n p^2.  The column update h[:, k] += h[:, k+1:] @ u then stays
    below (p + n p^2)(1 + n p) < 2^63, the bound _prime_bits keeps.  The
    entries below the subdiagonal are left as they are: nothing reads them.

    Then char of the leading m x m block of H is
    p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1),
    with the subdiagonal products carried from one m to the next, as one
    product of reduced residues per m and one reduction per new p_m.
    """
    count, n = len(primes), h.shape[1]
    p2 = np.array(primes, dtype=np.int64)[:, None]
    for j in range(n - 2):
        k = j + 1
        pivots = h[:, k, j].tolist()  # column j is reduced, so a 0 here is 0 mod p
        if 0 in pivots:
            pivot = np.argmax(h[:, k:, j] != 0, axis=1)  # 0 where the column is zero
            swap = np.flatnonzero(pivot)
            if swap.size:
                r = pivot[swap] + k
                h[swap, k], h[swap, r] = h[swap, r], h[swap, k]
                h[swap, :, k], h[swap, :, r] = h[swap, :, r], h[swap, :, k]
                pivots = h[:, k, j].tolist()
        row = h[:, k, k:]  # views: the updates write into h
        row %= p2
        inverse = [pow(v, -1, q) if v else 0 for v, q in zip(pivots, primes)]
        u = h[:, k + 1 :, j] * np.array(inverse, dtype=np.int64)[:, None] % p2
        h[:, k + 1 :, k:] += (p2 - u)[:, :, None] * row[:, None, :]
        column = h[:, :, k]
        column += np.einsum("pij,pj->pi", h[:, :, k + 1 :], u)
        column %= p2
    h %= p2[:, :, None]
    polys = np.zeros((count, n + 1, n + 1), dtype=np.int64)  # p_m ascending in row m
    polys[:, 0, 0] = 1
    suffix = np.ones((count, n), dtype=np.int64)  # h_(i+1,i) ... h_(m,m-1) at i < m, then 1
    for m in range(n):
        if m:
            suffix[:, :m] *= h[:, m, m - 1, None]
            suffix[:, :m] %= p2
        weight = h[:, : m + 1, m] * suffix[:, : m + 1] % p2
        nxt = polys[:, m + 1]
        nxt[:, : m + 1] = -np.einsum("pi,pij->pj", weight, polys[:, : m + 1, : m + 1])
        nxt[:, 1 : m + 2] += polys[:, m, : m + 1]
        nxt %= p2
    return polys[:, n].tolist()


def charpolys_exact(matrices: Sequence[Matrix]) -> list[Poly]:
    """det(xI - M) for each M of a batch of square matrices, in input order.

    M is L / s with L = m.ints and s = m.scale; char(L) comes from
    Berkowitz, one matrix at a time, below HESSENBERG_MIN_DIM rows and from
    one batched multimodular Hessenberg kernel call per size from there on,
    and char(M)(x) = s^-n char(L)(sx): coefficient k of char(L) times s^k,
    over s^n.  Each result is monic of degree n.
    """
    if any(not m.is_square for m in matrices):
        raise ValueError("characteristic polynomial of a non-square matrix")
    lists = [_berkowitz(m.ints) if m.rows < HESSENBERG_MIN_DIM else None for m in matrices]
    for n in sorted({m.rows for m in matrices if m.rows >= HESSENBERG_MIN_DIM}):
        positions = [i for i, m in enumerate(matrices) if m.rows == n]
        for i, p in zip(positions, _hessenberg_charpolys([matrices[i].ints for i in positions])):
            lists[i] = p
    polys = []
    for m, p in zip(matrices, lists):
        n, s = m.rows, m.scale
        if len(p) != n + 1 or p[0] != 1:
            raise AssertionError("characteristic polynomial is malformed")
        polys.append(Poly.from_ints([c * s**k for k, c in enumerate(reversed(p))], s**n))
    return polys


def charpoly_exact(m: Matrix) -> Poly:
    """det(xI - M), monic of degree m.rows: a batch of one for charpolys_exact."""
    return charpolys_exact([m])[0]
