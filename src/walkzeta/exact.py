"""Exact rational linear algebra: polynomials, matrices, one determinant kernel.

Both types hold integers over one positive scale, made canonical once
when built.  ``Poly`` holds ascending integer coefficients ``ints`` over a
``scale``, p = ints / scale; ``Matrix`` holds integer rows L over a scale
s, M = L / s.  Every kernel result is exact: Python ints or proven bounds.
``square_free_decomposition`` is Yun's (1976), on primitive integer
coefficient lists with heuristic gcds (Char, Geddes and Gonnet 1989).
The one division that raises ``ExactDivisionError`` is by a monic
(x^2 - 1)^k, in ``identities``.
There is one determinant kernel, ``charpolys_exact``, for a batch of
square matrices of any sizes; ``charpoly_exact`` is a batch of one.  It
returns P / D, P = D char(M) = det(xC - MC) for M = L / s, C the diagonal of
the column (or row) denominators of M and D = det C, from one multimodular
call per size (``_multimodular_charpolys``), under a proven
Goldstein-Graham bound.  Each matrix of the call runs under the shortest
prefix of its descending primes whose product passes twice the matrix's
own bound, so 0/1 and rational matrices share a call without the 0/1 ones
paying for the others' primes.  That call takes power sums while one power-sum
slice, (floor(sqrt n) + 7) n^2 words, fits CHUNK_BYTES (below 49 rows at
2^18), and Hessenberg reduction otherwise:

- power sums: about 2 sqrt(n) float64 matmuls per slice, O(n^3.5) word
  operations, then Newton's identities once per matrix, mod the product
  of its primes;
- Hessenberg reduction in int64, O(n^3), reducing O(n) entries per
  elimination step.

Every determinant the package needs is fed to the kernel as one constant
matrix, built by its caller as integer rows over one scale: an arc-level
determinant det(I - tM) is the coefficient reversal of char(M), and
``identities`` builds the linearisation of its vertex-level quadratic
determinants.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence

import numpy as np


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was expected to be exact left a remainder."""

    def __init__(self, message: str, remainder: "Poly"):
        super().__init__(f"{message}; remainder {remainder!r}")
        self.remainder = remainder


class SizeGuardError(Exception):
    """A computation refused by a size guard before it starts."""


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
        """Each coefficient as ``str(Fraction(c, scale))`` prints it, from the integers:
        c at scale 1, else c / g over scale / g for g = gcd(c, scale), the
        denominator dropped where it is 1."""
        s = self.scale
        if s == 1:
            return [str(c) for c in self.ints]
        return [f"{c // g}" if g == s else f"{c // g}/{s // g}" for c in self.ints for g in (gcd(c, s),)]

    def format(self, var: str = "t") -> str:
        """Human-readable form like '1 - 2*t^3 + t^6'."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.to_strings()):
            if c == "0":
                continue
            mag = c.lstrip("-")
            if k == 0:
                body = mag
            else:
                power = var if k == 1 else f"{var}^{k}"
                body = power if mag == "1" else f"{mag}*{power}"
            if not parts:
                parts.append(f"-{body}" if c[0] == "-" else body)
            else:
                parts.append(f"- {body}" if c[0] == "-" else f"+ {body}")
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


def _int_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[x] for a primitive b, or None unless b divides a.

    By Gauss's lemma a quotient by a primitive divisor is integral whenever
    it exists in Q[x], so a leading coefficient that does not divide, or a
    nonzero remainder, means b does not divide a at all.
    """
    rem = list(a)
    lead = b[-1]
    tail = len(b) - 1
    quo = [0] * max(len(rem) - tail, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + tail], lead)
        if r:
            return None
        quo[k] = c
        if c:
            rem[k : k + tail] = [x - c * v for x, v in zip(rem[k : k + tail], b)]
    return None if any(rem[:tail]) else quo


def _int_gcd_cofactors(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g): g the primitive gcd, leading coefficient positive, of integer
    coefficient lists a and b, a nonzero, by the heuristic gcd of Char, Geddes and
    Gonnet (1989); gcd(a, 0) is the primitive part of a.

    With xi >= 2 min(|a|, |b|) + 2 (max norms), the balanced xi-adic digits, in
    (-xi/2, xi/2], of gcd(a(xi), b(xi)) form G, and g = pp(G) is taken only if it
    divides a and b; the quotients are the cofactors.  Then g is the gcd: the gcd is
    g h, and h(xi) divides cont(G), so |h(xi)| <= xi / 2.  A root z of h is one of a
    and of b, so |z| < 1 + min(|a|, |b|) <= xi / 2 (Cauchy) and |h(xi)| > xi / 2
    unless h is 1.  Otherwise xi grows, and that ends: with g the gcd,
    gcd(a(xi), b(xi)) = k g(xi), where k > 0 divides an integer r = u a/g + v b/g != 0,
    u and v in Z[x] (the resultant, unless both are constants), as a/g and b/g are
    coprime.  So once xi > 2 |r| |g| the digits are those of k g.
    """
    if not b:
        g = _int_primitive(list(a))
        return g, _int_quotient(a, g), []
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        h = gcd(*(reduce(lambda v, c: v * xi + c, reversed(p), 0) for p in (a, b)))
        digits = []
        while h:
            h, r = divmod(h, xi)
            if 2 * r > xi:
                r, h = r - xi, h + 1
            digits.append(r)
        g = _int_primitive(digits)
        quo_a = _int_quotient(a, g)
        quo_b = None if quo_a is None else _int_quotient(b, g)
        if quo_b is not None:
            return g, quo_a, quo_b
        xi = xi * 73794 // 27011  # CGG's growth factor, about 2.73


def _int_derivative(a: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two ascending coefficient lists, in Python ints; [] if either is empty."""
    if not a or not b:
        return []
    return np.convolve(np.array(a, dtype=object), np.array(b, dtype=object)).tolist()


def _int_sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and out[-1] == 0:
        out.pop()
    return out


def square_free_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm (1976) on primitive integer coefficient lists.

    Returns pairs (factor, multiplicity) with each factor monic, square free
    and pairwise coprime; the product of factor**multiplicity is p made
    monic.  f is the primitive part of p.ints.  Each step is one gcd a = gcd(c, d)
    with its cofactors c / a and d / a, and the next d is d / a - (c / a)'.  Every
    divisor is primitive, so every quotient is integral (Gauss's lemma) and stays in
    Python ints; a factor a becomes the monic a / lead(a) only when it is returned.
    """
    if p.is_zero():
        raise ValueError("square-free decomposition of the zero polynomial")
    f = _int_primitive(list(p.ints))
    if len(f) < 2:
        return []
    out: list[tuple[Poly, int]] = []
    _, c, quo = _int_gcd_cofactors(f, _int_derivative(f))
    i = 1
    while len(c) > 1:
        a, c, quo = _int_gcd_cofactors(c, _int_sub(quo, _int_derivative(c)))
        if len(a) > 1:
            out.append((Poly.from_ints(a, a[-1]), i))
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
        return cls._canonical(*_reduced([list(row) for row in ints], scale))

    @classmethod
    def _canonical(cls, ints: list[list[int]], scale: int) -> "Matrix":
        """The matrix ints / scale for a pair its caller has proven canonical, with no gcd pass."""
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
        """The transpose; ValueError for r x 0 with r > 0, since rows cannot hold 0 x r.

        It has the same entries over the same scale, so it is canonical
        already and is not reduced again.
        """
        if self.rows and not self.cols:
            raise ValueError(f"cannot transpose a {self.rows}x0 matrix")
        return Matrix._canonical([list(col) for col in zip(*self.ints)], self.scale)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


# The search for the primes of an n-row kernel call starts here and comes
# down to the bound of its residue kernel, _power_sum_bits or _prime_bits.
PRIME_BITS = 31
# The most bytes of a kernel's working set on one chunk of (matrix mod prime)
# slices, or on one slice that is larger; it also picks the kernel.  In a
# sweep of 2^17-2^21 bytes over 42-336 rows, 2^20 ran 64-192 rows up to twice
# as fast as 2^18, at twice the peak memory; at 336 rows one prime fills either.
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


def _power_sum_bits(n: int) -> int:
    """The largest b <= PRIME_BITS with n (2 2^b)^2 < 2^53 and n^2 (2 2^b)^2 < 2^63: for
    p < 2^b the powers of _power_sum_residues, below 2p, multiply exactly in float64
    and take traces in int64."""
    b = PRIME_BITS
    while n * 4 ** (b + 1) >= 2**53 or n * n * 4 ** (b + 1) >= 2**63:
        b -= 1
    return b


def _is_prime(n: int) -> bool:
    """Trial division by 2 and by the odd d <= isqrt(n)."""
    if n < 3:
        return n == 2
    return n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))


def _primes_exceeding(bound: int, bits: int, scale: int = 1) -> list[int]:
    """The largest odd primes below 2^bits that do not divide scale, as few as make a product > bound.

    SizeGuardError if all of them multiply to no more than bound.
    """
    primes = _PRIMES.setdefault(bits, [])
    chosen, product, i = [], 1, 0
    while product <= bound:
        if i == len(primes):
            c = primes[-1] - 2 if primes else 2**bits - 1
            while c >= 3 and not _is_prime(c):
                c -= 2
            if c < 3:  # the bound in bits: its digits can pass Python's int-to-str limit
                raise SizeGuardError(
                    f"the primes must multiply past a {bound.bit_length()}-bit bound; the odd "
                    f"primes below 2^{bits} that divide no scale multiply to {product.bit_length()} bits"
                )
            primes.append(c)
        if scale % primes[i]:
            chosen.append(primes[i])
            product *= primes[i]
        i += 1
    return chosen


def _coefficient_bounds(stack: np.ndarray, scales: list[int]) -> list[tuple[int, int]]:
    """(B, D) for each M = L / s, L = stack[i], s = scales[i]: D det(xI - M) is integral, |coefficients| <= B.

    Take c_j = s / gcd(s, column j of L), the denominator of column j,
    C = diag(c_j), D = det C and the integer N = MC.  The x^k coefficient of
    D det(xI - M) = det(xC - N) is the sum over k-sets S of prod_(j in S) c_j
    det(-N[S', S']), S' the complement of S.  By Hadamard's inequality each
    minor is at most prod_(j in S') ||N_j||, N's column norms, so every
    coefficient is at most prod_j (c_j + ||N_j||) (Goldstein and Graham, SIAM
    Review 16, 1974), and ||N_j|| <= isqrt(sum_i N_ij^2) + 1.  As char(M) =
    char(M^T), rows serve as well, and the smaller bound is taken; on an
    integer matrix D = 1.  Only this bound fixes how many primes are used: a
    CRT value that stops changing as primes are added proves nothing.
    """
    if stack.shape[1] * max(-int(stack.min(initial=0)), int(stack.max(initial=0))) ** 2 >= 2**63:
        stack = stack.astype(object)  # a sum of squares beyond int64: sum it in Python ints
    squares = stack * stack

    def bound(s, gcds, sums):  # one L: its scale, and the gcds and sums of squares of its lines
        if s == 1:  # every c_j is 1
            return prod([isqrt(t) + 2 for t in sums]), 1
        h = [gcd(s, g) for g in gcds]  # c_j = s / h_j, and N_j = L_j / h_j
        return prod([s // y + isqrt(t // (y * y)) + 1 for y, t in zip(h, sums)]), prod([s // y for y in h])

    gcds = [np.gcd.reduce(stack, k).tolist() if max(scales) > 1 else [None] * len(scales) for k in (2, 1)]
    rows, columns = (map(bound, scales, g, squares.sum(k).tolist()) for g, k in zip(gcds, (2, 1)))
    return list(map(min, rows, columns))


def _multimodular_charpolys(batch: list[Matrix]) -> list[tuple[list[int], int]]:
    """(P, D) for each M of a batch of one size: P ascending, the integer D det(xI - M).

    D and the bound B on P are _coefficient_bounds'.  The primes lie below
    2^b, b from the kernel's rule, divide no scale of the batch and descend;
    each M takes the shortest prefix of them whose product Q exceeds its own
    2B, so a 0/1 matrix batched with rational ones runs under the few primes
    it needs.  The (M mod p) slices, each M with its prefix, are taken in
    chunks whose kernel working set stays within CHUNK_BYTES.  Where one
    power-sum slice fits CHUNK_BYTES the CRT combines power sums p_k, and
    Newton's identities k c_k = -sum_(i<=k) p_i c_(k-i) run once per M mod its
    Q, where each k <= n is a unit; otherwise it combines Hessenberg coefficients.  Each
    coefficient mod Q, times D and taken symmetrically about 0, is P's.
    """
    n = batch[0].rows
    words = (isqrt(n) + 7) * n * n  # a power-sum slice: itself, its ceil(sqrt(n)) baby powers and five products
    newton = 8 * words <= CHUNK_BYTES
    if newton:
        kernel, bits = _power_sum_residues, _power_sum_bits(n)
    else:
        kernel, bits, words = _charpoly_residues, _prime_bits(n), n * n
    try:
        stack = np.array([m.ints for m in batch], dtype=np.int64).reshape(len(batch), n, n)
    except OverflowError:  # an entry beyond int64: reduce it as a Python int
        stack = np.array([m.ints for m in batch], dtype=object).reshape(len(batch), n, n)
    bounds = _coefficient_bounds(stack, [m.scale for m in batch])
    scale = lcm(*(m.scale for m in batch))
    primes = _primes_exceeding(2 * max(bounds)[0], bits, scale)
    products = list(accumulate(primes, mul))  # the modulus of each prefix
    counts = [bisect_right(products, 2 * b) + 1 for b, _ in bounds]
    matrix = np.repeat(np.arange(len(batch)), counts)  # the (matrix, prime) grid, one row per matrix
    prime = np.concatenate([np.arange(c) for c in counts])
    moduli = np.array(primes, dtype=stack.dtype)[prime]
    if scale > 1:  # M mod p is L s^-1 mod p, below p^2 < 2^62 before it is reduced
        inverses = np.array([pow(batch[i].scale, -1, q) for i, q in zip(matrix.tolist(), moduli.tolist())],
                            dtype=stack.dtype)
    step = max(1, CHUNK_BYTES // (8 * words or 1))
    residues = []
    for s in range(0, len(matrix), step):
        chunk = slice(s, s + step)
        h = stack[matrix[chunk]] % moduli[chunk, None, None]
        if scale > 1:
            h = h * inverses[chunk, None, None] % moduli[chunk, None, None]
        residues += kernel(h.astype(np.int64, copy=False), moduli[chunk].tolist())
    plans = {}  # prefix length -> its modulus, CRT weights and the inverses of 1, ..., n
    for count in set(counts):
        modulus = products[count - 1]
        weights = [modulus // q * pow(modulus // q, -1, q) for q in primes[:count]]
        plans[count] = modulus, weights, [pow(k, -1, modulus) for k in range(1, n + 1)] if newton else []
    out, start = [], 0
    for (_, d), count in zip(bounds, counts):  # the residues of one M under each prime of its prefix
        modulus, weights, units = plans[count]
        values = [sum(map(mul, column, weights)) % modulus for column in zip(*residues[start : start + count])]
        start += count
        if newton:  # c_(k-1), ..., c_0 before step k, so c_n, ..., c_0 at the end
            sums, values = values, [1]
            for unit in units:
                values.insert(0, -sum(map(mul, sums, values)) * unit % modulus)
        out.append(([(v * d + modulus // 2) % modulus - modulus // 2 for v in values], d))
    return out


def _power_sum_residues(h: np.ndarray, primes: list[int]) -> list[list[int]]:
    """The power sums tr(H), ..., tr(H^n) mod each prime, one list per prime.

    h holds H mod primes[i] in h[i].  The baby powers H, ..., H^s,
    s = ceil(sqrt(n)), and the giant powers H^2s, H^3s, ... are float64
    matmuls (Preparata and Sarwate, Inform. Process. Lett. 7, 1978), each
    reduced lazily to x - floor(x / p) p in (-p, 2p), so the next product is
    exact while _power_sum_bits(n) holds.  tr(H^(i+sj)) = sum_ab (H^i)_ab
    (H^sj)_ba, i + sj <= n, is an int64 contraction.  The driver turns them
    into coefficients by Newton's identities, dividing by k <= n, so every
    prime must exceed n.
    """
    count, n = len(primes), h.shape[1]
    q, s = max(primes), isqrt(max(n - 1, 0)) + 1
    assert n * (2 * q) ** 2 < 2**53 and (2 * n * q) ** 2 < 2**63, "a power sum would be inexact"
    assert min(primes) > n, "Newton's identities would divide by a multiple of a prime"
    p = np.array(primes, dtype=np.float64)[:, None, None]

    def times(x, y):
        z = x @ y
        t = z / p
        z -= np.multiply(np.floor(t, out=t), p, out=t)
        return z

    power = a = h.astype(np.float64)
    babies = np.empty((count, s, n, n), dtype=np.int64)  # transposed: a trace is a dot product
    for i in range(s):
        power = times(power, a) if i else a
        babies[:, i] = power.transpose(0, 2, 1)
    traces, giant = [np.trace(babies, axis1=2, axis2=3)], power
    for j in range(1, -(-n // s)):
        giant = times(giant, power) if j > 1 else power
        dots = babies.reshape(count, s, n * n) @ giant.astype(np.int64).reshape(count, n * n, 1)
        traces.append(dots[:, :, 0])
    return (np.concatenate(traces, axis=1)[:, :n] % np.array(primes, dtype=np.int64)[:, None]).tolist()


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
    q = max(primes)
    assert (q + n * q * q) * (1 + n * q) < 2**63, "the lazy kernel would overflow int64"
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
    """det(xI - M) for each M of a batch of square matrices, in input order, monic of degree n.

    It is P / D, from one batched multimodular call per size (_multimodular_charpolys).
    """
    if any(not m.is_square for m in matrices):
        raise ValueError("characteristic polynomial of a non-square matrix")
    cleared = {}  # position -> (P, D)
    for n in sorted({m.rows for m in matrices}):
        positions = [i for i, m in enumerate(matrices) if m.rows == n]
        cleared.update(zip(positions, _multimodular_charpolys([matrices[i] for i in positions])))
    results = [cleared[i] for i in range(len(matrices))]
    if any(len(p) != m.rows + 1 or p[-1] != d for m, (p, d) in zip(matrices, results)):
        raise AssertionError("characteristic polynomial is malformed")
    return [Poly.from_ints(p, d) for p, d in results]


def charpoly_exact(m: Matrix) -> Poly:
    """det(xI - M), monic of degree m.rows: a batch of one for charpolys_exact."""
    return charpolys_exact([m])[0]
