"""Numeric spectra of exact characteristic polynomials.

Roots are found by the Aberth simultaneous iteration in double precision.
The polynomial is first split into exact square-free factors by Yun's
algorithm in Z[x] (``exact.square_free_decomposition``), each gcd a
heuristic gcd proven by exact division, so the iteration only ever sees
simple roots and converges quadratically; the multiplicities come from the
exact decomposition, not from clustering: a root of multiplicity k is k
copies of one double.
Each factor's iteration polishes the eigenvalues of its companion matrix.
A factor with a coefficient outside the double range is first rescaled
exactly by x = 2^e y, so its coefficients fit in doubles; a root that is
itself outside the double range raises SpectrumDomainError.
Closed-form maps lift random-walk or adjacency eigenvalues, each to the two
roots of one quadratic, into arc-operator spectra for cross-checking.  The
``spectrum`` command reads those vertex eigenvalues from LAPACK's symmetric
solver, so the check shares no root finder with what it checks.
``compare`` pairs two multisets by the bottleneck matching, tested first at
its proven lower bound, the largest nearest-value distance.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .exact import Poly, square_free_decomposition

DEFAULT_TOLERANCE = 1e-8
RADICAND_SNAP = 1e-11  # below this, a radicand is treated as exactly zero
ABERTH_NEWTON_TOL = 1e-12
ABERTH_MAX_ITER = 400
# the largest double, exactly, and the least normal one is 2^-_NORMAL_BITS, so range
# tests take no float conversions
_DOUBLE_MAX, _NORMAL_BITS = int(sys.float_info.max), 1 - sys.float_info.min_exp


class RootConvergenceError(RuntimeError):
    """Aberth iteration failed to reach the residual target."""


class SpectrumDomainError(ValueError):
    """Input outside the domain of a spectral map."""


@dataclass(frozen=True)
class SpectrumMultiset:
    """A multiset of complex numbers, with the worst relative residual of
    the roots it came from (0 for values not found by root finding)."""

    values: tuple[complex, ...]
    max_residual: float = 0.0

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class CompareResult:
    equal: bool
    max_pair_distance: float


def _sorted_values(values) -> tuple[complex, ...]:
    return tuple(sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag)))


def _evaluate(coeffs: np.ndarray, z: np.ndarray, az: np.ndarray):
    """p(z), p'(z) and the round-off floor sum |a_i| az^i, for p's ascending coefficients.

    One Horner loop: p and p' step together as the rows of a 2 x len(z)
    array, p' with its coefficients k a_k and a leading 0, and the floor
    beside them, so each value is the one np.polyval gives, bit for bit.
    The floor is evaluated on the real az: in complex, an overflow
    inf * (b + 0j) would turn into nan.
    """
    deg = len(coeffs) - 1
    top = np.zeros((deg + 1, 2, 1), dtype=np.complex128)  # step k adds a_(deg-k) and (deg-k+1) a_(deg-k+1)
    top[:, 0, 0] = coeffs[::-1]
    top[1:, 1, 0] = coeffs[:0:-1] * np.arange(deg, 0, -1)
    values = np.zeros((2, len(z)), dtype=np.complex128)
    floor = np.zeros_like(az)
    for pair, a in zip(top, np.abs(coeffs[::-1])):
        values *= z
        values += pair
        floor *= az
        floor += a
    return values[0], values[1], floor


def _aberth(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a square-free monic polynomial (ascending array) of degree >= 2 by Aberth's method.

    The iteration starts at the eigenvalues of the companion matrix, which
    LAPACK finds backward stably (Edelman and Murakami, Math. Comp. 64,
    1995), so it is left to polish them, in one or two steps as a rule.
    A point is accepted when its Newton correction |p/p'| drops below
    ABERTH_NEWTON_TOL (relative to max(1, |z|)), or when |p(z)| falls under the
    round-off bound eps * sum |a_i| |z|^i, past which double precision
    cannot place the root any better, if that bound is finite: an overflowed
    one is no bound at all.  ``_evaluate`` gives p, p' and the bound.
    The last Newton step is taken only where it is shorter than half the gap
    to the nearest other point: at a point accepted by the round-off bound
    alone p' may be about 0, and the step arbitrary.  A point that is not
    finite raises RootConvergenceError at once.
    """
    deg = len(coeffs) - 1
    noise_scale = 4.0 * np.finfo(np.float64).eps
    companion = np.diag(np.ones(deg - 1), -1)
    companion[:, -1] = -coeffs[:-1]
    try:
        z = np.linalg.eigvals(companion).astype(np.complex128)
    except np.linalg.LinAlgError as exc:
        raise RootConvergenceError(f"companion-matrix eigenvalues failed: {exc}") from exc
    for _ in range(ABERTH_MAX_ITER):
        if not np.isfinite(z).all():  # one nan point would turn every repulsion sum nan
            raise RootConvergenceError("Aberth did not converge: a point left the double range")
        az = np.abs(z)
        pv, dv, floor = _evaluate(coeffs, z, az)
        dv = np.where(dv == 0, 1e-300, dv)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        floored = (np.abs(pv) <= noise_scale * floor) & np.isfinite(floor)  # an overflowed floor bounds nothing
        done = floored | (np.abs(newton) <= ABERTH_NEWTON_TOL * np.maximum(1.0, az))
        if done.all():
            return np.where(np.abs(newton) < 0.5 * np.abs(diff).min(axis=1), z - newton, z)
        clash = np.triu(diff == 0).any(axis=0)
        if clash.any():
            # a point equal to an earlier one would put 1/0 into the repulsion
            # sum: move it off by 2^-26 of its size, at an angle of its own
            z = z + clash * np.ldexp(np.maximum(1.0, az), -26) * np.exp(1j * np.arange(deg))
            continue
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        denom = np.where(denom == 0, 1e-300, denom)
        z = z - newton / denom
    raise RootConvergenceError(f"Aberth did not converge in {ABERTH_MAX_ITER} iterations")


def _power_of_two_scaling(f: Poly) -> tuple[Poly, int]:
    """(g, e) with g(y) = 2^(-e deg f) f(2^e y), for the monic f.

    e = 0 unless a nonzero coefficient a = c / f.scale lies outside the
    double range.  Then e = max ceil(b_i / i), with b_i the bit-length
    estimate of log2|a_(n-i)| (within 1) from a in lowest terms, so every
    coefficient of g is below 2 in modulus.
    """
    s, deg = f.scale, f.degree
    if all(c == 0 or abs(c) <= _DOUBLE_MAX * s and abs(c) << _NORMAL_BITS >= s for c in f.ints):
        return f, 0
    e = max(
        -(((s // g).bit_length() - (c // g).bit_length()) // i)
        for i, c in enumerate(reversed(f.ints))
        if i and c
        for g in (math.gcd(c, s),)
    )
    if e < 0:
        return Poly.from_ints([c << -e * (deg - k) for k, c in enumerate(f.ints)], s), e
    return Poly.from_ints([c << e * k for k, c in enumerate(f.ints)], s << e * deg), e


def roots(p: Poly) -> SpectrumMultiset:
    """All complex roots of p with multiplicity.

    Exact square-free factors are extracted first (so multiple roots are
    never iterated on), then each factor is solved numerically.  The
    reported residual is the largest relative residual |f(z)| / sum |f_i| |z|^i
    over the roots z of each square-free factor f: about machine epsilon
    for a root placed to full double precision.  A nonzero constant has no
    roots: the empty multiset, with residual 0.
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial are undefined")
    vals: list[complex] = []
    residual = 0.0
    for factor, multiplicity in square_free_decomposition(p):
        factor, e = _power_of_two_scaling(factor)
        coeffs = np.array([c / factor.scale for c in factor.ints], dtype=np.float64)
        if factor.degree == 1:  # z = -a_0 is exact, z + a_0 = 0 in doubles, so its residual is 0
            factor_roots = np.array([-coeffs[0] if coeffs[0] else 0.0], dtype=np.complex128)
        else:
            factor_roots = _aberth(coeffs)
            if coeffs[0] == 0:  # the simple root at zero is exact; Aberth lands within round-off
                factor_roots[np.argmin(np.abs(factor_roots))] = 0
            pv, _, floor = _evaluate(coeffs, factor_roots, np.abs(factor_roots))
            # |p(z)| / sum |a_i| |z|^i, 0 where both vanish (z = 0 = a_0)
            relative = np.divide(np.abs(pv), floor, out=np.zeros_like(floor), where=floor > 0)
            residual = max(residual, float(np.max(relative)))
        if e:
            with np.errstate(over="ignore"):
                factor_roots = np.ldexp(factor_roots.real, e) + 1j * np.ldexp(factor_roots.imag, e)
        if not np.all(np.isfinite(factor_roots)) or (factor.ints[0] and not np.all(factor_roots)):
            raise SpectrumDomainError("a root lies outside the double range")
        for z in factor_roots:
            vals.extend([complex(z)] * multiplicity)
    return SpectrumMultiset(_sorted_values(vals), residual)


def _lift(eigs, m: int, n: int, kind: str, centre_radicand) -> SpectrumMultiset:
    """The arc spectrum lifted from n vertex eigenvalues, each lam giving the
    roots of x^2 - 2cx + c^2 + r for (c, r) = centre_radicand(lam): c +/- i sqrt(r)
    for r >= 0, c +/- sqrt(-r) for r < 0 and c twice for |r| < RADICAND_SNAP.
    Then m - n pairs +1, -1 follow, so m >= n.
    """
    eigs = list(eigs)
    if len(eigs) != n:
        raise ValueError(f"expected {n} {kind} eigenvalues, got {len(eigs)}")
    if m < n:
        raise SpectrumDomainError("spectral map needs m >= n; tree case has no padding")
    vals: list[complex] = []
    for lam in eigs:
        c, r = centre_radicand(float(lam))
        if abs(r) < RADICAND_SNAP:
            r = 0.0
        if r >= 0:
            s = math.sqrt(r)
            vals += [complex(c, s), complex(c, -s)]
        else:
            s = math.sqrt(-r)
            vals += [complex(c + s), complex(c - s)]
    vals.extend([complex(1.0), complex(-1.0)] * (m - n))
    return SpectrumMultiset(_sorted_values(vals))


def map_random_walk_spectrum(
    walk_eigs, m: int, n: int, tolerance: float = DEFAULT_TOLERANCE
) -> SpectrumMultiset:
    """Transition-matrix spectrum from random-walk eigenvalues.

    Each eigenvalue lam in [-1, 1] lifts to the conjugate pair
    lam +/- i sqrt(1 - lam^2) on the unit circle; m - n extra pairs of
    +1 and -1 fill the remaining dimensions.  Requires m >= n (for trees
    the closed form divides instead of multiplying, so no padding exists).
    """

    def centre_radicand(lam: float) -> tuple[float, float]:
        if abs(lam) > 1.0 + tolerance:
            raise SpectrumDomainError(f"random-walk eigenvalue {lam} outside [-1, 1]")
        return lam, max(1.0 - lam * lam, 0.0)  # below 0 only for |lam| within tolerance of 1

    return _lift(walk_eigs, m, n, "random-walk", centre_radicand)


def map_adjacency_spectrum(adj_eigs, k: int, m: int, n: int) -> SpectrumMultiset:
    """Non-backtracking arc spectrum of a k-regular graph from adjacency eigenvalues.

    lam maps to lam/2 +/- i sqrt(k - 1 - lam^2/4), which has modulus
    sqrt(k - 1); when the radicand is negative (possible only past the
    Ramanujan window) the pair is real instead.  Padding of +/-1 pairs is
    as in the random-walk map.
    """
    if k < 2:
        raise SpectrumDomainError("adjacency map needs a k-regular graph with k >= 2")
    return _lift(adj_eigs, m, n, "adjacency", lambda lam: (lam / 2.0, (k - 1.0) - lam * lam / 4.0))


def _has_perfect_matching(neighbours: list[list[int]]) -> bool:
    """Kuhn's augmenting-path test on a square bipartite graph."""
    size = len(neighbours)
    match_left = [-1] * size
    match_right = [-1] * size
    for root in range(size):
        reached_from = [-1] * size  # left vertex that reached each right vertex
        stack = [root]
        free = -1
        while stack and free < 0:
            u = stack.pop()
            for v in neighbours[u]:
                if reached_from[v] >= 0:
                    continue
                reached_from[v] = u
                if match_right[v] < 0:
                    free = v
                    break
                stack.append(match_right[v])
        if free < 0:
            return False
        v = free
        while v >= 0:  # flip the path back to the root, which had no partner
            u = reached_from[v]
            previous = match_left[u]
            match_left[u], match_right[v] = v, u
            v = previous
    return True


def compare(
    left: SpectrumMultiset, right: SpectrumMultiset, tolerance: float = DEFAULT_TOLERANCE
) -> CompareResult:
    """Multiset comparison by the optimal (bottleneck) pairing.

    max_pair_distance is the least d for which the values can be paired
    one to one with every pair within d.  Every pairing pairs each value
    with one at least its nearest distance away, so d is at least low, the
    largest of those nearest distances on either side, which is itself a pair
    distance: low is tested first, and only if it admits no perfect matching
    does a binary search run over the distinct distances above it.
    """
    if len(left) != len(right):
        return CompareResult(False, math.inf)
    if not left.values:
        return CompareResult(True, 0.0)
    dist = np.abs(np.subtract.outer(np.array(left.values), np.array(right.values)))
    low = max(dist.min(axis=1).max(), dist.min(axis=0).max())

    def feasible(d) -> bool:
        within = dist <= d
        columns = np.nonzero(within)[1].tolist()
        ends = np.cumsum(within.sum(axis=1)).tolist()
        return _has_perfect_matching([columns[s:e] for s, e in zip([0] + ends, ends)])

    worst = float(low)
    if not feasible(low):
        candidates = np.unique(dist[dist > low])  # the largest always admits a pairing
        worst = float(candidates[bisect_left(candidates, True, key=feasible)])
    return CompareResult(worst <= tolerance, worst)
