import cmath
import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from walkzeta.exact import Poly, charpoly_exact
from walkzeta.identities import charpoly_support_via_adjacency_form
from walkzeta import spectra
from walkzeta.operators import nonbacktracking_matrix, transition_matrix
from walkzeta.spectra import (
    SpectrumDomainError,
    SpectrumMultiset,
    compare,
    map_adjacency_spectrum,
    map_random_walk_spectrum,
    real_roots,
    roots,
)
from walkzeta.experiments import complete_graph, cycle_graph, petersen_graph

from oracles import FractionPoly, conjugate_closed

X = FractionPoly.x()


def _multiset(*values):
    return SpectrumMultiset(tuple(sorted(
        (complex(v) for v in values), key=lambda z: (z.real, z.imag)
    )))


def test_roots_linear_and_quadratic():
    assert roots(3 * X + 6).values == (complex(-2),)
    got = roots(X**2 - 1)
    assert compare(got, _multiset(1, -1)).equal
    assert got.max_residual < 1e-14


def test_roots_of_unity():
    got = roots(X**4 - 1)
    assert compare(got, _multiset(1, 1j, -1, -1j)).equal


def test_roots_with_multiplicity():
    p = (X - 1) ** 2 * (X**2 + X + 1) ** 2
    got = roots(p)
    omega = complex(-0.5, math.sqrt(3) / 2)
    expected = _multiset(1, 1, omega, omega, omega.conjugate(), omega.conjugate())
    assert compare(got, expected).equal
    # the triple root comes straight out of the exact factorization
    triple = roots((X - 1) ** 3)
    assert triple.values == (complex(1),) * 3
    assert triple.max_residual == 0.0


def test_residual_flags_a_misplaced_root(monkeypatch):
    p = charpoly_exact(transition_matrix(complete_graph(4)))
    assert roots(p).max_residual < 1e-14
    aberth = spectra._aberth
    monkeypatch.setattr(spectra, "_aberth", lambda *args, **kwargs: aberth(*args, **kwargs) + 1e-3)
    assert roots(p).max_residual >= 1e-6


def test_round_off_floor_overflows_to_inf_never_nan():
    # near the top of the double range p overflows to inf and nan; the floor,
    # evaluated on the real |z|, overflows to inf alone
    big = sys.float_info.max
    coeffs = np.array([0.9 * big, -0.7 * big, 0.5 * big, 0.3 * big, 1.0])
    z = np.array([0.5 + 2j, -3 + 0.25j, 1e-3 - 1j, 0.1j])
    with np.errstate(over="ignore", invalid="ignore"):
        pv, _, floor = spectra._evaluate(coeffs, z, np.abs(z))
    assert np.isinf(floor).any() and not np.isnan(floor).any()
    assert not np.isfinite(pv).all()


def test_zero_root_is_exact():
    # Aberth alone leaves the zero root near 1e-27, where the relative residual reads 1
    got = roots(X * (X**2 - 3 * X + 4) * (X + 2) ** 2)
    assert got.values.count(0j) == 1
    assert got.max_residual < 1e-14


def test_roots_outside_double_range():
    # 10**400 overflows a double and 10**-400 underflows to zero
    for constant, modulus in ((10**400, 1e200), (Fraction(1, 10**400), 1e-200)):
        got = roots(Poly([constant, 0, 1]))
        assert compare(got, _multiset(modulus * 1j, -modulus * 1j), modulus * 1e-12).equal
        assert got.max_residual < 1e-14


def test_power_of_two_scaling_matches_fraction_reference():
    # 3 * 2^1029 is 9 * 2^1030 over the scale 6: log2 of it is read in lowest terms
    cases = ([Fraction(1, 6), 3 * 2**1029, 1], [10**400, 0, 1], [Fraction(1, 10**400), 0, 1], [-3, 10**400, 1])
    for rationals in cases:
        f = Poly(rationals)
        g, e = spectra._power_of_two_scaling(f)
        cs = f.coeffs
        assert e == max(
            -((c.denominator.bit_length() - c.numerator.bit_length()) // i)
            for i, c in enumerate(reversed(cs))
            if i and c
        )
        assert g == Poly(c * Fraction(2) ** (e * (k - f.degree)) for k, c in enumerate(cs))
    assert spectra._power_of_two_scaling(Poly([2, 3, 1])) == (Poly([2, 3, 1]), 0)


def test_roots_rejects_root_outside_double_range():
    # the roots are about -1e400 and 3e-400: neither is a double
    with pytest.raises(SpectrumDomainError):
        roots(Poly([-3, 10**400, 1]))
    with pytest.raises(SpectrumDomainError):
        roots(Poly([Fraction(1, 10**700), 1]))


def test_linear_factors_need_no_iteration():
    # a linear factor's root is -a_0 exactly, with residual 0, and each
    # factor of its own multiplicity is linear here
    got = roots(X * (X - 3) ** 2 * (X + Fraction(1, 7)) ** 3)
    assert got.values == (complex(-1 / 7),) * 3 + (0j,) + (3 + 0j,) * 2
    assert got.max_residual == 0.0
    # -a_0 = 10**400 overflows a double and 10**-400 underflows to zero
    for root in (10**400, Fraction(1, 10**400)):
        with pytest.raises(SpectrumDomainError):
            roots(Poly([-root, 1]))


def test_roots_rejects_constant():
    # only the zero polynomial is rejected; a nonzero constant has no roots
    with pytest.raises(ValueError):
        roots(FractionPoly())
    spectrum = roots(FractionPoly.one())
    assert spectrum.values == () and spectrum.max_residual == 0


def test_last_newton_step_stays_inside_the_gap():
    # the double coefficients are those of (x - 1)^2, so both roots are accepted
    # by the round-off floor at once, where p' is about 0 and p/p' arbitrary
    big = 10**17
    got = roots((big * X - big) * (big * X - big - 1))
    assert got.max_residual < 1e-14
    assert all(abs(z - 1) <= 1e-7 for z in got.values) and len(got) == 2


def test_coinciding_starts_are_moved_apart(monkeypatch):
    # a start repeated and not accepted at once must not divide by zero
    for starts in ([1.5, 1.5, 1.5], [1.5, 1.5, 3.0]):
        monkeypatch.setattr(np.linalg, "eigvals", lambda a, starts=starts: np.array(starts))
        got = roots((X - 1) * (X - 2) * (X - 3))
        assert compare(got, _multiset(1, 2, 3), 1e-12).equal
        assert got.max_residual < 1e-14


def test_overflowed_floor_accepts_no_point(monkeypatch):
    # at a start of 1e200 the round-off floor sum |a_i| |z|^i overflows to inf, and so does
    # p(z): such a point is no root, and the iteration cannot place it
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([1.0, 2.0, 1e200]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(spectra.RootConvergenceError, match="did not converge"):
            roots((X - 1) * (X - 2) * (X - 3))


def test_point_leaving_the_double_range_ends_the_iteration(monkeypatch):
    # the start 1e200 turns nan after one step, and a nan point would make
    # every repulsion sum nan: the iteration stops there, not after its cap
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.array([1.0, 2.0, 1e200]))
    evaluate, calls = spectra._evaluate, []
    monkeypatch.setattr(spectra, "_evaluate", lambda *args: calls.append(1) or evaluate(*args))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(spectra.RootConvergenceError, match="left the double range"):
            spectra._aberth(np.array([-6.0, 11.0, -6.0, 1.0]))
    assert len(calls) == 1


def test_real_roots():
    got = real_roots(X**2 - 2)
    assert got == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)
    with pytest.raises(SpectrumDomainError):
        real_roots(X**2 + 1)


def test_high_degree_residual():
    # a degree-24 product with clustered roots still resolves cleanly
    p = FractionPoly.one()
    for k in range(1, 13):
        p = p * (X**2 + FractionPoly.constant(k) * X + 1)
    got = roots(p)
    assert len(got) == 24
    assert got.max_residual < 1e-9


def test_map_random_walk_c3():
    mapped = map_random_walk_spectrum([1, -0.5, -0.5], m=3, n=3)
    direct = roots(charpoly_exact(transition_matrix(cycle_graph(3))))
    assert compare(mapped, direct).equal


def test_map_random_walk_k4_padding():
    eigs = [1.0] + [-1.0 / 3.0] * 3
    mapped = map_random_walk_spectrum(eigs, m=6, n=4)
    assert len(mapped) == 12
    direct = roots(charpoly_exact(transition_matrix(complete_graph(4))))
    assert compare(mapped, direct).equal


def test_map_random_walk_snaps_near_one():
    mapped = map_random_walk_spectrum([1 - 1e-13], m=1, n=1)
    assert mapped.values == (complex(1 - 1e-13), complex(1 - 1e-13))


def test_map_random_walk_domain_errors():
    with pytest.raises(SpectrumDomainError):
        map_random_walk_spectrum([1, -1], m=1, n=2)
    with pytest.raises(SpectrumDomainError):
        map_random_walk_spectrum([1.5], m=2, n=1)
    with pytest.raises(ValueError):
        map_random_walk_spectrum([1, 0], m=3, n=3)


def test_map_adjacency_k4():
    mapped = map_adjacency_spectrum([3, -1, -1, -1], k=3, m=6, n=4)
    direct = roots(charpoly_exact(nonbacktracking_matrix(complete_graph(4))))
    assert compare(mapped, direct).equal
    # the trivial eigenvalue 3 lands past the Ramanujan window: real pair 2, 1
    assert complex(2) in mapped.values and complex(1) in mapped.values


def test_map_adjacency_c4():
    mapped = map_adjacency_spectrum([2, 0, 0, -2], k=2, m=4, n=4)
    expected = _multiset(1, 1, -1, -1, 1j, 1j, -1j, -1j)
    assert compare(mapped, expected).equal


def test_map_adjacency_petersen():
    g = petersen_graph()
    eigs = [3.0] + [1.0] * 5 + [-2.0] * 4
    mapped = map_adjacency_spectrum(eigs, k=3, m=15, n=10)
    direct = roots(charpoly_support_via_adjacency_form(g))
    assert compare(mapped, direct).equal
    half_seven = math.sqrt(7) / 2
    expected = _multiset(
        2, 1,
        *[complex(0.5, half_seven)] * 5, *[complex(0.5, -half_seven)] * 5,
        *[complex(-1, 1)] * 4, *[complex(-1, -1)] * 4,
        *[1] * 5, *[-1] * 5,
    )
    assert compare(mapped, expected).equal


def test_map_adjacency_domain_errors():
    with pytest.raises(SpectrumDomainError):
        map_adjacency_spectrum([1, -1], k=1, m=2, n=2)
    with pytest.raises(ValueError):
        map_adjacency_spectrum([2, 0], k=2, m=4, n=4)


def _bits(values):
    """Each value's real and imaginary parts in hex, so -0.0 and 0.0 differ."""
    return tuple((z.real.hex(), z.imag.hex()) for z in values)


def _double_root(c):
    return _bits((complex(c, 0.0), complex(c, -0.0)))


@pytest.mark.parametrize("side", [1, -1], ids=["positive", "negative"])
def test_maps_snap_a_radicand_near_zero_to_a_double_root(side):
    lam = 1.0 - side * 1e-13  # 1 - lam^2 is about side * 2e-13
    assert _bits(map_random_walk_spectrum([lam], m=1, n=1).values) == _double_root(lam)
    lam = 2.0 - side * 1e-12  # 1 - lam^2 / 4 is about side * 1e-12, k = 2
    assert _bits(map_adjacency_spectrum([lam], k=2, m=1, n=1).values) == _double_root(lam / 2.0)


def test_map_random_walk_clamps_a_radicand_past_the_snap():
    # 1 - lam^2 is about -2e-10, past the snap but inside the tolerance 1e-8
    for lam in (1 + 1e-10, -1 - 1e-10):
        assert _bits(map_random_walk_spectrum([lam], m=1, n=1).values) == _double_root(lam)
    padded = map_random_walk_spectrum([1 + 1e-10], m=2, n=1).values
    assert _bits(padded) == _bits((complex(-1.0), complex(1.0))) + _double_root(1 + 1e-10)


def test_map_adjacency_gives_a_real_pair_for_a_negative_radicand():
    assert _bits(map_adjacency_spectrum([3], k=3, m=1, n=1).values) == _bits((1 + 0j, 2 + 0j))
    s = math.sqrt(3.25)  # lam = -5, k = 4: the radicand 3 - 25/4
    expected = (complex(-2.5 - s), complex(-1.0), complex(-2.5 + s), complex(1.0))
    assert _bits(map_adjacency_spectrum([-5], k=4, m=2, n=1).values) == _bits(expected)


def test_compare_fixtures():
    assert compare(_multiset(1, 1j), _multiset(1j, 1)).equal
    close = compare(_multiset(1), _multiset(1 + 1e-12))
    assert close.equal
    assert close.max_pair_distance == pytest.approx(1e-12, rel=0.5)
    mismatch = compare(_multiset(1), _multiset(1, -1))
    assert not mismatch.equal
    assert mismatch.max_pair_distance == math.inf
    far = compare(_multiset(0), _multiset(1e-6))
    assert not far.equal


def test_compare_pairs_optimally():
    # greedy nearest-neighbour pairing takes 0 -> 0.1 and is left with 1 -> -0.9
    left, right = _multiset(0, 1), _multiset(-0.9, 0.1)
    got = compare(left, right, tolerance=0.95)
    assert got.equal
    assert got.max_pair_distance == pytest.approx(0.9)
    assert compare(right, left, tolerance=0.95) == got


_GRID = st.builds(complex, st.integers(-2, 2), st.integers(-1, 1))  # ties are common on it


@st.composite
def _multiset_pairs(draw):
    size = draw(st.integers(1, 6))
    return tuple(_multiset(*draw(st.lists(_GRID, min_size=size, max_size=size))) for _ in range(2))


@settings(max_examples=200, deadline=None)
@example((_multiset(0, 0, 3), _multiset(0, 3, 3)))  # every nearest distance is 0, the pairing 3
@given(_multiset_pairs())
def test_compare_is_the_bottleneck_over_all_pairings(pair):
    left, right = pair
    dist = np.abs(np.subtract.outer(np.array(left.values), np.array(right.values)))
    pairings = itertools.permutations(range(len(left)))
    best = min(max(dist[i, j] for i, j in enumerate(pairing)) for pairing in pairings)
    assert compare(left, right).max_pair_distance == best


def test_compare_is_symmetric():
    rng = random.Random(5)
    for _ in range(40):
        size = rng.randint(1, 8)
        a = _multiset(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)))
        b = _multiset(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)))
        assert compare(a, b) == compare(b, a)


def test_compare_respects_explicit_tolerance():
    assert compare(_multiset(0), _multiset(1e-6), tolerance=1e-3).equal


def test_conjugate_closed():
    assert conjugate_closed(_multiset(complex(1, 2), complex(1, -2), 3))
    assert not conjugate_closed(_multiset(1j))


def test_unit_circle_property():
    spectrum = roots(charpoly_exact(transition_matrix(petersen_graph())))
    assert all(abs(abs(z) - 1) < 1e-10 for z in spectrum.values)
    assert conjugate_closed(spectrum)
    assert cmath.isclose(
        max(z.real for z in spectrum.values), 1.0, abs_tol=1e-10
    )
