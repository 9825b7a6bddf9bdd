import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from walkzeta import exact
from walkzeta.exact import (
    HESSENBERG_MIN_DIM,
    ExactDivisionError,
    Matrix,
    Poly,
    charpoly_exact,
    square_free_decomposition,
)

from oracles import FractionPoly, faddeev_leverrier, fraction_gcd, matmul, perm_det
from oracles import square_free_by_fractions, trace

X = FractionPoly.x()
LCM_210 = Matrix([[Fraction(1, d), Fraction(-d, 3), 1, 0] for d in (2, 3, 5, 7)])


def _rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_matrix(rng, n):
    return Matrix([[_rand_fraction(rng) for _ in range(n)] for _ in range(n)])


def _det(m):
    """Determinant read off the constant term of the characteristic polynomial."""
    return (-1) ** m.rows * charpoly_exact(m).coeffs[0]


def test_poly_basics():
    p = Poly((1, 2, 3))
    assert p.degree == 2
    assert p.coeffs == (Fraction(1), Fraction(2), Fraction(3))
    assert (p.ints, p.scale) == ((1, 2, 3), 1)
    assert Poly((1, 0, 0)).degree == 0
    assert Poly().is_zero() and Poly().degree == -1 and Poly().scale == 1
    assert Poly.from_ints([0, 0], 6) == Poly() and Poly.from_ints([0, 0], 6).scale == 1
    half = Poly.from_ints([2, 4, 6], 4)
    assert (half.ints, half.scale) == ((1, 2, 3), 2) and half.coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
    with pytest.raises(ValueError):
        Poly.from_ints([1], 0)
    assert Poly((Fraction(1, 2),)) == Fraction(1, 2) and Poly((3,)) == 3
    f = FractionPoly.of(p)
    assert f == p and hash(f) == hash(p)
    assert f(2) == 1 + 4 + 12
    assert f(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)
    assert f.derivative() == Poly((2, 6))
    assert (X + 1) * (X - 1) == X**2 - 1
    assert (X + 1) ** 3 == Poly((1, 3, 3, 1))
    assert 2 * f == Poly((2, 4, 6))
    assert p * X == Poly((0, 1, 2, 3))  # a plain Poly operand takes the FractionPoly's operators
    assert f - p == FractionPoly.zero()
    assert (X**2 - 1).reversed() == 1 - X**2
    assert Poly((0, 1, 2)).reversed() == Poly((2, 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), max_size=8), st.integers(1, 60))
def test_poly_canonical_form(rationals, k):
    stripped = list(rationals)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    p = Poly(rationals)
    s = lcm(*(x.denominator for x in rationals))
    q = Poly.from_ints([k * int(x * s) for x in rationals], k * s)
    assert q == p and hash(q) == hash(p)
    assert (q.ints, q.scale) == (p.ints, p.scale)
    assert p.scale >= 1 and gcd(p.scale, *p.ints) == 1 and (not p.ints or p.ints[-1])
    assert p.coeffs == tuple(stripped)
    assert p.to_strings() == [str(Fraction(x)) for x in stripped]
    low = next((i for i, x in enumerate(stripped) if x), len(stripped))  # x^low divides p
    assert p.reversed().reversed() == Poly(stripped[low:])
    if low == 0:
        assert p.reversed().reversed() == p


def test_poly_string_roundtrip():
    p = Poly((Fraction(1, 3), -2, Fraction(7, 5)))
    assert Poly(Fraction(c) for c in p.to_strings()) == p
    assert p.to_strings() == ["1/3", "-2", "7/5"]


def test_poly_format():
    assert (X**6 - 2 * X**3 + 1).format("t") == "1 - 2*t^3 + t^6"
    assert FractionPoly.zero().format() == "0"


def test_poly_divmod():
    q, r = (X**3 + 1).divmod(X + 1)
    assert q == X**2 - X + 1 and r.is_zero()
    q, r = (X**2 + 1).divmod(X - 1)
    assert q == X + 1 and r == Poly((2,))


def _int_gcd_monic(a, b):
    """exact._int_gcd on the integer coefficients of a and b: primitive, leading
    coefficient positive, and returned here made monic."""
    g = exact._int_gcd(list(a.ints), list(b.ints))
    assert gcd(*g) == 1 and g[-1] > 0
    return Poly.from_ints(g, g[-1])


def test_poly_gcd():
    # the primitive remainder sequence of square_free_decomposition against Euclid in Fractions
    a = (X - 1) * (X + 2)
    b = (X - 1) * (X + 3)
    assert _int_gcd_monic(a, b) == fraction_gcd(a, b) == X - 1
    assert _int_gcd_monic(a, FractionPoly.zero()) == fraction_gcd(a, FractionPoly.zero()) == a.monic()
    assert _int_gcd_monic(X + 1, X + 2) == fraction_gcd(X + 1, X + 2) == FractionPoly.one()
    # non-monic, fractional inputs still give a monic gcd
    a, b = Fraction(3, 7) * (X - 1) ** 2, Fraction(5, 2) * (X - 1)
    assert _int_gcd_monic(a, b) == fraction_gcd(a, b) == X - 1


def test_square_free_decomposition():
    p = (X - 1) ** 2 * (X + 2)
    assert square_free_decomposition(p) == [(X + 2, 1), (X - 1, 2)]
    p = (X**2 + 1) ** 3 * (X - 5)
    parts = square_free_decomposition(p)
    rebuilt = FractionPoly.one()
    for f, mult in parts:
        rebuilt = rebuilt * FractionPoly.of(f) ** mult
    assert rebuilt == p.monic()
    assert (X - 5, 1) in parts and (X**2 + 1, 3) in parts


def test_square_free_random_products():
    rng = random.Random(5)
    for _ in range(10):
        factors = []
        p = FractionPoly.one()
        for root in rng.sample(range(-6, 7), rng.randint(1, 3)):
            mult = rng.randint(1, 3)
            factors.append((root, mult))
            p = p * (X - root) ** mult
        parts = square_free_decomposition(p)
        rebuilt = FractionPoly.one()
        for f, mult in parts:
            rebuilt = rebuilt * FractionPoly.of(f) ** mult
        assert rebuilt == p
        assert sum(f.degree * mult for f, mult in parts) == p.degree


_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_NONZERO = _RATIONALS.filter(bool)


@st.composite
def _factored_polys(draw):
    """Pairs (f, m): non-monic rational linear factors and quadratics
    lead * (x^2 + bx + c) with c > b^2 / 4, so without a rational root."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        lead, b = draw(_NONZERO), draw(_RATIONALS)
        if draw(st.booleans()):
            f = lead * X + b
        else:
            gap = draw(st.fractions(min_value=Fraction(1, 12), max_value=20, max_denominator=12))
            f = lead * (X**2 + b * X + b * b / 4 + gap)
        factors.append((f, draw(st.integers(1, 4))))
    return factors


@settings(max_examples=60, deadline=None)
@given(_factored_polys(), _NONZERO)
def test_square_free_matches_fraction_oracle(factors, scale):
    p = FractionPoly.constant(scale)
    for f, mult in factors:
        p = p * f**mult
    parts = square_free_decomposition(p)
    assert parts == square_free_by_fractions(p)
    rebuilt = FractionPoly.one()
    for f, mult in parts:
        f = FractionPoly.of(f)
        assert f.leading() == 1 and fraction_gcd(f, f.derivative()) == 1
        rebuilt = rebuilt * f**mult
    assert rebuilt == p.monic()


def test_integer_division_by_a_non_divisor_raises():
    assert exact._int_divexact([-2, 1, 1], [-1, 1]) == [2, 1]  # (x + 2)(x - 1)
    assert exact._int_divexact([], [-1, 1]) == []
    # x^2 + 1 by x + 1: every quotient coefficient integral, remainder 2
    with pytest.raises(ExactDivisionError) as err:
        exact._int_divexact([1, 0, 1], [1, 1])
    assert err.value.remainder == Poly((2,))
    # the same over scale 6: the quotient is unscaled, the remainder 2 / 6
    assert exact._int_divexact([-2, 1, 1], [-1, 1], 6) == [2, 1]
    with pytest.raises(ExactDivisionError) as err:
        exact._int_divexact([1, 0, 1], [1, 1], 6)
    assert err.value.remainder == Poly((Fraction(1, 3),))
    # 3x^2 + 1 by 2x + 1: the leading coefficient does not divide
    with pytest.raises(ExactDivisionError) as err:
        exact._int_divexact([1, 0, 3], [1, 2])
    assert err.value.remainder == Poly((Fraction(7, 4),))
    # 3x + 1 by 2x + 1: the floor quotient 1 would leave a zero remainder
    with pytest.raises(ExactDivisionError) as err:
        exact._int_divexact([1, 3], [1, 2])
    assert err.value.remainder == Poly((Fraction(-1, 2),))
    # a divisor of higher degree than a nonzero dividend
    with pytest.raises(ExactDivisionError):
        exact._int_divexact([3], [1, 1])


def test_det_fixtures():
    assert _det(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert _det(Matrix([[0, 1], [1, 0]])) == -1
    a_k4 = Matrix([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    assert _det(a_k4) == -3
    assert _det(Matrix([])) == 1


def test_det_rational_entries():
    m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
    assert _det(m) == Fraction(1, 10) - Fraction(1, 12)


def test_det_singular():
    m = Matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert _det(m) == 0


def test_det_needs_pivoting():
    # zero leading principal minors, around which elimination must pivot
    m = Matrix([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    assert _det(m) == -6


def test_det_matches_permutation_expansion():
    rng = random.Random(42)
    for n in (2, 3, 4, 5):
        for _ in range(8):
            m = _rand_matrix(rng, n)
            assert _det(m) == perm_det(m)


def test_det_multiplicative():
    rng = random.Random(7)
    for _ in range(100):
        a = _rand_matrix(rng, 5)
        b = _rand_matrix(rng, 5)
        assert _det(matmul(a, b)) == _det(a) * _det(b)


def test_det_nonsquare():
    with pytest.raises(ValueError):
        _det(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_charpoly_fixtures():
    assert charpoly_exact(Matrix([[0, 0], [0, 0]])) == X**2
    assert charpoly_exact(Matrix([[0, 1], [1, 0]])) == X**2 - 1
    a_c3 = Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert charpoly_exact(a_c3) == X**3 - 3 * X - 2


def test_charpoly_matches_faddeev_leverrier():
    rng = random.Random(11)
    cases = [_rand_matrix(rng, n) for n in (0, 1, 2, 3, 4, 6, 8)]
    cases += [
        Matrix([[0] * 4] * 4),
        Matrix([[1, 1, 0, 1], [1, 1, 0, 1], [0, 0, 1, 0], [1, 0, 1, 0]]),  # singular 0/1
        Matrix([[1] * 5 for _ in range(5)]),  # J: eigenvalue 0 repeated 4 times
        Matrix([[0, 2, -1], [3, 0, 5], [-4, 1, 0]]),  # zero diagonal
        LCM_210,
    ]
    for m in cases:
        assert charpoly_exact(m) == faddeev_leverrier(m)


def test_charpoly_constant_term_is_det():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 5)
        m = _rand_matrix(rng, n)
        p = charpoly_exact(m)
        assert p.coeffs[0] == (-1) ** n * perm_det(m)
        assert p.degree == n and p.ints[-1] == p.scale


def test_matrix_ops():
    a = Matrix([[1, 2], [3, 4]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    assert Matrix([[1, 2, 3]]).transpose() == Matrix([[1], [2], [3]])
    assert Matrix([]).transpose() == Matrix([])
    # rows of lists cannot hold 0 x r, so an r x 0 matrix has no transpose
    with pytest.raises(ValueError, match="2x0"):
        Matrix([[], []]).transpose()
    assert trace(a) == 5 and matmul(a, a)[0, 0] == 7
    with pytest.raises(ValueError):
        matmul(a, Matrix([[1, 2, 3]]))
    assert Matrix([["1/2", -3]]).data[0] == [Fraction(1, 2), Fraction(-3)]
    # canonical form: integer rows over the lcm of the reduced denominators
    half = Matrix([[Fraction(1, 2), 1]])
    assert (half.ints, half.scale) == ([[1, 2]], 2)
    assert half == Matrix.from_ints([[2, 4]], 4) and hash(half) == hash(Matrix.from_ints([[2, 4]], 4))
    assert half.transpose().scale == 2 and half.transpose().ints == [[1], [2]]
    assert LCM_210.scale == 210
    for build in (Matrix, Matrix.from_ints):
        with pytest.raises(ValueError):
            build([[1, 2], [3]])


def test_charpoly_matches_faddeev_leverrier_on_small_walk_matrices():
    from walkzeta.operators import transition_matrix
    from walkzeta.experiments import builtin_corpus

    covered = 0
    for entry in builtin_corpus():
        if 2 * entry.graph.m > 8:
            continue
        u = transition_matrix(entry.graph)
        assert charpoly_exact(u) == faddeev_leverrier(u), entry.name
        covered += 1
    assert covered >= 4


def _kernel_poly(kernel, m):
    """char(M) from one integer kernel, scaled back as charpoly_exact does."""
    return Poly([Fraction(c, m.scale**i) for i, c in enumerate(kernel(m.ints))][::-1])


def _check_kernels_agree(m):
    (coeffs,) = exact._hessenberg_charpolys([m.ints])
    assert coeffs == exact._berkowitz(m.ints)
    return coeffs


def _random_kernel_inputs(rng, n):
    """Seeded random 0/1, integer and rational n x n matrices."""
    return [
        Matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]),
        Matrix([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]),
        _rand_matrix(rng, n),
    ]


def test_hessenberg_kernel_matches_berkowitz_and_faddeev_leverrier():
    rng = random.Random(17)
    for n in (0, 1, 2, 3, 5, 8, HESSENBERG_MIN_DIM - 1, HESSENBERG_MIN_DIM, 17, 24):
        for m in _random_kernel_inputs(rng, n):
            _check_kernels_agree(m)
            if n <= 8:
                hessenberg = lambda ints: exact._hessenberg_charpolys([ints])[0]
                assert _kernel_poly(hessenberg, m) == faddeev_leverrier(m)
            assert charpoly_exact(m) == _kernel_poly(exact._berkowitz, m)


def test_hessenberg_kernel_special_matrices():
    n = 20
    rng = random.Random(31)
    ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    # singular: two equal rows
    singular = Matrix(ints[:-1] + [ints[0]])
    assert _check_kernels_agree(singular)[-1] == 0
    # nilpotent: u v^T with v.u = 0, and a shift conjugated by a permutation
    u = [rng.randint(-9, 9) for _ in range(n - 1)] + [1]
    v = [rng.randint(-9, 9) for _ in range(n - 1)]
    v.append(-sum(a * b for a, b in zip(u, v)))
    perm = rng.sample(range(n), n)
    for m in (
        Matrix([[a * b for b in v] for a in u]),
        Matrix([[1 if perm[j] == perm[i] + 1 else 0 for j in range(n)] for i in range(n)]),
    ):
        assert _check_kernels_agree(m) == [1] + [0] * n
        assert charpoly_exact(m) == X**n
    # repeated eigenvalues: J, 3I + J, and a block-diagonal copy of one block
    ones = Matrix([[1] * n for _ in range(n)])
    assert charpoly_exact(ones) == X ** (n - 1) * (X - n)
    shifted = Matrix([[1 + 3 * (i == j) for j in range(n)] for i in range(n)])
    assert charpoly_exact(shifted) == (X - 3) ** (n - 1) * (X - 3 - n)
    block = [[_rand_fraction(rng) for _ in range(10)] for _ in range(10)]
    zeros = [Fraction(0)] * 10
    twice = Matrix([row + zeros for row in block] + [zeros + row for row in block])
    assert charpoly_exact(twice) == FractionPoly.of(charpoly_exact(Matrix(block))) ** 2
    for m in (ones, shifted, twice):
        _check_kernels_agree(m)
    # entries above 2^63
    huge = Matrix([[rng.randint(2**63, 2**70) * rng.choice((-1, 1)) for _ in range(16)] for _ in range(16)])
    _check_kernels_agree(huge)


def test_hessenberg_pivot_vanishing_mod_first_prime():
    bits = exact._prime_bits(HESSENBERG_MIN_DIM)  # the primes the kernel uses at this size
    first = exact._primes_exceeding(1, bits)[0]
    rng = random.Random(37)
    rows = [[rng.randint(1, 9) for _ in range(HESSENBERG_MIN_DIM)] for _ in range(HESSENBERG_MIN_DIM)]
    rows[1][0] = first  # the first subdiagonal entry is 0 mod the first prime only
    m = Matrix(rows)
    assert exact._primes_exceeding(2 * exact._coefficient_bound(rows), bits)[0] == first
    _check_kernels_agree(m)


def _mixed_batch(rng, n):
    """n x n matrices of every kind the kernel meets, n even and >= 8."""
    from walkzeta.graphs import Graph
    from walkzeta.operators import positive_support, transition_matrix

    e = n // 2  # a cycle on e - 1 vertices with one pendant edge: 2e = n arcs
    tadpole = Graph(e, tuple((i, (i + 1) % (e - 1)) for i in range(e - 1)) + ((0, e - 1),))
    u = transition_matrix(tadpole)
    assert u.rows == n and u.scale == 3
    first = exact._primes_exceeding(1, exact._prime_bits(n))[0]
    pivot = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    pivot[1][0] = first  # the first subdiagonal entry is 0 mod the first prime only
    huge = [[rng.randint(2**63, 2**70) * rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
    return [u, positive_support(u), Matrix(pivot), Matrix(huge), *_random_kernel_inputs(rng, n)]


def _shuffled_sizes_batch(rng):
    """Random matrices of 5, 13, 5, 20 and 13 rows, across HESSENBERG_MIN_DIM, shuffled."""
    batch = [m for n in (5, 13, 5, 20, 13) for m in _random_kernel_inputs(rng, n)[:2]]
    rng.shuffle(batch)
    return batch


def test_charpolys_exact_matches_one_matrix_at_a_time(monkeypatch):
    rng = random.Random(43)
    for n in (8, HESSENBERG_MIN_DIM - 1, 16, 24):
        batch = _mixed_batch(rng, n)
        singles = [charpoly_exact(m) for m in batch]
        assert singles == [_kernel_poly(exact._berkowitz, m) for m in batch]
        assert exact.charpolys_exact(batch) == singles
        if n >= HESSENBERG_MIN_DIM:
            # chunks of one, two and three slices, which cut across matrices
            for slices in (1, 2, 3):
                monkeypatch.setattr(exact, "CHUNK_BYTES", slices * 8 * n * n)
                assert exact.charpolys_exact(batch) == singles
            monkeypatch.undo()
    assert exact.charpolys_exact([]) == []

    # a batch of several sizes: results in input order, one numpy call per size
    batch = _shuffled_sizes_batch(rng)
    singles = [charpoly_exact(m) for m in batch]
    assert [p.degree for p in singles] == [m.rows for m in batch]
    calls = []
    kernel = exact._hessenberg_charpolys

    def recording_kernel(lifted):
        calls.append(sorted(map(len, lifted)))
        return kernel(lifted)

    monkeypatch.setattr(exact, "_hessenberg_charpolys", recording_kernel)
    assert exact.charpolys_exact(batch) == singles
    assert sorted(calls) == [[13] * 4, [20] * 2]


def test_charpolys_exact_rejects_non_square_batches():
    square = Matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="non-square"):
        exact.charpolys_exact([square, Matrix([[1, 2]])])


def test_lazy_kernel_at_the_prime_size_boundary():
    # 63 rows take primes below 2^17 and 64 rows primes below 2^16: at both
    # sizes the delayed reduction runs closest to the int64 bound.  Entries
    # of -1 sit at p - 1 under every prime.
    assert [exact._prime_bits(n) for n in (22, 23, 63, 64, 181, 182)] == [18, 17, 17, 16, 16, 15]
    rng = random.Random(41)
    for n in (63, 64):
        bits = exact._prime_bits(n)
        q = exact._primes_exceeding(1, bits)[0]
        assert 2 ** (bits - 1) < q < 2**bits and (q + n * q * q) * (1 + n * q) < 2**63
        signs = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
        minus_ones = [[-1] * n for _ in range(n)]
        for rows in (signs, minus_ones):
            _check_kernels_agree(Matrix(rows))
        assert charpoly_exact(Matrix(minus_ones)) == X ** (n - 1) * (X + n)


def test_primes_exceeding_stops_at_three():
    assert exact._primes_exceeding(1000, 4) == [13, 11, 7]
    assert exact._primes_exceeding(15014, 4) == [13, 11, 7, 5, 3]
    with pytest.raises(ValueError):
        exact._primes_exceeding(15015, 4)
    with pytest.raises(ValueError):
        exact._primes_exceeding(3, 2)


def _odd_primes_below(limit):
    """The odd primes below limit, descending, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for d in range(2, isqrt(limit - 1) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
    return [k for k in range(limit - 1, 2, -1) if sieve[k]]


def test_is_prime_matches_sieve():
    primes = set(_odd_primes_below(2**16)) | {2}
    assert [k for k in range(2**16) if exact._is_prime(k)] == sorted(primes)


def test_primes_exceeding_lists_every_odd_prime_below_2_bits():
    for bits in range(4, 19):
        expected = _odd_primes_below(2**bits)[:300]  # more primes than any kernel call takes
        assert exact._primes_exceeding(prod(expected) - 1, bits) == expected
        for count in (1, 2, len(expected) // 2):
            assert exact._primes_exceeding(prod(expected[:count]) - 1, bits) == expected[:count]


def test_hessenberg_charpolys_shares_one_prime_list(monkeypatch):
    rng = random.Random(47)
    n = 16
    ones = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    huge = [[rng.randint(2**63, 2**70) * rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
    batch = [Matrix(ones), Matrix(huge)]
    bound = max(exact._coefficient_bound(ones), exact._coefficient_bound(huge))
    primes = exact._primes_exceeding(2 * bound, exact._prime_bits(n))
    assert len(exact._primes_exceeding(2 * exact._coefficient_bound(ones), exact._prime_bits(n))) < len(primes)
    singles = [charpoly_exact(m) for m in batch]
    seen = []
    residues = exact._charpoly_residues

    def recording_residues(h, chunk):
        seen.extend(chunk)
        return residues(h, chunk)

    monkeypatch.setattr(exact, "_charpoly_residues", recording_residues)
    assert exact.charpolys_exact(batch) == singles
    assert seen == primes * 2  # the 0/1 matrix, then the huge one, each under every prime


def test_hessenberg_kernel_on_hadamard_matrix():
    h = [[1]]
    while len(h) < 16:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    m = Matrix(h)
    # H^2 = 16 I and trace 0: eigenvalues +-4, eight of each, |det| = 4^16
    assert charpoly_exact(m) == (X**2 - 16) ** 8
    assert _check_kernels_agree(m)[-1] == 4**16
    assert exact._coefficient_bound(h) >= 4**16


def test_coefficient_bound_and_primes_on_corpus_operators():
    from walkzeta.experiments import builtin_corpus
    from walkzeta.operators import TARGETS, operator_matrix

    largest = dim = 0
    for entry in builtin_corpus():
        for target in TARGETS:
            lifted = operator_matrix(entry.graph, target).ints
            bound = exact._coefficient_bound(lifted)
            top = max(abs(c) for c in exact._berkowitz(lifted))
            assert top <= bound and top.bit_length() <= bound.bit_length(), (entry.name, target)
            if bound > largest:
                largest, dim = bound, len(lifted)
    bits = exact._prime_bits(dim)  # the primes the kernel uses for that operator
    primes = exact._primes_exceeding(2 * largest, bits)
    assert len(set(primes)) == len(primes) > 1
    for q in primes:
        assert 2 ** (bits - 1) < q < 2**bits
        assert q % 2 and all(q % d for d in range(3, isqrt(q) + 1, 2))
