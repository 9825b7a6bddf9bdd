import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from walkzeta import exact
from walkzeta.exact import (
    Matrix,
    Poly,
    SizeGuardError,
    charpoly_exact,
    square_free_decomposition,
)

from oracles import FractionPoly, berkowitz, faddeev_leverrier, fraction_gcd, matmul, perm_det
from oracles import square_free_by_fractions, trace

X = FractionPoly.x()
HESSENBERG_ROWS = 49  # the fewest rows the default CHUNK_BYTES sends to Hessenberg reduction
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
    assert Poly([Fraction(-1, 2), -1, 0, Fraction(3, 4), 1]).format("x") == "-1/2 - x + 3/4*x^3 + x^4"
    assert Poly([0, -1, Fraction(-2, 3), Fraction(1, 3)]).format() == "-t - 2/3*t^2 + 1/3*t^3"
    assert Poly([-1]).format() == "-1" and Poly([Fraction(5, 2)]).format() == "5/2"


def test_poly_strings_match_fraction_strings():
    # to_strings prints from the integers what str(Fraction) prints: zero,
    # negative values, whole multiples of the scale and scale 1 included
    rng = random.Random(84)
    for scale in (1, 2, 6, 7, 360, 2**70, 3**40 * 10):
        for top in (50, 10**30):
            ints = [0, 1, -1, scale, -scale, 2 * scale, *(rng.randint(-top, top) for _ in range(40)), 1]
            p = Poly.from_ints(ints, scale)
            assert p.to_strings() == [str(Fraction(c, scale)) for c in ints]
            assert p.to_strings() == [str(c) for c in p.coeffs]


def test_poly_divmod():
    q, r = (X**3 + 1).divmod(X + 1)
    assert q == X**2 - X + 1 and r.is_zero()
    q, r = (X**2 + 1).divmod(X - 1)
    assert q == X + 1 and r == Poly((2,))


def test_int_mul_matches_the_schoolbook_loop():
    def schoolbook(a, b):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    rng = random.Random(87)
    for _ in range(300):
        a, b = ([rng.randint(-2**rng.choice((3, 70, 1000)), 2**70) for _ in range(rng.randint(1, 30))]
                for _ in range(2))
        got = exact._int_mul(a, b)
        assert got == schoolbook(a, b) and all(type(c) is int for c in got)
    assert exact._int_mul([], [1, 2]) == exact._int_mul([3], []) == exact._int_mul([], []) == []


def _gcd_monic(a, b):
    """exact._int_gcd_cofactors on the integer coefficients of a and b: the gcd
    primitive with leading coefficient positive, the cofactors exact, and the
    gcd returned here made monic."""
    x, y = list(a.ints), list(b.ints)
    g, quo_x, quo_y = exact._int_gcd_cofactors(x, y)
    assert gcd(*g) == 1 and g[-1] > 0
    for p, quo in ((x, quo_x), (y, quo_y)):
        assert Poly.from_ints(exact._int_mul(g, quo)) == Poly.from_ints(p)
    return Poly.from_ints(g, g[-1])


def test_poly_gcd():
    # the heuristic gcd of square_free_decomposition against Euclid in Fractions
    a = (X - 1) * (X + 2)
    b = (X - 1) * (X + 3)
    assert _gcd_monic(a, b) == fraction_gcd(a, b) == X - 1
    assert _gcd_monic(a, FractionPoly.zero()) == fraction_gcd(a, FractionPoly.zero()) == a.monic()
    assert _gcd_monic(X + 1, X + 2) == fraction_gcd(X + 1, X + 2) == FractionPoly.one()
    # non-monic, fractional inputs still give a monic gcd
    a, b = Fraction(3, 7) * (X - 1) ** 2, Fraction(5, 2) * (X - 1)
    assert _gcd_monic(a, b) == fraction_gcd(a, b) == X - 1


_SMALL_POLYS = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any)


@settings(max_examples=100, deadline=None)
@given(_SMALL_POLYS, _SMALL_POLYS, _SMALL_POLYS)
def test_gcd_of_products_matches_fraction_oracle(common, u, v):
    # a = common * u and b = common * v with u and v coprime have the gcd common, made monic
    u, v = Poly.from_ints(u), Poly.from_ints(v)
    assume(fraction_gcd(u, v) == 1)
    common = Poly.from_ints(common)
    a, b = FractionPoly.of(common) * u, FractionPoly.of(common) * v
    assert _gcd_monic(a, b) == fraction_gcd(a, b) == FractionPoly.of(common).monic()


def test_gcd_retries_a_spurious_first_candidate(monkeypatch):
    # a = x(x - 1), b = (x - 1)(x^2 + 2): at the first xi = 4, gcd(a(4), b(4)) =
    # gcd(12, 54) = 6 = 4 + 2 reads as x + 2, which divides neither
    a, b = [0, -1, 1], [-2, 2, -1, 1]
    quotients = []
    quotient = exact._int_quotient

    def recording(p, q):
        quotients.append(quotient(p, q))
        return quotients[-1]

    monkeypatch.setattr(exact, "_int_quotient", recording)
    assert exact._int_gcd_cofactors(a, b) == ([-1, 1], [0, 1], [2, 0, 1])
    assert quotients[0] is None


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


def test_square_free_splits_a_high_multiplicity_product():
    # the shape of char(U) at 192 arcs: (x - 1)^48 (x + 1)^50 times square-free factors
    rng = random.Random(29)
    f1, f2 = ([rng.randint(-99, 99) for _ in range(degree)] + [rng.randint(1, 99)] for degree in (45, 44))
    p = exact._int_mul(f1, exact._int_mul(f2, f2))
    for root, mult in ((1, 48), (-1, 50)):
        for _ in range(mult):
            p = exact._int_mul(p, [-root, 1])
    parts = square_free_decomposition(Poly.from_ints(p))
    expected = [(f1, 1), (f2, 2), ([-1, 1], 48), ([1, 1], 50)]
    assert parts == [(Poly.from_ints(f, f[-1]), mult) for f, mult in expected]


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


def _kernel_poly(coeffs, m):
    """char(M) from the descending coefficients of char(L), L = m.ints = sM: coefficient k over s^k."""
    return Poly([Fraction(c, m.scale**i) for i, c in enumerate(coeffs)][::-1])


def _power_sum_slice_bytes(n):
    """The bytes of one n-row power-sum slice: the slice, its ceil(sqrt(n)) baby powers and five products."""
    return 8 * (isqrt(n) + 7) * n * n


def _force_kernel(patch, n, hessenberg):
    """Set CHUNK_BYTES so that n rows run Hessenberg reduction, which takes every budget
    below one power-sum slice, or the power sums, which take every budget from one on;
    the default is kept where it already picks that kernel."""
    one = _power_sum_slice_bytes(n)
    patch.setattr(exact, "CHUNK_BYTES", min(exact.CHUNK_BYTES, one - 1) if hessenberg else max(exact.CHUNK_BYTES, one))


def _kernels_run(m):
    """The names of the residue kernels that charpoly_exact(m) runs."""
    seen = set()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_power_sum_residues", "_charpoly_residues"):

            def record(h, primes, name=name, kernel=getattr(exact, name)):
                seen.add(name)
                return kernel(h, primes)

            patch.setattr(exact, name, record)
        charpoly_exact(m)
    return seen


def _kernel_coeffs(m, hessenberg):
    """Descending char(L), L = m.ints, read off the shared driver's (D char(M), D), every size
    sent to one residue kernel."""
    with pytest.MonkeyPatch.context() as patch:
        _force_kernel(patch, m.rows, hessenberg)
        ((p, d),) = exact._multimodular_charpolys([m])
    assert len(p) == m.rows + 1 and p[-1] == d
    return [Fraction(c * m.scale**k, d) for k, c in enumerate(reversed(p))]


def _bound(m, dtype=None):
    """(B, D) of one matrix from _coefficient_bounds, on an int64 stack as the driver builds it
    when every entry fits, else on Python ints."""
    fits = all(-(2**63) <= x < 2**63 for row in m.ints for x in row)
    stack = np.array(m.ints, dtype=dtype or (np.int64 if fits else object)).reshape(1, m.rows, m.rows)
    return exact._coefficient_bounds(stack, [m.scale])[0]


def _check_kernels_agree(m):
    """Both residue kernels equal the Berkowitz oracle on m.ints, whose coefficients are returned."""
    coeffs = berkowitz(m.ints)
    assert _kernel_coeffs(m, hessenberg=False) == coeffs
    assert _kernel_coeffs(m, hessenberg=True) == coeffs
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
    for n in (0, 1, 2, 3, 5, 8, 12, 13, 17, 24):
        for m in _random_kernel_inputs(rng, n):
            _check_kernels_agree(m)
            if n <= 8:
                assert _kernel_poly(_kernel_coeffs(m, hessenberg=True), m) == faddeev_leverrier(m)
            assert charpoly_exact(m) == _kernel_poly(berkowitz(m.ints), m)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, HESSENBERG_ROWS + 8), st.integers(0, 2), st.randoms(use_true_random=False))
def test_power_sum_kernel_matches_berkowitz_and_hessenberg(n, kind, rng):
    # a 0/1, integer or rational matrix on either side of the crossover
    m = _random_kernel_inputs(rng, n)[kind]
    _check_kernels_agree(m)
    assert charpoly_exact(m) == _kernel_poly(berkowitz(m.ints), m)


def test_power_sum_kernel_special_matrices():
    rng = random.Random(53)
    for n in (1, 7, HESSENBERG_ROWS - 1):
        zero = Matrix([[0] * n for _ in range(n)])
        assert _check_kernels_agree(zero) == [1] + [0] * n
        # c I: every power sum is n c^k, and the minimal polynomial has degree 1
        scalar = Matrix([[Fraction(-7, 3) * (i == j) for j in range(n)] for i in range(n)])
        _check_kernels_agree(scalar)
        assert charpoly_exact(scalar) == (X + Fraction(7, 3)) ** n
        upper = Matrix([[rng.randint(-9, 9) * (j > i) for j in range(n)] for i in range(n)])
        assert _check_kernels_agree(upper) == [1] + [0] * n
        assert charpoly_exact(upper) == X**n
    # an entry beyond int64: the slices are reduced from Python ints
    huge = Matrix([[rng.randint(2**63, 2**70) * rng.choice((-1, 1)) for _ in range(9)] for _ in range(9)])
    _check_kernels_agree(huge)


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
    bits = exact._prime_bits(HESSENBERG_ROWS)  # the primes the kernel uses at this size
    first = exact._primes_exceeding(1, bits)[0]
    rng = random.Random(37)
    rows = [[rng.randint(1, 9) for _ in range(HESSENBERG_ROWS)] for _ in range(HESSENBERG_ROWS)]
    rows[1][0] = first  # the first subdiagonal entry is 0 mod the first prime only
    m = Matrix(rows)
    assert exact._primes_exceeding(2 * _bound(m)[0], bits)[0] == first
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
    """Random matrices of 5, 20 and HESSENBERG_ROWS rows, across the crossover, shuffled."""
    sizes = (5, HESSENBERG_ROWS, 5, 20, HESSENBERG_ROWS)
    batch = [m for n in sizes for m in _random_kernel_inputs(rng, n)[:2]]
    rng.shuffle(batch)
    return batch


def test_charpolys_exact_matches_one_matrix_at_a_time(monkeypatch):
    rng = random.Random(43)
    for n in (8, 12, 16, 24):
        batch = _mixed_batch(rng, n)
        singles = [charpoly_exact(m) for m in batch]
        assert singles == [_kernel_poly(berkowitz(m.ints), m) for m in batch]
        assert exact.charpolys_exact(batch) == singles
        # the power sums one slice at a time
        monkeypatch.setattr(exact, "CHUNK_BYTES", _power_sum_slice_bytes(n))
        assert exact.charpolys_exact(batch) == singles
        # Hessenberg reduction, on budgets below one power-sum slice, in chunks of one,
        # two and three slices, which cut across matrices
        for slices in (1, 2, 3):
            assert slices * 8 * n * n < _power_sum_slice_bytes(n)
            monkeypatch.setattr(exact, "CHUNK_BYTES", slices * 8 * n * n)
            assert exact.charpolys_exact(batch) == singles
        monkeypatch.undo()
    assert exact.charpolys_exact([]) == []

    # a batch of several sizes: results in input order, one driver call per
    # size, each with the residue kernel of its side of the crossover
    batch = _shuffled_sizes_batch(rng)
    singles = [charpoly_exact(m) for m in batch]
    assert [p.degree for p in singles] == [m.rows for m in batch]
    calls = []  # (function, rows, matrices or slices)
    for name in ("_multimodular_charpolys", "_power_sum_residues", "_charpoly_residues"):

        def record(first, *rest, name=name, function=getattr(exact, name)):
            # the driver takes a list of Matrix, a residue kernel an array of slices
            calls.append((name, first[0].rows if isinstance(first, list) else first.shape[1], len(first)))
            return function(first, *rest)

        monkeypatch.setattr(exact, name, record)
    assert exact.charpolys_exact(batch) == singles
    drivers = sorted(call[1:] for call in calls if call[0] == "_multimodular_charpolys")
    assert drivers == [(5, 4), (20, 2), (HESSENBERG_ROWS, 4)]
    assert {call[1] for call in calls if call[0] == "_power_sum_residues"} == {5, 20}
    assert {call[1] for call in calls if call[0] == "_charpoly_residues"} == {HESSENBERG_ROWS}


def _any_kind_matrix(rng, n, kind):
    """A random n x n matrix: 0/1, entries past int64, or rational with denominators 1-9 or
    the first primes either residue kernel takes at n rows, which the batch's primes skip."""
    if kind == 0:
        return Matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
    if kind == 1:
        return Matrix([[rng.randint(2**63, 2**70) * rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)])
    if kind == 2:
        return _rand_matrix(rng, n)
    firsts = [exact._primes_exceeding(1, rule(n))[0] for rule in (exact._power_sum_bits, exact._prime_bits)]
    return Matrix([[Fraction(rng.randint(-9, 9), rng.choice(firsts)) for _ in range(n)] for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from((1, 5, 9, 16)), st.integers(0, 3)), min_size=1, max_size=8),
    st.sampled_from((None, 1, 3)),
    st.randoms(use_true_random=False),
)
def test_mixed_batches_match_one_matrix_at_a_time(shapes, slices, rng):
    # 0/1, huge-entry and rational matrices with repeated sizes, each under its own prime
    # prefix, at the default budget or in chunks of one or three of the largest slices
    batch = [_any_kind_matrix(rng, n, kind) for n, kind in shapes]
    singles = [charpoly_exact(m) for m in batch]
    with pytest.MonkeyPatch.context() as patch:
        if slices:
            patch.setattr(exact, "CHUNK_BYTES", slices * 8 * max(n for n, _ in shapes) ** 2)
        assert exact.charpolys_exact(batch) == singles


def test_kernel_crossover_is_where_a_power_sum_slice_outgrows_chunk_bytes(monkeypatch):
    # at the default CHUNK_BYTES a 48-row power-sum slice fits and a 49-row one does not
    assert _power_sum_slice_bytes(HESSENBERG_ROWS - 1) <= exact.CHUNK_BYTES < _power_sum_slice_bytes(HESSENBERG_ROWS)
    rng = random.Random(67)
    ones = {n: Matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]) for n in (0, 1, 7, 30, 48, 49, 64)}
    assert _kernels_run(ones[HESSENBERG_ROWS - 1]) == {"_power_sum_residues"}
    assert _kernels_run(ones[HESSENBERG_ROWS]) == {"_charpoly_residues"}
    # the rule itself: a budget of one power-sum slice runs the power sums, one byte less Hessenberg reduction
    for n, m in ones.items():
        monkeypatch.setattr(exact, "CHUNK_BYTES", _power_sum_slice_bytes(n))
        assert _kernels_run(m) == {"_power_sum_residues"}, n
        monkeypatch.setattr(exact, "CHUNK_BYTES", _power_sum_slice_bytes(n) - 1)
        assert _kernels_run(m) == {"_charpoly_residues"}, n


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


def test_power_sum_bits_table():
    # 24 bits at 2-7 rows, 23 at 8-31 and 22 at 32-48: the largest prime
    # below 2^bits, times two, squared and times n, stays below 2^53, and
    # the bound fails one bit up, so every size takes the largest primes
    # that are exact
    rows = range(2, HESSENBERG_ROWS)
    assert [exact._power_sum_bits(n) for n in rows] == [24 if n < 8 else 23 if n < 32 else 22 for n in rows]
    for n in rows:
        bits = exact._power_sum_bits(n)
        q = exact._primes_exceeding(1, bits)[0]
        assert n * (2 * q) ** 2 < 2**53 <= n * 4 ** (bits + 2) and (2 * n * q) ** 2 < 2**63 and q > n
    zeros = np.zeros((1, 4, 4), dtype=np.int64)
    with pytest.raises(AssertionError, match="inexact"):
        exact._power_sum_residues(zeros, [2**25 + 35])
    with pytest.raises(AssertionError, match="Newton"):
        exact._power_sum_residues(zeros, [3])
    assert exact._power_sum_residues(zeros, [5]) == [[0, 0, 0, 0]]
    # tr((2I)^k) = 4 2^k: 8, 16, 32, 64 mod 5
    assert exact._power_sum_residues(2 * np.eye(4, dtype=np.int64)[None], [5]) == [[3, 1, 2, 4]]


def test_primes_exceeding_stops_at_three():
    assert exact._primes_exceeding(1000, 4) == [13, 11, 7]
    assert exact._primes_exceeding(15014, 4) == [13, 11, 7, 5, 3]
    with pytest.raises(SizeGuardError, match="past a 14-bit bound; .* below 2\\^4 .* to 14 bits"):
        exact._primes_exceeding(15015, 4)
    with pytest.raises(SizeGuardError):
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


def test_charpolys_run_each_matrix_under_its_own_prime_prefix(monkeypatch):
    # the shared driver, once on each side of the crossover: a 0/1 matrix batched
    # with a huge-entry one takes only the primes its own bound needs
    rng = random.Random(47)
    for n, kernel, rule in (
        (16, "_power_sum_residues", exact._power_sum_bits),
        (HESSENBERG_ROWS, "_charpoly_residues", exact._prime_bits),
    ):
        ones = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        huge = [[rng.randint(2**63, 2**70) * rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
        batch = [Matrix(ones), Matrix(huge)]
        (small, _), (large, _) = map(_bound, batch)
        primes = exact._primes_exceeding(2 * large, rule(n))
        own = exact._primes_exceeding(2 * small, rule(n))
        assert 0 < len(own) < len(primes) and own == primes[: len(own)]
        singles = [charpoly_exact(m) for m in batch]
        seen = []
        residues = getattr(exact, kernel)

        def recording_residues(h, chunk, residues=residues):
            seen.extend(chunk)
            return residues(h, chunk)

        monkeypatch.setattr(exact, kernel, recording_residues)
        assert exact.charpolys_exact(batch) == singles
        assert seen == own + primes  # the 0/1 matrix under its own prefix, then the huge one under every prime
        seen.clear()
        assert exact.charpolys_exact(batch[::-1]) == singles[::-1]
        assert seen == primes + own
        monkeypatch.undo()


def test_hessenberg_kernel_on_hadamard_matrix():
    h = [[1]]
    while len(h) < 16:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    m = Matrix(h)
    # H^2 = 16 I and trace 0: eigenvalues +-4, eight of each, |det| = 4^16
    assert charpoly_exact(m) == (X**2 - 16) ** 8
    assert _check_kernels_agree(m)[-1] == 4**16
    bound, d = _bound(m)
    assert d == 1 and bound >= 4**16
    # entries of 2^40 fit int64 but their squares summed over a line do not: the bound sums them as Python ints
    wide = Matrix([[x * 2**40 for x in row] for row in h])
    assert _bound(wide) == _bound(wide, object) and _bound(wide)[0] >= (4 * 2**40) ** 16
    assert charpoly_exact(wide) == (X**2 - 16 * 2**80) ** 8
    # -2^63 fits int64, but its absolute value does not
    edge = Matrix([[-(2**63), 1], [3, 2]])
    assert _bound(edge) == _bound(edge, object) and _check_kernels_agree(edge) == [1, 2**63 - 2, -(2**64) - 3]


def test_coefficient_bound_and_primes_on_corpus_operators():
    from walkzeta.experiments import builtin_corpus
    from walkzeta.operators import TARGETS, operator_matrix

    assert len(TARGETS) == 7
    largest = dim = 0
    for entry in builtin_corpus():
        for target in TARGETS:
            m = operator_matrix(entry.graph, target)
            bound, d = _bound(m)
            # D char(M) from the Berkowitz oracle on L = sM: its coefficient k times D / s^k
            cleared = [Fraction(c * d, m.scale**k) for k, c in enumerate(berkowitz(m.ints))]
            assert cleared[0] == d and all(c.denominator == 1 for c in cleared), (entry.name, target)
            assert max(map(abs, cleared)) <= bound, (entry.name, target)
            if m.scale == 1:  # D = 1, and the bound is at most the row bound prod(||L_i|| + 2)
                assert d == 1 and bound <= prod(isqrt(sum(x * x for x in row)) + 2 for row in m.ints)
            if bound > largest:
                largest, dim = bound, m.rows
    assert dim < HESSENBERG_ROWS
    bits = exact._power_sum_bits(dim)  # the primes the kernel uses for that operator
    primes = exact._primes_exceeding(2 * largest, bits)
    assert len(set(primes)) == len(primes) > 1
    for q in primes:
        assert 2 ** (bits - 1) < q < 2**bits
        assert q % 2 and all(q % d for d in range(3, isqrt(q) + 1, 2))


def _denominated_matrix(rng, n, kind):
    """A rational n x n matrix with denominators 1-9 drawn once per row, once per column or per entry."""
    rows, columns = ([rng.randint(1, 9) for _ in range(n)] for _ in range(2))

    def denominator(i, j):
        return rows[i] if kind == "rows" else columns[j] if kind == "columns" else rng.randint(1, 9)

    return Matrix([[Fraction(rng.randint(-9, 9), denominator(i, j)) for j in range(n)] for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.sampled_from(("rows", "columns", "mixed")), st.randoms(use_true_random=False))
def test_coefficient_bound_covers_cleared_charpoly(n, kind, rng):
    m = _denominated_matrix(rng, n, kind)
    bound, d = _bound(m)
    oracle = faddeev_leverrier(m)
    cleared = [c * d for c in oracle.coeffs]
    assert cleared[-1] == d and all(c.denominator == 1 for c in cleared)
    assert max(map(abs, cleared)) <= bound
    # the rows of M^T are the columns of M, so the transpose runs the other orientation
    assert _bound(m.transpose()) == (bound, d) == _bound(m, object)
    assert charpoly_exact(m) == charpoly_exact(m.transpose()) == oracle


def test_coefficient_bound_clears_weighted_arc_columns():
    # column f of B_w - J0 carries only the denominator of w_f, a row the lcm of several
    from walkzeta.experiments import random_arc_weights
    from walkzeta.graphs import Graph
    from walkzeta.operators import arc_operator

    k7 = Graph(7, tuple((i, j) for j in range(7) for i in range(j)))
    weights = random_arc_weights(k7, random.Random(61))
    m = arc_operator(k7, weights)
    assert m.rows == 42
    bound, d = _bound(m)
    assert d == prod(w.denominator for w in weights)
    rows = prod(m.scale // gcd(m.scale, *row) for row in m.ints)
    assert _bound(m.transpose()) == (bound, d) and rows > d
    assert charpoly_exact(m) == charpoly_exact(m.transpose())


def test_primes_dividing_a_scale_are_skipped():
    # an entry 1/q, q the first prime the kernel would take at this size: M mod q does not exist
    rng = random.Random(59)
    n = 8
    for kernel, rule in (("_power_sum_residues", exact._power_sum_bits), ("_charpoly_residues", exact._prime_bits)):
        q = exact._primes_exceeding(1, rule(n))[0]
        rows = [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        rows[2][5] = Fraction(1, q)
        m = Matrix(rows)
        assert exact._primes_exceeding(1, rule(n), m.scale)[0] != q
        seen = []
        residues = getattr(exact, kernel)

        def recording(h, primes, residues=residues):
            seen.extend(primes)
            return residues(h, primes)

        with pytest.MonkeyPatch.context() as patch:
            _force_kernel(patch, n, kernel == "_charpoly_residues")
            patch.setattr(exact, kernel, recording)
            assert charpoly_exact(m) == faddeev_leverrier(m)
        assert seen and q not in seen
