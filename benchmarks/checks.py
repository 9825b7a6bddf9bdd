"""Output checks computed apart from walkzeta.

Every operator is rebuilt here from its definition on arcs (see PAPER.md),
determinants are taken mod a prime by this module's own elimination, and
traces come from integer matrix powers.  Nothing here imports walkzeta, so
a fault in the program cannot hide itself by also breaking its check.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np

PRIME = 2**31 - 1  # products of two residues fit in int64
EVAL_POINTS = 3
POWER_SUM_DEGREE = 4
POWER_SUM_RTOL = 1e-7
TARGETS = ("U", "U+", "U2+", "U3+", "A", "T", "B-J0")
_INT64_SAFE = 2**62


# --- graphs and operators ------------------------------------------------

def arcs_of(edges) -> list[tuple[int, int]]:
    """Arcs 0..m-1 along the edges, arcs m..2m-1 their reversals."""
    return [(u, v) for u, v in edges] + [(v, u) for u, v in edges]


def degrees(n: int, edges) -> list[int]:
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return degs


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] += 1
        a[v, u] += 1
    return a


def nonbacktracking(edges) -> np.ndarray:
    """B - J0: arc e feeds arc f (t(e) = o(f)) unless f reverses e."""
    arcs = arcs_of(edges)
    m = len(edges)
    size = len(arcs)
    b = np.zeros((size, size), dtype=np.int64)
    for e, (_, te) in enumerate(arcs):
        for f, (of, _) in enumerate(arcs):
            if te == of and f != (e + m) % size:
                b[e, f] = 1
    return b


def walk_operator(n: int, edges) -> tuple[np.ndarray, int]:
    """U as (integer numerator, common denominator).

    U[e][f] = 2/deg(o(e)) when f ends where e starts, minus 1 when f is
    the reversal of e.
    """
    arcs = arcs_of(edges)
    m = len(edges)
    size = len(arcs)
    degs = degrees(n, edges)
    den = lcm(*degs)
    num = np.zeros((size, size), dtype=np.int64)
    for e, (oe, _) in enumerate(arcs):
        coin = 2 * den // degs[oe]
        for f, (_, tf) in enumerate(arcs):
            if tf == oe:
                num[e, f] = coin - den if f == (e + m) % size else coin
    return num, den


def matmul_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact a @ b; uses Python integers when int64 could overflow."""
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * len(b)
    if bound >= _INT64_SAFE:
        return a.astype(object) @ b.astype(object)
    return a @ b


def matrix_power(a: np.ndarray, k: int) -> np.ndarray:
    """Exact a**k for k >= 1."""
    result = a
    for _ in range(k - 1):
        result = matmul_exact(result, a)
    return result


def operator(n: int, edges, target: str) -> tuple[np.ndarray, int]:
    """The target matrix as (integer numerator, positive denominator)."""
    if target == "A":
        return adjacency(n, edges), 1
    if target == "T":
        degs = degrees(n, edges)
        den = lcm(*degs)
        scale = np.array([den // d for d in degs], dtype=np.int64)
        return adjacency(n, edges) * scale[:, None], den
    if target == "B-J0":
        return nonbacktracking(edges), 1
    num, den = walk_operator(n, edges)
    if target == "U":
        return num, den
    power = {"U+": 1, "U2+": 2, "U3+": 3}[target]
    return (matrix_power(num, power) > 0).astype(np.int64), 1


def graph_flags(n: int, edges) -> tuple[bool, bool, bool]:
    """(simple, connected, minimum degree >= 2), counting parallel edges."""
    simple = len({frozenset(e) for e in edges}) == len(edges)
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return simple, len(seen) == n, min(len(x) for x in nbrs) >= 2


# --- arithmetic mod p ----------------------------------------------------

def det_mod_p(a: np.ndarray) -> int:
    """Determinant of an integer matrix mod PRIME by Gaussian elimination."""
    p = PRIME
    a = np.array([[int(x) % p for x in row] for row in a], dtype=np.int64).reshape(a.shape)
    size = len(a)
    det = 1
    for k in range(size):
        nonzero = np.flatnonzero(a[k:, k])
        if not nonzero.size:
            return 0
        pivot_row = k + int(nonzero[0])
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        factors = (a[k + 1:, k] * pow(pivot, p - 2, p)) % p
        a[k + 1:, k:] = (a[k + 1:, k:] - (factors[:, None] * a[k, k:]) % p) % p
    return det % p


def _residue(value: str) -> int:
    q = Fraction(value)
    return q.numerator % PRIME * pow(q.denominator % PRIME, PRIME - 2, PRIME) % PRIME


def poly_mod_p(coeffs, r: int) -> int:
    """An ascending list of "a/b" coefficient strings evaluated at r mod PRIME."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + _residue(c)) % PRIME
    return acc


def charpoly_mod_p(num: np.ndarray, den: int, r: int) -> int:
    """det(rI - num/den) mod PRIME, as det(r den I - num) / den^dim."""
    size = len(num)
    shifted = -num.astype(object)
    for i in range(size):
        shifted[i, i] += r * den
    return det_mod_p(shifted) * pow(pow(den, size, PRIME), PRIME - 2, PRIME) % PRIME


def eval_points(rng: random.Random) -> list[int]:
    return [rng.randrange(2, PRIME - 1) for _ in range(EVAL_POINTS)]


# --- checks --------------------------------------------------------------

def check_charpoly(coeffs, num: np.ndarray, den: int, rng: random.Random, label: str = "charpoly"):
    """The returned coefficients against det(rI - M) mod p at seeded points."""
    size = len(num)
    if len(coeffs) != size + 1 or Fraction(coeffs[-1]) != 1:
        return [f"{label}: expected a monic polynomial of degree {size}, got {len(coeffs) - 1} coefficients"]
    for r in eval_points(rng):
        if poly_mod_p(coeffs, r) != charpoly_mod_p(num, den, r):
            return [f"{label}: differs from det(rI - M) mod p at r={r}"]
    return []


def power_traces(num: np.ndarray, den: int, degree: int) -> list[Fraction]:
    """Exact tr(M^j) for j = 1..degree."""
    traces = []
    power = num
    for j in range(1, degree + 1):
        if j > 1:
            power = matmul_exact(power, num)
        traces.append(Fraction(int(np.trace(power.astype(object))), den**j))
    return traces


def check_power_sums(spectrum, num: np.ndarray, den: int):
    """Power sums of the returned roots against exact tr(M^j)."""
    values = np.array([complex(z["re"], z["im"]) for z in spectrum])
    if len(values) != len(num):
        return [f"spectrum: {len(values)} roots for a {len(num)}-dim matrix"]
    problems = []
    for j, exact in enumerate(power_traces(num, den, POWER_SUM_DEGREE), start=1):
        powers = values**j
        scale = max(1.0, float(np.abs(powers).sum()))
        error = abs(complex(powers.sum()) - float(exact))
        if error > POWER_SUM_RTOL * scale:
            problems.append(f"spectrum: sum z^{j} is off tr(M^{j}) = {exact} by {error:.3e}")
    return problems


def zeta_series(edges, order: int) -> list[Fraction]:
    """exp(sum_k tr((B - J0)^k) t^k / k) truncated at t^order."""
    b = nonbacktracking(edges)
    counts = [0] + [int(np.trace(matrix_power(b, k).astype(object))) for k in range(1, order + 1)]
    series = [Fraction(1)]
    for n in range(1, order + 1):
        series.append(sum((counts[k] * series[n - k] for k in range(1, n + 1)), Fraction(0)) / n)
    return series


def check_series(series, expected: list[Fraction], label: str = "series"):
    got = [Fraction(c) for c in series]
    if got != expected:
        bad = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        return [f"{label}: term {bad} differs from the cycle-count exponential"]
    return []


def check_spectrum_doc(doc: dict, n: int, edges, rng: random.Random):
    num, den = operator(n, edges, doc["target"])
    problems = check_charpoly(doc["charpoly"], num, den, rng)
    problems += check_power_sums(doc["spectrum"], num, den)
    if doc["verdict"] is not None and not doc["verdict"]["equal"]:
        problems.append("spectrum: closed-form map disagrees")
    return problems


def check_zeta_doc(doc: dict, n: int, edges, order: int, rng: random.Random):
    problems = []
    if (doc["n"], doc["m"]) != (n, len(edges)):
        problems.append("zeta: wrong graph size")
    b = nonbacktracking(edges)
    edge_form = doc["edge_form"]
    bass = doc["bass_form"]
    for r in eval_points(rng):
        expected = det_mod_p(np.eye(len(b), dtype=np.int64) - r * b.astype(object))
        if poly_mod_p(edge_form, r) != expected:
            problems.append(f"zeta: edge form differs from det(I - tB) mod p at t={r}")
            break
        if poly_mod_p(bass["numerator"], r) != expected * poly_mod_p(bass["denominator"], r) % PRIME:
            problems.append(f"zeta: vertex form differs from the edge form mod p at t={r}")
            break
    expected_series = zeta_series(edges, order)
    problems += check_series(doc["series"], expected_series)
    problems += check_series(doc["oracle_series"], expected_series, "oracle_series")
    if not (doc["forms_agree"] and doc["oracle_matches"]):
        problems.append("zeta: program reports a disagreement")
    return problems


DISTINGUISH_TARGETS = ("A", "U+", "U2+", "U3+")


def check_distinguish_doc(doc: dict, left, right, expected_level: int, rng: random.Random):
    """Each level's charpolys, the first separating level, and the pair's parameters.

    ``left`` and ``right`` are (n, edges).
    """
    problems = []
    degs_l, degs_r = degrees(*left), degrees(*right)
    if left[0] != right[0] or len(set(degs_l)) != 1 or set(degs_l) != set(degs_r):
        problems.append("distinguish: inputs are not regular graphs with equal n and degree")
    result = doc["result"]
    polys = list(result["charpolys"].values())
    for idx, pair in enumerate(polys):
        for side, graph in (("left", left), ("right", right)):
            num, den = operator(*graph, DISTINGUISH_TARGETS[idx])
            problems += check_charpoly(pair[side], num, den, rng, f"distinguish level {idx} {side}")
    first = next(
        (i for i, pair in enumerate(polys)
         if [Fraction(c) for c in pair["left"]] != [Fraction(c) for c in pair["right"]]),
        None,
    )
    computed = len(DISTINGUISH_TARGETS) if first is None else first + 1
    if len(polys) != computed:
        problems.append(f"distinguish: {len(polys)} levels computed, expected {computed}")
    if result["level"] != first or result["distinguished"] != (first is not None):
        problems.append(f"distinguish: reports level {result['level']}, charpolys first differ at {first}")
    if first != expected_level:
        problems.append(f"distinguish: separates at level {first}, expected {expected_level}")
    return problems


VERIFY_ALWAYS = ("u_charpoly_walk_form", "u_charpoly_degree_form", "zeta_edge_vs_vertex")


def expected_verify_checks(corpus) -> list[tuple[str, str]]:
    """(identity, graph) pairs the suite must report, from (name, n, edges)."""
    expected = []
    for name, n, edges in corpus:
        simple, connected, md2 = graph_flags(n, edges)
        identities = list(VERIFY_ALWAYS)
        if simple:
            identities.append("weighted_zeta_forms")
        if simple and connected and md2:
            identities.append("support_identity")
        if md2:
            identities.append("support_charpoly_form")
        expected.extend((identity, name) for identity in identities)
    return expected


def check_verify_doc(doc: dict, corpus, seed: int, trials: int):
    report = doc["report"]
    expected = expected_verify_checks(corpus)
    problems = []
    if not report["passed"] or report["failed_checks"] != 0:
        problems.append(f"verify: {report['failed_checks']} failed checks")
    if report["total_checks"] != len(expected):
        problems.append(f"verify: {report['total_checks']} checks, corpus gives {len(expected)}")
    got = [(c["identity"], c["graph"]) for c in report["checks"]]
    if got != expected or not all(c["passed"] for c in report["checks"]):
        problems.append("verify: check list differs from the corpus")
    if (report["seed"], report["weight_trials"]) != (seed, trials):
        problems.append("verify: wrong seed or trial count")
    return problems
