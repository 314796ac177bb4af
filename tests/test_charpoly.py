"""Exact characteristic polynomials against a rational oracle, numpy and
hand-built factors, and the power-sum certificate against them."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnring.graphs import CliqueUnion, SimpleGraph, clique_union_graph
from msnring.spectra import cn_matrix, msn_matrix

from msnring.charpoly import (
    certified_roots,
    charpoly_dense,
    divide_linear,
    gershgorin_bound,
    integer_roots,
    modular_prime,
    prime_bits,
)


def poly_mul(a, b):
    """Product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fraction_charpoly(block):
    """Reference characteristic polynomial over the rationals.

    Hessenberg reduction by Fraction similarity transforms, then the
    leading-minor recurrence; slow, but independent of any modulus.
    """
    n = len(block)
    m = [[Fraction(v) for v in row] for row in block]
    for c in range(n - 2):
        pivot = next((r for r in range(c + 1, n) if m[r][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            m[c + 1], m[pivot] = m[pivot], m[c + 1]
            for row in m:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        for r in range(c + 2, n):
            if m[r][c]:
                f = m[r][c] / m[c + 1][c]
                for j in range(c, n):
                    m[r][j] -= f * m[c + 1][j]
                for i in range(n):
                    m[i][c + 1] += f * m[i][r]
    polys = [[Fraction(1)]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        a = m[k - 1][k - 1]
        cur = [Fraction(0)] + prev
        for idx, co in enumerate(prev):
            cur[idx] -= a * co
        beta = Fraction(1)
        for i in range(k - 1, 0, -1):
            beta *= m[i][i - 1]
            f = m[i - 1][k - 1] * beta
            for idx, co in enumerate(polys[i - 1]):
                cur[idx] -= f * co
        polys.append(cur)
    assert all(co.denominator == 1 for co in polys[n])
    return [int(co) for co in polys[n]]


def random_sym(rng, n, low=-3, high=3):
    a = rng.integers(low, high + 1, size=(n, n))
    a = np.triu(a, 1)
    return (a + a.T).tolist()


def numpy_charpoly(block):
    """Ascending integer coefficients via numpy.poly, for cross-checking."""
    n = len(block)
    if n == 0:
        return [1]
    desc = np.poly(np.array(block, dtype=float))
    asc = [int(round(c)) for c in desc[::-1]]
    assert np.allclose(desc[::-1], asc, atol=1e-6)
    return asc


def test_charpoly_dense_tiny():
    assert charpoly_dense([]) == [1]
    assert charpoly_dense([[5]]) == [-5, 1]
    # [[0, 1], [1, 0]] has charpoly x^2 - 1
    assert charpoly_dense([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_charpoly_dense_vs_numpy_fixed():
    block = [[0, 2, 0], [2, 0, 2], [0, 2, 0]]
    assert charpoly_dense(block) == numpy_charpoly(block)


def test_charpoly_dense_vs_numpy_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        block = random_sym(rng, n)
        assert charpoly_dense(block) == numpy_charpoly(block)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 16),
       st.sampled_from(["wide", "zero", "prime_multiples"]))
def test_charpoly_dense_matches_fraction_oracle(seed, n, kind):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        block = np.zeros((n, n), dtype=np.int64)
    elif kind == "wide":
        # entries near 1e4 need several primes; the diagonal is nonzero
        block = rng.integers(-10**4, 10**4 + 1, size=(n, n))
        block[rng.random((n, n)) < 0.3] = 0
        np.fill_diagonal(block, rng.choice([-1, 1], n) * rng.integers(1, 10**4 + 1, n))
    else:
        # multiples of the first prime vanish mod that prime but not over Q,
        # so its reduction meets zero pivots and has to swap rows
        p = modular_prime(prime_bits(n), 0)
        block = rng.integers(-3, 4, size=(n, n))
        block[rng.random((n, n)) < 0.6] *= p
    block = block.tolist()
    assert charpoly_dense(block) == fraction_charpoly(block)


def test_prime_size_keeps_int64_products_exact():
    # checked on the primes alone: no 4096-dimension polynomial is computed
    for n in (2, 3, 16, 255, 256, 257, 4096):
        bits = prime_bits(n)
        primes = [modular_prime(bits, i) for i in range(3)]
        assert primes == sorted(set(primes), reverse=True)
        assert 2 ** (bits - 1) < primes[-1] and primes[0] < 2**bits
        assert n * (primes[0] - 1) ** 2 < 2**63
    assert prime_bits(4096) == 25


def test_gershgorin_bound():
    assert gershgorin_bound([]) == 0
    assert gershgorin_bound([[0, -4, 1], [-4, 0, 0], [1, 0, 0]]) == 5


def test_divide_linear():
    # x^2 - 5x + 6 = (x - 2)(x - 3)
    q, rem = divide_linear([6, -5, 1], 2)
    assert rem == 0 and q == [-3, 1]
    q, rem = divide_linear([6, -5, 1], 1)
    assert rem == 2


def test_integer_roots_known_polynomials():
    # (x - 2)^2 (x + 3) = x^3 - x^2 - 8x + 12
    roots, residual = integer_roots([12, -8, -1, 1], bound=12)
    assert roots == [(-3, 1), (2, 2)]
    assert residual == 0
    # x^2 - 2 has no integer roots
    roots, residual = integer_roots([-2, 0, 1], bound=2)
    assert roots == []
    assert residual == 2
    # x (x^2 - 2): trailing zeros give the root 0
    roots, residual = integer_roots([0, -2, 0, 1], bound=2)
    assert roots == [(0, 1)]
    assert residual == 2


def test_integer_roots_respects_bound():
    # root 7 outside the stated bound is never found
    roots, residual = integer_roots([-7, 1], bound=3)
    assert roots == []
    assert residual == 1


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_integer_roots_reconstruct(root_list):
    poly = [1]
    for r in root_list:
        poly = poly_mul(poly, [-r, 1])
    bound = max(abs(r) for r in root_list)
    roots, residual = integer_roots(poly, bound=bound)
    assert residual == 0
    rebuilt = []
    for r, mult in roots:
        rebuilt.extend([r] * mult)
    assert sorted(rebuilt) == sorted(root_list)


def test_charpoly_dense_diagonal():
    assert charpoly_dense([[1, 0], [0, 1]]) == [1, -2, 1]
    assert charpoly_dense([[0] * 3] * 3) == [0, 0, 0, 1]


def test_poly_mul():
    assert poly_mul([1], [5, 1]) == [5, 1]
    assert poly_mul([-1, 1], [1, 1]) == [-1, 0, 1]


# --- the power-sum certificate ---


def oracle_roots(block):
    """Integer roots of the characteristic polynomial, or None unless it splits."""
    roots, residual = integer_roots(charpoly_dense(block), gershgorin_bound(block))
    return None if residual else roots


def expand(roots):
    return [v for v, m in roots for _ in range(m)]


def test_certified_roots_needs_power_sums_up_to_2s():
    k4 = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    # -3 and 1 (x3) match tr(A^k) for k <= 2 but not tr(A^3) = 24
    assert certified_roots(np.array(k4), [-3, 1, 1, 1]) is None
    assert certified_roots(np.array(k4), [3, -1, -1, -1]) == [(-1, 3), (3, 1)]
    # float hints are rounded first, in any order
    assert certified_roots(np.array(k4), [-0.9, 3.2, -1.1, -1.0]) == [(-1, 3), (3, 1)]


def kab(a, b):
    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def integral_test_blocks():
    """Support blocks of clique-union msn/cn matrices and of K_{a,b}."""
    g = clique_union_graph(CliqueUnion(((2, 1), (3, 1), (4, 1), (6, 1), (9, 1))))
    graphs = [g] + [kab(a, b) for a, b in ((1, 4), (2, 2), (3, 3), (2, 8), (2, 3))]
    for graph in graphs:
        for m in (msn_matrix(graph), cn_matrix(graph)):
            for block, _ in m.blocks:
                if oracle_roots(block.tolist()) is not None:
                    yield block


def test_certified_roots_rejects_hints_off_by_one_value_or_multiplicity():
    blocks = list(integral_test_blocks())
    assert len(blocks) >= 15
    for block in blocks:
        truth = oracle_roots(block.tolist())
        values = expand(truth)
        assert certified_roots(block, values) == truth
        for i in range(len(values)):
            for delta in (-1, 1):
                wrong = values.copy()
                wrong[i] += delta
                assert certified_roots(block, wrong) is None
            # one copy of values[i] taken from one distinct value to another
            for v, _ in truth:
                if v != values[i]:
                    wrong = values.copy()
                    wrong[i] = v
                    assert certified_roots(block, wrong) is None


def test_certified_roots_declines_malformed_hints():
    block = np.array([[0, 2], [2, 0]])
    for hint in ([2], [2, -2, 0], [np.nan, 2], [np.inf, -2], [5, -5]):
        assert certified_roots(block, hint) is None
    assert certified_roots(block, [2, -2]) == [(-2, 1), (2, 1)]
    with pytest.raises(ValueError):
        certified_roots(np.array([[0, 1], [2, 0]]), [1, -1])


def integral_or_random_sym(rng, kind, n):
    """A symmetric integer matrix; every kind but "random" has an integer
    spectrum, hidden by a random permutation."""
    if kind == "random":
        a = rng.integers(-3, 4, size=(n, n))
        return np.triu(a) + np.triu(a, 1).T
    if kind == "hadamard":
        h = np.ones((1, 1), dtype=np.int64)
        while h.shape[0] < n:
            h = np.block([[h, h], [h, -h]])
        a = h @ np.diag(rng.integers(-3, 4, size=h.shape[0])) @ h.T
    else:
        # blocks c*J + d*I, with eigenvalues c*size + d and d
        sizes, left = [], n
        while left:
            sizes.append(int(rng.integers(1, left + 1)))
            left -= sizes[-1]
        a = np.zeros((n, n), dtype=np.int64)
        start = 0
        for size in sizes:
            c, d = rng.integers(-4, 5, size=2)
            a[start:start + size, start:start + size] = c
            a[start:start + size, start:start + size] += d * np.eye(size, dtype=np.int64)
            start += size
    perm = rng.permutation(a.shape[0])
    return a[np.ix_(perm, perm)]


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(0, 16),
       st.sampled_from(["random", "hadamard", "cliques"]))
def test_certified_roots_accepts_exactly_the_true_integer_spectrum(seed, n, kind):
    rng = np.random.default_rng(seed)
    a = integral_or_random_sym(rng, kind, n)
    rows = a.tolist()
    hint = np.linalg.eigvalsh(a.astype(np.float64))
    truth = oracle_roots(rows)
    got = certified_roots(a, hint)
    rounded = sorted(int(v) for v in np.rint(hint))
    if truth is not None and expand(truth) == rounded:
        assert got == truth
    else:
        assert got is None
    if got is not None and len(rows) <= 16:
        poly = [1]
        for v in expand(got):
            poly = poly_mul(poly, [-v, 1])
        assert poly == fraction_charpoly(rows)
