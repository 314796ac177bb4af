"""Exact characteristic polynomials against a rational oracle, numpy and
hand-built factors, and the exact route's block roots against that oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expanded_blocks
from msnring import charpoly
from msnring.graphs import CliqueUnion, SimpleGraph, clique_union_graph
from msnring import spectra
from msnring.spectra import IntSymMatrix, cn_matrix, exact_spectrum, msn_matrix

from msnring.charpoly import (
    _power_sum_mods,
    charpoly_dense,
    check_charpoly,
    coefficient_bound,
    crt_primes,
    divide_linear,
    float_bits,
    gershgorin_bound,
    integer_roots,
    modular_prime,
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


def reference_charpoly_mod(a, p):
    """Characteristic polynomial of a modulo one prime p, ascending residues.

    A one-prime Hessenberg reduction and leading-minor recurrence in
    int64, an oracle that shares no step with _power_sum_mods.
    """
    n = a.shape[0]
    h = a % p
    for c in range(n - 2):
        nz = np.flatnonzero(h[c + 1:, c])
        if nz.size == 0:
            continue
        piv = c + 1 + int(nz[0])
        if piv != c + 1:
            h[[c + 1, piv]] = h[[piv, c + 1]]
            h[:, [c + 1, piv]] = h[:, [piv, c + 1]]
        f = h[c + 2:, c] * pow(int(h[c + 1, c]), -1, p) % p
        h[c + 2:, c:] = (h[c + 2:, c:] - np.outer(f, h[c + 1, c:])) % p
        h[:, c + 1] = (h[:, c + 1] + h[:, c + 2:] @ f) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    beta = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, n + 1):
        if k > 1:
            beta[k - 1] = 1
            beta[1:k] = beta[1:k] * h[k - 1, k - 2] % p
        w = h[:k - 1, k - 1] * beta[1:k] % p
        cur = w @ polys[:k - 1] + h[k - 1, k - 1] * polys[k - 1]
        cur[1:] -= polys[k - 1, :-1]
        polys[k] = -cur % p
    return polys[n]


def reference_charpoly_dense(block):
    """charpoly_dense with one reference_charpoly_mod call per prime."""
    a = np.array(block, dtype=np.int64)
    n = a.shape[0]
    coeffs, modulus = [0] * (n + 1), 1
    bits = (63 - n.bit_length()) // 2  # p < 2**bits keeps n (p - 1)**2 below 2**63
    for p in crt_primes(coefficient_bound(a), bits):
        inv = pow(modulus % p, -1, p)
        for j, r in enumerate(reference_charpoly_mod(a, p).tolist()):
            coeffs[j] += modulus * ((r - coeffs[j]) * inv % p)
        modulus *= p
    return [c - modulus if c > modulus // 2 else c for c in coeffs]


def counted_charpoly_mods(monkeypatch):
    """Replace _power_sum_mods by a wrapper that records each stack of primes."""
    stacks = []

    def counted(a, primes):
        stacks.append(list(primes))
        return _power_sum_mods(a, primes)

    monkeypatch.setattr(charpoly, "_power_sum_mods", counted)
    return stacks


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
    assert charpoly_dense([]) == []
    # a block with no rows, as tolist writes the 0 x 0 matrix, is that matrix
    assert charpoly_dense([[], [[5]]]) == [[1], [-5, 1]]
    # [[0, 1], [1, 0]] has charpoly x^2 - 1
    assert charpoly_dense([[[0, 1], [1, 0]]]) == [[-1, 0, 1]]


def test_charpoly_dense_vs_numpy_fixed():
    block = [[0, 2, 0], [2, 0, 2], [0, 2, 0]]
    assert charpoly_dense([block]) == [numpy_charpoly(block)]


def test_charpoly_dense_vs_numpy_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        block = random_sym(rng, n)
        assert charpoly_dense([block]) == [numpy_charpoly(block)]


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
        # so most of its residues are zero
        p = modular_prime(float_bits(n), 0)
        block = rng.integers(-3, 4, size=(n, n))
        block[rng.random((n, n)) < 0.6] *= p
    block = block.tolist()
    assert charpoly_dense([block]) == [fraction_charpoly(block)]


def stacked_test_matrix(rng, n, kind, primes):
    if kind == "zero":
        return np.zeros((n, n), dtype=np.int64)
    if kind == "wide":
        a = rng.integers(-10**4, 10**4 + 1, size=(n, n))
        a[rng.random((n, n)) < 0.3] = 0
        return a
    # multiples of one prime of the stack, the first or a later one, vanish
    # modulo that prime only, and a sprinkle of multiples of a second
    # prime vanish modulo that one: sparse residues that differ from
    # prime to prime
    a = rng.integers(-3, 4, size=(n, n))
    a[rng.random((n, n)) < 0.6] *= primes[int(rng.integers(len(primes)))]
    a[rng.random((n, n)) < 0.1] *= primes[int(rng.integers(len(primes)))]
    return a


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6),
       st.sampled_from(["wide", "zero", "prime_multiples"]))
def test_charpoly_mods_matches_reference_prime_by_prime(seed, n, count, kind):
    rng = np.random.default_rng(seed)
    primes = [modular_prime(float_bits(n), i) for i in range(count)]
    a = stacked_test_matrix(rng, n, kind, primes)
    got = _power_sum_mods(a.copy(), primes)
    assert got.shape == (count, n + 1) and got.dtype == np.int64
    for p, row in zip(primes, got):
        assert row.tolist() == reference_charpoly_mod(a, p).tolist()
    # a stack of one layer per prime, as charpoly_dense passes it
    assert (_power_sum_mods(np.stack([a] * count), primes) == got).all()


def test_power_sum_mods_refuses_primes_that_break_its_bounds():
    # a 30-bit prime passes int64's bound but not 4 n p**2 <= 2**53,
    # past which the float64 sums would silently lose their low bits; a
    # prime p <= n leaves some k <= n without an inverse for Newton's
    # identities
    a = np.arange(25, dtype=np.int64).reshape(5, 5)
    p = modular_prime(float_bits(5), 0)
    past = modular_prime(26, 0)
    assert 4 * 5 * p**2 <= 2**53 < 4 * 5 * past**2
    for primes in ([modular_prime(30, 0)], [p, past], [5], [p, 3]):
        with pytest.raises(ValueError):
            _power_sum_mods(a, primes)
    # the smallest prime above n and the largest below the float bound
    assert _power_sum_mods(a, [7, p]).tolist() == [
        reference_charpoly_mod(a, q).tolist() for q in (7, p)]


@pytest.mark.parametrize("block", [
    [[2**60 + 1, 3], [5, 2**59 + 7]],
    [[2**63 - 1, -(2**63 - 1)], [2**53 + 1, -(2**53 + 3)]],
    [[2**63 - 1, 2**53 + 1, -5], [-(2**63 - 1), 0, 2**53 - 1], [7, -(2**62), 2**53]],
    [[-(2**63), 1], [2**63 - 1, -(2**63)]],
], ids=["2**60", "int64_max", "3x3", "int64_min"])
def test_charpoly_dense_is_exact_on_entries_past_float_precision(block):
    # entries beyond 2**53 lose their low bits as float64, so each is
    # reduced modulo its prime in int64 before any float sees it
    assert charpoly_dense([block]) == [fraction_charpoly(block)]


def test_charpoly_dense_at_n64_spans_several_stacks(monkeypatch):
    rng = np.random.default_rng(64)
    block = random_sym(rng, 64, -9, 9)
    stacks = counted_charpoly_mods(monkeypatch)
    (got,) = charpoly_dense([block])
    primes = list(crt_primes(coefficient_bound(np.array(block)), float_bits(64)))
    size = max(1, charpoly._STACK_CELLS // 64**2)
    assert len(stacks) == -(-len(primes) // size) >= 2
    assert [p for stack in stacks for p in stack] == primes
    assert got == reference_charpoly_dense(block)


def random_graph_blocks(seed, sizes):
    """msn and cn blocks of seeded random graphs, as the classify route sees them."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = SimpleGraph.from_edges(n, edges)
        for m in (msn_matrix(g), cn_matrix(g)):
            for block, _ in expanded_blocks(m):
                yield block


def test_charpoly_dense_takes_one_stack_per_block_up_to_n28(monkeypatch):
    stacks = counted_charpoly_mods(monkeypatch)
    blocks = list(random_graph_blocks(1, range(8, 29, 4)))
    rng = np.random.default_rng(28)
    blocks.append(rng.integers(-10**4, 10**4 + 1, size=(28, 28)))
    for block in blocks:
        before = len(stacks)
        assert charpoly_dense([block]) == [reference_charpoly_dense(block)]
        assert len(stacks) == before + 1
    assert max(len(stack) for stack in stacks) > 1


def test_charpoly_dense_accepts_arrays_and_returns_python_ints():
    for block in ([[5]], [[0, 1], [1, 0]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]]):
        a = np.array(block, dtype=np.int64)
        (got,) = charpoly_dense([a])
        assert charpoly_dense([block]) == [got]
        assert all(type(c) is int for c in got)
    assert charpoly_dense([np.zeros((0, 0), dtype=np.int64)]) == [[1]]


@pytest.mark.parametrize("block", [
    [[0.5]],                      # a float, which a cast would round to 0
    [[0, 1.7], [1.7, 0]],         # floats, which a cast would round to 1
    [[0, 1, 2], [1, 0, 3]],       # not square
    [[True, False], [False, True]],
    np.zeros((2, 2)),
    np.zeros((2, 2, 2), dtype=np.int64),
    [[2**64]],                    # past int64, so object dtype
], ids=["half", "floats", "2x3", "bool", "float_array", "3d", "object"])
def test_charpoly_dense_rejects_what_is_not_a_square_integer_matrix(block):
    with pytest.raises(ValueError):
        charpoly_dense([block])
    with pytest.raises(ValueError):
        charpoly_dense([[[1]], block])


def stacking_test_block(rng, n, kind):
    """An n x n int64 block of one of the kinds that exercise the stacked
    power sums."""
    if kind == "sym":
        return np.array(random_sym(rng, n, -5, 5), dtype=np.int64)
    if kind == "wide":
        # not symmetric, entries near 1e4: complex eigenvalues, several primes
        return rng.integers(-10**4, 10**4 + 1, size=(n, n))
    if kind == "block_diagonal":
        # reducible: two diagonal blocks, either possibly empty
        k = int(rng.integers(0, n + 1))
        a = np.zeros((n, n), dtype=np.int64)
        a[:k, :k] = random_sym(rng, k, -5, 5)
        a[k:, k:] = random_sym(rng, n - k, -5, 5)
        return a
    if kind == "zero_columns":
        a = np.array(random_sym(rng, n, -5, 5), dtype=np.int64)
        zero = rng.random(n) < 0.4
        a[zero] = 0
        a[:, zero] = 0
        return a
    # a twin quotient's shape: B = M S with M symmetric and nonnegative and
    # S a positive diagonal, similar to a symmetric matrix but not one
    m = np.triu(rng.integers(0, 6, size=(n, n)))
    return (m + np.triu(m, 1).T) * rng.integers(1, 5, size=n)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(1, 9),
                          st.sampled_from(["sym", "wide", "block_diagonal",
                                           "zero_columns", "quotient"])),
                min_size=1, max_size=8),
       st.lists(st.integers(0, 7), max_size=3),
       st.sampled_from([2**15, 2**8]))
def test_charpoly_dense_stacks_match_one_block_at_a_time_and_the_oracle(
        seed, shapes, repeats, cells):
    # 1 x 1 blocks, repeated blocks, block-diagonal blocks and mixed sizes
    # in one call; with 2**8 cells a stack holds 256 // n**2 layers (at
    # least 1), so the layers of one size span several stacks
    rng = np.random.default_rng(seed)
    blocks = [stacking_test_block(rng, n, kind) for n, kind in shapes]
    blocks += [blocks[i % len(blocks)] for i in repeats]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charpoly, "_STACK_CELLS", cells)
        stacks = counted_charpoly_mods(mp)
        got = charpoly_dense(blocks)
        assert len({len(b) for b in blocks if len(b) > 1}) <= len(stacks)
        assert got == [poly for b in blocks for poly in charpoly_dense([b])]
    assert got == [fraction_charpoly(b.tolist()) for b in blocks]


def test_charpoly_dense_spans_stacks_at_the_default_size(monkeypatch):
    # 24 blocks of 24 x 24, each needing 2 or more primes: more layers
    # than the 56 one stack holds at n = 24
    rng = np.random.default_rng(24)
    blocks = [np.array(random_sym(rng, 24, -9, 9), dtype=np.int64) for _ in range(24)]
    layers = sum(len(list(crt_primes(coefficient_bound(b), float_bits(24)))) for b in blocks)
    size = charpoly._STACK_CELLS // 24**2
    assert layers > size
    stacks = counted_charpoly_mods(monkeypatch)
    got = charpoly_dense(blocks)
    assert [len(stack) for stack in stacks] == [size] * (layers // size) + [layers % size]
    assert got == [reference_charpoly_dense(b) for b in blocks]


def coefficient_magnitudes(block):
    return [abs(c) for c in fraction_charpoly(np.asarray(block).tolist())]


def maclaurin_bound(n, s2):
    """2 max_k ceil(C(n, k) (s2 / n)**(k/2)), each term the least r with
    r**2 n**k >= C(n, k)**2 s2**k, over every k."""
    terms = []
    for k in range(n + 1):
        c2 = math.comb(n, k) ** 2 * s2**k
        r = math.isqrt(c2 // n**k)
        while r * r * n**k < c2:
            r += 1
        terms.append(r)
    return 2 * max(terms)


def row_sum_bound(block):
    """The bound coefficient_bound replaced: 2 max_k C(n, k) B**k, with B
    the largest absolute row sum."""
    n, b = len(block), gershgorin_bound(block)
    return 2 * max(math.comb(n, k) * b**k for k in range(n + 1))


def test_coefficient_bound_covers_symmetric_blocks():
    rng = np.random.default_rng(3)
    blocks = [np.array(random_sym(rng, n, -6, 6), dtype=np.int64) for n in range(1, 16)]
    blocks += [stacking_test_block(rng, 12, "block_diagonal"),
               np.zeros((5, 5), dtype=np.int64), np.eye(4, dtype=np.int64) * 7]
    for block in blocks:
        bound = coefficient_bound(block)
        assert bound == maclaurin_bound(len(block), int((block * block).sum()))
        assert bound >= 2 * max(coefficient_magnitudes(block))
        assert bound <= row_sum_bound(block)


@pytest.mark.parametrize("spec, k, symmetric", [
    ("prod(nc_p2:p=2,ut2:p=2)", 15, True), ("prod(nc_p2:p=2,nc_p2:p=3)", 19, False)])
def test_coefficient_bound_covers_the_product_ring_quotients(spec, k, symmetric):
    # the twin quotients of a product's msn and cn blocks: with classes
    # of unequal sizes (35 vertices in 19 classes) they are not symmetric,
    # and the squared Frobenius norm still bounds their eigenvalues'
    # squares; with all 15 classes of 2 vertices, B is twice a symmetric
    # matrix
    from msnring.graphs import commuting_graph
    from msnring.rings import parse_ring_spec
    g = commuting_graph(parse_ring_spec(spec))
    for m in (msn_matrix(g), cn_matrix(g)):
        ((form, _),) = m.forms
        quotient = spectra._twin_quotient(form)[1]
        assert len(quotient) == k and bool((quotient == quotient.T).all()) is symmetric
        bound = coefficient_bound(quotient)
        assert bound == maclaurin_bound(k, int((quotient * quotient).sum()))
        assert bound >= 2 * max(coefficient_magnitudes(quotient))
        assert bound <= row_sum_bound(quotient)


def test_coefficient_bound_covers_complex_eigenvalues():
    # c times a 3-cycle: tr(B**2) = 0, yet x**3 - c**3 needs a bound of
    # 2 c**3, which the Frobenius norm gives
    for c in (1, 5, 1000):
        cycle = c * np.roll(np.eye(3, dtype=np.int64), 1, axis=1)
        assert coefficient_bound(cycle) == maclaurin_bound(3, 3 * c**2) >= 2 * c**3
        assert charpoly_dense([cycle]) == [[-c**3, 0, 0, 1]]
    # a symmetric sign pattern whose entries admit no symmetrizing weights
    a = np.array([[0, 1, 1], [2, 0, 1], [1, 2, 0]], dtype=np.int64)
    assert coefficient_bound(a) >= 2 * max(coefficient_magnitudes(a))


def test_float_prime_size_keeps_float64_sums_exact():
    # n products of residues in [-p, 2p) sum below 4 n p**2 <= 2**53, and
    # p > n inverts 1..n for Newton's identities
    for n in (2, 3, 16, 255, 256, 257, 4096):
        bits = float_bits(n)
        primes = [modular_prime(bits, i) for i in range(3)]
        assert primes == sorted(set(primes), reverse=True)
        assert 2 ** (bits - 1) < primes[-1] and primes[0] < 2**bits
        assert 4 * n * primes[0] ** 2 <= 2**53 and primes[-1] > n
    assert float_bits(4096) == 19 and float_bits(256) == 21 and float_bits(28) == 23


def test_check_charpoly_reads_the_block_in_exact_integers():
    # the x**(n-2) check catches a polynomial with the right trace but a
    # wrong second power sum; entries near 2**40 put tr(A**2) past int64
    big = 2**40
    for block in ([[0, 2, 0], [2, 0, 2], [0, 2, 0]], [[big, 3, 1], [big, -big, 2], [5, 7, big + 1]],
                  [[1, 2], [3, 4]], [[7]]):
        a = np.array(block, dtype=np.int64)
        poly = fraction_charpoly(block)
        check_charpoly(poly, a)
        if len(a) > 1:
            wrong = list(poly)
            wrong[len(a) - 2] += 1
            with pytest.raises(ArithmeticError, match="tr"):
                check_charpoly(wrong, a)
        wrong = list(poly)
        wrong[len(a) - 1] -= 1
        with pytest.raises(ArithmeticError, match="trace"):
            check_charpoly(wrong, a)
    with pytest.raises(ArithmeticError, match="shape"):
        check_charpoly([0, 1], np.zeros((2, 2), dtype=np.int64))
    check_charpoly([1], np.zeros((0, 0), dtype=np.int64))


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


def reference_integer_roots(coeffs, bound):
    """integer_roots without the modular screen: every divisor is divided."""
    work = list(coeffs)
    roots = {}
    k = 0
    while k < len(work) - 1 and work[k] == 0:
        k += 1
    if k:
        roots[0] = k
        work = work[k:]
    if len(work) > 1:
        c0 = work[0]
        limit = min(bound, abs(c0))
        for d in range(1, limit + 1):
            if c0 % d:
                continue
            for r in (d, -d):
                while len(work) > 1:
                    q, rem = divide_linear(work, r)
                    if rem != 0:
                        break
                    roots[r] = roots.get(r, 0) + 1
                    work = q
            if len(work) == 1:
                break
    return sorted(roots.items()), len(work) - 1


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(-40, 40), max_size=8), st.integers(0, 3),
       st.lists(st.integers(-50, 50), max_size=4), st.integers(0, 45))
def test_integer_roots_screen_matches_unscreened_loop(root_list, zeros, extra, bound):
    # roots up to and beyond the bound, repeated roots, trailing zeros and
    # a factor that need not split
    poly = [0] * zeros + [1]
    for r in root_list:
        poly = poly_mul(poly, [-r, 1])
    poly = poly_mul(poly, extra + [1])
    assert integer_roots(poly, bound) == reference_integer_roots(poly, bound)


def test_integer_roots_of_a_linear_factor_need_no_search(monkeypatch):
    # the 1 x 1 quotient of K1251's msn block: 1250**3, far past any loop
    def refuse(c, limit):
        raise AssertionError("a degree-1 polynomial needs no divisor search")

    monkeypatch.setattr(charpoly, "_divisors", refuse)
    assert integer_roots([-1953125000, 1], 1953125000) == ([(1953125000, 1)], 0)
    assert integer_roots([-1953125000, 1], 1953124999) == ([], 1)
    assert integer_roots([0, 0, 6, 3], 2) == ([(-2, 1), (0, 2)], 0)
    assert integer_roots([7, 2], 10) == ([], 1)


@pytest.mark.parametrize("poly, bound", [
    # (x - 2**21)(x + 3**13)(x - 5**8): c0 below 2**63, every root found
    (poly_mul(poly_mul([-2**21, 1], [3**13, 1]), [-5**8, 1]), 2**21),
    # (x - 12)(x**2 + 10**20 + 1): c0 beyond int64, an irreducible quadratic
    (poly_mul([-12, 1], [10**20 + 1, 0, 1]), 5000),
    # (x + 6)**2 (x - 7 * 10**18 - 1): c0 beyond int64 and a root past the bound
    (poly_mul(poly_mul([6, 1], [6, 1]), [-7 * 10**18 - 1, 1]), 70000),
])
def test_integer_roots_with_a_large_constant_term_match_the_loop(poly, bound):
    assert integer_roots(poly, bound) == reference_integer_roots(poly, bound)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-3000, 3000), min_size=2, max_size=5),
       st.integers(1, 10**25), st.integers(0, 4000))
def test_integer_roots_screen_matches_the_loop_beyond_int64(root_list, c, bound):
    poly = [1]
    for r in root_list:
        poly = poly_mul(poly, [-r, 1])
    poly = poly_mul(poly, [c, 0, 1])  # x**2 + c has no integer root
    assert integer_roots(poly, bound) == reference_integer_roots(poly, bound)


@pytest.mark.parametrize("limit", [5000, 2**16 - 1, 2**16 + 1, 2**31, 2**46])
@pytest.mark.parametrize("c", [360, -2**64 * 3**5 * 7, 10**30 + 1, 2**63, -(2**63 - 1), 3**4000],
                         ids=["360", "-2^64*1701", "10^30+1", "2^63", "-(2^63-1)", "3^4000"])
def test_divisors_are_exact_on_either_side_of_int64(c, limit):
    # the remainders of the top candidates, the largest a limb of
    # 63 - limit.bit_length() bits meets; the whole screen where it is short
    d = np.arange(max(1, limit - 3000), limit + 1, dtype=np.int64)
    w = 63 - limit.bit_length()
    assert charpoly._remainders(abs(c), d, w).tolist() == [abs(c) % x for x in d.tolist()]
    if limit <= 2**16 + 1:
        assert charpoly._divisors(c, limit).tolist() == [
            x for x in range(1, limit + 1) if c % x == 0]


def test_divisors_refuse_a_screen_past_their_exact_range():
    with pytest.raises(ArithmeticError, match="out of range"):
        charpoly._divisors(2**70, 2**47)


def test_integer_roots_screen_passes_false_positives_to_exact_division(monkeypatch):
    # P(x) = x^2 + (M - 3) x + 2, M the product of the sieve primes, has
    # P(1) = M and P(2) = 2M, both 0 modulo every sieve prime, and no
    # integer root.  1 and 2 divide c0 = 2; P(-1) = 6 - M and
    # P(-2) = 12 - 2M are not 0 mod 5, so -1 and -2 are screened out
    m = charpoly._SIEVE_MODULUS
    poly = [2, m - 3, 1]
    mask = charpoly._roots_mod_sieve_primes(poly)
    assert mask.any(axis=1).all() and mask[:, 1].all()
    assert [divide_linear(poly, r)[1] for r in (1, 2, -1, -2)] == [m, 2 * m, 6 - m, 12 - 2 * m]
    tried = []

    def counted(coeffs, r):
        tried.append(r)
        return divide_linear(coeffs, r)

    monkeypatch.setattr(charpoly, "divide_linear", counted)
    assert integer_roots(poly, bound=2) == ([], 2)
    assert tried == [1, 2]
    assert reference_integer_roots(poly, 2) == ([], 2)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.integers(-30, 30), max_size=5),
       st.lists(st.tuples(st.integers(2, 7), st.integers(-9, 9)), max_size=3),
       st.booleans(), st.lists(st.integers(-2**80, 2**80), max_size=4), st.integers(0, 40))
def test_integer_roots_match_the_loop_on_rational_roots_and_wide_factors(
        root_list, rational, both, extra, bound):
    # integer roots; roots b / a of a x - b; (2x - 1)(3x - 1), which has a
    # root modulo every prime and none in the integers; a factor whose
    # coefficients may pass int64
    poly = [1]
    for r in root_list:
        poly = poly_mul(poly, [-r, 1])
    for a, b in rational:
        poly = poly_mul(poly, [-b, a])
    if both:
        poly = poly_mul(poly, [1, -5, 6])
    poly = poly_mul(poly, extra + [1])
    assert integer_roots(poly, bound) == reference_integer_roots(poly, bound)


@settings(deadline=None, max_examples=80)
@given(st.integers(-1000, 1000), st.sampled_from([30030, 210, 2021, 1]),
       st.lists(st.integers(-1, 1), min_size=1, max_size=5), st.sampled_from([-1, 1]),
       st.booleans(), st.lists(st.integers(-2**80, 2**80), max_size=3))
def test_integer_roots_match_the_loop_on_roots_that_collide_modulo_the_sieve_primes(
        base, step, ks, sign, both, extra):
    # roots base + k step, which share their residues modulo every sieve
    # prime dividing step (30030 = 2*3*5*7*11*13, 210 = 2*3*5*7, 2021 =
    # 43*47) and repeat where k does; the largest |root| is the bound B,
    # and a root at +-(B + 1) must not be reported; (2x - 1)(3x - 1) has a
    # root modulo every prime and none in the integers; the last factor's
    # coefficients may pass int64
    roots = [base + k * step for k in ks]
    bound = max(abs(r) for r in roots)
    poly = [1]
    for r in [*roots, sign * (bound + 1)]:
        poly = poly_mul(poly, [-r, 1])
    if both:
        poly = poly_mul(poly, [1, -5, 6])
    poly = poly_mul(poly, extra + [1])
    found, residual = integer_roots(poly, bound)
    assert (found, residual) == reference_integer_roots(poly, bound)
    assert all(dict(found).get(r, 0) >= roots.count(r) for r in roots)
    assert all(abs(r) <= bound for r, _ in found) and residual >= 1


def refuse_divisors(c, limit):
    raise AssertionError("a polynomial with no root modulo a sieve prime needs no divisor search")


def test_integer_roots_prove_a_wide_degree_256_polynomial_rootless_without_a_search(monkeypatch):
    # every coefficient is odd, so P(0) and P(1) are odd: no root mod 2,
    # whatever c0 > 2**600 and the bound
    rng = np.random.default_rng(5)
    poly = [2**601 + 1] + [2 * v + 1 for v in rng.integers(-2**40, 2**40, 255).tolist()] + [1]
    assert not charpoly._roots_mod_sieve_primes(poly)[0].any()  # row 0 is q = 2
    monkeypatch.setattr(charpoly, "_divisors", refuse_divisors)
    assert integer_roots(poly, 5 * 10**6) == ([], 256)


def test_integer_roots_report_the_zero_roots_of_a_polynomial_proven_rootless(monkeypatch):
    # x^3 (x^2 + x + 3): x^2 + x + 3 is odd at 0 and at 1, so rootless mod 2
    monkeypatch.setattr(charpoly, "_divisors", refuse_divisors)
    assert integer_roots([0, 0, 0, 3, 1, 1], 100) == ([(0, 3)], 2)


def test_charpoly_dense_diagonal():
    assert charpoly_dense([[[1, 0], [0, 1]], [[0] * 3] * 3]) == [[1, -2, 1], [0, 0, 0, 1]]


def test_poly_mul():
    assert poly_mul([1], [5, 1]) == [5, 1]
    assert poly_mul([-1, 1], [1, 1]) == [-1, 0, 1]


# --- the exact route against the Fraction oracle ---


def fraction_roots(block):
    """Integer eigenvalues with multiplicity, ascending, and the residual
    degree: every integer within the row-sum bound is divided out of
    fraction_charpoly exactly, with no modulus and no divisor screen."""
    rows = np.asarray(block).tolist()
    poly = fraction_charpoly(rows)
    bound = max((sum(abs(v) for v in row) for row in rows), default=0)
    roots = []
    for r in range(-bound, bound + 1):
        mult = 0
        while len(poly) > 1:
            q, rem = divide_linear(poly, r)
            if rem:
                break
            poly, mult = q, mult + 1
        if mult:
            roots.append((r, mult))
    return roots, len(poly) - 1


def kab(a, b):
    return SimpleGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def integral_test_blocks():
    """Support blocks of clique-union msn/cn matrices and of K_{a,b} with
    an integer spectrum."""
    g = clique_union_graph(CliqueUnion(((2, 1), (3, 1), (4, 1), (6, 1), (9, 1))))
    graphs = [g] + [kab(a, b) for a, b in ((1, 4), (2, 2), (3, 3), (2, 8), (2, 3))]
    for graph in graphs:
        for m in (msn_matrix(graph), cn_matrix(graph)):
            for block, _ in expanded_blocks(m):
                if fraction_roots(block)[1] == 0:
                    yield block


def test_exact_spectrum_matches_the_fraction_oracle_on_integral_blocks():
    blocks = list(integral_test_blocks())
    assert len(blocks) >= 15
    for block in blocks:
        for c in (1, 2, 5):
            roots, residual = fraction_roots(c * block)
            assert residual == 0
            assert exact_spectrum(IntSymMatrix(((c * block, 1),)))[0].pairs == tuple(roots)


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
@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.sampled_from(["random", "hadamard", "cliques"]), st.sampled_from([1, 2, 3, 6]))
def test_block_roots_match_the_fraction_oracle_on_scaled_blocks(seed, n, kind, c):
    # any symmetric integer block, its diagonal and signs free, times c:
    # _block_roots divides by the gcd, which c multiplies, and scales back
    a = c * integral_or_random_sym(np.random.default_rng(seed), kind, n)
    assert spectra._block_roots([a]) == [fraction_roots(a)]


# --- the screen modulo the primes above n, before any CRT layer ---


def reference_block_roots(quotients):
    """_block_roots with no screen: every quotient past 1 x 1 divided by
    its gcd, its polynomial from charpoly_dense and its roots from the
    unscreened divisor loop."""
    out = []
    for quotient in quotients:
        if len(quotient) == 1:
            out.append(([(int(quotient[0, 0]), 1)], 0))
            continue
        g = max(int(np.gcd.reduce(quotient, axis=None)), 1)
        reduced = quotient // g
        roots, left = reference_integer_roots(charpoly_dense([reduced])[0],
                                              gershgorin_bound(reduced))
        out.append(([(g * r, mult) for r, mult in roots], left))
    return out


def blown_up_quotients(rng, k):
    """The twin quotients of the msn and cn forms of a random graph on k
    vertices, each blown up into 1-3 twins, open or closed."""
    sizes = rng.integers(1, 4, size=k)
    closed = rng.random(k) < 0.5
    adjacent = np.triu(rng.random((k, k)) < 0.5, 1)
    labels = np.repeat(np.arange(k), sizes)
    edges = [(u, v) for u in range(len(labels)) for v in range(u + 1, len(labels))
             if adjacent[min(labels[u], labels[v]), max(labels[u], labels[v])]
             or (labels[u] == labels[v] and closed[labels[u]])]
    g = SimpleGraph.from_edges(len(labels), edges)
    return [spectra._twin_quotient(form)[1]
            for m in (msn_matrix(g), cn_matrix(g)) for form, _ in m.forms]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 9), min_size=1, max_size=4),
       st.sampled_from(["random", "hadamard", "cliques", "square", "quotients"]),
       st.sampled_from([1, 2, 3]))
def test_block_roots_after_the_screen_match_the_loop_oracle(seed, sizes, kind, c):
    # several blocks of equal and different sizes in one call: symmetric
    # ones with and without an integer spectrum, square ones that need not
    # be symmetric, and twin quotients of graphs, each times c
    rng = np.random.default_rng(seed)
    if kind == "quotients":
        quotients = [c * q for n in sizes for q in blown_up_quotients(rng, n)]
    elif kind == "square":
        quotients = [c * rng.integers(-4, 5, size=(n, n)) for n in sizes]
    else:
        quotients = [c * integral_or_random_sym(rng, kind, n) for n in sizes]
    assert spectra._block_roots(quotients) == reference_block_roots(quotients)


def test_screen_settles_only_blocks_with_no_root_modulo_a_screen_prime():
    # P3's adjacency has f(0) = 0, so 0 is a root modulo every prime; the
    # sum of [[0, 3], [3, 0]] and [[1, 1], [1, 2]] has the roots -3 and 3
    # and the irrational roots of x^2 - 3x + 1; that factor alone is
    # x^2 + 1 modulo 3, the first prime above 2, which has no root there
    p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    golden = np.array([[1, 1], [1, 2]])
    split = np.zeros((4, 4), dtype=np.int64)
    split[:2, :2] = [[0, 3], [3, 0]]
    split[2:, 2:] = golden
    assert charpoly._screen_primes(2)[0][0] == 3
    assert charpoly.rootless([p3, split, golden]) == [False, False, True]
    assert charpoly.rootless([[[3]], [], golden]) == [False, False, True]  # n < 2: never
    blocks = [p3, 2 * split, 5 * golden]
    assert spectra._block_roots(blocks) == [([(0, 1)], 2), ([(-6, 1), (6, 1)], 2), ([], 2)]
    assert spectra._block_roots(blocks) == reference_block_roots(blocks)


# f = x^4 - 22 x^2 - 32 x + 1 has a root modulo 5, 7, 11, 13, 17 and 19,
# the six primes above 4, and no integer root (f(1) = -52, f(-1) = 12)
UNSCREENED = np.array([[0, 2, 1, 0], [2, 0, 2, 3], [1, 2, 0, 2], [0, 3, 2, 0]])


def test_a_block_with_a_root_modulo_every_screen_prime_falls_through(monkeypatch):
    poly = [1, -32, -22, 0, 1]
    assert charpoly_dense([UNSCREENED]) == [poly]
    primes = sum(charpoly._screen_primes(4), ())
    assert primes == (5, 7, 11, 13, 17, 19)
    assert all(any(sum(c * x**j for j, c in enumerate(poly)) % q == 0 for x in range(q))
               for q in primes)
    assert charpoly.rootless([UNSCREENED]) == [False]
    calls = []

    def recorded(blocks):
        calls.append([block.tolist() for block in blocks])
        return charpoly_dense(blocks)

    monkeypatch.setattr(spectra, "charpoly_dense", recorded)
    assert spectra._block_roots([UNSCREENED, 3 * UNSCREENED]) == [([], 4), ([], 4)]
    assert calls == [[UNSCREENED.tolist(), UNSCREENED.tolist()]]
    assert reference_block_roots([UNSCREENED]) == [([], 4)]


@pytest.mark.parametrize("column", [1, 2])  # x^(n-1), x^(n-2), from the top
def test_screen_checks_each_row_against_the_traces_modulo_its_prime(monkeypatch, column):
    newton = charpoly._newton

    def corrupted(ps, primes):
        rows = newton(ps, primes)
        rows[-1, -1 - column] = (rows[-1, -1 - column] + 1) % primes[-1]
        return rows

    monkeypatch.setattr(charpoly, "_newton", corrupted)
    c7 = np.roll(np.eye(7, dtype=np.int64), 1, axis=1)
    with pytest.raises(ArithmeticError, match="modulo a screen prime"):
        charpoly.rootless([c7 + c7.T])
    with pytest.raises(ArithmeticError, match="modulo a screen prime"):
        spectra._block_roots([UNSCREENED])


def test_screen_evaluates_every_residue_in_bounded_chunks(monkeypatch):
    # at n = 100 a table chunk covers 2**15 // (6 * 101) = 54 residues, so
    # the residues 0..126 of the primes 101..127 take three chunks, none of
    # more than 2**15 entries.  A random 99 x 99 block is proven rootless;
    # beside the 1 x 1 block [-1] it has the root q - 1 modulo every
    # prime q, which only the last two chunks hold, so it must not settle
    chunks = []
    powers = charpoly._powers.__wrapped__

    def recorded(primes, degree, lo, hi):
        chunks.append((primes, degree, lo, hi))
        return powers(primes, degree, lo, hi)

    monkeypatch.setattr(charpoly, "_powers", recorded)
    r = np.triu(np.random.default_rng(1).integers(0, 2, (99, 99)), 1)
    a = np.zeros((100, 100), dtype=np.int64)
    a[0, 0] = -1
    a[1:, 1:] = r + r.T
    assert charpoly.rootless([r + r.T]) == [True]
    assert charpoly.rootless([a]) == [False]
    primes = (101, 103, 107, 109, 113, 127)
    assert charpoly._screen_primes(99) == charpoly._screen_primes(100) == (primes[:3], primes[3:])
    assert chunks[3:] == [(primes, 100, 0, 54), (primes, 100, 54, 108), (primes, 100, 108, 127)]
    assert all(6 * (degree + 1) * (hi - lo) <= 2**15 for _, degree, lo, hi in chunks)


@pytest.mark.parametrize("n", [2, 9, 40, 256])
def test_screen_power_sums_modulo_a_run_reduce_to_each_prime(n):
    # the screen primes come in maximal runs whose product m keeps
    # 4 n m**2 <= 2**53, one kernel layer per run: the power sums modulo
    # m reduce modulo each prime of the run to that prime's own, and
    # Newton's identities then give the polynomial modulo that prime
    a = np.random.default_rng(n).integers(-50, 50, (n, n))
    runs = charpoly._screen_primes(n)
    assert sum(len(run) for run in runs) == charpoly._SCREEN_PRIMES
    for run, after in zip(runs, runs[1:] + ((None,),)):
        m = math.prod(run)
        assert 4 * n * m * m <= 2**53
        assert after[0] is None or 4 * n * (m * after[0]) ** 2 > 2**53
        ps = charpoly._power_sums(a, [m])
        for q in run:
            assert (ps % q == charpoly._power_sums(a, [q])).all()
            got = charpoly._newton(ps % q, [q])
            assert got.tolist() == [reference_charpoly_mod(a, q).tolist()]
