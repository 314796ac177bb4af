"""Exact integer spectra: characteristic polynomials and integer roots.

Polynomials are lists of Python ints in ascending degree order, so
coeffs[i] multiplies x**i.  Every result here is exact.  charpoly_dense
finds the characteristic polynomials of integer matrices from their
power sums tr(A**k) modulo primes, one (block, prime) layer each, and
combines them by the Chinese remainder theorem up to a proven bound
(coefficient_bound).  Floats there carry only integers below 2**53,
which they hold exactly: no float eigenvalue or hint is read.
rootless, run first, takes the same power sums modulo the few smallest
primes q > n: a block whose polynomial has no root modulo some q has no
integer root, with no CRT layer.  integer_roots first evaluates a
polynomial at every residue modulo each prime q <= 47; if it has no root
modulo some q, it has no integer root, since an integer root r gives
the root r mod q for every q.  Otherwise
that table of roots screens the candidate roots: r is kept only if
r mod q is a root for every q, and exact synthetic division decides.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator, Sequence

import numpy as np

from .rings import is_prime


def gershgorin_bound(block) -> int:
    """Bound on the absolute value of any eigenvalue: max row sum."""
    a = np.asarray(block, dtype=np.int64)
    if a.size == 0:
        return 0
    if max(int(a.max()), -int(a.min())) * a.shape[1] >= 2**63:
        a = a.astype(object)  # Python ints, so the row sums cannot overflow
    return int(np.abs(a).sum(axis=1).max())


def float_bits(n: int) -> int:
    """Bit size of the primes of _power_sum_mods for an n x n block:
    p < 2**float_bits(n) gives 4 * n * p**2 < 2**53."""
    return (51 - n.bit_length()) // 2


@functools.cache
def modular_prime(bits: int, i: int) -> int:
    """The i-th largest prime below 2**bits, counting from 0."""
    q = 2**bits if i == 0 else modular_prime(bits, i - 1)
    q -= 1
    while not is_prime(q):
        q -= 1
    return q


def crt_primes(limit: int, bits: int) -> Iterator[int]:
    """modular_prime(bits, 0), modular_prime(bits, 1), ... until their
    product exceeds limit."""
    modulus, i = 1, 0
    while modulus <= limit:
        p = modular_prime(bits, i)
        yield p
        modulus *= p
        i += 1


def coefficient_bound(a: np.ndarray) -> int:
    """Twice a bound on the absolute values of the coefficients of the
    characteristic polynomial of a square int64 matrix a.

    Let s2 bound the sum of |l|**2 over the n eigenvalues l.  The
    coefficient of x**(n-k) is, up to sign, the k-th elementary symmetric
    function e_k of the eigenvalues, and Maclaurin's inequality with the
    power-mean inequality gives
    |e_k| <= e_k(|l|) <= C(n, k) (sum |l| / n)**k <= C(n, k) (s2 / n)**(k/2).
    s2 is the squared Frobenius norm, sum a_ij**2, which bounds the sum
    of |l|**2 for any matrix (Schur's inequality) and equals it for a
    symmetric one.  The result is
    2 max_k ceil(C(n, k) (s2 / n)**(k/2)), in integers: the terms grow
    while (n - k)**2 s2 > (k + 1)**2 n, and the largest is the least r
    with r**2 n**n >= C(n, k)**2 s2**k n**(n-k).
    """
    n = len(a)
    peak = max(int(a.max()), -int(a.min()))
    x = a.astype(object) if peak * peak * n * n >= 2**63 else a
    s2 = int((x * x).sum())
    k = 0
    while k < n and (n - k) ** 2 * s2 > (k + 1) ** 2 * n:
        k += 1
    top = math.comb(n, k) ** 2 * s2**k * n ** (n - k)
    r = math.isqrt(-(-top // n**n))
    return 2 * (r if r * r * n**n >= top else r + 1)


# Cells of one stack: max(1, _STACK_CELLS // n**2) layers per _power_sum_mods call.
_STACK_CELLS = 2**15


@functools.cache
def _inverses(p: int, n: int) -> tuple[int, ...]:
    return tuple(pow(k, -1, p) for k in range(1, n + 1))


def _power_sums(a: np.ndarray, moduli: list[int]) -> np.ndarray:
    """Power sums tr(A**k), k = 0..n, modulo each modulus m, as an
    (n + 1, len(moduli)) int64 array, of one n x n matrix a modulo each m
    or of a (len(moduli), n, n) stack, layer i modulo moduli[i].

    Each layer A goes to float64 after its reduction mod m in int64.  With
    s = ceil(sqrt(n)), the baby steps A**j, j = 1..s, and the giant steps
    G**i, G = A**s, one at a time, give each tr(A**(i s + j)) as the sum
    over rows x of (G**i row x) . (A**j column x): about 2 sqrt(n) batched
    products (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).  Every
    factor is kept in [-m, 2m) by x - floor(x * (1/m)) m, so each sum of n
    products is exact, in any order, if 4 n m**2 <= 2**53; ValueError
    otherwise.  m need not be prime.  Entry 0 is left 0.
    """
    n = a.shape[-1]
    if 4 * n * max(moduli) ** 2 > 2**53:
        raise ValueError(f"an n = {n} block needs moduli m with 4 n m**2 <= 2**53")
    mod = np.array(moduli, dtype=np.int64)
    s = math.isqrt(n - 1) + 1
    babies = np.empty((s, len(moduli), n, n))  # A**(j + 1) transposed: rows are columns
    babies[0] = (a % mod[:, None, None]).transpose(0, 2, 1)
    p = mod[:, None, None].astype(np.float64)
    inv = 1 / p

    def reduced(y):  # the floor of y * inv is off by at most one
        q = np.floor(y * inv)
        q *= p
        y -= q
        return y

    for j in range(1, s):
        reduced(np.matmul(babies[j - 1], babies[0], out=babies[j]))
    ps = np.zeros((n + 1, len(moduli)), dtype=np.int64)
    giant = step = babies[-1].transpose(0, 2, 1)  # G = A**s
    rows = np.diagonal(babies, axis1=2, axis2=3)
    for i in range(0, n, s):  # rows[j] sums to tr(A**(i + j + 1))
        ps[i + 1:i + s + 1] = (rows[:n - i].astype(np.int64) % mod[:, None]).sum(axis=2) % mod
        if i + s < n:
            giant = reduced(giant @ step) if i else giant  # G**(i / s + 1)
            rows = np.einsum("jlxy,lxy->jlx", babies[:n - i - s], giant)
    return ps


def _newton(ps: np.ndarray, primes: list[int]) -> np.ndarray:
    """Characteristic polynomials, one (n + 1) row of ascending residues
    per column of power sums, column i modulo primes[i]: Newton's
    identities, k c_k = -(c_(k-1) p_1 + ... + c_0 p_k), give the
    coefficient c_k of x**(n - k) in int64 if p > n; ValueError otherwise."""
    n = len(ps) - 1
    if min(primes) <= n:
        raise ValueError(f"an n = {n} block needs primes p > n")
    mod = np.array(primes, dtype=np.int64)
    neg_inv = mod - np.array([_inverses(q, n) for q in primes], dtype=np.int64).T
    c = np.ones((n + 1, len(primes)), dtype=np.int64)  # c_0 = 1; step k writes c_k
    for k in range(1, n + 1):
        np.remainder((c[:k] * ps[k:0:-1]).sum(axis=0) % mod * neg_inv[k - 1], mod, out=c[k])
    return c[::-1].T


def _power_sum_mods(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """_newton of _power_sums: a's polynomial modulo each prime, or layer
    i's modulo primes[i]."""
    return _newton(_power_sums(a, primes), primes)


def _stacks(arrays: list[np.ndarray], layers: list[tuple[int, object]], n: int
            ) -> Iterator[tuple[list[tuple[int, object]], np.ndarray]]:
    """The (block index, modulus) layers of n x n blocks in stacks of
    max(1, _STACK_CELLS // n**2), each with its stacked blocks."""
    size = max(1, _STACK_CELLS // n**2)
    for lo in range(0, len(layers), size):
        chunk = layers[lo:lo + size]
        yield chunk, np.stack([arrays[i] for i, _ in chunk])


def _square(block) -> np.ndarray:
    """block as an int64 array; ValueError unless it is a square matrix
    of integers.  A block with no rows, such as the list [] that tolist
    makes of a 0 x 0 array, is the 0 x 0 matrix."""
    a = np.asarray(block)
    if a.shape == (0,):
        return np.zeros((0, 0), dtype=np.int64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"block must be a square matrix, got shape {a.shape}")
    if a.dtype.kind not in "iu":
        raise ValueError(f"block entries must be integers, got dtype {a.dtype}")
    out = a.astype(np.int64, copy=False)
    if a.dtype.kind == "u" and (out < 0).any():
        raise ValueError("block entries must fit in int64")
    return out


def charpoly_dense(blocks: Sequence) -> list[list[int]]:
    """Characteristic polynomials of a sequence of integer matrices, exactly.

    Each block is a square 2-D array-like of integers (ValueError
    otherwise, with no coercion of floats or bools); the coefficients
    are Python ints, one polynomial per block, in order.  A block's
    polynomial is computed modulo primes below 2**float_bits(n) and
    combined by the Chinese remainder theorem until the modulus M exceeds
    coefficient_bound, twice every coefficient's size, so the symmetric
    residues mod M are the coefficients.  Each (block, prime) pair of one
    size n is a layer, and _power_sum_mods takes the layers in stacks of
    max(1, _STACK_CELLS // n**2).  Sizes are not mixed, and no block is
    padded.
    """
    arrays = [_square(block) for block in blocks]
    polys: list[list[int]] = [[1] if not len(a) else [-int(a[0, 0]), 1] for a in arrays]
    by_size: dict[int, list[int]] = {}
    for i, a in enumerate(arrays):
        if len(a) > 1:
            by_size.setdefault(len(a), []).append(i)
    for n, members in by_size.items():
        bits = float_bits(n)
        layers = [(i, p) for i in members for p in crt_primes(coefficient_bound(arrays[i]), bits)]
        coeffs = {i: [0] * (n + 1) for i in members}
        moduli = dict.fromkeys(members, 1)
        for chunk, stack in _stacks(arrays, layers, n):
            rows = _power_sum_mods(stack, [p for _, p in chunk])
            for (i, p), row in zip(chunk, rows.tolist()):
                acc, m = coeffs[i], moduli[i]
                inv = pow(m % p, -1, p)
                for j, r in enumerate(row):
                    acc[j] += m * ((r - acc[j]) * inv % p)
                moduli[i] = m * p
        for i in members:
            m = moduli[i]
            polys[i] = [c - m if c > m // 2 else c for c in coeffs[i]]
    return polys


def check_charpoly(poly: list[int], block: np.ndarray) -> None:
    """Exact checks of a square int64 block's characteristic polynomial:
    monic of degree n, x**(n-1) at -tr(A), x**(n-2) at (tr(A)**2 - tr(A**2)) / 2."""
    n = len(block)
    if len(poly) != n + 1 or poly[-1] != 1:
        raise ArithmeticError("characteristic polynomial has the wrong shape")
    e1, e2 = _leading(block)
    if n >= 1 and poly[n - 1] != e1:
        raise ArithmeticError("characteristic polynomial fails the trace check")
    if n >= 2 and poly[n - 2] != e2:
        raise ArithmeticError("characteristic polynomial fails the tr(A**2) check")


def _leading(block: np.ndarray) -> tuple[int, int]:
    """The coefficients of x**(n-1) and x**(n-2) in a square int64 block's
    characteristic polynomial, -tr(A) and (tr(A)**2 - tr(A**2)) / 2, exactly."""
    n = len(block)
    peak = max(int(block.max()), -int(block.min())) if n else 0
    a = block.astype(object) if peak * peak * n * n >= 2**63 else block
    trace = int(np.trace(a))
    return -trace, (trace * trace - int((a * a.T).sum())) // 2


def divide_linear(coeffs: list[int], r: int) -> tuple[list[int], int]:
    """Divide by (x - r); returns (quotient, remainder)."""
    n = len(coeffs) - 1
    q = [0] * n
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        q[i] = acc
        acc = coeffs[i] + r * acc
    return q, acc


# Candidate divisors are screened this many at a time.
_DIVISOR_CHUNK = 2**16


def _remainders(c: int, d: np.ndarray, w: int) -> np.ndarray:
    """c mod d for an integer c >= 0 and int64 candidates d >= 1, exactly:
    in int64 when c < 2**63, else by Horner's rule over the w-bit limbs
    of c, where every d < 2**(63 - w) keeps a remainder r < d, and so
    r * 2**w + limb, below 2**63."""
    if c < 2**63:
        return c % d
    top = w * ((c.bit_length() - 1) // w)
    r = np.zeros_like(d)
    for s in range(top, -1, -w):
        r = ((r << w) + (c >> s & (1 << w) - 1)) % d
    return r


def _divisors(c: int, limit: int) -> np.ndarray:
    """The divisors d of a nonzero integer c with d <= limit, ascending,
    as int64.

    The candidates 1..limit are screened a chunk at a time by their exact
    remainders (_remainders), over limbs of w = 63 - limit.bit_length()
    bits when |c| >= 2**63: every candidate is below 2**(63 - w).
    """
    c = abs(c)
    if c >= 2**63 and limit >= 2**47:
        raise ArithmeticError(f"divisor screen of {c} up to {limit} is out of range")
    w = 63 - limit.bit_length()
    found = []
    for lo in range(1, limit + 1, _DIVISOR_CHUNK):
        d = np.arange(lo, min(lo + _DIVISOR_CHUNK, limit + 1), dtype=np.int64)
        found.append(d[_remainders(c, d, w) == 0])
    return np.concatenate(found) if found else np.zeros(0, dtype=np.int64)


# Every prime up to 47; their product, _SIEVE_MODULUS, is below 2**63.
_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SIEVE_MODULUS = math.prod(_SIEVE_PRIMES)
_SIEVE_COLUMN = np.array(_SIEVE_PRIMES, dtype=np.int64)[:, None]


@functools.lru_cache(maxsize=32)
def _powers(primes: tuple[int, ...], degree: int, lo: int, hi: int) -> np.ndarray:
    """x**j mod q for each prime q below 2**31, j = 0..degree and
    x = lo..hi-1, as an int64 (len(primes), degree + 1, hi - lo) array
    indexed [q, j, x] (0**0 is 1): by doubling, rows m..2m-1 are rows
    0..m-1 times x**m, in about log2(degree) array operations.  Built on
    first use; the 32 last used are kept."""
    q = np.array(primes, dtype=np.int64)[:, None]
    t = np.empty((len(q), degree + 1, hi - lo), dtype=np.int64)
    t[:, 0] = 1
    m, top = 1, np.arange(lo, hi) % q  # top is x**m
    while m <= degree:
        k = min(m, degree + 1 - m)
        t[:, m:m + k] = t[:, :k] * top[:, None] % q[:, None]
        m, top = 2 * m, top * top % q
    return t


def _roots_mod_sieve_primes(coeffs: list[int]) -> np.ndarray:
    """The roots of the polynomial modulo the sieve primes, as a (15, 47)
    boolean mask: row i marks the x = 0..46 with P(x) = 0 mod q_i, so
    column x has the value of column x mod q_i.

    Each coefficient is reduced mod _SIEVE_MODULUS, then mod every q, in
    int64.  On F_q, x**k for k >= 1 has the value of x**((k - 1) mod
    (q - 1) + 1), so the powers fold onto x**0 .. x**(q - 1), and one
    batched product with the table of x**j mod q gives the value at every
    residue, in a fixed number of array operations whatever the degree.
    The folded sums are exact in float64, and every value, an integer
    below 47**3 * len(coeffs), in int64.
    """
    q = _SIEVE_COLUMN
    c = np.array([a % _SIEVE_MODULUS for a in coeffs], dtype=np.int64) % q
    # row i of the bincount sums, at column e, the coefficients of the
    # powers x**k, k >= 1, that fold onto x**e modulo the i-th prime
    fold = np.arange(len(coeffs) - 1) % (q - 1) + 1 + 47 * np.arange(len(q))[:, None]
    folded = np.bincount(fold.ravel(), weights=c[:, 1:].ravel(), minlength=47 * len(q))
    folded = folded.reshape(-1, 47)
    folded[:, 0] = c[:, 0]
    values = np.matmul(folded[:, None].astype(np.int64), _powers(_SIEVE_PRIMES, 46, 0, 47))
    return values[:, 0] % q == 0


def integer_roots(coeffs: list[int], bound: int) -> tuple[list[tuple[int, int]], int]:
    """All integer roots with multiplicity, plus the residual degree.

    A linear factor left after the root 0 has its root read off by one
    exact division.  A longer one is first solved modulo every prime
    q <= 47 (_roots_mod_sieve_primes).  An integer root r gives the root
    r mod q for every q, so if some q has no root, no nonzero root is
    reported and the whole degree is residual, whatever the bound and the
    trailing coefficient.  Otherwise the candidates are d and -d for the
    divisors d of the trailing nonzero coefficient, up to the given
    magnitude bound, in that order (_divisors), and only those whose
    residue r mod q is a root for every q are tried, read off that table
    in one gather.  No root is screened out; what decides is repeated
    exact synthetic division, which also gives the multiplicity.  The
    residual degree counts what is left after every integer root has
    been divided out.
    """
    work = list(coeffs)
    roots: dict[int, int] = {}
    k = 0
    while k < len(work) - 1 and work[k] == 0:
        k += 1
    if k:
        roots[0] = k
        work = work[k:]
    if len(work) == 2:
        r, rem = divmod(-work[0], work[1])
        if rem == 0 and abs(r) <= bound:
            roots[r] = 1
            work = [work[1]]
    elif len(work) > 2 and (mask := _roots_mod_sieve_primes(work)).any(axis=1).all():
        c0 = work[0]
        divisors = _divisors(c0, min(bound, abs(c0)))
        candidates = np.column_stack([divisors, -divisors]).ravel()
        kept = np.take_along_axis(mask, candidates % _SIEVE_COLUMN, axis=1).all(axis=0)
        for r in candidates[kept].tolist():
            while len(work) > 1:
                q, rem = divide_linear(work, r)
                if rem != 0:
                    break
                roots[r] = roots.get(r, 0) + 1
                work = q
            if len(work) == 1:
                break
    return sorted(roots.items()), len(work) - 1


# How many primes above n the screen tries: the measurement is in CHANGES.md.
_SCREEN_PRIMES = 6


@functools.cache
def _screen_primes(n: int) -> tuple[tuple[int, ...], ...]:
    """The _SCREEN_PRIMES smallest primes above n, in runs of consecutive
    primes whose product m keeps 4 n m**2 <= 2**53, one _power_sums
    layer per run."""
    runs: list[tuple[int, ...]] = []
    for q in itertools.islice(filter(is_prime, itertools.count(n + 1)), _SCREEN_PRIMES):
        if runs and 4 * n * (math.prod(runs[-1]) * q) ** 2 <= 2**53:
            runs[-1] += (q,)
        else:
            runs.append((q,))
    return tuple(runs)


def rootless(blocks: Sequence) -> list[bool]:
    """Whether each square integer block of n >= 2 rows is proven to have
    no integer eigenvalue (always False below 2 rows): its characteristic
    polynomial f has no root modulo one of the _SCREEN_PRIMES smallest
    primes q > n, while an integer root r, 0 included, gives the root
    r mod q for every q.

    The power sums modulo the product of a run of those primes, stacked
    as in charpoly_dense, reduce modulo each q of the run; _newton gives
    f mod q, checked as in check_charpoly modulo q (ArithmeticError).  As
    n < q, f at every residue is a batched int64 product with the table
    of x**j mod q (_powers), in chunks of at most _STACK_CELLS entries.
    """
    arrays = [_square(block) for block in blocks]
    out = [False] * len(arrays)
    by_size: dict[int, list[int]] = {}
    for i, a in enumerate(arrays):
        if len(a) > 1:
            by_size.setdefault(len(a), []).append(i)
    for n, members in by_size.items():
        runs = _screen_primes(n)
        primes = sum(runs, ())
        q = np.array(primes, dtype=np.int64)
        layers = [(i, math.prod(run)) for i in members for run in runs]
        ps = np.concatenate([_power_sums(stack, [m for _, m in chunk])
                             for chunk, stack in _stacks(arrays, layers, n)], axis=1)
        ps = np.repeat(ps, [len(run) for run in runs] * len(members), axis=1)
        rows = _newton(ps % np.tile(q, len(members)), primes * len(members))
        rows = rows.reshape(len(members), len(primes), n + 1)
        leads = [_leading(arrays[i]) for i in members]
        want = [[[e % p for e in lead] for p in primes] for lead in leads]
        if (rows[:, :, [n - 1, n - 2]] != want).any():
            raise ArithmeticError("characteristic polynomial fails the trace or tr(A**2) "
                                  "check modulo a screen prime")
        coeffs = rows.transpose(1, 0, 2)
        hit = np.zeros((len(primes), len(members)), dtype=bool)
        width = max(1, _STACK_CELLS // (len(primes) * (n + 1)))
        for lo in range(0, primes[-1], width):
            table = _powers(primes, n, lo, min(lo + width, primes[-1]))
            hit |= (np.matmul(coeffs, table) % q[:, None, None] == 0).any(axis=2)
        for i, found in zip(members, hit.all(axis=0).tolist()):
            out[i] = not found
    return out
