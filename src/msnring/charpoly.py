"""Exact integer spectra: characteristic polynomials and integer roots.

Polynomials are lists of Python ints in ascending degree order, so
coeffs[i] multiplies x**i.  Every result here is exact.  charpoly_dense
finds the characteristic polynomials of integer matrices from their
power sums tr(A**k) modulo primes, one (block, prime) layer each, and
combines them by the Chinese remainder theorem up to a proven bound
(coefficient_bound).  Floats there carry only integers below 2**53,
which they hold exactly: no float eigenvalue or hint is read.
integer_roots first evaluates a polynomial at every residue modulo each
prime q <= 47; if it has no root modulo some q, it has no integer root,
since an integer root r gives the root r mod q for every q.  Otherwise
that table of roots screens the candidate roots: r is kept only if
r mod q is a root for every q, and exact synthetic division decides.
"""

from __future__ import annotations

import functools
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


def _power_sum_mods(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """Characteristic polynomials modulo primes, as a (len(primes), n + 1)
    array of ascending residues in 0..p-1, of one n x n matrix a modulo
    each prime or of a (len(primes), n, n) stack, layer i modulo primes[i].

    Each layer A goes to float64 after its reduction mod p in int64.  With
    s = ceil(sqrt(n)), the baby steps A**j, j = 1..s, and the giant steps
    G**i, G = A**s, one at a time, give each tr(A**(i s + j)) as the sum
    over rows x of (G**i row x) . (A**j column x): about 2 sqrt(n) batched
    products (Paterson and Stockmeyer, SIAM J. Comput. 2, 1973).  Every
    factor is kept in [-p, 2p) by x - floor(x * (1/p)) p, so each sum of n
    products is exact, in any order, if 4 n p**2 <= 2**53.  Newton's
    identities, k c_k = -(c_(k-1) p_1 + ... + c_0 p_k), then give the
    coefficient c_k of x**(n - k) in int64 if p > n.  ValueError otherwise.
    """
    n = a.shape[-1]
    if min(primes) <= n or 4 * n * max(primes) ** 2 > 2**53:
        raise ValueError(f"an n = {n} block needs primes p > n with 4 n p**2 <= 2**53")
    mod = np.array(primes, dtype=np.int64)
    s = math.isqrt(n - 1) + 1
    babies = np.empty((s, len(primes), n, n))  # A**(j + 1) transposed: rows are columns
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
    ps = np.zeros((n + 1, len(primes)), dtype=np.int64)
    giant = step = babies[-1].transpose(0, 2, 1)  # G = A**s
    rows = np.diagonal(babies, axis1=2, axis2=3)
    for i in range(0, n, s):  # rows[j] sums to tr(A**(i + j + 1))
        ps[i + 1:i + s + 1] = (rows[:n - i].astype(np.int64) % mod[:, None]).sum(axis=2) % mod
        if i + s < n:
            giant = reduced(giant @ step) if i else giant  # G**(i / s + 1)
            rows = np.einsum("jlxy,lxy->jlx", babies[:n - i - s], giant)
    neg_inv = mod - np.array([_inverses(q, n) for q in primes], dtype=np.int64).T
    c = np.ones((n + 1, len(primes)), dtype=np.int64)  # c_0 = 1; step k writes c_k
    for k in range(1, n + 1):
        np.remainder((c[:k] * ps[k:0:-1]).sum(axis=0) % mod * neg_inv[k - 1], mod, out=c[k])
    return c[::-1].T


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
        size = max(1, _STACK_CELLS // n**2)
        for lo in range(0, len(layers), size):
            chunk = layers[lo:lo + size]
            rows = _power_sum_mods(np.stack([arrays[i] for i, _ in chunk]), [p for _, p in chunk])
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
    peak = max(int(block.max()), -int(block.min())) if n else 0
    a = block.astype(object) if peak * peak * n * n >= 2**63 else block
    trace = int(np.trace(a))
    if n >= 1 and poly[n - 1] != -trace:
        raise ArithmeticError("characteristic polynomial fails the trace check")
    if n >= 2 and poly[n - 2] != (trace * trace - int((a * a.T).sum())) // 2:
        raise ArithmeticError("characteristic polynomial fails the tr(A**2) check")


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


@functools.cache
def _sieve_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sieve primes q as an int64 column, the mask x < q of the
    residues x = 0..46 as a (15, 47) array, and x**j mod q as a
    (15, 47, 47) float64 array indexed [q, j, x], 0 where j >= q or
    x >= q (0**0 is 1).  Built on first use."""
    q = np.array(_SIEVE_PRIMES, dtype=np.int64)[:, None]
    x = np.arange(47)
    powers = np.ones((len(q), 47, 47))
    for j in range(1, 47):
        powers[:, j] = powers[:, j - 1] * x % q
    valid = x < q
    powers[~(valid[:, :, None] & valid[:, None, :])] = 0
    return q, valid, powers


def _roots_mod_sieve_primes(coeffs: list[int]) -> np.ndarray:
    """The roots of the polynomial modulo the sieve primes, as a (15, 47)
    boolean mask: row i marks the residues x < q_i with P(x) = 0 mod q_i.

    Each coefficient is reduced mod _SIEVE_MODULUS, then mod every q, in
    int64.  On F_q, x**k for k >= 1 has the value of x**((k - 1) mod
    (q - 1) + 1), so the powers fold onto x**0 .. x**(q - 1), and one
    batched product with the table of x**j mod q gives the value at every
    residue, in a fixed number of array operations whatever the degree.
    Every value is an integer below 47**3 * len(coeffs), exact in float64.
    """
    q, valid, powers = _sieve_tables()
    c = np.array([a % _SIEVE_MODULUS for a in coeffs], dtype=np.int64) % q
    # row i of the bincount sums, at column e, the coefficients of the
    # powers x**k, k >= 1, that fold onto x**e modulo the i-th prime
    fold = np.arange(len(coeffs) - 1) % (q - 1) + 1 + 47 * np.arange(len(q))[:, None]
    folded = np.bincount(fold.ravel(), weights=c[:, 1:].ravel(), minlength=47 * len(q))
    folded = folded.reshape(-1, 47)
    folded[:, 0] = c[:, 0]
    values = np.matmul(folded[:, None], powers)[:, 0].astype(np.int64)
    return (values % q == 0) & valid


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
        kept = np.take_along_axis(mask, candidates % _sieve_tables()[0], axis=1).all(axis=0)
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
