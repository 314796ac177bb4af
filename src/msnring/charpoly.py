"""Exact integer spectra: characteristic polynomials and integer root
extraction.

Polynomials are lists of Python ints in ascending degree order, so
coeffs[i] multiplies x**i and the leading coefficient of a monic
polynomial is the final 1.  Every result here is exact.
charpoly_dense computes the characteristic polynomials of a sequence of
integer matrices by a Hessenberg reduction and leading-minor recurrence
modulo word-size primes, in int64, combined by the Chinese remainder
theorem until the product of a matrix's primes exceeds a proven bound on
its coefficients (coefficient_bound, from Maclaurin's inequality).  The
matrices of one size and their primes are reduced together, one
(block, prime) layer of a (layers x n x n) array each, so the Python work
of a column is paid once per stack of layers, not once per block and
prime.  integer_roots then reads off the integer roots of a polynomial:
the candidates are screened modulo one prime, and exact synthetic
division decides.  No floating point enters this route.
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


def prime_bits(n: int) -> int:
    """Bit size of the primes used for an n x n block.

    With p < 2**prime_bits(n), a dot product of n residues stays below
    n * (p - 1)**2 < 2**63, so int64 arithmetic never overflows.
    """
    return (63 - n.bit_length()) // 2


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


# Cells of one stack of residue matrices: charpoly_dense reduces
# max(1, _STACK_CELLS // n**2) (block, prime) layers at a time, which
# keeps each column's temporaries in cache.
_STACK_CELLS = 2**15


def _charpoly_mods(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """Characteristic polynomials modulo primes, as a (len(primes), n + 1)
    array of ascending residues in 0..p-1: a is one n x n matrix, taken
    modulo each prime, or a (len(primes), n, n) stack, layer i modulo
    primes[i].

    Reduces every layer to upper Hessenberg form by similarity over its
    F_p, then runs the leading-minor recurrence with one matrix-vector
    product per step and layer.  Every step works on the whole stack at
    once.  Each prime pivots on its own first nonzero entry
    below the subdiagonal; a prime whose column is zero below the diagonal
    gets the inverse 0, which makes its elimination step a no-op.
    """
    n = a.shape[-1]
    mod = np.array(primes, dtype=np.int64)[:, None]
    h = a % mod[:, :, None]
    for c in range(n - 2):
        if not h[:, c + 1, c].all():
            # argmax is 0 for a zero column, which then swaps nothing
            off = (h[:, c + 1:, c] != 0).argmax(axis=1)
            swap = np.flatnonzero(off)
            piv = c + 1 + off[swap]
            h[swap, c + 1], h[swap, piv] = h[swap, piv], h[swap, c + 1]
            h[swap, :, c + 1], h[swap, :, piv] = h[swap, :, piv], h[swap, :, c + 1]
        inv = np.array([pow(x, -1, p) if x else 0
                        for x, p in zip(h[:, c + 1, c].tolist(), primes)], dtype=np.int64)
        f = h[:, c + 2:, c] * inv[:, None] % mod
        h[:, c + 2:, c:] = ((h[:, c + 2:, c:] - f[:, :, None] * h[:, c + 1, None, c:])
                            % mod[:, :, None])
        h[:, :, c + 1] = (h[:, :, c + 1] + (h[:, :, c + 2:] @ f[:, :, None])[:, :, 0]) % mod
    # polys[:, k, :k + 1] holds the characteristic polynomials of the leading
    # k x k minors, of degree k; beta[:, i] the products of the subdiagonal
    # entries h[:, i, i-1] .. h[:, k-1, k-2].
    polys = np.zeros((len(primes), n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    beta = np.zeros((len(primes), n + 1), dtype=np.int64)
    for k in range(1, n + 1):
        if k > 1:
            beta[:, k - 1] = 1
            beta[:, 1:k] = beta[:, 1:k] * h[:, k - 1, k - 2, None] % mod
        w = h[:, :k - 1, k - 1] * beta[:, 1:k] % mod
        cur = polys[:, k, :k + 1]  # a view of row k, still zero
        cur[:, :k] = ((w[:, None, :] @ polys[:, :k - 1, :k])[:, 0]
                      + h[:, k - 1, k - 1, None] * polys[:, k - 1, :k])
        cur[:, 1:] -= polys[:, k - 1, :k]
        cur[:] = -cur % mod
    return polys[:, n]


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
    are Python ints, one polynomial per block, in order.  Multimodular:
    a block's polynomial is computed modulo word-size primes and combined
    by the Chinese remainder theorem until the modulus M exceeds
    coefficient_bound, which bounds twice every coefficient, so the
    symmetric residues mod M are the integer coefficients themselves.
    The blocks of one size n share their primes: each (block, prime)
    pair is one layer, and the layers are reduced in stacks of
    max(1, _STACK_CELLS // n**2), one _charpoly_mods call per stack, so
    the Python work of the reduction is paid once per column and stack,
    not once per column, block and prime.  Sizes are not mixed, and no
    block is padded.
    """
    arrays = [_square(block) for block in blocks]
    polys: list[list[int]] = [[1] if not len(a) else [-int(a[0, 0]), 1] for a in arrays]
    by_size: dict[int, list[int]] = {}
    for i, a in enumerate(arrays):
        if len(a) > 1:
            by_size.setdefault(len(a), []).append(i)
    for n, members in by_size.items():
        bits = prime_bits(n)
        layers = [(i, p) for i in members for p in crt_primes(coefficient_bound(arrays[i]), bits)]
        coeffs = {i: [0] * (n + 1) for i in members}
        moduli = dict.fromkeys(members, 1)
        size = max(1, _STACK_CELLS // n**2)
        for lo in range(0, len(layers), size):
            chunk = layers[lo:lo + size]
            residues = _charpoly_mods(np.stack([arrays[i] for i, _ in chunk]),
                                      [p for _, p in chunk])
            for (i, p), row in zip(chunk, residues.tolist()):
                acc, m = coeffs[i], moduli[i]
                inv = pow(m % p, -1, p)
                for j, r in enumerate(row):
                    acc[j] += m * ((r - acc[j]) * inv % p)
                moduli[i] = m * p
        for i in members:
            m = moduli[i]
            polys[i] = [c - m if c > m // 2 else c for c in coeffs[i]]
    return polys


def check_charpoly(poly: list[int], n: int, trace: int) -> None:
    """Shape and trace checks on the characteristic polynomial of an n x n
    matrix: monic of degree n, with coefficient n-1 equal to -trace."""
    if len(poly) != n + 1 or poly[-1] != 1:
        raise ArithmeticError("characteristic polynomial has the wrong shape")
    if n >= 1 and poly[n - 1] != -trace:
        raise ArithmeticError("characteristic polynomial fails the trace check")


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


def _divisors(c: int, limit: int) -> np.ndarray:
    """The divisors d of a nonzero integer c with d <= limit, ascending,
    as int64.

    The candidates 1..limit are screened a chunk at a time by their exact
    remainders: in int64 when |c| < 2**63, else by Horner's rule over the
    16-bit limbs of |c|, where a remainder r < d < 2**47 keeps
    r * 2**16 + limb below 2**63.
    """
    c = abs(c)
    if c >= 2**63 and limit >= 2**47:
        raise ArithmeticError(f"divisor screen of {c} up to {limit} is out of range")
    top = 16 * ((c.bit_length() - 1) // 16)
    limbs = [c >> s & 0xFFFF for s in range(top, -1, -16)]
    found = []
    for lo in range(1, limit + 1, _DIVISOR_CHUNK):
        d = np.arange(lo, min(lo + _DIVISOR_CHUNK, limit + 1), dtype=np.int64)
        if c < 2**63:
            r = c % d
        else:
            r = np.zeros_like(d)
            for limb in limbs:
                r = ((r << 16) + limb) % d
        found.append(d[r == 0])
    return np.concatenate(found) if found else np.zeros(0, dtype=np.int64)


def integer_roots(coeffs: list[int], bound: int) -> tuple[list[tuple[int, int]], int]:
    """All integer roots with multiplicity, plus the residual degree.

    A linear factor left after the root 0 has its root read off by one
    exact division.  Otherwise the candidates are d and -d for the
    divisors d of the trailing nonzero coefficient, up to the given
    magnitude bound, in that order (_divisors).  One Horner pass in int64
    evaluates the polynomial at every candidate modulo
    p = modular_prime(prime_bits(n), 0), the first prime of an n x n
    charpoly with n = len(coeffs) - 1, and only candidates whose value is
    0 mod p are tried.  A root's value is 0, so no root is screened out;
    what decides is repeated exact synthetic division, which also gives
    the multiplicity.  The residual degree counts what is left after
    every integer root has been divided out.
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
    elif len(work) > 2:
        c0 = work[0]
        divisors = _divisors(c0, min(bound, abs(c0)))
        candidates = np.column_stack([divisors, -divisors]).ravel()
        p = modular_prime(prime_bits(len(coeffs) - 1), 0)
        x = candidates % p
        # every value stays below p, so acc * x + c < p**2 < 2**63
        acc = np.zeros_like(x)
        for c in reversed(work):
            acc = (acc * x + c % p) % p
        for r in candidates[acc == 0].tolist():
            while len(work) > 1:
                q, rem = divide_linear(work, r)
                if rem != 0:
                    break
                roots[r] = roots.get(r, 0) + 1
                work = q
            if len(work) == 1:
                break
    return sorted(roots.items()), len(work) - 1
