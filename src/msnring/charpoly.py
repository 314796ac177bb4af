"""Exact characteristic polynomials and integer root extraction.

Polynomials are lists of Python ints in ascending degree order, so
coeffs[i] multiplies x**i and the leading coefficient of a monic
polynomial is the final 1.  Everything here is exact.  The
characteristic polynomial is computed multimodularly: a Hessenberg
reduction and leading-minor recurrence in int64 modulo word-size primes,
combined by the Chinese remainder theorem until the modulus exceeds a
proven bound on the coefficients, derived from the row-sum bound on the
eigenvalues.  No floating point enters.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .rings import is_prime


def gershgorin_bound(block: list[list[int]]) -> int:
    """Bound on the absolute value of any eigenvalue: max row sum."""
    if not block:
        return 0
    return max(sum(abs(v) for v in row) for row in block)


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


def _charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial of a modulo p, ascending residues in 0..p-1.

    Reduces to upper Hessenberg form by similarity over F_p, pivoting on
    the first nonzero entry below the subdiagonal, then runs the
    leading-minor recurrence with one matrix-vector product per step.
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
    # polys[k] holds the characteristic polynomial of the leading k x k minor;
    # beta[i] the product of the subdiagonal entries h[i, i-1] .. h[k-1, k-2].
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


def charpoly_dense(block: list[list[int]]) -> list[int]:
    """Characteristic polynomial of a small integer matrix, exactly.

    Multimodular: the polynomial is computed modulo word-size primes and
    combined by the Chinese remainder theorem until the modulus M exceeds
    2 * max_k C(n, k) * B**k, with B the row-sum eigenvalue bound.  That
    bounds every coefficient, so the symmetric residues mod M are the
    integer coefficients themselves.
    """
    n = len(block)
    if n == 0:
        return [1]
    if n == 1:
        return [-block[0][0], 1]
    a = np.array(block, dtype=np.int64)
    b = gershgorin_bound(block)
    limit = 2 * max(math.comb(n, k) * b**k for k in range(n + 1))
    bits = prime_bits(n)
    coeffs = [0] * (n + 1)
    modulus = 1
    i = 0
    while modulus <= limit:
        p = modular_prime(bits, i)
        inv = pow(modulus % p, -1, p)
        for j, r in enumerate(_charpoly_mod(a, p).tolist()):
            coeffs[j] += modulus * ((r - coeffs[j]) * inv % p)
        modulus *= p
        i += 1
    half = modulus // 2
    return [c - modulus if c > half else c for c in coeffs]


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


def integer_roots(coeffs: list[int], bound: int) -> tuple[list[tuple[int, int]], int]:
    """All integer roots with multiplicity, plus the residual degree.

    Candidates are the divisors of the trailing nonzero coefficient, up
    to the given magnitude bound; multiplicity comes from repeated exact
    synthetic division.  The residual degree counts what is left after
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
