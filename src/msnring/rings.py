"""Finite rings on explicit additive coordinates.

A ring is stored as its additive group Z_{d1} x ... x Z_{dk} together with
a multiplication table on element indices, its two factors for a direct
product, or its matrix form for a built-in family.  Indices enumerate the
mixed radix coordinate tuples in row-major order (first modulus most
significant), so index 0 is always the additive identity.  User tables are
validated exhaustively.  Built-in families are square matrices over Z_m
with some entries fixed at zero and one coordinate per free entry, in
row-major order: zn is the 1x1 case, and nc_p2, ut2 and mat2 are 2x2 over
F_p with a zero bottom row, a zero (1, 0) entry and no fixed entry.
Multiplication is read only as whole table rows (FiniteRing.rows):
direct products and matrix rings compute theirs, and build their table
only when `table` is read.  A ring's commutation is held only as its
centralizer census (FiniteRing.centralizer_classes): the labels of
elements that share a centralizer and the k x k commute test of one
representative per class.
A product takes its factors', a matrix ring labels the kernels of its
maps y -> xy - yx by one batched row reduction, and a table ring labels
the rows of table == table.T, which it does not keep.  Rows are labelled,
and each label's first row found, in one place (row_labels).  The central
mask, the non-central classes, the centralizer sizes, the commuting
probability and the CC test all come from the census; the additive type
of R / Z(R) comes from counting the elements whose p^k-multiples are
central.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import DEFAULT_VALIDATION_CAP, parse_decimal, universe_cap


class RingError(Exception):
    """Base class for ring construction and validation failures."""


class NotPrime(RingError):
    pass


class DimensionMismatch(RingError):
    pass


class SizeCapExceeded(RingError):
    pass


class AxiomViolation(RingError):
    """A ring axiom fails; carries the axiom name and a witness triple."""

    def __init__(self, axiom: str, witness: tuple[int, ...]):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at (a, b, c) = {witness}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A ring on element indices, in one of three forms.  A table ring is
    made by `_freeze`, which stores its table; a direct product holds its
    two `factors`; a matrix ring holds `matrix`, its modulus and the
    positions of its free entries (_matrix_ring).  The last two build
    their table only when `table` is read."""

    name: str
    moduli: tuple[int, ...]
    factors: tuple[FiniteRing, FiniteRing] | None = field(default=None, repr=False,
                                                          kw_only=True)
    matrix: tuple[int, tuple[tuple[int, int], ...]] | None = field(default=None, repr=False,
                                                                    kw_only=True)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only int32 multiplication table, built for a product or a
        matrix ring on first read."""
        if self.factors is None and self.matrix is None:
            raise RingError(f"{self.name} has neither a table nor factors nor a matrix form")
        table = self.rows(np.arange(self.order))
        table.setflags(write=False)
        return table

    @functools.cached_property
    def _coords(self) -> np.ndarray:
        """The coordinates of every element, as one (k, |R|) int64 array."""
        return np.array(_coord_arrays(self.moduli), dtype=np.int64)

    @functools.cached_property
    def central(self) -> np.ndarray:
        """Read-only mask of the central elements: their class commutes
        with every class."""
        labels, quotient = self.centralizer_classes
        mask = quotient.all(axis=1)[labels]
        mask.setflags(write=False)
        return mask

    @property
    def is_commutative(self) -> bool:
        return bool(self.central.all())

    @functools.cached_property
    def centralizer_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(labels, quotient), read-only: elements share a label, numbered
        first seen first, when they share a centralizer, and quotient[i, j]
        tells whether the first elements of classes i and j commute.

        A product's classes are the pairs of its factors' (a Kronecker
        product of two nonzero rows determines both), and its quotient is
        theirs, Kronecker multiplied.  A table ring labels the rows of
        table == table.T.  In a matrix ring, y -> xy - yx is a k x k
        matrix A_x over Z_m, linear in x, so one product of the coordinates
        with the commutator constants gives all of them.  C(x) is the kernel of A_x,
        and over F_p equal row spaces mean equal kernels, so the canonical
        forms of _row_spaces label the centralizers; the representatives'
        maps are applied to each other.  zn's maps are all zero, so a
        composite n needs no inverse.
        """
        if self.factors:
            (a, c), (b, d) = (f.centralizer_classes for f in self.factors)
            labels, quotient = (a[:, None] * len(d) + b).ravel(), np.kron(c, d)
        elif self.matrix:
            m, free = self.matrix
            k = len(free)
            maps = (self._coords.T @ _commutator(free) % m).reshape(self.order, k, k)
            labels, reps = row_labels(_row_spaces(maps, m))
            quotient = ~(maps[reps] @ self._coords[:, reps] % m).any(axis=1)
        else:
            commutes = self.table == self.table.T
            labels, reps = row_labels(commutes)
            quotient = commutes.take(reps, axis=0).take(reps, axis=1)
        labels.setflags(write=False)
        quotient.setflags(write=False)
        return labels, quotient

    def noncentral_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """`centralizer_classes` on the non-central elements, in index
        order: the central class, whose row of the quotient is all true,
        is dropped (restricted), and the others keep their order."""
        labels, quotient = self.centralizer_classes
        return restricted(labels[~self.central], quotient)

    def rows(self, indices) -> np.ndarray:
        """The table rows of an array of element indices, as a new int32 array."""
        indices = np.asarray(indices, dtype=np.intp)
        if self.factors:
            r, s = self.factors
            i, k = np.divmod(indices, s.order)
            return (r.rows(i)[:, :, None] * s.order
                    + s.rows(k)[:, None, :]).reshape(len(indices), self.order)
        if self.matrix is None:
            return self.table[indices]
        m, free = self.matrix
        x, y = self._coords[:, indices, None], self._coords[:, None, :]
        out = np.zeros((len(indices), self.order), dtype=np.int32)
        block = _row_block(self.order)
        for start in range(0, len(indices), block):
            rows, xs = out[start:start + block], x[:, start:start + block]
            for pairs in _products(free):
                rows *= m
                rows += _bilinear(xs, y, pairs) % m
        return out

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, order={self.order})"


def _freeze(name: str, moduli: tuple[int, ...], table: np.ndarray) -> FiniteRing:
    """A table ring holding `table`, made read-only."""
    table.setflags(write=False)
    ring = FiniteRing(name, moduli)
    ring.__dict__["table"] = table  # where the cached property keeps it
    return ring


def _check_universe(order: int, what: str) -> None:
    cap = universe_cap()
    if order > cap:
        raise SizeCapExceeded(f"{what} has order {order}, above the universe cap {cap}")


def _coord_arrays(moduli: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    return np.unravel_index(np.arange(math.prod(moduli)), moduli)


def _add_table(moduli: tuple[int, ...]) -> np.ndarray:
    coords = _coord_arrays(moduli)
    sums = tuple((c[:, None] + c[None, :]) % d for c, d in zip(coords, moduli))
    return np.ravel_multi_index(sums, moduli).astype(np.int32)


def _row_block(cells_per_row: int) -> int:
    """Rows per block, so that a block's temporaries hold about 2^22 cells."""
    return max(1, (1 << 22) // max(1, cells_per_row))


def row_labels(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, firsts): a label per row of a 2-D array, numbered first
    seen first, shared by equal rows, and the first row of each label.
    One dict keyed by each row's bytes."""
    row = np.dtype((np.void, a.shape[1] * a.itemsize))
    keys = np.ascontiguousarray(a).view(row).ravel().tolist()  # one bytes per row
    index = {key: label for label, key in enumerate(dict.fromkeys(keys))}
    labels = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    # each label's first row is where the running maximum of the labels reaches it
    return labels, np.searchsorted(np.maximum.accumulate(labels), np.arange(len(index)))


def restricted(classes: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The twin form of vertices in the given classes of w: the classes
    renumbered in order, and w cut down to them."""
    ids = np.flatnonzero(np.bincount(classes))
    return np.searchsorted(ids, classes), w.take(ids, axis=0).take(ids, axis=1)


@functools.cache
def _products(free: tuple[tuple[int, int], ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """products[t] holds the pairs (a, b) with E_a E_b = E_t, where E_j is
    the matrix unit at free[j]."""
    where = {pos: j for j, pos in enumerate(free)}
    dim = 1 + max(map(max, free))
    return tuple(tuple((where[r, i], where[i, c]) for i in range(dim)
                       if (r, i) in where and (i, c) in where) for r, c in free)


@functools.cache
def _commutator(free: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Read-only: entry [i, t k + j] is coordinate t of [E_i, E_j]."""
    k = len(free)
    commutator = np.zeros((k, k, k), dtype=np.int64)
    for t, pairs in enumerate(_products(free)):
        for a, b in pairs:
            commutator[a, t, b] += 1
            commutator[b, t, a] -= 1
    commutator.setflags(write=False)
    return commutator.reshape(k, k * k)


def _bilinear(x, y, pairs):
    """sum x_a y_b over pairs, for broadcast coordinate arrays."""
    return sum(x[a] * y[b] for a, b in pairs)


@functools.cache
def _inverses(p: int) -> np.ndarray:
    """inverse[a] = a^-1 mod the prime p, and 0 at 0, read-only."""
    inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
    inverse.setflags(write=False)
    return inverse


def _row_spaces(a: np.ndarray, p: int) -> np.ndarray:
    """A canonical form of the row space of each matrix of a (n, k, k)
    stack over F_p, as n rows of k element indices.

    Gauss-Jordan elimination, batched: a column's step takes in every
    matrix its first nonzero row not yet a pivot, scales it to a leading 1
    and clears the column from the other rows, so k steps at most.  The
    rows left are the reduced row echelon form, in some order, and rows of
    zeros.  Each row is read as the element with those coordinates, and
    the indices are sorted.  Equal forms mean equal row spaces, hence equal
    kernels.  An all zero stack takes no step, so needs no inverse.
    """
    n, k, _ = a.shape
    if a.any():
        inverse, each = _inverses(p), np.arange(n)
        unused = np.ones((n, k), dtype=bool)
        for c in range(k):
            found = (a[:, :, c] != 0) & unused
            pivot = found.argmax(axis=1)
            hit = found[each, pivot]
            if not hit.any():
                continue
            row = a[each, pivot] * hit[:, None]  # zero where the column has no pivot
            row = row * inverse[row[:, c], None] % p
            factor = a[:, :, c].copy()
            factor[each, pivot] -= 1  # the pivot row becomes the scaled row
            a = (a - factor[:, :, None] * row[:, None, :]) % p
            unused[each, pivot] &= ~hit
    return np.sort(a @ p ** np.arange(k - 1, -1, -1), axis=1)


def _matrix_ring(name: str, m: int, free: tuple[tuple[int, int], ...]) -> FiniteRing:
    """Square matrices over Z_m, zero outside the product-closed row-major
    positions `free`, with coordinate j the entry at free[j].  It builds
    nothing: rows, products and centralizers come from the coordinates
    and the structure constants of `free` (_products, _commutator)."""
    return FiniteRing(name, (m,) * len(free), matrix=(m, free))


def validate_ring_axioms(moduli: tuple[int, ...], table: np.ndarray) -> None:
    """Exhaustively check associativity and both distributive laws.

    O(|R|^3) work, done in row blocks so the intermediate arrays stay small.
    Raises AxiomViolation with the first witness in index order.
    """
    n = table.shape[0]
    add = _add_table(moduli)
    block = _row_block(n * n)
    for start in range(0, n, block):
        rows = table[start:start + block]
        lhs = table[rows]            # [x, j, k] = (a_x b_j) c_k
        rhs = rows[:, table]         # [x, j, k] = a_x (b_j c_k)
        if not np.array_equal(lhs, rhs):
            x, j, k = np.argwhere(lhs != rhs)[0]
            raise AxiomViolation("associativity", (start + int(x), int(j), int(k)))
    for start in range(0, n, block):
        rows = table[start:start + block]
        lhs = rows[:, add]                                  # a (b + c)
        rhs = add[rows[:, :, None], rows[:, None, :]]       # ab + ac
        if not np.array_equal(lhs, rhs):
            x, j, k = np.argwhere(lhs != rhs)[0]
            raise AxiomViolation("left distributivity", (start + int(x), int(j), int(k)))
    for start in range(0, n, block):
        cols = table[:, start:start + block]
        lhs = cols[add]                                     # [j, k, x] = (b + c) a_x
        rhs = add[cols[:, None, :], cols[None, :, :]]       # ba + ca
        if not np.array_equal(lhs, rhs):
            j, k, x = np.argwhere(lhs != rhs)[0]
            raise AxiomViolation("right distributivity", (int(j), int(k), start + int(x)))


def _check_zero_laws(table: np.ndarray) -> None:
    if not (np.all(table[0, :] == 0) and np.all(table[:, 0] == 0)):
        bad = int(np.argmax((table[0, :] != 0) | (table[:, 0] != 0)))
        raise AxiomViolation("zero annihilation", (0, bad, 0))


def ring_from_table(
    moduli: list[int] | tuple[int, ...],
    table,
    *,
    name: str = "table-ring",
    validate: bool = True,
) -> FiniteRing:
    """Build a ring from an explicit index-level multiplication table.

    Validation checks the zero laws, associativity and both distributive
    laws over every triple.  It refuses an order above DEFAULT_VALIDATION_CAP
    and can only be skipped with an explicit validate=False.
    """
    if not isinstance(moduli, (list, tuple)) or any(
            isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in moduli):
        raise DimensionMismatch(f"moduli must be a list of integers, not floats or "
                                f"booleans, got {moduli!r}")
    moduli = tuple(int(d) for d in moduli)
    if not moduli or any(d < 1 for d in moduli):
        raise DimensionMismatch(f"moduli must be positive, got {list(moduli)}")
    n = math.prod(moduli)
    _check_universe(n, "table ring")
    try:
        arr = np.asarray(table)
    except ValueError:
        raise DimensionMismatch(f"table must be a square integer array of order {n}, "
                                "not a ragged list") from None
    if arr.shape != (n, n):
        raise DimensionMismatch(f"table shape {arr.shape} does not match order {n}")
    # Booleans are ints to Python, and numpy folds a mixed list into int64.
    if arr.dtype.kind not in "iu" or (
        not isinstance(table, np.ndarray)
        and any(isinstance(v, (bool, np.bool_)) for row in table for v in row)
    ):
        raise DimensionMismatch("table entries must be integers, not floats or booleans")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise DimensionMismatch("table entries must be element indices in 0..order-1")
    arr = arr.astype(np.int32)
    if validate:
        if n > DEFAULT_VALIDATION_CAP:
            raise SizeCapExceeded(f"order {n} exceeds the validation cap {DEFAULT_VALIDATION_CAP}")
        _check_zero_laws(arr)
        validate_ring_axioms(moduli, arr)
    return _freeze(name, moduli, arr)


def zn(n: int) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    _check_universe(n, "zn")
    return _matrix_ring(f"zn:n={n}", n, ((0, 0),))


def ring_noncomm_p2(p: int) -> FiniteRing:
    """Order p^2 ring of pairs over F_p with (a, b)(c, d) = (ac, ad).

    Matrices with zero bottom row, the smallest non-commutative family;
    its center is the zero element alone.
    """
    _check_universe(p * p, "nc_p2")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    return _matrix_ring(f"nc_p2:p={p}", p, ((0, 0), (0, 1)))


def matrix_ring_2x2(p: int) -> FiniteRing:
    """Full ring of 2x2 matrices over F_p, coordinates (a, b, c, d) row-wise."""
    _check_universe(p ** 4, "mat2")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    return _matrix_ring(f"mat2:p={p}", p, ((0, 0), (0, 1), (1, 0), (1, 1)))


def upper_triangular_ring(p: int) -> FiniteRing:
    """Ring of upper triangular 2x2 matrices over F_p, coordinates (a, b, c)."""
    _check_universe(p ** 3, "ut2")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    return _matrix_ring(f"ut2:p={p}", p, ((0, 0), (0, 1), (1, 1)))


def direct_product(r: FiniteRing, s: FiniteRing) -> FiniteRing:
    """Componentwise product ring on the concatenated coordinates; it keeps
    its factors and builds its table only when `table` is read."""
    _check_universe(r.order * s.order, f"prod({r.name},{s.name})")
    return FiniteRing(f"prod({r.name},{s.name})", r.moduli + s.moduli, factors=(r, s))


def centralizer_count(ring: FiniteRing) -> int:
    """Number of distinct centralizer sets over all elements.

    Central elements contribute the single set R, so a commutative ring
    counts 1.
    """
    return len(ring.centralizer_classes[1])


def commuting_probability(ring: FiniteRing) -> Fraction:
    """Probability that an ordered pair commutes, in lowest terms."""
    labels, quotient = ring.centralizer_classes  # pairs of classes, by their sizes
    sizes = np.bincount(labels)
    return Fraction(int(sizes @ quotient @ sizes), ring.order ** 2)


def is_cc_ring(ring: FiniteRing) -> bool | None:
    """Whether every centralizer of a non-central element is commutative.

    Returns None for commutative rings, where the notion does not apply.
    Two elements commute exactly when the first elements of their classes
    do, so each non-central class's centralizer is tested on the quotient.
    """
    if ring.is_commutative:
        return None
    _, quotient = ring.centralizer_classes
    return all(quotient[np.ix_(row, row)].all() for row in quotient if not row.all())


def noncentral_centralizer_sizes(ring: FiniteRing) -> list[int]:
    """Sorted sizes of the distinct centralizers of non-central elements:
    a class's centralizer is the classes its row of the quotient marks."""
    labels, quotient = ring.centralizer_classes
    sizes = quotient @ np.bincount(labels)
    return sorted(sizes[~quotient.all(axis=1)].tolist())


def has_unity(ring: FiniteRing) -> int | None:
    """The two-sided identity's index, or None."""
    return _unity(ring)


def _unity(ring: FiniteRing) -> int | None:
    """has_unity, recursing past any wrapper of it.  A product's unity is
    the pair of its factors' unities.  Any other ring's, being central, has
    its row equal to its column, so only central rows are read, by blocks."""
    if ring.factors:
        units = [_unity(f) for f in ring.factors]
        return None if None in units else units[0] * ring.factors[1].order + units[1]
    idx = np.arange(ring.order)
    central = np.flatnonzero(ring.central)
    block = _row_block(ring.order)
    for start in range(0, central.size, block):
        chunk = central[start:start + block]
        hits = np.flatnonzero((ring.rows(chunk) == idx).all(axis=1))
        if hits.size:
            return int(chunk[hits[0]])
    return None


def additive_quotient_type(ring: FiniteRing) -> list[int]:
    """Invariant factors of the additive group Q = R / Z(R), ascending, each
    dividing the next; the trivial quotient gives [].

    For a prime p, x + Z(R) lies in Q[p^k] exactly when p^k x is central,
    so counting those x gives |Z(R)| |Q[p^k]|.  Each step in k multiplies
    that count by p once per cyclic p-factor of order at least p^k, so the
    j-th largest invariant factor takes a p at every step with more than j.
    """
    size = int(ring.central.sum())
    factors: list[int] = []  # largest first
    for p in prime_factors(ring.order // size):
        coords, counted = _coord_arrays(ring.moduli), size
        while True:
            coords = tuple(c * p % d for c, d in zip(coords, ring.moduli))
            count = int(ring.central[np.ravel_multi_index(coords, ring.moduli)].sum())
            ratio, rank = count // counted, 0
            while ratio % p == 0:
                ratio, rank = ratio // p, rank + 1
            if rank == 0:
                break
            factors += [1] * (rank - len(factors))
            factors[:rank] = [f * p for f in factors[:rank]]
            counted = count
    assert math.prod(factors) == ring.order // size
    return factors[::-1]


_BUILTIN_FAMILIES = {
    "nc_p2": ("p", ring_noncomm_p2),
    "mat2": ("p", matrix_ring_2x2),
    "ut2": ("p", upper_triangular_ring),
    "zn": ("n", zn),
}


class RingSpecError(RingError):
    pass


def _split_product_args(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def parse_ring_spec(spec: str) -> FiniteRing:
    """Build a ring from a spec string.

    Forms: nc_p2:p=P, mat2:p=P, ut2:p=P, zn:n=N, prod(SPEC,SPEC),
    file:PATH pointing at a ring JSON file.
    """
    spec = spec.strip()
    if spec.startswith("prod(") and spec.endswith(")"):
        args = _split_product_args(spec[len("prod("):-1])
        if len(args) != 2:
            raise RingSpecError(f"prod takes two ring specs, got {len(args)}")
        return direct_product(parse_ring_spec(args[0]), parse_ring_spec(args[1]))
    if spec.startswith("file:"):
        return load_ring(spec[len("file:"):])
    if ":" not in spec:
        raise RingSpecError(f"malformed ring spec {spec!r}")
    family, _, params = spec.partition(":")
    if family not in _BUILTIN_FAMILIES:
        raise RingSpecError(f"unknown ring family {family!r}")
    key, builder = _BUILTIN_FAMILIES[family]
    name, _, value = params.partition("=")
    if name != key or not value:
        raise RingSpecError(f"{family} takes a single parameter {key}=<int>")
    try:
        n = parse_decimal(value)
    except ValueError:
        raise RingSpecError(f"parameter {key}={value!r} is not an integer") from None
    return builder(n)


def load_ring(path: str | Path) -> FiniteRing:
    """Load a validated table ring from a JSON file."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RingSpecError(f"cannot read ring file {p}: {exc}") from None
    if not isinstance(data, dict) or "moduli" not in data or "table" not in data:
        raise RingSpecError(f"ring file {p} must contain moduli and table fields")
    name = data.get("name") or p.stem
    return ring_from_table(data["moduli"], data["table"], name=str(name))


def save_ring(ring: FiniteRing, path: str | Path) -> None:
    """Write a ring to the JSON table format."""
    data = {
        "name": ring.name,
        "moduli": list(ring.moduli),
        "table": ring.table.tolist(),
    }
    Path(path).write_text(json.dumps(data))
