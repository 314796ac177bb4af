"""Finite rings on explicit additive coordinates.

A ring is stored as its additive group Z_{d1} x ... x Z_{dk} together with
either a multiplication table on element indices or, for a direct product,
its two factors.  A product builds its table only when `table` is read: its
commute mask, its central elements and any rows of its table come from the
factors'.  Indices enumerate the mixed radix coordinate tuples in row-major
order (first modulus most significant), so index 0 is always the additive
identity.  User tables are validated exhaustively.  Built-in families are
square matrices over Z_m with some entries fixed at zero and one coordinate
per free entry, in row-major order: zn is the 1x1 case, and nc_p2, ut2 and
mat2 are 2x2 over F_p with a zero bottom row, a zero (1, 0) entry and no
fixed entry.  One builder fills all their tables.  The invariants are read
off the commute and central masks: the distinct centralizers are the
distinct rows of the commute mask, and the additive type of R / Z(R) comes
from counting the elements whose p^k-multiples are central.
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


@dataclass(frozen=True)
class CentralizerSet:
    """A set of element indices, kept sorted."""

    elements: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, index: int) -> bool:
        return index in self.elements


@dataclass(frozen=True, eq=False)
class FiniteRing:
    """A ring on element indices.  A table ring is made by `_freeze`, which
    stores its table; a direct product holds its two `factors`."""

    name: str
    moduli: tuple[int, ...]
    factors: tuple[FiniteRing, FiniteRing] | None = field(default=None, repr=False,
                                                          kw_only=True)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only int32 multiplication table, built for a product on first read."""
        if self.factors is None:
            raise RingError(f"{self.name} has neither a table nor factors")
        table = self.rows(np.arange(self.order))
        table.setflags(write=False)
        return table

    @functools.cached_property
    def commutes(self) -> np.ndarray:
        """Read-only symmetric mask, true at [i, j] when ij = ji; row i
        is the centralizer of element i."""
        if self.factors:
            r, s = self.factors
            # [i |S| + k, j |S| + l] is r.commutes[i, j] and s.commutes[k, l]
            mask = (r.commutes[:, None, :, None]
                    & s.commutes[None, :, None, :]).reshape(self.order, self.order)
        else:
            mask = self.table == self.table.T
        mask.setflags(write=False)
        return mask

    @functools.cached_property
    def central(self) -> np.ndarray:
        """Read-only mask of the central elements."""
        if self.factors:
            r, s = self.factors
            mask = (r.central[:, None] & s.central[None, :]).ravel()
        else:
            mask = self.commutes.all(axis=1)
        mask.setflags(write=False)
        return mask

    @functools.cached_property
    def centralizers(self) -> tuple[np.ndarray, ...]:
        """The distinct rows of `commutes`, first seen first, as read-only views."""
        return tuple({row.tobytes(): row for row in self.commutes}.values())

    @property
    def is_commutative(self) -> bool:
        return bool(self.central.all())

    def noncentral_commutes(self) -> np.ndarray:
        """A new copy of the commute mask on the non-central elements.  When
        the second factor of a product is commutative, those elements are
        a |S| + k for every non-central a of the first and every k, and the
        mask is the first factor's block with each cell repeated |S| x |S|."""
        if self.factors and self.factors[1].is_commutative:
            r, s = self.factors
            block = r.noncentral_commutes()
            return np.repeat(np.repeat(block, s.order, axis=0), s.order, axis=1)
        vertices = np.flatnonzero(~self.central)
        return self.commutes[np.ix_(vertices, vertices)]

    def rows(self, indices) -> np.ndarray:
        """The table rows of an array of element indices, as a new int32 array."""
        indices = np.asarray(indices, dtype=np.intp)
        if not self.factors:
            return self.table[indices]
        r, s = self.factors
        i, k = np.divmod(indices, s.order)
        return (r.rows(i)[:, :, None] * s.order
                + s.rows(k)[:, None, :]).reshape(len(indices), self.order)

    def coords(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range")
        return tuple(int(c) for c in np.unravel_index(index, self.moduli))

    def index(self, coords: tuple[int, ...]) -> int:
        if len(coords) != len(self.moduli):
            raise DimensionMismatch("coordinate arity does not match moduli")
        return int(np.ravel_multi_index(coords, self.moduli))

    def multiply(self, i: int, j: int) -> int:
        if not self.factors:
            return int(self.table[i, j])
        r, s = self.factors
        (a, k), (b, l) = divmod(i, s.order), divmod(j, s.order)
        return r.multiply(a, b) * s.order + s.multiply(k, l)

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


def _matrix_ring(name: str, m: int, free: tuple[tuple[int, int], ...]) -> FiniteRing:
    """Square matrices over Z_m, zero outside the product-closed row-major
    positions `free`, with coordinate j the entry at free[j].  Entry (r, c) of
    xy is sum_k x[r, k] y[k, c] mod m, in int64 for one row block at a time."""
    moduli = (m,) * len(free)
    order, dim = math.prod(moduli), 1 + max(map(max, free))
    mats = np.zeros((dim, dim, order), dtype=np.int64)
    for (r, c), coord in zip(free, _coord_arrays(moduli)):
        mats[r, c] = coord
    table = np.zeros((order, order), dtype=np.int32)
    block = _row_block(order)
    for start in range(0, order, block):
        rows = table[start:start + block]
        for r, c in free:
            rows *= m
            rows += mats[r, :, start:start + block].T @ mats[:, c] % m
    return _freeze(name, moduli, table)


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
    validation_cap: int = DEFAULT_VALIDATION_CAP,
) -> FiniteRing:
    """Build a ring from an explicit index-level multiplication table.

    Validation checks the zero laws, associativity and both distributive
    laws over every triple; it is gated by `validation_cap` and can only be
    skipped with an explicit validate=False.
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
        if n > validation_cap:
            raise SizeCapExceeded(
                f"order {n} exceeds the validation cap {validation_cap}; "
                "pass validate=False to load anyway"
            )
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


def center(ring: FiniteRing) -> CentralizerSet:
    """Elements commuting with the whole ring."""
    return CentralizerSet(tuple(int(i) for i in np.flatnonzero(ring.central)))


def centralizer_count(ring: FiniteRing) -> int:
    """Number of distinct centralizer sets over all elements.

    Central elements contribute the single set R, so a commutative ring
    counts 1.
    """
    return len(ring.centralizers)


def commuting_probability(ring: FiniteRing) -> Fraction:
    """Probability that an ordered pair commutes, in lowest terms."""
    return Fraction(int(ring.commutes.sum()), ring.order ** 2)


def _noncentral_centralizers(ring: FiniteRing) -> list[np.ndarray]:
    """Distinct centralizer masks of the non-central elements."""
    return [row for row in ring.centralizers if not row.all()]


def is_cc_ring(ring: FiniteRing) -> bool | None:
    """Whether every centralizer of a non-central element is commutative.

    Returns None for commutative rings, where the notion does not apply.
    """
    if ring.is_commutative:
        return None
    return all(ring.commutes[np.ix_(members, members)].all()
               for members in map(np.flatnonzero, _noncentral_centralizers(ring)))


def noncentral_centralizer_sizes(ring: FiniteRing) -> list[int]:
    """Sorted sizes of the distinct centralizers of non-central elements."""
    return sorted(int(mask.sum()) for mask in _noncentral_centralizers(ring))


def has_unity(ring: FiniteRing) -> int | None:
    """The two-sided identity's index, or None; being central, its row
    equals its column, so only central rows are read, a row block at a time."""
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
