"""Finite rings on explicit additive coordinates.

A ring is stored as its additive group Z_{d1} x ... x Z_{dk} together with a
full multiplication table on element indices.  Indices enumerate the mixed
radix coordinate tuples in row-major order (first modulus most significant),
so index 0 is always the additive identity.  Built-in families fill the table
from a closed-form coordinate rule; user tables are validated exhaustively.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import DEFAULT_VALIDATION_CAP, universe_cap


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
class RingElement:
    """An element identified by its index and additive coordinates."""

    index: int
    coords: tuple[int, ...]


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
    name: str
    moduli: tuple[int, ...]
    table: np.ndarray = field(repr=False)

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @property
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def coords(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise IndexError(f"element index {index} out of range")
        return tuple(int(c) for c in np.unravel_index(index, self.moduli))

    def index(self, coords: tuple[int, ...]) -> int:
        if len(coords) != len(self.moduli):
            raise DimensionMismatch("coordinate arity does not match moduli")
        return int(np.ravel_multi_index(coords, self.moduli))

    def element(self, index: int) -> RingElement:
        return RingElement(index, self.coords(index))

    def multiply(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def add(self, i: int, j: int) -> int:
        a, b = self.coords(i), self.coords(j)
        return self.index(tuple((x + y) % d for x, y, d in zip(a, b, self.moduli)))

    def __repr__(self) -> str:
        return f"FiniteRing({self.name}, order={self.order})"


def _freeze(ring: FiniteRing) -> FiniteRing:
    ring.table.setflags(write=False)
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


def validate_ring_axioms(moduli: tuple[int, ...], table: np.ndarray) -> None:
    """Exhaustively check associativity and both distributive laws.

    O(|R|^3) work, done in row blocks so the intermediate arrays stay small.
    Raises AxiomViolation with the first witness in index order.
    """
    n = table.shape[0]
    add = _add_table(moduli)
    block = max(1, (1 << 22) // max(1, n * n))
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
    moduli = tuple(int(d) for d in moduli)
    if not moduli or any(d < 1 for d in moduli):
        raise DimensionMismatch(f"moduli must be positive, got {list(moduli)}")
    n = math.prod(moduli)
    _check_universe(n, "table ring")
    arr = np.asarray(table)
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
    return _freeze(FiniteRing(name, moduli, arr))


def zn(n: int) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise DimensionMismatch("n must be at least 1")
    _check_universe(n, "zn")
    i = np.arange(n, dtype=np.int64)
    table = ((i[:, None] * i[None, :]) % n).astype(np.int32)
    return _freeze(FiniteRing(f"zn:n={n}", (n,), table))


def ring_noncomm_p2(p: int) -> FiniteRing:
    """Order p^2 ring of pairs over F_p with (a, b)(c, d) = (ac, ad).

    Matrices with zero bottom row, the smallest non-commutative family;
    its center is the zero element alone.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    _check_universe(p * p, "nc_p2")
    a, b = _coord_arrays((p, p))
    pa = (a[:, None] * a[None, :]) % p
    pb = (a[:, None] * b[None, :]) % p
    table = (pa * p + pb).astype(np.int32)
    return _freeze(FiniteRing(f"nc_p2:p={p}", (p, p), table))


def matrix_ring_2x2(p: int) -> FiniteRing:
    """Full ring of 2x2 matrices over F_p, coordinates (a, b, c, d) row-wise."""
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    _check_universe(p ** 4, "mat2")
    a, b, c, d = _coord_arrays((p, p, p, p))

    def mul(x, y):
        return (x[:, None] * y[None, :]) % p

    e = (mul(a, a) + mul(b, c)) % p
    f = (mul(a, b) + mul(b, d)) % p
    g = (mul(c, a) + mul(d, c)) % p
    h = (mul(c, b) + mul(d, d)) % p
    table = (((e * p + f) * p + g) * p + h).astype(np.int32)
    return _freeze(FiniteRing(f"mat2:p={p}", (p, p, p, p), table))


def upper_triangular_ring(p: int) -> FiniteRing:
    """Ring of upper triangular 2x2 matrices over F_p, coordinates (a, b, c)."""
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    _check_universe(p ** 3, "ut2")
    a, b, c = _coord_arrays((p, p, p))

    def mul(x, y):
        return (x[:, None] * y[None, :]) % p

    e = mul(a, a)
    f = (mul(a, b) + mul(b, c)) % p
    g = mul(c, c)
    table = ((e * p + f) * p + g).astype(np.int32)
    return _freeze(FiniteRing(f"ut2:p={p}", (p, p, p), table))


def direct_product(r: FiniteRing, s: FiniteRing) -> FiniteRing:
    """Componentwise product ring on the concatenated coordinates."""
    order = r.order * s.order
    _check_universe(order, f"prod({r.name},{s.name})")
    ns = s.order
    left = np.repeat(np.repeat(r.table.astype(np.int64), ns, axis=0), ns, axis=1)
    right = np.tile(s.table.astype(np.int64), (r.order, r.order))
    table = (left * ns + right).astype(np.int32)
    return _freeze(FiniteRing(f"prod({r.name},{s.name})", r.moduli + s.moduli, table))


def center(ring: FiniteRing) -> CentralizerSet:
    """Elements commuting with the whole ring."""
    mask = np.all(ring.table == ring.table.T, axis=1)
    return CentralizerSet(tuple(int(i) for i in np.flatnonzero(mask)))


def centralizer(ring: FiniteRing, r: RingElement | int) -> CentralizerSet:
    """Elements commuting with r."""
    i = r.index if isinstance(r, RingElement) else int(r)
    if not 0 <= i < ring.order:
        raise IndexError(f"element index {i} out of range")
    mask = ring.table[:, i] == ring.table[i, :]
    return CentralizerSet(tuple(int(j) for j in np.flatnonzero(mask)))


def _centralizer_masks(ring: FiniteRing) -> np.ndarray:
    return ring.table == ring.table.T


def centralizer_count(ring: FiniteRing) -> int:
    """Number of distinct centralizer sets over all elements.

    Central elements contribute the single set R, so a commutative ring
    counts 1.
    """
    masks = _centralizer_masks(ring)
    return len({masks[:, i].tobytes() for i in range(ring.order)})


def commuting_probability(ring: FiniteRing) -> Fraction:
    """Probability that an ordered pair commutes, in lowest terms."""
    masks = _centralizer_masks(ring)
    return Fraction(int(masks.sum()), ring.order ** 2)


def is_cc_ring(ring: FiniteRing) -> bool | None:
    """Whether every centralizer of a non-central element is commutative.

    Returns None for commutative rings, where the notion does not apply.
    """
    if ring.is_commutative:
        return None
    masks = _centralizer_masks(ring)
    central = np.all(masks, axis=0)
    seen = set()
    for i in np.flatnonzero(~central):
        key = masks[:, i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        members = np.flatnonzero(masks[:, i])
        sub = ring.table[np.ix_(members, members)]
        if not np.array_equal(sub, sub.T):
            return False
    return True


def noncentral_centralizer_sizes(ring: FiniteRing) -> list[int]:
    """Sorted sizes of the distinct centralizers of non-central elements."""
    masks = _centralizer_masks(ring)
    central = np.all(masks, axis=0)
    distinct = {}
    for i in np.flatnonzero(~central):
        key = masks[:, i].tobytes()
        if key not in distinct:
            distinct[key] = int(masks[:, i].sum())
    return sorted(distinct.values())


def has_unity(ring: FiniteRing) -> int | None:
    """Index of the two-sided multiplicative identity, or None."""
    idx = np.arange(ring.order)
    for e in range(ring.order):
        if np.array_equal(ring.table[e, :], idx) and np.array_equal(ring.table[:, e], idx):
            return e
    return None


def _smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Small dense version with exact integer arithmetic; returns nonnegative
    entries in divisibility order, padded with zeros up to min(rows, cols).
    """
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    out: list[int] = []
    r = c = 0
    while r < rows and c < cols:
        pivot = None
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        m[r], m[i0] = m[i0], m[r]
        for row in m:
            row[c], row[j0] = row[j0], row[c]
        while True:
            reduced = False
            for i in range(r + 1, rows):
                if m[i][c]:
                    f = m[i][c] // m[r][c]
                    for j in range(c, cols):
                        m[i][j] -= f * m[r][j]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        reduced = True
            for j in range(c + 1, cols):
                if m[r][j]:
                    f = m[r][j] // m[r][c]
                    for i in range(r, rows):
                        m[i][j] -= f * m[i][c]
                    if m[r][j]:
                        for i in range(rows):
                            m[i][c], m[i][j] = m[i][j], m[i][c]
                        reduced = True
            if not reduced:
                break
        out.append(abs(m[r][c]))
        r += 1
        c += 1
    out += [0] * (min(rows, cols) - len(out))
    # enforce the divisibility chain d1 | d2 | ...
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            a, b = out[i], out[j]
            if a and b and b % a:
                g = math.gcd(a, b)
                out[i], out[j] = g, a * b // g
            elif a == 0 and b:
                out[i], out[j] = b, 0
    return out


def additive_quotient_type(ring: FiniteRing) -> list[int]:
    """Invariant factors of the additive group R / Z(R).

    Computed from the relation lattice spanned by the moduli and the center
    coordinates; the trivial quotient gives [].
    """
    z = center(ring)
    k = len(ring.moduli)
    columns = [[d if i == j else 0 for i in range(k)] for j, d in enumerate(ring.moduli)]
    columns += [list(ring.coords(i)) for i in z.elements]
    mat = [[col[i] for col in columns] for i in range(k)]
    diag = _smith_diagonal(mat)
    factors = [d for d in diag if d > 1]
    assert math.prod(factors) == ring.order // z.size
    return factors


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
        n = int(value)
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
