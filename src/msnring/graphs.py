"""Simple graphs, commuting graphs, and clique union structure.

The commuting graph is the ring's commute mask on its non-central
elements (FiniteRing.noncentral_commutes).  The second neighborhood of a vertex collects
everything within distance two: the neighbors together with the
neighbors' neighbors, the vertex itself excluded.  This is the convention
under which every vertex of a K_m component has second-degree sum
(m-1)^2, which the closed forms elsewhere in the package rely on.
A graph's components are labelled once and grouped once by adjacency
block (SimpleGraph.components, .classes); the clique decomposition,
the common neighbours (counted once per graph, SimpleGraph.common_neighbours),
distance two and the msn/cn matrices are all built once per class, however
many components carry its block.
Graph files are plain edge lists, read by one line and field grammar
(parse_edge_list_text), or JSON; both end in SimpleGraph.from_edges,
which checks and places all the pairs as one integer array.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ENV_UNIVERSE_CAP, parse_decimal, universe_cap
from .rings import FiniteRing


class GraphError(Exception):
    pass


class CommutativeRing(GraphError):
    """Raised when a commuting graph would have an empty vertex set."""


class VertexOutOfRange(GraphError):
    pass


class GraphFormatError(GraphError):
    pass


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1 with a dense adjacency matrix."""

    n: int
    adjacency: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise GraphFormatError(f"adjacency shape {a.shape} does not match n={self.n}")
        if a.dtype != np.bool_:
            raise GraphFormatError("adjacency must be boolean")
        if self.n and np.any(np.diagonal(a)):
            raise GraphFormatError("self-loops are not allowed")
        if not _is_symmetric(a):
            raise GraphFormatError("adjacency must be symmetric")
        a.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        """Graph on 0..n-1 from (u, v) pairs: a (k, 2) integer array or any
        iterable of integer pairs.  The first pair in input order that is out
        of range or a self-loop is reported."""
        adj = np.zeros((n, n), dtype=bool)
        pairs = _edge_pairs(edges)
        u, v = pairs[:, 0], pairs[:, 1]
        outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        bad = outside | (u == v)
        if bad.any():
            i = int(bad.argmax())
            a, b = pairs[i]
            if outside[i]:
                raise VertexOutOfRange(f"edge ({a}, {b}) outside 0..{n - 1}")
            raise GraphFormatError(f"self-loop at vertex {a}")
        u, v = u.astype(np.intp, copy=False), v.astype(np.intp, copy=False)
        adj[u, v] = adj[v, u] = True
        return cls(n, adj)

    @functools.cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        """The connected components, labelled once per graph."""
        return connected_components(self.adjacency)

    @functools.cached_property
    def classes(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The components grouped by read-only adjacency block (equal bytes,
        equal block), first seen first: each with a (copies, size) array."""
        seen: dict[bytes, tuple[np.ndarray, list[np.ndarray]]] = {}
        for comp in self.components:
            block = self.adjacency[comp[:, None], comp]
            block.setflags(write=False)
            seen.setdefault(block.tobytes(), (block, []))[1].append(comp)
        return tuple((block, np.array(comps)) for block, comps in seen.values())

    @functools.cached_property
    def common_neighbours(self) -> tuple[np.ndarray, ...]:
        """Shared-neighbour counts as one read-only int64 block per class,
        counted once per graph; vertices in different components share no
        neighbour."""
        return tuple(_shared_neighbours(block) for block, _ in self.classes)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return int(self.adjacency[v].sum())

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(np.int64)

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.adjacency[u, v])

    def neighbors(self, v: int) -> list[int]:
        self.check_vertex(v)
        return [int(u) for u in np.flatnonzero(self.adjacency[v])]

    def edges(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.adjacency, k=1))
        return [(int(u), int(v)) for u, v in zip(us, vs)]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


@dataclass(frozen=True)
class CliqueUnion:
    """A disjoint union of complete graphs, as (size, count) parts.

    Sizes are distinct and ascending, counts are at least 1.
    """

    parts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        sizes = [m for m, _ in self.parts]
        if any(m < 1 or l < 1 for m, l in self.parts):
            raise ValueError(f"parts must have size and count >= 1, got {self.parts}")
        if sizes != sorted(set(sizes)):
            raise ValueError(f"part sizes must be distinct and ascending, got {sizes}")

    @classmethod
    def of(cls, pairs) -> "CliqueUnion":
        """Normalize (size, count) pairs: drop zero counts, merge, sort."""
        merged: dict[int, int] = {}
        for m, l in pairs:
            if l == 0:
                continue
            merged[int(m)] = merged.get(int(m), 0) + int(l)
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def from_sizes(cls, sizes) -> "CliqueUnion":
        return cls.of((m, 1) for m in sizes)

    @property
    def n(self) -> int:
        return sum(m * l for m, l in self.parts)

    def component_sizes(self) -> list[int]:
        out: list[int] = []
        for m, l in self.parts:
            out.extend([m] * l)
        return out

    def __str__(self) -> str:
        if not self.parts:
            return "empty"
        return " + ".join(f"{l}K{m}" for m, l in self.parts)


@dataclass(frozen=True)
class NotCliqueUnion:
    """Witness that some connected component is not complete."""

    witness: tuple[int, int]

    def __str__(self) -> str:
        u, v = self.witness
        return f"vertices {u} and {v} share a component but are not adjacent"


_TILE = 256


def _is_symmetric(a: np.ndarray) -> bool:
    """a == a.T, compared tile (i, j) against tile (j, i) transposed: every
    cell is read, and each tile pair fits in cache, unlike a strided a.T."""
    n, t = len(a), _TILE
    return all(np.array_equal(a[i:i + t, j:j + t], a[j:j + t, i:i + t].T)
               for i in range(0, n, t) for j in range(i, n, t))


def commuting_graph(ring: FiniteRing) -> SimpleGraph:
    """Graph on the non-central elements, joining commuting pairs."""
    if ring.is_commutative:
        raise CommutativeRing(f"{ring.name} is commutative; the commuting graph is empty")
    adj = ring.noncentral_commutes()
    np.fill_diagonal(adj, False)
    return SimpleGraph(len(adj), adj)


def second_neighborhood(g: SimpleGraph, v: int) -> set[int]:
    """Vertices within distance two of v, excluding v itself."""
    g.check_vertex(v)
    a = g.adjacency
    reach = a[v].copy()
    nbrs = np.flatnonzero(a[v])
    if nbrs.size:
        reach |= a[nbrs].any(axis=0)
    reach[v] = False
    return {int(u) for u in np.flatnonzero(reach)}


def delta2(g: SimpleGraph, v: int) -> int:
    """Sum of degrees over the second neighborhood of v."""
    deg = g.degrees()
    return sum(int(deg[u]) for u in second_neighborhood(g, v))


def delta2_all(g: SimpleGraph) -> np.ndarray:
    """delta2 for every vertex at once."""
    out = np.zeros(g.n, dtype=np.int64)
    for (block, comps), counts in zip(g.classes, g.common_neighbours):
        out[comps] = (block | (counts > 0)) @ block.sum(axis=1)
    return out


def connected_components(adjacency: np.ndarray) -> tuple[np.ndarray, ...]:
    """Components of a symmetric boolean array, as ascending index arrays
    ordered by smallest vertex."""
    n = len(adjacency)
    unseen = np.ones(n, dtype=bool)
    comps: list[np.ndarray] = []
    while unseen.any():
        mask = np.zeros(n, dtype=bool)
        mask[unseen.argmax()] = True  # the smallest vertex not yet placed
        frontier = mask.copy()
        while frontier.any():
            nxt = adjacency[frontier].any(axis=0) & ~mask
            mask |= nxt
            frontier = nxt
        unseen &= ~mask
        comps.append(np.flatnonzero(mask))
    return tuple(comps)


def _shared_neighbours(block: np.ndarray) -> np.ndarray:
    """Shared-neighbour counts of one adjacency block, zero on the diagonal."""
    a = block.astype(np.float64)
    counts = np.rint(a @ a).astype(np.int64)
    np.fill_diagonal(counts, 0)
    counts.setflags(write=False)
    return counts


def clique_decomposition(g: SimpleGraph) -> CliqueUnion | NotCliqueUnion:
    """Decompose into complete components, or witness why that fails in
    the first incomplete component, which is the first of its class."""
    for block, comps in g.classes:
        missing = ~(block | np.eye(len(block), dtype=bool))
        if missing.any():
            i, j = np.argwhere(missing)[0]
            return NotCliqueUnion((int(comps[0, i]), int(comps[0, j])))
    return CliqueUnion.of((len(block), len(comps)) for block, comps in g.classes)


def clique_union_graph(parts: CliqueUnion) -> SimpleGraph:
    """Concrete graph realizing a clique union, components in part order."""
    n = parts.n
    adj = np.zeros((n, n), dtype=bool)
    start = 0
    for m in parts.component_sizes():
        adj[start:start + m, start:start + m] = True
        start += m
    np.fill_diagonal(adj, False)
    return SimpleGraph(n, adj)


def to_edge_list_text(g: SimpleGraph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# The edge-list grammar: lines end at "\n", fields are split by ASCII
# whitespace.  _EDGE_LIST matches a well-formed list whose fields are
# decimals of at most 18 digits, so that every one of them fits int64.
_WS = r"[ \t\r\f\v]"
_ROW = rf"{_WS}*-?[0-9]{{1,18}}{_WS}+-?[0-9]{{1,18}}{_WS}*"
_EDGE_LIST = re.compile(rf"(?:{_WS}*\n)*{_ROW}(?:\n(?:{_ROW}|{_WS}*))*")
_FIELD = re.compile(r"[^ \t\r\f\v]+")


def _edge_pairs(edges) -> np.ndarray:
    """Edges as a (k, 2) array: int64, or object when an endpoint is a
    Python int beyond int64 (numpy would make those floats)."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
        if not edges:
            return np.empty((0, 2), dtype=np.int64)
    pairs = np.asarray(edges)
    if pairs.dtype.kind not in "iuO":
        pairs = np.array(edges, dtype=object)
    if pairs.dtype == object and not all(isinstance(x, (int, np.integer)) for x in pairs.flat):
        raise TypeError("edge endpoints must be integers")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be pairs, got an array of shape {pairs.shape}")
    return pairs


def _check_vertex_count(n: int) -> None:
    """Reject a header vertex count before anything is allocated for it.

    A commuting graph has fewer vertices than its ring has elements, so
    the ring-size cap bounds every graph this package produces.
    """
    cap = universe_cap()
    if not 0 <= n <= cap:
        raise GraphFormatError(
            f"vertex count {n} outside 0..{cap} (raise {ENV_UNIVERSE_CAP} to allow more)"
        )


def parse_edge_list_text(text: str) -> SimpleGraph:
    """Read the plain edge-list format.

    A line ends only at "\\n"; fields are separated by ASCII whitespace
    (space, tab, CR, FF, VT) and every other character belongs to a field.
    The first non-blank line is the header "n m", every later non-blank
    line one edge "u v", and each field an ASCII decimal integer.  A text
    that fits this grammar with fields of at most 18 digits, the common
    case, is checked by one regex and converted by one numpy call; any
    other text takes a line-by-line walk that names its first error.
    """
    fast = _EDGE_LIST.fullmatch(text) is not None
    tokens = text.split() if fast else _edge_list_fields(text)
    try:
        n, m = parse_decimal(tokens[0]), parse_decimal(tokens[1])
        _check_vertex_count(n)
        if fast:  # every token is a decimal of at most 18 digits, so fits int64
            pairs = np.array(tokens[2:], dtype=np.int64).reshape(-1, 2)
        else:  # Python ints, which may exceed int64 until range-checked
            pairs = np.array([parse_decimal(t) for t in tokens[2:]], dtype=object).reshape(-1, 2)
    except ValueError as exc:
        raise GraphFormatError(f"malformed edge list: {exc}") from None
    if len(pairs) != m:
        raise GraphFormatError(f"header announces {m} edges, found {len(pairs)}")
    _check_ascending_distinct(pairs)
    return SimpleGraph.from_edges(n, pairs)


def _edge_list_fields(text: str) -> list[str]:
    """Every field of an edge list, in order.  Raises the header error if
    the first non-blank line has not two fields, else the field-count error
    for the first non-blank line that has not."""
    rows = [(i, fields) for i, fields in enumerate(map(_FIELD.findall, text.split("\n")), 1)
            if fields]
    if not rows or len(rows[0][1]) != 2:
        raise GraphFormatError("edge list must start with a line: n m")
    for i, fields in rows:  # line numbers count blank lines
        if len(fields) != 2:
            raise GraphFormatError(
                f"malformed edge list: line {i} has {len(fields)} fields, expected 2")
    return [f for _, fields in rows for f in fields]


def _check_ascending_distinct(pairs: np.ndarray) -> None:
    """Reject the first edge in input order with u >= v or seen before."""
    u, v = pairs[:, 0], pairs[:, 1]
    bad = u >= v
    # lexsort is stable, so within a run of equal pairs every index but the
    # first is a repeat; it also sorts the object arrays of the slow path
    order = np.lexsort((v, u))
    ordered = pairs[order]
    repeats = order[1:][(ordered[1:] == ordered[:-1]).all(axis=1)]
    bad[repeats] = True
    if bad.any():
        i = int(bad.argmax())
        a, b = pairs[i]
        if not a < b:
            raise GraphFormatError(f"edges must satisfy u < v, got ({a}, {b})")
        raise GraphFormatError(f"duplicate edge ({a}, {b})")


def to_graph_json(g: SimpleGraph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def _is_json_int(x) -> bool:
    # JSON true and false load as Python bools, which are ints too
    return isinstance(x, int) and not isinstance(x, bool)


def parse_graph_json(text: str) -> SimpleGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid graph JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphFormatError("graph JSON must contain n and edges fields")
    n, edges = data["n"], data["edges"]
    if not _is_json_int(n):
        raise GraphFormatError(f"graph JSON n must be an integer, got {n!r}")
    _check_vertex_count(n)
    if not isinstance(edges, list):
        raise GraphFormatError(f"graph JSON edges must be a list, got {type(edges).__name__}")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_json_int, e))):
            raise GraphFormatError(f"graph JSON edge must be a pair of integers, got {e!r}")
        if not e[0] < e[1]:
            raise GraphFormatError(f"edges must satisfy u < v, got ({e[0]}, {e[1]})")
    edges = [tuple(e) for e in edges]
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edges in graph JSON")
    return SimpleGraph.from_edges(n, edges)


def load_graph(path: str | Path) -> SimpleGraph:
    """Read a graph file, JSON or plain edge list."""
    with open(path, newline="") as fh:  # untranslated, so a line ends only at \n
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_edge_list_text(text)


def save_graph(g: SimpleGraph, path: str | Path) -> None:
    """Write a graph file; .json extension selects the JSON format."""
    p = Path(path)
    if p.suffix == ".json":
        p.write_text(to_graph_json(g))
    else:
        p.write_text(to_edge_list_text(g))
