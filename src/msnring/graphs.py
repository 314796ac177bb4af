"""Simple graphs, commuting graphs, and clique union structure.

The second neighborhood of a vertex collects everything within distance
two: the neighbors together with the neighbors' neighbors, the vertex
itself excluded.  This is the convention under which every vertex of a
K_m component has second-degree sum (m-1)^2, which the closed forms
elsewhere in the package rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ENV_UNIVERSE_CAP, universe_cap
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
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise GraphFormatError(f"adjacency shape {a.shape} does not match n={self.n}")
        if a.dtype != np.bool_:
            raise GraphFormatError("adjacency must be boolean")
        if self.n and np.any(np.diagonal(a)):
            raise GraphFormatError("self-loops are not allowed")
        if not np.array_equal(a, a.T):
            raise GraphFormatError("adjacency must be symmetric")
        a.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "SimpleGraph":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            adj[u, v] = adj[v, u] = True
        return cls(n, adj, tuple(labels) if labels is not None else None)

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
        counts: dict[int, int] = {}
        for m in sizes:
            counts[int(m)] = counts.get(int(m), 0) + 1
        return cls(tuple(sorted(counts.items())))

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


def commuting_graph(ring: FiniteRing) -> SimpleGraph:
    """Graph on the non-central elements, joining commuting pairs."""
    commute = ring.table == ring.table.T
    central = np.all(commute, axis=1)
    vertices = np.flatnonzero(~central)
    if vertices.size == 0:
        raise CommutativeRing(f"{ring.name} is commutative; the commuting graph is empty")
    adj = commute[np.ix_(vertices, vertices)].copy()
    np.fill_diagonal(adj, False)
    labels = tuple(str(ring.coords(int(i))) for i in vertices)
    return SimpleGraph(len(vertices), adj, labels)


def _distance_two_mask(g: SimpleGraph) -> np.ndarray:
    a = g.adjacency
    paths = a.astype(np.float64) @ a.astype(np.float64)
    reach = a | (paths > 0.5)
    np.fill_diagonal(reach, False)
    return reach


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
    g.check_vertex(v)
    a = g.adjacency
    reach = a[v].copy()
    nbrs = np.flatnonzero(a[v])
    if nbrs.size:
        reach |= a[nbrs].any(axis=0)
    reach[v] = False
    return int(g.degrees()[reach].sum())


def delta2_all(g: SimpleGraph) -> np.ndarray:
    """delta2 for every vertex at once."""
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    reach = _distance_two_mask(g)
    deg = g.degrees().astype(np.float64)
    return np.rint(reach.astype(np.float64) @ deg).astype(np.int64)


def connected_components(g: SimpleGraph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest vertex."""
    a = g.adjacency
    seen = np.zeros(g.n, dtype=bool)
    comps: list[list[int]] = []
    for seed in range(g.n):
        if seen[seed]:
            continue
        mask = np.zeros(g.n, dtype=bool)
        mask[seed] = True
        frontier = mask.copy()
        while frontier.any():
            nxt = a[frontier].any(axis=0) & ~mask
            mask |= nxt
            frontier = nxt
        seen |= mask
        comps.append([int(i) for i in np.flatnonzero(mask)])
    return comps


def clique_decomposition(g: SimpleGraph) -> CliqueUnion | NotCliqueUnion:
    """Decompose into complete components, or witness why that fails."""
    sizes: list[int] = []
    for comp in connected_components(g):
        sub = g.adjacency[np.ix_(comp, comp)]
        expected_missing = len(comp)  # only the diagonal may be False
        if int(sub.sum()) != len(comp) * len(comp) - expected_missing:
            off = ~sub
            np.fill_diagonal(off, False)
            i, j = np.argwhere(off)[0]
            return NotCliqueUnion((comp[int(i)], comp[int(j)]))
        sizes.append(len(comp))
    return CliqueUnion.from_sizes(sizes)


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
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise GraphFormatError("edge list must start with a line: n m")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
        _check_vertex_count(n)
        edges = [(int(a), int(b)) for a, b in rows[1:]]
    except ValueError as exc:
        raise GraphFormatError(f"malformed edge list: {exc}") from None
    if len(edges) != m:
        raise GraphFormatError(f"header announces {m} edges, found {len(edges)}")
    seen = set()
    for u, v in edges:
        if not u < v:
            raise GraphFormatError(f"edges must satisfy u < v, got ({u}, {v})")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    return SimpleGraph.from_edges(n, edges)


def to_graph_json(g: SimpleGraph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def parse_graph_json(text: str) -> SimpleGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid graph JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphFormatError("graph JSON must contain n and edges fields")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphFormatError(f"graph JSON n must be an integer, got {n!r}")
    _check_vertex_count(n)
    edges = [(int(u), int(v)) for u, v in data["edges"]]
    for u, v in edges:
        if not u < v:
            raise GraphFormatError(f"edges must satisfy u < v, got ({u}, {v})")
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edges in graph JSON")
    return SimpleGraph.from_edges(n, edges)


def load_graph(path: str | Path) -> SimpleGraph:
    """Read a graph file, JSON or plain edge list."""
    text = Path(path).read_text()
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
