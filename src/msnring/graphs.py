"""Simple graphs, commuting graphs, and clique union structure.

A graph holds only its closed-twin census (SimpleGraph.census): a label
per vertex, equal on vertices with one closed neighbourhood, and the
quotient, the k x k class adjacency with a true diagonal.  A ring hands
its census over (FiniteRing.noncentral_classes, checked by from_census),
as elements that share a centralizer are closed twins; a graph made from
edges counts it once, from its packed closed rows (closed_twins).  The
n x n adjacency is rebuilt from the census only when read.  Components
come from the quotient (quotient_components): a class whose row is its
own unit vector is a complete component, and breadth-first search joins
the others.  They are grouped once into classes (SimpleGraph.classes),
each a twin form: a twin class per vertex and the census cut down to
those classes.  Shared neighbours, distance two and delta2 come from
k x k arithmetic on it (twin_counts).
The second neighborhood of a vertex is everything within distance two
but the vertex itself: so every vertex of a K_m component has
second-degree sum (m-1)^2, which the closed forms elsewhere in the
package rely on.
Graph files are plain edge lists, read by one line and field grammar
(parse_edge_list_text: array passes over the bytes and one np.fromstring
call when every field fits int64), or JSON; both end in
SimpleGraph.from_edges, which checks and places all the pairs as one
integer array.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ENV_UNIVERSE_CAP, parse_decimal, universe_cap
from .rings import FiniteRing, restricted, row_labels


class GraphError(Exception):
    pass


class CommutativeRing(GraphError):
    """Raised when a commuting graph would have an empty vertex set."""


class VertexOutOfRange(GraphError):
    pass


class GraphFormatError(GraphError):
    pass


class SimpleGraph:
    """Undirected graph on vertices 0..n-1, held as its closed-twin census
    (census): checked when given (from_census), counted when read from
    edges (from_edges).  The n x n adjacency is derived on first read."""

    def __init__(self, labels: np.ndarray, quotient: np.ndarray):
        """The graph of a census valid by construction, as closed_twins
        makes one; from_census checks one made elsewhere."""
        self.n, self.census = len(labels), (_read_only(labels), _read_only(quotient))

    @classmethod
    def from_census(cls, labels: np.ndarray, quotient: np.ndarray) -> "SimpleGraph":
        """The graph whose vertex v lies in class labels[v], the classes
        numbered first seen first, with u != v joined when
        quotient[labels[u], labels[v]]."""
        k, top = len(quotient), np.maximum.accumulate(np.append(-1, labels))
        if (quotient.shape != (k, k) or quotient.dtype != np.bool_
                or not np.diagonal(quotient).all() or (quotient != quotient.T).any()):
            raise GraphFormatError("class adjacency must be a symmetric boolean square array, "
                                   "true on its diagonal")
        if (labels.ndim != 1 or labels.dtype.kind not in "iu" or labels.min(initial=0) < 0
                or np.diff(top).max(initial=0) > 1 or top[-1] != k - 1):
            raise GraphFormatError(f"class labels must number 0..{k - 1} first seen first")
        return cls(labels, quotient)

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        """Graph on 0..n-1 from (u, v) pairs: a (k, 2) integer array or any
        iterable of integer pairs.  The first pair in input order that is out
        of range or a self-loop is reported.  The census is counted from the
        adjacency (closed_twins), which is not kept."""
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
        return cls(*closed_twins(adj))  # symmetric and loop-free by construction

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        """The read-only n x n adjacency, from the census: only writers
        and explicit readers ask for it."""
        return expanded(*self.census)

    @functools.cached_property
    def components(self) -> Components:
        """The connected components, labelled once per graph, on the quotient."""
        return quotient_components(*self.census)

    @functools.cached_property
    def classes(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The components grouped by twin form, first seen first, as
        read-only (labels, census, comps): a class per vertex and the
        census (_twin_census), and a (copies, size) array of components.
        A complete component is one class, so complete ones are grouped by
        size, the others by the bytes of their forms."""
        seen: dict[int | tuple[bytes, bytes], tuple] = {}
        labels, quotient = self.census
        comps = self.components
        for comp, complete in zip(comps, comps.complete):
            if complete:
                key = len(comp)
                if key not in seen:
                    seen[key] = (np.zeros(key, dtype=np.intp), np.ones((1, 1), dtype=bool), [])
            else:
                form = _twin_census(labels.take(comp), quotient)
                key = (form[0].tobytes(), form[1].tobytes())
                seen.setdefault(key, (*form, []))
            seen[key][2].append(comp)
        return tuple(tuple(map(_read_only, (labels, census, np.array(comps))))
                     for labels, census, comps in seen.values())

    @functools.cached_property
    def counts(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """twin_counts of each class, counted once per graph."""
        return tuple(twin_counts(labels, census) for labels, census, _ in self.classes)

    def edge_ends(self) -> list[int]:
        """u0, v0, u1, v1, ...: the edges u < v in ascending order, as one
        flat list of Python ints, made by one tolist call."""
        return np.argwhere(np.triu(self.adjacency, k=1)).ravel().tolist()

    def edges(self) -> list[tuple[int, int]]:
        ends = self.edge_ends()
        return list(zip(ends[::2], ends[1::2]))

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def expanded(labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The read-only block of a twin form, or the adjacency of a census:
    w at the labels, with the diagonal cleared."""
    block = w.take(labels, axis=0).take(labels, axis=1)
    np.fill_diagonal(block, 0)
    return _read_only(block)


def commuting_graph(ring: FiniteRing) -> SimpleGraph:
    """Graph on the non-central elements, joining commuting pairs, from
    the ring's centralizer classes: they are its closed twins."""
    if ring.is_commutative:
        raise CommutativeRing(f"{ring.name} is commutative; the commuting graph is empty")
    return SimpleGraph.from_census(*ring.noncentral_classes())


def twin_counts(labels: np.ndarray, census: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(adjacency, shared, delta2) of one class of SimpleGraph.classes:
    the twin forms of the adjacency and of the shared-neighbour counts,
    and delta2 per class, from its census A and class sizes s, with
    d = diag(A).  Vertices of classes i and j share
    (A s A^T)[i, j] - A[i, j] (d_i + d_j) neighbours, the pair itself left
    out; deg = A s - d; reach = A | (shared > 0) marks distance two, and
    delta2 = reach (s deg) - diag(reach) deg.  A singleton class has
    inner entry 0.  K_m, one class, has them in closed form.
    """
    if census.shape == (1, 1) and census[0, 0]:
        m = len(labels)
        return np.array([[int(m > 1)]]), np.array([[max(m - 2, 0)]]), np.array([(m - 1) ** 2])
    s = np.bincount(labels)
    a = census.astype(np.float64)  # every count is at most n^2, exact in float64
    d = a.diagonal()
    shared = (a * s) @ a.T
    shared -= a * (d[:, None] + d)
    deg = a @ s - d
    reach = census | (shared > 0)
    delta2 = reach @ (s * deg) - reach.diagonal() * deg
    shared.flat[::len(s) + 1] *= s > 1
    a.flat[::len(s) + 1] *= s > 1
    return (a.astype(np.int64), np.rint(shared).astype(np.int64),
            np.rint(delta2).astype(np.int64))


def delta2_all(g: SimpleGraph) -> np.ndarray:
    """delta2 of every vertex: the sum of the degrees of the vertices
    within distance two of it, itself excluded."""
    out = np.zeros(g.n, dtype=np.int64)
    for (labels, _, comps), (*_, delta2) in zip(g.classes, g.counts):
        out[comps] = delta2.take(labels)
    return out


class Components(tuple):
    """What quotient_components returns: a tuple of ascending index arrays
    ordered by smallest vertex, and complete, one flag per component
    telling whether it is a complete graph."""

    complete: tuple[bool, ...]

    def __new__(cls, comps=(), complete=()):
        self = super().__new__(cls, comps)
        self.complete = tuple(complete)
        return self


# Bit i of a packed byte, counted from the left as packbits does.
_BIT = np.uint8(128) >> np.arange(8, dtype=np.uint8)


def closed_twins(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The census of closed rows of a symmetric boolean array with a zero
    diagonal: the rows of adjacency | I, packed and labelled first seen
    first (row_labels), and the quotient, whether the first vertices of
    two classes are adjacent or equal."""
    vertices = np.arange(len(adjacency))
    closed = np.packbits(adjacency, axis=1)
    closed[vertices, vertices >> 3] |= _BIT[vertices & 7]
    labels, reps = row_labels(closed)
    quotient = adjacency.take(reps, axis=0).take(reps, axis=1)
    np.fill_diagonal(quotient, True)
    return labels, quotient


def quotient_components(labels: np.ndarray, quotient: np.ndarray) -> Components:
    """Components of the graph of a census (SimpleGraph.from_census), as
    ascending index arrays ordered by smallest vertex.  A class whose row
    of the quotient is its own unit vector is a complete component;
    breadth-first search on the quotient joins the others.  Each class is
    marked with the first class of its component, and labels are numbered
    first seen first, so the vertices sorted by mark fall into the
    components in order."""
    k = len(quotient)
    complete = np.count_nonzero(quotient, axis=1) == 1
    first = np.arange(k)
    for start in np.flatnonzero(~complete).tolist():
        if first[start] != start:
            continue  # joined from an earlier class
        reached = frontier = quotient[start].copy()
        while frontier.any():
            frontier = quotient[frontier].any(axis=0) & ~reached
            reached |= frontier
        first[reached] = start
    marks = first.take(labels)
    order = np.argsort(marks, kind="stable")
    roots = np.flatnonzero(first == np.arange(k))
    ends = np.cumsum(np.bincount(marks, minlength=k)[roots]).tolist()
    return Components([order[s:e] for s, e in zip([0] + ends, ends)], complete[roots].tolist())


def _twin_census(classes: np.ndarray, quotient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, census) of a connected component in the given closed-twin
    classes of quotient: the classes renumbered first seen first, the
    quotient cut down to them, and singletons with equal open rows merged
    into an open class, with a false diagonal entry (no open row equals a
    closed one, which holds its own class; classes with equal closed rows
    merge as closed twins).  Swapping two twins is an automorphism, which
    fixes delta2 and every shared-neighbour count: each class is a twin
    class of the msn and cn matrices too.
    """
    labels, census = restricted(classes, quotient)
    single = np.bincount(labels) == 1
    # singletons keyed by open rows, first seen first, as the classes
    merged, firsts = row_labels(np.packbits(census & ~np.diag(single), axis=1))
    if len(firsts) < len(census):
        census = census.take(firsts, axis=0).take(firsts, axis=1)
        opened = np.flatnonzero((np.bincount(merged) > 1) & single[firsts])
        census[opened, opened] = False
        labels = merged.take(labels)
    return labels, census


def clique_decomposition(g: SimpleGraph) -> CliqueUnion | NotCliqueUnion:
    """Decompose into complete components, or witness why that fails in
    the first incomplete component, which is the first of its class: its
    first vertex whose class misses a vertex, and the first it misses."""
    for labels, census, comps in g.classes:
        if not census.all():
            u = int(np.argmax(~census.all(axis=1).take(labels)))
            missed = ~census[labels[u]].take(labels)
            missed[u] = False
            return NotCliqueUnion((int(comps[0, u]), int(comps[0, missed.argmax()])))
    return CliqueUnion.of((len(labels), len(comps)) for labels, _, comps in g.classes)


def clique_union_graph(parts: CliqueUnion) -> SimpleGraph:
    """Concrete graph realizing a clique union, components in part order:
    each component is one class, joined to no other."""
    sizes = parts.component_sizes()
    return SimpleGraph.from_census(np.repeat(np.arange(len(sizes)), sizes),
                                   np.eye(len(sizes), dtype=bool))


def to_edge_list_text(g: SimpleGraph) -> str:
    ends = g.edge_ends()
    m = len(ends) // 2
    # one format call over the flat list, with no Python object per edge
    return f"{g.n} {m}\n" + "%d %d\n" * m % tuple(ends)


# The edge-list grammar: lines end at "\n", fields are split by ASCII
# whitespace.  _BYTE_KIND sorts the bytes of a text by their part in it:
# 0 a byte no field may hold, 1 a digit, 2 a minus sign, 3 whitespace
# inside a line, 4 a line end.  Fields of at most 18 digits fit int64.
_BYTE_KIND = np.zeros(256, dtype=np.uint8)
_BYTE_KIND[np.frombuffer(b"0123456789", dtype=np.uint8)] = 1
_BYTE_KIND[ord("-")] = 2
_BYTE_KIND[np.frombuffer(b" \t\r\f\v", dtype=np.uint8)] = 3
_BYTE_KIND[ord("\n")] = 4
_INT64_DIGITS = 18
_FIELD = re.compile(r"[^ \t\r\f\v]+")


def _is_int64_edge_list(text: str) -> bool:
    """Whether text is a well-formed edge list whose fields all fit int64:
    every line blank or two fields, some line not blank, and every field a
    minus sign or none then 1 to 18 ASCII digits.  Decided by a fixed
    number of array passes over its bytes, with no state kept per line."""
    if not text.isascii():
        return False
    kind = np.empty(len(text) + 2, dtype=np.uint8)
    kind[0] = kind[-1] = 4  # a line end before and after the text
    _BYTE_KIND.take(np.frombuffer(text.encode("ascii"), dtype=np.uint8), out=kind[1:-1])
    if kind.min() == 0:
        return False
    # the fields are the runs of digits and minus signs: their bounds are
    # their starts and ends, alternately
    field = kind < 3
    bounds = (field[1:] != field[:-1]).nonzero()[0]
    bounds += 1
    starts, ends = bounds[0::2], bounds[1::2]
    signed = kind[starts] == 2
    if len(starts) < 2 or text.count("-") != signed.sum():
        return False  # no header, or a minus sign inside a field
    # the largest byte kind in the gap after each field: whitespace (3)
    # after a line's first field, a line end (4) after its second
    gaps = np.maximum.reduceat(kind, ends)
    if not ((gaps[0::2] == 3).all() and (gaps[1::2] == 4).all()):
        return False
    digits = ends - starts
    digits -= signed
    return bool(digits.min() >= 1 and digits.max() <= _INT64_DIGITS)


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
    case, is checked by array passes over its bytes (_is_int64_edge_list)
    and converted by one np.fromstring call; any other text takes a
    line-by-line walk that names its first error.
    """
    fast = _is_int64_edge_list(text)
    tokens = text.split(maxsplit=2) if fast else _edge_list_fields(text)
    try:
        n, m = parse_decimal(tokens[0]), parse_decimal(tokens[1])
        _check_vertex_count(n)
        if fast:  # every field is a decimal of at most 18 digits, so fits int64
            pairs = np.fromstring(text, dtype=np.int64, sep=" ")[2:].reshape(-1, 2)
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
    """Reject the first edge in input order with u >= v or seen before,
    for both graph formats.  Pairs in strictly ascending order, as every
    written graph file has them, pass after one vectorised test."""
    u, v = pairs[:, 0], pairs[:, 1]
    bad = u >= v
    rising = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
    if rising.all() and not bad.any():
        return
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
    pairs = _edge_pairs(edges)
    _check_ascending_distinct(pairs)
    return SimpleGraph.from_edges(n, pairs)


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
