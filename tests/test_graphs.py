"""Graph construction, second neighborhoods, and clique decomposition.

The distance-two neighborhood convention is inclusive: every vertex at
distance one or two counts.  The hand oracles below pin that down.
"""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msnring import graphs
from msnring.config import parse_decimal, universe_cap
from msnring.graphs import (
    CliqueUnion,
    CommutativeRing,
    GraphFormatError,
    NotCliqueUnion,
    SimpleGraph,
    VertexOutOfRange,
    clique_decomposition,
    clique_union_graph,
    closed_twins,
    commuting_graph,
    delta2_all,
    load_graph,
    parse_edge_list_text,
    quotient_components,
    parse_graph_json,
    save_graph,
    to_edge_list_text,
    to_graph_json,
)
from msnring.rings import matrix_ring_2x2, ring_noncomm_p2, upper_triangular_ring, zn


def path_graph(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def brute_second_neighborhood(g, v):
    near = set(np.flatnonzero(g.adjacency[v]).tolist())
    for u in list(near):
        near.update(np.flatnonzero(g.adjacency[u]).tolist())
    near.discard(v)
    return near


def brute_delta2(g, v):
    return sum(int(g.adjacency[u].sum()) for u in brute_second_neighborhood(g, v))


def test_second_neighborhood_path():
    g = path_graph(5)
    assert brute_second_neighborhood(g, 0) == {1, 2}
    assert brute_second_neighborhood(g, 2) == {0, 1, 3, 4}
    assert delta2_all(g).tolist() == [4, 5, 6, 5, 4]


def test_delta2_path3_hand_values():
    g = path_graph(3)
    # endpoints see both other vertices (degrees 2 and 1); the middle
    # vertex sees the two endpoints of degree 1 each
    assert [brute_delta2(g, v) for v in range(3)] == [3, 2, 3]
    assert delta2_all(g).tolist() == [3, 2, 3]


def test_delta2_complete_graph():
    for n in (2, 3, 6):
        g = complete_graph(n)
        assert delta2_all(g).tolist() == [(n - 1) ** 2] * n


def test_delta2_isolated_vertex():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    assert brute_second_neighborhood(g, 2) == set()
    assert delta2_all(g).tolist() == [1, 1, 0]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=9), st.data())
def test_delta2_matches_brute_force(n, data):
    edges = [e for e in itertools.combinations(range(n), 2)
             if data.draw(st.booleans())]
    g = SimpleGraph.from_edges(n, edges)
    assert delta2_all(g).tolist() == [brute_delta2(g, v) for v in range(n)]


def test_simple_graph_validation():
    # a census is checked: a quotient of the wrong shape, with a false
    # diagonal entry or asymmetric, is refused
    labels = np.array([0, 1])
    with pytest.raises(GraphFormatError):
        SimpleGraph.from_census(labels, np.ones((3, 2), dtype=bool))
    with pytest.raises(GraphFormatError):
        SimpleGraph.from_census(labels, np.array([[True, False], [False, False]]))
    with pytest.raises(GraphFormatError):
        SimpleGraph.from_census(labels, np.array([[True, True], [False, True]]))
    with pytest.raises(GraphFormatError):
        SimpleGraph.from_edges(2, [(0, 0)])
    with pytest.raises(VertexOutOfRange):
        SimpleGraph.from_edges(2, [(0, 5)])


def test_census_graph_is_its_classes_and_rejects_a_forged_quotient():
    labels = np.array([0, 1, 0, 2, 1])
    quotient = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
    g = SimpleGraph.from_census(labels, quotient)
    assert g.edges() == [(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 4)]
    assert [c.tolist() for c in g.components] == [[0, 1, 2, 4], [3]]
    assert g.components.complete == (False, True)  # [0] is not its own unit row
    assert clique_decomposition(g) == CliqueUnion.of([(1, 1), (4, 1)])
    # classes 0 and 1 have equal closed rows: one class of closed twins
    assert [(labels.tolist(), census.tolist()) for labels, census, _ in g.classes] == [
        ([0, 0, 0, 0], [[True]]), ([0], [[True]])]
    asymmetric, false_diagonal = quotient.copy(), quotient.copy()
    asymmetric[0, 2] = True
    false_diagonal[2, 2] = False
    for bad in (asymmetric, false_diagonal, quotient.astype(np.int64), quotient[:, :2]):
        with pytest.raises(GraphFormatError, match="^class adjacency must be a symmetric"):
            SimpleGraph.from_census(labels, bad)
    # labels out of first-seen order, out of range, or leaving a class
    # empty, which could join two components through no vertex
    for bad in ([1, 0, 1, 2, 0], [0, 1, 0, 3, 1], [0, -1, 0, 2, 1], [0, 0, 2, 2, 0]):
        with pytest.raises(GraphFormatError, match=r"class labels must number 0\.\.2"):
            SimpleGraph.from_census(np.array(bad), quotient)


def test_from_edges_reports_the_first_bad_pair_in_input_order():
    with pytest.raises(GraphFormatError, match="self-loop at vertex 0"):
        SimpleGraph.from_edges(2, [(0, 0), (0, 5)])
    with pytest.raises(VertexOutOfRange, match=r"edge \(0, 5\) outside 0\.\.1"):
        SimpleGraph.from_edges(2, [(0, 5), (0, 0)])
    # Python ints beyond int64 stay exact in the message; numpy alone would
    # have turned 2**63 into a float
    for big in (2 ** 63, 10 ** 24):
        with pytest.raises(VertexOutOfRange, match=rf"edge \(0, {big}\) outside"):
            SimpleGraph.from_edges(3, [(0, big)])
    with pytest.raises(TypeError):
        SimpleGraph.from_edges(3, [(0, 1.0)])


def test_from_edges_accepts_generators_and_arrays():
    assert SimpleGraph.from_edges(4, itertools.combinations(range(4), 2)).edge_count == 6
    assert SimpleGraph.from_edges(4, iter([])).edge_count == 0
    g = SimpleGraph.from_edges(4, np.array([[0, 3], [1, 2]], dtype=np.int64))
    assert g.edges() == [(0, 3), (1, 2)]


def components_of(adjacency):
    """The components of a boolean array, from its closed-twin census."""
    return quotient_components(*closed_twins(adjacency))


def form_block(labels, census):
    """The adjacency block a class's twin form stands for."""
    block = census[np.ix_(labels, labels)]
    np.fill_diagonal(block, False)
    return block


def test_connected_components():
    g = SimpleGraph.from_edges(6, [(0, 3), (3, 5), (1, 2)])
    assert [c.tolist() for c in components_of(g.adjacency)] == [[0, 3, 5], [1, 2], [4]]
    assert [c.tolist() for c in g.components] == [[0, 3, 5], [1, 2], [4]]
    assert g.components is g.components  # labelled once per graph


def union_find_components(adjacency):
    """Components by union-find over the edges, kept as an oracle: sorted
    vertex lists ordered by smallest vertex."""
    parent = list(range(len(adjacency)))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in np.argwhere(adjacency).tolist():
        parent[root(u)] = root(v)
    comps = {}
    for x in range(len(adjacency)):
        comps.setdefault(root(x), []).append(x)
    return sorted(comps.values())


@st.composite
def planted_graphs(draw):
    """Disjoint pieces, relabelled: cliques, cliques missing one edge,
    cliques with a pendant vertex, K1 and K2 parts and random pieces.
    No pieces at all gives n = 0."""
    edges, n = [], 0
    for kind, size in draw(st.lists(st.tuples(
            st.sampled_from(["clique", "missing", "pendant", "random"]), st.integers(1, 7)),
            max_size=6)):
        piece = list(itertools.combinations(range(size), 2))
        if kind == "missing" and piece:
            piece.pop(draw(st.integers(0, len(piece) - 1)))
        elif kind == "pendant":
            piece.append((draw(st.integers(0, size - 1)), size))
            size += 1
        elif kind == "random":
            piece = [e for e in piece if draw(st.booleans())]
        edges += [(u + n, v + n) for u, v in piece]
        n += size
    perm = draw(st.permutations(range(n)))
    return SimpleGraph.from_edges(n, [tuple(sorted((perm[u], perm[v]))) for u, v in edges])


@settings(deadline=None, max_examples=200)
@given(planted_graphs())
@example(SimpleGraph.from_edges(0, []))
@example(SimpleGraph.from_edges(1, []))
@example(SimpleGraph.from_edges(2, []))
@example(SimpleGraph.from_edges(3, []))
@example(SimpleGraph.from_edges(9, []))
@example(complete_graph(2))
@example(complete_graph(3))
@example(complete_graph(9))
def test_connected_components_match_union_find(g):
    # the components of an adjacency's closed-twin census, and of the graph
    comps = components_of(g.adjacency)
    assert [c.tolist() for c in g.components] == [c.tolist() for c in comps]
    assert [c.tolist() for c in comps] == union_find_components(g.adjacency)
    assert all(c.dtype.kind == "i" for c in comps)
    # the census flags exactly the complete components
    assert comps.complete == tuple(
        bool(g.adjacency[np.ix_(c, c)].sum() == len(c) * (len(c) - 1)) for c in comps)
    for labels, census, members in g.classes:
        for comp in members:
            assert np.array_equal(g.adjacency[np.ix_(comp, comp)], form_block(labels, census))
    assert sorted(c for *_, members in g.classes for c in members[:, 0].tolist()) == \
        [c[0] for c in union_find_components(g.adjacency)]


def test_complete_components_share_one_class_per_size():
    g = clique_union_graph(CliqueUnion(((1, 3), (2, 2), (5, 2))))
    assert g.components.complete == (True,) * 7
    # each one class of closed twins
    assert [(labels.tolist(), census.tolist(), members.tolist())
            for labels, census, members in g.classes] == [
        ([0], [[True]], [[0], [1], [2]]),
        ([0, 0], [[True]], [[3, 4], [5, 6]]),
        ([0] * 5, [[True]], [list(range(7, 12)), list(range(12, 17))])]
    assert all(not a.flags.writeable for triple in g.classes for a in triple)
    assert components_of(np.zeros((0, 0), dtype=bool)) == ()


def test_twins_one_census_per_class():
    # classes, first seen first: K_1 (0), K_3 (1 2 3), the path 4-5-6-7
    # (twin-free), the star centred at 8 (its leaves open twins) and the
    # diamond 12..15 without the edge 12-15 (13 and 14 closed twins, 12
    # and 15 open twins)
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7), (8, 9), (8, 10), (8, 11),
             (12, 13), (12, 14), (13, 14), (13, 15), (14, 15)]
    g = SimpleGraph.from_edges(16, edges)
    assert len(g.classes) == 5
    classes = []
    for labels, _, _ in g.classes:
        seen = {}
        for v, label in enumerate(labels.tolist()):
            seen.setdefault(label, []).append(v)
        classes.append(sorted(seen.values()))
    assert classes == [[[0]], [[0, 1, 2]], [[0], [1], [2], [3]], [[0], [1, 2, 3]],
                       [[0, 3], [1, 2]]]
    # labels first seen first; open classes have a false diagonal entry
    assert [labels.tolist() for labels, _, _ in g.classes[2:]] == [
        [0, 1, 2, 3], [0, 1, 1, 1], [0, 1, 1, 0]]
    assert [census.diagonal().tolist() for _, census, _ in g.classes] == [
        [True], [True], [True] * 4, [True, False], [False, True]]
    assert all(not a.flags.writeable for triple in g.classes for a in triple[:2])


def brute_decomposition(g):
    comps = union_find_components(g.adjacency)
    for comp in comps:
        for u, v in itertools.combinations(comp, 2):
            if not g.adjacency[u, v]:
                return None
    return sorted(len(c) for c in comps)


def test_clique_decomposition_matches_brute_force():
    cases = [
        SimpleGraph.from_edges(4, [(0, 1), (2, 3)]),
        path_graph(4),
        complete_graph(5),
        SimpleGraph.from_edges(3, []),
        SimpleGraph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6)]),
    ]
    for g in cases:
        want = brute_decomposition(g)
        got = clique_decomposition(g)
        if want is None:
            assert isinstance(got, NotCliqueUnion)
            u, v = got.witness
            assert not g.adjacency[u, v]
        else:
            assert isinstance(got, CliqueUnion)
            assert sorted(got.component_sizes()) == want


def per_component_decomposition(g):
    """clique_decomposition as one loop over g.components, kept as an oracle."""
    sizes = []
    for comp in g.components:
        sub = g.adjacency[np.ix_(comp, comp)]
        if int(sub.sum()) != len(comp) * (len(comp) - 1):
            off = ~sub
            np.fill_diagonal(off, False)
            i, j = np.argwhere(off)[0]
            return NotCliqueUnion((int(comp[i]), int(comp[j])))
        sizes.append(len(comp))
    return CliqueUnion.of((m, 1) for m in sizes)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4),
                          st.booleans()), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
def test_clique_decomposition_per_class_matches_per_component(pieces, perm_seed):
    # each piece a complete graph or a random one, repeated, then relabelled
    edges, n = [], 0
    for seed, size, copies, complete in pieces:
        rng = np.random.default_rng(seed)
        piece = [(u, v) for u, v in itertools.combinations(range(size), 2)
                 if complete or rng.random() < 0.6]
        for _ in range(copies):
            edges += [(u + n, v + n) for u, v in piece]
            n += size
    perm = np.random.default_rng(perm_seed).permutation(n)
    g = SimpleGraph.from_edges(n, [tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in edges])
    assert clique_decomposition(g) == per_component_decomposition(g)
    assert sum(len(comps) for *_, comps in g.classes) == len(g.components)
    for labels, census, comps in g.classes:
        for comp in comps:
            assert np.array_equal(g.adjacency[np.ix_(comp, comp)], form_block(labels, census))


def test_clique_union_normalization():
    parts = CliqueUnion.of([(3, 1), (2, 2), (3, 0), (2, 1)])
    assert parts.parts == ((2, 3), (3, 1))
    assert parts.n == 9
    assert str(parts) == "3K2 + 1K3"
    assert CliqueUnion.of([(4, 1), (2, 1), (4, 1)]).parts == ((2, 1), (4, 2))
    with pytest.raises(ValueError):
        CliqueUnion(((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        CliqueUnion(((0, 1),))


def test_clique_union_graph_round_trip():
    parts = CliqueUnion.of([(1, 2), (3, 2), (4, 1)])
    g = clique_union_graph(parts)
    assert g.n == parts.n
    assert clique_decomposition(g) == parts


def test_commuting_graph_ut2():
    g = commuting_graph(upper_triangular_ring(2))
    assert g.n == 6
    assert clique_decomposition(g) == CliqueUnion.of([(2, 3)])


def test_commuting_graph_brute_force_edges(multiply):
    ring = matrix_ring_2x2(2)
    g = commuting_graph(ring)
    noncentral = [x for x in range(ring.order)
                  if any(multiply(ring, x, y) != multiply(ring, y, x)
                         for y in range(ring.order))]
    assert g.n == len(noncentral) == 14
    for a, b in itertools.combinations(range(g.n), 2):
        x, y = noncentral[a], noncentral[b]
        assert g.adjacency[a, b] == (multiply(ring, x, y) == multiply(ring, y, x))


def test_commuting_graph_of_commutative_ring_raises():
    with pytest.raises(CommutativeRing):
        commuting_graph(zn(9))


def test_commuting_graph_nc_p2_isolated():
    g = commuting_graph(ring_noncomm_p2(2))
    assert g.n == 3
    assert g.edge_count == 0


def test_edge_list_round_trip():
    g = SimpleGraph.from_edges(5, [(0, 2), (1, 4), (2, 3)])
    text = to_edge_list_text(g)
    back = parse_edge_list_text(text)
    assert back.n == g.n
    assert np.array_equal(back.adjacency, g.adjacency)


def reference_edges(g):
    """SimpleGraph.edges as an int pair per edge of np.nonzero: the reference."""
    us, vs = np.nonzero(np.triu(g.adjacency, k=1))
    return [(int(u), int(v)) for u, v in zip(us, vs)]


@settings(deadline=None, max_examples=60)
@given(planted_graphs())
def test_edges_and_edge_list_text_match_the_edge_by_edge_reference(g):
    edges = reference_edges(g)
    got = g.edges()
    assert got == edges
    assert all(type(u) is int and type(v) is int for u, v in got)
    lines = [f"{g.n} {g.edge_count}", *(f"{u} {v}" for u, v in edges)]
    assert to_edge_list_text(g) == "\n".join(lines) + "\n"


def test_edge_list_rejects_malformed():
    with pytest.raises(GraphFormatError):
        parse_edge_list_text("2 1\n1 0\n")  # u >= v
    with pytest.raises(GraphFormatError):
        parse_edge_list_text("2 2\n0 1\n")  # count mismatch
    with pytest.raises(GraphFormatError):
        parse_edge_list_text("3 2\n0 1\n0 1\n")  # duplicate


@pytest.mark.parametrize("fmt", ["edge list", "json"])
@pytest.mark.parametrize("edges, message", [
    ([(1, 0)], "edges must satisfy u < v, got (1, 0)"),
    ([(2, 2)], "edges must satisfy u < v, got (2, 2)"),
    ([(0, 1), (1, 2), (0, 1)], "duplicate edge (0, 1)"),
    ([(0, 1), (2 ** 64, 1)], f"edges must satisfy u < v, got ({2 ** 64}, 1)"),
])
def test_both_graph_formats_reject_bad_pairs_alike(fmt, edges, message):
    if fmt == "json":
        parse, text = parse_graph_json, json.dumps({"n": 3, "edges": edges})
    else:
        parse = parse_edge_list_text
        text = "".join(f"{u} {v}\n" for u, v in [(3, len(edges)), *edges])
    with pytest.raises(GraphFormatError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("text", [
    "2 1\n0 \u0661\n",  # Arabic-Indic digit one
    "2 1\n0 +1\n", "\uff12 1\n0 1\n", "2 1_0\n", "1_0 0\n", "2 1\n0 1.0\n",
])
def test_edge_list_rejects_non_ascii_decimal_integers(text):
    # int() would have read each of these as a number
    with pytest.raises(GraphFormatError, match="invalid decimal integer"):
        parse_edge_list_text(text)


def reference_parse_edge_list_text(text):
    """The edge-list reader before the whole-text check, kept as an oracle:
    str.splitlines and str.split, one parse_decimal per token and one
    Python pass per edge.  Returns the adjacency."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise GraphFormatError("edge list must start with a line: n m")
    if set(map(len, rows)) != {2}:
        i, fields = next((i, f) for i, f in enumerate(map(str.split, text.splitlines()), 1)
                         if f and len(f) != 2)
        raise GraphFormatError(
            f"malformed edge list: line {i} has {len(fields)} fields, expected 2")
    try:
        n, m = parse_decimal(rows[0][0]), parse_decimal(rows[0][1])
        cap = universe_cap()
        if not 0 <= n <= cap:
            raise GraphFormatError(
                f"vertex count {n} outside 0..{cap} (raise MSNRING_UNIVERSE_CAP to allow more)")
        edges = [(parse_decimal(a), parse_decimal(b)) for a, b in rows[1:]]
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
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        adj[u, v] = adj[v, u] = True
    return adj


# Tokens on which both readers agree: the new grammar differs only in which
# whitespace characters split lines and fields, and none is drawn here.
ODD_TOKENS = ["-1", "-0", "7", "10", str(10 ** 18 - 1), str(10 ** 18), str(2 ** 63), "9" * 19,
              str(10 ** 24), "-" + str(10 ** 24), "0" * 20 + "1",
              "x", "1_0", "+1", "1.0", "\u0661", "\uff11",
              "-" + "9" * 18, "-" + "9" * 19, "0" * 17 + "1", "0" * 18 + "1", "-" + "0" * 18,
              "007", "-00", "--1", "1-", "-"]


@st.composite
def edge_list_texts(draw):
    """A valid edge list, then mutations of its edges, header and field
    counts, then a random layout: blank lines, CRLF, leading and trailing
    whitespace."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    if draw(st.booleans()):  # ascending, as written edge lists are
        edges.sort()
    edges = [[str(u), str(v)] for u, v in edges]
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        i = draw(st.integers(0, len(edges) - 1))
        kind = draw(st.sampled_from(["swap", "duplicate", "reorder", "token"]))
        if kind == "swap":
            edges[i] = edges[i][::-1]
        elif kind == "duplicate":
            edges.insert(draw(st.integers(i + 1, len(edges))), list(edges[i]))
        elif kind == "reorder":
            edges.insert(draw(st.integers(0, len(edges) - 1)), edges.pop(i))
        else:
            edges[i][draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_TOKENS))
    header = [str(n), str(len(edges))]
    kind = draw(st.sampled_from(["keep", "keep", "token", "count"]))
    if kind == "token":
        header[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_TOKENS))
    elif kind == "count":
        header[1] = str(len(edges) + draw(st.sampled_from([-1, 1])))
    rows = [header] + edges
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[i].append(draw(st.sampled_from(["0", "1", "x"])))
        elif rows[i]:
            rows[i].pop()
    space = st.sampled_from([" ", "\t", "  ", " \t"])
    pad = st.sampled_from(["", " ", "\t"])
    lines = []
    for fields in rows:
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))  # a blank line
        sep = draw(space)
        lines.append(draw(pad) + sep.join(fields) + draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def parse_outcome(parse, text):
    """The adjacency as nested lists, or the exception's type and message."""
    try:
        return "ok", parse(text).tolist()
    except (GraphFormatError, VertexOutOfRange) as exc:
        return type(exc), str(exc)


def parsed_adjacency(text):
    return parse_edge_list_text(text).adjacency


@settings(deadline=None, max_examples=400)
@given(edge_list_texts())
def test_edge_list_parser_matches_line_by_line_reference(text):
    assert parse_outcome(parsed_adjacency, text) == \
        parse_outcome(reference_parse_edge_list_text, text)


# The whole-text regex the reader once checked its fast path with, kept as
# the reference for _is_int64_edge_list: a well-formed list whose fields
# are decimals of at most 18 digits.  Python's re keeps backtracking state
# for every repeated line, so it cannot run on large files.
_WS = r"[ \t\r\f\v]"
_ROW = rf"{_WS}*-?[0-9]{{1,18}}{_WS}+-?[0-9]{{1,18}}{_WS}*"
REFERENCE_EDGE_LIST = re.compile(rf"(?:{_WS}*\n)*{_ROW}(?:\n(?:{_ROW}|{_WS}*))*")


@settings(deadline=None, max_examples=500)
@given(st.one_of(
    edge_list_texts(),
    st.lists(st.sampled_from(["0", "1", "9", "-", " ", "\t", "\r", "\f", "\v", "\n", "x",
                              "\x1c", "\xa0", "\u0661", "9" * 17, "1" * 18]),
             max_size=16).map("".join)))
def test_int64_grammar_check_matches_the_reference_regex(text):
    assert graphs._is_int64_edge_list(text) == \
        (REFERENCE_EDGE_LIST.fullmatch(text) is not None)


def test_edge_list_parser_error_order_on_fixed_cases():
    cases = [
        "", "\n \n", "3\n0 1\n", "3 1 0\n", "x 1\n0 1\n", "3 1\n0 1\n2\n",
        "99999 1\n0 x\n", "3 x\n0 1\n", "3 1\n0 x\n", "3 2\n0 1\n",
        "3 3\n0 1\n0 1\n2 1\n", "3 3\n2 1\n0 1\n0 1\n", "3 2\n0 5\n0 5\n",
        "3 2\n0 5\n1 0\n", "3 2\n0 1\n0 -1\n", f"3 1\n0 {10 ** 24}\n",
        f"3 1\n{10 ** 24} 0\n", f"{10 ** 24} 0\n", f"3 {10 ** 24}\n",
        "3 1\n0 " + "0" * 30 + "2\n",
        "3 2\n1 2\n0 1\n", "3 3\n0 1\n0 2\n0 1\n", "3 2\n0 2\n0 2\n",
        "3 1\n-0 " + "0" * 17 + "2\n", "3 1\n0 " + "0" * 18 + "2\n",
        f"3 1\n{10 ** 18 - 1} 0\n", f"3 1\n0 {10 ** 18 - 1}\n", f"3 1\n-{10 ** 18 - 1} 0\n",
    ]
    for text in cases:
        assert parse_outcome(parsed_adjacency, text) == \
            parse_outcome(reference_parse_edge_list_text, text), text


def test_valid_edge_list_converts_edges_without_parse_decimal(monkeypatch):
    import msnring.graphs as graphs
    calls = []

    def counted(text):
        calls.append(text)
        return parse_decimal(text)

    monkeypatch.setattr(graphs, "parse_decimal", counted)
    g = parse_edge_list_text(to_edge_list_text(complete_graph(12)))
    assert g.edge_count == 66
    assert calls == ["12", "66"]  # the header only


@pytest.mark.parametrize("sep", [" ", "\t", "\r", "\f", "\v", " \f\v "])
def test_edge_list_fields_split_at_ascii_whitespace_only(sep):
    # form feed and vertical tab used to break the line, and a lone CR too
    g = parse_edge_list_text(f"3 2\n0{sep}1\n1 2\n")
    assert g.edges() == [(0, 1), (1, 2)]


def test_edge_list_form_feed_is_not_a_line_break():
    with pytest.raises(GraphFormatError, match="line 2 has 3 fields, expected 2"):
        parse_edge_list_text("3 1\n0\x0c1 2\n")


@pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                                  "\u2028", "\u2029", "\u3000"])
def test_edge_list_non_ascii_whitespace_is_part_of_a_field(char):
    # str.split and str.splitlines treat each of these as a separator
    with pytest.raises(GraphFormatError, match="invalid decimal integer"):
        parse_edge_list_text(f"3 1\n0 {char}1\n")
    with pytest.raises(GraphFormatError, match="line 2 has 1 fields, expected 2"):
        parse_edge_list_text(f"3 1\n0{char}1\n")


def test_edge_list_files_keep_their_line_ends(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"3 2\r\n0 1\r\n\r\n1 2\r\n")  # CRLF still loads
    assert load_graph(path).edges() == [(0, 1), (1, 2)]
    path.write_bytes(b"3 1\n0\r1\n")  # a lone CR separates fields
    assert load_graph(path).edges() == [(0, 1)]
    path.write_bytes(b"3 1\r0 1\r")  # and does not end a line
    with pytest.raises(GraphFormatError, match="must start with a line"):
        load_graph(path)


def test_graph_files_capped_before_allocation(monkeypatch):
    monkeypatch.setenv("MSNRING_UNIVERSE_CAP", "10")
    assert parse_edge_list_text("10 1\n0 9\n").n == 10
    assert parse_graph_json('{"n": 10, "edges": []}').n == 10
    # headers far beyond the cap fail before an n x n array could be made
    for n in (11, -1, 10**12):
        with pytest.raises(GraphFormatError, match="vertex count"):
            parse_edge_list_text(f"{n} 0\n")
        with pytest.raises(GraphFormatError, match="vertex count"):
            parse_graph_json(f'{{"n": {n}, "edges": []}}')
    for bad in ('"10"', "10.0", "true", "null"):
        with pytest.raises(GraphFormatError, match="integer"):
            parse_graph_json(f'{{"n": {bad}, "edges": []}}')


@pytest.mark.parametrize("edges", [
    "[[0.7, 1.2]]", "[[0, 1.0]]", "[[true, 2]]", "[[null, 1]]", '[[0, "1"]]',
    "[[0, 1, 2]]", "[[0]]", "[0]", '"0 1"', "{}", "null",
])
def test_graph_json_rejects_non_integer_edges(edges):
    # each of these used to load coerced by int() or to raise a TypeError
    with pytest.raises(GraphFormatError, match="edge"):
        parse_graph_json(f'{{"n": 3, "edges": {edges}}}')


def test_graph_json_round_trip(tmp_path):
    g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    back = parse_graph_json(to_graph_json(g))
    assert np.array_equal(back.adjacency, g.adjacency)

    for name in ("g.json", "g.txt"):
        path = tmp_path / name
        save_graph(g, path)
        loaded = load_graph(path)
        assert np.array_equal(loaded.adjacency, g.adjacency)
