"""Graph construction, second neighborhoods, and clique decomposition.

The distance-two neighborhood convention is inclusive: every vertex at
distance one or two counts.  The hand oracles below pin that down.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnring.graphs import (
    CliqueUnion,
    CommutativeRing,
    GraphFormatError,
    NotCliqueUnion,
    SimpleGraph,
    VertexOutOfRange,
    clique_decomposition,
    clique_union_graph,
    commuting_graph,
    connected_components,
    delta2,
    delta2_all,
    load_graph,
    parse_edge_list_text,
    parse_graph_json,
    save_graph,
    second_neighborhood,
    to_edge_list_text,
    to_graph_json,
)
from msnring.rings import matrix_ring_2x2, ring_noncomm_p2, upper_triangular_ring, zn


def path_graph(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def brute_second_neighborhood(g, v):
    near = set(g.neighbors(v))
    for u in list(near):
        near.update(g.neighbors(u))
    near.discard(v)
    return near


def brute_delta2(g, v):
    return sum(g.degree(u) for u in brute_second_neighborhood(g, v))


def test_second_neighborhood_path():
    g = path_graph(5)
    assert second_neighborhood(g, 0) == {1, 2}
    assert second_neighborhood(g, 2) == {0, 1, 3, 4}


def test_delta2_path3_hand_values():
    g = path_graph(3)
    # endpoints see both other vertices (degrees 2 and 1); the middle
    # vertex sees the two endpoints of degree 1 each
    assert [delta2(g, v) for v in range(3)] == [3, 2, 3]
    assert delta2_all(g).tolist() == [3, 2, 3]


def test_delta2_complete_graph():
    for n in (2, 3, 6):
        g = complete_graph(n)
        assert delta2_all(g).tolist() == [(n - 1) ** 2] * n


def test_delta2_isolated_vertex():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    assert second_neighborhood(g, 2) == set()
    assert delta2(g, 2) == 0


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=9), st.data())
def test_delta2_matches_brute_force(n, data):
    edges = [e for e in itertools.combinations(range(n), 2)
             if data.draw(st.booleans())]
    g = SimpleGraph.from_edges(n, edges)
    for v in range(n):
        assert second_neighborhood(g, v) == brute_second_neighborhood(g, v)
        assert delta2(g, v) == brute_delta2(g, v)
    assert delta2_all(g).tolist() == [brute_delta2(g, v) for v in range(n)]


def test_simple_graph_validation():
    with pytest.raises(GraphFormatError):
        SimpleGraph(2, np.zeros((3, 3), dtype=bool))
    loop = np.zeros((2, 2), dtype=bool)
    loop[0, 0] = True
    with pytest.raises(GraphFormatError):
        SimpleGraph(2, loop)
    asym = np.zeros((2, 2), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(GraphFormatError):
        SimpleGraph(2, asym)
    with pytest.raises(GraphFormatError):
        SimpleGraph.from_edges(2, [(0, 0)])
    with pytest.raises(VertexOutOfRange):
        SimpleGraph.from_edges(2, [(0, 5)])


def test_connected_components():
    g = SimpleGraph.from_edges(6, [(0, 3), (3, 5), (1, 2)])
    assert [c.tolist() for c in connected_components(g.adjacency)] == [[0, 3, 5], [1, 2], [4]]
    assert [c.tolist() for c in g.components] == [[0, 3, 5], [1, 2], [4]]
    assert g.components is g.components  # labelled once per graph


def brute_decomposition(g):
    comps = connected_components(g.adjacency)
    for comp in comps:
        for u, v in itertools.combinations(comp, 2):
            if not g.has_edge(u, v):
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
            assert not g.has_edge(u, v)
        else:
            assert isinstance(got, CliqueUnion)
            assert sorted(got.component_sizes()) == want


def test_clique_union_normalization():
    parts = CliqueUnion.of([(3, 1), (2, 2), (3, 0), (2, 1)])
    assert parts.parts == ((2, 3), (3, 1))
    assert parts.n == 9
    assert str(parts) == "3K2 + 1K3"
    assert CliqueUnion.from_sizes([4, 2, 4]).parts == ((2, 1), (4, 2))
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


def test_commuting_graph_brute_force_edges():
    ring = matrix_ring_2x2(2)
    g = commuting_graph(ring)
    noncentral = [x for x in range(ring.order)
                  if any(ring.multiply(x, y) != ring.multiply(y, x)
                         for y in range(ring.order))]
    assert g.n == len(noncentral) == 14
    for a, b in itertools.combinations(range(g.n), 2):
        x, y = noncentral[a], noncentral[b]
        assert g.has_edge(a, b) == (ring.multiply(x, y) == ring.multiply(y, x))


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


def test_edge_list_rejects_malformed():
    with pytest.raises(GraphFormatError):
        parse_edge_list_text("2 1\n1 0\n")  # u >= v
    with pytest.raises(GraphFormatError):
        parse_edge_list_text("2 2\n0 1\n")  # count mismatch
    with pytest.raises(GraphFormatError):
        parse_edge_list_text("3 2\n0 1\n0 1\n")  # duplicate


@pytest.mark.parametrize("text", [
    "2 1\n0 \u0661\n",  # Arabic-Indic digit one
    "2 1\n0 +1\n", "\uff12 1\n0 1\n", "2 1_0\n", "1_0 0\n", "2 1\n0 1.0\n",
])
def test_edge_list_rejects_non_ascii_decimal_integers(text):
    # int() would have read each of these as a number
    with pytest.raises(GraphFormatError, match="invalid decimal integer"):
        parse_edge_list_text(text)


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
