"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from msnring.graphs import SimpleGraph, clique_decomposition, expanded


def expanded_blocks(m) -> tuple:
    """Each form of an IntSymMatrix as its read-only n x n block, with its
    count, in order: the product code builds no such block to keep."""
    return tuple((expanded(*form), count) for form, count in m.forms)


def _same_graph(g: SimpleGraph, mask: np.ndarray) -> None:
    """g is the commuting graph of a ring whose commute mask is mask, on
    the non-central elements in index order: its components and their
    complete flags, its classes, its clique decomposition (with the
    NotCliqueUnion witness) and its adjacency equal those of the graph
    built from the mask.  g's adjacency must not be built before it is
    compared last."""
    noncentral = np.flatnonzero(~mask.all(axis=1))
    n = len(noncentral)
    want = SimpleGraph.from_edges(n, np.argwhere(np.triu(mask[np.ix_(noncentral, noncentral)], 1)))
    assert g.n == want.n
    assert [c.tolist() for c in g.components] == [c.tolist() for c in want.components]
    assert g.components.complete == want.components.complete
    assert len(g.classes) == len(want.classes)
    for got, wanted in zip(g.classes, want.classes):  # (labels, census, comps) each
        assert all(np.array_equal(a, b) for a, b in zip(got, wanted))
    assert clique_decomposition(g) == clique_decomposition(want)
    assert "adjacency" not in g.__dict__  # none of the above built it
    assert np.array_equal(g.adjacency, want.adjacency)
    assert not g.adjacency.flags.writeable


@pytest.fixture
def same_graph_as_mask():
    """_same_graph, for tests that hold a commute mask."""
    return _same_graph


def _multiply(ring, i: int, j: int) -> int:
    """The product of elements i and j, read apart from FiniteRing.rows: a
    direct product recurses into its factors by divmod, a table ring looks
    up its table, and a matrix ring places each element's coordinates at
    its free positions of a square matrix, multiplies them with @ mod m and
    reads the free positions back.  The product must vanish elsewhere."""
    if ring.factors:
        r, s = ring.factors
        (a, k), (b, l) = divmod(i, s.order), divmod(j, s.order)
        return _multiply(r, a, b) * s.order + _multiply(s, k, l)
    if ring.matrix is None:
        return int(ring.table[i, j])
    m, free = ring.matrix
    rows, cols = np.array(free).T
    dim = 1 + max(rows.max(), cols.max())
    x, y = np.zeros((2, dim, dim), dtype=np.int64)
    x[rows, cols] = np.unravel_index(i, ring.moduli)
    y[rows, cols] = np.unravel_index(j, ring.moduli)
    product = x @ y % m
    coords = product[rows, cols]
    product[rows, cols] = 0
    assert not product.any(), f"{ring.name}: a product leaves the free entries"
    return int(np.ravel_multi_index(coords, ring.moduli))


@pytest.fixture(scope="session")
def multiply():
    """The single-product oracle _multiply(ring, i, j)."""
    return _multiply
