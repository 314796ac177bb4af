"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from msnring.graphs import SimpleGraph, clique_decomposition


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
