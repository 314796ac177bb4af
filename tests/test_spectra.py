"""Neighborhood matrices, exact spectra, and the numeric cross-check."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnring.graphs import CliqueUnion, SimpleGraph, clique_union_graph, connected_components
from msnring.spectra import (
    EnergyReport,
    ExactCapExceeded,
    IntSymMatrix,
    NotFullyIntegral,
    SpectraError,
    SpectrumMultiset,
    classify,
    cn_matrix,
    exact_spectrum,
    msn_matrix,
    numeric_spectrum,
    spectra_agree,
)


def path_graph(n):
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return SimpleGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(seed, n, p=0.4):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def brute_delta2(g, v):
    reach = set(g.neighbors(v))
    for u in list(reach):
        reach.update(g.neighbors(u))
    reach.discard(v)
    return sum(g.degree(u) for u in reach)


def brute_msn(g):
    m = np.zeros((g.n, g.n), dtype=np.int64)
    d2 = [brute_delta2(g, v) for v in range(g.n)]
    for u, v in g.edges():
        m[u, v] = m[v, u] = min(d2[u], d2[v])
    return m


def brute_cn(g):
    m = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = len(set(g.neighbors(u)) & set(g.neighbors(v)))
            m[u, v] = m[v, u] = common
    return m


# --- matrices ---


def test_msn_matrix_path3():
    m = msn_matrix(path_graph(3))
    assert m.values.tolist() == [[0, 2, 0], [2, 0, 2], [0, 2, 0]]


def test_msn_matrix_complete():
    m = msn_matrix(complete_graph(4))
    expected = 9 * (np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    assert np.array_equal(m.values, expected)


def test_cn_matrix_hand_values():
    assert cn_matrix(path_graph(3)).values.tolist() == [
        [0, 0, 1],
        [0, 0, 0],
        [1, 0, 0],
    ]
    k5 = cn_matrix(complete_graph(5))
    expected = 3 * (np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    assert np.array_equal(k5.values, expected)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_matrices_match_brute_force(seed, n):
    g = random_graph(seed, n)
    assert np.array_equal(msn_matrix(g).values, brute_msn(g))
    assert np.array_equal(cn_matrix(g).values, brute_cn(g))


def test_int_sym_matrix_validation():
    with pytest.raises(SpectraError):
        IntSymMatrix(np.zeros((2, 3), dtype=int))
    with pytest.raises(SpectraError):
        IntSymMatrix(np.zeros((2, 2)))  # float dtype
    with pytest.raises(SpectraError):
        IntSymMatrix(np.array([[1, 0], [0, 0]]))  # diagonal
    with pytest.raises(SpectraError):
        IntSymMatrix(np.array([[0, 1], [2, 0]]))  # asymmetric
    with pytest.raises(SpectraError):
        IntSymMatrix(np.array([[0, -1], [-1, 0]]))  # negative
    m = IntSymMatrix(np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        m.values[0, 1] = 5  # read-only


# --- exact spectra ---


def test_exact_spectrum_complete4():
    s = exact_spectrum(msn_matrix(complete_graph(4)))
    assert isinstance(s, SpectrumMultiset)
    assert s.exact and s.pairs == ((-9, 3), (27, 1))
    assert s.energy() == 54


def test_exact_spectrum_seven_edges():
    g = clique_union_graph(CliqueUnion(((2, 7),)))
    s = exact_spectrum(msn_matrix(g))
    assert s.pairs == ((-1, 7), (1, 7))
    assert s.energy() == 14


def test_exact_spectrum_cn_complete5():
    s = exact_spectrum(cn_matrix(complete_graph(5)))
    assert s.pairs == ((-3, 4), (12, 1))
    assert s.energy() == 24


def test_exact_spectrum_path3_not_integral():
    out = exact_spectrum(msn_matrix(path_graph(3)))
    assert isinstance(out, NotFullyIntegral)
    assert out.integer_roots == ((0, 1),)
    assert out.residual_degree == 2


def test_exact_cap(monkeypatch):
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    with pytest.raises(ExactCapExceeded):
        exact_spectrum(msn_matrix(complete_graph(4)))
    # at the cap is still allowed
    assert exact_spectrum(msn_matrix(complete_graph(3))).exact


# --- numeric spectra and agreement ---


def test_numeric_spectrum_clusters_multiplicities():
    s = numeric_spectrum(msn_matrix(complete_graph(4)))
    assert not s.exact
    assert [m for _, m in s.pairs] == [3, 1]
    assert abs(s.pairs[0][0] + 9) < 1e-9
    assert abs(s.pairs[1][0] - 27) < 1e-9


def test_numeric_spectrum_empty():
    s = numeric_spectrum(IntSymMatrix(np.zeros((0, 0), dtype=int)))
    assert s.pairs == ()


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_exact_and_numeric_agree(seed, n):
    g = random_graph(seed, n)
    for m in (msn_matrix(g), cn_matrix(g)):
        assert spectra_agree(exact_spectrum(m), numeric_spectrum(m))


def test_exact_spectrum_bounded_time_on_dense_random_graph():
    # coefficient growth in the exact path would turn this into minutes
    g = random_graph(64, 64, p=0.5)
    assert len(connected_components(g)) == 1
    start = time.perf_counter()
    for m in (msn_matrix(g), cn_matrix(g)):
        assert spectra_agree(exact_spectrum(m), numeric_spectrum(m))
    assert time.perf_counter() - start < 10.0


def test_spectra_agree_rejects_mismatch():
    exact = SpectrumMultiset(True, ((-1, 2), (2, 1)))
    off_value = SpectrumMultiset(False, ((-1.0, 2), (2.5, 1)))
    off_mult = SpectrumMultiset(False, ((-1.0, 1), (1.0, 1), (2.0, 1)))
    assert not spectra_agree(exact, off_value)
    assert not spectra_agree(exact, off_mult)


def test_spectra_agree_partial_integer_part():
    out = exact_spectrum(msn_matrix(path_graph(3)))
    assert spectra_agree(out, numeric_spectrum(msn_matrix(path_graph(3))))


# --- SpectrumMultiset container ---


def test_spectrum_validation():
    with pytest.raises(SpectraError):
        SpectrumMultiset(True, ((2, 1), (1, 1)))  # not ascending
    with pytest.raises(SpectraError):
        SpectrumMultiset(True, ((0, 0),))  # multiplicity
    with pytest.raises(SpectraError):
        SpectrumMultiset(True, ((1.5, 2),))  # non-integer exact
    with pytest.raises(SpectraError):
        SpectrumMultiset(True, ((1, 2),))  # nonzero trace
    SpectrumMultiset(False, ((1.5, 2),))  # fine when numeric


def test_spectrum_json_round_trip_exact():
    s = SpectrumMultiset(True, ((-9, 3), (27, 1)))
    d = s.to_json_dict()
    assert d == {"exact": True, "pairs": [[-9, 3], [27, 1]]}
    assert SpectrumMultiset.from_json_dict(d) == s


def test_spectrum_json_round_trip_numeric():
    s = numeric_spectrum(msn_matrix(path_graph(3)))
    d = s.to_json_dict()
    assert all(isinstance(v, str) for v, _ in d["pairs"])
    back = SpectrumMultiset.from_json_dict(d)
    assert back == s  # repr round-trips floats exactly


# --- classify ---


def test_classify_complete_graph():
    rep = classify(complete_graph(5))
    assert isinstance(rep, EnergyReport)
    assert rep.decomposition is not None
    assert rep.decomposition.parts == ((5, 1),)
    assert rep.msn_energy == 2 * 4**3
    assert rep.cn_energy == 2 * 4 * 3
    assert rep.msn_integral is True
    # matches its own reference values exactly, so not hyperenergetic
    assert rep.esn_complete == rep.msn_energy
    assert rep.ecn_complete == rep.cn_energy
    assert not rep.msn_hyperenergetic and not rep.cn_hyperenergetic


def test_classify_fast_path_matches_matrix_path():
    g = clique_union_graph(CliqueUnion(((2, 2), (4, 1))))
    rep = classify(g)
    assert rep.msn_spectrum == exact_spectrum(msn_matrix(g))
    assert rep.cn_spectrum == exact_spectrum(cn_matrix(g))
    assert rep.msn_energy == rep.msn_spectrum.energy()


def test_classify_path3():
    rep = classify(path_graph(3))
    assert rep.decomposition is None
    assert rep.msn_integral is False
    assert not rep.msn_spectrum.exact
    assert math.isclose(rep.msn_energy, 4 * math.sqrt(2), rel_tol=1e-12)
    assert rep.cn_spectrum.exact
    assert rep.cn_energy == 2


def test_classify_beyond_cap(monkeypatch):
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    rep = classify(path_graph(4))
    assert rep.msn_integral is None
    assert not rep.msn_spectrum.exact


def test_classify_requires_vertices():
    with pytest.raises(SpectraError):
        classify(SimpleGraph.from_edges(0, []))


def test_classify_relabeling_invariant():
    g = random_graph(11, 8)
    perm = np.random.default_rng(3).permutation(8)
    relabeled = SimpleGraph.from_edges(
        8,
        [tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in g.edges()],
    )
    a, b = classify(g), classify(relabeled)
    for sa, sb in ((a.msn_spectrum, b.msn_spectrum), (a.cn_spectrum, b.cn_spectrum)):
        assert [m for _, m in sa.pairs] == [m for _, m in sb.pairs]
        assert all(
            math.isclose(va, vb, rel_tol=0, abs_tol=1e-8)
            for (va, _), (vb, _) in zip(sa.pairs, sb.pairs)
        )
    assert math.isclose(a.msn_energy, b.msn_energy, rel_tol=1e-12)
