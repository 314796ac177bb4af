"""Neighborhood matrices, exact spectra, and the numeric cross-check."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnring import graphs, spectra
from msnring.charpoly import certified_roots, charpoly_dense, gershgorin_bound, integer_roots
from msnring.graphs import (
    CliqueUnion,
    SimpleGraph,
    clique_decomposition,
    clique_union_graph,
    connected_components,
)
from msnring.spectra import (
    NUMERIC_CLUSTER_TOL,
    EnergyReport,
    ExactCapExceeded,
    IntSymMatrix,
    NotFullyIntegral,
    SpectraError,
    SpectrumMultiset,
    classify,
    cn_matrix,
    exact_spectrum,
    matrix_spectra,
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


def blocks(m):
    """m.blocks as a sorted list of (nested list, count) pairs."""
    return sorted((b.tolist(), count) for b, count in m.blocks)


def dense(values):
    """What IntSymMatrix.blocks must hold for the whole matrix values: its
    diagonal blocks over the components of its support, grouped by bytes
    and counted, as a sorted list of (nested list, count) pairs."""
    seen = {}
    for comp in connected_components(values != 0):
        block = values[np.ix_(comp, comp)]
        seen.setdefault(block.tobytes(), [block, 0])[1] += 1
    return sorted((b.tolist(), count) for b, count in seen.values())


def brute_delta2(g, v):
    reach = set(np.flatnonzero(g.adjacency[v]).tolist())
    for u in list(reach):
        reach.update(np.flatnonzero(g.adjacency[u]).tolist())
    reach.discard(v)
    return sum(int(g.adjacency[u].sum()) for u in reach)


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
            common = int((g.adjacency[u] & g.adjacency[v]).sum())
            m[u, v] = m[v, u] = common
    return m


# --- matrices ---


def test_msn_matrix_path3():
    g = path_graph(3)
    assert blocks(msn_matrix(g)) == [([[0, 2, 0], [2, 0, 2], [0, 2, 0]], 1)]
    assert dense(brute_msn(g)) == blocks(msn_matrix(g))


def test_msn_matrix_complete():
    g = complete_graph(4)
    expected = 9 * (np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    assert blocks(msn_matrix(g)) == [(expected.tolist(), 1)]


def test_cn_matrix_hand_values():
    g = path_graph(3)
    # [[0, 0, 1], [0, 0, 0], [1, 0, 0]], split over its support
    assert blocks(cn_matrix(g)) == [([[0]], 1), ([[0, 1], [1, 0]], 1)]
    assert dense(brute_cn(g)) == blocks(cn_matrix(g))
    g = complete_graph(5)
    expected = 3 * (np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    assert blocks(cn_matrix(g)) == [(expected.tolist(), 1)]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_matrices_match_brute_force(seed, n):
    g = random_graph(seed, n)
    for m, brute in ((msn_matrix(g), brute_msn), (cn_matrix(g), brute_cn)):
        assert blocks(m) == dense(brute(g))
        assert len(m.blocks) == len(blocks(m))  # no block listed twice
        assert m.n == g.n


INVALID_PARTS = {
    "not square": np.zeros((2, 3), dtype=int),
    "float dtype": np.zeros((2, 2)),
    "diagonal": np.array([[1, 0], [0, 0]]),
    "asymmetric": np.array([[0, 1], [2, 0]]),
    "negative": np.array([[0, -1], [-1, 0]]),
    "not two-dimensional": np.zeros(4, dtype=int),
    "empty": np.zeros((0, 0), dtype=int),
}


def test_int_sym_matrix_validation():
    for part in INVALID_PARTS.values():
        with pytest.raises(SpectraError):
            IntSymMatrix(((part, 1),))
    edge = np.array([[0, 1], [1, 0]])
    for count in (0, -1, 1.0, None):
        with pytest.raises(SpectraError):
            IntSymMatrix(((edge, count),))
    with pytest.raises(SpectraError):
        IntSymMatrix(edge)  # a dense array is not a tuple of (block, count) pairs
    m = IntSymMatrix(((edge, 3),))
    assert m.n == 6
    with pytest.raises(ValueError):
        m.blocks[0][0][0, 1] = 5  # read-only


@pytest.mark.parametrize("kind", sorted(INVALID_PARTS))
def test_int_sym_matrix_checks_every_part(kind):
    valid = [(np.array([[0, 3], [3, 0]]), 1), (np.zeros((1, 1), dtype=int), 1),
             (np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 1)]
    assert IntSymMatrix(tuple(valid)).n == 6
    for at in range(len(valid) + 1):
        parts = valid[:at] + [(INVALID_PARTS[kind], 1)] + valid[at:]
        with pytest.raises(SpectraError):
            IntSymMatrix(tuple(parts))


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


def test_exact_cap_applies_per_block(monkeypatch):
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    s = exact_spectrum(msn_matrix(clique_union_graph(CliqueUnion(((3, 2),)))))
    assert s.pairs == ((-4, 4), (8, 2))


# --- support blocks ---


def test_support_blocks():
    # K_{1,3} centred at 0, K_{1,3} centred at 7, an isolated vertex and the
    # path 9-10-11-12: four classes, whose cn blocks split over their support
    edges = [(0, 1), (0, 2), (0, 3), (4, 7), (5, 7), (6, 7), (9, 10), (10, 11), (11, 12)]
    g = SimpleGraph.from_edges(13, edges)
    assert len(g.classes) == 4
    triangle = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    m = cn_matrix(g)
    assert [(b.tolist(), count) for b, count in m.blocks] == [
        ([[0]], 3), (triangle, 2), ([[0, 1], [1, 0]], 2)]
    assert blocks(m) == dense(brute_cn(g))
    # the msn matrix is not split: one block per class, shaped as the class
    msn = msn_matrix(g)
    assert [b.shape for b, _ in msn.blocks] == [b.shape for b, _ in g.classes]
    assert blocks(msn) == dense(brute_msn(g))
    empty = SimpleGraph.from_edges(0, [])
    assert msn_matrix(empty).blocks == cn_matrix(empty).blocks == ()
    assert IntSymMatrix(()).n == 0


def test_exact_spectrum_reuses_identical_blocks(monkeypatch):
    # two disjoint triangles, one listed as 3-4-5 and one as 0-1-2; each
    # distinct block is settled once, by the certificate or, when that
    # declines, by the characteristic polynomial
    triangle = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    for declines in (False, True):
        certified, charpolys = [], []

        def certify(block, hint):
            certified.append(block.tolist())
            return None if declines else certified_roots(block, hint)

        def charpoly(block):
            charpolys.append(block.tolist())  # the int64 block, not a list
            return charpoly_dense(block)

        monkeypatch.setattr(spectra, "certified_roots", certify)
        monkeypatch.setattr(spectra, "charpoly_dense", charpoly)
        assert exact_spectrum(cn_matrix(g)).pairs == ((-1, 4), (2, 2))
        assert certified == [triangle]
        assert charpolys == ([triangle] if declines else [])


def charpoly_oracle(values):
    """exact_spectrum's answer from the whole matrix's characteristic polynomial."""
    rows = values.tolist()
    roots, residual = integer_roots(charpoly_dense(rows), gershgorin_bound(rows))
    if residual:
        return NotFullyIntegral(tuple(roots), residual)
    return SpectrumMultiset(True, tuple(roots))


def no_convergence(_):
    raise np.linalg.LinAlgError("no convergence")


GARBAGE_HINTS = {
    "one value off": lambda e: np.concatenate([e[:-1], e[-1:] + 1]),
    "one multiplicity moved": lambda e: np.concatenate([e[:1], e[:-1]]),
    "negated": lambda e: -e,
    "zeros": np.zeros_like,
    "noise": lambda e: np.random.default_rng(0).normal(size=e.shape) * 50,
    "nan": lambda e: np.full_like(e, np.nan),
    "too short": lambda e: e[1:],
    "no convergence": no_convergence,
}


@pytest.mark.parametrize("kind", sorted(GARBAGE_HINTS))
def test_exact_spectrum_never_trusts_its_hint(monkeypatch, kind):
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: GARBAGE_HINTS[kind](np.rint(eigvalsh(a))))
    graphs = [clique_union_graph(CliqueUnion(((1, 1), (2, 2), (4, 1), (5, 3)))),
              complete_graph(6)]
    graphs += [random_graph(seed, 7 + seed % 5) for seed in range(8)]
    for g in graphs:
        for m, brute in ((msn_matrix(g), brute_msn), (cn_matrix(g), brute_cn)):
            assert exact_spectrum(m) == charpoly_oracle(brute(g))


def test_clique_blocks_settle_without_charpoly(monkeypatch):
    calls = []

    def counting(block):
        calls.append(block)
        return charpoly_dense(block)

    monkeypatch.setattr(spectra, "charpoly_dense", counting)
    parts = CliqueUnion(((4, 2), (5, 1), (7, 3), (12, 1), (40, 1)))
    g = clique_union_graph(parts)
    assert exact_spectrum(msn_matrix(g)) == spectra.clique_union_msn_spectrum(parts)
    assert exact_spectrum(cn_matrix(g)) == spectra.clique_union_cn_spectrum(parts)
    assert calls == []


def test_exact_spectrum_bounded_time_on_largest_clique_block():
    # K256 is the largest block the default exact cap admits; the
    # characteristic polynomial route took about 25 s on it
    parts = CliqueUnion(((256, 1),))
    g = clique_union_graph(parts)
    start = time.perf_counter()
    assert exact_spectrum(msn_matrix(g)) == spectra.clique_union_msn_spectrum(parts)
    assert exact_spectrum(cn_matrix(g)) == spectra.clique_union_cn_spectrum(parts)
    assert time.perf_counter() - start < 5.0


def disjoint_union(parts, perm_seed):
    """Each (seed, size, copies) random graph repeated, then relabelled."""
    edges, n = [], 0
    for seed, size, copies in parts:
        g = random_graph(seed, size, p=0.6)
        for _ in range(copies):
            edges += [(u + n, v + n) for u, v in g.edges()]
            n += size
    perm = np.random.default_rng(perm_seed).permutation(n)
    return SimpleGraph.from_edges(
        n, [tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in edges])


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3)),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_matrix_spectra_per_block_equal_whole_matrix(parts, perm_seed):
    g = disjoint_union(parts, perm_seed)
    for m, brute in ((msn_matrix(g), brute_msn), (cn_matrix(g), brute_cn)):
        values = brute(g)
        assert blocks(m) == dense(values)
        result = matrix_spectra(m)
        whole = np.linalg.eigvalsh(values.astype(np.float64))
        merged = [v for v, mult in result.numeric.pairs for _ in range(mult)]
        # a cluster mean sits within n cluster tolerances of each member
        tol = NUMERIC_CLUSTER_TOL * max(1.0, float(values.max(initial=0)) * m.n) * m.n
        assert np.allclose(merged, whole, rtol=0, atol=tol + 1e-9)
        if m.n <= 16:
            assert result.exact == charpoly_oracle(values)


def test_matrix_spectra_above_cap(monkeypatch):
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    result = matrix_spectra(msn_matrix(complete_graph(4)))
    assert result.exact is None
    assert result.method == "numeric" and result.integral is None
    assert result.spectrum is result.numeric
    monkeypatch.setenv("MSNRING_EXACT_CAP", "4")
    result = matrix_spectra(msn_matrix(complete_graph(4)))
    assert result.method == "exact" and result.integral is True
    assert result.spectrum is result.exact


def test_matrix_spectra_not_fully_integral():
    result = matrix_spectra(msn_matrix(path_graph(3)))
    assert isinstance(result.exact, NotFullyIntegral)
    assert result.method == "numeric" and result.integral is False
    assert result.spectrum is result.numeric


# --- numeric spectra and agreement ---


def test_numeric_spectrum_clusters_multiplicities():
    s = numeric_spectrum(msn_matrix(complete_graph(4)))
    assert not s.exact
    assert [m for _, m in s.pairs] == [3, 1]
    assert abs(s.pairs[0][0] + 9) < 1e-9
    assert abs(s.pairs[1][0] - 27) < 1e-9


def test_numeric_spectrum_empty():
    s = numeric_spectrum(IntSymMatrix(()))
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
    assert len(g.components) == 1
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


def test_spectrum_json_round_trip_numeric():
    s = numeric_spectrum(msn_matrix(path_graph(3)))
    d = s.to_json_dict()
    assert all(isinstance(v, str) for v, _ in d["pairs"])
    assert [(float(v), m) for v, m in d["pairs"]] == list(s.pairs)  # repr round-trips floats exactly


# --- classify ---


def test_classify_complete_graph():
    rep = classify(complete_graph(5))
    assert isinstance(rep, EnergyReport)
    assert rep.decomposition is not None
    assert rep.decomposition.parts == ((5, 1),)
    assert rep.msn_energy == 2 * 4**3
    assert rep.cn_energy == 2 * 4 * 3
    assert rep.msn_integral is True
    assert rep.msn_method == rep.cn_method == "closed_form"
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
    assert (rep.msn_method, rep.cn_method) == ("numeric", "exact")


def test_classify_cycle4_is_exact_without_a_clique_union():
    rep = classify(SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert rep.decomposition is None
    assert rep.msn_integral is True
    assert rep.msn_method == rep.cn_method == "exact"
    assert rep.msn_spectrum.pairs == ((-12, 1), (0, 2), (12, 1))
    assert rep.cn_spectrum.pairs == ((-2, 2), (2, 2))
    assert rep.to_json_dict()["msn_method"] == "exact"


def test_classify_counts_common_neighbours_once_per_class(monkeypatch):
    # a path, two triangles and a K4: three classes, and both matrices
    # read the one count of each
    edges = [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8)]
    edges += list(itertools.combinations(range(9, 13), 2))
    g = SimpleGraph.from_edges(13, edges)
    products = []

    def shared(block):
        products.append(len(block))
        return shared_neighbours(block)

    shared_neighbours = graphs._shared_neighbours
    monkeypatch.setattr(graphs, "_shared_neighbours", shared)
    assert classify(g).decomposition is None  # so both matrices are built
    assert products == [3, 3, 4]
    assert len(g.classes) == 3


def test_classify_beyond_cap(monkeypatch):
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    rep = classify(path_graph(4))
    assert rep.msn_integral is None
    assert not rep.msn_spectrum.exact
    # the cn matrix of P4 splits into two 2 x 2 blocks, under the cap
    assert (rep.msn_method, rep.cn_method) == ("numeric", "exact")


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


# --- block structure: nothing of size n x n beyond the adjacency ---


def test_clique_union_memory_stays_below_n_squared():
    import tracemalloc

    parts = CliqueUnion(((100, 31),))
    g = clique_union_graph(parts)
    n = g.n
    tracemalloc.start()
    try:
        assert clique_decomposition(g) == parts
        msn = matrix_spectra(msn_matrix(g))
        cn = matrix_spectra(cn_matrix(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert msn.exact == spectra.clique_union_msn_spectrum(parts)
    assert cn.exact == spectra.clique_union_cn_spectrum(parts)
    assert peak < n * n, f"peak {peak} bytes for n = {n}"


def test_blocks_split_each_distinct_part_once(monkeypatch):
    from msnring import graphs
    splits = []
    real = graphs.connected_components

    def counting(adjacency):
        splits.append(adjacency.shape[0])
        return real(adjacency)

    g = clique_union_graph(CliqueUnion(((2, 3), (3, 4), (5, 2))))
    monkeypatch.setattr(spectra, "connected_components", counting)
    m = cn_matrix(g)
    # each K2 part splits into two zero blocks, which join the isolated ones
    k5 = 3 * (np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    assert [(b.tolist(), count) for b, count in m.blocks] == [
        ([[0]], 6), ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 4), (k5.tolist(), 2)]
    assert splits == [2, 3, 5]


def test_one_eigensolve_per_distinct_block(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    graphs = [clique_union_graph(CliqueUnion(((1, 2), (3, 4), (6, 2)))),
              disjoint_union([(5, 5, 3), (6, 4, 2)], 9), path_graph(5)]
    for g in graphs:
        for m in (msn_matrix(g), cn_matrix(g)):
            calls.clear()
            result = matrix_spectra(m)
            assert len(calls) == len(m.blocks)
            assert sorted(calls) == sorted(b.shape for b, _ in m.blocks)
            assert spectra_agree(result.exact, result.numeric)
    # above the exact cap only the numeric route reads the eigensolve
    monkeypatch.setenv("MSNRING_EXACT_CAP", "2")
    m = msn_matrix(graphs[0])
    calls.clear()
    assert matrix_spectra(m).exact is None
    assert len(calls) == len(m.blocks) == 3


def test_numeric_spectrum_reports_a_failed_eigensolve(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    m = cn_matrix(complete_graph(4))
    with pytest.raises(spectra.NoConvergence, match="symmetric eigensolve failed: no convergence"):
        numeric_spectrum(m)
    # the exact route still proves the spectrum from the polynomial
    assert exact_spectrum(m).pairs == ((-2, 3), (6, 1))


def test_msn_needs_no_split_and_cn_splits_once_per_class(monkeypatch):
    from msnring import graphs
    splits = []
    real = graphs.connected_components

    def counting(adjacency):
        splits.append(adjacency.shape[0])
        return real(adjacency)

    g = disjoint_union([(5, 5, 3), (6, 4, 2), (7, 3, 1)], 4)
    classes = g.classes  # the graph's own labelling, before the patch
    monkeypatch.setattr(graphs, "connected_components", counting)
    monkeypatch.setattr(spectra, "connected_components", counting)
    msn_matrix(g)
    assert splits == []
    cn_matrix(g)
    assert splits == [len(block) for block, _ in classes]


def test_relabelled_clique_union_is_one_class():
    parts = CliqueUnion(((100, 31),))
    edges = clique_union_graph(parts).edges()
    perm = np.random.default_rng(31).permutation(parts.n)
    g = SimpleGraph.from_edges(
        parts.n, [tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in edges])
    assert len(g.components) == 31
    assert len(g.classes) == 1
    block, comps = g.classes[0]
    assert comps.shape == (31, 100)
    assert sorted(comps.ravel().tolist()) == list(range(parts.n))
    # one common-neighbour product, for the one class
    (counts,) = g.common_neighbours
    assert np.array_equal(counts, 98 * (np.ones((100, 100), dtype=int) - np.eye(100, dtype=int)))
    assert clique_decomposition(g) == parts
    assert [count for _, count in msn_matrix(g).blocks] == [31]
    assert matrix_spectra(cn_matrix(g)).exact == spectra.clique_union_cn_spectrum(parts)
