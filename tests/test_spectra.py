"""Neighborhood matrices, exact spectra, and the numeric cross-check."""

import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expanded_blocks
from msnring import charpoly, graphs, spectra
from msnring.charpoly import charpoly_dense, gershgorin_bound, integer_roots
from msnring.graphs import (
    CliqueUnion,
    SimpleGraph,
    clique_decomposition,
    clique_union_graph,
    closed_twins,
    delta2_all,
    quotient_components,
    twin_counts,
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


def cycles(*sizes):
    """Disjoint cycles of the given sizes, each at least 3: twin-free."""
    edges, n = [], 0
    for size in sizes:
        edges += [(n + i, n + i + 1) for i in range(size - 1)] + [(n, n + size - 1)]
        n += size
    return SimpleGraph.from_edges(n, edges)


def clebsch_graph(copies=1):
    """Copies of the Clebsch graph: the 4-bit words, adjacent when they
    differ in one bit or in all four.  Twin-free, with msn spectrum
    375, 75^10, -225^5: its msn block is 75 A, settled whole."""
    edges = []
    for c in range(copies):
        pairs = [(u, v) for u in range(16) for v in range(u + 1, 16)
                 if bin(u ^ v).count("1") in (1, 4)]
        # list each copy's edges in its own order
        edges += [(16 * c + u, 16 * c + v) for u, v in (pairs[::-1] if c % 2 else pairs)]
    return SimpleGraph.from_edges(16 * copies, edges)


def random_graph(seed, n, p=0.4):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def blocks(m):
    """m's blocks (expanded_blocks) as a sorted list of (nested list, count) pairs."""
    return sorted((b.tolist(), count) for b, count in expanded_blocks(m))


def dense(values):
    """What expanded_blocks must give for the whole matrix values: its
    diagonal blocks over the components of its support, grouped by bytes
    and counted, as a sorted list of (nested list, count) pairs."""
    seen = {}
    for comp in quotient_components(*closed_twins(values != 0)):
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
    # a P3 beside a P4: [[0, 1], [1, 0]] is the P3 ends' open class and
    # two pieces of the P4, each two singletons, listed once
    g = SimpleGraph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    assert blocks(cn_matrix(g)) == [([[0]], 1), ([[0, 1], [1, 0]], 3)] == dense(brute_cn(g))
    assert len(cn_matrix(g).forms) == 2


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_matrices_match_brute_force(seed, n):
    g = random_graph(seed, n)
    for m, brute in ((msn_matrix(g), brute_msn), (cn_matrix(g), brute_cn)):
        assert blocks(m) == dense(brute(g))
        assert len(expanded_blocks(m)) == len(blocks(m))  # no block listed twice
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
        expanded_blocks(m)[0][0][0, 1] = 5  # read-only
    with pytest.raises(ValueError):
        m.forms[0][0][1][0, 1] = 5


def test_int_sym_matrix_rejects_a_bool_count():
    # True is an int to isinstance, but no count of blocks
    edge = np.array([[0, 1], [1, 0]])
    for count in (True, False):
        with pytest.raises(SpectraError, match="block count must be a positive integer"):
            IntSymMatrix(((edge, count),))
    with pytest.raises(SpectraError, match="block count"):
        IntSymMatrix((((np.zeros(2, dtype=np.intp), np.ones((1, 1), dtype=int)), True),))


def test_package_forms_skip_the_check_and_outside_forms_keep_it(monkeypatch):
    # msn_matrix and cn_matrix build their forms valid by construction and
    # read-only, so they do not run _checked; a form from anywhere else does
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    want = [[(form[0].tolist(), form[1].tolist(), count) for form, count in m.forms]
            for m in (msn_matrix(g), cn_matrix(g))]
    checked = []
    real = spectra._checked
    monkeypatch.setattr(spectra, "_checked", lambda *pair: checked.append(pair) or real(*pair))
    built = (msn_matrix(g), cn_matrix(g))
    assert checked == []
    assert [[(form[0].tolist(), form[1].tolist(), count) for form, count in m.forms]
            for m in built] == want
    for m in built:
        for (labels, w), _ in m.forms:
            assert not labels.flags.writeable and not w.flags.writeable
    with pytest.raises(SpectraError, match="symmetric"):
        IntSymMatrix((((np.array([0, 1]), np.array([[0, 1], [2, 0]])), 1),))
    assert len(checked) == 1


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
    s = exact_spectrum(msn_matrix(complete_graph(4)))[0]
    assert isinstance(s, SpectrumMultiset)
    assert s.exact and s.pairs == ((-9, 3), (27, 1))
    assert s.energy() == 54


def test_exact_spectrum_seven_edges():
    g = clique_union_graph(CliqueUnion(((2, 7),)))
    s = exact_spectrum(msn_matrix(g))[0]
    assert s.pairs == ((-1, 7), (1, 7))
    assert s.energy() == 14


def test_exact_spectrum_cn_complete5():
    s = exact_spectrum(cn_matrix(complete_graph(5)))[0]
    assert s.pairs == ((-3, 4), (12, 1))
    assert s.energy() == 24


def test_exact_spectrum_path3_not_integral():
    out = exact_spectrum(msn_matrix(path_graph(3)))[0]
    assert isinstance(out, NotFullyIntegral)
    assert out.integer_roots == ((0, 1),)
    assert out.residual_degree == 2


def test_exact_cap(monkeypatch):
    # C6 is twin-free, so its msn block is its own quotient, of dimension 6
    monkeypatch.setenv("MSNRING_EXACT_CAP", "5")
    with pytest.raises(ExactCapExceeded, match="support block of dimension 6"):
        exact_spectrum(msn_matrix(cycles(6)))
    # at the cap is still allowed
    monkeypatch.setenv("MSNRING_EXACT_CAP", "6")
    assert exact_spectrum(msn_matrix(cycles(6)))[0].exact


def test_exact_cap_admits_only_a_single_twin_class_above_it(monkeypatch):
    # K4 is one twin class: a 1 x 1 quotient, exact under a cap of 3
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    msn = matrix_spectra(msn_matrix(complete_graph(4)))[0]
    assert msn.method == "exact" and msn.integral is True
    assert msn.exact.pairs == ((-9, 3), (27, 1))
    assert exact_spectrum(cn_matrix(complete_graph(4)))[0].pairs == ((-2, 3), (6, 1))
    # the path of three triangles, each joined to the next: a 3 x 3
    # quotient of a 9-vertex block, which the cap bounds as a whole
    g = SimpleGraph.from_edges(9, [
        (u, v) for u, v in itertools.combinations(range(9), 2)
        if abs(u // 3 - v // 3) <= 1])
    assert quotient_sizes(msn_matrix(g)) == [3]
    monkeypatch.setenv("MSNRING_EXACT_CAP", "8")
    with pytest.raises(ExactCapExceeded, match="support block of dimension 9"):
        exact_spectrum(msn_matrix(g))
    assert matrix_spectra(msn_matrix(g))[0].exact is None
    monkeypatch.setenv("MSNRING_EXACT_CAP", "9")
    assert exact_spectrum(msn_matrix(g))[0] == charpoly_oracle(brute_msn(g))


def test_a_twin_free_block_with_equal_entries_is_one_class(monkeypatch):
    # the rook's graph K4 x K4 is twin-free, but any two of its vertices
    # share two neighbours: its cn form is 16 singletons with w = 2 (J - I),
    # one class all the same, exact above the cap with no charpoly call
    g = SimpleGraph.from_edges(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                                    if u // 4 == v // 4 or u % 4 == v % 4])
    ((form, count),) = cn_matrix(g).forms
    assert (len(form[1]), count) == (16, 1) and spectra._single_class(form)
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    calls = recorded_charpoly_calls(monkeypatch)
    assert exact_spectrum(cn_matrix(g))[0].pairs == ((-2, 15), (30, 1))
    assert calls == []
    # one entry off, and the block is no longer one class
    w = form[1].copy()
    w[5, 9] = w[9, 5] = 1
    assert not spectra._single_class((form[0], w))


def test_exact_cap_applies_per_block(monkeypatch):
    monkeypatch.setenv("MSNRING_EXACT_CAP", "3")
    s = exact_spectrum(msn_matrix(clique_union_graph(CliqueUnion(((3, 2),)))))[0]
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
    assert [(b.tolist(), count) for b, count in expanded_blocks(m)] == [
        ([[0]], 3), (triangle, 2), ([[0, 1], [1, 0]], 2)]
    assert blocks(m) == dense(brute_cn(g))
    # the msn matrix is not split: one block per class, shaped as the class
    msn = msn_matrix(g)
    assert [b.shape for b, _ in expanded_blocks(msn)] == [
        (len(labels),) * 2 for labels, *_ in g.classes]
    assert blocks(msn) == dense(brute_msn(g))
    empty = SimpleGraph.from_edges(0, [])
    assert expanded_blocks(msn_matrix(empty)) == expanded_blocks(cn_matrix(empty)) == ()
    assert IntSymMatrix(()).n == 0


def recorded_charpoly_calls(monkeypatch):
    """Patch spectra's charpoly_dense to record, per call, the blocks passed."""
    calls = []

    def recorded(blocks):
        calls.append(list(blocks))
        return charpoly_dense(blocks)

    monkeypatch.setattr(spectra, "charpoly_dense", recorded)
    return calls


def blocks_passed(calls):
    """Every block charpoly_dense received, in order, as lists (each an
    int64 array, which tolist requires)."""
    return [block.tolist() for call in calls for block in call]


def petersen_graph():
    return SimpleGraph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                  + [(i, i + 5) for i in range(5)]
                                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def test_classify_settles_msn_and_cn_in_one_charpoly_call(monkeypatch):
    # the Petersen graph is twin-free, with girth 5 and diameter 2: its
    # msn matrix is 27 A and its cn matrix J - I - A, one block each.  Both
    # go to the polynomial (A divided by its gcd 27), in one stacked call
    calls = recorded_charpoly_calls(monkeypatch)
    report = classify(petersen_graph())
    adjacency = petersen_graph().adjacency.astype(int)
    assert [len(call) for call in calls] == [2]
    distance_two = 1 - np.eye(10, dtype=int) - adjacency
    assert blocks_passed(calls) == [adjacency.tolist(), distance_two.tolist()]
    assert report.msn_method == report.cn_method == "exact"
    assert report.msn_spectrum.pairs == ((-54, 4), (27, 5), (81, 1))
    assert report.cn_spectrum.pairs == ((-2, 5), (1, 4), (6, 1))


def test_exact_spectrum_reuses_identical_blocks(monkeypatch):
    # two disjoint Clebsch graphs, whose edges are listed in opposite
    # orders; the one distinct twin-free block is settled once, by one
    # characteristic polynomial of the block divided by its gcd 75
    g = clebsch_graph(2)
    ((clebsch, count),) = expanded_blocks(msn_matrix(g))
    assert count == 2
    calls = recorded_charpoly_calls(monkeypatch)
    assert exact_spectrum(msn_matrix(g))[0].pairs == ((-225, 10), (75, 20), (375, 2))
    assert blocks_passed(calls) == [(clebsch // 75).tolist()]


def charpoly_oracle(values):
    """exact_spectrum's answer from the whole matrix's characteristic polynomial."""
    rows = values.tolist()
    (poly,) = charpoly_dense([rows])
    roots, residual = integer_roots(poly, gershgorin_bound(rows))
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
    # a float eigensolve gone wrong in any way reaches the numeric route,
    # and leaves the exact route, which reads no float, as it was
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: GARBAGE_HINTS[kind](np.rint(eigvalsh(a))))
    graphs = [clique_union_graph(CliqueUnion(((1, 1), (2, 2), (4, 1), (5, 3)))),
              complete_graph(6)]
    graphs += [random_graph(seed, 7 + seed % 5) for seed in range(8)]
    for g in graphs:
        for m, brute in ((msn_matrix(g), brute_msn), (cn_matrix(g), brute_cn)):
            assert exact_spectrum(m)[0] == charpoly_oracle(brute(g))
    if kind == "no convergence":
        with pytest.raises(spectra.NoConvergence):
            numeric_spectrum(msn_matrix(complete_graph(6)))


def test_clique_blocks_settle_without_charpoly(monkeypatch):
    # a K_m block is one twin class, a 1 x 1 quotient: the polynomial is
    # not reached
    calls = []

    def counting(*args):
        calls.append(args)

    monkeypatch.setattr(spectra, "charpoly_dense", counting)
    # K300 is above the default cap of 256; its quotient is not
    parts = CliqueUnion(((1, 2), (2, 3), (4, 2), (5, 1), (7, 3), (12, 1), (40, 1), (300, 1)))
    g = clique_union_graph(parts)
    assert exact_spectrum(msn_matrix(g))[0] == spectra.clique_union_msn_spectrum(parts)
    assert exact_spectrum(cn_matrix(g))[0] == spectra.clique_union_cn_spectrum(parts)
    # a K2 component: one class of closed twins, whose zero cn form stands
    # for two 1 x 1 pieces, and whose msn form is [[0, 1], [1, 0]]
    k2 = complete_graph(2)
    assert [(b.tolist(), count) for b, count in expanded_blocks(cn_matrix(k2))] == [([[0]], 2)]
    assert exact_spectrum(cn_matrix(k2))[0].pairs == ((0, 2),)
    assert exact_spectrum(msn_matrix(k2))[0].pairs == ((-1, 1), (1, 1))
    # a plain zero block is one class too, of inner entry 0
    zero = np.zeros((3, 3), dtype=np.int64)
    assert spectra._twin_quotient((np.arange(3), zero))[1].tolist() == [[0]]
    assert exact_spectrum(IntSymMatrix(((zero, 2),)))[0].pairs == ((0, 6),)
    assert calls == []


# --- twin classes ---


def blown_up(seed, kinds, perm_seed):
    """A random graph on len(kinds) vertices, vertex v blown up into
    kinds[v] = (s, closed) copies: a clique of closed twins or an
    independent set of open twins; then relabelled."""
    base = random_graph(seed, len(kinds), p=0.5)
    start = np.cumsum([0] + [s for s, _ in kinds])
    edges = []
    for v, (s, closed) in enumerate(kinds):
        if closed:
            edges += itertools.combinations(range(start[v], start[v] + s), 2)
    for u, v in base.edges():
        edges += itertools.product(range(start[u], start[u + 1]), range(start[v], start[v + 1]))
    n = int(start[-1])
    perm = np.random.default_rng(perm_seed).permutation(n)
    return SimpleGraph.from_edges(
        n, [tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in edges])


planted_twins = st.one_of(
    st.builds(blown_up, st.integers(0, 2**32 - 1),
              st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=6),
              st.integers(0, 2**32 - 1)),
    st.builds(lambda parts: clique_union_graph(CliqueUnion.of(parts)),
              st.lists(st.tuples(st.integers(1, 9), st.integers(1, 3)), min_size=1, max_size=3)),
)


def full_block_route(m):
    """exact_spectrum with no twin reduction: every form's block is settled
    whole, as a twin-free block is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_twin_quotient", lambda form: ([], spectra.expanded(*form)))
        return exact_spectrum(m)[0]


@settings(deadline=None, max_examples=60)
@given(planted_twins)
def test_twin_route_matches_the_full_block_route(g):
    for m, brute in ((msn_matrix(g), brute_msn), (cn_matrix(g), brute_cn)):
        got = exact_spectrum(m)[0]
        assert got == full_block_route(m)
        if g.n <= 16:
            assert got == charpoly_oracle(brute(g))


@st.composite
def twin_graphs(draw):
    """Disjoint pieces, relabelled: random graphs with planted classes of
    closed and open twins (blown_up), isolated vertices, K2 components and
    complete bipartite ones."""
    edges, n = [], 0
    for kind in draw(st.lists(st.sampled_from(["blown", "isolated", "k2", "bipartite"]),
                              min_size=1, max_size=5)):
        if kind == "blown":
            kinds = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                                  min_size=1, max_size=5))
            piece = blown_up(draw(st.integers(0, 2**32 - 1)), kinds, draw(st.integers(0, 2**32 - 1)))
            edges += [(u + n, v + n) for u, v in piece.edges()]
            n += piece.n
        elif kind == "isolated":
            n += 1
        elif kind == "k2":
            edges.append((n, n + 1))
            n += 2
        else:
            a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            edges += [(n + i, n + a + j) for i in range(a) for j in range(b)]
            n += a + b
    perm = draw(st.permutations(range(n)))
    return SimpleGraph.from_edges(n, [tuple(sorted((perm[u], perm[v]))) for u, v in edges])


def numpy_matrices(g):
    """The msn and cn matrices of g and its delta2, built with numpy
    alone: the shared neighbours are A @ A off the diagonal, delta2 is read
    off the reach matrix of the pairs within distance two."""
    a = g.adjacency.astype(np.int64)
    walks = a @ a
    reach = (a + walks) > 0
    np.fill_diagonal(reach, False)
    delta2 = reach @ a.sum(axis=1)
    cn = walks.copy()
    np.fill_diagonal(cn, 0)
    return np.minimum.outer(delta2, delta2) * a, cn, delta2


@settings(deadline=None, max_examples=100)
@given(twin_graphs())
def test_twin_forms_expand_to_the_numpy_matrices(g):
    # each class's msn and cn forms, expanded and put back at each of its
    # components, are the whole matrices; and the exact route on the forms
    # gives what it gives on the same blocks as plain forms
    msn, cn = msn_matrix(g), cn_matrix(g)
    *want, delta2 = numpy_matrices(g)
    assert np.array_equal(delta2_all(g), delta2)
    got = [np.zeros_like(w) for w in want]
    for (labels, census, comps), (_, shared, _), (msn_form, count) in zip(
            g.classes, g.counts, msn.forms):
        assert msn_form[0] is labels and count == len(comps)
        assert np.array_equal(twin_counts(labels, census)[1], shared)
        for form, whole in ((msn_form, got[0]), ((labels, shared), got[1])):
            for comp in comps:
                whole[np.ix_(comp, comp)] = spectra.expanded(*form)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert blocks(cn) == dense(want[1])
    for m in (msn, cn):
        assert exact_spectrum(m) == exact_spectrum(IntSymMatrix(expanded_blocks(m)))


@pytest.mark.parametrize("spec, msn_residual", [
    ("prod(mat2:p=2,mat2:p=2)", 26), ("nc_p2:p=67", 0)])
def test_exact_route_reads_no_block(monkeypatch, spec, msn_residual):
    # with every way to a form's n x n block raising, the exact route still
    # settles both matrices: it reads no array larger than k x k
    g = product_graph(spec)
    matrices = msn_matrix(g), cn_matrix(g)

    def raising(*args):
        raise AssertionError("the exact route read a block")

    monkeypatch.setattr(spectra, "expanded", raising)
    msn, cn = exact_spectrum(*matrices)
    if msn_residual:
        assert msn.residual_degree == msn_residual
    else:
        dec = clique_decomposition(g)
        assert (msn, cn) == (spectra.clique_union_msn_spectrum(dec),
                             spectra.clique_union_cn_spectrum(dec))
    with pytest.raises(AssertionError, match="read a block"):
        numeric_spectrum(matrices[0])


def relabelled(g, perm_seed):
    perm = np.random.default_rng(perm_seed).permutation(g.n)
    return SimpleGraph.from_edges(
        g.n, [tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in g.edges()])


def product_graph(spec):
    from msnring.graphs import commuting_graph
    from msnring.rings import parse_ring_spec
    return commuting_graph(parse_ring_spec(spec))


def twin_classes(labels):
    """The classes of equal labels, as sorted lists of rows, sorted."""
    classes = {}
    for v, label in enumerate(labels.tolist()):
        classes.setdefault(label, []).append(v)
    return sorted(classes.values())


def quotient_sizes(m):
    """k of each block of m under the twin classes of its form."""
    return [len(spectra._twin_quotient(form)[1]) for form, _ in m.forms]


def assert_twin_classes(block, labels, inner):
    """Each class of equal labels is a class of twins of block, with the
    given inner entry: with the diagonal set to each vertex's inner entry,
    every row equals the row of its class's first vertex."""
    first = np.unique(labels, return_index=True)[1]
    hat = block.copy()
    np.fill_diagonal(hat, inner[labels])
    assert (hat == hat[first[labels]]).all()


def census_sizes(g):
    """(matrix, n, k) of every msn block and cn piece of g, one per copy,
    sorted, each form's classes checked to be twin classes of its block."""
    out = []
    for name, m in (("msn", msn_matrix(g)), ("cn", cn_matrix(g))):
        for (form, count), (block, _) in zip(m.forms, expanded_blocks(m)):
            labels, w = form
            assert_twin_classes(block, labels, np.diagonal(w))
            k = len(spectra._twin_quotient(form)[1])
            out += [(name, len(block), k)] * count
    return sorted(out)


@settings(deadline=None, max_examples=60)
@given(planted_twins, st.integers(0, 2**32 - 1))
def test_census_classes_are_twin_classes_of_both_matrices(g, perm_seed):
    # every class of the census verifies on the msn block and on every cn
    # piece, its k does not depend on the labelling, and the spectrum is
    # the one of the whole blocks
    h = relabelled(g, perm_seed)
    assert census_sizes(h) == census_sizes(g)
    for m in (msn_matrix(h), cn_matrix(h)):
        assert exact_spectrum(m)[0] == full_block_route(m)


def test_census_on_k2_and_star_cn_pieces():
    # K_2 is complete: one class of closed twins, whose zero cn form
    # stands for its two vertices as 1 x 1 pieces
    k2 = complete_graph(2)
    assert [(labels.tolist(), census.tolist()) for labels, census, _ in k2.classes] == [
        ([0, 0], [[True]])]
    cn = cn_matrix(k2)
    assert [(b.tolist(), count) for b, count in expanded_blocks(cn)] == [([[0]], 2)]
    assert [(labels.tolist(), w.tolist()) for (labels, w), _ in cn.forms] == [([0], [[0]])]
    # K_{1,m}: the leaves are open twins.  The msn block has two classes,
    # the leaves' inner entry 0; the cn matrix splits into the centre alone
    # and J - I on the leaves, each piece carrying its own class
    for leaves in (2, 3, 5):
        g = SimpleGraph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        assert [twin_classes(labels) for labels, *_ in g.classes] == [
            [[0], list(range(1, leaves + 1))]]
        msn = msn_matrix(g)
        ((form, _),) = msn.forms
        found, quotient = spectra._twin_quotient(form)
        assert found == [(0, leaves - 1)] and len(quotient) == 2
        assert exact_spectrum(msn)[0] == charpoly_oracle(brute_msn(g))
        cn = cn_matrix(g)
        leaf_piece = np.ones((leaves, leaves), dtype=np.int64) - np.eye(leaves, dtype=np.int64)
        assert [(b.tolist(), count, twin_classes(labels))
                for (b, count), ((labels, _), _) in zip(expanded_blocks(cn), cn.forms)] == [
            ([[0]], 1, [[0]]), (leaf_piece.tolist(), 1, [list(range(leaves))])]
        assert quotient_sizes(cn) == [1, 1]
        assert exact_spectrum(cn)[0].pairs == ((-1, leaves - 1), (0, 1), (leaves - 1, 1))


def test_census_reduces_both_matrices_of_a_product_to_63_classes():
    # prod(mat2:p=2,mat2:p=2): 63 classes of closed twins on one block
    g = product_graph("prod(mat2:p=2,mat2:p=2)")
    for m in (msn_matrix(g), cn_matrix(g)):
        assert quotient_sizes(m) == [63]


def test_twin_labels_must_fit_their_block():
    # labels out of range, negative, leaving a class empty, not one-dimensional
    w = np.array([[2, 1], [1, 0]])
    for labels in ([0, 0, 2], [0, -1], [1, 1], [[0, 1]]):
        with pytest.raises(SpectraError, match="twin labels must number the 2 classes of w"):
            IntSymMatrix((((np.array(labels), w), 1),))
    # a singleton class has no pair inside it, so its inner entry is 0
    with pytest.raises(SpectraError, match="singleton class has inner entry 0"):
        IntSymMatrix((((np.array([0, 1]), w), 1),))
    m = IntSymMatrix((((np.array([0, 1, 0]), w), 1),))
    assert m.n == 3
    assert expanded_blocks(m)[0][0].tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_planted_twins_shrink_the_quotient():
    # the path 0 - 2 - 1 with vertex 0 blown up into a triangle and vertex
    # 2 into an open pair: the triangle is a class of closed twins, with
    # inner entry 18, and the pair a class of open twins, with inner entry
    # 0, so the quotient is 3 x 3
    g = blown_up(0, [(3, True), (1, False), (2, False)], 0)
    m = msn_matrix(g)
    ((form, _),) = m.forms
    found, quotient = spectra._twin_quotient(form)
    assert sorted(found) == [(-18, 2), (0, 1)] and len(quotient) == 3
    assert exact_spectrum(m)[0] == full_block_route(m)


def test_product_ring_quotients_match_the_full_block_route():
    # the classes of a product's commuting graph are pairs of the factors'
    # centralizers: 15 for nc_p2:p=2 x ut2:p=2, on 30 vertices.  They are
    # the graph's closed twin classes, and reduce the msn and the cn block
    # alike
    g = product_graph("prod(nc_p2:p=2,ut2:p=2)")
    msn, cn = msn_matrix(g), cn_matrix(g)
    for m in (msn, cn):
        assert quotient_sizes(m) == [15]
    assert exact_spectrum(msn)[0] == full_block_route(msn)
    assert exact_spectrum(cn)[0] == full_block_route(cn)
    assert exact_spectrum(msn)[0].integer_roots == ((-1165, 1), (-233, 6), (-201, 9), (201, 4))


def test_exact_spectrum_bounded_time_on_largest_clique_block():
    # K256 was the largest block the default exact cap admitted, and the
    # characteristic polynomial route took about 25 s on it; as a single
    # twin class it now needs no root search, at any size
    parts = CliqueUnion(((256, 1),))
    g = clique_union_graph(parts)
    start = time.perf_counter()
    assert exact_spectrum(msn_matrix(g))[0] == spectra.clique_union_msn_spectrum(parts)
    assert exact_spectrum(cn_matrix(g))[0] == spectra.clique_union_cn_spectrum(parts)
    assert time.perf_counter() - start < 5.0
    # 3K1250, numeric before twin reduction, is exact under the default cap
    parts = CliqueUnion(((1250, 3),))
    g = clique_union_graph(parts)
    start = time.perf_counter()
    assert exact_spectrum(msn_matrix(g))[0] == spectra.clique_union_msn_spectrum(parts)
    assert time.perf_counter() - start < 5.0
    msn = matrix_spectra(msn_matrix(g))[0]
    assert msn.method == "exact" and msn.integral is True
    assert [m for _, m in msn.numeric.pairs] == [3747, 3]


def hypercube(d):
    return SimpleGraph.from_edges(2**d, [
        (u, u | 1 << i) for u in range(2**d) for i in range(d) if not u >> i & 1])


def test_exact_spectrum_bounded_time_on_a_twin_free_block(monkeypatch):
    # the hypercube Q8: 256 vertices, twin-free, so the block is its own
    # quotient and goes to the characteristic polynomial whole.  It is
    # 8-regular with 8 + 28 vertices within distance two of each, so
    # delta2 is 8 * 36 and its msn matrix is 288 A, with spectrum
    # 288 (8 - 2i) of multiplicity C(8, i); the polynomial is A's.  Its cn
    # matrix is 2 A2 on each of its two 128-vertex halves, where
    # A2 = (A**2 - 8 I) / 2 joins the vertices at distance two, with
    # spectrum (8 - 2i)**2 - 8 of multiplicity C(8, i).  The coefficient
    # bound from A's squared Frobenius norm, 2048, takes 19 primes, where
    # the row-sum bound took 30
    g = hypercube(8)
    m = msn_matrix(g)
    ((form, _),) = m.forms
    assert spectra._twin_quotient(form)[1] is form[1]
    calls = recorded_charpoly_calls(monkeypatch)
    primes = []
    mods = charpoly._power_sum_mods
    monkeypatch.setattr(charpoly, "_power_sum_mods",
                        lambda a, stack: primes.extend(stack) or mods(a, stack))
    start = time.perf_counter()
    got = exact_spectrum(m)[0]
    assert time.perf_counter() - start < 5.0
    assert blocks_passed(calls) == [g.adjacency.astype(int).tolist()]
    assert len(primes) < 30
    assert got.pairs == tuple((288 * (8 - 2 * i), math.comb(8, i)) for i in range(8, -1, -1))
    start = time.perf_counter()
    got = exact_spectrum(cn_matrix(g))[0]
    assert time.perf_counter() - start < 5.0
    want = Counter()
    for i in range(9):
        want[(8 - 2 * i) ** 2 - 8] += math.comb(8, i)
    assert got.pairs == tuple(sorted(want.items()))


@pytest.mark.parametrize("name, g, scale", [
    ("C6", cycles(6), 8), ("Clebsch", clebsch_graph(), 75), ("Q4", hypercube(4), 40)])
def test_block_roots_divide_the_block_by_its_gcd(monkeypatch, name, g, scale):
    # a component on which delta2 is constant has the msn block delta2 A:
    # the polynomial is A's, and its roots come back times delta2
    ((block, _),) = expanded_blocks(msn_matrix(g))
    adjacency = g.adjacency.astype(np.int64)
    assert (block == scale * adjacency).all()
    (poly,) = charpoly_dense([adjacency])
    roots, residual = integer_roots(poly, gershgorin_bound(adjacency))
    assert residual == 0
    calls = recorded_charpoly_calls(monkeypatch)
    assert exact_spectrum(msn_matrix(g))[0].pairs == tuple((scale * v, m) for v, m in roots)
    assert blocks_passed(calls) == [adjacency.tolist()]


def test_exact_spectrum_makes_no_float_call(monkeypatch):
    # twin-free blocks, integral or not, settled by the polynomial while
    # every float eigensolve numpy offers raises
    graphs = [cycles(6), cycles(5, 7), clebsch_graph(), hypercube(4)]
    graphs += [random_graph(seed, 8 + seed) for seed in range(6)]
    matrices = [f(g) for g in graphs for f in (msn_matrix, cn_matrix)]
    assert sum(spectra._twin_quotient(form)[1] is form[1] for m in matrices
               for form, _ in m.forms) >= 10
    want = [exact_spectrum(m)[0] for m in matrices]

    def raising(*args, **kwargs):
        raise AssertionError("the exact route made a float call")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, raising)
    fresh = [f(g) for g in graphs for f in (msn_matrix, cn_matrix)]
    assert [exact_spectrum(m)[0] for m in fresh] == want
    with pytest.raises(AssertionError, match="float call"):
        numeric_spectrum(fresh[0])


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
        result = matrix_spectra(m)[0]
        whole = np.linalg.eigvalsh(values.astype(np.float64))
        merged = [v for v, mult in result.numeric.pairs for _ in range(mult)]
        # a cluster mean sits within n cluster tolerances of each member
        tol = NUMERIC_CLUSTER_TOL * max(1.0, float(values.max(initial=0)) * m.n) * m.n
        assert np.allclose(merged, whole, rtol=0, atol=tol + 1e-9)
        if m.n <= 16:
            assert result.exact == charpoly_oracle(values)


def test_matrix_spectra_above_cap(monkeypatch):
    # C6 is twin-free, and its msn spectrum 16, 8^2, -8^2, -16 is integral
    monkeypatch.setenv("MSNRING_EXACT_CAP", "5")
    result = matrix_spectra(msn_matrix(cycles(6)))[0]
    assert result.exact is None
    assert result.method == "numeric" and result.integral is None
    assert result.spectrum is result.numeric
    monkeypatch.setenv("MSNRING_EXACT_CAP", "6")
    result = matrix_spectra(msn_matrix(cycles(6)))[0]
    assert result.method == "exact" and result.integral is True
    assert result.spectrum is result.exact


def test_matrix_spectra_retries_each_matrix_when_the_cap_declines_one(monkeypatch):
    # K_{3,4}: the msn block is the whole 7-vertex graph, two classes of
    # open twins that the cap bounds whole, while the cn matrix splits into
    # its two sides, 4 (J - I) on 3 vertices and 3 (J - I) on 4, each one
    # twin class.
    # Under a cap of 5 the msn matrix is declined and the cn matrix is
    # still settled exactly
    g = SimpleGraph.from_edges(7, [(i, 3 + j) for i in range(3) for j in range(4)])
    msn, cn = msn_matrix(g), cn_matrix(g)
    monkeypatch.setenv("MSNRING_EXACT_CAP", "5")
    with pytest.raises(ExactCapExceeded, match="support block of dimension 7"):
        exact_spectrum(msn, cn)
    both = matrix_spectra(msn, cn)
    assert [s.method for s in both] == ["numeric", "exact"]
    assert both == (matrix_spectra(msn)[0], matrix_spectra(cn)[0])
    assert both[1].exact.pairs == ((-4, 2), (-3, 3), (8, 1), (9, 1))
    report = classify(g)
    assert (report.msn_method, report.cn_method, report.msn_integral) == ("numeric", "exact", None)


def test_matrix_spectra_not_fully_integral():
    result = matrix_spectra(msn_matrix(path_graph(3)))[0]
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
        assert spectra_agree(exact_spectrum(m)[0], numeric_spectrum(m))


def test_exact_spectrum_bounded_time_on_dense_random_graph():
    # coefficient growth in the exact path would turn this into minutes
    g = random_graph(64, 64, p=0.5)
    assert len(g.components) == 1
    start = time.perf_counter()
    for m in (msn_matrix(g), cn_matrix(g)):
        assert spectra_agree(exact_spectrum(m)[0], numeric_spectrum(m))
    assert time.perf_counter() - start < 10.0


def test_spectra_agree_rejects_mismatch():
    exact = SpectrumMultiset(True, ((-1, 2), (2, 1)))
    off_value = SpectrumMultiset(False, ((-1.0, 2), (2.5, 1)))
    off_mult = SpectrumMultiset(False, ((-1.0, 1), (1.0, 1), (2.0, 1)))
    assert not spectra_agree(exact, off_value)
    assert not spectra_agree(exact, off_mult)


def loop_numeric_pairs(m):
    """numeric_spectrum's clustering as one Python loop over the merged
    eigenvalues, kept as the reference: same sums in the same order."""
    eigs = np.sort(np.concatenate([
        np.repeat(values, count) for values, (_, count) in zip(m.eigenvalues, m.forms)]))
    tol = spectra._cluster_tol(max(block.max() for block, _ in expanded_blocks(m)), m.n)
    clusters = [[float(eigs[0])]]
    for v in eigs[1:]:
        if float(v) - clusters[-1][-1] < tol:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    return tuple((sum(c) / len(c), len(c)) for c in clusters)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 3)),
                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1), st.booleans())
def test_numeric_clusters_match_the_loop(parts, perm_seed, cliques):
    # repeated random blocks, or clique unions, whose repeated eigenvalues
    # differ in their last bits
    if cliques:
        g = clique_union_graph(CliqueUnion.of((size, copies) for _, size, copies in parts))
    else:
        g = disjoint_union(parts, perm_seed)
    for m in (msn_matrix(g), cn_matrix(g)):
        assert numeric_spectrum(m).pairs == loop_numeric_pairs(m)


def test_spectra_agree_scales_its_tolerance_with_the_spectrum():
    # 3K1250's msn spectrum and the values the float eigensolve gives for
    # it, 5e-6 off the largest: beyond the absolute 1e-6, not the scaled one
    exact = SpectrumMultiset(True, ((-1560001, 3747), (1948441249, 3)))
    numeric = SpectrumMultiset(False, ((-1560001.0000000002, 3747), (1948441248.999995, 3)))
    assert spectra.match_tol(numeric) == pytest.approx(1.948441249e-3)
    assert spectra_agree(exact, numeric)
    # an eigenvalue off by 1 at that scale still disagrees, either one
    assert not spectra_agree(exact, SpectrumMultiset(False, ((-1560001.0, 3747),
                                                             (1948441248.0, 3))))
    assert not spectra_agree(exact, SpectrumMultiset(False, ((-1560000.0, 3747),
                                                             (1948441249.0, 3))))
    # small spectra keep the absolute tolerance
    assert spectra.match_tol(SpectrumMultiset(False, ((-2.0, 1), (2.0, 1)))) == 1e-6


def test_spectra_agree_partial_integer_part():
    out = exact_spectrum(msn_matrix(path_graph(3)))[0]
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
    assert (rep.msn_spectrum, rep.cn_spectrum) == exact_spectrum(msn_matrix(g), cn_matrix(g))
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
    # read the one k x k count of each: the path's ends are open twins,
    # so its census has 2 classes of 3 vertices
    edges = [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8)]
    edges += list(itertools.combinations(range(9, 13), 2))
    g = SimpleGraph.from_edges(13, edges)
    counted = []

    def counting(labels, census):
        counted.append((len(labels), len(census)))
        return counts(labels, census)

    counts = graphs.twin_counts
    monkeypatch.setattr(graphs, "twin_counts", counting)
    assert classify(g).decomposition is None  # so both matrices are built
    assert counted == [(3, 2), (3, 1), (4, 1)]
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
        msn, cn = matrix_spectra(msn_matrix(g), cn_matrix(g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert msn.exact == spectra.clique_union_msn_spectrum(parts)
    assert cn.exact == spectra.clique_union_cn_spectrum(parts)
    assert peak < n * n, f"peak {peak} bytes for n = {n}"


def test_blocks_split_each_distinct_part_once(monkeypatch):
    splits = []
    real = graphs.quotient_components

    def counting(labels, quotient):
        splits.append(len(labels))
        return real(labels, quotient)

    # each part of a clique union is one class, whose cn form needs no
    # split; a K2's zero form stands for two 1 x 1 pieces
    g = clique_union_graph(CliqueUnion(((2, 3), (3, 4), (5, 2))))
    monkeypatch.setattr(spectra, "quotient_components", counting)
    m = cn_matrix(g)
    k5 = 3 * (np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    assert [(b.tolist(), count) for b, count in expanded_blocks(m)] == [
        ([[0]], 6), ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 4), (k5.tolist(), 2)]
    assert splits == []
    # a K2 beside a triangle joined to a K5 by one edge: the second class,
    # on 8 vertices, is split once
    edges = [(0, 1), (2, 3), (2, 4), (3, 4), (4, 5)] + list(itertools.combinations(range(5, 10), 2))
    h = SimpleGraph.from_edges(10, edges)
    assert len(h.classes) == 2
    assert blocks(cn_matrix(h)) == dense(brute_cn(h))
    assert splits == [8]


def test_one_eigensolve_per_distinct_block(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    graphs = [clique_union_graph(CliqueUnion(((1, 2), (3, 4), (6, 2)))),
              disjoint_union([(5, 5, 3), (6, 4, 2)], 9), path_graph(5), cycles(5, 6, 7)]
    for g in graphs:
        for m in (msn_matrix(g), cn_matrix(g)):
            calls.clear()
            result = matrix_spectra(m)[0]
            result.numeric  # the numeric route runs on its first read
            assert len(calls) == len(expanded_blocks(m))
            assert sorted(calls) == sorted(b.shape for b, _ in expanded_blocks(m))
            assert spectra_agree(result.exact, result.numeric)
    # above the exact cap only the numeric route reads the eigensolve; the
    # cycles are twin-free, so their blocks of 5, 6 and 7 are their quotients
    monkeypatch.setenv("MSNRING_EXACT_CAP", "4")
    m = msn_matrix(graphs[3])
    calls.clear()
    result = matrix_spectra(m)[0]
    assert result.exact is None and result.spectrum is result.numeric
    assert len(calls) == len(expanded_blocks(m)) == 3


def test_numeric_route_runs_on_first_read(monkeypatch):
    # on exact-complete matrices, matrix_spectra and the reported spectrum
    # make no float call; the first read of numeric solves each distinct
    # form's whole block once, and later reads solve nothing
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    g = clique_union_graph(CliqueUnion(((2, 3), (3, 2), (5, 1))))
    for m in (msn_matrix(g), cn_matrix(g), msn_matrix(cycles(6))):
        calls.clear()
        result = matrix_spectra(m)[0]
        assert result.method == "exact" and result.spectrum is result.exact
        assert calls == []
        assert spectra_agree(result.exact, result.numeric)
        assert sorted(calls) == sorted((len(labels),) * 2 for (labels, _), _ in m.forms)
        assert result.numeric is result.numeric
        assert len(calls) == len(m.forms)


def test_numeric_spectrum_holds_one_float_block_at_a_time():
    # 6K500: each matrix is one 500 x 500 block, 1.91 MB in float64, built
    # from its 1 x 1 form for the solve, with no integer copy beside it
    parts = CliqueUnion(((500, 6),))
    g = clique_union_graph(parts)
    for m, closed_form in ((msn_matrix(g), spectra.clique_union_msn_spectrum),
                           (cn_matrix(g), spectra.clique_union_cn_spectrum)):
        tracemalloc.start()
        try:
            got = numeric_spectrum(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, f"peak {peak} bytes"
        assert spectra_agree(closed_form(parts), got)


def test_numeric_spectrum_reports_a_failed_eigensolve(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    m = cn_matrix(complete_graph(4))
    with pytest.raises(spectra.NoConvergence, match="symmetric eigensolve failed: no convergence"):
        numeric_spectrum(m)
    # the exact route still proves the spectrum from the polynomial
    assert exact_spectrum(m)[0].pairs == ((-2, 3), (6, 1))


def test_msn_needs_no_split_and_cn_splits_once_per_class(monkeypatch):
    splits = []
    real = graphs.quotient_components

    def counting(labels, quotient):
        splits.append(len(labels))
        return real(labels, quotient)

    g = disjoint_union([(5, 5, 3), (6, 4, 2), (7, 3, 1)], 4)
    classes = g.classes  # the graph's own labelling, before the patch
    monkeypatch.setattr(graphs, "quotient_components", counting)
    monkeypatch.setattr(spectra, "quotient_components", counting)
    msn_matrix(g)
    assert splits == []
    cn_matrix(g)
    # a class whose every pair shares a neighbour needs no split
    split = [len(labels) for (labels, _, _), (_, shared, _) in zip(classes, g.counts)
             if not ((shared > 0) | np.eye(len(shared), dtype=bool)).all()]
    assert splits == split and split


def test_relabelled_clique_union_is_one_class():
    parts = CliqueUnion(((100, 31),))
    edges = clique_union_graph(parts).edges()
    perm = np.random.default_rng(31).permutation(parts.n)
    g = SimpleGraph.from_edges(
        parts.n, [tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in edges])
    assert len(g.components) == 31
    assert len(g.classes) == 1
    labels, census, comps = g.classes[0]
    assert comps.shape == (31, 100)
    assert sorted(comps.ravel().tolist()) == list(range(parts.n))
    # one k x k count, for the one class: 98 neighbours shared inside it
    assert labels.tolist() == [0] * 100 and census.tolist() == [[True]]
    ((adjacency, shared, delta2),) = g.counts
    assert (adjacency.tolist(), shared.tolist(), delta2.tolist()) == ([[1]], [[98]], [99 ** 2])
    assert clique_decomposition(g) == parts
    assert [count for _, count in expanded_blocks(msn_matrix(g))] == [31]
    assert matrix_spectra(cn_matrix(g))[0].exact == spectra.clique_union_cn_spectrum(parts)
