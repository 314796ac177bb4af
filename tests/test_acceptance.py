"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass line with its headline numbers; stated
time budgets are asserted with a monotonic clock around the whole
criterion.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from msnring.graphs import (
    CliqueUnion,
    SimpleGraph,
    clique_decomposition,
    commuting_graph,
)
from msnring.rings import (
    center,
    centralizer_count,
    commuting_probability,
    direct_product,
    is_cc_ring,
    matrix_ring_2x2,
    noncentral_centralizer_sizes,
    ring_noncomm_p2,
    upper_triangular_ring,
    zn,
)
from msnring.spectra import (
    cn_matrix,
    exact_spectrum,
    msn_matrix,
    numeric_spectrum,
    spectra_agree,
)
from msnring.theorems import TheoremId
from msnring.verification import (
    Verdict,
    property_suite_clique_unions,
    sweep,
    verify_ring,
)


def centralizer_energy_formula(ring):
    """2 sum (|S_i| - m - 1)^3 over the distinct non-central centralizers."""
    m = center(ring).size
    return 2 * sum((s - m - 1) ** 3 for s in noncentral_centralizer_sizes(ring))


def complete_graph(n):
    return SimpleGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_criterion_01_complete_graph_baselines():
    start = time.perf_counter()
    for n in range(2, 13):
        g = complete_graph(n)
        msn = exact_spectrum(msn_matrix(g))
        expected = tuple(sorted([(-((n - 1) ** 2), n - 1), ((n - 1) ** 3, 1)]))
        assert msn.exact and msn.pairs == expected, n
        assert msn.energy() == 2 * (n - 1) ** 3, n
        cn = exact_spectrum(cn_matrix(g))
        assert cn.exact and cn.energy() == 2 * (n - 1) * (n - 2), n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 01: PASS - complete graphs n=2..12 exact in {elapsed:.3f}s")


def test_criterion_02_order_p_squared():
    start = time.perf_counter()
    energies = {2: 0, 3: 8, 5: 324}
    for p in (2, 3, 5):
        rep = verify_ring(ring_noncomm_p2(p), TheoremId.C2_4A)
        assert rep.verdict is Verdict.PASS, rep.detail
        want = CliqueUnion.of([(p - 1, p + 1)])
        assert str(rep.computed.decomposition) == str(want)
        assert rep.computed.msn_energy == energies[p]
        assert rep.computed.msn_energy == 2 * (p + 1) * (p - 2) ** 3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 02: PASS - energies 0/8/324 for p=2,3,5 in {elapsed:.3f}s")


def test_criterion_03_order_p_cubed_with_unity():
    start = time.perf_counter()
    expected = {2: ("3K2", 6), 3: ("4K6", 1000), 5: ("6K20", 82308)}
    for p in (2, 3, 5):
        rep = verify_ring(upper_triangular_ring(p), TheoremId.C2_4B)
        assert rep.verdict is Verdict.PASS, rep.detail
        dec, energy = expected[p]
        assert str(rep.computed.decomposition) == dec
        assert rep.computed.msn_energy == energy
        assert energy == 2 * (p + 1) * ((p - 1) * p - 1) ** 3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 03: PASS - energies 6/1000/82308 for p=2,3,5 in {elapsed:.3f}s")


def test_criterion_04_order_p_fourth_small_center():
    start = time.perf_counter()
    expected = {2: ("7K2", 14), 3: ("13K6", 3250)}
    for p in (2, 3):
        rep = verify_ring(matrix_ring_2x2(p), TheoremId.T3_1A)
        assert rep.verdict is Verdict.PASS, rep.detail
        dec, energy = expected[p]
        assert str(rep.computed.decomposition) == dec
        assert rep.computed.msn_energy == energy
        assert rep.computed.decomposition in rep.predicted.decompositions
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 04: PASS - 7K2 and 13K6, energies 14/3250 in {elapsed:.3f}s")


def test_criterion_05_order_p_fourth_square_center():
    start = time.perf_counter()
    ring = direct_product(upper_triangular_ring(2), zn(2))
    rep = verify_ring(ring, TheoremId.T3_1B)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert str(rep.computed.decomposition) == "3K4"
    assert rep.computed.msn_energy == 162
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 05: PASS - 3K4 with energy 162 in {elapsed:.3f}s")


def test_criterion_06_order_p_fifth():
    start = time.perf_counter()
    ring = direct_product(matrix_ring_2x2(2), zn(2))
    rep = verify_ring(ring, TheoremId.T3_3A)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert str(rep.computed.decomposition) == "7K4"
    assert rep.computed.msn_energy == 378
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 06: PASS - 7K4 with energy 378 in {elapsed:.3f}s")


def test_criterion_07_order_p_cubed_q():
    start = time.perf_counter()
    ring = direct_product(upper_triangular_ring(2), zn(3))
    rep = verify_ring(ring, TheoremId.T4_3)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert str(rep.computed.decomposition) == "3K6"
    assert rep.computed.msn_energy == 750
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 07: PASS - 3K6 with energy 750 in {elapsed:.3f}s")


def test_criterion_08_commuting_probability_and_counts():
    for p in (2, 3, 5):
        pr = commuting_probability(ring_noncomm_p2(p))
        assert pr == Fraction(p * p + p - 1, p ** 3), p
    assert centralizer_count(ring_noncomm_p2(2)) == 4
    print("criterion 08: PASS - Pr = (p^2+p-1)/p^3 for p=2,3,5; 4 centralizers at p=2")


def test_criterion_09_centralizer_energy_identity():
    instances = [
        ring_noncomm_p2(2), ring_noncomm_p2(3), ring_noncomm_p2(5),
        upper_triangular_ring(2), upper_triangular_ring(3), upper_triangular_ring(5),
        matrix_ring_2x2(2), matrix_ring_2x2(3),
        direct_product(upper_triangular_ring(2), zn(2)),
        direct_product(matrix_ring_2x2(2), zn(2)),
        direct_product(upper_triangular_ring(2), zn(3)),
    ]
    for ring in instances:
        assert is_cc_ring(ring) is True, ring.name
        spectrum = exact_spectrum(msn_matrix(commuting_graph(ring)))
        assert spectrum.exact, ring.name
        assert spectrum.energy() == centralizer_energy_formula(ring), ring.name
    print(f"criterion 09: PASS - energy identity on {len(instances)} cc-ring instances")


def test_criterion_10_property_suite():
    start = time.perf_counter()
    report = property_suite_clique_unions(seed=20260814, trials=500,
                                          r_max=4, m_max=8, l_max=4,
                                          enumerate_total=12)
    assert report.enumerated == 271
    assert report.checked == 271 + 500
    assert report.counterexamples == ()
    assert report.passes == report.checked
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 10: PASS - {report.checked} clique unions, "
          f"0 counterexamples in {elapsed:.1f}s")


def test_criterion_11_exact_numeric_agreement():
    start = time.perf_counter()
    checked = 0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        n = 4 + i % 21
        density = 0.2 + 0.6 * (i % 7) / 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        g = SimpleGraph.from_edges(n, edges)
        for matrix in (msn_matrix(g), cn_matrix(g)):
            assert spectra_agree(exact_spectrum(matrix), numeric_spectrum(matrix),
                                 tol=1e-6), (i, n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 11: PASS - {checked} matrices from 200 graphs agree "
          f"within 1e-6 in {elapsed:.1f}s")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a 2-path endpoint and an isolated-edge endpoint see the same local "
           "structure, so no second-neighborhood convention can zero the path "
           "matrix while keeping single-edge components at energy 2(m-1)^3; "
           "the implemented distance-two convention keeps the latter",
)
def test_criterion_12_path_msn_zero():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    matrix = msn_matrix(g)
    assert not any(block.any() for block, _ in matrix.blocks)
    assert numeric_spectrum(matrix).energy() == 0


def test_criterion_12_negative_controls():
    rep = verify_ring(zn(8), TheoremId.T2_1)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.detail == "ring is commutative"
    reports = sweep([TheoremId.T4_1A, TheoremId.T4_1B], [2, 3], [2, 3])
    assert reports and all(r.verdict is Verdict.UNSUPPORTED for r in reports)
    print("criterion 12: PASS - commutative ring rejected; p^2 q sweep unsupported "
          "without a user table (path check reported separately)")


def test_clique_decompositions_behind_the_headline_numbers():
    # the decompositions quoted above, recomputed without the verifier
    cases = [
        (matrix_ring_2x2(2), ((2, 7),)),
        (upper_triangular_ring(3), ((6, 4),)),
        (direct_product(matrix_ring_2x2(2), zn(2)), ((4, 7),)),
    ]
    for ring, parts in cases:
        dec = clique_decomposition(commuting_graph(ring))
        assert dec == CliqueUnion(parts)
