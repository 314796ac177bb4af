"""Verdicts of the ring verifier, the sweep driver, and the property suite."""

import json

import numpy as np
import pytest

from msnring.graphs import (
    CliqueUnion,
    NotCliqueUnion,
    SimpleGraph,
    clique_decomposition,
    commuting_graph,
)
from msnring.rings import (
    NotPrime,
    direct_product,
    has_unity,
    matrix_ring_2x2,
    noncentral_centralizer_sizes,
    parse_ring_spec,
    ring_from_table,
    ring_noncomm_p2,
    save_ring,
    upper_triangular_ring,
    zn,
)
from msnring import spectra
from msnring.charpoly import charpoly_dense
from msnring.spectra import classify
from msnring.theorems import TheoremId, clique_union_msn_energy
from msnring.verification import (
    FAMILIES,
    REPORT_CSV_HEADER,
    PropertySuiteReport,
    Verdict,
    VerificationReport,
    builtin_instance,
    center_is_field,
    enumerate_clique_unions,
    property_suite_clique_unions,
    sweep,
    verify_ring,
)


def doctored_ring(moduli, commuting_pairs, name, central=()):
    """Zero product table except asymmetric entries breaking every
    nonzero non-central pair outside commuting_pairs.  Not a ring;
    bypasses validation to exercise failure paths the genuine
    constructions never reach."""
    n = int(np.prod(moduli))
    table = np.zeros((n, n), dtype=np.int64)
    keep = {tuple(sorted(pair)) for pair in commuting_pairs}
    skip = {0, *central}
    for a in range(1, n):
        for b in range(a + 1, n):
            if a in skip or b in skip or (a, b) in keep:
                continue
            table[a, b] = 1
            table[b, a] = 2
    return ring_from_table(moduli, table, name=name, validate=False)


# --- PASS verdicts on the built-in families ---


@pytest.mark.parametrize("theorem,ring_factory,kwargs", [
    (TheoremId.T2_1, lambda: ring_noncomm_p2(2), {}),
    (TheoremId.T2_1, lambda: ring_noncomm_p2(3), {"p": 3}),
    (TheoremId.C2_2A, lambda: ring_noncomm_p2(2), {}),
    (TheoremId.C2_2B, lambda: ring_noncomm_p2(3), {}),
    (TheoremId.C2_2D, lambda: ring_noncomm_p2(5), {}),
    (TheoremId.C2_3A, lambda: ring_noncomm_p2(2), {}),
    (TheoremId.C2_3B, lambda: ring_noncomm_p2(3), {}),
    (TheoremId.C2_4A, lambda: ring_noncomm_p2(3), {}),
    (TheoremId.C2_4B, lambda: upper_triangular_ring(2), {}),
    (TheoremId.C2_4B, lambda: upper_triangular_ring(3), {}),
    (TheoremId.T3_1A, lambda: matrix_ring_2x2(2), {}),
    (TheoremId.T3_1B, lambda: direct_product(upper_triangular_ring(2), zn(2)), {}),
    (TheoremId.T3_3A, lambda: direct_product(matrix_ring_2x2(2), zn(2)), {}),
    (TheoremId.T3_3B, lambda: direct_product(upper_triangular_ring(2), zn(4)), {}),
    (TheoremId.T4_3, lambda: direct_product(upper_triangular_ring(2), zn(3)), {}),
    (TheoremId.T5_1, lambda: upper_triangular_ring(3), {}),
    (TheoremId.T5_1, lambda: matrix_ring_2x2(2), {}),
])
def test_builtin_instances_pass(theorem, ring_factory, kwargs):
    rep = verify_ring(ring_factory(), theorem, **kwargs)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert rep.computed.msn_integral is True
    assert not rep.computed.msn_hyperenergetic
    assert rep.computed.decomposition in rep.predicted.decompositions
    assert rep.computed.msn_energy in rep.predicted.energies()


def test_pass_report_contents():
    rep = verify_ring(upper_triangular_ring(2), TheoremId.C2_4B)
    assert rep.verdict is Verdict.PASS
    assert rep.ring_spec == "ut2:p=2"
    assert rep.detail == "3K2; msn energy 6"
    assert rep.computed.n == 6
    assert rep.computed.cn_energy == 0
    assert dict(rep.params)["p"] == 2
    # spectra in the report round-trip through JSON
    assert rep.to_json_dict()["computed"]["msn_spectrum"] == {"exact": True,
                                                              "pairs": [[-1, 3], [1, 3]]}


def test_exact_cap_applies_per_block(monkeypatch):
    # 4K6 on 24 vertices: every block fits under a cap of 6
    monkeypatch.setenv("MSNRING_EXACT_CAP", "6")
    rep = verify_ring(upper_triangular_ring(3), TheoremId.C2_4B)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert rep.computed.msn_method == "exact"
    assert rep.computed.cn_method == "exact"
    assert rep.computed.msn_integral is True
    assert rep.to_json_dict()["computed"]["msn_spectrum"] == {"exact": True,
                                                              "pairs": [[-25, 20], [125, 4]]}


def test_above_cap_passes_on_the_numeric_route(monkeypatch):
    # no closed form stands in for the computed spectrum above the cap; a
    # K6 block is one twin class, a 1 x 1 quotient, so only a cap of 0
    # puts this ring's clique blocks above it
    monkeypatch.setenv("MSNRING_EXACT_CAP", "0")
    rep = verify_ring(upper_triangular_ring(3), TheoremId.C2_4B)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert rep.computed.msn_method == "numeric"
    assert rep.computed.cn_method == "numeric"
    assert rep.computed.msn_integral is None
    assert rep.computed.msn_spectrum.exact is False
    assert rep.computed.msn_energy == pytest.approx(1000)


@pytest.mark.parametrize("theorem, p", [
    (TheoremId.T2_1, 3), (TheoremId.T3_1A, 2), (TheoremId.C2_4B, 3), (TheoremId.T3_3B, 2)])
def test_verify_ring_solves_each_distinct_form_of_both_matrices(monkeypatch, theorem, p):
    # a PASS rests on both routes: verify_ring reads the numeric spectrum
    # of msn and of cn, one whole-block eigensolve per distinct form, and
    # cannot pass when that solve fails
    ring = builtin_instance(theorem, p)
    graph = commuting_graph(ring)
    shapes = sorted((len(labels),) * 2 for m in (spectra.msn_matrix(graph),
                                                 spectra.cn_matrix(graph))
                    for (labels, _), _ in m.forms)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    rep = verify_ring(ring, theorem)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert rep.computed.msn_method == rep.computed.cn_method == "exact"
    assert sorted(calls) == shapes

    def raising(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", raising)
    with pytest.raises(spectra.NoConvergence, match="symmetric eigensolve failed"):
        verify_ring(ring, theorem)


# --- HYPOTHESIS_NOT_MET on genuine rings ---


def test_commutative_ring_is_rejected():
    rep = verify_ring(zn(6), TheoremId.T2_1)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.detail == "ring is commutative"


def test_wrong_centralizer_count():
    rep = verify_ring(ring_noncomm_p2(3), TheoremId.C2_2A)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.detail == "ring has 5 centralizers, not 4"


def test_wrong_order_shape():
    rep = verify_ring(upper_triangular_ring(2), TheoremId.C2_4A)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert "does not have exponent 2" in rep.detail
    rep = verify_ring(upper_triangular_ring(2), TheoremId.T4_3)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert "is not of the form p^3 q" in rep.detail


def test_wrong_center_size():
    rep = verify_ring(matrix_ring_2x2(2), TheoremId.T3_1B)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.detail == "|Z(R)| = 2, not 4"


def test_missing_unity():
    rep = verify_ring(ring_noncomm_p2(2), TheoremId.C2_4B)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.detail == "ring has no unity"


def test_conflicting_parameters():
    rep = verify_ring(ring_noncomm_p2(3), TheoremId.T2_1, p=2)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert "differs from [2, 2]" in rep.detail
    rep = verify_ring(ring_noncomm_p2(3), TheoremId.C2_3B, p=2)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert "smallest prime divisor" in rep.detail


def test_non_cc_ring_rejected_for_t5_1():
    rep = verify_ring(
        direct_product(matrix_ring_2x2(2), matrix_ring_2x2(2)), TheoremId.T5_1)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert "non-commutative centralizer" in rep.detail


# --- FAIL on doctored multiplication tables ---


def test_fail_wrong_component_count():
    # order 4, center {0, 2}: two isolated vertices where the closed
    # form demands three
    bad = doctored_ring((2, 2), [], name="doctored-4", central=(2,))
    assert np.flatnonzero(bad.central).tolist() == [0, 2]
    rep = verify_ring(bad, TheoremId.C2_4A)
    assert rep.verdict is Verdict.FAIL
    assert "not among the predicted decompositions" in rep.detail
    assert str(rep.computed.decomposition) == "2K1"
    assert "3K1" in rep.to_json_dict()["predicted"]["decompositions"]


def test_fail_not_a_clique_union():
    # path on 1-2-3-4 among eight non-central vertices
    bad = doctored_ring((3, 3), [(1, 2), (2, 3), (3, 4)], name="doctored-9")
    assert np.flatnonzero(bad.central).tolist() == [0]
    rep = verify_ring(bad, TheoremId.T2_1)
    assert rep.verdict is Verdict.FAIL
    assert rep.detail.startswith("not a union of cliques")
    # the same full report classify gives, with no decomposition
    assert rep.computed == classify(commuting_graph(bad))
    assert rep.computed.n == 8
    assert rep.computed.decomposition is None
    assert rep.computed.msn_integral is False
    assert rep.predicted is None


# --- inferred t for the p^2 q family ---


def test_a_graph_off_the_clique_unions_fails_with_its_exact_spectra(monkeypatch):
    # eight non-central vertices on a cycle: the msn block is a multiple of
    # the 8-cycle's adjacency, and the cn matrix is two 4-cycles, so both
    # matrices reach the polynomial, in one call; a clique union sends
    # none there
    bad = doctored_ring((3, 3), [(i, i % 8 + 1) for i in range(1, 9)], name="doctored-c8")
    calls = []

    def recorded(blocks):
        calls.append([np.asarray(b).shape for b in blocks])
        return charpoly_dense(blocks)

    monkeypatch.setattr(spectra, "charpoly_dense", recorded)
    rep = verify_ring(bad, TheoremId.T2_1)
    assert rep.verdict is Verdict.FAIL
    assert rep.detail.startswith("not a union of cliques")
    assert calls == [[(8, 8), (4, 4)]]
    # the 8-cycle's spectrum holds +-sqrt(2), so msn falls back to the
    # numeric route; the 4-cycles' is integral and exact
    assert (rep.computed.msn_integral, rep.computed.msn_method) == (False, "numeric")
    assert rep.computed.cn_method == "exact"
    assert rep.computed.cn_spectrum.pairs == ((-2, 2), (0, 4), (2, 2))
    calls.clear()
    assert verify_ring(ring_noncomm_p2(3), TheoremId.T2_1, p=3).verdict is Verdict.PASS
    assert calls == []


def test_t4_1a_infers_t_from_uniform_components():
    bad = doctored_ring((2, 2, 3), [], name="doctored-12")
    assert np.flatnonzero(bad.central).tolist() == [0]
    rep = verify_ring(bad, TheoremId.T4_1A)
    assert rep.verdict is Verdict.PASS
    assert dict(rep.params)["t"] == 2
    assert str(rep.computed.decomposition) == "11K1"


def test_t4_1a_mixed_sizes_need_explicit_t():
    bad = doctored_ring((2, 2, 3), [(1, 2)], name="doctored-12-mixed")
    rep = verify_ring(bad, TheoremId.T4_1A)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert "no single t applies" in rep.detail


def test_t4_1a_explicit_bad_t():
    bad = doctored_ring((2, 2, 3), [], name="doctored-12")
    rep = verify_ring(bad, TheoremId.T4_1A, t=6)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert "does not divide" in rep.detail


def test_t4_1b_on_doctored_instance():
    bad = doctored_ring((2, 2, 3), [], name="doctored-12")
    rep = verify_ring(bad, TheoremId.T4_1B)
    assert rep.verdict is Verdict.PASS
    assert str(rep.computed.decomposition) == "11K1"


# --- center_is_field ---


def test_center_is_field():
    assert center_is_field(upper_triangular_ring(2))  # center is F_2
    assert not center_is_field(ring_noncomm_p2(2))  # trivial center
    assert not center_is_field(direct_product(upper_triangular_ring(2), zn(4)))


def table_center_is_field(table):
    """center_is_field by element loops over a materialised table."""
    n = len(table)
    z = [a for a in range(n) if all(table[a, b] == table[b, a] for b in range(n))]
    nonzero = [a for a in z if a]
    unity = [e for e in nonzero if all(table[e, x] == x == table[x, e] for x in z)]
    return (bool(nonzero) and all(table[a, b] in z for a in z for b in z) and bool(unity)
            and all(table[a, b] for a in nonzero for b in nonzero))


@pytest.mark.parametrize("spec", [
    "prod(mat2:p=3,zn:n=3)",               # commutative second factor
    "prod(zn:n=4,ut2:p=2)",                # commutative first factor
    "prod(nc_p2:p=2,ut2:p=2)",             # two non-commutative factors
    "prod(prod(ut2:p=2,zn:n=2),zn:n=3)",   # nested product
    "prod(nc_p2:p=2,zn:n=2)",              # no unity
    "prod(ut2:p=3,zn:n=1)",                # a center that is a field
])
def test_product_factor_route_matches_its_table(spec, same_graph_as_mask):
    ring = parse_ring_spec(spec)
    graph = commuting_graph(ring)
    (labels, quotient), central = ring.centralizer_classes, ring.central
    rows = ring.rows(np.arange(ring.order))
    unity, field = has_unity(ring), center_is_field(ring)
    assert "table" not in ring.__dict__  # all of the above came from the factors
    table = ring.table
    mask = table == table.T
    noncentral = ~mask.all(axis=1)
    idx = np.arange(ring.order)
    units = [e for e in idx if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)]
    assert np.array_equal(quotient[labels][:, labels], mask)
    assert np.array_equal(central, ~noncentral)
    assert rows.dtype == np.int32 and np.array_equal(rows, table)
    assert unity == (int(units[0]) if units else None)
    assert field == table_center_is_field(table)
    same_graph_as_mask(graph, mask)


def noncommutative_products(vertices):
    """prod(R,S) for the ordered pairs of non-commutative built-ins whose
    commuting graph has at most `vertices` vertices."""
    factors = [parse_ring_spec(spec) for spec in (
        "nc_p2:p=2", "nc_p2:p=3", "nc_p2:p=5", "nc_p2:p=7", "ut2:p=2", "ut2:p=3",
        "mat2:p=2")]
    return [f"prod({r.name},{s.name})" for r in factors for s in factors
            if r.order * s.order - int(r.central.sum()) * int(s.central.sum()) <= vertices]


@pytest.mark.parametrize("spec", noncommutative_products(256))
def test_product_graph_from_classes_matches_the_mask_graph(spec, same_graph_as_mask):
    ring = parse_ring_spec(spec)
    graph = commuting_graph(ring)
    assert "table" not in ring.__dict__
    table = ring.table
    same_graph_as_mask(graph, table == table.T)


def test_table_ring_graph_from_classes_matches_the_mask_graph(tmp_path, same_graph_as_mask):
    path = tmp_path / "ring.json"
    save_ring(parse_ring_spec("prod(nc_p2:p=2,ut2:p=2)"), path)
    ring = parse_ring_spec(f"file:{path}")
    assert ring.factors is None and ring.matrix is None
    graph = commuting_graph(ring)
    assert isinstance(clique_decomposition(graph), NotCliqueUnion)
    same_graph_as_mask(graph, ring.table == ring.table.T)


@pytest.mark.parametrize("theorem", [TheoremId.T3_3A, TheoremId.T3_3B])
def test_verify_ring_memory_stays_below_n_squared(theorem):
    import tracemalloc

    ring = builtin_instance(theorem, 5)
    tracemalloc.start()
    try:
        report = verify_ring(ring, theorem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.PASS, report.detail
    n = report.computed.n
    assert peak < n * n, f"peak {peak} bytes for n = {n}"


@pytest.mark.parametrize("theorem", [TheoremId.T3_3A, TheoremId.T3_3B])
def test_verify_ring_never_builds_the_product_table(theorem):
    ring = builtin_instance(theorem, 5)
    assert ring.order == 3125
    rep = verify_ring(ring, theorem)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert "table" not in ring.__dict__


# --- sweep ---


def test_sweep_pass_rows_and_determinism():
    first = sweep([TheoremId.T2_1, TheoremId.C2_4B], [2, 3])
    second = sweep([TheoremId.T2_1, TheoremId.C2_4B], [2, 3])
    assert [r.to_json() for r in first] == [r.to_json() for r in second]
    assert [r.verdict for r in first] == [Verdict.PASS] * 4
    assert [r.ring_spec for r in first] == [
        "nc_p2:p=2", "nc_p2:p=3", "ut2:p=2", "ut2:p=3"]


def test_sweep_unsupported_reasons():
    rep, = sweep([TheoremId.C2_2A], [3])
    assert rep.verdict is Verdict.UNSUPPORTED
    assert rep.detail == "no built-in ring family realizes these hypotheses"

    rep, = sweep([TheoremId.T4_3], [3], [3])
    assert rep.verdict is Verdict.UNSUPPORTED
    assert rep.detail == "p and q must be distinct primes"

    rep, = sweep([TheoremId.T4_3], [2])
    assert rep.verdict is Verdict.UNSUPPORTED
    assert rep.detail == "theorem needs a q range"

    rep, = sweep([TheoremId.T2_1], [4])
    assert rep.verdict is Verdict.UNSUPPORTED
    assert "not prime" in rep.detail

    rep, = sweep([TheoremId.T3_1A], [11])
    assert rep.verdict is Verdict.UNSUPPORTED
    assert "above the universe cap" in rep.detail
    assert rep.ring_spec == "none"


@pytest.mark.parametrize("theorem,shape", [
    (TheoremId.T4_1A, "p^2 q with |Z(R)| = 1"),
    (TheoremId.T4_1B, "p^2 q with |Z(R)| = 1"),
    (TheoremId.T4_4A, "p^3 q with |Z(R)| = p^2"),
    (TheoremId.T4_4B, "p^3 q with |Z(R)| = p^2"),
    (TheoremId.T4_4C, "p^3 q with |Z(R)| = p^2"),
])
def test_sweep_names_hypotheses_no_ring_meets(theorem, shape):
    rep, = sweep([theorem], [2], [3])
    assert rep.verdict is Verdict.UNSUPPORTED
    assert rep.detail.startswith(f"no ring has |R| = {shape}; ")
    assert rep.detail.endswith("so q divides |Z(R)|")


def test_sweep_mixed_grid():
    reports = sweep([TheoremId.T4_3], [2, 3], [2, 3])
    verdicts = {(dict(r.params)["p"], dict(r.params)["q"]): r.verdict
                for r in reports}
    assert verdicts == {
        (2, 2): Verdict.UNSUPPORTED,
        (2, 3): Verdict.PASS,
        (3, 2): Verdict.PASS,
        (3, 3): Verdict.UNSUPPORTED,
    }


def test_sweep_reports_a_q_that_is_not_prime_as_unsupported():
    reports = sweep([TheoremId.T4_3], [2], [0, -3, 1, 4, 3])
    assert [(r.verdict, r.detail, r.ring_spec) for r in reports[:4]] == [
        (Verdict.UNSUPPORTED, f"q = {q} is not prime", "none") for q in (0, -3, 1, 4)]
    assert reports[4].verdict is Verdict.PASS
    assert reports[4].ring_spec == "prod(ut2:p=2,zn:n=3)"


@pytest.mark.parametrize("call", [
    lambda: verify_ring(ring_noncomm_p2(3), "t2_1"),
    lambda: builtin_instance("t2_1", 3),
    lambda: sweep(["t2_1"], [3]),
], ids=["verify_ring", "builtin_instance", "sweep"])
def test_a_theorem_that_is_not_a_theorem_id_is_a_value_error(call):
    # the same error as predict gives, not a KeyError from the table
    with pytest.raises(ValueError, match=r"^no prediction for 't2_1'$"):
        call()


def test_a_bad_theorem_is_reported_before_any_hypothesis():
    with pytest.raises(ValueError, match="no prediction for 'c2_4b'"):
        verify_ring(zn(6), "c2_4b")


def test_builtin_instance_checks_p_before_q():
    with pytest.raises(NotPrime, match="^q = 4 is not prime$"):
        builtin_instance(TheoremId.T4_3, 2, 4)
    with pytest.raises(NotPrime, match="^p = 4 is not prime$"):
        builtin_instance(TheoremId.T4_3, 4, 6)


NO_MODEL = {TheoremId.T4_1A, TheoremId.T4_1B,
            TheoremId.T4_4A, TheoremId.T4_4B, TheoremId.T4_4C}


def test_families_table_has_one_row_per_theorem():
    assert list(FAMILIES) == list(TheoremId)
    assert {tid for tid, family in FAMILIES.items() if family.model is None} == NO_MODEL
    assert all(bool(family.no_model) == (tid in NO_MODEL) for tid, family in FAMILIES.items())


@pytest.mark.parametrize("theorem, spec", [(TheoremId.C2_4B, "ut2:p=17"),
                                           (TheoremId.T2_1, "nc_p2:p=67"),
                                           (TheoremId.T3_1A, "mat2:p=7")])
def test_largest_matrix_rings_verify_without_their_table(theorem, spec):
    ring = parse_ring_spec(spec)
    rep = verify_ring(ring, theorem)
    assert rep.verdict is Verdict.PASS, rep.detail
    assert rep.computed.msn_method == "exact"
    assert "table" not in ring.__dict__  # the graph came from the centralizer kernels


def test_builtin_instance_builds_exactly_the_rows_with_a_model():
    def built(tid, p):
        q = 3 if FAMILIES[tid].takes_q else None
        return builtin_instance(tid, p, q) is not None

    # c2_2b and c2_2c are results about p = 3 and p = 5 alone
    only_at = {TheoremId.C2_2B: 3, TheoremId.C2_2C: 5}
    assert {tid for tid in TheoremId if built(tid, 2)} == set(TheoremId) - NO_MODEL - set(only_at)
    assert all(built(tid, p) for tid, p in only_at.items())
    for tid in NO_MODEL:
        rep, = sweep([tid], [2], [3])
        assert rep.verdict is Verdict.UNSUPPORTED
        assert rep.detail == FAMILIES[tid].no_model
        assert rep.detail.startswith("no ring has |R| = ")


@pytest.mark.parametrize("theorem,spec,kwargs,detail", [
    ("t2_1", "zn:n=6", {}, "ring is commutative"),
    ("c2_2d", "prod(ut2:p=2,zn:n=3)", {}, "|R| = 24 is not a prime power"),
    ("t3_3a", "mat2:p=2", {}, "|R| = 16 = 2^4 does not have exponent 5"),
    ("t4_1a", "nc_p2:p=2", {}, "|R| = 4 is not of the form p^2 q"),
    ("t4_4a", "prod(ut2:p=2,zn:n=4)", {}, "|R| = 32 is not of the form p^3 q"),
    ("c2_4a", "nc_p2:p=3", {"p": 2}, "|R| = 9 conflicts with the supplied p = 2"),
    ("t4_1a", "prod(nc_p2:p=3,zn:n=2)", {"q": 3},
     "|R| = 18 conflicts with the supplied q = 3"),
    ("c2_4b", "nc_p2:p=2", {}, "ring has no unity"),
    ("t3_1a", "prod(ut2:p=2,zn:n=2)", {}, "|Z(R)| = 4, not 2"),
    ("t4_4a", "prod(ut2:p=2,zn:n=3)", {}, "|Z(R)| = 6, not p^2 = 4"),
    ("c2_2a", "nc_p2:p=3", {}, "ring has 5 centralizers, not 4"),
    ("c2_2d", "mat2:p=2", {}, "ring has 8 centralizers, not p + 2 = 4"),
    ("c2_3a", "nc_p2:p=3", {}, "commuting probability is 11/27, not 5/8"),
    ("c2_3b", "nc_p2:p=2", {"p": 3}, "smallest prime divisor of |R| = 4 is 2, not 3"),
    ("t2_1", "mat2:p=2", {}, "additive quotient type [2, 2, 2] is not of the form [p, p]"),
    ("t2_1", "nc_p2:p=3", {"p": 2}, "additive quotient type [3, 3] differs from [2, 2]"),
    ("t5_1", "prod(nc_p2:p=2,ut2:p=2)", {},
     "some non-central element has a non-commutative centralizer"),
])
def test_each_hypothesis_message(theorem, spec, kwargs, detail):
    rep = verify_ring(parse_ring_spec(spec), TheoremId.from_string(theorem), **kwargs)
    assert rep.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert rep.detail == detail
    assert rep.computed is None and rep.predicted is None


# --- report serialization ---


def test_report_json_schema():
    rep = verify_ring(ring_noncomm_p2(2), TheoremId.T2_1)
    data = json.loads(rep.to_json())
    assert set(data) == {"theorem", "ring", "params", "verdict", "detail",
                         "computed", "predicted"}
    assert data["theorem"] == "t2_1"
    assert data["ring"] == "nc_p2:p=2"
    assert data["verdict"] == "PASS"
    assert data["params"] == {"p": 2, "m": 1}
    assert data["computed"]["msn_spectrum"]["exact"] is True


def _doctored_not_a_clique_union():
    return verify_ring(doctored_ring((3, 3), [(1, 2), (2, 3), (3, 4)], name="doctored-9"),
                       TheoremId.T2_1)


@pytest.mark.parametrize("make,verdict,dec", [
    (lambda: verify_ring(upper_triangular_ring(2), TheoremId.C2_4B), Verdict.PASS, "3K2"),
    (lambda: verify_ring(zn(6), TheoremId.T2_1), Verdict.HYPOTHESIS_NOT_MET, None),
    (_doctored_not_a_clique_union, Verdict.FAIL, None),
])
def test_report_shapes_to_json_and_csv(make, verdict, dec):
    rep = make()
    assert rep.verdict is verdict
    data = rep.to_json_dict()
    row = rep.csv_row()
    assert row[:4] == (rep.theorem.value, rep.ring_spec, verdict.value, rep.detail)
    if verdict is Verdict.HYPOTHESIS_NOT_MET:
        assert rep.computed is None and rep.predicted is None
        assert data["computed"] is None and data["predicted"] is None
        assert row[4:] == ("", "")
        return
    assert data["computed"] == rep.computed.to_json_dict()
    assert len(data["computed"]) == 13
    assert data["computed"]["decomposition"] == dec
    assert data["computed"]["msn_energy"] == rep.computed.msn_energy
    assert row[4:] == (dec or "", str(rep.computed.msn_energy))
    if verdict is Verdict.PASS:
        assert data["predicted"] == rep.predicted.to_json_dict()
        assert dec in data["predicted"]["decompositions"]
        assert row[5] == "6"
    else:
        assert data["predicted"] is None
        assert row[5] != ""
    assert json.loads(rep.to_json()) == data


def test_report_csv_row():
    rep = verify_ring(upper_triangular_ring(2), TheoremId.C2_4B)
    row = rep.csv_row()
    assert len(row) == len(REPORT_CSV_HEADER)
    assert row[0] == "c2_4b"
    assert row[2] == "PASS"
    assert row[4] == "3K2"
    assert row[5] == "6"
    unmet = verify_ring(zn(4), TheoremId.T2_1)
    assert unmet.csv_row()[4] == ""


def test_t5_1_params_record_sizes():
    rep = verify_ring(upper_triangular_ring(2), TheoremId.T5_1)
    assert rep.verdict is Verdict.PASS
    params = dict(rep.params)
    assert params["m"] == 2
    assert sorted(params["sizes"]) == [4, 4, 4]


# --- centralizer energy identity ---


@pytest.mark.parametrize("ring_factory", [
    lambda: ring_noncomm_p2(2),
    lambda: ring_noncomm_p2(3),
    lambda: upper_triangular_ring(2),
    lambda: upper_triangular_ring(3),
    lambda: matrix_ring_2x2(2),
])
def test_centralizer_energy_formula_matches_spectrum(ring_factory):
    from msnring.graphs import clique_decomposition, commuting_graph
    ring = ring_factory()
    g = commuting_graph(ring)
    dec = clique_decomposition(g)
    assert isinstance(dec, CliqueUnion)
    m = int(ring.central.sum())
    formula = 2 * sum((s - m - 1) ** 3 for s in noncentral_centralizer_sizes(ring))
    assert formula == clique_union_msn_energy(dec)


# --- clique union enumeration and the property suite ---


def test_enumerate_clique_unions_counts():
    # partition numbers p(1)..p(12)
    partitions = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    assert len(enumerate_clique_unions(12)) == sum(partitions)
    assert len(enumerate_clique_unions(3)) == 6
    out = enumerate_clique_unions(12)
    assert len(set(out)) == len(out)


def test_property_suite_clean_run():
    rep = property_suite_clique_unions(seed=7, trials=25, enumerate_total=6)
    assert isinstance(rep, PropertySuiteReport)
    assert rep.enumerated == 29
    assert rep.checked == 29 + 25
    assert rep.counterexamples == ()
    assert rep.passes == rep.checked
    # the two stated equality cases show up and are not violations
    assert any("1K3" in e and "msn" in e for e in rep.equalities)
    assert any(e.startswith("2K1:") and "cn" in e for e in rep.equalities)


def test_property_suite_deterministic():
    a = property_suite_clique_unions(seed=3, trials=10, enumerate_total=5)
    b = property_suite_clique_unions(seed=3, trials=10, enumerate_total=5)
    assert a == b
    c = property_suite_clique_unions(seed=4, trials=10, enumerate_total=5)
    assert c.counterexamples == ()


def test_property_suite_rejects_bad_trials():
    with pytest.raises(ValueError):
        property_suite_clique_unions(seed=1, trials=0)


def test_property_suite_report_json():
    rep = property_suite_clique_unions(seed=1, trials=5, enumerate_total=4)
    d = rep.to_json_dict()
    assert d["seed"] == 1 and d["trials"] == 5
    assert d["enumerated"] == 11
    assert d["counterexamples"] == []


def count_whole_graph_labellings(monkeypatch, n):
    """Patch the closed-twin census and the labelling of a quotient at
    the names the package calls them by; the first returned list gets one
    entry per census of an n x n array, the second one per labelling of
    a quotient of n vertices, its shape."""
    from msnring import graphs
    censuses, labellings = [], []
    census, labelling = graphs.closed_twins, graphs.quotient_components

    def counting_census(adjacency):
        if adjacency.shape == (n, n):
            censuses.append(adjacency.shape)
        return census(adjacency)

    def counting_labelling(labels, quotient):
        if len(labels) == n:
            labellings.append(quotient.shape)
        return labelling(labels, quotient)

    monkeypatch.setattr(graphs, "closed_twins", counting_census)
    monkeypatch.setattr(graphs, "quotient_components", counting_labelling)
    return censuses, labellings


@pytest.mark.parametrize("ring, theorem", [
    (lambda: upper_triangular_ring(3), TheoremId.C2_4B),
    (lambda: direct_product(matrix_ring_2x2(2), zn(2)), TheoremId.T3_3A),
])
def test_verify_ring_labels_the_graph_once(monkeypatch, ring, theorem):
    ring = ring()
    graph = commuting_graph(ring)
    k = len(graph.census[1])
    censuses, labellings = count_whole_graph_labellings(monkeypatch, graph.n)
    assert verify_ring(ring, theorem).verdict is Verdict.PASS
    # the ring hands its census over: no n x n array is labelled, and the
    # k x k quotient is labelled once
    assert censuses == []
    assert labellings == [(k, k)] and k < graph.n


def test_classify_labels_the_graph_once(monkeypatch):
    # a path, a 4-cycle with a chord, K_{2,3}, a triangle and an isolated
    # vertex: not a clique union, so both matrices are built and split
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)]
    edges += [(7 + u, 9 + v) for u in range(2) for v in range(3)]
    edges += [(12, 13), (12, 14), (13, 14)]
    censuses, labellings = count_whole_graph_labellings(monkeypatch, 16)
    g = SimpleGraph.from_edges(16, edges)
    assert classify(g).decomposition is None
    # one census of the adjacency, taken when the graph is made; the
    # chord's ends and the triangle are closed twins, so the quotient
    # labelled once has 13 classes
    assert censuses == [(16, 16)]
    assert labellings == [(13, 13)]


@pytest.mark.parametrize("theorem", [TheoremId.T2_1, TheoremId.T5_1])
def test_verify_ring_matches_numeric_spectra_on_their_own_scale(theorem):
    # 3K1250: the numeric msn route gives 1948441248.999995 for the exact
    # 1948441249, which an absolute 1e-6 took for a route mismatch
    ring = parse_ring_spec("prod(nc_p2:p=2,zn:n=1250)")
    report = verify_ring(ring, theorem)
    assert report.verdict is Verdict.PASS, report.detail
    assert report.detail == "3K1250; msn energy 11690647494"
