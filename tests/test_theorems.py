"""Closed forms against the exact-spectrum oracle, and the per-family
predictions."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnring.config import DEFAULT_ENUMERATION_CAP
from msnring.graphs import CliqueUnion, clique_union_graph
from msnring.rings import is_prime
from msnring.spectra import cn_matrix, exact_spectrum, msn_matrix
from msnring.theorems import (
    ClosedFormPrediction,
    HypothesisViolated,
    TheoremId,
    clique_union_cn_energy,
    clique_union_cn_spectrum,
    clique_union_msn_energy,
    clique_union_msn_spectrum,
    predict,
    reference_energies,
)


def small_unions(max_total=8):
    """Every clique union on at most max_total vertices."""
    out = []
    def rec(min_size, left, acc):
        if acc:
            out.append(CliqueUnion(tuple(acc)))
        for m in range(min_size, left + 1):
            for l in range(1, left // m + 1):
                rec(m + 1, left - m * l, acc + [(m, l)])
    rec(1, max_total, [])
    return out


# --- closed forms vs the exact oracle ---


def test_closed_forms_match_exact_spectra_exhaustively():
    for parts in small_unions(8):
        g = clique_union_graph(parts)
        assert clique_union_msn_spectrum(parts) == exact_spectrum(msn_matrix(g))
        assert clique_union_cn_spectrum(parts) == exact_spectrum(cn_matrix(g))
        assert clique_union_msn_energy(parts) == clique_union_msn_spectrum(parts).energy()
        assert clique_union_cn_energy(parts) == clique_union_cn_spectrum(parts).energy()


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)),
                min_size=1, max_size=3))
def test_closed_forms_match_exact_spectra_random(raw_parts):
    parts = CliqueUnion.of(raw_parts)
    g = clique_union_graph(parts)
    assert clique_union_msn_spectrum(parts) == exact_spectrum(msn_matrix(g))
    assert clique_union_cn_spectrum(parts) == exact_spectrum(cn_matrix(g))


def test_frozen_spectrum_examples():
    seven_edges = CliqueUnion(((2, 7),))
    assert clique_union_msn_spectrum(seven_edges).pairs == ((-1, 7), (1, 7))
    assert clique_union_msn_energy(seven_edges) == 14

    isolated = CliqueUnion(((1, 5),))
    assert clique_union_msn_spectrum(isolated).pairs == ((0, 5),)
    assert clique_union_msn_energy(isolated) == 0
    assert clique_union_cn_energy(isolated) == 0

    mixed = CliqueUnion(((2, 1), (3, 1)))
    assert clique_union_msn_spectrum(mixed).pairs == (
        (-4, 2), (-1, 1), (1, 1), (8, 1))
    assert clique_union_msn_energy(mixed) == 18

    three_k4 = CliqueUnion(((4, 3),))
    assert clique_union_msn_energy(three_k4) == 162
    assert clique_union_cn_energy(three_k4) == 36
    assert clique_union_cn_spectrum(CliqueUnion(((5, 1),))).pairs == ((-3, 4), (12, 1))
    assert clique_union_cn_energy(CliqueUnion(((5, 1),))) == 24


def test_reference_energies():
    assert reference_energies(14) == (4394, 312)
    assert reference_energies(4) == (54, 12)
    assert reference_energies(1) == (0, 0)
    with pytest.raises(ValueError):
        reference_energies(0)


# --- theorem ids ---


def test_theorem_id_from_string():
    assert TheoremId.from_string("t3_1a") is TheoremId.T3_1A
    assert TheoremId.from_string("  T5_1 ") is TheoremId.T5_1
    with pytest.raises(ValueError, match="unknown theorem id"):
        TheoremId.from_string("t9_9")
    assert len(TheoremId) == 20


# --- single-form predictions ---


def test_predict_single_forms():
    cases = [
        (TheoremId.T2_1, dict(p=3, m=2), ((4, 4),)),
        (TheoremId.C2_2A, dict(m=5), ((5, 3),)),
        (TheoremId.C2_2B, dict(m=3), ((6, 4),)),
        (TheoremId.C2_2C, dict(m=2), ((8, 6),)),
        (TheoremId.C2_2D, dict(p=5, m=1), ((4, 6),)),
        (TheoremId.C2_3A, dict(m=4), ((4, 3),)),
        (TheoremId.C2_3B, dict(p=2, m=3), ((3, 3),)),
        (TheoremId.C2_4A, dict(p=7), ((6, 8),)),
        (TheoremId.C2_4B, dict(p=3), ((6, 4),)),
        (TheoremId.T3_1B, dict(p=2), ((4, 3),)),
        (TheoremId.T3_3B, dict(p=2), ((8, 3),)),
        (TheoremId.T4_3, dict(p=2, q=3), ((6, 3),)),
        (TheoremId.T4_4A, dict(p=3, q=5), ((18, 7),)),
        (TheoremId.T4_4B, dict(p=3, q=2), ((9, 5),)),
    ]
    for tid, kwargs, parts in cases:
        pred = predict(tid, **kwargs)
        assert len(pred.decompositions) == 1, tid
        assert pred.decompositions[0] == CliqueUnion(parts), tid
        assert not pred.cap_exceeded


def test_predict_two_size_families():
    pred = predict(TheoremId.T3_1A, p=2)
    assert set(pred.decompositions) == {
        CliqueUnion(((2, 7),)),
        CliqueUnion(((2, 4), (6, 1))),
        CliqueUnion(((2, 1), (6, 2))),
    }
    assert pred.admits(CliqueUnion(((2, 4), (6, 1))))
    assert not pred.admits(CliqueUnion(((2, 2), (6, 1))))

    pred = predict(TheoremId.T3_3A, p=2)
    # l1 + 3 l2 = 7 over sizes 4 and 12
    assert set(pred.decompositions) == {
        CliqueUnion(((4, 7),)),
        CliqueUnion(((4, 4), (12, 1))),
        CliqueUnion(((4, 1), (12, 2))),
    }

    pred = predict(TheoremId.T4_4C, p=3, q=5)
    # 2 l1 + 4 l2 = 14 over sizes 18 and 36
    assert set(pred.decompositions) == {
        CliqueUnion(((18, 7),)),
        CliqueUnion(((18, 5), (36, 1))),
        CliqueUnion(((18, 3), (36, 2))),
        CliqueUnion(((18, 1), (36, 3))),
    }


def test_predict_t4_1a():
    pred = predict(TheoremId.T4_1A, p=2, q=3, t=2)
    assert pred.decompositions == (CliqueUnion(((1, 11),)),)
    with pytest.raises(HypothesisViolated, match=r"does not divide p\^2 q - 1 = 11"):
        predict(TheoremId.T4_1A, p=2, q=3, t=3)
    with pytest.raises(HypothesisViolated, match="is not in"):
        predict(TheoremId.T4_1A, p=2, q=3, t=5)


def test_predict_t4_1b_enumeration():
    pred = predict(TheoremId.T4_1B, p=2, q=3)
    # l1 + 2 l2 + 3 l3 + 5 l4 = 11 has 24 nonnegative solutions
    assert len(pred.decompositions) == 24
    assert len(set(pred.decompositions)) == 24
    assert not pred.cap_exceeded
    for dec in pred.decompositions:
        assert dec.n == 11
        assert {m for m, _ in dec.parts} <= {1, 2, 3, 5}
    assert pred.admits(CliqueUnion(((1, 11),)))

    capped = predict(TheoremId.T4_1B, p=2, q=3, cap=5)
    assert capped.cap_exceeded
    assert len(capped.decompositions) == 5


def test_predict_t5_1():
    pred = predict(TheoremId.T5_1, m=2, sizes=(4, 4, 6))
    assert pred.decompositions == (CliqueUnion(((2, 2), (4, 1))),)
    with pytest.raises(HypothesisViolated, match="must exceed m"):
        predict(TheoremId.T5_1, m=4, sizes=(4, 6))
    with pytest.raises(HypothesisViolated, match="sizes"):
        predict(TheoremId.T5_1, m=2)


def test_predict_rejects_bad_parameters():
    with pytest.raises(HypothesisViolated, match="parameter p is required"):
        predict(TheoremId.T2_1, m=1)
    with pytest.raises(HypothesisViolated, match="is not prime"):
        predict(TheoremId.T2_1, p=4, m=1)
    with pytest.raises(HypothesisViolated, match="must be a positive integer"):
        predict(TheoremId.T2_1, p=2, m=0)
    with pytest.raises(HypothesisViolated, match="distinct primes"):
        predict(TheoremId.T4_3, p=3, q=3)
    with pytest.raises(HypothesisViolated, match=r"does not divide pq - 1"):
        predict(TheoremId.T4_4B, p=3, q=5)


def test_prediction_report_fields():
    pred = predict(TheoremId.T3_1B, p=3)
    assert dict(pred.params) == {"p": 3}
    d = pred.to_json_dict()
    assert d["theorem"] == "t3_1b"
    assert d["decompositions"] == ["4K18"]
    assert d["energies"] == [2 * 4 * 17**3]
    assert d["cap_exceeded"] is False


def test_prediction_energies_and_spectra_consistent():
    pred = predict(TheoremId.T3_1A, p=2)
    for dec, energy in zip(pred.decompositions, pred.energies()):
        g = clique_union_graph(dec)
        s = exact_spectrum(msn_matrix(g))
        assert s == clique_union_msn_spectrum(dec)
        assert s.energy() == energy


def test_small_unions_helper_is_exhaustive():
    # sanity on the oracle's own enumeration: count via generating function
    target = 8
    count = 0
    for parts in small_unions(target):
        assert 1 <= parts.n <= target
        count += 1
    # multisets of clique sizes with total <= 8: partitions of 1..8
    partitions = [1, 2, 3, 5, 7, 11, 15, 22]
    assert count == sum(partitions)


def frozen_family_decompositions(tid, p, q, cap):
    """The hand-written enumeration loops predict used before they were
    merged into one helper: (decompositions, cap_exceeded, error)."""
    decs, hit_cap = [], False
    if tid in (TheoremId.T3_1A, TheoremId.T3_3A):
        total, weight2 = p * p + p + 1, p + 1
        scale = 1 if tid is TheoremId.T3_1A else p
        size1, size2 = scale * p * (p - 1), scale * p * (p * p - 1)
        l2 = 0
        while l2 * weight2 <= total:
            l1 = total - l2 * weight2
            if len(decs) >= cap:
                hit_cap = True
                break
            decs.append(CliqueUnion.of([(size1, l1), (size2, l2)]))
            l2 += 1
        return decs, hit_cap, None
    if tid is TheoremId.T4_1B:
        total = p * p * q - 1
        weights = [p - 1, q - 1, p * p - 1, p * q - 1]
        for l4 in range(total // weights[3] + 1):
            r4 = total - l4 * weights[3]
            for l3 in range(r4 // weights[2] + 1):
                r3 = r4 - l3 * weights[2]
                for l2 in range(r3 // weights[1] + 1):
                    rem = r3 - l2 * weights[1]
                    if rem % weights[0]:
                        continue
                    if len(decs) >= cap:
                        hit_cap = True
                        break
                    l1 = rem // weights[0]
                    decs.append(CliqueUnion.of(list(zip(weights, (l1, l2, l3, l4)))))
                if hit_cap:
                    break
            if hit_cap:
                break
        return decs, hit_cap, None if decs else f"no nonnegative solutions partition {total}"
    total = p * q - 1
    for l2 in range(total // (q - 1) + 1):
        rem = total - l2 * (q - 1)
        if rem % (p - 1):
            continue
        if len(decs) >= cap:
            hit_cap = True
            break
        decs.append(CliqueUnion.of([(p * p * (p - 1), rem // (p - 1)),
                                    (p * p * (q - 1), l2)]))
    error = f"no nonnegative solutions to (p-1) l1 + (q-1) l2 = {total}"
    return decs, hit_cap, None if decs else error


@pytest.mark.parametrize("tid", [TheoremId.T3_1A, TheoremId.T3_3A,
                                 TheoremId.T4_1B, TheoremId.T4_4C])
def test_predict_enumeration_matches_frozen_loops(tid):
    primes = [2, 3, 5, 7, 11, 13]
    two_primes = tid in (TheoremId.T4_1B, TheoremId.T4_4C)
    for p in primes:
        for q in (primes if two_primes else [None]):
            if p == q:
                continue
            for cap in (0, 1, 3, None):
                kwargs = {} if cap is None else {"cap": cap}
                decs, hit_cap, error = frozen_family_decompositions(
                    tid, p, q, 10_000 if cap is None else cap)
                if error is not None:
                    with pytest.raises(HypothesisViolated) as exc:
                        predict(tid, p=p, q=q, **kwargs)
                    assert str(exc.value) == error
                    continue
                params = {"p": p} if q is None else {"p": p, "q": q}
                want = ClosedFormPrediction(tid, tuple(params.items()), tuple(decs), hit_cap)
                got = predict(tid, p=p, q=q, **kwargs)
                assert got == want
                assert got.to_json_dict() == want.to_json_dict()


def test_predict_reads_sizes_once():
    from_iterator = predict(TheoremId.T5_1, m=2, sizes=iter((4, 4, 6)))
    assert from_iterator == predict(TheoremId.T5_1, m=2, sizes=(4, 4, 6))
    assert str(from_iterator.decompositions[0]) == "2K2 + 1K4"
    assert from_iterator.energies() == (58,)


@pytest.mark.parametrize("kwargs", [
    dict(theorem=TheoremId.T2_1, p=3, m=True),
    dict(theorem=TheoremId.C2_2A, m=False),
    dict(theorem=TheoremId.T5_1, m=True, sizes=(4,)),
    dict(theorem=TheoremId.T4_1A, p=2, q=3, t=True),
])
def test_predict_rejects_a_boolean_as_a_positive_integer(kwargs):
    name = "t" if "t" in kwargs else "m"
    with pytest.raises(HypothesisViolated, match=f"{name} = (True|False) must be a positive integer"):
        predict(**kwargs)


def frozen_predict(tid, p=None, q=None, m=None, t=None, sizes=None,
                   cap=DEFAULT_ENUMERATION_CAP):
    """predict as one if-chain over the theorem ids, as it was before the
    table of families, with its own parameter checks and enumeration."""

    def require(cond, detail):
        if not cond:
            raise HypothesisViolated(detail)

    def prime(value, name):
        require(value is not None, f"parameter {name} is required")
        require(isinstance(value, int) and is_prime(value), f"{name} = {value!r} is not prime")
        return value

    def distinct(p, q):
        pp, qq = prime(p, "p"), prime(q, "q")
        require(pp != qq, f"p and q must be distinct primes, got p = q = {pp}")
        return pp, qq

    def pos(value, name):
        require(value is not None, f"parameter {name} is required")
        require(isinstance(value, int) and value >= 1, f"{name} = {value!r} must be a positive integer")
        return value

    def single(params, pairs):
        return ClosedFormPrediction(tid, tuple(params.items()), (CliqueUnion.of(pairs),))

    def family(params, total, weights, sizes, unsolvable=None):
        def counts(rest, k):
            if k == 1:
                if rest % weights[0] == 0:
                    yield (rest // weights[0],)
                return
            for lk in range(rest // weights[k - 1] + 1):
                for head in counts(rest - lk * weights[k - 1], k - 1):
                    yield head + (lk,)

        limit = max(cap, 0)
        found = list(islice(counts(total, len(weights)), limit + 1))
        decs = tuple(CliqueUnion.of(zip(sizes, ls)) for ls in found[:limit])
        if unsolvable is not None:
            require(bool(decs), unsolvable)
        return ClosedFormPrediction(tid, tuple(params.items()), decs, len(found) > limit)

    T = TheoremId
    if tid in (T.T2_1, T.C2_2D, T.C2_3B):
        pp, mm = prime(p, "p"), pos(m, "m")
        return single({"p": pp, "m": mm}, [((pp - 1) * mm, pp + 1)])
    if tid in (T.C2_2A, T.C2_3A):
        mm = pos(m, "m")
        return single({"p": 2, "m": mm}, [(mm, 3)])
    if tid is T.C2_2B:
        mm = pos(m, "m")
        return single({"p": 3, "m": mm}, [(2 * mm, 4)])
    if tid is T.C2_2C:
        mm = pos(m, "m")
        return single({"p": 5, "m": mm}, [(4 * mm, 6)])
    if tid is T.C2_4A:
        pp = prime(p, "p")
        return single({"p": pp, "m": 1}, [(pp - 1, pp + 1)])
    if tid is T.C2_4B:
        pp = prime(p, "p")
        return single({"p": pp, "m": pp}, [(pp * (pp - 1), pp + 1)])
    if tid is T.T3_1A:
        pp = prime(p, "p")
        return family({"p": pp}, pp * pp + pp + 1, (1, pp + 1),
                      (pp * (pp - 1), pp * (pp * pp - 1)))
    if tid is T.T3_1B:
        pp = prime(p, "p")
        return single({"p": pp}, [(pp * pp * (pp - 1), pp + 1)])
    if tid is T.T3_3A:
        pp = prime(p, "p")
        return family({"p": pp}, pp * pp + pp + 1, (1, pp + 1),
                      (pp * pp * (pp - 1), pp * pp * (pp * pp - 1)))
    if tid is T.T3_3B:
        pp = prime(p, "p")
        return single({"p": pp}, [(pp ** 3 * (pp - 1), pp + 1)])
    if tid is T.T4_1A:
        pp, qq = distinct(p, q)
        tt = pos(t, "t")
        allowed = {pp, qq, pp * pp, pp * qq}
        require(tt in allowed, f"t = {tt} is not in {sorted(allowed)}")
        order1 = pp * pp * qq - 1
        require(order1 % (tt - 1) == 0,
                f"(t - 1) = {tt - 1} does not divide p^2 q - 1 = {order1}")
        return single({"p": pp, "q": qq, "t": tt}, [(tt - 1, order1 // (tt - 1))])
    if tid is T.T4_1B:
        pp, qq = distinct(p, q)
        total = pp * pp * qq - 1
        weights = (pp - 1, qq - 1, pp * pp - 1, pp * qq - 1)
        return family({"p": pp, "q": qq}, total, weights, weights,
                      f"no nonnegative solutions partition {total}")
    if tid is T.T4_3:
        pp, qq = distinct(p, q)
        return single({"p": pp, "q": qq}, [(pp * qq * (pp - 1), pp + 1)])
    if tid in (T.T4_4A, T.T4_4B):
        pp, qq = distinct(p, q)
        tt = pp if tid is T.T4_4A else qq
        total = pp * qq - 1
        require(total % (tt - 1) == 0, f"(t - 1) = {tt - 1} does not divide pq - 1 = {total}")
        return single({"p": pp, "q": qq}, [(pp * pp * (tt - 1), total // (tt - 1))])
    if tid is T.T4_4C:
        pp, qq = distinct(p, q)
        total = pp * qq - 1
        return family({"p": pp, "q": qq}, total, (pp - 1, qq - 1),
                      (pp * pp * (pp - 1), pp * pp * (qq - 1)),
                      f"no nonnegative solutions to (p-1) l1 + (q-1) l2 = {total}")
    assert tid is T.T5_1
    mm = pos(m, "m")
    require(sizes is not None and len(tuple(sizes)) > 0,
            "parameter sizes (the centralizer orders) is required")
    parts = []
    for s in sizes:
        require(isinstance(s, int) and s > mm, f"centralizer order {s!r} must exceed m = {mm}")
        parts.append((s - mm, 1))
    return single({"m": mm, "sizes": tuple(sizes)}, parts)


@pytest.mark.parametrize("tid", list(TheoremId))
def test_predict_matches_the_frozen_if_chain(tid):
    primes = [None, -1, 0, 1, 2, 3, 4, 5, 7, 11, 2.0]
    ts = [None, 0, 1, 2, 3, 4, 6, 9] if tid is TheoremId.T4_1A else [None]
    sizes = [None, (), (4, 4, 6), (3, 5), ("a",)] if tid is TheoremId.T5_1 else [None]
    for p in primes:
        for q in primes:
            for m in (None, 0, 1, 2, 4):
                for t in ts:
                    for s in sizes:
                        for cap in (0, 3, None):
                            kwargs = dict(p=p, q=q, m=m, t=t, sizes=s)
                            if cap is not None:
                                kwargs["cap"] = cap
                            try:
                                want = frozen_predict(tid, **kwargs)
                            except HypothesisViolated as exc:
                                with pytest.raises(HypothesisViolated) as got:
                                    predict(tid, **kwargs)
                                assert str(got.value) == str(exc), kwargs
                                continue
                            assert predict(tid, **kwargs) == want, kwargs
