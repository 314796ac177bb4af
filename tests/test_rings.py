"""Ring constructors and invariants against independent oracles.

Every multiplication table is rechecked here by plain coordinate
arithmetic, and the structural reports (center, centralizers, quotient
type) against brute-force recomputation.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msnring.rings import (
    AxiomViolation,
    DimensionMismatch,
    NotPrime,
    RingSpecError,
    SizeCapExceeded,
    additive_quotient_type,
    center,
    centralizer,
    centralizer_count,
    commuting_probability,
    direct_product,
    has_unity,
    is_cc_ring,
    is_prime,
    load_ring,
    matrix_ring_2x2,
    noncentral_centralizer_sizes,
    parse_ring_spec,
    prime_factors,
    ring_from_table,
    ring_noncomm_p2,
    save_ring,
    upper_triangular_ring,
    validate_ring_axioms,
    zn,
)

PRIMES = (2, 3, 5)


def test_zn_matches_modular_arithmetic():
    for n in (1, 2, 6, 9):
        r = zn(n)
        for a in range(n):
            for b in range(n):
                assert r.multiply(a, b) == (a * b) % n
                assert r.add(a, b) == (a + b) % n


def test_nc_p2_matches_pair_rule():
    for p in PRIMES:
        r = ring_noncomm_p2(p)
        pairs = list(itertools.product(range(p), repeat=2))
        for (a, b), (c, d) in itertools.product(pairs, repeat=2):
            got = r.coords(r.multiply(r.index((a, b)), r.index((c, d))))
            assert got == ((a * c) % p, (a * d) % p)


def test_mat2_matches_matrix_product():
    for p in (2, 3):
        r = matrix_ring_2x2(p)
        elems = list(itertools.product(range(p), repeat=4))
        for x, y in itertools.product(elems, repeat=2):
            a, b, c, d = x
            e, f, g, h = y
            want = ((a * e + b * g) % p, (a * f + b * h) % p,
                    (c * e + d * g) % p, (c * f + d * h) % p)
            assert r.coords(r.multiply(r.index(x), r.index(y))) == want


def test_ut2_matches_triangular_product():
    for p in PRIMES:
        r = upper_triangular_ring(p)
        elems = list(itertools.product(range(p), repeat=3))
        for x, y in itertools.product(elems, repeat=2):
            a, b, c = x
            d, e, f = y
            want = ((a * d) % p, (a * e + b * f) % p, (c * f) % p)
            assert r.coords(r.multiply(r.index(x), r.index(y))) == want


def test_direct_product_is_componentwise():
    r = direct_product(upper_triangular_ring(2), zn(3))
    assert r.order == 24
    assert r.moduli == (2, 2, 2, 3)
    left = upper_triangular_ring(2)
    for i in range(r.order):
        for j in range(r.order):
            ci, cj = r.coords(i), r.coords(j)
            li = left.multiply(left.index(ci[:3]), left.index(cj[:3]))
            want = left.coords(li) + ((ci[3] * cj[3]) % 3,)
            assert r.coords(r.multiply(i, j)) == want


def test_builtin_tables_satisfy_ring_axioms():
    for ring in (zn(6), ring_noncomm_p2(2), ring_noncomm_p2(3),
                 upper_triangular_ring(2), matrix_ring_2x2(2),
                 direct_product(ring_noncomm_p2(2), zn(3))):
        validate_ring_axioms(ring.moduli, ring.table)


def brute_center(r):
    return [x for x in range(r.order)
            if all(r.multiply(x, y) == r.multiply(y, x) for y in range(r.order))]


def test_center_matches_brute_force():
    for ring in (zn(6), ring_noncomm_p2(3), upper_triangular_ring(2),
                 matrix_ring_2x2(2)):
        assert list(center(ring).elements) == brute_center(ring)


def test_center_sizes():
    assert center(ring_noncomm_p2(3)).size == 1
    assert center(upper_triangular_ring(3)).size == 3
    assert center(matrix_ring_2x2(3)).size == 3
    assert center(direct_product(upper_triangular_ring(2), zn(2))).size == 4


def test_centralizer_matches_brute_force():
    ring = matrix_ring_2x2(2)
    for x in range(ring.order):
        want = [y for y in range(ring.order)
                if ring.multiply(x, y) == ring.multiply(y, x)]
        assert list(centralizer(ring, x).elements) == want


def test_centralizer_counts():
    for p in PRIMES:
        assert centralizer_count(ring_noncomm_p2(p)) == p + 2
    assert centralizer_count(matrix_ring_2x2(2)) == 8
    assert centralizer_count(zn(12)) == 1


def test_commuting_probability_dual_route():
    for ring in (ring_noncomm_p2(2), ring_noncomm_p2(3),
                 upper_triangular_ring(2), matrix_ring_2x2(2)):
        n = ring.order
        pairs = sum(1 for x in range(n) for y in range(n)
                    if ring.multiply(x, y) == ring.multiply(y, x))
        assert commuting_probability(ring) == Fraction(pairs, n * n)


def test_commuting_probability_closed_form():
    for p in PRIMES:
        want = Fraction(p * p + p - 1, p ** 3)
        assert commuting_probability(ring_noncomm_p2(p)) == want
    assert commuting_probability(zn(9)) == 1


def test_has_unity():
    assert has_unity(zn(6)) == 1
    assert has_unity(ring_noncomm_p2(3)) is None
    ut = upper_triangular_ring(3)
    assert has_unity(ut) == ut.index((1, 0, 1))
    m = matrix_ring_2x2(2)
    assert has_unity(m) == m.index((1, 0, 0, 1))
    assert has_unity(direct_product(ut, zn(2))) is not None


def test_is_cc_ring():
    assert is_cc_ring(zn(8)) is None
    for ring in (ring_noncomm_p2(3), upper_triangular_ring(3), matrix_ring_2x2(2)):
        assert is_cc_ring(ring) is True
    doubled = direct_product(matrix_ring_2x2(2), matrix_ring_2x2(2))
    assert is_cc_ring(doubled) is False


def test_noncentral_centralizer_sizes_multiset():
    # three distinct centralizers of equal size must appear three times
    assert noncentral_centralizer_sizes(upper_triangular_ring(2)) == [4, 4, 4]
    assert noncentral_centralizer_sizes(ring_noncomm_p2(2)) == [2, 2, 2]
    assert noncentral_centralizer_sizes(matrix_ring_2x2(2)) == [4] * 7


def quotient_order_census(ring):
    z = set(center(ring).elements)
    counts = Counter()
    for x in range(ring.order):
        acc, k = x, 1
        while acc not in z:
            acc = ring.add(acc, x)
            k += 1
        counts[k] += 1
    return {o: c // len(z) for o, c in counts.items()}


def descending_partitions(n):
    def rec(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest
    return list(rec(n, n))


def abelian_types(n):
    per_prime = []
    for p, e in sorted(prime_factors(n).items()):
        per_prime.append([(p, pt) for pt in descending_partitions(e)])
    types = set()
    for combo in itertools.product(*per_prime):
        k = max(len(pt) for _, pt in combo)
        fs = [1] * k
        for p, pt in combo:
            for i, ei in enumerate(pt):
                fs[i] *= p ** ei
        types.add(tuple(sorted(fs)))
    return types


def abelian_census(factors):
    counts = Counter()
    for tup in itertools.product(*[range(d) for d in factors]):
        o = 1
        for v, d in zip(tup, factors):
            if v:
                o = math.lcm(o, d // math.gcd(v, d))
        counts[o] += 1
    return dict(counts)


def test_additive_quotient_type_against_order_census():
    for ring in (ring_noncomm_p2(2), ring_noncomm_p2(5), upper_triangular_ring(3),
                 matrix_ring_2x2(2), direct_product(upper_triangular_ring(2), zn(2))):
        reported = tuple(additive_quotient_type(ring))
        n = ring.order // center(ring).size
        candidates = abelian_types(n)
        assert reported in candidates
        census = quotient_order_census(ring)
        matching = [t for t in candidates if abelian_census(t) == census]
        assert matching == [reported]


def test_additive_quotient_type_expected_values():
    assert additive_quotient_type(zn(12)) == []
    for p in PRIMES:
        assert additive_quotient_type(ring_noncomm_p2(p)) == [p, p]
        assert additive_quotient_type(upper_triangular_ring(p)) == [p, p]
    assert additive_quotient_type(matrix_ring_2x2(2)) == [2, 2, 2]


def test_not_prime_rejected():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(NotPrime):
            ring_noncomm_p2(bad)
    with pytest.raises(NotPrime):
        matrix_ring_2x2(10)


def test_universe_cap(monkeypatch):
    with pytest.raises(SizeCapExceeded):
        ring_noncomm_p2(97)
    monkeypatch.setenv("MSNRING_UNIVERSE_CAP", "100")
    with pytest.raises(SizeCapExceeded):
        upper_triangular_ring(5)
    upper_triangular_ring(3)


def test_ring_from_table_validates():
    good = zn(5)
    rebuilt = ring_from_table(good.moduli, good.table, name="copy")
    assert np.array_equal(rebuilt.table, good.table)

    bad = good.table.copy()
    bad[2, 3] = 2  # no longer a ring product
    with pytest.raises(AxiomViolation):
        ring_from_table((5,), bad)

    zero_bad = good.table.copy()
    zero_bad[0, 1] = 1
    with pytest.raises(AxiomViolation) as excinfo:
        ring_from_table((5,), zero_bad)
    assert excinfo.value.axiom == "zero annihilation"


def test_ring_from_table_shape_errors():
    with pytest.raises(DimensionMismatch):
        ring_from_table((4,), np.zeros((3, 3), dtype=int))
    with pytest.raises(DimensionMismatch):
        ring_from_table((2,), [[0, 0], [0, 7]])
    with pytest.raises(SizeCapExceeded):
        ring_from_table((600,), np.zeros((600, 600), dtype=int), validation_cap=512)


def test_ring_from_table_rejects_non_integer_entries():
    # each of these used to load silently as [[0, 0], [0, 1]]
    for table in ([[0, 0], [0, 1.7]], [[0, 0], [0, 1.0]],
                  [[False, False], [False, True]], [[0, 0], [0, True]],
                  np.array([[0.0, 0.0], [0.0, 1.0]])):
        with pytest.raises(DimensionMismatch, match="integers"):
            ring_from_table((2,), table)
    assert ring_from_table((2,), [[0, 0], [0, 1]]).table.tolist() == [[0, 0], [0, 1]]


def test_save_load_round_trip(tmp_path):
    ring = upper_triangular_ring(2)
    path = tmp_path / "ut2.json"
    save_ring(ring, path)
    loaded = load_ring(path)
    assert loaded.moduli == ring.moduli
    assert np.array_equal(loaded.table, ring.table)


def test_parse_ring_spec():
    assert parse_ring_spec("nc_p2:p=3").name == "nc_p2:p=3"
    assert parse_ring_spec("zn:n=6").order == 6
    prod = parse_ring_spec("prod(ut2:p=2,zn:n=3)")
    assert prod.order == 24
    nested = parse_ring_spec("prod(prod(zn:n=2,zn:n=2),zn:n=3)")
    assert nested.order == 12
    for bad in ("nope:p=2", "nc_p2", "nc_p2:q=2", "nc_p2:p=x", "prod(zn:n=2)"):
        with pytest.raises(RingSpecError):
            parse_ring_spec(bad)


def test_parse_ring_spec_file(tmp_path):
    path = tmp_path / "ring.json"
    save_ring(zn(4), path)
    ring = parse_ring_spec(f"file:{path}")
    assert ring.order == 4
    with pytest.raises(RingSpecError):
        parse_ring_spec(f"file:{tmp_path / 'missing.json'}")


def test_element_round_trip():
    ring = upper_triangular_ring(3)
    for i in (0, 5, 26):
        e = ring.element(i)
        assert ring.index(e.coords) == i


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_prime_factors_reconstruct(n):
    factors = prime_factors(n)
    assert math.prod(p ** e for p, e in factors.items()) == n
    assert all(is_prime(p) for p in factors)
    assert is_prime(n) == (factors == {n: 1})


@given(st.sampled_from(PRIMES), st.sampled_from(PRIMES))
def test_product_center_multiplies(p, q):
    r = direct_product(ring_noncomm_p2(p), zn(q))
    assert center(r).size == q
    assert r.order == p * p * q
