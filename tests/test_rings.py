"""Ring constructors and invariants against independent oracles.

Every multiplication table is rechecked here by plain coordinate
arithmetic, and the structural reports (center, centralizers, quotient
type) against brute-force recomputation.
"""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnring.config import DEFAULT_VALIDATION_CAP
from msnring.graphs import commuting_graph
from msnring.rings import (
    AxiomViolation,
    DimensionMismatch,
    FiniteRing,
    NotPrime,
    RingError,
    RingSpecError,
    SizeCapExceeded,
    additive_quotient_type,
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
    row_labels,
    save_ring,
    upper_triangular_ring,
    validate_ring_axioms,
    zn,
)

PRIMES = (2, 3, 5)


def product_coords(r, x, y):
    """The coordinates of the product of the elements with coordinates x
    and y, read from the table."""
    i, j = (np.ravel_multi_index(c, r.moduli) for c in (x, y))
    return tuple(int(c) for c in np.unravel_index(r.table[i, j], r.moduli))


def test_zn_matches_modular_arithmetic():
    for n in (1, 2, 6, 9):
        r = zn(n)
        for a in range(n):
            for b in range(n):
                assert r.table[a, b] == (a * b) % n


def test_nc_p2_matches_pair_rule():
    for p in PRIMES:
        r = ring_noncomm_p2(p)
        pairs = list(itertools.product(range(p), repeat=2))
        for (a, b), (c, d) in itertools.product(pairs, repeat=2):
            assert product_coords(r, (a, b), (c, d)) == ((a * c) % p, (a * d) % p)


def test_mat2_matches_matrix_product():
    for p in (2, 3):
        r = matrix_ring_2x2(p)
        elems = list(itertools.product(range(p), repeat=4))
        for x, y in itertools.product(elems, repeat=2):
            a, b, c, d = x
            e, f, g, h = y
            want = ((a * e + b * g) % p, (a * f + b * h) % p,
                    (c * e + d * g) % p, (c * f + d * h) % p)
            assert product_coords(r, x, y) == want


def test_ut2_matches_triangular_product():
    for p in PRIMES:
        r = upper_triangular_ring(p)
        elems = list(itertools.product(range(p), repeat=3))
        for x, y in itertools.product(elems, repeat=2):
            a, b, c = x
            d, e, f = y
            want = ((a * d) % p, (a * e + b * f) % p, (c * f) % p)
            assert product_coords(r, x, y) == want


def test_direct_product_is_componentwise():
    r = direct_product(upper_triangular_ring(2), zn(3))
    assert r.order == 24
    assert r.moduli == (2, 2, 2, 3)
    left = upper_triangular_ring(2)
    for ci in np.ndindex(r.moduli):
        for cj in np.ndindex(r.moduli):
            want = product_coords(left, ci[:3], cj[:3]) + ((ci[3] * cj[3]) % 3,)
            assert product_coords(r, ci, cj) == want


def repeat_tile_product_table(r, s):
    """The product table built from int64 repeat and tile copies."""
    ns = s.order
    left = np.repeat(np.repeat(r.table.astype(np.int64), ns, axis=0), ns, axis=1)
    right = np.tile(s.table.astype(np.int64), (r.order, r.order))
    return left * ns + right


def test_direct_product_table_matches_repeat_tile_oracle():
    small = (zn(1), zn(3), ring_noncomm_p2(2), upper_triangular_ring(2),
             matrix_ring_2x2(2))
    for r, s in itertools.product(small, repeat=2):
        table = direct_product(r, s).table
        assert table.dtype == np.int32
        assert np.array_equal(table, repeat_tile_product_table(r, s))
        with pytest.raises(ValueError):
            table[0, 0] = 1  # read-only


def test_factors_is_keyword_only_and_a_ring_needs_a_table_or_factors():
    table = zn(3).table
    with pytest.raises(TypeError):
        FiniteRing("zn:n=3", (3,), table)  # the old positional table argument
    with pytest.raises(RingError, match="neither a table nor factors"):
        FiniteRing("bare", (3,)).table


def test_product_multiply_reads_the_factors_not_the_table(multiply):
    ring = parse_ring_spec("prod(ut2:p=2,zn:n=3)")
    products = [[multiply(ring, i, j) for j in range(ring.order)] for i in range(ring.order)]
    assert "table" not in ring.__dict__
    assert products == ring.table.tolist()


def outer_product_table(family, p):
    """The table filled from |R|^2-sized int64 outer products, as the
    constructors did before the row-blocked builder."""
    def mul(x, y):
        return (x[:, None] * y[None, :]) % p

    if family == "zn":
        i = np.arange(p, dtype=np.int64)
        return ((i[:, None] * i[None, :]) % p).astype(np.int32)
    if family == "nc_p2":
        a, b = np.unravel_index(np.arange(p ** 2), (p, p))
        return (mul(a, a) * p + mul(a, b)).astype(np.int32)
    if family == "ut2":
        a, b, c = np.unravel_index(np.arange(p ** 3), (p, p, p))
        e, f, g = mul(a, a), (mul(a, b) + mul(b, c)) % p, mul(c, c)
        return ((e * p + f) * p + g).astype(np.int32)
    a, b, c, d = np.unravel_index(np.arange(p ** 4), (p, p, p, p))
    e = (mul(a, a) + mul(b, c)) % p
    f = (mul(a, b) + mul(b, d)) % p
    g = (mul(c, a) + mul(d, c)) % p
    h = (mul(c, b) + mul(d, d)) % p
    return (((e * p + f) * p + g) * p + h).astype(np.int32)


BUILDERS = {"zn": zn, "nc_p2": ring_noncomm_p2, "ut2": upper_triangular_ring,
            "mat2": matrix_ring_2x2}
ARITY = {"zn": 1, "nc_p2": 2, "ut2": 3, "mat2": 4}


def test_builtin_tables_match_outer_product_oracle():
    cases = [("zn", n) for n in range(1, 61)]
    for family, top in (("nc_p2", 31), ("ut2", 7), ("mat2", 5)):
        cases += [(family, p) for p in range(2, top + 1) if is_prime(p)]
    for family, p in cases:
        ring = BUILDERS[family](p)
        assert ring.name == f"{family}:{'n' if family == 'zn' else 'p'}={p}"
        assert ring.moduli == (p,) * ARITY[family]
        assert ring.table.dtype == np.int32
        assert not ring.table.flags.writeable
        assert np.array_equal(ring.table, outer_product_table(family, p)), (family, p)


def coordinate_rule_row(family, p, x, y):
    """Coordinates of x * y for one element x against every element y,
    in int64, from the family's closed-form product."""
    if family == "zn":
        return ((x[0] * y[0]) % p,)
    if family == "nc_p2":
        (a, b), (c, d) = x, y
        return (a * c) % p, (a * d) % p
    if family == "ut2":
        (a, b, c), (d, e, f) = x, y
        return (a * d) % p, (a * e + b * f) % p, (c * f) % p
    (a, b, c, d), (e, f, g, h) = x, y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


@pytest.mark.parametrize("family, p", [("nc_p2", 67), ("mat2", 7), ("ut2", 17),
                                       ("zn", 4999)])
def test_largest_builtin_tables_are_built_in_row_blocks(family, p):
    # the largest p each family admits under the default universe cap, and
    # zn near it: the constructor builds nothing, and the first table read
    # fills it across several row blocks, within one table plus bounded
    # block temporaries, with no |R|^2 int64 array
    ring = BUILDERS[family](p)
    assert "table" not in ring.__dict__
    tracemalloc.start()
    try:
        table = ring.table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + (128 << 20)
    moduli = (p,) * ARITY[family]
    y = [c.astype(np.int64) for c in np.unravel_index(np.arange(ring.order), moduli)]
    for i in range(ring.order):
        x = [int(c) for c in np.unravel_index(i, moduli)]
        want = np.ravel_multi_index(coordinate_rule_row(family, p, x, y), moduli)
        assert np.array_equal(ring.table[i], want), (family, p, i)


def fresh_builtins_within(cap):
    """(family, p) for every built-in family at every p whose order is at
    most cap (zn at every n), then the largest ring of each matrix family
    under the default universe cap."""
    cases = [("zn", n) for n in range(1, 65)] + [("zn", cap)]
    for family in ("nc_p2", "ut2", "mat2"):
        cases += [(family, p) for p in range(2, cap + 1)
                  if is_prime(p) and p ** ARITY[family] <= cap]
    return cases + [("nc_p2", 67), ("ut2", 17), ("mat2", 7)]


@pytest.mark.parametrize("family, p", fresh_builtins_within(DEFAULT_VALIDATION_CAP))
def test_commute_mask_and_census_from_kernels_match_the_table(family, p, same_graph_as_mask):
    ring = BUILDERS[family](p)
    (labels, quotient), central = ring.centralizer_classes, ring.central
    assert "table" not in ring.__dict__  # both came from the kernels
    table = BUILDERS[family](p).table
    mask = table == table.T
    assert np.array_equal(quotient[labels][:, labels], mask)
    assert np.array_equal(central, mask.all(axis=1))
    # the classes are the distinct rows of the mask, first seen first
    census = list({row.tobytes(): row for row in mask}.values())
    assert len(quotient) == len(census)
    assert all(np.array_equal(got, want) for got, want in zip(quotient[:, labels], census))
    assert np.array_equal(labels, row_labels(mask)[0])
    assert not labels.flags.writeable and not quotient.flags.writeable
    # the invariants that read the census
    pairs = int(mask.sum())
    assert commuting_probability(BUILDERS[family](p)) == Fraction(pairs, ring.order ** 2)
    # the commuting graph's census: its labels split the non-central
    # elements as their rows of the mask do, and its quotient, read at
    # the labels, is the mask between them; neither needs the mask
    fresh = BUILDERS[family](p)
    labels, quotient = fresh.noncentral_classes()
    assert "table" not in fresh.__dict__
    noncentral = np.flatnonzero(~mask.all(axis=1))
    block = mask[np.ix_(noncentral, noncentral)]
    assert np.array_equal(labels, row_labels(block)[0])
    assert np.array_equal(quotient.take(labels, axis=0).take(labels, axis=1), block)
    if len(noncentral):
        same_graph_as_mask(commuting_graph(fresh), mask)


@st.composite
def builtin_rows(draw):
    family, p = draw(st.sampled_from(
        [("zn", n) for n in (1, 2, 6, 12, 25)] + [("nc_p2", p) for p in (2, 3, 7)]
        + [("ut2", p) for p in (2, 3, 5)] + [("mat2", p) for p in (2, 3)]))
    order = p ** ARITY[family]
    indices = draw(st.lists(st.integers(0, order - 1), max_size=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, order - 1), st.integers(0, order - 1)),
                          max_size=12))
    return family, p, indices, pairs


@settings(deadline=None, max_examples=60)
@given(builtin_rows())
def test_rows_and_multiply_come_from_coordinates(multiply, case):
    family, p, indices, pairs = case
    ring, moduli = BUILDERS[family](p), (p,) * ARITY[family]
    rows = ring.rows(np.array(indices, dtype=np.intp))
    assert rows.dtype == np.int32 and rows.shape == (len(indices), ring.order)
    for i, j in pairs:
        x, y = (list(np.unravel_index(v, moduli)) for v in (i, j))
        want = int(np.ravel_multi_index(coordinate_rule_row(family, p, x, y), moduli))
        assert multiply(ring, i, j) == want
        assert ring.rows([i])[0, j] == want
    assert "table" not in ring.__dict__
    assert np.array_equal(rows, BUILDERS[family](p).table[indices])


def test_builtin_tables_satisfy_ring_axioms():
    for ring in (zn(6), ring_noncomm_p2(2), ring_noncomm_p2(3),
                 upper_triangular_ring(2), matrix_ring_2x2(2),
                 direct_product(ring_noncomm_p2(2), zn(3))):
        validate_ring_axioms(ring.moduli, ring.table)


def test_center_matches_brute_force(multiply):
    for ring in (zn(6), ring_noncomm_p2(3), upper_triangular_ring(2),
                 matrix_ring_2x2(2)):
        want = [x for x in range(ring.order)
                if all(multiply(ring, x, y) == multiply(ring, y, x) for y in range(ring.order))]
        assert np.flatnonzero(ring.central).tolist() == want
        assert not ring.central.flags.writeable


def test_center_sizes():
    assert ring_noncomm_p2(3).central.sum() == 1
    assert upper_triangular_ring(3).central.sum() == 3
    assert matrix_ring_2x2(3).central.sum() == 3
    assert direct_product(upper_triangular_ring(2), zn(2)).central.sum() == 4


def test_centralizer_matches_brute_force(multiply):
    ring = matrix_ring_2x2(2)
    labels, quotient = ring.centralizer_classes
    for x in range(ring.order):
        want = [y for y in range(ring.order)
                if multiply(ring, x, y) == multiply(ring, y, x)]
        assert np.flatnonzero(quotient[labels[x]][labels]).tolist() == want


def test_centralizer_counts():
    for p in PRIMES:
        assert centralizer_count(ring_noncomm_p2(p)) == p + 2
    assert centralizer_count(matrix_ring_2x2(2)) == 8
    assert centralizer_count(zn(12)) == 1


def test_commuting_probability_dual_route(multiply):
    for ring in (ring_noncomm_p2(2), ring_noncomm_p2(3),
                 upper_triangular_ring(2), matrix_ring_2x2(2)):
        n = ring.order
        commutes = np.array([[multiply(ring, x, y) == multiply(ring, y, x)
                              for y in range(n)] for x in range(n)])
        labels, quotient = ring.centralizer_classes
        assert np.array_equal(quotient[labels][:, labels], commutes)
        with pytest.raises(ValueError):
            quotient[0, 0] = False
        with pytest.raises(ValueError):
            labels[0] = 1
        assert commuting_probability(ring) == Fraction(int(commutes.sum()), n * n)


def test_commuting_probability_closed_form():
    for p in PRIMES:
        want = Fraction(p * p + p - 1, p ** 3)
        assert commuting_probability(ring_noncomm_p2(p)) == want
    assert commuting_probability(zn(9)) == 1


def test_has_unity():
    assert has_unity(zn(6)) == 1
    assert has_unity(ring_noncomm_p2(3)) is None
    ut = upper_triangular_ring(3)
    assert has_unity(ut) == np.ravel_multi_index((1, 0, 1), ut.moduli)
    m = matrix_ring_2x2(2)
    assert has_unity(m) == np.ravel_multi_index((1, 0, 0, 1), m.moduli)
    assert has_unity(direct_product(ut, zn(2))) is not None


def brute_unity(ring):
    """The first element whose row and column of the table are both the identity map."""
    idx = np.arange(ring.order)
    for e in range(ring.order):
        if np.array_equal(ring.table[e], idx) and np.array_equal(ring.table[:, e], idx):
            return e
    return None


@pytest.mark.parametrize("spec", [
    *(f"{family}:p={p}" for family in ("nc_p2", "mat2", "ut2") for p in (2, 3)),
    "nc_p2:p=5", "ut2:p=5",
    *(f"zn:n={n}" for n in (1, 2, 6, 9, 12)),
    "prod(nc_p2:p=2,zn:n=2)", "prod(ut2:p=2,zn:n=3)", "prod(mat2:p=2,zn:n=2)",
    "prod(nc_p2:p=2,nc_p2:p=2)", "prod(ut2:p=2,mat2:p=2)",
])
def test_has_unity_matches_a_scan_of_every_element(spec):
    ring = parse_ring_spec(spec)
    want = brute_unity(ring)
    assert has_unity(ring) == want
    if spec.startswith(("nc_p2", "prod(nc_p2")):
        # left identities exist, so a row alone does not make a unity
        idx = np.arange(ring.order)
        assert want is None
        assert any(np.array_equal(row, idx) for row in ring.table)
    else:
        assert type(has_unity(ring)) is int


def central_row_unity(ring):
    """The first central element whose table row is the identity map, a
    row block at a time: a central left identity is a unity."""
    idx = np.arange(ring.order)
    central = np.flatnonzero(ring.central)
    for start in range(0, len(central), 256):
        chunk = central[start:start + 256]
        hits = np.flatnonzero((ring.rows(chunk) == idx).all(axis=1))
        if hits.size:
            return int(chunk[hits[0]])
    return None


@pytest.mark.parametrize("spec", [
    "prod(mat2:p=2,mat2:p=2)", "prod(mat2:p=2,nc_p2:p=5)", "prod(mat2:p=2,zn:n=2)",
    "prod(mat2:p=3,zn:n=3)", "prod(mat2:p=5,zn:n=5)", "prod(nc_p2:p=2,mat2:p=2)",
    "prod(nc_p2:p=2,nc_p2:p=3)", "prod(nc_p2:p=2,ut2:p=2)", "prod(nc_p2:p=2,zn:n=1250)",
    "prod(nc_p2:p=3,ut2:p=3)", "prod(nc_p2:p=5,ut2:p=2)", "prod(ut2:p=2,mat2:p=2)",
    "prod(ut2:p=2,ut2:p=3)", "prod(ut2:p=2,zn:n=4)", "prod(ut2:p=3,zn:n=1)",
    "prod(ut2:p=5,zn:n=25)", "prod(zn:n=2,zn:n=3)", "prod(zn:n=4,ut2:p=2)",
    "prod(prod(nc_p2:p=2,nc_p2:p=2),zn:n=2)", "prod(prod(ut2:p=2,zn:n=2),zn:n=3)",
    "prod(prod(zn:n=2,zn:n=2),zn:n=3)", "prod(zn:n=3,prod(mat2:p=2,ut2:p=2))",
])
def test_has_unity_of_a_product_pairs_its_factors_unities(spec):
    # a product has a unity exactly when both factors have one, and it is
    # their pair; nc_p2 has none, so neither has any product with it
    ring = parse_ring_spec(spec)
    want = central_row_unity(ring)
    assert has_unity(ring) == want
    assert (want is None) == ("nc_p2" in spec)


def test_has_unity_of_a_nested_product_is_one_call(monkeypatch):
    # the factors' unities are found without calling has_unity again, so
    # a count of its calls counts the questions asked
    from msnring import rings
    calls = []
    real = rings.has_unity
    monkeypatch.setattr(rings, "has_unity", lambda ring: calls.append(ring) or real(ring))
    ring = parse_ring_spec("prod(zn:n=3,prod(mat2:p=2,ut2:p=2))")
    assert rings.has_unity(ring) == central_row_unity(ring)
    assert calls == [ring]


def test_is_cc_ring():
    assert is_cc_ring(zn(8)) is None
    for ring in (ring_noncomm_p2(3), upper_triangular_ring(3), matrix_ring_2x2(2)):
        assert is_cc_ring(ring) is True
    doubled = direct_product(matrix_ring_2x2(2), matrix_ring_2x2(2))
    assert is_cc_ring(doubled) is False


@pytest.mark.parametrize("spec", ["prod(nc_p2:p=2,ut2:p=2)", "prod(mat2:p=2,zn:n=2)",
                                  "prod(prod(ut2:p=2,zn:n=2),zn:n=3)",
                                  "prod(zn:n=3,ut2:p=2)", "prod(zn:n=2,zn:n=3)",
                                  "prod(prod(nc_p2:p=2,nc_p2:p=2),zn:n=2)",
                                  "file:prod(nc_p2:p=2,ut2:p=2)"])
def test_centralizer_census_on_products_matches_multiply(spec, tmp_path, multiply):
    if spec.startswith("file:"):  # the same product as a table ring, read back
        save_ring(parse_ring_spec(spec[len("file:"):]), tmp_path / "ring.json")
        spec = f"file:{tmp_path / 'ring.json'}"
    ring = parse_ring_spec(spec)
    elements = range(ring.order)
    centralizers = [frozenset(y for y in elements
                              if multiply(ring, x, y) == multiply(ring, y, x))
                    for x in elements]
    distinct = set(centralizers)
    noncentral = [c for c in distinct if len(c) < ring.order]
    commutative = all(multiply(ring, a, b) == multiply(ring, b, a)
                      for c in noncentral for a in c for b in c)
    # the count, the probability, the CC verdict and the centralizer sizes
    # come from the census: a product's from its factors', without its
    # table, and a table ring's from table == table.T
    assert centralizer_count(ring) == len(distinct)
    assert commuting_probability(ring) == Fraction(sum(map(len, centralizers)), ring.order**2)
    assert is_cc_ring(ring) is (commutative if noncentral else None)
    assert noncentral_centralizer_sizes(ring) == sorted(map(len, noncentral))
    labels, quotient = ring.centralizer_classes
    assert [set(np.flatnonzero(row)) for row in quotient[:, labels]] == \
        list(dict.fromkeys(centralizers))
    assert not labels.flags.writeable and not quotient.flags.writeable
    if ring.factors:
        assert "table" not in ring.__dict__
        # and they agree with the Kronecker product of the factors' masks
        (a, c), (b, d) = (f.centralizer_classes for f in ring.factors)
        kron = np.kron(c[a][:, a], d[b][:, b])
        assert np.array_equal(quotient[labels][:, labels], kron)
        assert centralizer_count(ring) == len({row.tobytes() for row in kron})
        assert commuting_probability(ring) == Fraction(int(kron.sum()), ring.order**2)


def test_noncentral_centralizer_sizes_multiset():
    # three distinct centralizers of equal size must appear three times
    assert noncentral_centralizer_sizes(upper_triangular_ring(2)) == [4, 4, 4]
    assert noncentral_centralizer_sizes(ring_noncomm_p2(2)) == [2, 2, 2]
    assert noncentral_centralizer_sizes(matrix_ring_2x2(2)) == [4] * 7


def quotient_order_census(ring):
    z = set(np.flatnonzero(ring.central).tolist())
    counts = Counter()
    for x in np.ndindex(ring.moduli):
        acc, k = x, 1
        while np.ravel_multi_index(acc, ring.moduli) not in z:
            acc = tuple((a + b) % d for a, b, d in zip(acc, x, ring.moduli))
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


def pair_ring(m):
    """Pairs over Z_m with (a, b)(c, d) = (ac, ad); its center is zero alone."""
    a, b = divmod(np.arange(m * m), m)
    table = (a[:, None] * a[None, :] % m) * m + a[:, None] * b[None, :] % m
    return ring_from_table((m, m), table, name=f"pairs:m={m}")


def quotient_type_rings():
    """Quotients of exponent p and, past elementary abelian, of Z_4, Z_6 and
    mixed-prime types, with their expected invariant factors."""
    return (
        (ring_noncomm_p2(2), [2, 2]), (ring_noncomm_p2(5), [5, 5]),
        (upper_triangular_ring(3), [3, 3]), (matrix_ring_2x2(2), [2, 2, 2]),
        (direct_product(upper_triangular_ring(2), zn(2)), [2, 2]),
        (pair_ring(4), [4, 4]), (pair_ring(6), [6, 6]),
        (direct_product(pair_ring(4), ring_noncomm_p2(2)), [2, 2, 4, 4]),
        (parse_ring_spec("prod(nc_p2:p=2,nc_p2:p=3)"), [6, 6]),
        (parse_ring_spec("prod(mat2:p=2,nc_p2:p=5)"), [2, 10, 10]),
    )


def test_additive_quotient_type_against_order_census():
    for ring, _ in quotient_type_rings():
        reported = tuple(additive_quotient_type(ring))
        n = ring.order // int(ring.central.sum())
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
    for ring, want in quotient_type_rings():
        assert additive_quotient_type(ring) == want, ring.name


def test_not_prime_rejected():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises(NotPrime):
            ring_noncomm_p2(bad)
    with pytest.raises(NotPrime):
        matrix_ring_2x2(4)


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
    with pytest.raises(SizeCapExceeded, match=f"^order 600 exceeds the validation cap "
                                              f"{DEFAULT_VALIDATION_CAP}$"):
        ring_from_table((600,), np.zeros((600, 600), dtype=int))


@pytest.mark.parametrize("table", [[[0, 0], [0]], [[0, 0], 0], [[0, [0]], [0, 0]]])
def test_ring_from_table_rejects_ragged_table(table):
    with pytest.raises(DimensionMismatch, match="square integer array"):
        ring_from_table([2], table)


def test_ring_from_table_rejects_non_integer_entries():
    # each of these used to load silently as [[0, 0], [0, 1]]
    for table in ([[0, 0], [0, 1.7]], [[0, 0], [0, 1.0]],
                  [[False, False], [False, True]], [[0, 0], [0, True]],
                  np.array([[0.0, 0.0], [0.0, 1.0]])):
        with pytest.raises(DimensionMismatch, match="integers"):
            ring_from_table((2,), table)
    assert ring_from_table((2,), [[0, 0], [0, 1]]).table.tolist() == [[0, 0], [0, 1]]


def test_ring_from_table_rejects_non_integer_moduli():
    # [2.5] used to load with moduli (2,), and a bare 2 raised a TypeError
    for moduli in ([2.5], [2.0], [True, True], (np.float64(2),), 2, "2"):
        with pytest.raises(DimensionMismatch, match="moduli must be a list of integers"):
            ring_from_table(moduli, [[0, 0], [0, 1]])
    assert ring_from_table([np.int64(2)], [[0, 0], [0, 1]]).moduli == (2,)


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


@pytest.mark.parametrize("spec", [
    "nc_p2:p=\u0663", "zn:n=1_0", "zn:n=+6", "zn:n= 6", "zn:n=6.0", "mat2:p=\uff12",
    "prod(zn:n=2,zn:n=\u0663)",
])
def test_parse_ring_spec_rejects_non_ascii_decimal_integers(spec):
    # int() would have read each parameter as a number
    with pytest.raises(RingSpecError, match="is not an integer"):
        parse_ring_spec(spec)


def test_parse_ring_spec_negative_keeps_constructor_message():
    with pytest.raises(DimensionMismatch, match="n must be at least 1"):
        parse_ring_spec("zn:n=-3")


def test_parse_ring_spec_file(tmp_path):
    path = tmp_path / "ring.json"
    save_ring(zn(4), path)
    ring = parse_ring_spec(f"file:{path}")
    assert ring.order == 4
    with pytest.raises(RingSpecError):
        parse_ring_spec(f"file:{tmp_path / 'missing.json'}")


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_prime_factors_reconstruct(n):
    factors = prime_factors(n)
    assert math.prod(p ** e for p, e in factors.items()) == n
    assert all(is_prime(p) for p in factors)
    assert is_prime(n) == (factors == {n: 1})


@given(st.sampled_from(PRIMES), st.sampled_from(PRIMES))
def test_product_center_multiplies(p, q):
    r = direct_product(ring_noncomm_p2(p), zn(q))
    assert r.central.sum() == q
    assert r.order == p * p * q
