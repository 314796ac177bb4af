"""The paper's results: what each assumes of a ring, and its prediction.

Every prediction here reduces to the same two facts about a disjoint
union of complete graphs l_1 K_{m_1} + ... + l_r K_{m_r}, whose closed
forms live in the spectra module and are re-exported here:

  msn spectrum: eigenvalue -(m_i - 1)^2 with multiplicity l_i (m_i - 1)
                and (m_i - 1)^3 with multiplicity l_i, merged across parts;
  cn spectrum:  (m_i - 1)(m_i - 2) with multiplicity l_i
                and -(m_i - 2) with multiplicity l_i (m_i - 1).

FAMILIES is the one table keyed by TheoremId.  Its row for a result
holds the hypotheses, the ring-invariant check, the parameters predict
takes, the predicted graph and the built-in model ring.  predict reads
the row: it checks the parameters, then substitutes them into a part
list or enumerates the admissible (l_i) solutions of a linear constraint.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice

from .config import DEFAULT_ENUMERATION_CAP
from .graphs import CliqueUnion
from .rings import (
    FiniteRing,
    NotPrime,
    additive_quotient_type,
    centralizer_count,
    commuting_probability,
    direct_product,
    is_cc_ring,
    is_prime,
    matrix_ring_2x2,
    noncentral_centralizer_sizes,
    prime_factors,
    ring_noncomm_p2,
    upper_triangular_ring,
    zn,
)
# the closed forms are part of this module's public names
from .spectra import (
    clique_union_cn_energy,
    clique_union_cn_spectrum,
    clique_union_msn_energy,
    clique_union_msn_spectrum,
    reference_energies,
)


class TheoremId(Enum):
    T2_1 = "t2_1"
    C2_2A = "c2_2a"
    C2_2B = "c2_2b"
    C2_2C = "c2_2c"
    C2_2D = "c2_2d"
    C2_3A = "c2_3a"
    C2_3B = "c2_3b"
    C2_4A = "c2_4a"
    C2_4B = "c2_4b"
    T3_1A = "t3_1a"
    T3_1B = "t3_1b"
    T3_3A = "t3_3a"
    T3_3B = "t3_3b"
    T4_1A = "t4_1a"
    T4_1B = "t4_1b"
    T4_3 = "t4_3"
    T4_4A = "t4_4a"
    T4_4B = "t4_4b"
    T4_4C = "t4_4c"
    T5_1 = "t5_1"

    @classmethod
    def from_string(cls, s: str) -> "TheoremId":
        try:
            return cls(s.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown theorem id {s!r}; known: {', '.join(t.value for t in cls)}"
            ) from None


class HypothesisViolated(Exception):
    """An arithmetic precondition of a prediction does not hold."""


@dataclass(frozen=True)
class ClosedFormPrediction:
    """Admissible decompositions for one theorem at fixed parameters.

    Single-form results have one decomposition; alternative-form results
    enumerate every nonnegative solution of the stated linear constraint.
    """

    theorem: TheoremId
    params: tuple[tuple[str, object], ...]
    decompositions: tuple[CliqueUnion, ...]
    cap_exceeded: bool = False

    def admits(self, parts: CliqueUnion) -> bool:
        return parts in self.decompositions

    def energies(self) -> tuple[int, ...]:
        return tuple(clique_union_msn_energy(d) for d in self.decompositions)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "params": {k: v for k, v in self.params},
            "decompositions": [str(d) for d in self.decompositions],
            "energies": list(self.energies()),
            "cap_exceeded": self.cap_exceeded,
        }


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise HypothesisViolated(detail)


def _family(cap, total, weights, sizes,
            unsolvable: str | None = None) -> tuple[tuple[CliqueUnion, ...], bool]:
    """Every l_1 K_{sizes[0]} + ... + l_k K_{sizes[k-1]} with
    l_1 weights[0] + ... + l_k weights[k-1] = total, at most cap of them,
    and whether more solutions exist.

    The last count is outermost and ascending, and l_1 is settled by
    divisibility.  With unsolvable given, an empty list raises
    HypothesisViolated with it.
    """

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
        _require(bool(decs), unsolvable)
    return decs, len(found) > limit


@dataclass(frozen=True)
class Family:
    """One result: what it assumes of a ring, and the graph it predicts.

    verification checks the hypotheses in field order: a unity; the shape
    of |R|, "p^e", "p^e q" or "p^k" for any e; a center that is not a
    field; |Z(R)| = center(p) or center(p, q), reported as center_name
    and the value; then invariant(ring, p), which raises
    HypothesisViolated or returns the parameters it reads off the ring.
    predict checks the parameters named in takes, in the order p, q, m,
    t, sizes, and reports params(**those), or those.  The graph is each
    solution _family finds of forms(**params) (total, weights, sizes and
    an optional unsolvable message), or graph(**params), or else
    (p + 1) K_{(p - 1) m}, as R / Z(R) = Z_p^2 with m the parameter or
    center.  model(p, q) builds a ring with every hypothesis, or None for
    a p the family does not cover; no_model says why no ring has them.
    """

    unity: bool = False
    order: str = ""
    center_not_field: bool = False
    center: Callable[..., int] | None = None
    center_name: str = ""
    invariant: Callable[[FiniteRing, int | None], dict] | None = None
    takes: tuple[str, ...] = ("p",)
    params: Callable[..., dict] | None = None
    forms: Callable[..., tuple] | None = None
    graph: Callable[..., list[tuple[int, int]]] | None = None
    model: Callable[[int, int | None], FiniteRing | None] | None = None
    no_model: str = ""

    @property
    def takes_q(self) -> bool:
        return self.order.endswith(" q")

    def parts(self, params: dict) -> list[tuple[int, int]]:
        """The (size, count) pairs of the one predicted clique union."""
        if self.graph is not None:
            return self.graph(**params)
        p = params["p"]
        m = params["m"] if "m" in params else self.center(**params)
        return [((p - 1) * m, p + 1)]


# The invariant checks and models call the ring functions by their names
# in this module, so the benchmark's traced run, which rebinds module
# names, times each call.

def _quotient_type(ring: FiniteRing, p: int | None) -> dict:
    aqt = additive_quotient_type(ring)
    if p is None:
        _require(len(aqt) == 2 and aqt[0] == aqt[1] and is_prime(aqt[0]),
                 f"additive quotient type {aqt} is not of the form [p, p]")
        return {"p": aqt[0]}
    _require(aqt == [p, p], f"additive quotient type {aqt} differs from [{p}, {p}]")
    return {"p": p}


def _centralizers(ring: FiniteRing, want: int, name: str = "") -> dict:
    count = centralizer_count(ring)
    _require(count == want, f"ring has {count} centralizers, not {name}{want}")
    return {}


def _probability(ring: FiniteRing, want: Fraction) -> dict:
    pr = commuting_probability(ring)
    _require(pr == want, f"commuting probability is {pr}, not {want}")
    return {}


def _smallest_prime_probability(ring: FiniteRing, p: int | None) -> dict:
    smallest = min(prime_factors(ring.order))
    _require(p is None or p == smallest,
             f"smallest prime divisor of |R| = {ring.order} is {smallest}, not {p}")
    _probability(ring, Fraction(smallest * smallest + smallest - 1, smallest ** 3))
    return {"p": smallest}


def _cc_sizes(ring: FiniteRing, p: int | None) -> dict:
    _require(is_cc_ring(ring) is True,
             "some non-central element has a non-commutative centralizer")
    return {"sizes": tuple(noncentral_centralizer_sizes(ring))}


def _t4_1a_graph(p: int, q: int, t: int) -> list[tuple[int, int]]:
    allowed = {p, q, p * p, p * q}
    _require(t in allowed, f"t = {t} is not in {sorted(allowed)}")
    order1 = p * p * q - 1
    _require(order1 % (t - 1) == 0, f"(t - 1) = {t - 1} does not divide p^2 q - 1 = {order1}")
    return [(t - 1, order1 // (t - 1))]


def _t4_1b_forms(p: int, q: int) -> tuple:
    total, weights = p * p * q - 1, (p - 1, q - 1, p * p - 1, p * q - 1)
    return total, weights, weights, f"no nonnegative solutions partition {total}"


def _t4_4_graph(p: int, q: int, t: int) -> list[tuple[int, int]]:
    total = p * q - 1
    _require(total % (t - 1) == 0, f"(t - 1) = {t - 1} does not divide pq - 1 = {total}")
    return [(p * p * (t - 1), total // (t - 1))]


def _prime_q(q: int) -> int:
    if not is_prime(q):
        raise NotPrime(f"q = {q} is not prime")
    return q


# A finite ring is the direct sum of its p-primary ideals, and a ring of
# prime order q is commutative, so the order-q summand is central.
_WHY = "; the order-q summand of a finite ring is a commutative ideal, so q divides |Z(R)|"
_P3Q = dict(unity=True, order="p^3 q", center=lambda p, q: p * p, center_name="p^2 = ",
            takes=("p", "q"), no_model="no ring has |R| = p^3 q with |Z(R)| = p^2" + _WHY)
_P2Q = dict(order="p^2 q", center=lambda p, q: 1,
            no_model="no ring has |R| = p^2 q with |Z(R)| = 1" + _WHY)

FAMILIES: dict[TheoremId, Family] = {
    TheoremId.T2_1: Family(invariant=_quotient_type, takes=("p", "m"),
                           model=lambda p, q: ring_noncomm_p2(p)),
    TheoremId.C2_2A: Family(invariant=lambda ring, p: _centralizers(ring, 4), takes=("m",),
                            params=lambda m: {"p": 2, "m": m},
                            model=lambda p, q: ring_noncomm_p2(p) if p == 2 else None),
    TheoremId.C2_2B: Family(invariant=lambda ring, p: _centralizers(ring, 5), takes=("m",),
                            params=lambda m: {"p": 3, "m": m},
                            model=lambda p, q: ring_noncomm_p2(p) if p == 3 else None),
    TheoremId.C2_2C: Family(invariant=lambda ring, p: _centralizers(ring, 7), takes=("m",),
                            params=lambda m: {"p": 5, "m": m},
                            model=lambda p, q: ring_noncomm_p2(p) if p == 5 else None),
    TheoremId.C2_2D: Family(order="p^k", takes=("p", "m"),
                            invariant=lambda ring, p: _centralizers(ring, p + 2, "p + 2 = "),
                            model=lambda p, q: ring_noncomm_p2(p)),
    TheoremId.C2_3A: Family(invariant=lambda ring, p: _probability(ring, Fraction(5, 8)),
                            takes=("m",), params=lambda m: {"p": 2, "m": m},
                            model=lambda p, q: ring_noncomm_p2(p) if p == 2 else None),
    TheoremId.C2_3B: Family(invariant=_smallest_prime_probability, takes=("p", "m"),
                            model=lambda p, q: ring_noncomm_p2(p)),
    TheoremId.C2_4A: Family(order="p^2", params=lambda p: {"p": p, "m": 1},
                            model=lambda p, q: ring_noncomm_p2(p)),
    TheoremId.C2_4B: Family(unity=True, order="p^3", params=lambda p: {"p": p, "m": p},
                            model=lambda p, q: upper_triangular_ring(p)),
    TheoremId.T3_1A: Family(unity=True, order="p^4", center=lambda p: p,
                            forms=lambda p: (p * p + p + 1, (1, p + 1),
                                             (p * (p - 1), p * (p * p - 1))),
                            model=lambda p, q: matrix_ring_2x2(p)),
    TheoremId.T3_1B: Family(unity=True, order="p^4", center=lambda p: p * p,
                            model=lambda p, q: direct_product(upper_triangular_ring(p), zn(p))),
    TheoremId.T3_3A: Family(unity=True, order="p^5", center_not_field=True,
                            center=lambda p: p * p,
                            forms=lambda p: (p * p + p + 1, (1, p + 1),
                                             (p * p * (p - 1), p * p * (p * p - 1))),
                            model=lambda p, q: direct_product(matrix_ring_2x2(p), zn(p))),
    TheoremId.T3_3B: Family(unity=True, order="p^5", center_not_field=True,
                            center=lambda p: p ** 3,
                            model=lambda p, q: direct_product(upper_triangular_ring(p), zn(p * p))),
    TheoremId.T4_1A: Family(**_P2Q, takes=("p", "q", "t"), graph=_t4_1a_graph),
    TheoremId.T4_1B: Family(**_P2Q, takes=("p", "q"), forms=_t4_1b_forms),
    TheoremId.T4_3: Family(unity=True, order="p^3 q", center=lambda p, q: p * q,
                           center_name="pq = ", takes=("p", "q"),
                           model=lambda p, q: direct_product(upper_triangular_ring(p),
                                                             zn(_prime_q(q)))),
    TheoremId.T4_4A: Family(**_P3Q, graph=lambda p, q: _t4_4_graph(p, q, p)),
    TheoremId.T4_4B: Family(**_P3Q, graph=lambda p, q: _t4_4_graph(p, q, q)),
    TheoremId.T4_4C: Family(**_P3Q, forms=lambda p, q: (
        p * q - 1, (p - 1, q - 1), (p * p * (p - 1), p * p * (q - 1)),
        f"no nonnegative solutions to (p-1) l1 + (q-1) l2 = {p * q - 1}")),
    TheoremId.T5_1: Family(invariant=_cc_sizes, takes=("m", "sizes"),
                           graph=lambda m, sizes: [(s - m, 1) for s in sizes],
                           model=lambda p, q: upper_triangular_ring(p)),
}


def _parameter(name: str, value, checked: dict):
    """value as predict's parameter name, given the ones checked before
    it: p and q distinct primes, m and t positive integers, sizes a
    nonempty list of centralizer orders above m, read once into a tuple."""
    if name == "sizes":
        value = () if value is None else tuple(value)
        _require(bool(value), "parameter sizes (the centralizer orders) is required")
        for s in value:
            _require(isinstance(s, int) and s > checked["m"],
                     f"centralizer order {s!r} must exceed m = {checked['m']}")
        return value
    _require(value is not None, f"parameter {name} is required")
    if name in ("p", "q"):
        _require(isinstance(value, int) and is_prime(value), f"{name} = {value!r} is not prime")
        _require(checked.get("p") != value, f"p and q must be distinct primes, got p = q = {value}")
    else:
        _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
                 f"{name} = {value!r} must be a positive integer")
    return value


def predict(theorem: TheoremId, *, p: int | None = None, q: int | None = None,
            m: int | None = None, t: int | None = None,
            sizes=None, cap: int = DEFAULT_ENUMERATION_CAP) -> ClosedFormPrediction:
    """Predicted commuting-graph decomposition(s) for one ring family.

    Raises HypothesisViolated when the supplied parameters break an
    arithmetic precondition (primality, membership, divisibility, or a
    linear constraint with no solutions).
    """
    family = FAMILIES.get(theorem)
    if family is None:
        raise ValueError(f"no prediction for {theorem!r}")
    given = {"p": p, "q": q, "m": m, "t": t, "sizes": sizes}
    checked: dict = {}
    for name in family.takes:
        checked[name] = _parameter(name, given[name], checked)
    params = family.params(**checked) if family.params else checked
    if family.forms is not None:
        decs, exceeded = _family(cap, *family.forms(**params))
    else:
        decs, exceeded = (CliqueUnion.of(family.parts(params)),), False
    return ClosedFormPrediction(theorem, tuple(params.items()), decs, exceeded)
