"""Per-family predictions used by the verifier.

Every prediction here reduces to the same two facts about a disjoint
union of complete graphs l_1 K_{m_1} + ... + l_r K_{m_r}, whose closed
forms live in the spectra module and are re-exported here:

  msn spectrum: eigenvalue -(m_i - 1)^2 with multiplicity l_i (m_i - 1)
                and (m_i - 1)^3 with multiplicity l_i, merged across parts;
  cn spectrum:  (m_i - 1)(m_i - 2) with multiplicity l_i
                and -(m_i - 2) with multiplicity l_i (m_i - 1).

The prediction functions only substitute ring parameters into part lists
and enumerate the admissible (l_i) solutions of the stated constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .config import DEFAULT_ENUMERATION_CAP
from .graphs import CliqueUnion
from .rings import is_prime
# the closed forms are part of this module's public names
from .spectra import (
    SpectrumMultiset,
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

    def spectra(self) -> tuple[SpectrumMultiset, ...]:
        return tuple(clique_union_msn_spectrum(d) for d in self.decompositions)

    def params_dict(self) -> dict:
        return dict(self.params)

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


def _require_prime(value, name: str) -> int:
    _require(value is not None, f"parameter {name} is required")
    _require(isinstance(value, int) and is_prime(value), f"{name} = {value!r} is not prime")
    return value


def _require_distinct_primes(p, q) -> tuple[int, int]:
    pp, qq = _require_prime(p, "p"), _require_prime(q, "q")
    _require(pp != qq, f"p and q must be distinct primes, got p = q = {pp}")
    return pp, qq


def _require_pos(value, name: str) -> int:
    _require(value is not None, f"parameter {name} is required")
    _require(isinstance(value, int) and value >= 1, f"{name} = {value!r} must be a positive integer")
    return value


def _single(theorem, params, pairs) -> ClosedFormPrediction:
    return ClosedFormPrediction(theorem, tuple(params.items()), (CliqueUnion.of(pairs),))


def _family(theorem, params, total, weights, sizes, cap,
            unsolvable: str | None = None) -> ClosedFormPrediction:
    """Every l_1 K_{sizes[0]} + ... + l_k K_{sizes[k-1]} with
    l_1 weights[0] + ... + l_k weights[k-1] = total, at most cap of them.

    The last count is outermost and ascending, and l_1 is settled by
    divisibility.  cap_exceeded says that more solutions exist.  With
    unsolvable given, an empty list raises HypothesisViolated with it.
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
    return ClosedFormPrediction(theorem, tuple(params.items()), decs, len(found) > limit)


def predict(theorem: TheoremId, *, p: int | None = None, q: int | None = None,
            m: int | None = None, t: int | None = None,
            sizes=None, cap: int = DEFAULT_ENUMERATION_CAP) -> ClosedFormPrediction:
    """Predicted commuting-graph decomposition(s) for one ring family.

    Raises HypothesisViolated when the supplied parameters break an
    arithmetic precondition (primality, membership, divisibility, or a
    linear constraint with no solutions).
    """
    tid = theorem
    if tid is TheoremId.T2_1 or tid is TheoremId.C2_2D or tid is TheoremId.C2_3B:
        pp = _require_prime(p, "p")
        mm = _require_pos(m, "m")
        return _single(tid, {"p": pp, "m": mm}, [((pp - 1) * mm, pp + 1)])
    if tid is TheoremId.C2_2A or tid is TheoremId.C2_3A:
        mm = _require_pos(m, "m")
        return _single(tid, {"p": 2, "m": mm}, [(mm, 3)])
    if tid is TheoremId.C2_2B:
        mm = _require_pos(m, "m")
        return _single(tid, {"p": 3, "m": mm}, [(2 * mm, 4)])
    if tid is TheoremId.C2_2C:
        mm = _require_pos(m, "m")
        return _single(tid, {"p": 5, "m": mm}, [(4 * mm, 6)])
    if tid is TheoremId.C2_4A:
        pp = _require_prime(p, "p")
        return _single(tid, {"p": pp, "m": 1}, [(pp - 1, pp + 1)])
    if tid is TheoremId.C2_4B:
        pp = _require_prime(p, "p")
        return _single(tid, {"p": pp, "m": pp}, [(pp * (pp - 1), pp + 1)])
    if tid is TheoremId.T3_1A:
        pp = _require_prime(p, "p")
        return _family(tid, {"p": pp}, pp * pp + pp + 1, (1, pp + 1),
                       (pp * (pp - 1), pp * (pp * pp - 1)), cap)
    if tid is TheoremId.T3_1B:
        pp = _require_prime(p, "p")
        return _single(tid, {"p": pp}, [(pp * pp * (pp - 1), pp + 1)])
    if tid is TheoremId.T3_3A:
        pp = _require_prime(p, "p")
        return _family(tid, {"p": pp}, pp * pp + pp + 1, (1, pp + 1),
                       (pp * pp * (pp - 1), pp * pp * (pp * pp - 1)), cap)
    if tid is TheoremId.T3_3B:
        pp = _require_prime(p, "p")
        return _single(tid, {"p": pp}, [(pp ** 3 * (pp - 1), pp + 1)])
    if tid is TheoremId.T4_1A:
        pp, qq = _require_distinct_primes(p, q)
        tt = _require_pos(t, "t")
        allowed = {pp, qq, pp * pp, pp * qq}
        _require(tt in allowed, f"t = {tt} is not in {sorted(allowed)}")
        order1 = pp * pp * qq - 1
        _require(order1 % (tt - 1) == 0,
                 f"(t - 1) = {tt - 1} does not divide p^2 q - 1 = {order1}")
        return _single(tid, {"p": pp, "q": qq, "t": tt},
                       [(tt - 1, order1 // (tt - 1))])
    if tid is TheoremId.T4_1B:
        pp, qq = _require_distinct_primes(p, q)
        total = pp * pp * qq - 1
        weights = (pp - 1, qq - 1, pp * pp - 1, pp * qq - 1)
        return _family(tid, {"p": pp, "q": qq}, total, weights, weights, cap,
                       f"no nonnegative solutions partition {total}")
    if tid is TheoremId.T4_3:
        pp, qq = _require_distinct_primes(p, q)
        return _single(tid, {"p": pp, "q": qq}, [(pp * qq * (pp - 1), pp + 1)])
    if tid is TheoremId.T4_4A or tid is TheoremId.T4_4B:
        pp, qq = _require_distinct_primes(p, q)
        tt = pp if tid is TheoremId.T4_4A else qq
        total = pp * qq - 1
        _require(total % (tt - 1) == 0,
                 f"(t - 1) = {tt - 1} does not divide pq - 1 = {total}")
        return _single(tid, {"p": pp, "q": qq},
                       [(pp * pp * (tt - 1), total // (tt - 1))])
    if tid is TheoremId.T4_4C:
        pp, qq = _require_distinct_primes(p, q)
        total = pp * qq - 1
        return _family(tid, {"p": pp, "q": qq}, total, (pp - 1, qq - 1),
                       (pp * pp * (pp - 1), pp * pp * (qq - 1)), cap,
                       f"no nonnegative solutions to (p-1) l1 + (q-1) l2 = {total}")
    if tid is TheoremId.T5_1:
        mm = _require_pos(m, "m")
        _require(sizes is not None and len(tuple(sizes)) > 0,
                 "parameter sizes (the centralizer orders) is required")
        parts = []
        for s in sizes:
            _require(isinstance(s, int) and s > mm,
                     f"centralizer order {s!r} must exceed m = {mm}")
            parts.append((s - mm, 1))
        return _single(tid, {"m": mm, "sizes": tuple(sizes)}, parts)
    raise ValueError(f"no prediction for {theorem!r}")
