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


def _require_pos(value, name: str) -> int:
    _require(value is not None, f"parameter {name} is required")
    _require(isinstance(value, int) and value >= 1, f"{name} = {value!r} must be a positive integer")
    return value


def _single(theorem, params, pairs) -> ClosedFormPrediction:
    return ClosedFormPrediction(theorem, tuple(params.items()), (CliqueUnion.of(pairs),))


def _two_size_family(theorem, params, total, weight2, size1, size2,
                     cap) -> ClosedFormPrediction:
    """All l1*1 + l2*weight2 = total splits into l1 K_size1 + l2 K_size2."""
    decs = []
    hit_cap = False
    l2 = 0
    while l2 * weight2 <= total:
        l1 = total - l2 * weight2
        if len(decs) >= cap:
            hit_cap = True
            break
        decs.append(CliqueUnion.of([(size1, l1), (size2, l2)]))
        l2 += 1
    return ClosedFormPrediction(theorem, tuple(params.items()), tuple(decs), hit_cap)


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
        return _two_size_family(tid, {"p": pp}, pp * pp + pp + 1, pp + 1,
                                pp * (pp - 1), pp * (pp * pp - 1), cap)
    if tid is TheoremId.T3_1B:
        pp = _require_prime(p, "p")
        return _single(tid, {"p": pp}, [(pp * pp * (pp - 1), pp + 1)])
    if tid is TheoremId.T3_3A:
        pp = _require_prime(p, "p")
        return _two_size_family(tid, {"p": pp}, pp * pp + pp + 1, pp + 1,
                                pp * pp * (pp - 1), pp * pp * (pp * pp - 1), cap)
    if tid is TheoremId.T3_3B:
        pp = _require_prime(p, "p")
        return _single(tid, {"p": pp}, [(pp ** 3 * (pp - 1), pp + 1)])
    if tid is TheoremId.T4_1A:
        pp = _require_prime(p, "p")
        qq = _require_prime(q, "q")
        _require(pp != qq, f"p and q must be distinct primes, got p = q = {pp}")
        tt = _require_pos(t, "t")
        allowed = {pp, qq, pp * pp, pp * qq}
        _require(tt in allowed, f"t = {tt} is not in {sorted(allowed)}")
        order1 = pp * pp * qq - 1
        _require(order1 % (tt - 1) == 0,
                 f"(t - 1) = {tt - 1} does not divide p^2 q - 1 = {order1}")
        return _single(tid, {"p": pp, "q": qq, "t": tt},
                       [(tt - 1, order1 // (tt - 1))])
    if tid is TheoremId.T4_1B:
        pp = _require_prime(p, "p")
        qq = _require_prime(q, "q")
        _require(pp != qq, f"p and q must be distinct primes, got p = q = {pp}")
        total = pp * pp * qq - 1
        weights = [pp - 1, qq - 1, pp * pp - 1, pp * qq - 1]
        sizes4 = list(weights)
        decs: list[CliqueUnion] = []
        hit_cap = False
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
                    decs.append(CliqueUnion.of(
                        list(zip(sizes4, (l1, l2, l3, l4)))))
                if hit_cap:
                    break
            if hit_cap:
                break
        _require(bool(decs), f"no nonnegative solutions partition {total}")
        return ClosedFormPrediction(tid, (("p", pp), ("q", qq)), tuple(decs), hit_cap)
    if tid is TheoremId.T4_3:
        pp = _require_prime(p, "p")
        qq = _require_prime(q, "q")
        _require(pp != qq, f"p and q must be distinct primes, got p = q = {pp}")
        return _single(tid, {"p": pp, "q": qq}, [(pp * qq * (pp - 1), pp + 1)])
    if tid is TheoremId.T4_4A or tid is TheoremId.T4_4B:
        pp = _require_prime(p, "p")
        qq = _require_prime(q, "q")
        _require(pp != qq, f"p and q must be distinct primes, got p = q = {pp}")
        tt = pp if tid is TheoremId.T4_4A else qq
        total = pp * qq - 1
        _require(total % (tt - 1) == 0,
                 f"(t - 1) = {tt - 1} does not divide pq - 1 = {total}")
        return _single(tid, {"p": pp, "q": qq},
                       [(pp * pp * (tt - 1), total // (tt - 1))])
    if tid is TheoremId.T4_4C:
        pp = _require_prime(p, "p")
        qq = _require_prime(q, "q")
        _require(pp != qq, f"p and q must be distinct primes, got p = q = {pp}")
        total = pp * qq - 1
        decs = []
        hit_cap = False
        for l2 in range(total // (qq - 1) + 1):
            rem = total - l2 * (qq - 1)
            if rem % (pp - 1):
                continue
            if len(decs) >= cap:
                hit_cap = True
                break
            l1 = rem // (pp - 1)
            decs.append(CliqueUnion.of([(pp * pp * (pp - 1), l1),
                                        (pp * pp * (qq - 1), l2)]))
        _require(bool(decs),
                 f"no nonnegative solutions to (p-1) l1 + (q-1) l2 = {total}")
        return ClosedFormPrediction(tid, (("p", pp), ("q", qq)), tuple(decs), hit_cap)
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
