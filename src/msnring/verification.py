"""Cross-checks of computed commuting graphs against the closed forms.

verify_ring runs three phases: ring-level hypothesis checks, an
independent graph computation, and a comparison against the predicted
decompositions.  The graph computation takes both spectra from
spectra.matrix_spectra, the single exact-or-numeric dispatch, and
requires its two routes to agree.  Where every support block is within
the exact cap, the exact msn spectrum is compared with the closed form;
above it the numeric one is, so no closed form ever stands in for a
computed spectrum.  All outcomes are verdicts on the report, never
exceptions.  A report holds the graph's spectra.EnergyReport, as classify
gives it, and the theorems.ClosedFormPrediction; to_json_dict converts both.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .graphs import (
    CliqueUnion,
    NotCliqueUnion,
    clique_decomposition,
    clique_union_graph,
    commuting_graph,
)
from .rings import (
    FiniteRing,
    NotPrime,
    SizeCapExceeded,
    additive_quotient_type,
    center,
    centralizer_count,
    commuting_probability,
    direct_product,
    has_unity,
    is_cc_ring,
    is_prime,
    matrix_ring_2x2,
    noncentral_centralizer_sizes,
    prime_factors,
    ring_noncomm_p2,
    upper_triangular_ring,
    zn,
)
from .spectra import (
    NUMERIC_MATCH_TOL,
    EnergyReport,
    MatrixSpectra,
    NotFullyIntegral,
    cn_matrix,
    exact_spectrum,
    matrix_spectra,
    msn_matrix,
    spectra_agree,
)
from .theorems import (
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


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"
    UNSUPPORTED = "UNSUPPORTED"


REPORT_CSV_HEADER = ("theorem", "ring", "verdict", "detail",
                     "decomposition", "msn_energy")


@dataclass(frozen=True)
class VerificationReport:
    theorem: TheoremId
    ring_spec: str
    params: tuple[tuple[str, object], ...]
    verdict: Verdict
    detail: str
    computed: EnergyReport | None
    predicted: ClosedFormPrediction | None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem.value,
            "ring": self.ring_spec,
            "params": {k: _jsonable(v) for k, v in self.params},
            "verdict": self.verdict.value,
            "detail": self.detail,
            "computed": None if self.computed is None else self.computed.to_json_dict(),
            "predicted": None if self.predicted is None else self.predicted.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def csv_row(self) -> tuple[str, ...]:
        dec = energy = ""
        if self.computed is not None:
            dec = str(self.computed.decomposition or "")
            energy = str(self.computed.msn_energy)
        return (self.theorem.value, self.ring_spec, self.verdict.value,
                self.detail, dec, energy)


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    return v


def _need(cond: bool, detail: str) -> None:
    if not cond:
        raise HypothesisViolated(detail)


def _prime_power(order: int, given: int | None, exp: int | None = None) -> int:
    factors = prime_factors(order)
    _need(len(factors) == 1, f"|R| = {order} is not a prime power")
    (pp, e), = factors.items()
    _need(exp is None or e == exp,
          f"|R| = {order} = {pp}^{e} does not have exponent {exp}")
    _need(given is None or given == pp,
          f"|R| = {order} conflicts with the supplied p = {given}")
    return pp


def _two_prime_shape(order: int, pexp: int, given_p: int | None,
                     given_q: int | None) -> tuple[int, int]:
    factors = prime_factors(order)
    _need(len(factors) == 2, f"|R| = {order} is not of the form p^{pexp} q")
    by_exp = {e: pp for pp, e in factors.items()}
    _need(set(by_exp) == {pexp, 1},
          f"|R| = {order} is not of the form p^{pexp} q")
    pp, qq = by_exp[pexp], by_exp[1]
    _need(given_p is None or given_p == pp,
          f"|R| = {order} conflicts with the supplied p = {given_p}")
    _need(given_q is None or given_q == qq,
          f"|R| = {order} conflicts with the supplied q = {given_q}")
    return pp, qq


def center_is_field(ring: FiniteRing) -> bool:
    """Literal field test on the center: unity and no zero divisors.

    The center of a finite ring is a commutative subring, so these two
    conditions decide the matter.  Only the center's rows of the table are
    read, once.
    """
    z = np.array(center(ring).elements)
    nonzero = z != 0
    if not nonzero.any():
        return False
    t = ring.rows(z)[:, z]  # t[i, j] = z[i] z[j]
    if not np.isin(t, z).all():
        return False
    unity = nonzero & (t == z).all(axis=1) & (t == z[:, None]).all(axis=0)
    if not unity.any():
        return False
    return bool((t[np.ix_(nonzero, nonzero)] != 0).all())


def _check_hypotheses(ring: FiniteRing, theorem: TheoremId,
                      p: int | None, q: int | None, t: int | None) -> dict:
    """Named ring-level hypothesis checks; returns the predict() kwargs.

    Raises HypothesisViolated naming the first failed hypothesis.
    """
    _need(not ring.is_commutative, "ring is commutative")
    order = ring.order
    m = center(ring).size
    tid = theorem

    if tid is TheoremId.T2_1:
        aqt = additive_quotient_type(ring)
        if p is None:
            _need(len(aqt) == 2 and aqt[0] == aqt[1] and is_prime(aqt[0]),
                  f"additive quotient type {aqt} is not of the form [p, p]")
            p = aqt[0]
        else:
            _need(aqt == [p, p],
                  f"additive quotient type {aqt} differs from [{p}, {p}]")
        return {"p": p, "m": m}
    if tid in (TheoremId.C2_2A, TheoremId.C2_2B, TheoremId.C2_2C):
        want = {TheoremId.C2_2A: 4, TheoremId.C2_2B: 5, TheoremId.C2_2C: 7}[tid]
        count = centralizer_count(ring)
        _need(count == want, f"ring has {count} centralizers, not {want}")
        return {"m": m}
    if tid is TheoremId.C2_2D:
        pp = _prime_power(order, p)
        count = centralizer_count(ring)
        _need(count == pp + 2, f"ring has {count} centralizers, not p + 2 = {pp + 2}")
        return {"p": pp, "m": m}
    if tid is TheoremId.C2_3A:
        pr = commuting_probability(ring)
        _need(pr == Fraction(5, 8), f"commuting probability is {pr}, not 5/8")
        return {"m": m}
    if tid is TheoremId.C2_3B:
        smallest = min(prime_factors(order))
        _need(p is None or p == smallest,
              f"smallest prime divisor of |R| = {order} is {smallest}, not {p}")
        pr = commuting_probability(ring)
        want = Fraction(smallest * smallest + smallest - 1, smallest ** 3)
        _need(pr == want, f"commuting probability is {pr}, not {want}")
        return {"p": smallest, "m": m}
    if tid is TheoremId.C2_4A:
        return {"p": _prime_power(order, p, 2)}
    if tid is TheoremId.C2_4B:
        _need(has_unity(ring) is not None, "ring has no unity")
        return {"p": _prime_power(order, p, 3)}
    if tid in (TheoremId.T3_1A, TheoremId.T3_1B):
        _need(has_unity(ring) is not None, "ring has no unity")
        pp = _prime_power(order, p, 4)
        want = pp if tid is TheoremId.T3_1A else pp * pp
        _need(m == want, f"|Z(R)| = {m}, not {want}")
        return {"p": pp}
    if tid in (TheoremId.T3_3A, TheoremId.T3_3B):
        _need(has_unity(ring) is not None, "ring has no unity")
        pp = _prime_power(order, p, 5)
        _need(not center_is_field(ring), "the center is a field")
        want = pp * pp if tid is TheoremId.T3_3A else pp ** 3
        _need(m == want, f"|Z(R)| = {m}, not {want}")
        return {"p": pp}
    if tid in (TheoremId.T4_1A, TheoremId.T4_1B):
        pp, qq = _two_prime_shape(order, 2, p, q)
        _need(m == 1, f"|Z(R)| = {m}, not 1")
        out = {"p": pp, "q": qq}
        if tid is TheoremId.T4_1A:
            out["t"] = t
        return out
    if tid is TheoremId.T4_3:
        _need(has_unity(ring) is not None, "ring has no unity")
        pp, qq = _two_prime_shape(order, 3, p, q)
        _need(m == pp * qq, f"|Z(R)| = {m}, not pq = {pp * qq}")
        return {"p": pp, "q": qq}
    if tid in (TheoremId.T4_4A, TheoremId.T4_4B, TheoremId.T4_4C):
        _need(has_unity(ring) is not None, "ring has no unity")
        pp, qq = _two_prime_shape(order, 3, p, q)
        _need(m == pp * pp, f"|Z(R)| = {m}, not p^2 = {pp * pp}")
        return {"p": pp, "q": qq}
    if tid is TheoremId.T5_1:
        _need(is_cc_ring(ring) is True,
              "some non-central element has a non-commutative centralizer")
        return {"m": m, "sizes": tuple(noncentral_centralizer_sizes(ring))}
    raise ValueError(f"no hypothesis checker for {theorem!r}")


def verify_ring(ring: FiniteRing, theorem: TheoremId, *,
                p: int | None = None, q: int | None = None,
                t: int | None = None) -> VerificationReport:
    """Check one ring instance against one closed-form result."""

    def report(verdict, detail, params=(), computed=None, predicted=None):
        return VerificationReport(theorem, ring.name, tuple(dict(params).items()),
                                  verdict, detail, computed, predicted)

    try:
        kwargs = _check_hypotheses(ring, theorem, p, q, t)
    except HypothesisViolated as violated:
        return report(Verdict.HYPOTHESIS_NOT_MET, str(violated))

    graph = commuting_graph(ring)
    dec = clique_decomposition(graph)
    msn = matrix_spectra(msn_matrix(graph))
    cn = matrix_spectra(cn_matrix(graph))
    computed = EnergyReport.from_spectra(
        graph.n, dec if isinstance(dec, CliqueUnion) else None, msn, cn)
    if isinstance(dec, NotCliqueUnion):
        return report(Verdict.FAIL, f"not a union of cliques: {dec}", kwargs, computed)

    if theorem is TheoremId.T4_1A and kwargs.get("t") is None:
        if len(dec.parts) != 1:
            return report(Verdict.HYPOTHESIS_NOT_MET,
                          f"components of {dec} have mixed sizes; no single t applies",
                          kwargs)
        kwargs["t"] = dec.parts[0][0] + 1

    failure = _route_failure(msn, cn)
    if failure is not None:
        return report(Verdict.FAIL, failure, kwargs, computed)

    try:
        prediction = predict(theorem, **kwargs)
    except HypothesisViolated as violated:
        return report(Verdict.HYPOTHESIS_NOT_MET, str(violated), kwargs, computed)

    params = dict(prediction.params)
    if not prediction.admits(dec):
        return report(Verdict.FAIL,
                      f"computed {dec} is not among the predicted decompositions",
                      params, computed, prediction)
    # Both sides have n eigenvalues, so agreement is equality on an exact
    # spectrum and agreement within NUMERIC_MATCH_TOL on a numeric one.
    got = msn.spectrum
    if not spectra_agree(clique_union_msn_spectrum(dec), got):
        return report(Verdict.FAIL, "computed msn spectrum differs from the closed form",
                      params, computed, prediction)
    energy_tol = 0 if got.exact else NUMERIC_MATCH_TOL * graph.n
    if abs(computed.msn_energy - clique_union_msn_energy(dec)) > energy_tol:
        return report(Verdict.FAIL, "computed msn energy differs from the closed form",
                      params, computed, prediction)
    if computed.msn_hyperenergetic:
        return report(Verdict.FAIL, "graph is msn-hyperenergetic", params,
                      computed, prediction)
    detail = f"{dec}; msn energy {computed.msn_energy}"
    return report(Verdict.PASS, detail, params, computed, prediction)


def _route_failure(msn: MatrixSpectra, cn: MatrixSpectra) -> str | None:
    """Why the exact and numeric routes fail to confirm each other, if they do."""
    if isinstance(msn.exact, NotFullyIntegral):
        return (f"msn spectrum is not fully integral: residual degree "
                f"{msn.exact.residual_degree}")
    for name, result in (("msn", msn), ("cn", cn)):
        if result.exact is not None and not spectra_agree(result.exact, result.numeric):
            return f"numeric {name} spectrum does not match the exact one"
    return None


_Q_DEPENDENT = {TheoremId.T4_1A, TheoremId.T4_1B, TheoremId.T4_3,
                TheoremId.T4_4A, TheoremId.T4_4B, TheoremId.T4_4C}

# A finite ring is the direct sum of its p-primary ideals, and a ring of
# prime order q is commutative, so the order-q summand is central and q
# divides |Z(R)|.  No ring at all meets these hypotheses.
_WHY_NO_MODEL = ("; the order-q summand of a finite ring is a commutative ideal, "
                 "so q divides |Z(R)|")
_NO_MODEL = {
    **dict.fromkeys((TheoremId.T4_1A, TheoremId.T4_1B),
                    "no ring has |R| = p^2 q with |Z(R)| = 1" + _WHY_NO_MODEL),
    **dict.fromkeys((TheoremId.T4_4A, TheoremId.T4_4B, TheoremId.T4_4C),
                    "no ring has |R| = p^3 q with |Z(R)| = p^2" + _WHY_NO_MODEL),
}


def builtin_instance(theorem: TheoremId, p: int, q: int | None = None) -> FiniteRing | None:
    """A built-in ring satisfying the theorem's hypotheses, if one exists.

    May raise NotPrime or SizeCapExceeded for out-of-range parameters.
    """
    tid = theorem
    if tid in (TheoremId.T2_1, TheoremId.C2_2D, TheoremId.C2_3B, TheoremId.C2_4A):
        return ring_noncomm_p2(p)
    if tid in (TheoremId.C2_2A, TheoremId.C2_3A):
        return ring_noncomm_p2(2) if p == 2 else None
    if tid is TheoremId.C2_2B:
        return ring_noncomm_p2(3) if p == 3 else None
    if tid is TheoremId.C2_2C:
        return ring_noncomm_p2(5) if p == 5 else None
    if tid in (TheoremId.C2_4B, TheoremId.T5_1):
        return upper_triangular_ring(p)
    if tid is TheoremId.T3_1A:
        return matrix_ring_2x2(p)
    if tid is TheoremId.T3_1B:
        return direct_product(upper_triangular_ring(p), zn(p))
    if tid is TheoremId.T3_3A:
        return direct_product(matrix_ring_2x2(p), zn(p))
    if tid is TheoremId.T3_3B:
        return direct_product(upper_triangular_ring(p), zn(p * p))
    if tid is TheoremId.T4_3:
        if q is None:
            return None
        return direct_product(upper_triangular_ring(p), zn(q))
    return None


def sweep(theorems, ps, qs=()) -> list[VerificationReport]:
    """verify_ring over a parameter grid with built-in instances.

    Report order follows the given theorem, p, and q orders.  Theorems
    with no built-in realization, or parameters no constructor accepts,
    yield UNSUPPORTED reports.
    """
    reports: list[VerificationReport] = []

    def unsupported(tid, reason, params):
        reports.append(VerificationReport(
            tid, "none", tuple(params.items()), Verdict.UNSUPPORTED,
            reason, None, None))

    for tid in theorems:
        needs_q = tid in _Q_DEPENDENT
        q_values = list(qs) if needs_q and qs else [None]
        for p in ps:
            for q in q_values:
                params = {"p": p} if q is None else {"p": p, "q": q}
                if needs_q and q is None:
                    unsupported(tid, "theorem needs a q range", params)
                    continue
                if needs_q and p == q:
                    unsupported(tid, "p and q must be distinct primes", params)
                    continue
                try:
                    ring = builtin_instance(tid, p, q)
                except (NotPrime, SizeCapExceeded) as exc:
                    unsupported(tid, str(exc), params)
                    continue
                if ring is None:
                    unsupported(tid, _NO_MODEL.get(
                        tid, "no built-in ring family realizes these hypotheses"), params)
                    continue
                reports.append(verify_ring(ring, tid, p=p, q=q))
    return reports


def centralizer_energy_formula(ring: FiniteRing) -> int:
    """2 sum (|S_i| - m - 1)^3 over the distinct non-central centralizers."""
    m = center(ring).size
    return 2 * sum((s - m - 1) ** 3 for s in noncentral_centralizer_sizes(ring))


def enumerate_clique_unions(max_total: int) -> list[CliqueUnion]:
    """Every clique union with at most max_total vertices, deterministically."""
    out: list[CliqueUnion] = []

    def rec(min_m: int, remaining: int, acc: list[tuple[int, int]]) -> None:
        if acc:
            out.append(CliqueUnion(tuple(acc)))
        for m in range(min_m, remaining + 1):
            for l in range(1, remaining // m + 1):
                acc.append((m, l))
                rec(m + 1, remaining - m * l, acc)
                acc.pop()

    rec(1, max_total, [])
    return out


@dataclass(frozen=True)
class PropertySuiteReport:
    seed: int
    trials: int
    enumerated: int
    checked: int
    passes: int
    equalities: tuple[str, ...]
    counterexamples: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "enumerated": self.enumerated,
            "checked": self.checked,
            "passes": self.passes,
            "equalities": list(self.equalities),
            "counterexamples": list(self.counterexamples),
        }


def _check_clique_union(parts: CliqueUnion,
                        equalities: list[str]) -> list[str]:
    """Closed forms vs the exact eigensolver, plus both energy bounds.

    The two cases where the bound is an equality rather than strict (a
    single complete graph for both energies, two isolated vertices for
    the cn energy) are recorded instead of counted as violations.
    """
    problems: list[str] = []
    g = clique_union_graph(parts)
    for name, matrix, spectrum, energy in (
            ("msn", msn_matrix, clique_union_msn_spectrum, clique_union_msn_energy),
            ("cn", cn_matrix, clique_union_cn_spectrum, clique_union_cn_energy)):
        ex = exact_spectrum(matrix(g))
        if isinstance(ex, NotFullyIntegral):
            problems.append(f"{parts}: {name} spectrum not integral")
            continue
        if ex.pairs != spectrum(parts).pairs:
            problems.append(f"{parts}: {name} spectrum differs from closed form")
        if ex.energy() != energy(parts):
            problems.append(f"{parts}: {name} energy differs from closed form")
    esn_ref, ecn_ref = reference_energies(g.n)
    e_sn = clique_union_msn_energy(parts)
    e_cn = clique_union_cn_energy(parts)
    if e_sn > esn_ref:
        problems.append(f"{parts}: msn energy {e_sn} exceeds complete-graph {esn_ref}")
    if e_cn > ecn_ref:
        problems.append(f"{parts}: cn energy {e_cn} exceeds complete-graph {ecn_ref}")
    is_single_complete = len(parts.parts) == 1 and parts.parts[0][1] == 1
    if is_single_complete:
        equalities.append(f"{parts}: msn energy equals the complete-graph value")
    elif e_sn >= esn_ref:
        problems.append(f"{parts}: msn energy {e_sn} not strictly below {esn_ref}")
    if g.n >= 2:
        cn_excluded = is_single_complete or parts.parts == ((1, 2),)
        if cn_excluded:
            equalities.append(f"{parts}: cn energy equals the complete-graph value")
        elif e_cn >= ecn_ref:
            problems.append(f"{parts}: cn energy {e_cn} not strictly below {ecn_ref}")
    return problems


def property_suite_clique_unions(seed: int, trials: int, *,
                                 r_max: int = 4, m_max: int = 8, l_max: int = 4,
                                 enumerate_total: int = 12) -> PropertySuiteReport:
    """Deterministic small cases plus seeded random clique unions."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    enumerated = enumerate_clique_unions(enumerate_total)
    rng = random.Random(seed)
    sampled: list[CliqueUnion] = []
    for _ in range(trials):
        r = rng.randint(1, r_max)
        ms = rng.sample(range(1, m_max + 1), r)
        sampled.append(CliqueUnion.of([(m, rng.randint(1, l_max)) for m in ms]))
    equalities: list[str] = []
    counterexamples: list[str] = []
    passes = 0
    for parts in enumerated + sampled:
        problems = _check_clique_union(parts, equalities)
        if problems:
            counterexamples.extend(problems)
        else:
            passes += 1
    return PropertySuiteReport(
        seed=seed,
        trials=trials,
        enumerated=len(enumerated),
        checked=len(enumerated) + len(sampled),
        passes=passes,
        equalities=tuple(equalities),
        counterexamples=tuple(counterexamples),
    )
