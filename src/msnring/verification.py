"""Cross-checks of computed commuting graphs against the closed forms.

verify_ring runs three phases: ring-level hypothesis checks, an
independent graph computation, and a comparison against the predicted
decompositions.  The hypothesis checks, builtin_instance and sweep read
the rows of theorems.FAMILIES, the one table of results, which this
module re-exports.  The graph computation takes both spectra from
spectra.matrix_spectra, the single exact-or-numeric dispatch, and
requires its two routes to agree.  Where the exact route accepts every
block (spectra.exact_spectrum), the exact msn spectrum is compared with
the closed form; elsewhere the numeric one is, so no closed form ever
stands in for a computed spectrum.  Once the theorem is a TheoremId, all outcomes are
verdicts on the report, never exceptions.  A report holds the graph's
spectra.EnergyReport, as classify gives it, and the
theorems.ClosedFormPrediction; to_json_dict converts both.
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
    has_unity,
    prime_factors,
)
from .spectra import (
    EnergyReport,
    MatrixSpectra,
    NotFullyIntegral,
    cn_matrix,
    exact_spectrum,
    match_tol,
    matrix_spectra,
    msn_matrix,
    spectra_agree,
)
from .theorems import (
    FAMILIES,
    ClosedFormPrediction,
    HypothesisViolated,
    TheoremId,
    _require,
    clique_union_cn_energy,
    clique_union_cn_spectrum,
    clique_union_msn_energy,
    clique_union_msn_spectrum,
    family_of,
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


def center_is_field(ring: FiniteRing) -> bool:
    """Literal field test on the center: unity and no zero divisors.

    The center of a finite ring is a commutative subring, so these two
    conditions decide the matter.  Only the center's rows of the table are
    read, once.
    """
    z = np.flatnonzero(ring.central)
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


def _order_primes(order: int, shape: str, p: int | None, q: int | None) -> dict:
    """{"p": ...}, and "q" for a shape with q, read off |R| = order.

    Raises HypothesisViolated if |R| has another shape, or primes other
    than a supplied p or q.
    """
    power, _, with_q = shape.partition(" ")
    exp = power.removeprefix("p^")
    factors = prime_factors(order)
    if with_q:
        by_exp = {e: r for r, e in factors.items()}
        _require(len(factors) == 2 and set(by_exp) == {int(exp), 1},
                 f"|R| = {order} is not of the form {shape}")
        primes = {"p": by_exp[int(exp)], "q": by_exp[1]}
    else:
        _require(len(factors) == 1, f"|R| = {order} is not a prime power")
        (pp, e), = factors.items()
        _require(exp in ("k", str(e)),
                 f"|R| = {order} = {pp}^{e} does not have exponent {exp}")
        primes = {"p": pp}
    for name, given in (("p", p), ("q", q)):
        _require(given is None or primes.get(name, given) == given,
                 f"|R| = {order} conflicts with the supplied {name} = {given}")
    return primes


def _check_hypotheses(ring: FiniteRing, theorem: TheoremId,
                      p: int | None, q: int | None, t: int | None) -> dict:
    """The checks of the theorem's FAMILIES row; returns the predict() kwargs.

    The kwargs are the parameters the row takes: p and q read off |R| or
    by its invariant check, m = |Z(R)| and the given t.  Raises
    HypothesisViolated naming the first failed hypothesis, and ValueError,
    as predict does, for a theorem that is not a TheoremId.
    """
    family = family_of(theorem)
    _require(not ring.is_commutative, "ring is commutative")
    m = int(ring.central.sum())
    if family.unity:
        _require(has_unity(ring) is not None, "ring has no unity")
    found = _order_primes(ring.order, family.order, p, q) if family.order else {}
    if family.center_not_field:
        _require(not center_is_field(ring), "the center is a field")
    if family.center is not None:
        want = family.center(**found)
        _require(m == want, f"|Z(R)| = {m}, not {family.center_name}{want}")
    if family.invariant is not None:
        found |= family.invariant(ring, found.get("p", p))
    found |= {"m": m, "t": t}
    return {name: found[name] for name in family.takes}


def verify_ring(ring: FiniteRing, theorem: TheoremId, *,
                p: int | None = None, q: int | None = None,
                t: int | None = None) -> VerificationReport:
    """Check one ring instance against one closed-form result.

    Raises ValueError, as predict does, for a theorem that is not a
    TheoremId; every other outcome is a verdict.
    """

    def report(verdict, detail, params=(), computed=None, predicted=None):
        return VerificationReport(theorem, ring.name, tuple(dict(params).items()),
                                  verdict, detail, computed, predicted)

    try:
        kwargs = _check_hypotheses(ring, theorem, p, q, t)
    except HypothesisViolated as violated:
        return report(Verdict.HYPOTHESIS_NOT_MET, str(violated))

    graph = commuting_graph(ring)
    dec = clique_decomposition(graph)
    (msn,) = matrix_spectra(msn_matrix(graph))
    (cn,) = matrix_spectra(cn_matrix(graph))
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
    # spectrum and agreement within match_tol on a numeric one.
    got = msn.spectrum
    if not spectra_agree(clique_union_msn_spectrum(dec), got):
        return report(Verdict.FAIL, "computed msn spectrum differs from the closed form",
                      params, computed, prediction)
    energy_tol = 0 if got.exact else match_tol(got) * graph.n
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


def builtin_instance(theorem: TheoremId, p: int, q: int | None = None) -> FiniteRing | None:
    """The model ring of the theorem's FAMILIES row, if it has one.

    A family that takes q has none without a q.  May raise NotPrime when
    p, or after it q, is not prime, SizeCapExceeded for out-of-range
    parameters, and ValueError for a theorem that is not a TheoremId.
    """
    family = family_of(theorem)
    if family.model is None or (family.takes_q and q is None):
        return None
    return family.model(p, q)


def sweep(theorems, ps, qs=()) -> list[VerificationReport]:
    """verify_ring over a parameter grid with built-in instances.

    Report order follows the given theorem, p, and q orders.  Theorems
    with no built-in realization, or parameters no constructor accepts,
    yield UNSUPPORTED reports; a theorem that is not a TheoremId raises
    ValueError.
    """
    reports: list[VerificationReport] = []

    def unsupported(tid, reason, params):
        reports.append(VerificationReport(
            tid, "none", tuple(params.items()), Verdict.UNSUPPORTED,
            reason, None, None))

    for tid in theorems:
        family = family_of(tid)
        needs_q = family.takes_q
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
                    unsupported(tid, family.no_model
                                or "no built-in ring family realizes these hypotheses", params)
                    continue
                reports.append(verify_ring(ring, tid, p=p, q=q))
    return reports


SUITE_MAX_SIZES, SUITE_MAX_SIZE, SUITE_MAX_COPIES = 4, 8, 4  # property_suite_clique_unions


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
        (ex,) = exact_spectrum(matrix(g))
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
                                 enumerate_total: int = 12) -> PropertySuiteReport:
    """Deterministic small cases plus seeded random clique unions."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    enumerated = enumerate_clique_unions(enumerate_total)
    rng = random.Random(seed)
    sampled: list[CliqueUnion] = []
    for _ in range(trials):
        r = rng.randint(1, SUITE_MAX_SIZES)
        ms = rng.sample(range(1, SUITE_MAX_SIZE + 1), r)
        sampled.append(CliqueUnion.of([(m, rng.randint(1, SUITE_MAX_COPIES)) for m in ms]))
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
