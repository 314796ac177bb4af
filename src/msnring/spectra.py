"""Neighborhood matrices, their spectra by two independent routes, and
the closed forms for clique unions.

Both matrices are built once per class of SimpleGraph.classes (one
distinct component block) from its common-neighbour count: the cn matrix
is that count, and the msn matrix reads distance two off it.  An
IntSymMatrix holds distinct diagonal blocks with counts.  An msn block
stays whole, as its support is its class's connected adjacency (a vertex
with a neighbour u has delta2 >= deg(u) >= 1).  A cn block is split over
its support's components (the cn matrix of K_{a,b} splits into its two
sides), equal pieces grouped.  matrix_spectra dispatches both routes:

* the exact route first tries to certify an integer spectrum: the
  matrix's float eigensolve of the block, rounded, is only a hint, which
  charpoly.certified_roots proves exactly from the power sums tr(A**k)
  modulo word-size primes, or rejects.  A block it does not settle gets
  the characteristic polynomial multimodularly (int64 arithmetic modulo
  word-size primes, combined by the Chinese remainder theorem up to a
  proven coefficient bound) and its integer roots.  So the route either
  proves the spectrum integral or reports the integer part found.  It
  declines matrices with a support block above the exact cap.
* the numeric route is that symmetric eigensolve per block, merged and
  clustered into multiplicities.

They share only the unproven float eigensolve, which the exact route
uses as a hint, so each can serve as a check on the other.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .charpoly import (
    certified_roots,
    charpoly_bound,
    charpoly_dense,
    check_charpoly,
    crt_primes,
    gershgorin_bound,
    integer_roots,
    power_sum_bound,
    prime_bits,
)
from .config import exact_cap
from .graphs import (
    CliqueUnion,
    SimpleGraph,
    clique_decomposition,
    connected_components,
    delta2_all,
)

NUMERIC_CLUSTER_TOL = 1e-8
NUMERIC_MATCH_TOL = 1e-6


class SpectraError(Exception):
    pass


class ExactCapExceeded(SpectraError):
    pass


class NoConvergence(SpectraError):
    pass


def _grouped(pairs) -> tuple[tuple[np.ndarray, int], ...]:
    """(square array, count) pairs with equal arrays merged, in first-seen order."""
    seen: dict[tuple[str, bytes], list] = {}
    for a, count in pairs:
        # the arrays are square, so equal dtype and bytes mean equal arrays
        seen.setdefault((a.dtype.str, a.tobytes()), [a, 0])[1] += count
    return tuple((a, count) for a, count in seen.values())


@dataclass(frozen=True, eq=False)
class IntSymMatrix:
    """Block-diagonal symmetric nonnegative integer matrix with zero
    diagonal, as checked (distinct block, positive count) pairs: msn_matrix
    gives one per graph class, cn_matrix one per class support component."""

    blocks: tuple[tuple[np.ndarray, int], ...] = field(repr=False)

    def __post_init__(self):
        for v, count in self.blocks:
            if v.ndim != 2 or v.shape[0] != v.shape[1] or not v.size:
                raise SpectraError(f"matrix block must be a nonempty square, got shape {v.shape}")
            if v.dtype.kind not in "iu":
                raise SpectraError("matrix entries must be integers")
            if np.diagonal(v).any():
                raise SpectraError("matrix diagonal must be zero")
            if (v != v.T).any():
                raise SpectraError("matrix must be symmetric")
            if v.min() < 0:
                raise SpectraError("matrix entries must be nonnegative")
            if not isinstance(count, int) or count < 1:
                raise SpectraError(f"block count must be a positive integer, got {count!r}")
            v.setflags(write=False)

    @property
    def n(self) -> int:
        return sum(v.shape[0] * count for v, count in self.blocks)

    @functools.cached_property
    def eigenvalues(self) -> tuple[np.ndarray, ...]:
        """The one float eigensolve: each distinct block's eigenvalues,
        ascending.  Raises NoConvergence if a solve fails."""
        try:
            return tuple(np.linalg.eigvalsh(block.astype(np.float64)) for block, _ in self.blocks)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"symmetric eigensolve failed: {exc}") from None


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with multiplicities, values strictly ascending."""

    exact: bool
    pairs: tuple[tuple[int | float, int], ...]

    def __post_init__(self):
        values = [v for v, _ in self.pairs]
        if any(m < 1 for _, m in self.pairs):
            raise SpectraError("multiplicities must be positive")
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise SpectraError("eigenvalues must be strictly ascending")
        if self.exact:
            if any(not isinstance(v, int) for v in values):
                raise SpectraError("exact spectra must have integer eigenvalues")
            if sum(v * m for v, m in self.pairs) != 0:
                raise SpectraError("exact spectrum trace must be zero")

    @property
    def n(self) -> int:
        return sum(m for _, m in self.pairs)

    def energy(self) -> int | float:
        return sum(abs(v) * m for v, m in self.pairs)

    def to_json_dict(self) -> dict:
        if self.exact:
            pairs = [[int(v), int(m)] for v, m in self.pairs]
        else:
            pairs = [[repr(float(v)), int(m)] for v, m in self.pairs]
        return {"exact": self.exact, "pairs": pairs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SpectrumMultiset":
        exact = bool(data["exact"])
        pairs = tuple(
            (int(v) if exact else float(v), int(m)) for v, m in data["pairs"]
        )
        return cls(exact, pairs)


@dataclass(frozen=True)
class NotFullyIntegral:
    """Exact-path outcome when the characteristic polynomial does not
    split over the integers: the integer roots found, and the degree of
    the leftover factor."""

    integer_roots: tuple[tuple[int, int], ...]
    residual_degree: int


def clique_union_msn_spectrum(parts: CliqueUnion) -> SpectrumMultiset:
    counts: Counter[int] = Counter()
    for m, l in parts.parts:
        if m > 1:
            counts[-((m - 1) ** 2)] += l * (m - 1)
        counts[(m - 1) ** 3] += l
    return SpectrumMultiset(True, tuple(sorted(counts.items())))


def clique_union_msn_energy(parts: CliqueUnion) -> int:
    return 2 * sum(l * (m - 1) ** 3 for m, l in parts.parts)


def clique_union_cn_spectrum(parts: CliqueUnion) -> SpectrumMultiset:
    counts: Counter[int] = Counter()
    for m, l in parts.parts:
        counts[(m - 1) * (m - 2)] += l
        if m > 1:
            counts[-(m - 2)] += l * (m - 1)
    return SpectrumMultiset(True, tuple(sorted(counts.items())))


def clique_union_cn_energy(parts: CliqueUnion) -> int:
    return 2 * sum(l * (m - 1) * (m - 2) for m, l in parts.parts)


def reference_energies(n: int) -> tuple[int, int]:
    """Both energies of the complete graph on n vertices."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 2 * (n - 1) ** 3, 2 * (n - 1) * (n - 2)


def msn_matrix(g: SimpleGraph) -> IntSymMatrix:
    """Minimum second-degree matrix: entry min(d2(u), d2(v)) on edges."""
    d2 = delta2_all(g)
    return IntSymMatrix(tuple(
        (np.minimum(d2[comps[0], None], d2[comps[0]]) * block, len(comps))
        for block, comps in g.classes))


def cn_matrix(g: SimpleGraph) -> IntSymMatrix:
    """Common neighborhood matrix: shared neighbor counts off diagonal."""
    return IntSymMatrix(_grouped(
        (counts[comp[:, None], comp], len(comps))
        for counts, (_, comps) in zip(g.common_neighbours, g.classes)
        for comp in connected_components(counts != 0)))


def _cluster_tol(peak: int, n: int) -> float:
    """Clustering tolerance for the eigenvalues of an n x n matrix with largest entry peak."""
    return NUMERIC_CLUSTER_TOL * max(1.0, float(peak) * n)


def _block_roots(block: np.ndarray, hint: np.ndarray) -> tuple[list[tuple[int, int]], int]:
    """Integer roots with multiplicity of one block, and the residual degree.

    The hint, the block's float eigenvalues, suggests an integer spectrum
    that certified_roots proves or rejects.  It is tried only when every
    eigenvalue lies within the clustering tolerance of an integer and its
    primes, one pass of s - 1 matrix products each, number no more than
    the characteristic polynomial would need.  Otherwise, or if it
    declines, the characteristic polynomial is computed, checked for
    shape and trace, and its integer roots are read off the divisors of
    its trailing nonzero coefficient within the row-sum eigenvalue bound.
    """
    n, b = block.shape[0], gershgorin_bound(block)
    near = np.abs(hint - np.rint(hint)) <= _cluster_tol(block.max(), n)
    if hint.shape == (n,) and near.all():
        s = len(np.unique(np.rint(hint)))
        bits = prime_bits(n)
        cost = (s - 1) * sum(1 for _ in crt_primes(power_sum_bound(n, b, s), bits))
        # the polynomial's primes are counted only up to cost
        if sum(1 for _ in islice(crt_primes(charpoly_bound(n, b), bits), cost)) == cost:
            found = certified_roots(block, hint)
            if found is not None:
                return found, 0
    poly = charpoly_dense(block)
    check_charpoly(poly, n, int(np.trace(block)))
    return integer_roots(poly, b)


def exact_spectrum(m: IntSymMatrix) -> SpectrumMultiset | NotFullyIntegral:
    """Integer eigenvalues by exact computation.

    Each distinct block's integer roots are proven, by the power-sum
    certificate (hinted by m.eigenvalues, NaN if they failed) or from
    the characteristic polynomial; see _block_roots.  If every block's
    spectrum is integral it is returned whole, else the integer part found.
    Raises ExactCapExceeded, before any work, if a block exceeds the cap.
    """
    cap = exact_cap()
    largest = max((block.shape[0] for block, _ in m.blocks), default=0)
    if largest > cap:
        raise ExactCapExceeded(
            f"support block of dimension {largest} exceeds the exact path cap {cap}")
    try:
        hints = m.eigenvalues
    except NoConvergence:
        hints = tuple(np.full(len(block), np.nan) for block, _ in m.blocks)
    roots: Counter[int] = Counter()
    residual = 0
    for (block, count), hint in zip(m.blocks, hints):
        found, left = _block_roots(block, hint)
        for value, mult in found:
            roots[value] += mult * count
        residual += left * count
    if residual:
        return NotFullyIntegral(tuple(sorted(roots.items())), residual)
    return SpectrumMultiset(True, tuple(sorted(roots.items())))


def numeric_spectrum(m: IntSymMatrix) -> SpectrumMultiset:
    """m.eigenvalues, the float eigenvalues of each distinct block, merged
    and clustered into multiplicities on the whole matrix's scale."""
    if m.n == 0:
        return SpectrumMultiset(False, ())
    eigs = np.sort(np.concatenate([
        np.repeat(values, count) for values, (_, count) in zip(m.eigenvalues, m.blocks)]))
    tol = _cluster_tol(max(block.max() for block, _ in m.blocks), m.n)
    clusters: list[list[float]] = [[float(eigs[0])]]
    for v in eigs[1:]:
        if float(v) - clusters[-1][-1] < tol:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    pairs = tuple((sum(c) / len(c), len(c)) for c in clusters)
    return SpectrumMultiset(False, pairs)


@dataclass(frozen=True)
class MatrixSpectra:
    """What both routes found for one matrix.

    exact is None when some support block exceeds the exact cap.  The
    reported spectrum is the exact one when it is complete, else the
    numeric one.
    """

    exact: SpectrumMultiset | NotFullyIntegral | None
    numeric: SpectrumMultiset

    @property
    def method(self) -> str:
        return "exact" if isinstance(self.exact, SpectrumMultiset) else "numeric"

    @property
    def spectrum(self) -> SpectrumMultiset:
        return self.exact if isinstance(self.exact, SpectrumMultiset) else self.numeric

    @property
    def integral(self) -> bool | None:
        """True or False as the exact route proved it, None above the cap."""
        return None if self.exact is None else isinstance(self.exact, SpectrumMultiset)


def matrix_spectra(m: IntSymMatrix) -> MatrixSpectra:
    """Both routes on one matrix: the single exact-or-numeric dispatch."""
    try:
        exact = exact_spectrum(m)
    except ExactCapExceeded:
        exact = None
    return MatrixSpectra(exact, numeric_spectrum(m))


def spectra_agree(exact: SpectrumMultiset | NotFullyIntegral,
                  numeric: SpectrumMultiset,
                  tol: float = NUMERIC_MATCH_TOL) -> bool:
    """Every integer eigenvalue from the exact path must be matched by a
    numeric cluster of identical multiplicity within tol."""
    if isinstance(exact, NotFullyIntegral):
        wanted = exact.integer_roots
    else:
        wanted = exact.pairs
    for value, mult in wanted:
        hit = [m for v, m in numeric.pairs if abs(v - value) <= tol]
        if len(hit) != 1 or hit[0] != mult:
            return False
    return True


@dataclass(frozen=True)
class EnergyReport:
    """The one report of a graph: classify returns it, and verify_ring
    carries it as VerificationReport.computed.  msn_method and cn_method
    are exact or numeric (MatrixSpectra.method), or closed_form on
    classify's clique-union fast path.  to_json_dict is the only place its
    JSON keys are written."""

    n: int
    decomposition: CliqueUnion | None
    msn_spectrum: SpectrumMultiset
    cn_spectrum: SpectrumMultiset
    msn_integral: bool | None
    msn_method: str
    cn_method: str

    @classmethod
    def from_spectra(cls, n: int, decomposition: CliqueUnion | None,
                     msn: MatrixSpectra, cn: MatrixSpectra) -> "EnergyReport":
        return cls(n, decomposition, msn.spectrum, cn.spectrum, msn.integral,
                   msn.method, cn.method)

    @property
    def msn_energy(self) -> int | float:
        return self.msn_spectrum.energy()

    @property
    def cn_energy(self) -> int | float:
        return self.cn_spectrum.energy()

    @property
    def esn_complete(self) -> int:
        return reference_energies(self.n)[0]

    @property
    def ecn_complete(self) -> int:
        return reference_energies(self.n)[1]

    @property
    def msn_hyperenergetic(self) -> bool:
        return self.msn_energy > self.esn_complete

    @property
    def cn_hyperenergetic(self) -> bool:
        return self.cn_energy > self.ecn_complete

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "decomposition": None if self.decomposition is None else str(self.decomposition),
            "msn_energy": self.msn_energy,
            "cn_energy": self.cn_energy,
            "msn_integral": self.msn_integral,
            "msn_method": self.msn_method,
            "cn_method": self.cn_method,
            "msn_hyperenergetic": self.msn_hyperenergetic,
            "cn_hyperenergetic": self.cn_hyperenergetic,
            "esn_complete": self.esn_complete,
            "ecn_complete": self.ecn_complete,
            "msn_spectrum": self.msn_spectrum.to_json_dict(),
            "cn_spectrum": self.cn_spectrum.to_json_dict(),
        }


def classify(g: SimpleGraph) -> EnergyReport:
    """Full spectral report for a graph.

    Clique unions take the closed-form fast path; anything else goes
    through matrix_spectra, which reports the numeric spectrum when the
    exact one is incomplete or, above the exact cap, undetermined.
    """
    if g.n < 1:
        raise SpectraError("classification requires at least one vertex")
    dec = clique_decomposition(g)
    if isinstance(dec, CliqueUnion):
        return EnergyReport(g.n, dec, clique_union_msn_spectrum(dec),
                            clique_union_cn_spectrum(dec), True,
                            "closed_form", "closed_form")
    return EnergyReport.from_spectra(g.n, None, matrix_spectra(msn_matrix(g)),
                                     matrix_spectra(cn_matrix(g)))
