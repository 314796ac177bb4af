"""Neighborhood matrices and their exact or numeric spectra.

The exact path computes the characteristic polynomial of each distinct
support block multimodularly (int64 arithmetic modulo word-size primes,
combined by the Chinese remainder theorem up to a proven coefficient
bound) and extracts integer eigenvalues; it either proves the spectrum
integral or reports the integer part found.  The numeric path is a
symmetric eigensolve whose output is clustered into multiplicities.  The
two never share intermediate results, so each can serve as a check on
the other.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .charpoly import (
    charpoly_dense,
    check_charpoly,
    gershgorin_bound,
    integer_roots,
    support_components,
)
from .config import exact_cap
from .graphs import CliqueUnion, SimpleGraph, clique_decomposition, delta2_all

NUMERIC_CLUSTER_TOL = 1e-8
NUMERIC_MATCH_TOL = 1e-6


class SpectraError(Exception):
    pass


class ExactCapExceeded(SpectraError):
    pass


class NoConvergence(SpectraError):
    pass


@dataclass(frozen=True, eq=False)
class IntSymMatrix:
    """Symmetric nonnegative integer matrix with a zero diagonal."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise SpectraError(f"matrix must be square, got shape {v.shape}")
        if not np.issubdtype(v.dtype, np.integer):
            raise SpectraError("matrix entries must be integers")
        if v.size:
            if np.any(np.diagonal(v) != 0):
                raise SpectraError("matrix diagonal must be zero")
            if not np.array_equal(v, v.T):
                raise SpectraError("matrix must be symmetric")
            if v.min() < 0:
                raise SpectraError("matrix entries must be nonnegative")
        v.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


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


def msn_matrix(g: SimpleGraph) -> IntSymMatrix:
    """Minimum second-degree matrix: entry min(d2(u), d2(v)) on edges."""
    d2 = delta2_all(g)
    vals = np.minimum.outer(d2, d2) * g.adjacency
    return IntSymMatrix(vals.astype(np.int64))


def cn_matrix(g: SimpleGraph) -> IntSymMatrix:
    """Common neighborhood matrix: shared neighbor counts off diagonal."""
    a = g.adjacency.astype(np.float64)
    vals = np.rint(a @ a).astype(np.int64)
    if g.n:
        np.fill_diagonal(vals, 0)
    return IntSymMatrix(vals)


def exact_spectrum(m: IntSymMatrix) -> SpectrumMultiset | NotFullyIntegral:
    """Integer eigenvalues by exact computation.

    The characteristic polynomial is computed exactly for each distinct
    support block and checked for shape and trace; integer roots are read
    off the divisors of each trailing nonzero coefficient within the
    row-sum eigenvalue bound.  If the polynomial splits completely the
    full spectrum is returned, else the integer part found so far.
    """
    cap = exact_cap()
    if m.n > cap:
        raise ExactCapExceeded(f"matrix dimension {m.n} exceeds the exact path cap {cap}")
    rows = m.values.tolist()
    roots: Counter[int] = Counter()
    residual = 0
    cache: dict[tuple, tuple[list[tuple[int, int]], int]] = {}
    for comp in support_components(m.values):
        block = [[rows[i][j] for j in comp] for i in comp]
        key = tuple(tuple(r) for r in block)
        if key not in cache:
            poly = charpoly_dense(block)
            check_charpoly(poly, len(block), sum(block[i][i] for i in range(len(block))))
            cache[key] = integer_roots(poly, gershgorin_bound(block))
        found, left = cache[key]
        for value, mult in found:
            roots[value] += mult
        residual += left
    if residual:
        return NotFullyIntegral(tuple(sorted(roots.items())), residual)
    return SpectrumMultiset(True, tuple(sorted(roots.items())))


def numeric_spectrum(m: IntSymMatrix) -> SpectrumMultiset:
    """Floating point eigenvalues clustered into multiplicities."""
    if m.n == 0:
        return SpectrumMultiset(False, ())
    try:
        eigs = np.linalg.eigvalsh(m.values.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolve failed: {exc}") from None
    scale = max(1.0, float(np.abs(m.values).max()) * m.n)
    tol = NUMERIC_CLUSTER_TOL * scale
    clusters: list[list[float]] = [[float(eigs[0])]]
    for v in eigs[1:]:
        if float(v) - clusters[-1][-1] < tol:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    pairs = tuple((sum(c) / len(c), len(c)) for c in clusters)
    return SpectrumMultiset(False, pairs)


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
    """Energies and spectral predicates of one graph."""

    n: int
    decomposition: CliqueUnion | None
    msn_energy: int | float
    cn_energy: int | float
    msn_integral: bool | None
    msn_hyperenergetic: bool
    cn_hyperenergetic: bool
    esn_complete: int
    ecn_complete: int
    msn_spectrum: SpectrumMultiset
    cn_spectrum: SpectrumMultiset


def classify(g: SimpleGraph) -> EnergyReport:
    """Full spectral report for a graph.

    Clique unions take the closed-form fast path; anything else goes
    through the exact spectrum when the dimension allows it, falling back
    to the numeric eigensolve (which leaves integrality undetermined).
    """
    from .theorems import (
        clique_union_cn_energy,
        clique_union_cn_spectrum,
        clique_union_msn_energy,
        clique_union_msn_spectrum,
        reference_energies,
    )

    if g.n < 1:
        raise SpectraError("classification requires at least one vertex")
    dec = clique_decomposition(g)
    decomposition = dec if isinstance(dec, CliqueUnion) else None
    if decomposition is not None:
        msn_s = clique_union_msn_spectrum(decomposition)
        msn_e = clique_union_msn_energy(decomposition)
        cn_s = clique_union_cn_spectrum(decomposition)
        cn_e = clique_union_cn_energy(decomposition)
        integral: bool | None = True
    else:
        msn = msn_matrix(g)
        cn = cn_matrix(g)
        if g.n <= exact_cap():
            s = exact_spectrum(msn)
            if isinstance(s, SpectrumMultiset):
                msn_s, integral = s, True
            else:
                msn_s, integral = numeric_spectrum(msn), False
            cs = exact_spectrum(cn)
            cn_s = cs if isinstance(cs, SpectrumMultiset) else numeric_spectrum(cn)
        else:
            msn_s, integral = numeric_spectrum(msn), None
            cn_s = numeric_spectrum(cn)
        msn_e = msn_s.energy()
        cn_e = cn_s.energy()
    esn, ecn = reference_energies(g.n)
    return EnergyReport(
        n=g.n,
        decomposition=decomposition,
        msn_energy=msn_e,
        cn_energy=cn_e,
        msn_integral=integral,
        msn_hyperenergetic=msn_e > esn,
        cn_hyperenergetic=cn_e > ecn,
        esn_complete=esn,
        ecn_complete=ecn,
        msn_spectrum=msn_s,
        cn_spectrum=cn_s,
    )
