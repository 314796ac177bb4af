"""Neighborhood matrices, their spectra by two independent routes, and
the closed forms for clique unions.

Both matrices are built once per class of SimpleGraph.classes as twin
forms (labels, w): a class per vertex and a k x k symmetric matrix, the
entry between two vertices w at their labels, each class's inner entry
on the diagonal (0 for a singleton).  The msn form stays whole, as its
support is its class's connected adjacency (a vertex with a neighbour u
has delta2 >= deg(u) >= 1); the cn form is split over its support's
components (the cn matrix of K_{a,b} splits into its two sides), equal
pieces grouped.  An IntSymMatrix holds the forms with counts; a plain
n x n block is the form (arange(n), block).  matrix_spectra dispatches
both routes:

* the exact route reads only the forms.  First, twin reduction: a class
  of s vertices with inner entry a gives -a with multiplicity s - 1, and
  the k x k quotient carries the rest; a block whose entries off the
  diagonal are all equal, as a clique's are, is one class.  Second, the
  integer roots of every quotient past 1 x 1 are proven from its
  characteristic polynomial (_block_roots): a screen modulo a few primes
  above its size proves most quotients rootless (charpoly.rootless), and
  the rest go to one charpoly_dense call; classify passes a graph's msn
  and cn matrices together.  The polynomials come from power sums
  modulo primes, whose float64 products carry only integers below
  2**53, exactly.  So the route proves the
  spectrum integral or reports the integer part found, and reads no
  float eigenvalue.  It declines, with None, each matrix with a block
  above the exact cap that is not a single twin class.
* the numeric route is the symmetric float eigensolve of each block,
  built in float64 from its form for its solve alone on the first read
  of MatrixSpectra.numeric, merged and clustered into multiplicities.

The two routes share the forms, counted once by graphs.twin_counts, and
nothing after them, so where both run each checks the other's spectrum.
The counts are checked apart from both: on clique unions by the closed
forms (verify holds the msn spectrum against the paper's, the property
suite both spectra), on other graphs by the tests' brute-force counts.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .charpoly import charpoly_dense, check_charpoly, gershgorin_bound, integer_roots, rootless
from .config import exact_cap
from .graphs import (
    CliqueUnion,
    SimpleGraph,
    clique_decomposition,
    expanded,
    quotient_components,
)
from .rings import restricted

NUMERIC_CLUSTER_TOL = 1e-8
NUMERIC_MATCH_TOL = 1e-6
NUMERIC_MATCH_REL = 1e-12


class SpectraError(Exception):
    pass


class NoConvergence(SpectraError):
    pass


def _checked(part, count: int) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """A (twin form, count) pair, checked, the form made read-only: part
    itself, or the form (arange(n), part) of a plain n x n block."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise SpectraError(f"block count must be a positive integer, got {count!r}")
    if isinstance(part, np.ndarray):
        part = (np.arange(len(part) if part.ndim else 0), part)
    labels, w = part
    if w.ndim != 2 or w.shape[0] != w.shape[1] or not w.size:
        raise SpectraError(f"matrix block must be a nonempty square, got shape {w.shape}")
    if w.dtype.kind not in "iu":
        raise SpectraError("matrix entries must be integers")
    if (w != w.T).any():
        raise SpectraError("matrix must be symmetric")
    if w.min() < 0:
        raise SpectraError("matrix entries must be nonnegative")
    numbered = labels.ndim == 1 and labels.dtype.kind in "iu" and labels.min(initial=0) >= 0
    sizes = np.bincount(labels, minlength=len(w)) if numbered else ()
    if len(sizes) != len(w) or not sizes.all():
        raise SpectraError(f"twin labels must number the {len(w)} classes of w, none empty")
    if np.diagonal(w)[sizes == 1].any():
        raise SpectraError("matrix diagonal must be zero: a singleton class has inner entry 0")
    labels.setflags(write=False)
    w.setflags(write=False)
    return (labels, w), count


@dataclass(frozen=True, eq=False)
class IntSymMatrix:
    """Block-diagonal symmetric nonnegative integer matrix with zero
    diagonal, as checked (twin form, positive count) pairs: msn_matrix
    gives one per graph class, cn_matrix one per class support piece.  A
    plain block stands for its form (arange(n), block), all singletons.
    Only eigenvalues builds n x n blocks, in float64, one per solve."""

    forms: tuple[tuple[tuple[np.ndarray, np.ndarray], int], ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(_checked(*pair) for pair in self.forms))

    @classmethod
    def _built(cls, forms) -> "IntSymMatrix":
        """The matrix of forms valid by construction, as msn_matrix and
        cn_matrix build them: made read-only, not checked again."""
        for (labels, w), _ in forms:
            labels.setflags(write=False)
            w.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "forms", forms)
        return m

    @property
    def n(self) -> int:
        return sum(len(labels) * count for (labels, _), count in self.forms)

    @functools.cached_property
    def eigenvalues(self) -> tuple[np.ndarray, ...]:
        """The one float eigensolve: each distinct block's eigenvalues,
        ascending.  A form of singletons, whose diagonal is 0, is solved as
        the float copy of w with no expanded block.  Raises NoConvergence
        if a solve fails."""
        try:
            return tuple(np.linalg.eigvalsh(w.astype(np.float64) if len(w) == len(labels)
                                            else expanded(labels, w.astype(np.float64)))
                         for (labels, w), _ in self.forms)
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
    """Minimum second-degree matrix: entry min(d2(u), d2(v)) on edges, as
    the twin form min(delta2_i, delta2_j) A of each class."""
    return IntSymMatrix._built(tuple(
        ((labels, np.minimum.outer(delta2, delta2) * adjacency), len(comps))
        for (labels, _, comps), (adjacency, _, delta2) in zip(g.classes, g.counts)))


def cn_matrix(g: SimpleGraph) -> IntSymMatrix:
    """Common neighborhood matrix: shared neighbor counts off diagonal,
    each class's form split over its support's components, equal pieces
    grouped in first-seen order.  A piece that is one twin class
    (_single_class) is a (J - I), so it is keyed by its size and entry a,
    and a zero one, a K2 component's, stands for its vertices as 1 x 1
    pieces; any other piece is keyed by its form."""
    seen: dict[tuple, list] = {}
    for (labels, _, comps), (_, shared, _) in zip(g.classes, g.counts):
        support = (shared > 0) | np.eye(len(shared), dtype=bool)
        pieces = () if support.all() else quotient_components(labels, support)
        forms = [(labels, shared)] if len(pieces) < 2 else [
            restricted(labels.take(piece), shared) for piece in pieces]
        for form in forms:
            count, key = len(comps), tuple(part.tobytes() for part in form)
            if len(form[1]) == 1 or _single_class(form):
                key = (len(form[0]), int(form[1].max()))
                if not key[1]:
                    form, count, key = restricted(form[0][:1], form[1]), count * key[0], (1, 0)
            seen.setdefault(key, [form, 0])[1] += count
    return IntSymMatrix._built(tuple((form, count) for form, count in seen.values()))


def _cluster_tol(peak: int, n: int) -> float:
    """Clustering tolerance for the eigenvalues of an n x n matrix with largest entry peak."""
    return NUMERIC_CLUSTER_TOL * max(1.0, float(peak) * n)


def _single_class(form: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether a form's block, of two or more vertices, is one twin class,
    as every clique block is: all its entries off the diagonal are equal,
    so every entry of w is w[0, 1] but on a singleton class's diagonal."""
    labels, w = form
    n, s = len(labels), np.bincount(labels)
    return n > 1 and (len(s) == 1 or w[0, 1] == w[-1, -2] and
                      bool(((w == w[0, 1]) | np.diag(s == 1)).all()))


def _twin_quotient(form: tuple[np.ndarray, np.ndarray]
                   ) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The (eigenvalue, multiplicity) pairs a form's twin classes give,
    and the matrix left.

    A block that is one class (_single_class) gives -a, n - 1 times, and
    a (n - 1), for its largest entry a.  Otherwise a class of s vertices
    with inner entry a gives -a with multiplicity s - 1 (the rows of two
    of its vertices x, y agree off {x, y}), and the rest are the
    eigenvalues of the k x k quotient B = w s - diag(w), the row sums of
    a class i vertex over each class: the classes form an equitable
    partition, and B is similar to a symmetric matrix.
    """
    labels, w = form
    n = len(labels)
    if _single_class(form):
        a = int(w.max())
        return [(-a, n - 1)], np.array([[a * (n - 1)]])
    s = np.bincount(labels)
    if len(s) == n:
        return [], w
    inner = np.diagonal(w)
    found = [(-a, size - 1) for a, size in zip(inner.tolist(), s.tolist()) if size > 1]
    return found, w.astype(np.int64) * s - np.diag(inner)


def _block_roots(quotients: list[np.ndarray]) -> list[tuple[list[tuple[int, int]], int]]:
    """Integer roots with multiplicity of each quotient, and its residual
    degree, in order.

    A 1 x 1 quotient is its own root, with no further work.  A larger one
    is first divided by the gcd g of its entries: every eigenvalue l of
    the quotient is g times an eigenvalue of the integer matrix
    quotient / g, so l / g is an algebraic integer, and l is an integer
    exactly when l / g is.  The divided quotients are screened first
    (rootless): one whose polynomial has no root modulo one of the primes
    just above its size has no integer root, and gets no root and its
    whole degree residual.  The characteristic polynomials of the others
    come from one charpoly_dense call, which stacks the quotients of one
    size; each is checked against its quotient
    (check_charpoly: shape, trace and tr(A**2)), and its integer roots
    are read off the divisors of its trailing nonzero coefficient within
    the row-sum eigenvalue bound of quotient / g, then multiplied by g.
    On a component where delta2 is constant, as on every
    vertex-transitive graph, the msn block is delta2 times the adjacency,
    and the division shrinks the coefficient bound, and with it the
    number of primes, accordingly.
    """
    out: list = [None] * len(quotients)
    divided = []  # (place, gcd, quotient / gcd) of each quotient past 1 x 1
    for i, quotient in enumerate(quotients):
        if len(quotient) == 1:
            out[i] = [(int(quotient[0, 0]), 1)], 0
        else:
            g = max(int(np.gcd.reduce(quotient, axis=None)), 1)
            divided.append((i, g, quotient // g))
    for (i, _, reduced), proven in zip(divided, rootless([r for *_, r in divided])):
        if proven:
            out[i] = [], len(reduced)
    divided = [item for item in divided if out[item[0]] is None]
    if divided:
        for (i, g, reduced), poly in zip(divided, charpoly_dense([r for *_, r in divided])):
            check_charpoly(poly, reduced)
            roots, left = integer_roots(poly, gershgorin_bound(reduced))
            out[i] = [(g * r, mult) for r, mult in roots], left
    return out


def _declined(form: tuple[np.ndarray, np.ndarray], cap: int) -> bool:
    """Whether the exact cap declines a form's block.

    The cap bounds the block's vertex count, unless the block is a single
    twin class and the cap admits its 1 x 1 quotient.  That needs no root
    search.  A larger quotient is mostly settled by the screen modulo the
    primes above its size, but one with a root modulo each of them still
    reaches the divisor screen, which grows with the block's row sums,
    which the cap bounds.
    """
    return len(form[0]) > cap and (cap < 1 or not _single_class(form))


def exact_spectrum(*matrices: IntSymMatrix
                   ) -> tuple[SpectrumMultiset | NotFullyIntegral | None, ...]:
    """Integer eigenvalues of each matrix by exact computation, with no
    float call, in order.

    A matrix with a block the cap declines (_declined) gives None, with
    no twin reduction or root search.  Each form of the others is first
    reduced by its twin classes (_twin_quotient), reading nothing larger
    than k x k, and the integer roots of all their quotients are then
    proven from their characteristic polynomials (_block_roots, one
    charpoly_dense call).  If every block's spectrum is integral a
    matrix's spectrum is returned whole, else the integer part found.
    """
    cap = exact_cap()
    taken = [m for m in matrices if not any(_declined(form, cap) for form, _ in m.forms)]
    reduced = [_twin_quotient(form) for m in taken for form, _ in m.forms]
    settled = iter(zip(reduced, _block_roots([quotient for _, quotient in reduced])))
    results = []
    for m in matrices:
        if m not in taken:
            results.append(None)
            continue
        roots: Counter[int] = Counter()
        residual = 0
        for (_, count), ((found, _), (rest, left)) in zip(m.forms, settled):
            for value, mult in [*found, *rest]:
                roots[value] += mult * count
            residual += left * count
        pairs = tuple(sorted(roots.items()))
        results.append(NotFullyIntegral(pairs, residual) if residual
                       else SpectrumMultiset(True, pairs))
    return tuple(results)


def numeric_spectrum(m: IntSymMatrix) -> SpectrumMultiset:
    """m.eigenvalues, the float eigenvalues of each distinct block, merged
    and clustered into multiplicities on the whole matrix's scale."""
    if m.n == 0:
        return SpectrumMultiset(False, ())
    eigs = np.sort(np.concatenate([
        np.repeat(values, count) for values, (_, count) in zip(m.eigenvalues, m.forms)]))
    tol = _cluster_tol(max(w.max() for (_, w), _ in m.forms), m.n)
    # a cluster ends where the next eigenvalue is tol or more above it
    values = eigs.tolist()
    cuts = [0, *((eigs[1:] - eigs[:-1] >= tol).nonzero()[0] + 1).tolist(), len(values)]
    return SpectrumMultiset(False, tuple((sum(values[i:j]) / (j - i), j - i)
                                         for i, j in zip(cuts, cuts[1:])))


@dataclass(frozen=True)
class MatrixSpectra:
    """What both routes found for one matrix.

    exact is None when the cap declines one of the matrix's blocks
    (exact_spectrum).  numeric is numeric_spectrum(matrix), solved on its
    first read: verify_ring reads it always, to hold it against exact.
    The reported spectrum is exact when that is complete, else numeric.
    """

    exact: SpectrumMultiset | NotFullyIntegral | None
    matrix: IntSymMatrix = field(repr=False)

    @functools.cached_property
    def numeric(self) -> SpectrumMultiset:
        return numeric_spectrum(self.matrix)

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


def matrix_spectra(*matrices: IntSymMatrix) -> tuple[MatrixSpectra, ...]:
    """Both routes on each matrix, in order: the single exact-or-numeric
    dispatch.  The exact route runs on all the matrices at once, and
    gives None for each one the cap declines; numeric is lazy."""
    return tuple(MatrixSpectra(e, m) for e, m in zip(exact_spectrum(*matrices), matrices))


def match_tol(numeric: SpectrumMultiset) -> float:
    """How far a value of a numeric spectrum may lie from the exact value
    it matches: NUMERIC_MATCH_TOL, or NUMERIC_MATCH_REL times the
    spectrum's largest |value| if that is more.  That |value| is the
    matrix's 2-norm, and the float eigensolve's error grows with it, as it
    does with _cluster_tol's bound peak * n.  An integer off by 1 still
    misses while the norm stays below 1e12, as it does for every msn matrix
    of a graph within the default universe cap (at most 4999**3)."""
    radius = max((abs(v) for v, _ in numeric.pairs), default=0)
    return max(NUMERIC_MATCH_TOL, NUMERIC_MATCH_REL * float(radius))


def spectra_agree(exact: SpectrumMultiset | NotFullyIntegral,
                  numeric: SpectrumMultiset) -> bool:
    """Every integer eigenvalue from the exact path must be matched by a
    numeric cluster of identical multiplicity within match_tol(numeric)."""
    if isinstance(exact, NotFullyIntegral):
        wanted = exact.integer_roots
    else:
        wanted = exact.pairs
    tol = match_tol(numeric)
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
    return EnergyReport.from_spectra(g.n, None, *matrix_spectra(msn_matrix(g), cn_matrix(g)))
