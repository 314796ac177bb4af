"""msnring benchmark: one workload, one seed, one timed run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring_sweep --seed 1 --seconds 36 --trace 0

The program is imported from the checkout's ``src`` directory and driven
through its public entry points (``verification.sweep`` and
``cli.main`` with stdout captured), one call at a time from a single
thread.  Inputs are generated from ``--seed``; every item's output is
checked against an oracle of the benchmark's own after the item's timer
stops.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  See ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))

# BLAS gets one thread per CPU this process may use, as numpy's default
# would, and never more.  The variables are read when numpy loads.
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

SETUP_REPS = 11
WARM_ITEMS = 3
TOL = 1e-6
WORKLOADS = ("ring_sweep", "random_graphs", "clique_unions")

DENSITIES = (0.3, 0.5, 0.7)
# Three graphs (one per density) for each n up to 20, so the median item
# sits among many like-sized graphs; one graph for each large even n.
RANDOM_GRAPHS = [(n, d) for n in range(8, 21) for d in DENSITIES] + \
    [(n, DENSITIES[n % 3]) for n in (22, 24, 26, 28)]
CLIQUE_UNIONS = 100
CLIQUE_SIZES = range(1, 17)
CLIQUE_COUNTS = (1, 8)
CLIQUE_DISTINCT = (2, 6)
EXACT_CAP = 256


class BenchError(Exception):
    pass


def import_program():
    """A fresh import of msnring from this checkout's src, never from elsewhere."""
    if not (SRC / "msnring" / "__init__.py").is_file():
        raise BenchError(f"no msnring package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "msnring" or n.startswith("msnring.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    msnring = importlib.import_module("msnring")
    importlib.import_module("msnring.cli")
    if Path(msnring.__file__).resolve().parent != (SRC / "msnring").resolve():
        raise BenchError(f"msnring was imported from {msnring.__file__}, not from {SRC}")
    return msnring


# --------------------------------------------------------------------------
# Workload inputs


@dataclass
class Item:
    key: str
    args: tuple
    expect: object
    cost: int
    latency: bool = True  # counts toward the item latency percentiles


def ring_sweep_items(seed: int, workdir: Path, smoke: bool) -> list[Item]:
    """The fixed grid, in the order `msnring sweep` visits it; the seed is unused.

    The cells run in one fixed order because a small cell's time depends on
    which large cell ran before it, by up to a factor of five.
    """
    from msnring.theorems import TheoremId

    table = json.loads((HERE / "expected_ring_sweep.json").read_text())["cells"]
    # An UNSUPPORTED cell never reaches verify_ring, so its few
    # microseconds are not what a user of one verify call waits for.
    return [Item(f"{tid}:p={p}:q={q}", (TheoremId.from_string(tid), p, q), verdict,
                 p if verdict == "PASS" else 100, verdict != "UNSUPPORTED")
            for tid, p, q, verdict in table if not smoke or p == 2]


def _connected_not_complete(n: int, edges: list[tuple[int, int]]) -> bool:
    """One connected block that is not K_n, hence not a clique union."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n and len(edges) < n * (n - 1) // 2


def _write_edge_list(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def random_graph_items(seed: int, workdir: Path, smoke: bool) -> list[Item]:
    """Seeded G(n, d) graphs, n in 8..28, redrawn until connected and not complete.

    A disconnected graph splits the exact path into cheaper blocks, which
    made the time of one (n, d) slot swing from seed to seed.
    """
    rng = random.Random(seed)
    items = []
    for k, (n, d) in enumerate(RANDOM_GRAPHS[:5] if smoke else RANDOM_GRAPHS):
        while True:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < d]
            if _connected_not_complete(n, edges):
                break
        path = workdir / f"g{k}.txt"
        _write_edge_list(path, n, edges)
        argv = ["classify", "--graph", str(path), "--json"]
        items.append(Item(f"G({n},{d})", (argv,), (n, edges), n))
    return items


def clique_union_items(seed: int, workdir: Path, smoke: bool) -> list[Item]:
    """Seeded clique unions, n <= EXACT_CAP, vertices shuffled; msn and cn each.

    Every seed gets the same mix, which keeps the timings steady across
    seeds: a union with k distinct sizes takes one size from each of k equal
    slices of 1..16, k cycles through 2..6, and each union grows random
    counts up to its own target n, the targets being spread evenly over
    0..EXACT_CAP.
    """
    rng = random.Random(seed)
    unions = 4 if smoke else CLIQUE_UNIONS
    lo, hi = CLIQUE_DISTINCT
    kinds = [lo + i % (hi - lo + 1) for i in range(unions)]
    targets = [EXACT_CAP * (i + rng.random()) / unions for i in range(unions)]
    rng.shuffle(kinds)
    rng.shuffle(targets)
    items = []
    for k, (distinct, target) in enumerate(zip(kinds, targets)):
        sizes = [int(rng.choice(part)) for part in np.array_split(CLIQUE_SIZES, distinct)]
        counts = [CLIQUE_COUNTS[0]] * distinct
        n = sum(sizes)
        while True:
            grow = [i for i, m in enumerate(sizes)
                    if counts[i] < CLIQUE_COUNTS[1] and n + m <= target]
            if not grow:
                break
            i = rng.choice(grow)
            counts[i] += 1
            n += sizes[i]
        parts = list(zip(sizes, counts))
        perm = list(range(n))
        rng.shuffle(perm)
        edges, start = [], 0
        for m, c in parts:
            for _ in range(c):
                block = perm[start:start + m]
                edges += [tuple(sorted((block[i], block[j])))
                          for i in range(m) for j in range(i + 1, m)]
                start += m
        edges.sort()
        path = workdir / f"u{k}.txt"
        _write_edge_list(path, n, edges)
        label = "+".join(f"{c}K{m}" for m, c in sorted(parts))
        for matrix in ("msn", "cn"):
            argv = ["spectrum", "--matrix", matrix, "--graph", str(path), "--json"]
            items.append(Item(f"{matrix}:u{k}:{label}", (argv,), (matrix, parts), n))
    return items


# --------------------------------------------------------------------------
# Calls into the program and the oracles that check them


def call_sweep(prog, item: Item):
    tid, p, q = item.args
    return prog.verification.sweep([tid], [p], [q] if q is not None else [])


def call_cli(prog, item: Item):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = prog.cli.main(item.args[0])
    return rc, out.getvalue()


def observe_sweep(raw) -> tuple:
    return tuple(r.verdict.value for r in raw)


def observe_cli(raw) -> tuple:
    rc, text = raw
    return rc, json.loads(text) if rc == 0 else text


def check_sweep(item: Item, observed: tuple) -> bool:
    return observed == (item.expect,)


def _expand(pairs) -> np.ndarray:
    return np.sort(np.array([float(v) for v, m in pairs for _ in range(int(m))]))


def _close(pairs, want: np.ndarray) -> bool:
    got = _expand(pairs)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= TOL * scale))


def oracle_matrices(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """msn and cn matrices built from the edge list with numpy alone."""
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    walks = a @ a
    reach = (a + walks) > 0
    np.fill_diagonal(reach, False)
    d2 = reach.astype(np.int64) @ a.sum(axis=1)
    msn = np.minimum.outer(d2, d2) * a
    cn = walks.copy()
    np.fill_diagonal(cn, 0)
    return msn, cn


def check_classify(item: Item, observed: tuple) -> bool:
    rc, out = observed
    if rc != 0 or not isinstance(out, dict):
        return False
    n, edges = item.expect
    msn, cn = oracle_matrices(n, edges)
    ok = out.get("n") == n and out.get("decomposition") is None
    for name, matrix in (("msn", msn), ("cn", cn)):
        want = np.linalg.eigvalsh(matrix.astype(np.float64))
        scale = max(1.0, float(np.abs(want).max()))
        ok = ok and _close(out[f"{name}_spectrum"]["pairs"], want)
        ok = ok and abs(float(out[f"{name}_energy"]) - np.abs(want).sum()) <= TOL * scale * n
    return ok


def clique_union_spectrum(matrix: str, parts) -> np.ndarray:
    """Closed forms for K_m, one component at a time."""
    eigs: Counter[int] = Counter()
    for m, count in parts:
        if matrix == "msn":
            top, rest = (m - 1) ** 3, -((m - 1) ** 2)
        else:
            top, rest = (m - 2) * (m - 1), -(m - 2)
        eigs[top] += count
        eigs[rest] += count * (m - 1)
    return _expand(eigs.items())


def check_spectrum(item: Item, observed: tuple) -> bool:
    rc, out = observed
    if rc != 0 or not isinstance(out, dict):
        return False
    return _close(out["pairs"], clique_union_spectrum(*item.expect))


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    call: object
    observe: object
    check: object


WORKLOAD_DEFS = {
    "ring_sweep": Workload("ring_sweep", ring_sweep_items, call_sweep, observe_sweep,
                           check_sweep),
    "random_graphs": Workload("random_graphs", random_graph_items, call_cli, observe_cli,
                              check_classify),
    "clique_unions": Workload("clique_unions", clique_union_items, call_cli, observe_cli,
                              check_spectrum),
}


# --------------------------------------------------------------------------
# Machine-speed probe
#
# On the shared two-CPU machine this benchmark was written on, the same
# fixed loop of Python work ran at speeds that differed by 20% (IQR over
# median) between 36-second windows, and one fixed input's pass time moved
# by as much from one run to the next.  So each run also times a fixed
# probe between items, with the collector off, and scales its end-to-end
# times to the probe's nominal speed:
#
#     reported = wall time * PROBE_NOMINAL_S / median probe time
#
# The probe is a dense symmetric eigensolve.  Of the probes tried (this
# one, an integer loop and two Fraction loops) it tracked all three
# workloads at least as well as the others, and ring_sweep, which is
# mostly eigensolves, far better.  The unscaled wall times are kept in
# the stamp line.

PROBE_INTERVAL_S = 0.5
PROBE_NOMINAL_S = 0.005
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((300, 300))
_PROBE_MATRIX += _PROBE_MATRIX.T


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.last = -PROBE_INTERVAL_S
        np.linalg.eigvalsh(_PROBE_MATRIX)

    def tick(self, force: bool = False) -> None:
        """Time the probe once, unless it ran less than PROBE_INTERVAL_S ago."""
        if not force and time.perf_counter() - self.last < PROBE_INTERVAL_S:
            return
        gc.disable()
        try:
            t0 = time.perf_counter()
            np.linalg.eigvalsh(_PROBE_MATRIX)
            self.times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.last = time.perf_counter()

    def factor(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.times)


# --------------------------------------------------------------------------
# Tracing: spans kept in memory, self time = span minus its child spans


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [item, name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.item = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.item, name, parent, time.perf_counter(), None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()

    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for i, (_, name, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


def _dim(m) -> int:
    return int(m.n) if hasattr(m, "n") else int(np.asarray(m).shape[0])


def _count_invariant(counts, args, result):
    counts["rings.invariants_calls"] += 1


def _count_numeric(counts, args, result):
    counts["spectra.numeric_calls"] += 1
    counts["spectra.numeric_dim3_sum"] += _dim(args[0]) ** 3


def _count_exact(counts, args, result):
    counts["spectra.exact_calls"] += 1
    counts["spectra.exact_dim_sum"] += _dim(args[0])


def _count_dense(counts, args, result):
    counts["charpoly.charpoly_dense_calls"] += 1


def _count_blocks(counts, args, result):
    counts["charpoly.blocks_seen"] += len(result)


# (span name, module, public functions, counting hook)
LAYERS = (
    ("rings.build", "rings", ("zn", "ring_noncomm_p2", "matrix_ring_2x2",
                              "upper_triangular_ring", "direct_product", "ring_from_table",
                              "load_ring", "parse_ring_spec"), None),
    ("rings.invariants", "rings", ("center", "centralizer", "centralizer_count",
                                   "commuting_probability", "has_unity",
                                   "additive_quotient_type", "is_cc_ring",
                                   "noncentral_centralizer_sizes"), _count_invariant),
    ("graphs.commuting_graph", "graphs", ("commuting_graph",), None),
    ("graphs.clique_decomposition", "graphs", ("clique_decomposition",), None),
    ("graphs.delta2_all", "graphs", ("delta2_all",), None),
    ("graphs.load_graph", "graphs", ("load_graph",), None),
    ("spectra.msn_matrix", "spectra", ("msn_matrix",), None),
    ("spectra.cn_matrix", "spectra", ("cn_matrix",), None),
    ("spectra.numeric_spectrum", "spectra", ("numeric_spectrum",), _count_numeric),
    ("spectra.exact_spectrum", "spectra", ("exact_spectrum",), _count_exact),
    ("spectra.classify", "spectra", ("classify",), None),
    ("charpoly.charpoly_dense", "charpoly", ("charpoly_dense",), _count_dense),
    ("charpoly.char_polynomial", "charpoly", ("char_polynomial",), None),
    ("charpoly.integer_roots", "charpoly", ("integer_roots",), None),
    ("charpoly.support_components", "charpoly", ("support_components",), _count_blocks),
    ("theorems.predict", "theorems", ("predict",), None),
    ("theorems.closed_form", "theorems", ("clique_union_msn_spectrum",
                                          "clique_union_cn_spectrum",
                                          "clique_union_msn_energy",
                                          "clique_union_cn_energy",
                                          "reference_energies"), None),
    ("verification.verify_ring", "verification", ("verify_ring",), None),
    ("verification.sweep", "verification", ("sweep",), None),
    ("cli.main", "cli", ("main",), None),
)
COUNTS = ("rings.invariants_calls", "spectra.numeric_calls", "spectra.numeric_dim3_sum",
          "spectra.exact_calls", "spectra.exact_dim_sum", "charpoly.charpoly_dense_calls",
          "charpoly.blocks_seen")


def _wrap(tracer: Tracer, span: str, fn, hook):
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.counts, args, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__doc__ = fn.__doc__
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap each public function at every name the package binds it to."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "msnring" or name.startswith("msnring."))]
    patched, missing = [], []
    try:
        for span, modname, names, hook in LAYERS:
            home = importlib.import_module(f"msnring.{modname}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    missing.append(f"msnring.{modname}.{fname}")
                    continue
                traced = _wrap(tracer, span, fn, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            patched.append((mod, attr, fn))
                            setattr(mod, attr, traced)
        if missing:
            print(f"trace: functions not found, their spans read 0: {', '.join(missing)}")
        yield
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)


# --------------------------------------------------------------------------
# Measurement


@dataclass
class Passes:
    pass_s: list
    item_s: dict  # item key -> its wall time in each pass
    attempted: int = 0
    failed: int = 0

    def latencies(self) -> list:
        """Each latency item's median over the passes."""
        return [statistics.median(ts) for ts in self.item_s.values()]


def run_passes(prog, wl: Workload, items: list[Item], seconds: float,
               tracer: Tracer | None = None, corrupt=None,
               probe: SpeedProbe | None = None) -> Passes:
    """Whole passes over the items until the next one would overrun seconds."""
    res = Passes([], {})
    start = time.perf_counter()
    while True:
        busy = 0.0
        for item in items:
            if probe is not None:
                probe.tick()
            if tracer is not None:
                tracer.item = item.key
            # Each item starts from a collected heap, as a fresh CLI call
            # would, so no item pays for the garbage of the one before it.
            gc.collect()
            t0 = time.perf_counter()
            raw = wl.call(prog, item)
            elapsed = time.perf_counter() - t0
            busy += elapsed
            if item.latency:
                res.item_s.setdefault(item.key, []).append(elapsed)
            res.attempted += 1
            try:
                observed = wl.observe(raw)
                if corrupt is not None:
                    observed = corrupt(item, observed)
                ok = wl.check(item, observed)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                print(f"check error on {item.key}: {exc!r}")
                ok = False
            if not ok:
                res.failed += 1
                print(f"FAILED {wl.name} {item.key}")
        res.pass_s.append(busy)
        if time.perf_counter() - start + statistics.median(res.pass_s) > seconds:
            return res


def measure_setup(wl: Workload, seed: int, workdir: Path, smoke: bool):
    """Median over SETUP_REPS of: a fresh import of msnring, then input generation.

    numpy stays imported between repetitions; it is not the program's cost.
    The program and the inputs of the last repetition are the ones measured.
    The speed probe is timed before every repetition, for set-up's own factor.
    """
    times, probe = [], SpeedProbe()
    for _ in range(SETUP_REPS):
        probe.tick(force=True)
        gc.collect()
        t0 = time.perf_counter()
        prog = import_program()
        items = wl.make(seed, workdir, smoke)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), probe.factor(), prog, items


def blas_threads() -> int | str:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        corrupt=None) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    wl = WORKLOAD_DEFS[workload]
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_speed, prog, items = measure_setup(wl, seed, workdir, smoke)
        threads = blas_threads()
        if isinstance(threads, int) and threads > min(BLAS_THREADS, NPROC):
            raise BenchError(f"BLAS uses {threads} threads, more than {BLAS_THREADS}")
        for item in sorted(items, key=lambda it: it.cost)[:WARM_ITEMS]:
            wl.call(prog, item)
        if trace:
            probe = SpeedProbe()
            plain = run_passes(prog, wl, items, seconds / 2, corrupt=corrupt, probe=probe)
            tracer = Tracer()
            with instrumented(tracer):
                traced = run_passes(prog, wl, items, seconds / 2, tracer, corrupt)
            metrics = layer_metrics(tracer, plain, traced)
            metrics.update(latency_metrics(plain, probe.factor()))
            extra = {}
            done = [plain, traced]
        else:
            probe = SpeedProbe()
            plain = run_passes(prog, wl, items, seconds, corrupt=corrupt, probe=probe)
            raw = {
                "setup_s": setup_s,
                "pass_s": statistics.median(plain.pass_s),
                **{k[len("latency."):]: v for k, (v, _) in latency_metrics(plain, 1.0).items()},
            }
            speed = probe.factor()
            ok = plain.attempted - plain.failed
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (raw["setup_s"] * setup_speed, "s"),
                "pass_s": (raw["pass_s"] * speed, "s"),
                "peak_rss_mb": (peak_mb, "MB"),
                "success_rate": (ok / plain.attempted, "ratio"),
            }
            extra = {"raw_wall": raw, "speed_factor": speed,
                     "setup_speed_factor": setup_speed,
                     "probe_ms_median": statistics.median(probe.times) * 1e3,
                     "probe_samples": len(probe.times)}
            done = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": threads, "nproc": NPROC,
        "items_per_pass": len(items), "passes": [len(p.pass_s) for p in done],
        "latency_items": [len(p.item_s) for p in done],
        "error_rate": failed / attempted, **extra,
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def latency_metrics(plain: Passes, speed: float) -> dict:
    """Per-item latency percentiles of the untraced passes, speed-scaled.

    They are reported with the per-layer metrics, not gated end to end:
    over ten seeds their spread reached 0.2 on every workload, too close
    to the largest bound a gated metric may have.
    """
    latencies = plain.latencies()
    return {"latency.item_ms_p50": (statistics.median(latencies) * 1e3 * speed, "ms"),
            "latency.item_ms_p90": (percentile(latencies, 90) * 1e3 * speed, "ms")}


def layer_metrics(tracer: Tracer, plain: Passes, traced: Passes) -> dict:
    """Per-pass self times and counts of the traced passes."""
    passes = len(traced.pass_s)
    self_s = tracer.self_times()
    out = {f"{span}_s": (self_s[span] / passes, "s") for span, *_ in LAYERS}
    for name in COUNTS:
        out[name] = (tracer.counts[name] / passes, "count")
    blocks = tracer.counts["charpoly.blocks_seen"]
    dense = tracer.counts["charpoly.charpoly_dense_calls"]
    out["charpoly.distinct_block_ratio"] = (dense / blocks if blocks else 0.0, "ratio")
    # Means, not medians: the self times above are per-pass means, and
    # their sum must stay within the traced pass time.
    traced_s = statistics.fmean(traced.pass_s)
    out["trace.pass_s"] = (traced_s, "s")
    out["trace.overhead_frac"] = (traced_s / statistics.fmean(plain.pass_s) - 1, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
