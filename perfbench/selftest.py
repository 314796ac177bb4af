"""Self-test of the benchmark itself, on smoke-sized inputs.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it checks that an untraced and a traced smoke run
report every metric of BENCHMARK.json with its unit, that results are
stamped, that the traced self times fit in the traced pass, and that a
deliberately corrupted item output is counted as a failure.  Last, it
checks that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

STAMP_KEYS = {"git_sha", "python", "numpy", "blas_threads", "nproc", "seed",
              "items_per_pass", "passes", "latency_items", "error_rate"}


def corrupt_once():
    """A hook that falsifies the first observed output and no other."""
    done = []

    def corrupt(item, observed):
        if done:
            return observed
        done.append(item.key)
        if isinstance(observed[0], str):  # sweep verdicts
            return ("FAIL",) if item.expect != "FAIL" else ("PASS",)
        rc, out = observed
        out = copy.deepcopy(out)
        pairs = out["pairs"] if "pairs" in out else out["msn_spectrum"]["pairs"]
        pairs[0][0] = float(pairs[0][0]) + 1.0
        return rc, out

    return corrupt


def smoke(workload: str, trace: bool, corrupt=None) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = bench.run(workload, seed=1, seconds=0.5, trace=trace, smoke=True,
                           corrupt=corrupt)
    lines = out.getvalue().splitlines()
    stamp = json.loads(next(x for x in lines if x.startswith("stamp: "))[len("stamp: "):])
    return result, stamp


def expect(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def check_metrics(result: dict, spec: list[dict], label: str, failures: list[str]) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{label}: metric names and units match BENCHMARK.json", failures)
    for name, metric in sorted(result["metrics"].items()):
        print(f"      {name} = {metric['value']:.6g} {metric['unit']}")


def empty_directory_fails(failures: list[str]) -> None:
    work = bench.ROOT / ".perfbench_work" / "selftest-empty"
    shutil.rmtree(work, ignore_errors=True)
    try:
        shutil.copytree(HERE, work / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
        cmd = json.loads((work / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(cmd + ["--workload", "ring_sweep", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                              cwd=work, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "run without the program exits non-zero and prints no result", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads", failures)
    for workload in bench.WORKLOADS:
        result, stamp = smoke(workload, trace=False)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{workload}: smoke run is correct", failures)
        expect(STAMP_KEYS <= stamp.keys(), f"{workload}: result is stamped", failures)
        check_metrics(result, spec["end_to_end"], f"{workload} end-to-end", failures)

        result, _ = smoke(workload, trace=True)
        check_metrics(result, spec["per_layer"], f"{workload} per-layer", failures)
        m = result["metrics"]
        self_sum = sum(v["value"] for k, v in m.items()
                       if k.endswith("_s") and not k.startswith("trace."))
        expect(0 < self_sum <= m["trace.pass_s"]["value"],
               f"{workload}: layer self times sum to no more than the traced pass",
               failures)

        result, _ = smoke(workload, trace=False, corrupt=corrupt_once())
        expect(result["failed"] == 1 and not result["correct"]
               and result["metrics"]["success_rate"]["value"] < 1,
               f"{workload}: a corrupted output counts as one failure", failures)
    empty_directory_fails(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
