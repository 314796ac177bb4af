"""Command-line front end.

Exit codes: 0 for success or PASS, 1 for FAIL or HYPOTHESIS_NOT_MET
verdicts and property-suite counterexamples, 2 for usage and input
errors.  Human tables go to stdout; --json and --out switch to machine
formats.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from .config import ENV_EXACT_CAP, ENV_UNIVERSE_CAP, parse_decimal
from .graphs import (
    GraphError,
    SimpleGraph,
    commuting_graph,
    load_graph,
    save_graph,
)
from .rings import (
    RingError,
    additive_quotient_type,
    centralizer_count,
    commuting_probability,
    has_unity,
    is_cc_ring,
    parse_ring_spec,
)
from .spectra import SpectraError, classify, cn_matrix, matrix_spectra, msn_matrix
from .theorems import TheoremId
from .verification import (
    REPORT_CSV_HEADER,
    Verdict,
    property_suite_clique_unions,
    sweep,
    verify_ring,
)

_EPILOG = (
    f"environment: {ENV_EXACT_CAP} overrides the exact-spectrum cap on each support block "
    "that is not a single twin class; "
    f"{ENV_UNIVERSE_CAP} overrides the ring-size cap. "
    "Ring specs: nc_p2:p=P, mat2:p=P, ut2:p=P, zn:n=N, prod(SPEC,SPEC), file:PATH."
)


def _graph_from_args(args) -> SimpleGraph:
    if getattr(args, "graph", None):
        return load_graph(args.graph)
    return commuting_graph(parse_ring_spec(args.spec))


def _format_pairs(pairs) -> str:
    return "  ".join(f"{v}^{m}" for v, m in pairs)


def _cmd_ring_info(args) -> int:
    ring = parse_ring_spec(args.spec)
    info = {
        "name": ring.name,
        "order": ring.order,
        "commutative": ring.is_commutative,
        "center_size": int(ring.central.sum()),
        "commuting_probability": str(commuting_probability(ring)),
        "centralizer_count": centralizer_count(ring),
        "cc_ring": is_cc_ring(ring),
        "has_unity": has_unity(ring) is not None,
        "additive_quotient_type": additive_quotient_type(ring),
    }
    if args.json:
        print(json.dumps(info, sort_keys=True))
        return 0
    for key, value in info.items():
        print(f"{key.replace('_', ' ')}: {value}")
    return 0


def _cmd_graph_build(args) -> int:
    graph = commuting_graph(parse_ring_spec(args.spec))
    save_graph(graph, args.out)
    print(f"wrote {graph.n} vertices, {graph.edge_count} edges to {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    graph = _graph_from_args(args)
    (spectra,) = matrix_spectra(msn_matrix(graph) if args.matrix == "msn" else cn_matrix(graph))
    spectrum = spectra.spectrum
    if args.json:
        print(spectrum.to_json())
        return 0
    print(f"{args.matrix} matrix on {graph.n} vertices ({spectra.method})")
    print(f"spectrum: {_format_pairs(spectrum.pairs)}")
    print(f"energy: {spectrum.energy()}")
    return 0


def _cmd_classify(args) -> int:
    graph = _graph_from_args(args)
    report = classify(graph)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
        return 0
    print(f"n: {report.n}")
    dec = str(report.decomposition) if report.decomposition else "not a clique union"
    print(f"decomposition: {dec}")
    print(f"msn energy: {report.msn_energy} (complete-graph reference {report.esn_complete})")
    print(f"cn energy: {report.cn_energy} (complete-graph reference {report.ecn_complete})")
    integral = {True: "yes", False: "no", None: "undetermined"}[report.msn_integral]
    print(f"msn integral: {integral}")
    print(f"msn hyperenergetic: {'yes' if report.msn_hyperenergetic else 'no'}")
    print(f"cn hyperenergetic: {'yes' if report.cn_hyperenergetic else 'no'}")
    print(f"msn spectrum: {_format_pairs(report.msn_spectrum.pairs)}")
    print(f"cn spectrum: {_format_pairs(report.cn_spectrum.pairs)}")
    return 0


def _cmd_verify(args) -> int:
    ring = parse_ring_spec(args.spec)
    theorem = TheoremId.from_string(args.theorem)
    report = verify_ring(ring, theorem, p=args.p, q=args.q, t=args.t)
    if args.json:
        print(report.to_json())
    else:
        print(f"theorem: {report.theorem.value}")
        print(f"ring: {report.ring_spec}")
        print(f"verdict: {report.verdict.value}")
        print(f"detail: {report.detail}")
    return 0 if report.verdict is Verdict.PASS else 1


def _decimal(text: str) -> int:
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [parse_decimal(x.strip()) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} expects a comma-separated integer list, got {text!r}")
    return values


def _cmd_sweep(args) -> int:
    theorems = [TheoremId.from_string(t) for t in args.theorems.split(",") if t.strip()]
    if not theorems:
        raise ValueError("--theorems expects at least one theorem id")
    ps = _parse_int_list(args.p_range, "--p-range")
    qs = _parse_int_list(args.q_range, "--q-range") if args.q_range else []
    reports = sweep(theorems, ps, qs)
    if args.out:
        if args.out.endswith(".json"):
            with open(args.out, "w") as fh:
                json.dump([r.to_json_dict() for r in reports], fh, sort_keys=True)
        else:
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(REPORT_CSV_HEADER)
                writer.writerows(r.csv_row() for r in reports)
    else:
        for r in reports:
            print(f"{r.theorem.value}  {r.ring_spec}  {r.verdict.value}  {r.detail}")
    counts = {v: 0 for v in Verdict}
    for r in reports:
        counts[r.verdict] += 1
    print("summary: " + "  ".join(f"{v.value} {counts[v]}" for v in Verdict))
    return 1 if counts[Verdict.FAIL] else 0


def _cmd_property_suite(args) -> int:
    report = property_suite_clique_unions(args.seed, args.trials)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(f"checked {report.checked} clique unions "
              f"({report.enumerated} enumerated, {report.trials} random, seed {report.seed})")
        print(f"passes: {report.passes}")
        print(f"equality cases recorded: {len(report.equalities)}")
        print(f"counterexamples: {len(report.counterexamples)}")
        for line in report.counterexamples:
            print(f"  {line}")
    return 1 if report.counterexamples else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msnring",
        description="Exact neighborhood spectra of commuting graphs of finite rings.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("ring-info", help="order, center, commuting probability, centralizers")
    p_info.add_argument("--spec", required=True, help="ring spec string")
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=_cmd_ring_info)

    p_build = sub.add_parser("graph-build", help="write the commuting graph to a file")
    p_build.add_argument("--spec", required=True)
    p_build.add_argument("--out", required=True, help="edge-list path (.json for JSON)")
    p_build.set_defaults(func=_cmd_graph_build)

    def add_graph_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="graph file (edge list or JSON)")
        src.add_argument("--spec", help="ring spec; uses its commuting graph")

    p_spec = sub.add_parser("spectrum", help="eigenvalues of one neighborhood matrix")
    p_spec.add_argument("--matrix", choices=("msn", "cn"), required=True)
    add_graph_source(p_spec)
    p_spec.add_argument("--json", action="store_true")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_cls = sub.add_parser("classify", help="energies, integrality, and hyperenergetic flags")
    add_graph_source(p_cls)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_ver = sub.add_parser("verify", help="check one ring against one closed form")
    p_ver.add_argument("--theorem", required=True, help="theorem id, e.g. t3_1a")
    p_ver.add_argument("--spec", required=True)
    p_ver.add_argument("--p", type=_decimal)
    p_ver.add_argument("--q", type=_decimal)
    p_ver.add_argument("--t", type=_decimal)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="verify built-in instances over a parameter grid")
    p_sweep.add_argument("--theorems", required=True, help="comma-separated theorem ids")
    p_sweep.add_argument("--p-range", required=True, help="comma-separated integers")
    p_sweep.add_argument("--q-range", default="", help="comma-separated integers")
    p_sweep.add_argument("--out", help="report file (.json for JSON, else CSV)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_prop = sub.add_parser("property-suite", help="clique-union energy property checks")
    p_prop.add_argument("--seed", type=_decimal, default=1)
    p_prop.add_argument("--trials", type=_decimal, default=500)
    p_prop.add_argument("--json", action="store_true")
    p_prop.set_defaults(func=_cmd_property_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main rather than at import,
    and reused by every later call; parse_args keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RingError, GraphError, SpectraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
