"""Command line behavior: outputs, files, and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import msnring
from msnring import cli
from msnring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- ring-info ---


def test_ring_info_json(capsys):
    code, out, _ = run(capsys, "ring-info", "--spec", "ut2:p=2", "--json")
    assert code == 0
    info = json.loads(out)
    assert info["order"] == 8
    assert info["commutative"] is False
    assert info["center_size"] == 2
    assert info["centralizer_count"] == 4
    assert info["cc_ring"] is True
    assert info["has_unity"] is True
    assert info["additive_quotient_type"] == [2, 2]
    assert info["name"] == "ut2:p=2"


def test_ring_info_human(capsys):
    code, out, _ = run(capsys, "ring-info", "--spec", "zn:n=6")
    assert code == 0
    assert "order: 6" in out
    assert "commutative: True" in out
    assert "commuting probability: 1" in out


# --- graph-build and file round trip ---


def test_graph_build_and_reuse(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    code, out, _ = run(capsys, "graph-build", "--spec", "ut2:p=2", "--out", str(path))
    assert code == 0
    assert out.strip() == f"wrote 6 vertices, 3 edges to {path}"
    code, from_file, _ = run(capsys, "spectrum", "--matrix", "msn",
                             "--graph", str(path), "--json")
    assert code == 0
    code, from_spec, _ = run(capsys, "spectrum", "--matrix", "msn",
                             "--spec", "ut2:p=2", "--json")
    assert code == 0
    assert from_file == from_spec


def test_graph_build_json_format(tmp_path, capsys):
    path = tmp_path / "graph.json"
    code, _, _ = run(capsys, "graph-build", "--spec", "nc_p2:p=2", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data == {"n": 3, "edges": []}


# --- spectrum ---


def test_spectrum_json_isolated_vertices(capsys):
    code, out, _ = run(capsys, "spectrum", "--matrix", "msn",
                       "--spec", "nc_p2:p=2", "--json")
    assert code == 0
    assert json.loads(out) == {"exact": True, "pairs": [[0, 3]]}


def test_spectrum_human(capsys):
    code, out, _ = run(capsys, "spectrum", "--matrix", "msn", "--spec", "ut2:p=2")
    assert code == 0
    assert "msn matrix on 6 vertices (exact)" in out
    assert "spectrum: -1^3  1^3" in out
    assert "energy: 6" in out


def test_spectrum_cn(capsys):
    code, out, _ = run(capsys, "spectrum", "--matrix", "cn",
                       "--spec", "ut2:p=2", "--json")
    assert code == 0
    assert json.loads(out) == {"exact": True, "pairs": [[0, 6]]}


def test_spectrum_numeric_fallback(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "spectrum", "--matrix", "msn",
                       "--graph", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is False
    values = [float(v) for v, _ in data["pairs"]]
    assert values == pytest.approx([-(8 ** 0.5), 0.0, 8 ** 0.5])


# --- classify ---


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--spec", "ut2:p=2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"] == "3K2"
    assert data["msn_energy"] == 6
    assert data["msn_integral"] is True
    assert data["msn_hyperenergetic"] is False
    assert data["esn_complete"] == 2 * 5**3


def test_classify_json_has_the_verify_report_keys(capsys):
    code, out, _ = run(capsys, "classify", "--spec", "ut2:p=3", "--json")
    assert code == 0
    classified = json.loads(out)
    code, out, _ = run(capsys, "verify", "--theorem", "c2_4b", "--spec", "ut2:p=3", "--json")
    assert code == 0
    computed = json.loads(out)["computed"]
    assert set(classified) == set(computed)
    assert len(classified) == 13
    assert classified["msn_method"] == classified["cn_method"] == "closed_form"
    assert computed["msn_method"] == computed["cn_method"] == "exact"
    assert computed["esn_complete"] == classified["esn_complete"] == 2 * 23**3
    assert computed["ecn_complete"] == classified["ecn_complete"] == 2 * 23 * 22
    shared = set(classified) - {"msn_method", "cn_method"}
    assert {k: classified[k] for k in shared} == {k: computed[k] for k in shared}


def test_classify_human_non_clique_union(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "classify", "--graph", str(path))
    assert code == 0
    assert "decomposition: not a clique union" in out
    assert "msn integral: no" in out


# --- verify ---


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "c2_4b", "--spec", "ut2:p=2")
    assert code == 0
    assert "verdict: PASS" in out
    assert "detail: 3K2; msn energy 6" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "t3_1a",
                       "--spec", "mat2:p=2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert data["computed"]["decomposition"] == "7K2"


def test_verify_hypothesis_not_met_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "t2_1", "--spec", "zn:n=6")
    assert code == 1
    assert "verdict: HYPOTHESIS_NOT_MET" in out
    assert "ring is commutative" in out


def test_verify_forwards_parameters(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "t2_1",
                       "--spec", "nc_p2:p=3", "--p", "2")
    assert code == 1
    assert "differs from [2, 2]" in out


# --- sweep ---


def test_sweep_human_table(capsys):
    code, out, _ = run(capsys, "sweep", "--theorems", "t2_1,c2_4b",
                       "--p-range", "2,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("t2_1  nc_p2:p=2  PASS")
    assert lines[-1] == "summary: PASS 4  FAIL 0  HYPOTHESIS_NOT_MET 0  UNSUPPORTED 0"


def test_sweep_reports_unsupported(capsys):
    code, out, _ = run(capsys, "sweep", "--theorems", "t4_3",
                       "--p-range", "3", "--q-range", "3")
    assert code == 0
    assert "UNSUPPORTED  p and q must be distinct primes" in out
    assert "UNSUPPORTED 1" in out


def test_sweep_reports_a_q_that_is_not_prime(capsys):
    code, out, err = run(capsys, "sweep", "--theorems", "t4_3",
                         "--p-range", "2", "--q-range", "0,4,3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "t4_3  none  UNSUPPORTED  q = 0 is not prime",
        "t4_3  none  UNSUPPORTED  q = 4 is not prime",
        "t4_3  prod(ut2:p=2,zn:n=3)  PASS  3K6; msn energy 750",
        "summary: PASS 1  FAIL 0  HYPOTHESIS_NOT_MET 0  UNSUPPORTED 2",
    ]


def test_sweep_csv_out(tmp_path, capsys):
    path = tmp_path / "reports.csv"
    code, out, _ = run(capsys, "sweep", "--theorems", "c2_4b",
                       "--p-range", "2,3", "--out", str(path))
    assert code == 0
    assert "summary: PASS 2" in out
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "theorem,ring,verdict,detail,decomposition,msn_energy"
    assert rows[1].startswith("c2_4b,ut2:p=2,PASS,")
    assert len(rows) == 3


def test_sweep_json_out(tmp_path, capsys):
    path = tmp_path / "reports.json"
    code, _, _ = run(capsys, "sweep", "--theorems", "t3_1b",
                     "--p-range", "2", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data) == 1
    assert data[0]["theorem"] == "t3_1b"
    assert data[0]["verdict"] == "PASS"
    assert set(data[0]) == {"theorem", "ring", "params", "verdict", "detail",
                            "computed", "predicted"}


# --- property-suite ---


def test_property_suite_json(capsys):
    code, out, _ = run(capsys, "property-suite", "--seed", "5",
                       "--trials", "20", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["counterexamples"] == []
    assert data["checked"] == data["enumerated"] + 20


def test_property_suite_human(capsys):
    code, out, _ = run(capsys, "property-suite", "--seed", "1", "--trials", "5")
    assert code == 0
    assert "counterexamples: 0" in out


# --- errors and exit codes ---


def test_bad_ring_spec_exits_two(capsys):
    code, out, err = run(capsys, "ring-info", "--spec", "frobnicate:p=2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "usage:" in err


def test_unknown_theorem_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "t9_9", "--spec", "ut2:p=2")
    assert code == 2
    assert "unknown theorem id" in err


def test_commutative_ring_graph_exits_two(capsys):
    code, _, err = run(capsys, "graph-build", "--spec", "zn:n=4",
                       "--out", "/tmp/unused-graph.txt")
    assert code == 2
    assert "error:" in err


def test_missing_graph_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", "--matrix", "msn",
                       "--graph", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("table", [[[0, 0], [0, 1.7]], [[False, False], [False, True]]])
def test_non_integer_ring_file_exits_two(tmp_path, capsys, table):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"name": "bad", "moduli": [2], "table": table}))
    code, out, err = run(capsys, "ring-info", "--spec", f"file:{path}")
    assert code == 2
    assert out == ""
    assert "integers" in err


def test_ragged_ring_file_exits_two(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"name": "bad", "moduli": [2], "table": [[0, 0], [0]]}))
    code, out, err = run(capsys, "ring-info", "--spec", f"file:{path}")
    assert code == 2
    assert out == ""
    assert "error: table must be a square integer array" in err


@pytest.mark.parametrize("edges", [[[0.7, 1.2]], [[True, 2]], [[None, 1]], 7])
def test_non_integer_graph_edges_exit_two(tmp_path, capsys, edges):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 3, "edges": edges}))
    code, out, err = run(capsys, "classify", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "error: graph JSON edge" in err


@pytest.mark.parametrize("spec", ["nc_p2:p=\u0663", "zn:n=1_0"])
def test_non_ascii_decimal_ring_spec_exits_two(capsys, spec):
    code, out, err = run(capsys, "ring-info", "--spec", spec)
    assert code == 2
    assert out == ""
    assert "is not an integer" in err


@pytest.mark.parametrize("text", ["2 1\n0 \u0661\n", "2 1\n0 1_0\n"])
def test_non_ascii_decimal_edge_list_exits_two(tmp_path, capsys, text):
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "classify", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "invalid decimal integer" in err


@pytest.mark.parametrize("text,line,fields", [("3 2\n0 1\n2\n", 3, 1),
                                               ("3 1\n\n0 1 2\n", 3, 3)])
def test_edge_list_row_without_two_fields_exits_two(tmp_path, capsys, text, line, fields):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    code, out, err = run(capsys, "classify", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert f"error: malformed edge list: line {line} has {fields} fields, expected 2" in err
    assert "unpack" not in err


def test_form_feed_edge_list_loads_as_a_path(tmp_path, capsys):
    # a form feed separates fields; it used to end the line
    plain, fed = tmp_path / "plain.txt", tmp_path / "fed.txt"
    plain.write_bytes(b"3 2\n0 1\n1 2\n")
    fed.write_bytes(b"3 2\n0\x0c1\n1 2\n")
    code, out, err = run(capsys, "classify", "--graph", str(fed), "--json")
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "classify", "--graph", str(plain), "--json")


@pytest.mark.parametrize("text", ["3 1\n0 \u00a01\n", "3 1\n0 1\u2028\n"])
def test_non_ascii_whitespace_in_edge_list_exits_two(tmp_path, capsys, text):
    # str.split used to drop the no-break space, and str.splitlines to end
    # the line at the line separator
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "spectrum", "--matrix", "msn", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "error: malformed edge list: invalid decimal integer" in err


def test_oversized_graph_header_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MSNRING_UNIVERSE_CAP", "10")
    path = tmp_path / "big.txt"
    path.write_text("11 0\n")
    code, _, err = run(capsys, "spectrum", "--matrix", "msn", "--graph", str(path))
    assert code == 2
    assert "vertex count 11" in err


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--matrix", "msn"])  # no graph source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--matrix", "msn", "--spec", "ut2:p=2",
              "--graph", "x.txt"])  # mutually exclusive
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def run_any(capsys, argv):
    """Exit code and output of one call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REUSE_SEQUENCE = [
    ["spectrum", "--matrix", "msn", "--spec", "ut2:p=2", "--json"],
    ["spectrum", "--matrix", "msn", "--spec", "ut2:p=2"],
    ["classify", "--spec", "ut2:p=2"],
    ["spectrum", "--matrix", "msn"],  # usage error: no graph source
    ["sweep", "--theorems", "t2_1", "--p-range", "2"],  # default --q-range
]


def test_reused_parser_prints_what_a_fresh_one_prints(capsys):
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(run_any(capsys, argv))
    cli._parser.cache_clear()
    reused = [run_any(capsys, argv) for argv in REUSE_SEQUENCE]
    assert cli._parser.cache_info().misses == 1  # built once for all five calls
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0]
    assert reused[1][1].startswith("msn matrix on 6 vertices")  # --json did not stick


def test_parser_is_built_on_first_call_not_at_import():
    src = str(Path(msnring.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import contextlib, io, msnring.cli as c\n"
            "before = c._parser.cache_info().currsize\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    c.main(['ring-info', '--spec', 'zn:n=4'])\n"
            "print(before, c._parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_bad_sweep_range_exits_two(capsys):
    code, _, err = run(capsys, "sweep", "--theorems", "t2_1", "--p-range", "2,x")
    assert code == 2
    assert "comma-separated integer list" in err


@pytest.mark.parametrize("flag, value", [("--p-range", ""), ("--p-range", ","),
                                         ("--p-range", " , "), ("--q-range", ",")])
def test_empty_sweep_range_exits_two(capsys, flag, value):
    # these used to run no instance and exit 0
    ranges = {"--p-range": "2", "--q-range": "3", flag: value}
    code, out, err = run(capsys, "sweep", "--theorems", "t4_3",
                         *(arg for item in ranges.items() for arg in item))
    assert code == 2
    assert out == ""
    assert f"{flag} expects a comma-separated integer list" in err


@pytest.mark.parametrize("family", ["nc_p2", "mat2", "ut2"])
def test_huge_prime_fails_fast(capsys, family):
    # 10^18 + 3 is prime: the size cap must reject it before any primality test
    start = time.perf_counter()
    code, _, err = run(capsys, "ring-info", "--spec", f"{family}:p=1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "universe cap" in err


def test_module_entry_point():
    # the child imports the same msnring as this process, installed or not
    src = str(Path(msnring.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "msnring.cli", "ring-info", "--spec", "zn:n=4"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "order: 4" in proc.stdout


@pytest.mark.parametrize("value", ["٢", "1_0", "+2", "2.0"])
def test_non_ascii_decimal_sweep_range_exits_two(capsys, value):
    code, out, err = run(capsys, "sweep", "--theorems", "t2_1", "--p-range", f"3,{value}")
    assert code == 2
    assert out == ""
    assert "comma-separated integer list" in err
    code, _, err = run(capsys, "sweep", "--theorems", "t4_3", "--p-range", "2",
                       "--q-range", value)
    assert code == 2
    assert "--q-range" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "t2_1", "--spec", "nc_p2:p=3", "--p", "٣"],
    ["verify", "--theorem", "t4_1a", "--spec", "ut2:p=2", "--t", "1_0"],
    ["verify", "--theorem", "t4_3", "--spec", "ut2:p=2", "--q", "+3"],
    ["property-suite", "--seed", "١"],
    ["property-suite", "--trials", "1_0"],
])
def test_non_ascii_decimal_flags_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid decimal integer" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["MSNRING_EXACT_CAP", "MSNRING_UNIVERSE_CAP"])
def test_non_ascii_decimal_cap_exits_two(capsys, monkeypatch, env):
    monkeypatch.setenv(env, "1_0")
    code, out, err = run(capsys, "spectrum", "--matrix", "msn", "--spec", "ut2:p=2")
    assert code == 2
    assert out == ""
    assert env in err and "invalid decimal integer" in err
