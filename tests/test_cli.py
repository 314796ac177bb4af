"""Command line behavior: outputs, files, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msnring
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


def test_bad_sweep_range_exits_two(capsys):
    code, _, err = run(capsys, "sweep", "--theorems", "t2_1", "--p-range", "2,x")
    assert code == 2
    assert "comma-separated integer list" in err


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
