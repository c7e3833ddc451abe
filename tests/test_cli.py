import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import bellwire as bw
from bellwire import jsonio
from bellwire.cli import main

SC2222 = bw.Scenario(2, 2, 2, 2)


def run_cli(*argv):
    return main(list(argv))


def test_reproduce_thm2_passes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = run_cli("reproduce-thm2", "--epsilon", "0.125", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["ratio"] == pytest.approx(2.0, abs=1e-12)
    assert doc["before_bits"] == pytest.approx(0.25 * math.log2(3), abs=1e-15)


def test_reproduce_thm2_degenerate(tmp_path):
    out = tmp_path / "deg.json"
    code = run_cli("reproduce-thm2", "--epsilon", "0.25", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate"] is True
    assert doc["before_bits"] == 0.0 and doc["after_bits"] == 0.0


def test_reproduce_thm2_rejects_bad_epsilon(capsys):
    assert run_cli("reproduce-thm2", "--epsilon", "0.6") == 2


def test_reproduce_thm5_passes(tmp_path):
    out = tmp_path / "rep5.json"
    code = run_cli("reproduce-thm5", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["ratio"] >= 4.0 - 1e-3
    assert doc["low_product_settings_preserved"] is True


@pytest.mark.parametrize("argv", [["reproduce-thm2", "--epsilon", "0.125"], ["reproduce-thm5"]])
def test_reproduce_stdout_is_the_report_alone(argv, capsys):
    # the summary lines go to stderr, so stdout parses as one JSON
    # document, or as CSV from its header on
    assert run_cli(*argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["passed"] is True
    assert "ratio" in err
    assert run_cli(*argv, "--format", "csv") == 0
    out = capsys.readouterr().out
    assert out.startswith("key,value\n")
    assert dict(csv.reader(out.splitlines()))["passed"] == "true"


def test_campaign_csv_deterministic(tmp_path):
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert run_cli("campaign", "--suite", "losr_closure", "--trials", "10",
                   "--seed", "3", "--out", str(out1)) == 0
    assert run_cli("campaign", "--suite", "losr_closure", "--trials", "10",
                   "--seed", "3", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "trial,label,value_before,value_after,slack,violation,error"
    assert len(lines) == 11


def test_campaign_gw_contractivity(tmp_path):
    out = tmp_path / "gw.csv"
    assert run_cli("campaign", "--suite", "gw_contractivity", "--trials", "25",
                   "--seed", "7", "--out", str(out)) == 0


def test_campaign_minimax_identity(tmp_path):
    out = tmp_path / "mm.csv"
    assert run_cli("campaign", "--suite", "minimax_identity", "--trials", "5",
                   "--seed", "3", "--out", str(out)) == 0


def test_eval_local_check_pr_box(tmp_path):
    out = tmp_path / "pr.json"
    assert run_cli("eval", "local_check", "--in", "pr-box", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["is_local"] is False
    cert = doc["certificate"]
    # re-verify the emitted certificate against all vertices
    coeff = np.asarray(cert["coefficients"])
    V = bw.local_vertex_matrix(SC2222)
    assert np.max(V @ coeff) == pytest.approx(cert["local_bound"], abs=1e-9)
    assert coeff @ bw.pr_box().flat() == pytest.approx(cert["value_on_behavior"],
                                                       abs=1e-9)
    assert cert["value_on_behavior"] > cert["local_bound"] + 1e-9


def test_eval_local_check_agrees_with_library(tmp_path):
    # just past the local visibility 1/2 of the PR box in white noise:
    # the verdict must not depend on the quantifiers' --tol (in bits)
    w = 0.5 + 1e-7
    p = bw.Behavior(SC2222, w * bw.pr_box().p + (1 - w) * bw.white_noise(SC2222).p)
    infile = tmp_path / "p.json"
    infile.write_text(jsonio.behavior_to_json(p))
    out = tmp_path / "lc.json"
    assert run_cli("eval", "local_check", "--in", str(infile), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    want = bw.is_local(p)
    assert want.is_local is False
    assert doc["is_local"] is False
    cert = doc["certificate"]
    assert cert["value_on_behavior"] > cert["local_bound"]


def test_eval_sb_doubling_pair(tmp_path):
    out = tmp_path / "sb.json"
    assert run_cli("eval", "sb", "--in", "doubling-first", "--in2",
                   "doubling-second", "--epsilon", "0.125",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["bits"] == pytest.approx(0.25 * math.log2(3), abs=1e-15)
    assert doc["argmax"] == [0, 0]


def test_eval_apply_feedback_preset(tmp_path):
    out = tmp_path / "pf.json"
    assert run_cli("eval", "apply", "--in", "feedback-wpicc", "--in2",
                   "doubling-first", "--epsilon", "0.125",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    # the first member is x-independent, so the wiring leaves it unchanged
    assert doc["p"] == [0.375, 0.125, 0.125, 0.375, 0.375, 0.125, 0.125, 0.375]


def test_eval_with_behavior_file(tmp_path):
    p = bw.random_ns_behavior(SC2222, 5)
    infile = tmp_path / "p.json"
    infile.write_text(jsonio.behavior_to_json(p))
    out = tmp_path / "ns.json"
    assert run_cli("eval", "ns_check", "--in", str(infile), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True


def test_eval_with_wiring_file(tmp_path):
    w = bw.random_losr_wiring(SC2222, SC2222, 2)
    wfile = tmp_path / "w.json"
    wfile.write_text(jsonio.wiring_to_json(w))
    pfile = tmp_path / "p.json"
    pfile.write_text(jsonio.behavior_to_json(bw.random_ns_behavior(SC2222, 1)))
    out = tmp_path / "out.json"
    assert run_cli("eval", "apply", "--in", str(wfile), "--in2", str(pfile),
                   "--out", str(out)) == 0
    got = jsonio.behavior_from_json(out.read_text())
    want = bw.apply_losr(w, bw.random_ns_behavior(SC2222, 1))
    assert got.allclose(want, atol=1e-15)


def test_eval_snl_emits_certificates(tmp_path):
    out = tmp_path / "snl.json"
    assert run_cli("eval", "snl", "--in", "pr-box", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(math.log2(4 / 3), abs=1e-5)
    assert doc["gap_estimate"] <= 1e-6
    weights = doc["optimizer_local"]["weights"]
    assert all(w > 0 for _, _, w in weights)


def test_eval_sc_emits_maximin_inputs(capsys):
    assert run_cli("eval", "sc", "--in", "pr-box") == 0
    doc = json.loads(capsys.readouterr().out)
    inputs = doc["optimizer_inputs"]
    assert inputs["kind"] == "general"
    text = jsonio.dumps(inputs)
    d = jsonio.input_distribution_from_json(text)
    assert d.kind == "general"
    assert jsonio.input_distribution_to_json(d) == text
    # s_nl reports no input distribution
    assert run_cli("eval", "snl", "--in", "pr-box") == 0
    assert json.loads(capsys.readouterr().out)["optimizer_inputs"] is None


def test_eval_csv_format(tmp_path):
    out = tmp_path / "res.csv"
    assert run_cli("eval", "sb", "--in", "doubling-first", "--in2",
                   "doubling-second", "--epsilon", "0.2", "--format", "csv",
                   "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "key,value"


@pytest.mark.parametrize("argv", [
    ["eval", "local_check", "--in", "pr-box"],
    ["eval", "local_check", "--in", "white-noise"],
    ["eval", "ns_check", "--in", "pr-box"],
    ["eval", "sb", "--in", "doubling-first", "--in2", "doubling-second"],
    ["eval", "su", "--in", "pr-box"],
    ["eval", "apply", "--in", "feedback-wpicc", "--in2", "doubling-second"],
    ["reproduce-thm2", "--epsilon", "0.25"],
])
def test_csv_cells_are_the_json_values(argv, tmp_path):
    # booleans, NaN (null), None, nested certificates and 17-digit doubles
    # all read back from a cell as the JSON report has them
    for fmt in ("json", "csv"):
        assert run_cli(*argv, "--format", fmt, "--out", str(tmp_path / fmt)) == 0
    doc = json.loads((tmp_path / "json").read_text())
    rows = list(csv.reader((tmp_path / "csv").read_text().splitlines()))
    assert rows[0] == ["key", "value"]
    assert [key for key, _ in rows[1:]] == list(doc)
    for key, cell in rows[1:]:
        assert json.loads(cell) == doc[key]
    if "certificate" in doc:
        cert = jsonio.certificate_from_json(dict(rows[1:])["certificate"])
        assert cert.local_bound == doc["certificate"]["local_bound"]


def test_missing_file_is_reported(capsys):
    assert run_cli("eval", "ns_check", "--in", "/nonexistent/file.json") == 2


@pytest.mark.parametrize("argv", [
    ["eval", "sb", "--in", "pr-box"],
    ["eval", "apply", "--in", "feedback-wpicc"],
    ["eval", "ns_check", "--in", "{dir}"],
    ["eval", "apply", "--in", "{dir}", "--in2", "pr-box"],
    ["eval", "sb", "--in", "pr-box", "--in2", "{dir}"],
])
def test_unreadable_or_missing_input_exits_2(argv, tmp_path, capsys):
    # a missing --in2, or a directory where a file belongs, is a usage
    # error with one line on stderr, not a traceback
    assert run_cli(*(a.format(dir=tmp_path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--tol", "-1", "eval", "snl", "--in", "pr-box"],
    ["--tol", "nan", "eval", "su", "--in", "pr-box"],
    ["eval", "suc", "--in", "pr-box", "--seed", "-1"],
    ["campaign", "--suite", "losr_closure", "--trials", "-3"],
    ["campaign", "--suite", "losr_closure", "--trials", "2", "--seed", "-1"],
])
def test_a_bad_tol_or_seed_exits_2(argv, capsys):
    # refused before any output: a campaign of -3 trials reports nothing
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _malformed_input(case: str) -> tuple[str, str]:
    """An eval target and a damaged input file's text."""
    doc = json.loads(jsonio.wiring_to_json(bw.random_global_wiring(SC2222, SC2222, 3)))
    if case == "array_one_short":
        return "apply", json.dumps(dict(doc, i_box=doc["i_box"][:-1]))
    if case == "missing_o_box":
        return "apply", json.dumps({k: v for k, v in doc.items() if k != "o_box"})
    if case == "scenario_size_not_a_number":
        return "apply", json.dumps(dict(doc, initial=dict(doc["initial"], sA="x")))
    if case == "not_json":
        text = jsonio.wiring_to_json(bw.random_wpicc_wiring(SC2222, SC2222, 3))
        return "apply", text[: len(text) // 2]
    behavior = {"sA": 2, "sB": 2, "rA": 2, "rB": 2}
    if case == "behavior_p_string":
        return "snl", json.dumps(dict(behavior, p="0.25"))
    if case == "behavior_p_object":
        return "snl", json.dumps(dict(behavior, p={"x": 0.25}))
    return "snl", json.dumps(behavior)  # no "p"


@pytest.mark.parametrize(
    "case", ["array_one_short", "missing_o_box", "scenario_size_not_a_number",
             "not_json", "behavior_without_p", "behavior_p_string",
             "behavior_p_object"])
def test_malformed_json_exits_2(case, tmp_path, capsys):
    what, text = _malformed_input(case)
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = ["eval", what, "--in", str(path)]
    if what == "apply":
        argv += ["--in2", "pr-box"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellwire.cli", "reproduce-thm2",
         "--epsilon", "0.2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ratio" in proc.stdout


_WITHOUT_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())

import bellwire as bw
from bellwire import monotones
from bellwire.cli import main

polishes = []
barrier = monotones._barrier_epigraph
monotones._barrier_epigraph = lambda *a: polishes.append(1) or barrier(*a)

p = bw.pr_box()
for quantifier in (bw.s_u, bw.s_nl, bw.s_c):
    assert quantifier(p, 1e-6).gap_estimate <= 1e-6
assert bw.s_uc(p, 1e-6, restarts=2, seed=0).lower_bound
assert not bw.is_local(p).is_local
# a PR box mixed with a deterministic box reaches the epigraph polish
sc = p.scenario
mixed = bw.Behavior(sc, 0.8 * p.p + 0.2 * bw.local_vertex_matrix(sc)[5].reshape(sc.shape))
assert bw.s_nl(mixed, 1e-6).gap_estimate <= 1e-6 and polishes
code = main(["eval", "snl", "--in", "pr-box"])
assert "scipy" not in sys.modules
sys.exit(code)
"""


def test_library_runs_without_scipy():
    # SciPy is a test-only dependency: every quantifier, the membership
    # test and the CLI must run with its import blocked
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "value" in proc.stdout
