"""The gain rule and the regression verdicts of tools/pairs.py, on synthetic
pairs of benchmark runs, and the output parser that tools/workload_json.py
shares with perfbench's worker."""

import importlib.util
from pathlib import Path

from kslab.cli import main

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change, name="pass_s"):
    def rec(v):
        return {"metrics": {name: {"value": v, "unit": "s"}}}

    return {"parent": [rec(v) for v in parent], "change": [rec(v) for v in change]}


def test_gain_rule_needs_nine_tenths_wins_and_a_gap_past_the_parent_iqr():
    summarize = _load("pairs").summarize
    lower = [{"name": "pass_s", "unit": "s", "better": "lower"}]
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    faster = [v - 0.5 for v in parent]
    (line,) = summarize(lower, _runs(parent, faster))
    assert "wins 10/10" in line and line.endswith("holds")
    # 8 of 10 wins: the rule fails however large the gap
    (line,) = summarize(lower, _runs(parent, faster[:8] + [2.0, 2.0]))
    assert "wins 8/10" in line and line.endswith("does not hold")
    # every pair won, but the medians differ by less than the parent's IQR
    (line,) = summarize(lower, _runs(parent, [v - 0.01 for v in parent]))
    assert "wins 10/10" in line and line.endswith("does not hold")
    # ties count for neither side
    (line,) = summarize(lower, _runs(parent, parent))
    assert "wins 0/10" in line
    # a metric where higher is better wins the other way round
    higher = [{"name": "zc_digits", "unit": "digits", "better": "higher"}]
    (line,) = summarize(higher, _runs(parent, [v + 0.5 for v in parent], "zc_digits"))
    assert "wins 10/10" in line and line.endswith("holds")


def test_regression_verdicts_against_the_bound():
    # bound 0.25, relative to the parent's median of 1.045 (IQR 0.045)
    summarize = _load("pairs").summarize
    lower = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25}]
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    (line,) = summarize(lower, _runs(parent, [v + 0.2 for v in parent]))  # 19 % worse
    assert "regression within bound" in line
    (line,) = summarize(lower, _runs(parent, [v + 0.3 for v in parent]))  # 29 % worse
    assert "regression worse than bound" in line
    # a parent spread wider than the bound resolves nothing, unless every
    # change run beats every parent run
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.1, 1.3, 1.4, 1.5, 1.6]
    (line,) = summarize(lower, _runs(wide, [v - 0.01 for v in wide]))
    assert "regression unresolved" in line and line.endswith("does not hold")
    (line,) = summarize(lower, _runs(wide, [v * 0.1 for v in wide]))
    assert "regression within bound" in line
    # higher is better: a fall of more than the bound is the regression
    higher = [{"name": "zc_digits", "unit": "digits", "better": "higher", "bound": 0.05}]
    (line,) = summarize(higher, _runs([12.0] * 10, [11.0] * 10, "zc_digits"))
    assert "regression worse than bound" in line


def test_document_is_read_past_the_summary_line(capsys):
    # the document starts at the first line that begins with "{"
    document = _load("workload_json")._document
    for argv, summary in ((["zeros", "--L", "5", "--M", "6"], True),
                          (["table", "--L", "5", "--M", "6"], False)):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("{") != summary
        doc = document(out)
        assert doc["meta"]["command"] == argv[0] and argv[0] in doc
