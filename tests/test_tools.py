"""The gain rule, the regression verdicts and the stale-bytecode warning of
tools/pairs.py, on synthetic pairs of benchmark runs and a synthetic
checkout; the output parser that tools/workload_json.py shares with
perfbench's worker, its field-by-field comparison and its refusal of a
missing or empty directory; tools/fresh.py on one fresh process; and the
arguments that tools/pairs.py and tools/fresh.py refuse before any run."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

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


def test_stale_bytecode_names_each_pyc_older_than_its_source(tmp_path):
    stale_bytecode = _load("pairs").stale_bytecode
    cache = tmp_path / "src" / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    for name, age in (("old", 10), ("fresh", -10)):  # pyc seconds behind its source
        source = cache.parent / f"{name}.py"
        source.write_text("x = 1\n")
        pyc = cache / f"{name}.cpython-311.pyc"
        pyc.write_bytes(b"")
        when = source.stat().st_mtime - age
        os.utime(pyc, (when, when))
    (cache / "orphan.cpython-311.pyc").write_bytes(b"")  # no source: not compiled from it
    assert stale_bytecode(tmp_path) == [cache / "old.cpython-311.pyc"]
    assert stale_bytecode(tmp_path / "missing") == []


def test_compare_names_the_fields_that_differ_when_the_shape_changes():
    compare_docs = _load("workload_json").compare_docs
    a = {"lam": [1.0, 2.0], "laurent": {"P": [[1.0, 0.0]]}, "n": 3}
    b = {"lam": [1.0, 2.5], "laurent": {"P": {"u": [1.0]}}, "n": 3}
    assert compare_docs(a, b) == {"lam[]": 0.2, "laurent.P[][]": None, "laurent.P.u[]": None}
    assert compare_docs(a, {**a, "lam": [1.0]}) == {"lam[]": None}
    assert compare_docs(a, a) == {}


def test_compare_refuses_a_missing_or_empty_directory(tmp_path, capsys):
    workload_json = _load("workload_json")
    saved, empty = tmp_path / "saved", tmp_path / "empty"
    saved.mkdir()
    empty.mkdir()
    (saved / "rods-00-zeros.json").write_text(
        json.dumps({"argv": "zeros", "exit": 0, "doc": {"n": 1}}))
    assert workload_json.main(["compare", str(saved), str(saved)]) == 0
    for a, b in ((saved, tmp_path / "missing"), (empty, saved)):
        assert workload_json.main(["compare", str(a), str(b)]) == 2
        assert "no saved documents" in capsys.readouterr().err


def test_fresh_times_a_command_in_a_new_process(capsys):
    # one round of `python -m kslab.cli --help`: one line, its ratio to itself 1
    assert _load("fresh").main(["--runs", "1", "--", "--help"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.endswith("ratio  1.000  --help") and float(line.split()[0]) > 0


def test_pair_tools_refuse_bad_arguments_before_any_run(monkeypatch, capsys):
    # an unknown workload, no pairs and no rounds exit 2 through argparse;
    # they used to end in a JSONDecodeError, an IndexError in quartiles and
    # a StatisticsError.  No process starts
    def no_process(*args, **kwargs):
        raise AssertionError("a process started")

    monkeypatch.setattr(subprocess, "run", no_process)
    pairs, fresh = _load("pairs"), _load("fresh")
    pair_args = ["--parent", str(TOOLS.parent), "--seed", "1"]
    for tool, argv, why in (
            (pairs, pair_args + ["--workload", "all", "--pairs", "1"], "invalid choice: 'all'"),
            (pairs, pair_args + ["--workload", "residual", "--pairs", "0"], "0 is below 1"),
            (fresh, ["--runs", "0", "--", "--help"], "0 is below 1")):
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert exc.value.code == 2 and why in capsys.readouterr().err
