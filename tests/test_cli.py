"""Command-line interface: outputs, determinism, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import kslab
from kslab import cli
from kslab.cli import main
from kslab.integrals import Box, build_table
from kslab.ksop import build_ks_matrix
from kslab.partition import assemble
from kslab.potentials import PairPotential
from kslab.spectral import leading_projection, spectrum

from conftest import dense_laurent


def run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_zeros_json_free_gas_linear(tmp_path):
    # Xi = 1 + z has its one zero at -1
    rc, out = run(tmp_path, "z.json",
                  ["zeros", "--potential", "ideal", "--L", "1", "--M", "1"])
    assert rc == 0
    doc = read_json(out)
    assert doc["meta"]["command"] == "zeros"
    assert doc["meta"]["seed"] == 42
    sm = doc["zeros"]["smallest"]
    assert sm["re"] == pytest.approx(-1.0, rel=1e-12)
    assert sm["im"] == 0.0
    rows = doc["zeros"]["zeros"]
    assert len(rows) == 1 and rows[0]["is_smallest"] == 1


def test_zeros_hard_rods_all_real_negative(tmp_path):
    rc, out = run(tmp_path, "z.csv",
                  ["zeros", "--L", "5", "--M", "6", "--format", "csv"])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 5
    assert all(float(r["im"]) == 0.0 for r in rows)
    assert all(float(r["re"]) < 0.0 for r in rows)
    marked = [r for r in rows if r["is_smallest"] == "1"]
    assert len(marked) == 1
    assert float(marked[0]["re"]) == pytest.approx(-0.416716009044, rel=1e-9)


def test_table_csv_free_gas(tmp_path):
    # unit box: Z_m = 1 for every m
    rc, out = run(tmp_path, "t.csv",
                  ["table", "--potential", "ideal", "--L", "1", "--M", "4",
                   "--format", "csv"])
    assert rc == 0
    rows = read_csv(out)
    assert [int(r["m"]) for r in rows] == [0, 1, 2, 3, 4]
    assert all(float(r["value"]) == 1.0 for r in rows)
    assert all(r["method"] == "exact" for r in rows)


def test_wide_free_gas_box_exits_0(tmp_path):
    # Z_52 = V^52 = 1e312 is past the float range; the table keeps it in
    # log form, so both commands finish and w = z_c V is a zero of
    # sum_m w^m / m!, whatever the box
    L, M = 1e6, 52
    argv = ["--potential", "ideal", "--L", str(L), "--M", str(M)]
    rc, out = run(tmp_path, "z.json", ["zeros"] + argv)
    assert rc == 0
    sm = read_json(out)["zeros"]["smallest"]
    # smallest-modulus pair of mp.polyroots on that polynomial at 80 digits
    with mp.workdps(40):
        ref = mp.mpc("-15.446431970948245948363951763112", "0.71168587927276825616197603053615")
        terms = [ref**m / mp.factorial(m) for m in range(M + 1)]
        assert abs(mp.fsum(terms)) <= mp.mpf("1e-30") * mp.fsum(abs(t) for t in terms)
    w = complex(sm["re"], sm["im"]) * L
    rel = min(abs(w - complex(r)) for r in (ref, mp.conj(ref))) / abs(complex(ref))
    # each coefficient carries the rounding of its log, M log V units of
    # eps at most, which the reported root conditioning amplifies
    assert rel <= sm["root_conditioning"] * M * math.log(L) * np.finfo(float).eps

    rc, out = run(tmp_path, "s.json", ["spectral"] + argv)
    assert rc == 0
    assert all(math.isfinite(v) for v in read_json(out)["leading"]["lambda_c"])


def test_wide_free_gas_box_zeros_route_on_conditioning(tmp_path):
    # root conditioning 3.9e11 leaves float64 coefficients only ~1e-4 on z_c;
    # the exact coefficients exist, so zeros takes the mpmath route
    L, M = 1e6, 52
    rc, out = run(tmp_path, "z.json",
                  ["zeros", "--potential", "ideal", "--L", str(L), "--M", str(M)])
    assert rc == 0
    doc = read_json(out)["zeros"]
    assert doc["method"] == "mpmath-exact"
    sm = doc["smallest"]
    ref = complex(mp.mpc("-15.446431970948245948363951763112",
                         "0.71168587927276825616197603053615"))
    w = complex(sm["re"], sm["im"]) * L
    assert min(abs(w - ref), abs(w - ref.conjugate())) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("command", ["spectral"])
def test_box_past_float_range_exits_4(command, capsys):
    # at L = 200 the scaled coefficients c_m s^m overflow float64, and the
    # spectrum's float64 companion needs them
    assert main([command, "--potential", "hardcore", "--L", "200", "--M", "201"]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: scaled coefficients" in err
    assert "Traceback" not in err


def test_zeros_past_float_range_certifies(tmp_path):
    # at L = 200 scaled_coeffs() leaves the float64 range: zeros skips the
    # float stage, and its precision ladder starts from the Newton polygon;
    # z_c agrees to 4e-17 with Newton on the exact coefficients at 500 digits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run(tmp_path, "z.json", ["zeros", "--L", "200", "--M", "201"])
    assert rc == 0
    doc = read_json(out)["zeros"]
    assert doc["method"] == "mpmath-exact"
    sm = doc["smallest"]
    assert abs(complex(sm["re"], sm["im"]) + 0.36792423067004974) <= 1e-12
    assert len(doc["zeros"]) == 200
    assert all(math.isfinite(r[k]) for r in doc["zeros"] for k in ("re", "im", "residual"))


def test_wide_spectral_box_warns_nothing(tmp_path):
    # at L = 80 the float64 eigenvector pair overflows and scipy's balancer
    # casts an invalid value; neither may reach stderr as a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run(tmp_path, "s.json", ["spectral", "--L", "80", "--M", "81"])
    assert rc == 0
    assert read_json(out)["projection"]["precision"] == "mp40"


def test_exit_codes_over_a_grid(tmp_path, capsys):
    # every run ends in a documented exit code, never a traceback, and each
    # failure says why in one line on stderr; hard rods at L = 200 leave the
    # float64 range (spectral exits 4), and L = 40, M = 82 runs past close
    # packing
    boxes = [["--L", str(L), "--M", str(M)]
             for L in (5, 40, 200) for M in (L + 1, 2 * L + 2)]
    boxes += [["--potential", "ideal", "--L", "40", "--M", "41"]]
    boxes += [["--potential", "step", "--a", "1", "--epsilon", "1", "--L", "5", "--M", str(M)]
              for M in (6, 12)]
    runs = [[command, *box] for box in boxes for command in ("zeros", "spectral")]
    empty = tmp_path / "empty"
    empty.mkdir()
    expected = {("zeros", "--L", "5", "--M", "6", "--cache-dir", str(empty)): 3,
                ("zeros", "--L", "x", "--M", "6"): 2,
                ("residual", "--L", "3,3", "--M", "4", "--z", "0.1", "--n-max", "1"): 2,
                ("spectral", "--L", "5", "--M", "0"): 2}
    # potential parameters that are not numbers, and a beta that is not finite
    step = ("--potential", "step", "--a", "1", "--epsilon", "1", "--L", "4", "--M", "5")
    nan_file = tmp_path / "nan-epsilon.json"
    nan_file.write_text('{"family": "step", "a": 1, "epsilon": NaN}')
    expected.update({("zeros", *step, "--beta", "inf"): 2,
                     ("zeros", *step, "--beta", "nan"): 2,
                     ("zeros", "--potential", "hardcore", "--a", "nan", "--L", "4",
                      "--M", "5"): 2,
                     ("zeros", *step, "--epsilon", "nan"): 2,
                     ("zeros", "--potential-file", str(nan_file), "--L", "4", "--M", "5"): 2,
                     ("table", "--beta", "nan", "--L", "4", "--M", "5", "--cache-dir",
                      str(tmp_path / "nan-cache")): 2})
    runs += [list(argv) for argv in expected]
    for i, argv in enumerate(runs):
        rc = main(argv + ["--out", str(tmp_path / f"{i}.json")])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3, 4), argv
        assert rc == expected.get(tuple(argv), rc), argv
        if rc:
            assert len(err.splitlines()) == 1 and err.strip(), (argv, err)


def test_spectral_deterministic_up_to_timestamp(tmp_path):
    argv = ["spectral", "--L", "5", "--M", "6"]
    _, out1 = run(tmp_path, "s1.json", argv)
    _, out2 = run(tmp_path, "s2.json", argv)
    d1, d2 = read_json(out1), read_json(out2)
    d1["meta"].pop("created")
    d2["meta"].pop("created")
    assert d1 == d2
    assert d1["projection"]["rank"] == 1
    assert d1["projection"]["pole_order"] == 1


@pytest.mark.parametrize("L, precision", [(5, "float64"), (40, "mp40")])
def test_spectral_generators_rebuild_the_dense_laurent_data(tmp_path, L, precision):
    # the dense P and S built from the emitted complex128 generators are those
    # of leading_projection's generators, bit for bit
    _, out = run(tmp_path, "s.json", ["spectral", "--L", str(L), "--M", str(L + 1)])
    doc = read_json(out)
    assert doc["projection"]["precision"] == precision
    P, S = dense_laurent({m: {k: np.array(v).view(complex)[:, 0] for k, v in gens.items()}
                          for m, gens in doc["laurent"].items()})
    table = build_table(PairPotential.hardcore(1.0), Box((float(L),)), L + 1, order=16, seed=42)
    ks = build_ks_matrix(assemble(table))
    rp = leading_projection(ks, spectrum(ks))
    assert rp.precision == precision
    rP, rS = dense_laurent(rp.generators)
    assert P.tobytes() == rP.tobytes() and S.tobytes() == rS.tobytes()


def test_wide_spectral_writes_generators_only(tmp_path):
    # dense P and S at M = 161 took 1.56 MB of JSON
    rc, out = run(tmp_path, "s.json", ["spectral", "--L", "160", "--M", "161"])
    assert rc == 0 and out.stat().st_size < 100_000


def test_spectral_takes_no_svd(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for L in (5, 40):  # the float64 and the mp40 rung
        rc, out = run(tmp_path, f"s{L}.json", ["spectral", "--L", str(L), "--M", str(L + 1)])
        projection = read_json(out)["projection"]
        assert rc == 0 and (projection["rank"], projection["second_singular_ratio"]) == (1, 0.0)


def test_json_holds_one_top_level_key_per_line(tmp_path, monkeypatch):
    argv = ["zeros", "--L", "5", "--M", "6"]
    _, out1 = run(tmp_path, "z1.json", argv)
    _, out2 = run(tmp_path, "z2.json", argv)
    lines1, lines2 = out1.read_text().splitlines(), out2.read_text().splitlines()
    assert len(lines1) == len(lines2)
    differ = [a for a, b in zip(lines1, lines2) if a != b]
    assert len(differ) == 1 and differ[0].startswith('"meta"')
    assert lines1[0] == "{" and lines1[-1] == "}"
    keys = [next(iter(json.loads("{" + line.rstrip(",") + "}")))
            for line in lines1[1:-1]]
    assert keys == sorted(read_json(out1))
    # the same document the indent=1 layout wrote
    emitted, real_emit = [], cli._emit

    def spy(args, command, payload, *rest):
        emitted.append({"meta": {"command": command}, **payload})
        real_emit(args, command, payload, *rest)

    monkeypatch.setattr(cli, "_meta", lambda args, command: {"command": command})
    monkeypatch.setattr(cli, "_emit", spy)
    _, out = run(tmp_path, "z3.json", argv)
    (doc,) = emitted
    assert read_json(out) == json.loads(json.dumps(doc, indent=1, sort_keys=True))


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    argv = ["zeros", "--potential", "ideal", "--L", "1", "--M", "2"]
    assert run(tmp_path, "seeded.json", argv + ["--seed", "1"])[0] == 0
    rc, out = run(tmp_path, "default.json", argv)
    assert rc == 0 and read_json(out)["meta"]["seed"] == 42
    assert read_json(tmp_path / "seeded.json")["meta"]["seed"] == 1
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--L", "5", "--M", "x"])
    assert exc.value.code == 2
    assert run(tmp_path, "after.json", argv)[0] == 0


def test_table_cache_then_zeros(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    rc, _ = run(tmp_path, "t.json",
                ["table", "--L", "5", "--M", "6", "--cache-dir", str(cache)])
    assert rc == 0
    rc, out = run(tmp_path, "z.json",
                  ["zeros", "--L", "5", "--M", "6", "--cache-dir", str(cache)])
    assert rc == 0
    assert read_json(out)["zeros"]["M"] == 6


def test_cached_table_of_other_build_settings_is_refused(tmp_path, capsys):
    # an order-8 cache does not stand in for an order-24 run: the run exits 3
    # naming both settings, where it used to print the order-8 zeros
    step = ["--potential", "step", "--a", "1", "--epsilon", "1", "--L", "4", "--M", "5",
            "--cache-dir", str(tmp_path)]
    assert main(["table", *step, "--order", "8", "--out", str(tmp_path / "t.json")]) == 0
    assert main(["zeros", *step, "--order", "24", "--out", str(tmp_path / "z.json")]) == 3
    err = capsys.readouterr().err
    assert "'order': 8" in err and "order 24" in err
    assert main(["zeros", *step, "--order", "8", "--seed", "7",
                 "--out", str(tmp_path / "z.json")]) == 3
    assert main(["zeros", *step, "--order", "8", "--out", str(tmp_path / "z.json")]) == 0


def test_missing_cache_is_prerequisite_failure(tmp_path, capsys):
    cache = tmp_path / "empty"
    cache.mkdir()
    rc = main(["zeros", "--L", "5", "--M", "6", "--cache-dir", str(cache)])
    assert rc == 3
    assert "missing prerequisite" in capsys.readouterr().err


def test_config_errors_exit_2(capsys):
    assert main(["zeros", "--M", "4"]) == 2  # no --L
    assert main(["zeros", "--L", "5", "--a", "-1.0"]) == 2
    assert main(["residual", "--L", "5", "--M", "6", "--z", "0.9"]) == 2
    assert main(["residual", "--L", "5", "--M", "6", "--z", "nope"]) == 2
    assert main(["asymptotics", "--L", "1", "--potential", "ideal",
                 "--anchors", "a,b"]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 5
    # quadrature orders and probe counts the residual check cannot use
    assert main(["residual", "--L", "3", "--M", "4", "--z", "0.2", "--n-max", "1",
                 "--order", "-3"]) == 2
    assert main(["residual", "--L", "3", "--M", "4", "--z", "0.2", "--n-max", "1",
                 "--probes", "0"]) == 2
    assert capsys.readouterr().err.count("configuration error") == 2
    # a negative seed is refused before any command runs
    for cmd in ("table", "zeros"):
        assert main([cmd, "--potential", "hardcore", "--a", "0.7", "--L", "3,3",
                     "--M", "4", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.count("configuration error") == 2
    # a non-finite activity, a level that no probe reaches and a 2-D box
    assert main(["residual", "--L", "5", "--M", "6", "--z", "nan", "--n-max", "1"]) == 2
    assert main(["residual", "--L", "5", "--M", "6", "--z", "0.2", "--n-max", "5",
                 "--probes", "2"]) == 2
    assert main(["residual", "--potential", "hardcore", "--L", "2,2", "--M", "3",
                 "--z", "0.1", "--n-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 3
    assert "not finite" in err and "level 5" in err and "one-dimensional" in err
    # counts below their least value, a box that is not finite and anchors
    # that are not numbers
    assert main(["zeros", "--L", "5", "--M", "-1"]) == 2
    assert main(["table", "--L", "5", "--M", "-1"]) == 2
    assert main(["cluster", "--L", "5", "--terms", "-2"]) == 2
    assert main(["table", "--potential", "step", "--a", "1", "--epsilon", "1", "--L", "5",
                 "--M", "3", "--order", "0"]) == 2
    assert main(["zeros", "--L", "inf", "--M", "4"]) == 2
    assert main(["zeros", "--L", "nan", "--M", "4"]) == 2
    assert main(["asymptotics", "--L", "5", "--M", "6", "--anchors", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("configuration error") == 7
    assert captured.out == ""


def test_degenerate_polynomial_exits_4(capsys):
    assert main(["zeros", "--potential", "ideal", "--L", "1", "--M", "0"]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_unconverged_projection_exits_4(capsys, monkeypatch):
    # with the closed form out of the way nothing certifies at L = 20; the
    # failure reaches the shell as one message, not a traceback
    from kslab import spectral

    monkeypatch.setattr(spectral, "_closed_form", lambda *args: None)
    assert main(["spectral", "--L", "20", "--M", "21"]) == 4
    err = capsys.readouterr().err
    assert "numerical failure: leading projection did not certify" in err
    assert "float64: the pairing nu^T v vanishes" in err
    assert "Traceback" not in err


def _count_build_table(monkeypatch):
    import kslab.cluster
    import kslab.integrals

    calls = []
    real = kslab.integrals.build_table

    def counting(*args, **kwargs):
        calls.append(args[1].extents)
        return real(*args, **kwargs)

    for mod in (kslab.cli, kslab.cluster):
        monkeypatch.setattr(mod, "build_table", counting)
    return calls


def test_extrapolated_virial_builds_each_table_once(tmp_path, monkeypatch):
    calls = _count_build_table(monkeypatch)
    rc, _ = run(tmp_path, "v.json",
                ["virial", "--L", "20", "--terms", "12", "--extrapolate"])
    assert rc == 0
    assert sorted(calls) == [(20.0,), (40.0,), (80.0,)]


def test_claimcheck_builds_its_table_once(tmp_path, monkeypatch):
    calls = _count_build_table(monkeypatch)
    rc, _ = run(tmp_path, "cc.json",
                ["claimcheck", "--L", "5", "--M", "6", "--terms", "14"])
    assert rc == 0
    assert calls == [(5.0,)]


def test_residual_csv_levels(tmp_path):
    rc, out = run(tmp_path, "r.csv",
                  ["residual", "--potential", "ideal", "--L", "1", "--M", "4",
                   "--n-max", "2", "--z", "0.1", "--format", "csv"])
    assert rc == 0
    rows = read_csv(out)
    assert [int(r["n"]) for r in rows] == [1, 2]
    assert set(rows[0]) == {"n", "sup_residual", "error_bound",
                            "truncation_gap", "n_probes"}
    assert all(float(r["sup_residual"]) <= 1e-12 for r in rows)


def test_residual_summary_and_json_carry_the_coefficient_check(tmp_path, capsys):
    rc, out = run(tmp_path, "r.json", ["residual", "--L", "5", "--M", "6", "--z", "0.2",
                                       "--n-max", "2", "--order", "16", "--probes", "8"])
    assert rc == 0
    levels = read_json(out)["residual"]["levels"]
    worst = max(levels, key=lambda lv: lv["coefficient_residual"])
    assert all(lv["coefficient_residual"] <= lv["coefficient_bound"] for lv in levels)
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.endswith(f"coefficient residual {worst['coefficient_residual']:.3e} "
                            f"within {worst['coefficient_bound']:.3e}")


def test_claimcheck_free_gas_consistent(tmp_path):
    rc, out = run(tmp_path, "cc.json",
                  ["claimcheck", "--potential", "ideal", "--L", "1", "--M", "6",
                   "--terms", "8"])
    assert rc == 0
    rows = read_json(out)["rows"]
    by_q = {r["quantity"]: r for r in rows}
    assert set(by_q) == {"activity series radius vs inverse kernel norm",
                         "smallest zero modulus recedes with truncation"}
    radius = by_q["activity series radius vs inverse kernel norm"]
    assert radius["claimed"] == radius["measured"] == float("inf")
    assert all(r["verdict"] == "consistent" for r in rows)


def test_claimcheck_hard_rods_rows(tmp_path):
    rc, out = run(tmp_path, "cc.json",
                  ["claimcheck", "--L", "5", "--M", "6", "--terms", "14"])
    assert rc == 0
    doc = read_json(out)
    by_q = {r["quantity"]: r for r in doc["rows"]}
    assert len(by_q) == 6
    # the operator norm bounds nothing about the true leading eigenvalue here
    assert by_q["spectral radius vs 1/xi"]["verdict"] == "inconsistent"
    assert by_q["density series sign pattern"]["verdict"] == "consistent"
    assert by_q["virial radius vs half inverse kernel norm"]["relation"] == "at_least"
    assert "policy" in doc


def test_claimcheck_main_consequence_rows(tmp_path):
    # for a positive potential the spectral radius is 1/|z_c| and the
    # activity series radius is |z_c|; at L = 5 the 14-term Domb-Sykes
    # estimate sits 2.3 % below |z_c|, inside 3 uncertainties
    rc, out = run(tmp_path, "cc.json",
                  ["claimcheck", "--L", "5", "--M", "6", "--terms", "14"])
    assert rc == 0
    by_q = {r["quantity"]: r for r in read_json(out)["rows"]}
    spec = by_q["spectral radius vs 1/|z_c|"]
    assert spec["relation"] == "equals"
    assert spec["claimed"] == pytest.approx(2.3997158, rel=1e-7)
    assert spec["measured"] == pytest.approx(spec["claimed"], rel=1e-15)
    assert spec["verdict"] == "consistent"
    series = by_q["activity series radius vs |z_c|"]
    assert series["claimed"] == pytest.approx(0.41671601, rel=1e-7)
    assert series["measured"] == pytest.approx(0.4074, rel=1e-3)
    assert series["verdict"] == "inconclusive"


def test_cluster_extrapolated_source(tmp_path, capsys):
    rc, out = run(tmp_path, "cl.json",
                  ["cluster", "--L", "8", "--terms", "6", "--extrapolate"])
    assert rc == 0
    doc = read_json(out)
    assert doc["source"]["lengths"] == [8.0, 16.0, 32.0]
    assert doc["source"]["kept_orders"] == 6
    # 6 coefficients are too few for a radius fit; the payload says so
    assert doc["radius"] is None
    assert "radius not estimated" in capsys.readouterr().out


def test_virial_hard_rods_bound_row(tmp_path):
    rc, out = run(tmp_path, "v.json",
                  ["virial", "--L", "8", "--M", "9", "--terms", "10"])
    assert rc == 0
    doc = read_json(out)
    assert doc["bound"]["quantity"] == "virial radius vs half inverse kernel norm"
    assert doc["bound"]["relation"] == "at_least"
    assert doc["bound"]["claimed"] == pytest.approx(0.25, rel=1e-12)
    coeffs = {r["n"]: r["coefficient"] for r in doc["virial_series"]}
    assert coeffs[1] == pytest.approx(1.0, rel=1e-10)


def test_potential_file_overrides_flags(tmp_path):
    cfg = tmp_path / "pot.json"
    cfg.write_text(json.dumps(
        {"family": "step", "a": 0.5, "epsilon": 1.0, "beta": 1.0}))
    rc, out = run(tmp_path, "t.csv",
                  ["table", "--potential-file", str(cfg), "--L", "3", "--M", "3",
                   "--format", "csv"])
    assert rc == 0
    assert len(read_csv(out)) == 4

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["table", "--potential-file", str(bad), "--L", "3"]) == 2
    assert main(["table", "--potential-file", str(tmp_path / "absent.json"),
                 "--L", "3"]) == 2


def test_asymptotics_free_gas_agreement(tmp_path, capsys):
    rc, out = run(tmp_path, "a.json",
                  ["asymptotics", "--potential", "ideal", "--L", "1", "--M", "4",
                   "--anchors", "0.5"])
    assert rc == 0
    doc = read_json(out)
    assert doc["asymptotics"]["agreement"] <= 1e-9
    assert "agreement" in capsys.readouterr().out


def _child_env():
    # a relative import path (PYTHONPATH=src) would not survive cwd=tmp_path,
    # so the child gets the absolute directory this process imported kslab from
    env = dict(os.environ)
    src = str(Path(kslab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kslab.cli", "zeros", "--potential", "ideal",
         "--L", "1", "--M", "2"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env())
    assert proc.returncode == 0
    assert "smallest zero" in proc.stdout


def test_cli_import_skips_scipy_stats_and_integrate(tmp_path):
    # scipy.stats and scipy.integrate cost over a second of start-up and
    # scipy.linalg a fifth of one: kslab finds the Sobol table file through
    # scipy's import spec, balances and integrates itself, and loads no scipy
    # module, neither on import nor in the spectral, claimcheck and
    # custom-potential virial commands
    (tmp_path / "pot.json").write_text(json.dumps(
        {"family": "custom", "r_values": [0.2, 0.5, 1.0], "phi_values": [5.0, 2.0, 0.0]}))
    code = ("import sys, kslab.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "for argv in (['spectral', '--L', '5', '--M', '6'],\n"
            "             ['claimcheck', '--L', '5', '--M', '6', '--terms', '14'],\n"
            "             ['virial', '--potential-file', 'pot.json', '--L', '3', '--M', '4',\n"
            "              '--terms', '4']):\n"
            "    assert kslab.cli.main(argv + ['--out', 'out.json']) == 0, argv\n"
            "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=str(tmp_path), env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[0] == "[]"
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_residual_order_above_the_cap_exits_2(capsys):
    # a million Gauss nodes per panel would ask leggauss for terabytes;
    # the check refuses the order by name instead of raising MemoryError
    assert main(["residual", "--L", "5", "--M", "6", "--z", "0.2", "--n-max", "1",
                 "--order", "1000000"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "order 1000000" in err and "cap of 1024" in err


@pytest.mark.parametrize("argv", [
    ["zeros", "--L", "5", "--M", "6"],
    ["residual", "--L", "5", "--M", "6", "--z", "0.2", "--n-max", "1", "--order", "8",
     "--probes", "2"],
])
def test_closed_pipe_ends_quietly(tmp_path, argv):
    # `kslab ... | head -1`: the reader is gone before the first line is
    # written; the command ends with status 0 and nothing on stderr, not a
    # BrokenPipeError traceback or an "Exception ignored" line at shutdown
    proc = subprocess.Popen([sys.executable, "-m", "kslab.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=str(tmp_path), env=_child_env())
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == ""


def test_broken_out_stream_is_not_a_quiet_exit(tmp_path, monkeypatch):
    # only stdout's reader leaving early ends quietly: a write to --out that
    # fails with a broken pipe (a FIFO whose reader quit) must not exit 0
    out = tmp_path / "zeros.json"

    class Gone:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    real_open = open
    monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs: Gone() if str(path) == str(out)
                        else real_open(path, *args, **kwargs), raising=False)
    try:
        rc = main(["zeros", "--L", "5", "--M", "6", "--out", str(out)])
    except BrokenPipeError:
        rc = None
    assert rc != 0


def test_extrapolate_honours_order_and_seed(tmp_path, monkeypatch):
    import kslab.cluster

    settings = []
    real = kslab.cluster.build_table

    def recording(*args, **kwargs):
        settings.append((kwargs.get("order"), kwargs.get("seed")))
        return real(*args, **kwargs)

    monkeypatch.setattr(kslab.cluster, "build_table", recording)
    argv = ["cluster", "--potential", "step", "--a", "1", "--epsilon", "1", "--L", "4",
            "--terms", "5", "--extrapolate", "--seed", "3"]
    series = {}
    for order in (8, 24):
        rc, out = run(tmp_path, f"c{order}.json", argv + ["--order", str(order)])
        assert rc == 0
        series[order] = read_json(out)["density_series"]
    assert settings == [(8, 3)] * 3 + [(24, 3)] * 3
    assert series[8] != series[24]  # the step tables come from quadrature at that order


@pytest.mark.parametrize("argv", [["zeros", "--xi", "1.0"], ["residual", "--xi", "1.0"],
                                  ["virial", "--radius-method", "ratio"],
                                  ["cluster", "--radius-method", "ratio"],
                                  ["claimcheck", "--radius-method", "root"],
                                  ["claimcheck", "--xi", "1.0"],
                                  ["spectral", "--power-terms", "5"],
                                  ["residual", "--strategy", "sampling"],
                                  ["residual", "--constant-term", "unit"]])
def test_options_are_offered_only_where_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--L", "5", "--M", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
