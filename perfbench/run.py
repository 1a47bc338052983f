"""kslab benchmark: time whole `kslab` commands and the layers inside them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {rods-ladder,residual,tables,all}
                             --seed N --seconds S --trace {0,1}

Each pass over a workload's command list runs in its own fresh interpreter
(perfbench/worker.py) with BLAS/OpenMP pinned to one thread; interpreter
start-up plus imports is `setup_s`, the median over the run's starts.  The
worker calls `kslab.cli.main(argv)` in-process and checks every command's
output against an independent reference.  A run makes
ceil(--seconds / PASS_SECONDS[workload]) passes.  With --trace 0 the last
stdout line carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics, measured by wrapping kslab's public
functions (perfbench/spans.py); a traced pass also runs every command
untraced in the same worker, for the tracing overhead.
Full per-command records (time, route, failures) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One pass at the seed commit, in seconds, on the machine of baseline.json.
# A run makes ceil(--seconds / this) passes, each in a fresh worker.  The
# count is fixed because stopping on the clock lets one slow pass end a run
# early, which makes the median bimodal; the workers are fresh because a
# process keeps its speed for its whole life, so passes inside one process
# do not sample the process-to-process part of the noise.
PASS_SECONDS = {"rods-ladder": 17.5, "residual": 10.0, "tables": 3.4}
MIN_SETUPS = 3  # interpreter starts per run; probes make up what passes lack
HARD_CAP_S = 120.0  # start no pass that would end past this
DEADLINE_S = 170.0  # the whole run ends before this, or the worker is killed

PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", **PINNED)


def start_worker(extra, deadline):
    """Start worker.py; returns (process, seconds until it printed "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *extra],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError("worker did not start; is kslab importable from src/?")
    return proc, setup


def finish(proc, deadline):
    """Wait for the worker until the deadline; kill it past that."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def percentile_line(values):
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"median over {n} sample(s); no percentile has 10 samples beyond it"
    p = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"median over {n} samples, p{p} {q:.6g}"


def layer_metric(name, passes):
    """One per-layer metric, as the median over the traced passes."""
    def one(p):
        spans, counters = p["spans"], p["counters"]

        def span(key, field):
            return spans.get(key, {}).get(field, 0)

        if name == "cli.self_s":
            return span("cli.main", "self_s")
        if name == "integrals.cache_hit_ratio":
            calls = span("integrals.load_table", "calls")
            return counters.get("integrals.load_table.hits", 0) / calls if calls else 0.0
        if name == "spectral.riesz_projection.success_ratio":
            calls = span("spectral.riesz_projection", "calls")
            return (calls - span("spectral.riesz_projection", "fails")) / calls if calls else 0.0
        if name == "integrals.table_err_digits":
            return p["table_err_digits"]
        if name == "trace.pass_s":
            return p["wall_s"]
        if name == "trace.overhead_s":
            return p["wall_s"] - p["plain_wall_s"]
        if name not in p["known"]:
            raise BenchError(f"per-layer metric {name}: spans.py has no such span or counter")
        if name in counters:
            return counters[name]
        for field in ("calls", "fails", "self_s"):
            if name.endswith("." + field):
                return span(name[: -len(field) - 1], field)
        return 0  # a known counter that never fired

    return statistics.median(one(p) for p in passes)


def one_pass(extra, setups, deadline):
    """Run one worker to the end; its start-up time goes to setups."""
    proc, setup = start_worker(extra, deadline)
    setups.append(setup)
    return json.loads(finish(proc, deadline).strip().splitlines()[-1])


def run_workload(bench, workload, seed, seconds, trace):
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    n_passes = max(1, math.ceil(seconds / PASS_SECONDS[workload]))
    if trace:  # an even count, so that each order of the paired copies runs equally often
        n_passes += n_passes % 2
    setups, passes = [], []
    try:
        while len(passes) < n_passes:
            # traced passes alternate which copy of a command runs first
            order = ["--traced-first"] if trace and len(passes) % 2 else []
            t_pass = time.monotonic()
            passes.append(one_pass(common + ["--trace", str(trace)] + order, setups, deadline))
            now = time.monotonic()
            if now - t_start + (now - t_pass) > HARD_CAP_S:
                break
        while len(setups) < MIN_SETUPS:
            proc, setup = start_worker(["--probe"], deadline)
            finish(proc, deadline)
            setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    commands = [c for p in passes for c in p["commands"]]
    failed = sum(bool(c["failures"]) for c in commands)
    unlisted = []
    if trace:
        unlisted = sorted({c for p in passes for c in p["counters"]} - set(passes[0]["known"]))
        wanted = bench["per_layer"]
        values = {m["name"]: layer_metric(m["name"], passes) for m in wanted}
    else:
        wanted = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p["wall_s"] for p in passes),
            "pass_cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "zc_digits": min(p["zc_digits"] for p in passes),
            "consistency_digits": min(p["consistency_digits"] for p in passes),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "threads": PINNED, "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "setup_samples_s": setups, "attempted": len(commands), "failed": failed,
        "metrics": metrics, "unlisted_counters": unlisted, "passes": passes,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def print_summary(rec):
    w = rec["workload"]
    passes = rec["passes"]
    print(f"== {w}  seed {rec['seed']}  trace {rec['trace']}  "
          f"threads pinned to 1 (nproc {rec['nproc']})")
    by_argv = {}
    for p in passes:
        for c in p["commands"]:
            by_argv.setdefault((c["argv"], c.get("traced", False)), []).append(c)
    for (argv, traced), runs in by_argv.items():
        fails = sorted({f for c in runs for f in c["failures"]})
        print(f"  {statistics.median(c['wall_s'] for c in runs):9.4f} s  "
              f"{runs[0]['route'] or '-':<28} {argv}{'  [traced]' if traced else ''}")
        for f in fails:
            print(f"      FAILED: {f}")
    counts = {"setup_s": len(rec["setup_samples_s"]), "pass_s": len(passes),
              "pass_cpu_s": len(passes)}
    for name, m in rec["metrics"].items():
        n = counts.get(name, len(passes))
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<7} samples {n}")
    if not rec["trace"]:
        print(f"  pass_s: {percentile_line([p['wall_s'] for p in passes])}")
    print(f"  fail_share {rec['failed']}/{rec['attempted']} = "
          f"{rec['failed'] / rec['attempted']:.3g} ratio")
    if rec["unlisted_counters"]:
        print("  counters spans.py does not list (a new route?): "
              + ", ".join(rec["unlisted_counters"]))
    if rec["trace"]:
        total = statistics.median(p["wall_s"] for p in passes)
        names = {n for p in passes for n in p["spans"]}
        med = {n: {f: statistics.median(p["spans"].get(n, {}).get(f, 0.0) for p in passes)
                   for f in ("self_s", "total_s")} for n in names}
        print("  span time, share of the traced pass (self / inclusive of children):")
        for n in sorted(med, key=lambda n: -med[n]["self_s"])[:6]:
            print(f"    {n:<44} {med[n]['self_s']:9.4f} s {100 * med[n]['self_s'] / total:5.1f} %"
                  f"  / {100 * med[n]['total_s'] / total:5.1f} %")


def main(argv=None):
    names = ("rods-ladder", "residual", "tables")
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kslab" / "cli.py").is_file():
        print(f"no kslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        recs = [run_workload(bench, w, args.seed, args.seconds, args.trace)
                for w in (names if args.workload == "all" else (args.workload,))]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    for rec in recs:
        print_summary(rec)
    if args.workload != "all":
        rec = recs[0]
        print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                          "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
