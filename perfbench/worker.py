"""One pass of one workload in a fresh interpreter; started by run.py.

Prints "ready" once the imports are done (run.py times that as set-up),
then makes one pass over the workload's command list and prints one JSON
line with the pass's results.  With --probe it exits right after "ready".

With --trace 1 every command runs twice side by side, untraced and then
traced (--traced-first swaps the two), each copy with its own cache
directory and ledger.  The pass's results are the traced copies'; the sum
of the untraced copies is `plain_wall_s`, so the tracing overhead is
measured within one process.

Set-up warm-up: kslab.cli (which loads numpy, scipy.stats, scipy.integrate)
plus mpmath and scipy.linalg, which kslab imports lazily on its wide-box
routes.  No kslab command runs before the timed pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import mpmath  # noqa: F401
import numpy  # noqa: F401
import scipy.linalg  # noqa: F401

import kslab.cli
import spans
from workloads import WORKLOADS, Ledger


def parse_output(text):
    """The JSON document a command printed after its one-line summary."""
    text = "\n" + text
    start = text.find("\n{")
    if start < 0:
        raise ValueError("no JSON object in the output")
    return json.loads(text[start + 1:])


def run_command(cmd, seed, ledger, workdir):
    argv = cmd.argv + ["--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kslab.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raw traceback is a failed command
        code, err = None, io.StringIO(f"raised {type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    route, failures = "", []
    if code != 0:
        failures.append(f"exit {code}: {err.getvalue().strip()[-300:]}")
    else:
        try:
            doc = parse_output(out.getvalue())
            route = cmd.route(doc)
            failures = cmd.check(doc, ledger)
        except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
            failures.append(f"unusable output: {type(exc).__name__}: {exc}")
    return {"argv": " ".join(argv).replace(str(workdir), "<cache>"), "wall_s": wall,
            "cpu_s": cpu, "route": route, "failures": failures}


def run_pass(build, seed, workdir):
    workdir.mkdir(parents=True)
    try:
        ledger = Ledger()
        records = [run_command(cmd, seed, ledger, workdir) for cmd in build(workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pass_result(records, ledger)


def run_paired_pass(build, seed, workdir, tracer, traced_first):
    """Each command untraced and traced in turn; the results are the traced ones."""
    dirs = (workdir / "plain", workdir / "traced")
    for d in dirs:
        d.mkdir(parents=True)
    try:
        ledgers, records = (Ledger(), Ledger()), ([], [])
        for pair in zip(build(dirs[0]), build(dirs[1])):
            for traced in ((1, 0) if traced_first else (0, 1)):
                uninstall = spans.install(tracer) if traced else None
                try:
                    rec = run_command(pair[traced], seed, ledgers[traced], workdir)
                finally:
                    if uninstall:
                        uninstall()
                records[traced].append(dict(rec, traced=bool(traced)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = pass_result(records[1], ledgers[1])
    res["plain_wall_s"] = sum(r["wall_s"] for r in records[0])
    res["commands"] = records[0] + records[1]
    res["spans"], res["counters"] = tracer.summary()
    res["known"] = sorted(spans.known_names())
    return res


def pass_result(records, ledger):
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "zc_digits": ledger.zc_digits(),
        "consistency_digits": ledger.consistency_digits(),
        "table_err_digits": ledger.table_err_digits(),
        "commands": records,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--traced-first", action="store_true")
    ap.add_argument("--workdir", type=Path)
    args = ap.parse_args(argv)
    print("ready", flush=True)
    if args.probe:
        return 0
    build = WORKLOADS[args.workload]
    if args.trace:
        res = run_paired_pass(build, args.seed, args.workdir, spans.Tracer(),
                              args.traced_first)
    else:
        res = run_pass(build, args.seed, args.workdir)
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
