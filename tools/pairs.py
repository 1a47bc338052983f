"""Run the benchmark in alternating pairs of two checkouts and test a claimed gain.

    python tools/pairs.py --parent DIR --workload W --pairs N --seed S

Each pair runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once in the parent checkout DIR and once in this one, each in its own
checkout directory; the side that runs first alternates from pair to pair.
T is BENCHMARK.json's run_seconds, the run length the benchmark judges a
gain at.  Every run's end-to-end metrics are printed as they arrive.  At
the end, for each metric of BENCHMARK.json, the summary gives each side's
median and quartiles over the pairs, how many pairs the change won (ties
count for neither side), the regression verdict and whether a gain claim
holds.  The regression verdict reads "within bound" when the change's
median is worse than the parent's by at most the metric's `bound`, taken
relative to the parent's median, and "worse than bound" past that; it reads
"unresolved" when the parent's interquartile range, taken the same way,
exceeds the bound, unless every change run beats every parent run.  A gain
claim holds when the change wins at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
range.  It exits 1 when a run reports a failed command, and 2 when a run
does not finish.  Before the first run it warns, on stderr, of every .pyc
under either checkout's src/ that is older than its source: under
PYTHONDONTWRITEBYTECODE=1 such a file is recompiled at every worker start,
and the side that holds it pays for that in setup_s.

Standard library only; perfbench is run, never changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds):
    """One run.py in checkout; its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stale_bytecode(checkout):
    """Every .pyc under checkout/src that is older than the .py it was compiled from."""
    stale = []
    for pyc in sorted(Path(checkout, "src").rglob("__pycache__/*.pyc")):
        source = pyc.parent.parent / f"{pyc.name.split('.')[0]}.py"
        if source.exists() and pyc.stat().st_mtime < source.stat().st_mtime:
            stale.append(pyc)
    return stale


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def regression(parent, change, bound, lower):
    """The regression verdict of one metric over the pairs (see the module doc)."""
    pq, median = quartiles(parent), statistics.median(change)
    allowed = bound * (abs(pq[1]) or 1.0)
    beats = max(change) < min(parent) if lower else min(change) > max(parent)
    if pq[2] - pq[0] > allowed and not beats:
        return "unresolved"
    worse = median - pq[1] if lower else pq[1] - median
    return "within bound" if worse <= allowed else "worse than bound"


def summarize(metrics, runs):
    """One line per metric, and whether each claim holds, from runs[side][pair]."""
    lines, pairs = [], len(runs["parent"])
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        holds = wins >= 0.9 * pairs and gap > pq[2] - pq[0]
        verdict = (f"  regression {regression(parent, change, m['bound'], lower)}"
                   if "bound" in m else "")
        lines.append(
            f"  {name:<20} {m['unit']:<7} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
            f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  wins {wins}/{pairs}{verdict}"
            f"  gain claim {'holds' if holds else 'does not hold'}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    for side, checkout in sides.items():
        for pyc in stale_bytecode(checkout):
            print(f"warning: {side} checkout: {pyc} is older than its source", file=sys.stderr)
    failed = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                rec = run_once(sides[side], args.workload, args.seed, seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            runs[side].append(rec)
            failed += rec["failed"]
            values = "  ".join(f"{k} {v['value']:.6g}" for k, v in rec["metrics"].items())
            print(f"pair {pair + 1:2d} {side:<6} failed {rec['failed']}/{rec['attempted']}  "
                  f"{values}", flush=True)
    print(f"== {args.workload}  seed {args.seed}  {args.pairs} pairs of {seconds} s runs, "
          f"median [quartiles]")
    for line in summarize(bench["end_to_end"], runs):
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
