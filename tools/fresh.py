"""Median wall time of fresh `python -m kslab.cli` processes, commands interleaved.

    python tools/fresh.py [--runs N] [--src SRC] -- "spectral --L 5 --M 6" "zeros --L 5 --M 6"

Each round starts one process per command, in the order given, and times it
from spawn to exit, interpreter start-up and imports included, as a user of
the command line pays them.  Interleaving the commands round by round lets
drift in the machine's speed reach every command alike.  Prints, per
command, its median over the N rounds and its ratio to the first command's
median.  The processes run with this checkout's src/ (or SRC) on PYTHONPATH,
in a scratch working directory, with their output discarded.  Exits 1 when
a process exits non-zero, and 2, before any process starts, when --runs is
below 1.

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def at_least_one(text):
    """An argparse type: an int >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=at_least_one, default=5, help="rounds (default 5)")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding kslab")
    ap.add_argument("commands", nargs="+", help="kslab command lines, one per argument")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    times = {cmd: [] for cmd in args.commands}
    with tempfile.TemporaryDirectory() as work:
        for _ in range(args.runs):
            for cmd in args.commands:
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "kslab.cli", *shlex.split(cmd)],
                                      cwd=work, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
                times[cmd].append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    print(f"`{cmd}` exited {proc.returncode}: {proc.stderr.strip()}",
                          file=sys.stderr)
                    return 1
    first = statistics.median(times[args.commands[0]])
    for cmd, ts in times.items():
        median = statistics.median(ts)
        print(f"{median:8.3f} s  ratio {median / first:6.3f}  {cmd}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
