"""Save and compare the JSON output of every benchmark workload command.

    python tools/workload_json.py save --seed 1 --out DIR [--src SRC]
    python tools/workload_json.py compare DIR_A DIR_B

`save` runs every command of every workload in perfbench/workloads.py
in-process, in order and with `--seed`, the way perfbench's worker does,
against the kslab package under SRC (default: this checkout's src/).  Each
command's JSON document, without its `meta` block, goes to one file in DIR,
with the argv and exit code beside it.  The tables workload gets a fresh
cache directory.

`compare` reads two such directories and reports, command by command,
"identical" or, for each field that differs, the largest relative
difference over its entries (list indices are folded, so `zeros[].re`
covers every zero).  A field whose values are not numbers, whose entry
count differs, or that only one side has, reads "differs".  It exits 1 when
some command differs.

Standard library only; perfbench is read, never changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _document(text):
    """The JSON object a command printed after its one-line summary."""
    text = "\n" + text
    start = text.find("\n{")
    return json.loads(text[start + 1:]) if start >= 0 else None


def save(seed, out, src):
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import kslab.cli
    from workloads import WORKLOADS

    out.mkdir(parents=True, exist_ok=True)
    for name, build in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            for i, cmd in enumerate(build(Path(workdir))):
                argv = cmd.argv + ["--seed", str(seed)]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = kslab.cli.main(argv)
                doc = _document(stdout.getvalue()) if code == 0 else None
                if doc is not None:
                    doc.pop("meta", None)
                record = {"argv": " ".join(argv).replace(workdir, "<cache>"),
                          "exit": code, "stderr": stderr.getvalue(), "doc": doc}
                path = out / f"{name}-{i:02d}-{argv[0]}.json"
                path.write_text(json.dumps(record, indent=1, sort_keys=True))
                print(f"{path.name}: exit {code}")


def _fields(x):
    """{folded path: [its values in document order]} of a JSON value."""
    fields = {}
    for path, v in _leaves(x):
        fields.setdefault(path, []).append(v)
    return fields


def _leaves(x, path=""):
    """(folded path, value) for every leaf of a JSON value."""
    if isinstance(x, dict):
        for k in sorted(x):
            yield from _leaves(x[k], f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for v in x:
            yield from _leaves(v, path + "[]")
    else:
        yield path, x


def _rel(a, b):
    if a == b or (isinstance(a, float) and isinstance(b, float)
                  and math.isnan(a) and math.isnan(b)):
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return None
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def compare_docs(a, b):
    """{field: largest relative difference, or None where not comparable}."""
    if a == b:
        return {}
    fa, fb = _fields(a), _fields(b)
    worst = {}
    for path in sorted(fa.keys() | fb.keys()):
        xs, ys = fa.get(path, []), fb.get(path, [])
        if len(xs) != len(ys):
            worst[path] = None
            continue
        for x, y in zip(xs, ys):
            r = _rel(x, y)
            if r != 0.0:
                worst[path] = None if r is None or worst.get(path, 0.0) is None else max(
                    r, worst.get(path, 0.0))
    return worst


def compare(dir_a, dir_b):
    names = sorted({p.name for p in dir_a.glob("*.json")} | {p.name for p in dir_b.glob("*.json")})
    differ = False
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists()):
            print(f"{name}: only in {dir_a if pa.exists() else dir_b}")
            differ = True
            continue
        ra, rb = json.loads(pa.read_text()), json.loads(pb.read_text())
        head = f"{name} ({ra['argv']})"
        if ra["exit"] != rb["exit"]:
            print(f"{head}: exit {ra['exit']} vs {rb['exit']}")
            differ = True
            continue
        worst = compare_docs(ra["doc"], rb["doc"])
        if not worst:
            print(f"{head}: identical")
            continue
        differ = True
        print(f"{head}:")
        for path, r in sorted(worst.items()):
            print(f"    {path}: " + ("differs" if r is None else f"max rel diff {r:.3g}"))
    return 1 if differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="action", required=True)
    sp = sub.add_parser("save")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--src", type=Path, default=ROOT / "src")
    cp = sub.add_parser("compare")
    cp.add_argument("dir_a", type=Path)
    cp.add_argument("dir_b", type=Path)
    args = ap.parse_args(argv)
    if args.action == "save":
        save(args.seed, args.out, args.src.resolve())
        return 0
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
