"""The benchmark's span recorder wraps kslab functions by name; each name must resolve."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves():
    # perfbench/spans.py lists what it wraps in TARGETS and COUNTED; a
    # renamed function would otherwise surface only when a traced benchmark
    # run fails to install its wrappers.  The file is loaded, not changed.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(owner, attr) for _, owner, attr, _ in spans.TARGETS]
    targets += [(owner, attr) for _, owner, attr in spans.COUNTED]
    assert len(targets) > 20
    for owner, attr in targets:
        holder = sys.modules[owner] if isinstance(owner, str) else owner
        assert callable(getattr(holder, attr, None)), f"{owner}.{attr} does not resolve"
