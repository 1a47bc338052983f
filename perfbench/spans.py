"""Span recorder that wraps kslab's public functions from outside the package.

`install` replaces each target function by a wrapper that records a span
(id, parent id, name, start, end, ok) and a few counters taken from the
arguments or the result.  The wrapper is bound on the defining module and
on every kslab module that imported the same object, so `from .x import f`
call sites are traced too.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import kslab.cli  # noqa: F401  (loads every kslab module before patching)
from kslab import potentials


def _zeros_route(args, result):
    return {f"route.{result.method}": 1}


def _projection_route(args, result):
    return {f"route.{result.precision}": 1}


def _configs(args, result):
    return {"configs": int(args[1].shape[0])}


def _cache_hit(args, result):
    return {"hits": int(result is not None)}


# the counter keys each hook can emit; a route kslab does not have today is
# still counted, and run.py lists it as an unknown counter
HOOK_KEYS = {
    _zeros_route: ("route.lapack", "route.mpmath-exact", "route.mpmath"),
    _projection_route: ("route.float64", "route.mp40", "route.mp60", "route.mp90"),
    _configs: ("configs",),
    _cache_hit: ("hits",),
}


# (layer, module, attribute, counter hook); layer names are kslab's module names
TARGETS = [
    ("potentials", potentials.PairPotential, "weights_many", _configs),
    ("integrals", "kslab.integrals", "build_table", None),
    ("integrals", "kslab.integrals", "quadrature_Z", None),
    ("integrals", "kslab.integrals", "sampled_Z", None),
    ("integrals", "kslab.integrals", "load_table", _cache_hit),
    ("integrals", "kslab.integrals", "anchored_integral", None),
    ("partition", "kslab.partition", "zeros", _zeros_route),
    ("partition", "kslab.partition", "smallest_zero", None),
    ("partition", "kslab.partition", "correlation", None),
    ("ksop", "kslab.ksop", "ks_residual", None),
    ("ksop", "kslab.ksop", "apply_ks_function", None),
    ("ksop", "kslab.ksop", "build_ks_matrix", None),
    ("spectral", "kslab.spectral", "spectrum", None),
    ("spectral", "kslab.spectral", "leading_projection", _projection_route),
    ("spectral", "kslab.spectral", "riesz_projection", None),
    ("spectral", "kslab.spectral", "power_convergence", None),
    ("cluster", "kslab.cluster", "log_series", None),
    ("cluster", "kslab.cluster", "density_coefficients_extrapolated", None),
    ("cluster", "kslab.cluster", "radius_estimate", None),
    ("cluster", "kslab.cluster", "virial_reversion", None),
    ("cli", "kslab.cli", "main", None),
]
# counted but not timed: too small and too many for a span, so their time
# stays in the caller's self time
COUNTED = [
    ("integrals", "kslab.integrals", "panel_rule"),
    ("integrals", "kslab.integrals", "leggauss"),
]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, ok]
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1][0] if self._stack else None,
                    name, time.perf_counter(), None, False]
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span[5] = True
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                for key, n in hook(args, result).items():
                    self.counters[f"{name}.{key}"] += n
            return result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self):
        """Per name: calls, fails, self_s, total_s; plus the counters."""
        child = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "fails": 0, "self_s": 0.0, "total_s": 0.0})
        for sid, _, name, start, end, ok in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["fails"] += not ok
            agg["self_s"] += (end - start) - child[sid]
            agg["total_s"] += end - start  # no target calls itself
        return dict(out), dict(self.counters)


def known_names():
    """Every span field and counter name the targets can produce."""
    names = set()
    for layer, _, attr, hook in TARGETS:
        names |= {f"{layer}.{attr}.{f}" for f in ("calls", "fails", "self_s")}
        names |= {f"{layer}.{attr}.{k}" for k in HOOK_KEYS.get(hook, ())}
    names |= {f"{layer}.{attr}.calls" for layer, _, attr in COUNTED}
    return names


def install(tracer):
    """Wrap every target; returns the function that puts the originals back."""
    kslab_modules = [m for n, m in sys.modules.items()
                     if n == "kslab" or n.startswith("kslab.")]
    wrappers = [(layer, owner, attr, lambda name, fn, hook=hook: tracer.wrap(name, fn, hook))
                for layer, owner, attr, hook in TARGETS]
    wrappers += [(layer, owner, attr, tracer.count) for layer, owner, attr in COUNTED]
    patched = []
    for layer, owner, attr, make in wrappers:
        owner = sys.modules[owner] if isinstance(owner, str) else owner
        original = getattr(owner, attr)
        wrapper = make(f"{layer}.{attr}", original)
        holders = [owner] + [m for m in kslab_modules if m is not owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    patched.append((holder, key, original))

    def uninstall():
        for holder, key, original in patched:
            setattr(holder, key, original)

    return uninstall
