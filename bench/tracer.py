"""Spans and counters around esdlab's public functions, installed from outside.

The tracer replaces each traced function with a wrapper in every esdlab
module namespace that binds it (``concurrence`` imports ``apply_channel``
by name, ``checks`` a dozen names), so calls made through any of those
names are recorded.  No file of the package is edited; ``uninstall``
restores the original objects.

Spans are kept in memory as (op, span, parent, name, start, end, failed)
and written out at the end.  A function's self time is its span's
duration minus the durations of its direct child spans.  ``as_matrix``
and ``kron`` run hundreds of thousands of times per round, so they are
counted without spans and their time stays in their callers' self time.
"""

from __future__ import annotations

import csv
import functools
import gzip
import math
import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "linalg": ("validate_density", "product_spectrum"),
    "channels": ("noise_channel", "apply_channel", "integrate_path"),
    "concurrence": (
        "trace_concurrence",
        "esd_time",
        "classify",
        "diagram_grid",
        "concurrence_margin",
    ),
    "closedform": ("combined_death_time",),
    "checks": ("run_validation", "additivity_series", "check_kraus_lindblad"),
    "cli": ("main", "load_config"),
}
COUNTED = {"linalg": ("as_matrix", "kron")}
ERRORS_REPORTED = ("linalg.product_spectrum",)
DERIVED = ("channels.kraus_ops_applied", "channels.max_kraus_ops", "channels.rk4_steps")


def per_layer_names() -> list[str]:
    """Names of the per-layer metrics, in report order (without timing extras)."""
    names = []
    for mod, funcs in SPANNED.items():
        for f in funcs:
            names += [f"{mod}.{f}.calls", f"{mod}.{f}.self_s"]
    names += [f"{name}.errors" for name in ERRORS_REPORTED]
    names += [f"{mod}.{f}.calls" for mod, funcs in COUNTED.items() for f in funcs]
    return names + list(DERIVED)


def _rk4_steps(times, dt) -> int:
    """Steps ``integrate_path`` takes for a time grid, from its step rule."""
    steps, now = 0, 0.0
    for t in times:
        span = float(t) - now
        if span > 0:
            steps += math.ceil(span / dt - 1e-12)
            now = float(t)
    return steps


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    # -- hooks computing the derived counts from arguments and results --

    def _before(self, name, args, kwargs):
        if name == "channels.apply_channel":
            ch = args[0] if args else kwargs["ch"]
            self.counts["channels.kraus_ops_applied"] += len(ch.ops)
        elif name == "channels.integrate_path":
            times = args[2] if len(args) > 2 else kwargs["times"]
            default = sys.modules["esdlab.channels"].DEFAULT_DT
            dt = args[3] if len(args) > 3 else kwargs.get("dt", default)
            self.counts["channels.rk4_steps"] += _rk4_steps(times, dt)

    def _after(self, name, result):
        if name == "channels.noise_channel":
            key = "channels.max_kraus_ops"
            self.counts[key] = max(self.counts[key], len(result.ops))

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args, kwargs)
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            failed = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (self.op_id, span_id, parent, name, start, end, failed)
            self._after(name, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        package = [
            m for key, m in sys.modules.items()
            if key == "esdlab" or key.startswith("esdlab.")
        ]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, funcs in table.items():
                for f in funcs:
                    original = getattr(sys.modules[f"esdlab.{mod}"], f)
                    wrapper = make(f"{mod}.{f}", original)
                    for module in package:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, attr, original))
                                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def per_layer(self) -> tuple[dict, dict]:
        """(metrics named as in per_layer_names, exceptions per function)."""
        covered = defaultdict(float)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s, errors = Counter(), defaultdict(float), Counter()
        for _, span_id, _, name, start, end, failed in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - covered[span_id]
            errors[name] += failed
        out = {}
        for mod, funcs in SPANNED.items():
            for f in funcs:
                name = f"{mod}.{f}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
        for name in ERRORS_REPORTED:
            out[f"{name}.errors"] = errors[name]
        for mod, funcs in COUNTED.items():
            for f in funcs:
                out[f"{mod}.{f}.calls"] = self.counts[f"{mod}.{f}"]
        for name in DERIVED:
            out[name] = self.counts[name]
        return out, {name: n for name, n in sorted(errors.items()) if n}

    def write_spans(self, path, origin: float):
        """Write the spans as gzipped CSV, times in seconds from ``origin``."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "span", "parent", "name", "start_s", "end_s", "failed"])
            for op, span_id, parent, name, start, end, failed in self.spans:
                out.writerow([op, span_id, parent, name,
                              f"{start - origin:.9f}", f"{end - origin:.9f}", int(failed)])
