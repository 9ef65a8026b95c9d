"""One workload in a fresh interpreter: set up, then a timed loop or a traced round.

Started by run.py, never by hand.  The worker imports esdlab from the
tree's ``src``, generates the workload's inputs from the seed and prints
``ready``; everything up to that line is set-up.  It then either runs the
closed loop for the given number of seconds (``--trace 0``) or one round
untraced and once more traced (``--trace 1``).  In the closed loop each
timing is divided by the machine's local slowdown (see calibration.py);
the raw timings are reported beside them.  Output checks run after the
timed part.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile)."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _call(work, op, in_process):
    """(output, error message) of one operation; a failed call is counted, not fatal."""
    try:
        return work.run(op, in_process=in_process), None
    except Exception as exc:  # any raise is a failed operation of the workload
        return None, f"{op.label}: {exc!r}"


def _check(work, op, output) -> list[str]:
    try:
        return work.errors(op, output)
    except Exception:  # an output the check cannot read fails the check
        return [f"{op.label}: check raised {traceback.format_exc(limit=1).strip()}"]


def _metrics(work, labels: list[str], items: list[int], dts: list[float]) -> dict:
    light = [(dt, k) for label, k, dt in zip(labels, items, dts) if label in work.light]
    heavy = [dt for label, dt in zip(labels, dts) if label == work.heavy]
    latencies = [dt for dt, _ in light]
    metrics = {}
    if light:
        value, pct = tail(latencies)
        metrics["latency_p50_s"] = {"value": statistics.median(latencies), "unit": "s",
                                    "n": len(latencies)}
        metrics["latency_tail_s"] = {"value": value, "unit": "s", "n": len(latencies),
                                     "percentile": pct}
        metrics["work_per_s"] = {"value": sum(k for _, k in light) / sum(latencies),
                                 "unit": "1/s", "n": len(light)}
    if heavy:
        metrics["heavy_p50_s"] = {"value": statistics.median(heavy), "unit": "s",
                                  "n": len(heavy)}
    for name, alias in work.aliases.items():
        if name in metrics:
            metrics[name]["alias"] = alias
    return metrics


def timed(work, seconds: float) -> dict:
    from calibration import calibrate, slowdowns

    schedule = [op for rnd in work.rounds for op in rnd]
    runs = []  # (position in schedule, seconds, digest, error)
    cal = []  # one calibration sample before each operation
    kept = {}  # first output per (position, digest), checked after the loop
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        pos = i % len(schedule)
        cal.append(calibrate())
        t0 = time.perf_counter()
        output, error = _call(work, schedule[pos], in_process=False)
        dt = time.perf_counter() - t0
        digest = None
        if error is None:
            digest = work.digest(output)
            kept.setdefault((pos, digest), output)
        runs.append((pos, dt, digest, error))
        i += 1
    measured = time.perf_counter() - start

    verdicts = {key: _check(work, schedule[key[0]], out) for key, out in kept.items()}
    failures = []
    for pos, _, digest, error in runs:
        msgs = [error] if error else verdicts[(pos, digest)]
        failures += msgs[:1]

    labels = [schedule[pos].label for pos, *_ in runs]
    items = [schedule[pos].items for pos, *_ in runs]
    raw = [dt for _, dt, _, _ in runs]
    slowdown = slowdowns(cal)
    metrics = _metrics(work, labels, items, [dt / s for dt, s in zip(raw, slowdown)])
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics["peak_rss_mb"] = {"value": usage / 1024.0, "unit": "MB", "n": 1}
    return {
        "attempted": len(runs),
        "failed": len(failures),
        "failures": failures[:20],
        "measured_s": measured,
        "calls": {label: labels.count(label) for label in sorted(set(labels))},
        "slowdown": {"median": statistics.median(slowdown), "min": min(slowdown),
                     "max": max(slowdown)},
        "metrics": metrics,
        "raw_metrics": _metrics(work, labels, items, raw),
        "ops": [[label, dt, c] for label, dt, c in zip(labels, raw, cal)],
    }


def traced(work, spans_path: Path) -> dict:
    from tracer import Tracer

    ops = work.rounds[0]
    passes = []
    if work.name == "cli":
        # what a user sees; the traced pass must reproduce it byte for byte
        passes.append([_call(work, op, in_process=False) for op in ops])
    t0 = time.perf_counter()
    passes.append([_call(work, op, in_process=True) for op in ops])
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        outputs = []
        for j, op in enumerate(ops):
            tracer.op_id = j
            outputs.append(_call(work, op, in_process=True))
        traced_s = time.perf_counter() - origin
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, origin)

    failures = []
    for j, op in enumerate(ops):
        output, error = outputs[j]
        errors = [e for _, e in (p[j] for p in passes) if e]
        if error or errors:
            failures.append(error or errors[0])
            continue
        digests = {work.digest(p[j][0]) for p in passes} | {work.digest(output)}
        if len(digests) > 1:
            failures.append(f"{op.label}: traced output differs from the untraced one")
            continue
        failures += _check(work, op, output)[:1]

    per_layer, errors = tracer.per_layer()
    per_layer["round_untraced_s"] = untraced_s
    per_layer["trace_overhead_s"] = traced_s - untraced_s
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "per_layer": per_layer,
        "exceptions": errors,
        "spans": len(tracer.spans),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path)
    args = p.parse_args()

    t0 = time.perf_counter()
    import esdlab
    import_s = time.perf_counter() - t0
    if not Path(esdlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: esdlab imported from {esdlab.__file__}, not this tree", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        from calibration import CAL_NOMINAL_S, calibrate

        cal = [calibrate() for _ in range(15)]
        print(json.dumps({"slowdown": statistics.median(cal) / CAL_NOMINAL_S}))
        return 0

    result = traced(work, args.spans) if args.trace else timed(work, args.seconds)
    if args.trace:
        result["per_layer"]["import_s"] = import_s
    result.update(
        why=work.why,
        python=platform.python_version(),
        numpy=np.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
