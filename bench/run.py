"""Layered benchmark of esdlab: three workloads, an untraced and a traced run.

    python3 bench/run.py --workload cli --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30
    python3 bench/run.py --self-check

One workload (``--workload``) prints a summary and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
the per-layer ones.  ``--all`` runs cli, sweep and diagram for one seed
and prints every end-to-end metric under its workload's own name, with
unit and sample count.  ``--self-check`` runs every workload at tiny
sizes, two traced runs each and the golden diff, and asserts that
nothing failed.

Workloads run one at a time, each in a fresh interpreter with one thread
per numeric library, driven by a single closed-loop client.  ``setup_s``
is the median, over several fresh interpreters, of the time from start
to the first timed call: interpreter start, ``import esdlab`` and input
generation.  Every timing is divided by the machine's slowdown, measured
by a fixed calibration kernel beside it (calibration.py), so the figures
are seconds at a nominal speed; raw ones go to the result files.  The
traced run wraps esdlab's public functions at run time (tracer.py), so
the end-to-end figures never carry tracing cost.  Result files, with the
run record, go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tree

WORKLOADS = ("cli", "sweep", "diagram")
SETUP_PROBES = 7
RESULTS = tree.ROOT / "bench" / "results"
DEADLINE_S = 170.0  # a run must end within 180 s
# Valid inputs on which the tree is known to fail.  The failure is sporadic
# over the rates (about one additivity command in 75 with rates in
# [0.1, 3]), so the cli workload meets it on some seeds and counts it as a
# failed operation.  The tiny self-check does not draw such rates; it
# reports whether each defect still reproduces.
KNOWN_DEFECTS = {
    "additivity exits 1 with a traceback: RK4 trace drift 1.06e-12 exceeds "
    "the 1e-12 trace tolerance of validate_density":
        ["additivity", "--gamma1", "0.1822076819138183", "--gamma2", "2.523718801367622"],
}


class BenchError(RuntimeError):
    """A worker failed, timed out or reported an incomplete result."""


def _worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; (seconds until it was ready, its JSON result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(tree.ROOT / "bench" / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=tree.child_env(), cwd=tree.ROOT,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} timed out") from None
    if first != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = rest.splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload and write its result file; returns the record."""
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    setup = []
    if not trace:
        for _ in range(1 if tiny else SETUP_PROBES):
            ready, probe = _worker(argv + ["--setup-only"], deadline)
            setup.append((ready / probe["slowdown"], ready))
    main_argv = argv + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        main_argv += ["--spans", str(RESULTS / f"{stem}-spans.csv.gz")]
    _, result = _worker(main_argv, deadline)
    if result is None:
        raise BenchError(f"worker for {name} printed no result")
    if not trace:
        for key, column in (("metrics", 0), ("raw_metrics", 1)):
            result[key]["setup_s"] = {"value": statistics.median(s[column] for s in setup),
                                      "unit": "s", "n": len(setup)}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "git_revision": tree.git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": tree.THREAD_VARS,
        "error_rate": result["failed"] / max(1, result["attempted"]),
        **result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def declared() -> dict:
    with open(tree.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def contract_line(record: dict, spec: dict) -> dict:
    """The last stdout line: every declared metric of the run's kind."""
    if record["trace"]:
        values, wanted = record["per_layer"], spec["per_layer"]
        metrics = {m["name"]: values.get(m["name"]) for m in wanted}
    else:
        metrics = {m["name"]: (record["metrics"].get(m["name"]) or {}).get("value")
                   for m in spec["end_to_end"]}
        wanted = spec["end_to_end"]
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        raise BenchError(f"no value for {missing} on {record['workload']}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def summary(record: dict) -> list[str]:
    """Human-readable lines: each metric under its workload's name, unit and count."""
    head = (f"{record['workload']} seed {record['seed']}: {record['attempted']} operations, "
            f"{record['failed']} failed, error_rate {record['error_rate']:g}")
    lines = [head] + [f"  FAILED {msg}" for msg in record["failures"]]
    if record["trace"]:
        lines += [f"  {k:44s} {v:.6g}" for k, v in record["per_layer"].items()]
        return lines
    for name, m in sorted(record["metrics"].items()):
        label = m.get("alias", name)
        if "percentile" in m:
            label += f" (p{m['percentile']:.0f})"
        raw = record["raw_metrics"].get(name)
        note = f"  raw {raw['value']:.6g}" if raw else ""
        lines.append(f"  {label:28s} {m['value']:12.6g} {m['unit']:5s} n={m['n']}{note}")
    lines.append(f"  {'error_rate':28s} {record['error_rate']:12.6g} {'1':5s} "
                 f"n={record['attempted']}")
    return lines


def self_check() -> int:
    """Every workload at tiny sizes, two traced runs each, and the golden diff."""
    import golden

    spec = declared()
    problems = []
    for name in WORKLOADS:
        plain = run_workload(name, 1, 1.0, 0, tiny=True)
        traced = [run_workload(name, 1, 0.0, 1, tiny=True) for _ in range(2)]
        for record in [plain] + traced:
            print("\n".join(summary(record)))
            if record["failed"]:
                problems.append(f"{name}: {record['failed']} failed operations")
        counts = [{k: v for k, v in r["per_layer"].items() if not k.endswith("_s")}
                  for r in traced]
        if counts[0] != counts[1]:
            problems.append(f"{name}: call counts differ between two traced runs")
        if name == "diagram":
            stray = {k: v for k, v in counts[0].items()
                     if k.startswith(("channels.", "linalg.")) and v}
            if stray:
                problems.append(f"diagram calls channels or linalg: {stray}")
        if set(traced[0]["per_layer"]) != {m["name"] for m in spec["per_layer"]}:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
    if golden.diff(tol=0.0) != 0:
        problems.append("golden outputs differ from the stored ones")
    for what, argv in KNOWN_DEFECTS.items():
        code, _ = golden.run_case(argv)
        state = "still present" if code else "no longer reproduces"
        print(f"known defect {state}: esdlab {' '.join(argv)}: {what}")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check passed" if not problems else "self-check failed")
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="all workloads, trace 0")
    mode.add_argument("--self-check", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        tree.require_package()
        if args.self_check:
            return self_check()
        if args.all:
            records = [run_workload(name, args.seed, args.seconds, 0) for name in WORKLOADS]
            for record in records:
                print("\n".join(summary(record)))
            return 0 if all(r["failed"] == 0 for r in records) else 1
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        line = contract_line(record, declared())
    except tree.TreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary(record)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
