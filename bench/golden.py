"""Golden CLI outputs: the README examples and the three diagram panels at 64.

    python3 bench/golden.py            # diff against bench/golden/, exit 1 on any difference
    python3 bench/golden.py --tol 1e-15
    python3 bench/golden.py --write    # store the outputs of the current tree

Each case runs ``python -m esdlab.cli`` as a user would.  The diff
reports, per case, whether the bytes are identical and the largest
absolute difference in each numeric column: CSV columns by header, JSON
numbers by key path with list positions dropped.  Text columns (decay
class, check names, pass flags) and exit codes must match exactly.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import subprocess
import sys

import tree

GOLDEN = tree.ROOT / "bench" / "golden"
_BOTH = ["--noise", "A:amplitude:1", "--noise", "B:amplitude:1",
         "--noise", "A:phase:1", "--noise", "B:phase:1"]
CASES = {
    "trace_phase": ["trace", "--lambda", "4", "--noise", "A:phase:1", "--noise", "B:phase:1",
                    "--t-max", "2", "--samples", "100"],
    "trace_sweep": ["trace", "--sweep-lambda", "32", *_BOTH, "--t-max", "2", "--samples", "100"],
    "esd": ["esd", "--lambda", "4", "--t-max", "20", *_BOTH],
    "additivity": ["additivity", "--gamma1", "3", "--gamma2", "0.1"],
    "validate": ["validate"],
    "diagram_i": ["diagram", "--panel", "i", "--resolution", "64"],
    "diagram_ii": ["diagram", "--panel", "ii", "--resolution", "64"],
    "diagram_iii": ["diagram", "--panel", "iii", "--resolution", "64"],
}


def run_case(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "esdlab.cli", *argv], capture_output=True,
                          env=tree.child_env(), cwd=tree.ROOT, timeout=300, check=False)
    return proc.returncode, proc.stdout


def columns(text: str) -> dict[str, list]:
    """Column name -> values; numbers as floats, everything else as text."""
    cols: dict[str, list] = {}
    if text.startswith("{"):
        def walk(node, path):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key], f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for item in node:
                    walk(item, path)
            else:
                numeric = isinstance(node, (int, float)) and not isinstance(node, bool)
                cols.setdefault(path, []).append(float(node) if numeric else node)
        walk(json.loads(text), "")
        return cols
    lines = text.splitlines()
    header = lines[0].split(",")
    for name in header:
        cols[name] = []
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(cell)
    return cols


def compare(old: str, new: str) -> dict[str, tuple[float, int]]:
    """Per column: (largest absolute numeric difference, count of other mismatches)."""
    a, b = columns(old), columns(new)
    out = {}
    for name in sorted(set(a) | set(b)):
        xs, ys = a.get(name, []), b.get(name, [])
        worst, mismatches = 0.0, abs(len(xs) - len(ys))
        for x, y in zip(xs, ys):
            if isinstance(x, float) and isinstance(y, float):
                if x != y:
                    d = abs(x - y)
                    worst = max(worst, d if math.isfinite(d) else math.inf)
            elif x != y:
                mismatches += 1
        out[name] = (worst, mismatches)
    return out


def write() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name, argv in CASES.items():
        code, stdout = run_case(argv)
        # mtime 0 keeps the stored files identical across rewrites
        with open(GOLDEN / f"{name}.out.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(stdout)
        manifest[name] = {"argv": argv, "exit_code": code}
        print(f"wrote {name}: exit {code}, {len(stdout)} bytes")
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


def diff(tol: float = 0.0) -> int:
    """Print the per-column report; 0 when every column is within ``tol``."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    bad = 0
    for name, case in manifest.items():
        code, stdout = run_case(case["argv"])
        stored = gzip.decompress((GOLDEN / f"{name}.out.gz").read_bytes())
        same = stdout == stored
        print(f"{name}: exit {code} (stored {case['exit_code']}), "
              f"bytes {'identical' if same else 'differ'}")
        bad += code != case["exit_code"]
        for column, (worst, mismatches) in compare(stored.decode(), stdout.decode()).items():
            print(f"  {column:32s} max_abs_diff {worst:.3e}  other mismatches {mismatches}")
            bad += worst > tol or mismatches > 0
    print(f"golden diff: {'within' if not bad else 'OUTSIDE'} tolerance {tol:g}")
    return 1 if bad else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--write", action="store_true", help="store the current outputs")
    p.add_argument("--tol", type=float, default=0.0, help="allowed numeric difference")
    args = p.parse_args()
    try:
        tree.require_package()
    except tree.TreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return write() if args.write else diff(args.tol)


if __name__ == "__main__":
    sys.exit(main())
