"""Where the tree under test is and how child processes see it (stdlib only)."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class TreeError(RuntimeError):
    """The benchmark is not running inside a checkout of esdlab."""


def require_package():
    if not (ROOT / "src" / "esdlab" / "__init__.py").is_file():
        raise TreeError(f"no esdlab sources under {ROOT / 'src'}")


def child_env() -> dict:
    """Environment for every child: this tree's sources and one thread per library."""
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"
