"""The names the benchmark harness binds at run time must keep existing.

``bench/tracer.py`` wraps functions by module and name; a rename in the
package would make the traced benchmark run crash rather than fail a check.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("SPANNED", "COUNTED"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def test_traced_names_exist():
    tables = _tracer_tables()
    assert set(tables) == {"SPANNED", "COUNTED"}
    bound = [(mod, name) for table in tables.values()
             for mod, names in table.items() for name in names]
    assert ("linalg", "product_spectrum") in bound
    assert ("closedform", "combined_death_time") in bound
    for mod, name in bound:
        assert callable(getattr(importlib.import_module(f"esdlab.{mod}"), name)), \
            f"esdlab.{mod}.{name}"


def test_attributes_read_by_benchmark_exist():
    channels = importlib.import_module("esdlab.channels")
    concurrence = importlib.import_module("esdlab.concurrence")
    assert channels.DEFAULT_DT > 0
    specs = (channels.NoiseSpec("A", "phase", 1.0),)
    assert len(channels.noise_channel(specs, 0.5).ops) == 2
    x = concurrence.lambda_state(4.0)
    trace = concurrence.trace_concurrence(x, specs, np.linspace(0.0, 1.0, 3))
    assert trace.values.shape == (3,)
    assert concurrence.concurrence_x(concurrence.evolve_x(x, specs, 0.5)) > 0


def test_arguments_read_by_benchmark_keep_their_places():
    """The tracer reads ``apply_channel``'s ``ch``, ``integrate_path``'s
    ``times`` and ``dt`` (by position or keyword) and ``noise_channel(...).ops``."""
    channels = importlib.import_module("esdlab.channels")
    assert list(inspect.signature(channels.apply_channel).parameters)[0] == "ch"
    assert list(inspect.signature(channels.integrate_path).parameters)[2:4] == ["times", "dt"]
    all_four = [channels.NoiseSpec(q, k, 1.0) for q in "AB" for k in ("amplitude", "phase")]
    assert len(channels.noise_channel(all_four, 0.5).ops) == 16
