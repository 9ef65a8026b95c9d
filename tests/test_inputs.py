"""The input contract: each time grid and summed rate is checked where it
enters, every bad input ends in one ValueError (library) or in one stderr
line with a documented exit code (CLI), and no warning escapes."""

import io
import json
import math
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from esdlab import (
    NoiseSpec,
    XState,
    classify,
    diagram_grid,
    esd_time,
    integrate_path,
    lambda_state,
    trace_concurrence,
)
from esdlab.channels import check_times, evolve_states, noise_channel, transfer_states
from esdlab.cli import main
from esdlab.checks import equivalence_state

# two specs whose rates are finite but whose sum overflows to inf
OVERFLOWING = (NoiseSpec("A", "amplitude", 1e308), NoiseSpec("A", "amplitude", 1e308))
SUMMED = "summed amplitude rate of qubit A must be finite"


def test_check_times_names_the_first_bad_time():
    assert check_times([0.0, -0.0, 5e-324, 1e300]).dtype == float
    assert check_times([]).shape == (0,)
    for grid, bad in (([0.0, 1.0, math.nan, -1.0], "nan"), ([2.0, -0.5, math.inf], "-0.5"),
                      (np.array([0.0, math.inf]), "inf")):
        with pytest.raises(ValueError, match=f"time must be finite and >= 0, got {bad}$"):
            check_times(grid)
    with pytest.raises(ValueError, match="1d time grid"):
        check_times([[0.0, 1.0]])


@pytest.mark.parametrize("route", [
    lambda: evolve_states(lambda_state(4.0).to_density(), OVERFLOWING, [0.0, 1.0]),
    lambda: transfer_states(equivalence_state(), OVERFLOWING, [0.0, 1.0]),
    lambda: noise_channel(OVERFLOWING, 1.0),
    lambda: integrate_path(lambda_state(4.0).to_density(), OVERFLOWING, [0.0, 1.0]),
    lambda: trace_concurrence(lambda_state(4.0), OVERFLOWING, [0.0, 1.0]),
    lambda: trace_concurrence(equivalence_state(), OVERFLOWING, [0.0, 1.0]),
    lambda: esd_time(lambda_state(4.0), OVERFLOWING, 5.0),
    lambda: esd_time(equivalence_state(), OVERFLOWING, 5.0),
    lambda: classify(lambda_state(4.0), OVERFLOWING),
    lambda: classify(XState(0.5, 0.25, 0.25, 0.0, 0.0), OVERFLOWING),  # separable at start
    lambda: diagram_grid([0.2], [0.3], OVERFLOWING, 5.0),
    lambda: diagram_grid([2.0], [0.3], OVERFLOWING, 5.0),  # an all-INVALID lattice too
], ids=["evolve_states", "transfer_states", "noise_channel", "integrate_path", "trace_x",
        "trace_general", "esd_time_x", "esd_time_general", "classify", "classify_separable",
        "diagram_grid", "diagram_grid_invalid"])
def test_overflowing_summed_rate_raises_one_value_error(route):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=SUMMED):
            route()


@pytest.mark.parametrize("specs, dies", [
    ((NoiseSpec("A", "amplitude", 1e308),), False),
    ((NoiseSpec("A", "phase", 1e308), NoiseSpec("B", "phase", 1e308)), False),
    (tuple(NoiseSpec(q, kind, sys.float_info.max) for q in "AB" for kind in ("amplitude", "phase")),
     True),
], ids=["amplitude", "phase_pair", "all_four_max"])
def test_huge_rates_leave_the_x_margins_quiet(specs, dies):
    # amp * t overflowed, and ph_A + ph_B was inf, which made nan at t = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (esd_time(lambda_state(4.0), specs, 5.0) is not None) == dies
        cells = diagram_grid([0.0, 0.2], [0.0, 0.3], specs)
        last = "SUDDEN_DEATH" if dies else "EXPONENTIAL"
        assert [c.kind.value for c in cells] == [
            "SEPARABLE_AT_START", "EXPONENTIAL", "SEPARABLE_AT_START", last]


def test_integrate_path_names_a_non_finite_time():
    rho0 = lambda_state(4.0).to_density()
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            integrate_path(rho0, (), [0.0, bad])
    with pytest.raises(ValueError, match="ascending"):
        integrate_path(rho0, (), [0.5, 0.5])


def run_cli(argv):
    """(exit code, stdout, stderr, wall seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _one_line_error(result, *names):
    code, out, err, _ = result
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    for name in names:
        assert name in err


@pytest.mark.parametrize("command", [
    ["esd", "--lambda", "4"],
    ["trace", "--lambda", "4", "--samples", "3"],
    ["trace", "--sweep-lambda", "2", "--samples", "3"],
])
def test_cli_overflowing_summed_rate_exits_2(command, tmp_path):
    noise = ["--noise", "A:amplitude:1e308"] * 2
    _one_line_error(run_cli(command + noise), SUMMED)
    path = tmp_path / "run.json"
    rows = [{"target": "A", "kind": "amplitude", "rate": 1e308}] * 2
    path.write_text(json.dumps({"noises": rows}), encoding="utf-8")
    _one_line_error(run_cli(command + ["--config", str(path)]), SUMMED)


def test_cli_grid_that_does_not_ascend_exits_2():
    # linspace(0, 5e-324, 3) is [0, 0, 5e-324]
    _one_line_error(run_cli(["trace", "--lambda", "4", "--t-max", "5e-324", "--samples", "3"]),
                    "--t-max", "--samples")
    _one_line_error(run_cli(["additivity", "--t-max", "5e-324", "--samples", "3"]),
                    "--t-max", "--samples")


# Values for every float slot, and integer extremes for the count flags.
FLOATS = ["0", "-0.0", "5e-324", "1e-308", "1e-300", "1e300", repr(sys.float_info.max),
          "-1", "nan", "inf"]
COUNTS = [str(-2**63), "-1", "0", "1", "2", "3", "8", str(2**63 - 1), str(10**20)]
# --sweep-lambda runs one trace per value, so its cost grows with the value,
# which is the size of the input, not a defect: it is capped at 3 for run
# time.  The huge counts of the other flags fail at once, since no array
# holds that many points.
SWEEP_LAMBDAS = ["-1", "0", "1", "3"]
BASE = {
    "trace": ["trace", "--lambda", "4", "--samples", "4", "--t-max", "2",
              "--noise", "A:amplitude:1", "--noise", "B:phase:1"],
    "esd": ["esd", "--lambda", "4", "--t-max", "2",
            "--noise", "A:amplitude:1", "--noise", "B:phase:1"],
    "diagram": ["diagram", "--panel", "iii", "--resolution", "8"],
    # 10 RK4 steps at the default dt
    "additivity": ["additivity", "--t-max", "1e-3", "--samples", "3"],
}
SLOTS = {
    "trace": {"--lambda": FLOATS, "--t-max": FLOATS, "--samples": COUNTS,
              "--sweep-lambda": SWEEP_LAMBDAS, "--noise": FLOATS, "--state": FLOATS},
    "esd": {"--lambda": FLOATS, "--t-max": FLOATS, "--noise": FLOATS, "--state": FLOATS},
    "diagram": {"--resolution": COUNTS, "--rate": FLOATS, "--t-max": FLOATS},
    "additivity": {"--gamma1": FLOATS, "--gamma2": FLOATS, "--t-max": FLOATS,
                   "--samples": COUNTS, "--dt": FLOATS},
}
NOISE_SLOTS = ["A:amplitude", "B:amplitude", "A:phase", "B:phase"]


def _flag(flag, value, index):
    """argv for one slot; a --noise value is the rate of two equal specs,
    whose sum may overflow, and a --state value one entry of a valid state."""
    if flag == "--noise":
        spec = f"{NOISE_SLOTS[index % 4]}:{value}"
        return ["--noise", spec, "--noise", spec]
    if flag == "--state":
        entries = ["0.1", "0.4", "0.4", "0.1", "0.3", "0"]
        entries[index % 6] = value
        return ["--state=" + ",".join(entries)]  # "=": an entry may start with "-"
    return [flag, value]


def _fuzz_cases(rng):
    cases = []
    for command, slots in SLOTS.items():
        for flag, values in slots.items():
            for value in values:
                for index in range({"--noise": 4, "--state": 6}.get(flag, 1)):
                    cases.append(BASE[command] + _flag(flag, value, index))
    for _ in range(60):  # seeded combinations of several slots
        command = list(SLOTS)[rng.integers(len(SLOTS))]
        argv = list(BASE[command])
        for flag, values in SLOTS[command].items():
            if rng.random() < 0.5:
                argv += _flag(flag, values[rng.integers(len(values))], int(rng.integers(6)))
        if command in ("trace", "diagram") and rng.random() < 0.5:
            argv += ["--format", "json"]
        cases.append(argv)
    return cases


def _strict_output(argv, out):
    """stdout parses as strict JSON, or as CSV whose numeric fields are finite."""
    if argv[0] in ("esd", "additivity") or "json" in argv:
        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        json.loads(out, parse_constant=reject)
        return
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert header and all(len(row) == len(header) for row in rows)
    for row in rows:
        for field in row:
            if field and not field.isupper():  # class names are upper case
                assert math.isfinite(float(field)), field


def test_cli_inputs_exit_cleanly(rng):
    """Every (command, flag) slot at extreme values, one slot at a time, then
    seeded combinations: a documented exit code, one stderr line on failure,
    none on success, strict output, and a bounded wall time.  validate takes
    no value flags and is covered by its own tests."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning in the CLI would print to stderr
        for argv in _fuzz_cases(rng):
            code, out, err, seconds = run_cli(argv)
            assert code in (0, 1, 2, 3, 4), argv
            if code:
                assert out == "" and len(err.splitlines()) == 1, (argv, err)
                assert err.startswith("error: "), (argv, err)
            else:
                assert err == "", (argv, err)
                _strict_output(argv, out)
            assert seconds < 5.0, (argv, seconds)
