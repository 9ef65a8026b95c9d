"""The input contract: each time grid and summed rate is checked where it
enters, every bad input ends in one ValueError (library) or in one stderr
line with a documented exit code (CLI), and no warning escapes."""

import dataclasses
import io
import itertools
import json
import math
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from esdlab import (
    DecayKind,
    DiagramCell,
    NoiseSpec,
    XState,
    amplitude_concurrence,
    amplitude_elements,
    classify,
    coherence_factor,
    combined_concurrence,
    combined_death_time,
    diagram_grid,
    esd_time,
    evolve_x,
    integrate_path,
    lambda_state,
    phase_concurrence,
    trace_concurrence,
    validate_density,
)
from esdlab.channels import check_times, evolve_states, noise_channel, transfer_states
from esdlab.cli import main
from esdlab.checks import additivity_series, equivalence_state

# two specs whose rates are finite but whose sum overflows to inf
OVERFLOWING = (NoiseSpec("A", "amplitude", 1e308), NoiseSpec("A", "amplitude", 1e308))
SUMMED = "summed amplitude rate of qubit A must be finite"
# finite summed rates whose total overflows
AMPLITUDE_PAIR = (NoiseSpec("A", "amplitude", 1e308), NoiseSpec("B", "amplitude", 1e308))
ALL_FOUR_MAX = tuple(NoiseSpec(q, kind, sys.float_info.max)
                     for q in "AB" for kind in ("amplitude", "phase"))


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
    (ALL_FOUR_MAX, True),
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


@pytest.mark.parametrize("specs", [AMPLITUDE_PAIR, ALL_FOUR_MAX],
                         ids=["amplitude_pair", "all_four_max"])
def test_finite_rates_whose_total_overflows(specs):
    # each summed rate is finite, but evolve_x's coherence exponent and the
    # RK4 generator's entries add up to inf: inf * 0 was nan at t = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.0, -0.0):
            assert evolve_x(lambda_state(4.0), specs, t) == lambda_state(4.0)
        with pytest.raises(ValueError, match="overflow the master-equation generator"):
            integrate_path(lambda_state(4.0).to_density(), specs, [0.0, 1e-3])


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


STATE = "--state=0.1,0.4,0.4,0.1,0.3,0"


@pytest.mark.parametrize("argv, flags", [
    (["esd", STATE, "--lambda", "4", "--t-max", "5"], ("--state", "--lambda")),
    (["trace", "--lambda", "4", STATE], ("--state", "--lambda")),
    (["trace", "--sweep-lambda", "2", "--lambda", "1"], ("--sweep-lambda", "--lambda")),
    (["trace", "--sweep-lambda", "2", STATE], ("--sweep-lambda", "--state")),
], ids=["esd_state_lambda", "trace_state_lambda", "sweep_lambda", "sweep_state"])
def test_cli_contradictory_state_flags_exit_2(argv, flags, tmp_path):
    noise = ["--noise", "A:phase:1", "--noise", "A:amplitude:1"]
    _one_line_error(run_cli(argv + noise), *flags)
    path = tmp_path / "run.json"  # the file's own state or lambda changes nothing
    path.write_text(json.dumps({"lambda": 2.0}), encoding="utf-8")
    _one_line_error(run_cli(argv + noise + ["--config", str(path)]), *flags)


@pytest.mark.parametrize("command", [["esd"], ["trace", "--samples", "3"]])
def test_cli_state_flag_overrides_config_file(command, tmp_path):
    noise = ["--noise", "A:phase:1", "--noise", "A:amplitude:1"]
    block = {"a": 0.1, "b": 0.4, "c": 0.4, "d": 0.1, "z_re": 0.3, "z_im": 0.0}
    path = tmp_path / "run.json"
    for data, flag in (({"lambda": 2.0}, [STATE]), ({"state": block}, ["--lambda", "4"])):
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err, _ = run_cli(command + noise + flag + ["--config", str(path)])
        assert (code, err) == (0, "")
        assert out == run_cli(command + noise + flag)[1]


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


def _base(command, flags):
    """BASE of a command, without its --lambda when a --state or --sweep-lambda
    slot sets the initial state, since that pair exits 2."""
    argv = list(BASE[command])
    if {"--state", "--sweep-lambda"} & set(flags):
        at = argv.index("--lambda")
        del argv[at:at + 2]
    return argv


def _fuzz_cases(rng):
    cases = []
    for command, slots in SLOTS.items():
        for flag, values in slots.items():
            for value in values:
                for index in range({"--noise": 4, "--state": 6}.get(flag, 1)):
                    cases.append(_base(command, [flag]) + _flag(flag, value, index))
    for _ in range(60):  # seeded combinations of several slots
        command = list(SLOTS)[rng.integers(len(SLOTS))]
        moved = {flag: _flag(flag, values[rng.integers(len(values))], int(rng.integers(6)))
                 for flag, values in SLOTS[command].items() if rng.random() < 0.5}
        argv = _base(command, moved) + [arg for parts in moved.values() for arg in parts]
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


# The library half: each float argument of the public functions at the CLI
# sweep's values.  A route's arguments are floats (or None for an optional
# horizon); noise routes pass their first four as the rates of NOISE_SLOTS.
VALUES = [float(v) for v in FLOATS]
RATES = (0.0, 0.0, 1.0, 1.0)  # phase noise alone: no death, no bisection


# a general (not X) state with every element populated and concurrence
# about 0.5: equivalence_state() is separable, so esd_time refuses it
_PSI = np.array([0.7, 0.3, 0.3, math.sqrt(0.33)])
ENTANGLED = validate_density(0.9 * np.outer(_PSI, _PSI) + 0.025 * np.eye(4))


def _specs(args):
    return tuple(NoiseSpec(*slot.split(":"), rate) for slot, rate in zip(NOISE_SLOTS, args))


LIBRARY = {  # name: (call, base arguments, positions of two or more rates moved together)
    "coherence_factor": (coherence_factor, (1.0, 1.0, 0.0), (0, 1)),
    "phase_concurrence": (phase_concurrence, (4.0, 1.0, 0.0), ()),
    "amplitude_elements": (amplitude_elements, (4.0, 1.0, 0.0), ()),
    "amplitude_concurrence": (amplitude_concurrence, (4.0, 1.0, 0.0), ()),
    "combined_concurrence": (combined_concurrence, (4.0, 1.0, 1.0, 0.0), (1, 2)),
    "combined_death_time": (combined_death_time, (4.0, 1.0, 1.0), (1, 2)),
    "lambda_state": (lambda_state, (4.0,), ()),
    "XState": (XState, (0.1, 0.4, 0.4, 0.1, 0.3), ()),
    "evolve_x": (lambda *r: evolve_x(lambda_state(4.0), _specs(r), r[4]), RATES + (0.0,), range(4)),
    "trace_x": (lambda *r: trace_concurrence(lambda_state(4.0), _specs(r), r[4:]),
                RATES + (0.0, 1.0), range(4)),
    "trace_general": (lambda *r: trace_concurrence(equivalence_state(), _specs(r), r[4:]),
                      RATES + (0.0, 1.0), range(4)),
    "esd_time_x": (lambda *r: esd_time(lambda_state(4.0), _specs(r), r[4]), RATES + (2.0,),
                   range(4)),
    "esd_time_general": (lambda *r: esd_time(ENTANGLED, _specs(r), r[4]),
                         RATES + (2.0,), range(4)),
    "classify": (lambda *r: classify(lambda_state(4.0), _specs(r), r[4]), RATES + (None,),
                 range(4)),
    "diagram_grid": (lambda *r: diagram_grid([r[4], 0.2], [r[5], 0.3], _specs(r), r[6]),
                     RATES + (0.0, 0.0, None), range(4)),
    "integrate_path": (lambda *r: integrate_path(lambda_state(4.0).to_density(), _specs(r),
                                                 r[4:6], r[6]),
                       RATES + (0.0, 1e-3, 1e-4), range(4)),  # 10 RK4 steps at the base dt
    "additivity_series": (lambda *r: additivity_series(r[0], r[1], r[2:4], r[4]),
                          (1.0, 1.0, 0.0, 1e-3, 1e-4), (0, 1)),
}


def _library_cases(rng):
    """Each argument alone at each value, the rates together at each value,
    then seeded combinations in which each argument moves with chance 1/2."""
    cases = []
    for name, (call, base, rates) in LIBRARY.items():
        moves = [{i: v} for i in range(len(base)) for v in VALUES]
        moves += [{i: v for i in rates} for v in VALUES if rates]
        moves += [{i: VALUES[rng.integers(len(VALUES))] for i in range(len(base))
                   if rng.random() < 0.5} for _ in range(8)]
        for move in moves:
            cases.append((name, call, tuple(move.get(i, b) for i, b in enumerate(base))))
    return cases


def _numbers(out):
    """Every number in a library result, but the a and z INVALID cells echo."""
    if isinstance(out, DiagramCell) and out.kind is DecayKind.INVALID:
        return []
    if dataclasses.is_dataclass(out):
        return _numbers([getattr(out, f.name) for f in dataclasses.fields(out)])
    if isinstance(out, (list, tuple)):
        return [x for item in out for x in _numbers(item)]
    if isinstance(out, dict):
        return _numbers(list(out.values()))
    if out is None or isinstance(out, (str, DecayKind)):
        return []
    return np.ravel(out).tolist()


def test_library_inputs_fail_only_with_value_error(rng):
    """Every float argument of the library at extreme values: a call returns
    finite numbers or raises one ValueError (SeparableStateError is one), and
    no warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call, args in _library_cases(rng):
            try:
                out = call(*args)
            except ValueError:
                continue
            assert np.isfinite(_numbers(out)).all(), (name, args, out)


# The must-succeed half: inputs inside each route's domain.  Each argument of
# a LIBRARY route is a rate (R), the elapsed time or a grid's first time (T),
# a lambda in (0, 4] (L), an RK4 step (D), or is held at its base value (-).
KINDS_OF = {
    "coherence_factor": "RRT", "phase_concurrence": "LRT", "amplitude_elements": "LRT",
    "amplitude_concurrence": "LRT", "combined_concurrence": "LRRT",
    "combined_death_time": "LRR", "lambda_state": "L", "XState": "-----",
    "evolve_x": "RRRRT", "trace_x": "RRRRT-", "trace_general": "RRRRT-",
    "esd_time_x": "RRRR-", "esd_time_general": "RRRR-", "classify": "RRRR-",
    "diagram_grid": "RRRR---", "integrate_path": "RRRRT-D", "additivity_series": "RRT-D",
}
GOOD = {"R": [0.0, -0.0, 5e-324, 1e-308, 1e-300, 1.0, 1e300, sys.float_info.max],
        "T": [0.0, -0.0], "L": [5e-324, 1e-300, 1.0, 3.0, 4.0], "D": [1.0, 5e-324]}
# a positive rate below this has no finite default horizon 20 / rate
TINY = 20.0 / sys.float_info.max


def _good_cases():
    """Each rate alone and the rates together at each GOOD rate, crossed
    with t = 0 and -0.0, then each lambda and each RK4 step alone."""
    cases = []
    for name, kinds in KINDS_OF.items():
        call, base, _ = LIBRARY[name]
        slots = {kind: [i for i, k in enumerate(kinds) if k == kind] for kind in GOOD}
        rate_moves = [{}] + [{i: v} for i in slots["R"] for v in GOOD["R"]]
        if len(slots["R"]) > 1:
            rate_moves += [dict.fromkeys(slots["R"], v) for v in GOOD["R"]]
        time_moves = [{}] + [{i: v} for i in slots["T"] for v in GOOD["T"]]
        moves = [{**rates, **times} for rates, times in itertools.product(rate_moves, time_moves)]
        moves += [{i: v} for kind in "LD" for i in slots[kind] for v in GOOD[kind]]
        cases += [(name, call, tuple(move.get(i, b) for i, b in enumerate(base))) for move in moves]
    return cases


def _refusal(name, args):
    """The message with which a route's own contract refuses an input of
    _good_cases, or None when the route must return."""
    rates = [arg for arg, kind in zip(args, KINDS_OF[name]) if kind == "R"]
    if name == "amplitude_concurrence" and args[0] < 3:
        return "closed form holds for 3 <= lambda <= 4"
    if name in ("classify", "diagram_grid"):  # no horizon given
        if any(0 < rate < TINY for rate in rates):
            return "too small for the default horizon 20 / rate"
    # the bracket lam exp(-rate_phase t) - sqrt(w2^2 + 8 w2) stays above
    # lam exp(-rate_phase t) - 3, so for lam > 3 its root t* > ln(lam / 3) / rate_phase
    if name == "combined_death_time" and args[0] > 3 and min(rates) > 0:
        if math.log(args[0] / 3) / rates[1] > sys.float_info.max:
            return "past the largest float"
    if name == "additivity_series" and 2 * rates[1] == math.inf:
        return r"2 \* gamma2 must be finite and >= 0, got inf"  # the RK4 route's phase rate
    if name == "integrate_path" and all(rate == sys.float_info.max for rate in rates):
        return "noise rates overflow the master-equation generator"
    if name in ("integrate_path", "additivity_series"):
        if args[-1] == 5e-324:  # a span of 1e-3
            return "needs more than 1000000 RK4 steps"
        if max(rates) >= 1e300:  # at dt = 1e-4
            return "exceeds the stability limit"
    return None


def test_additivity_series_names_a_bad_rate():
    for name, bad in itertools.product(("gamma1", "gamma2"), (-1.0, -5e-324, math.nan, math.inf)):
        rates = {"gamma1": 1.0, "gamma2": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, got {bad!r}$"):
            additivity_series(rates["gamma1"], rates["gamma2"], [0.0, 1e-3])


def test_library_inputs_in_the_domain_succeed():
    """A valid state, finite summed rates and t = 0 or -0.0 give finite
    numbers with no warning, but where _refusal names the route's own
    contract, which must then raise its ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call, args in _good_cases():
            refusal = _refusal(name, args)
            if refusal:
                with pytest.raises(ValueError, match=refusal):
                    call(*args)
                continue
            try:
                out = call(*args)
            except Exception as exc:
                pytest.fail(f"{name}{args} raised {exc!r}")
            assert np.isfinite(_numbers(out)).all(), (name, args, out)
