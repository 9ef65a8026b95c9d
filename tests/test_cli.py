import gzip
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esdlab
from esdlab import NoiseSpec, XState
from esdlab.cli import ConfigError, RunConfig, main

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"
COMBINED = ["--noise", "A:amplitude:1", "--noise", "B:amplitude:1",
            "--noise", "A:phase:1", "--noise", "B:phase:1"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_csv_shape_and_constant_without_noise(capsys):
    code, out, _ = run_cli(
        ["trace", "--lambda", "4", "--samples", "5", "--t-max", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,concurrence"
    assert len(lines) == 6
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(abs(v - 8 / 9) < 1e-15 for v in values)


def test_trace_phase_only_has_constant_ratio(capsys):
    code, out, _ = run_cli(
        ["trace", "--lambda", "4", "--samples", "6", "--t-max", "2.5",
         "--noise", "A:phase:1", "--noise", "B:phase:1"], capsys)
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    ratios = [b / a for a, b in zip(values, values[1:])]
    assert all(abs(r - math.exp(-0.5)) < 1e-12 for r in ratios)


def test_trace_combined_hits_zero_and_stays(capsys):
    code, out, _ = run_cli(
        ["trace", "--lambda", "4", "--samples", "100", "--t-max", "2"]
        + COMBINED, capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for t_str, c_str in rows:
        t, c = float(t_str), float(c_str)
        if t >= 0.674:
            assert c == 0.0
        elif t <= 0.673:
            assert c > 0.0


def test_trace_sweep_lambda_header(capsys):
    code, out, _ = run_cli(
        ["trace", "--sweep-lambda", "4", "--samples", "3", "--t-max", "1"]
        + COMBINED, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,t,concurrence"
    assert len(lines) == 1 + 4 * 3
    lams = {float(line.split(",")[0]) for line in lines[1:]}
    assert lams == {1.0, 2.0, 3.0, 4.0}


def test_trace_deterministic_output(tmp_path, capsys):
    args = ["trace", "--lambda", "3.5", "--samples", "20", "--t-max", "3"] + COMBINED
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert b"\r" not in first.read_bytes()


def test_esd_report_sudden_death(capsys):
    code, out, _ = run_cli(
        ["esd", "--lambda", "4", "--t-max", "20"] + COMBINED, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "SUDDEN_DEATH"
    assert abs(report["t_star"] - 0.673460816143141) < 1e-8


def test_esd_report_exponential(capsys):
    code, out, _ = run_cli(
        ["esd", "--lambda", "4", "--t-max", "20",
         "--noise", "A:phase:1", "--noise", "B:phase:1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "EXPONENTIAL"
    assert "t_star" not in report


def test_esd_separable_exit_code(capsys):
    code, _, err = run_cli(
        ["esd", "--state", "0.25,0.25,0.25,0.25,0,0", "--noise", "A:phase:1"],
        capsys)
    assert code == 3
    assert "separable" in err


def test_esd_without_t_max_scans_to_the_default_horizon(capsys):
    # 20 / 0.1 = 200; the fixed 5.0 it once scanned to read EXPONENTIAL here
    noise = [arg for q in "AB" for kind in ("amplitude", "phase")
             for arg in ("--noise", f"{q}:{kind}:0.1")]
    code, out, err = run_cli(["esd", "--lambda", "4"] + noise, capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    specs = [NoiseSpec(q, kind, 0.1) for q in "AB" for kind in ("amplitude", "phase")]
    want = esdlab.classify(esdlab.lambda_state(4.0), specs).t_star
    assert report == {"class": "SUDDEN_DEATH", "t_max": 200.0, "t_star": want}
    code, out, _ = run_cli(["esd", "--lambda", "4", "--t-max", "5"] + noise, capsys)
    assert json.loads(out) == {"class": "EXPONENTIAL", "t_max": 5.0}


def test_esd_rate_whose_horizon_overflows_exits_2(capsys):
    # 20 / 5e-324 is inf; the horizon is checked before the separable probe
    for state in (["--lambda", "4"], ["--state", "0.25,0.25,0.25,0.25,0,0"]):
        code, out, err = run_cli(["esd", *state, "--noise", "A:phase:5e-324"], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: rate 5e-324")
        assert "--t-max" in err
    code, out, _ = run_cli(["esd", "--lambda", "4", "--noise", "A:phase:5e-324",
                            "--t-max", "1"], capsys)
    assert code == 0 and json.loads(out) == {"class": "EXPONENTIAL", "t_max": 1.0}


def test_diagram_small_grid(capsys):
    code, out, _ = run_cli(
        ["diagram", "--panel", "ii", "--resolution", "8"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,z,class,t_star"
    assert len(lines) == 1 + 64
    classes = {line.split(",")[2] for line in lines[1:]}
    assert "SUDDEN_DEATH" not in classes
    assert "INVALID" in classes


def test_diagram_resolution_guard(capsys):
    code, _, err = run_cli(["diagram", "--panel", "i", "--resolution", "7"], capsys)
    assert code == 2
    assert "resolution" in err


def test_additivity_report(capsys):
    code, out, _ = run_cli(
        ["additivity", "--gamma1", "3", "--gamma2", "0.1", "--t-max", "5",
         "--samples", "10"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_dev_kraus"] <= 1e-10
    assert report["max_dev_lindblad"] <= 1e-6
    assert len(report["times"]) == 10


def test_additivity_zero_rates(capsys):
    code, out, _ = run_cli(
        ["additivity", "--gamma1", "0", "--gamma2", "0", "--samples", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(v == 0.5 for v in report["kraus"])
    assert all(v == 0.5 for v in report["analytic"])


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = {
        "lambda": 4.0,
        "noises": [{"target": "A", "kind": "phase", "rate": 1.0},
                   {"target": "B", "kind": "phase", "rate": 1.0}],
        "t_max": 2.0,
        "samples": 4,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = run_cli(["trace", "--config", str(path)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 5
    code, out, _ = run_cli(
        ["trace", "--config", str(path), "--samples", "7"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 8


def test_config_round_trip():
    data = {
        "state": {"a": 0.2, "b": 0.3, "c": 0.4, "d": 0.1, "z_re": 0.05, "z_im": -0.02},
        "noises": [{"target": "A", "kind": "amplitude", "rate": 1.5},
                   {"target": "B", "kind": "phase", "rate": 0.25}],
        "t_max": 7.5,
        "samples": 33,
    }
    assert RunConfig.from_json_dict(data) == RunConfig(
        state=XState(0.2, 0.3, 0.4, 0.1, complex(0.05, -0.02)),
        noises=(NoiseSpec("A", "amplitude", 1.5), NoiseSpec("B", "phase", 0.25)),
        t_max=7.5,
        samples=33,
    )
    data = {"lambda": 3.25, "noises": [], "t_max": 1.0, "samples": 2}
    assert RunConfig.from_json_dict(data) == RunConfig(lam=3.25, t_max=1.0, samples=2)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"lambda": 4.0, "bogus": 1})
    with pytest.raises(ConfigError):  # no command that reads a config integrates
        RunConfig.from_json_dict({"lambda": 4.0, "dt": 1e-4})
    with pytest.raises(ConfigError):
        RunConfig(lam=4.0, samples=1)
    with pytest.raises(ConfigError):
        RunConfig(state=XState(0.25, 0.25, 0.25, 0.25, 0.0), lam=2.0)


def test_invalid_inputs_exit_2(capsys):
    assert run_cli(["trace", "--lambda", "9"], capsys)[0] == 2
    assert run_cli(["trace", "--lambda", "4", "--noise", "A:bogus:1"], capsys)[0] == 2
    assert run_cli(["trace", "--state", "1,2,3"], capsys)[0] == 2
    assert run_cli(["trace"], capsys)[0] == 2  # no state configured
    with pytest.raises(SystemExit) as exc:  # esd only emits JSON: no --format
        main(["esd", "--lambda", "4", "--format", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["esd", "--lambda", "4", "--t-max", "inf"] + COMBINED,
                 id="esd-tmax-inf"),
    pytest.param(["trace", "--lambda", "4", "--t-max", "nan"], id="trace-tmax-nan"),
    pytest.param(["diagram", "--panel", "i", "--rate", "nan"], id="diagram-rate-nan"),
    pytest.param(["diagram", "--panel", "i", "--rate", "inf"], id="diagram-rate-inf"),
    pytest.param(["additivity", "--gamma1", "nan"], id="additivity-gamma1-nan"),
    pytest.param(["additivity", "--dt", "0"], id="additivity-dt-zero"),
    pytest.param(["additivity", "--dt", "-1"], id="additivity-dt-negative"),
    # rejected before the first RK4 step: 5e9 steps, an overflowing step
    # matrix, h times the rate 3 > 2.785, a doubled phase rate of inf
    pytest.param(["additivity", "--dt", "1e-9"], id="additivity-dt-too-many-steps"),
    pytest.param(["additivity", "--gamma1", "1e300"], id="additivity-gamma1-overflow"),
    pytest.param(["additivity", "--gamma1", "3e4"], id="additivity-gamma1-unstable"),
    pytest.param(["additivity", "--gamma2", "1e308"], id="additivity-gamma2-inf-rate"),
])
def test_bad_numbers_exit_2_with_one_line(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if "--gamma2" in argv:
        assert "--gamma2" in err


def test_diagram_rate_whose_horizon_overflows_exits_2(capsys):
    # 20 / 5e-324 is inf: this exited 1 with a ValueError traceback
    argv = ["diagram", "--panel", "iii", "--resolution", "8", "--rate", "5e-324"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --rate 5e-324")
    code, out, _ = run_cli(argv + ["--t-max", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == 65


def test_non_finite_config_values_exit_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    for key, value in (("t_max", math.inf), ("dt", math.nan), ("lambda", math.nan),
                       ("samples", math.inf)):
        path.write_text(json.dumps({"lambda": 4.0, key: value}), encoding="utf-8")
        code, out, err = run_cli(["trace", "--config", str(path)], capsys)
        assert code == 2, key
        assert out == "" and len(err.splitlines()) == 1


NOISE_ROW = {"target": "A", "kind": "phase", "rate": 1.0}
STATE_BLOCK = {"a": 0.1, "b": 0.4, "c": 0.4, "d": 0.1, "z_re": 0.3, "z_im": 0.0}


@pytest.mark.parametrize("data, message", [
    ([{"lambda": 4.0}], "configuration must be a JSON object"),
    ({"lambda": 4.0, "noises": 3}, "noises must be an array, got 3"),
    ({"lambda": 4.0, "noises": None}, "noises must be an array, got null"),
    ({"lambda": 4.0, "noises": True}, "noises must be an array, got true"),
    ({"lambda": 4.0, "noises": "A:phase:1"}, 'noises must be an array, got "A:phase:1"'),
    ({"lambda": 4.0, "noises": NOISE_ROW}, "noises must be an array, got {"),
    ({"lambda": True}, "lambda must be a number, got true"),
    ({"lambda": 4.0, "t_max": True}, "t_max must be a number, got true"),
    ({"lambda": 4.0, "samples": False}, "samples must be a number, got false"),
    ({"lambda": 4.0, "noises": [dict(NOISE_ROW, rate=True)]},
     "noise rate must be a number, got true"),
    ({"state": dict(STATE_BLOCK, a=True)}, "state a must be a number, got true"),
    ({"state": dict(STATE_BLOCK, z_im=False)}, "state z_im must be a number, got false"),
    ({"state": {"a": 0.1}}, "bad state block: 'b'"),
    ({"state": dict(STATE_BLOCK, a=0.9)}, "bad state block: populations must sum to 1"),
    ({"lambda": 4.0, "noises": [{"target": "A", "kind": "phase"}]}, "bad noise entry"),
    ({"lambda": 4.0, "noises": [dict(NOISE_ROW, kind="spin")]}, "bad noise entry"),
], ids=["not_object", "noises_number", "noises_null", "noises_true", "noises_string",
        "noises_object", "lambda_true", "t_max_true", "samples_false", "rate_true",
        "state_true", "state_false", "state_missing_key", "state_invalid",
        "noise_missing_rate", "noise_bad_kind"])
def test_config_value_types_exit_2(data, message, tmp_path, capsys):
    # a number, null or true for "noises" was a TypeError traceback (exit 1),
    # a string or object was iterated, and a JSON boolean passed as 1 or 0
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in (["trace", "--samples", "2"], ["esd", "--t-max", "1"]):
        code, out, err = run_cli(command + ["--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: " + message)


def test_config_file_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"lambda": 4.0,', encoding="utf-8")
    code, out, err = run_cli(["esd", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: config file is not valid JSON")


@pytest.mark.parametrize("noise", ["A:phase", "A:phase:1:2", "A"])
def test_malformed_noise_flag_exits_2(noise, capsys):
    code, out, err = run_cli(["esd", "--lambda", "4", "--noise", noise], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err == f"error: noise must look like TARGET:KIND:RATE, got {noise!r}\n"


def test_reports_are_strict_json(capsys):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    for argv in (["esd", "--lambda", "4", "--t-max", "20"] + COMBINED,
                 ["additivity", "--samples", "5"]):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        json.loads(out, parse_constant=reject)


def test_missing_config_file_exit_1(capsys):
    code, _, err = run_cli(
        ["trace", "--lambda", "4", "--config", "/no/such/file.json"], capsys)
    assert code == 1


def test_unwritable_output_exit_1(capsys):
    code, _, _ = run_cli(
        ["trace", "--lambda", "4", "--samples", "2",
         "--output", "/no/such/dir/out.csv"], capsys)
    assert code == 1


# every (command, flag) that was once accepted but changed nothing; each
# value made the command exit 0 while the flag was accepted
REMOVED_FLAGS = [
    (["trace", "--lambda", "4", "--samples", "2"], "--seed", "7"),
    (["esd", "--lambda", "4", "--noise", "A:phase:1"], "--seed", "7"),
    (["diagram", "--panel", "ii", "--resolution", "8"], "--seed", "7"),
    (["additivity", "--samples", "2"], "--seed", "7"),
    (["validate"], "--seed", "7"),
    (["diagram", "--panel", "ii", "--resolution", "8"], "--config", "/no/such.json"),
    (["additivity", "--samples", "2"], "--config", "/no/such.json"),
    (["validate"], "--config", "/no/such.json"),
    (["trace", "--lambda", "4", "--samples", "2"], "--dt", "1e-4"),
    (["esd", "--lambda", "4", "--noise", "A:phase:1"], "--dt", "1e-4"),
    (["esd", "--lambda", "4", "--noise", "A:phase:1"], "--samples", "5"),
    (["esd", "--lambda", "4", "--noise", "A:phase:1"], "--format", "json"),
    (["additivity", "--samples", "2"], "--format", "json"),
    (["validate"], "--format", "json"),
]


@pytest.mark.parametrize("argv,flag,value", REMOVED_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in REMOVED_FLAGS])
def test_removed_flags_exit_2(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_additivity_coarse_stable_step_accepted(capsys):
    # the one step per span is h = 5/19, and h times the rate 3 is 0.79
    code, out, _ = run_cli(
        ["additivity", "--gamma1", "3", "--gamma2", "0.1", "--dt", "2"], capsys)
    assert code == 0
    assert len(json.loads(out)["lindblad"]) == 20


def test_validate_passes(capsys):
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "kraus_vs_lindblad" in names
    assert all(c["pass"] for c in report["checks"])


def test_validate_failure_exit_code(capsys, monkeypatch):
    import esdlab.checks as checks

    law = checks.amplitude_elements

    def shifted(lam, rate, t):
        z, a, d = law(lam, rate, t)
        return z + 1e-3, a, d

    monkeypatch.setattr(checks, "amplitude_elements", shifted)
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 4
    report = json.loads(out)
    assert report["pass"] is False
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "amplitude_noise_elements" in failing


def test_console_entry_point():
    # the child imports the same esdlab as this test, installed or not
    src = str(Path(esdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "esdlab.cli", "esd", "--lambda", "4",
         "--t-max", "20"] + COMBINED,
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"] == "SUDDEN_DEATH"


@pytest.mark.parametrize("case", [
    "trace_phase", "trace_sweep", "esd", "diagram_i", "diagram_ii", "diagram_iii",
])
def test_golden_cases_are_byte_identical(case, capsys):
    """The stored golden CLI outputs, reproduced in process byte for byte.
    ``additivity`` and ``validate``, which spend about 0.3 s in the RK4
    integrator, are left to bench/golden.py."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text())[case]
    code, out, _ = run_cli(manifest["argv"], capsys)
    assert code == manifest["exit_code"]
    assert out.encode() == gzip.decompress((GOLDEN / f"{case}.out.gz").read_bytes())
