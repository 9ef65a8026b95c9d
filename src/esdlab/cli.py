"""Command-line interface: evolutions, sweeps and validation reports.

Subcommands: trace, esd, diagram, additivity, validate.  The run
configuration of trace and esd comes from an optional JSON file
(``--config``) with flags overriding file values.  Exit codes: 0 success,
1 I/O failure, 2 invalid configuration, 3 separable initial state,
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channels import DEFAULT_DT, NoiseSpec, _finite, _shown, fold_rates
from .checks import additivity_series, run_validation
from .concurrence import (
    DecayKind,
    SeparableStateError,
    XState,
    _horizon,
    diagram_grid,
    esd_time,
    lambda_state,
    trace_concurrence,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_SEPARABLE = 3
EXIT_VALIDATION = 4

_CONFIG_KEYS = {"state", "lambda", "noises", "t_max", "samples"}


class ConfigError(Exception):
    """The run configuration is malformed or inconsistent."""


def _fmt(x: float) -> str:
    """Fixed 17-significant-digit scientific notation, for stable golden files."""
    return f"{x:.16e}"


@dataclass(frozen=True)
class RunConfig:
    """Source of run parameters, read from a JSON object by ``from_json_dict``."""

    state: Optional[XState] = None
    lam: Optional[float] = None
    noises: tuple = ()
    t_max: Optional[float] = None  # None: trace ends at 5.0, esd at its default horizon
    samples: int = 100

    def __post_init__(self):
        if self.t_max is not None and not (_finite(self.t_max) and self.t_max > 0):
            raise ConfigError(f"t_max must be finite and > 0, got {_shown(self.t_max, repr)}")
        if self.lam is not None and not _finite(self.lam):
            raise ConfigError(f"lambda must be finite, got {_shown(self.lam, repr)}")
        if not isinstance(self.samples, int) or self.samples < 2:
            raise ConfigError(f"samples must be an integer >= 2, got {self.samples!r}")
        if self.state is not None and self.lam is not None:
            raise ConfigError("give either a state or a lambda value, not both")
        object.__setattr__(self, "noises", tuple(self.noises))
        fold_rates(self.noises)

    def initial_state(self) -> XState:
        if self.state is not None:
            return self.state
        if self.lam is not None:
            return lambda_state(self.lam)
        raise ConfigError("no initial state configured (need state or lambda)")

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        given = {key: _number(data[key], key) for key in ("t_max", "samples") if key in data}
        if "lambda" in data:
            given["lam"] = _number(data["lambda"], "lambda")
        if "state" in data:
            s = data["state"]
            try:
                a, b, c, d, z_re, z_im = (_number(s[k], "state " + k)
                                          for k in ("a", "b", "c", "d", "z_re", "z_im"))
                given["state"] = XState(a, b, c, d, complex(z_re, z_im))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad state block: {exc}") from exc
        rows = data.get("noises", [])
        if not isinstance(rows, list):
            raise ConfigError(f"noises must be an array, got {json.dumps(rows)}")
        noises = []
        for row in rows:
            try:
                rate = _number(row["rate"], "noise rate")
                noises.append(NoiseSpec(row["target"], row["kind"], rate))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad noise entry {row!r}: {exc}") from exc
        return cls(noises=tuple(noises), **given)


def _number(value, name: str):
    """A number of the config file as it is, or a ConfigError naming it: JSON
    true and false are not numbers, though Python's bool is an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {json.dumps(value)}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} is an integer beyond the float range")
    return value


def _parse_noise(text: str) -> NoiseSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"noise must look like TARGET:KIND:RATE, got {text!r}")
    target, kind, rate = parts
    try:
        return NoiseSpec(target, kind, float(rate))
    except ValueError as exc:
        raise ConfigError(f"bad noise {text!r}: {exc}") from exc


def _parse_state(text: str) -> XState:
    parts = text.split(",")
    if len(parts) != 6:
        raise ConfigError(f"state must be 'a,b,c,d,z_re,z_im', got {text!r}")
    a, b, c, d, zre, zim = (float(p) for p in parts)
    return XState(a, b, c, d, complex(zre, zim))


def load_config(args) -> RunConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # bad JSON, bytes that are not UTF-8, an int too long to parse
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    cfg = RunConfig.from_json_dict(data)
    # flags override file values
    flags = {key: getattr(args, key, None) for key in ("t_max", "samples")}
    flags = {key: value for key, value in flags.items() if value is not None}
    state, lam = getattr(args, "state", None), getattr(args, "lam", None)
    if state is not None and lam is not None:
        raise ConfigError("give either --state or --lambda, not both")
    if state is not None or lam is not None:
        flags.update(state=None if state is None else _parse_state(state), lam=lam)
    if getattr(args, "noise", None):
        flags["noises"] = tuple(_parse_noise(n) for n in args.noise)
    return replace(cfg, **flags)


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _table(args, header: list[str], rows: list[list[str]]):
    if args.format == "json":
        _emit_json(args, {"header": header, "rows": rows})
    else:
        lines = [",".join(header)] + [",".join(r) for r in rows]
        _emit(args, "\n".join(lines) + "\n")


def _grid(stop: float, num: int, flags: str) -> np.ndarray:
    """num ascending points from 0 to stop, or a ConfigError naming ``flags``."""
    try:
        # the scaling may overflow at the last point, which is then set to stop
        with np.errstate(over="ignore"):
            grid = np.linspace(0.0, stop, num)
    except (ValueError, IndexError, MemoryError) as exc:  # numpy's refusals of a huge num
        raise ConfigError(f"{flags}: {num} points do not fit in one array") from exc
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{flags}: {num} points from 0 to {stop!r} do not ascend")
    return grid


def cmd_trace(args) -> int:
    for flag, value in (("--lambda", args.lam), ("--state", args.state)):
        if args.sweep_lambda and value is not None:
            raise ConfigError(f"give either --sweep-lambda or {flag}, not both")
    cfg = load_config(args)
    t_max = 5.0 if cfg.t_max is None else cfg.t_max
    times = _grid(t_max, cfg.samples, "--t-max and --samples")
    if args.sweep_lambda:
        if args.sweep_lambda < 1:
            raise ConfigError("--sweep-lambda needs at least one value")
        rows = []
        for k in range(1, args.sweep_lambda + 1):
            lam = 4.0 * k / args.sweep_lambda
            trace = trace_concurrence(lambda_state(lam), cfg.noises, times)
            rows.extend(
                [_fmt(lam), _fmt(t), _fmt(v)]
                for t, v in zip(trace.times, trace.values)
            )
        _table(args, ["lambda", "t", "concurrence"], rows)
        return EXIT_OK
    trace = trace_concurrence(cfg.initial_state(), cfg.noises, times)
    rows = [[_fmt(t), _fmt(v)] for t, v in zip(trace.times, trace.values)]
    _table(args, ["t", "concurrence"], rows)
    return EXIT_OK


def cmd_esd(args) -> int:
    cfg = load_config(args)
    state = cfg.initial_state()
    try:  # checked before the separable probe, as in esd_time
        t_max = _horizon(cfg.noises, cfg.t_max)
    except ValueError as exc:
        raise ConfigError(f"{exc}; give --t-max") from exc
    t_star = esd_time(state, cfg.noises, t_max)  # raises on a separable state
    report: dict = {"t_max": t_max}
    if t_star is None:
        report["class"] = DecayKind.EXPONENTIAL.value
    else:
        report["class"] = DecayKind.SUDDEN_DEATH.value
        report["t_star"] = t_star
    _emit_json(args, report)
    return EXIT_OK


_PANELS = {"i": ("amplitude",), "ii": ("phase",), "iii": ("amplitude", "phase")}


def cmd_diagram(args) -> int:
    if args.resolution < 8:
        raise ConfigError(f"resolution must be >= 8, got {args.resolution}")
    if args.rate <= 0:
        raise ConfigError(f"rate must be > 0, got {args.rate}")
    if args.t_max is not None and args.t_max <= 0:
        raise ConfigError(f"--t-max must be > 0, got {args.t_max}")
    specs = [NoiseSpec(q, kind, args.rate) for kind in _PANELS[args.panel] for q in "AB"]
    a_values = _grid(1.0, args.resolution, "--resolution")
    z_values = _grid(0.5, args.resolution, "--resolution")
    try:  # checked before the lattice, as in cmd_esd
        t_max = _horizon(specs, args.t_max)
    except ValueError as exc:
        raise ConfigError(f"--rate {args.rate!r} is too small for the default horizon "
                          "20 / rate; give --t-max") from exc
    cells = diagram_grid(a_values, z_values, specs, t_max)
    rows = [[_fmt(c.a), _fmt(c.z), c.kind.value, "" if c.t_star is None else _fmt(c.t_star)]
            for c in cells]
    _table(args, ["a", "z", "class", "t_star"], rows)
    return EXIT_OK


def cmd_additivity(args) -> int:
    if args.samples < 2:
        raise ConfigError("need at least two samples")
    if args.t_max <= 0:
        raise ConfigError(f"--t-max must be > 0, got {args.t_max}")
    if 2 * args.gamma2 == math.inf:
        raise ConfigError(f"--gamma2 {args.gamma2} is too large: the RK4 route "
                          "runs at the doubled phase rate 2 * gamma2, which overflows")
    times = _grid(args.t_max, args.samples, "--t-max and --samples")
    series = additivity_series(args.gamma1, args.gamma2, times, dt=args.dt)
    _emit_json(args, {"gamma1": args.gamma1, "gamma2": args.gamma2, **series})
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_validation()
    report = {
        "checks": [r.as_dict() for r in results],
        "pass": all(r.passed for r in results),
    }
    _emit_json(args, report)
    return EXIT_OK if report["pass"] else EXIT_VALIDATION


def _add_output(p: argparse.ArgumentParser, table: bool = False):
    p.add_argument("--output", help="output path (default: stdout)")
    if table:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_state_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="benchmark-family parameter in (0, 4]")
    p.add_argument("--state", help="X state as 'a,b,c,d,z_re,z_im'")
    p.add_argument("--noise", action="append",
                   help="noise source TARGET:KIND:RATE, repeatable")
    p.add_argument("--t-max", dest="t_max", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdlab",
        description="Two-qubit noise evolutions, concurrence decay and "
        "sudden-death diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="concurrence along a time grid (CSV)")
    _add_output(p, table=True)
    _add_state_flags(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--sweep-lambda", type=int, default=0, metavar="N",
                   help="sweep N family parameters in (0, 4] instead of one state")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("esd", help="decay class and death time (JSON)")
    _add_output(p)
    _add_state_flags(p)
    p.set_defaults(func=cmd_esd)

    p = sub.add_parser("diagram", help="classification over the (a, |z|) plane (CSV)")
    _add_output(p, table=True)
    p.add_argument("--panel", choices=tuple(_PANELS), required=True,
                   help="i: amplitude only, ii: phase only, iii: both")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("additivity", help="single-qubit summed-rate check (JSON)")
    _add_output(p)
    p.add_argument("--gamma1", type=float, default=1.0, help="amplitude rate")
    p.add_argument("--gamma2", type=float, default=1.0, help="phase rate")
    p.add_argument("--t-max", dest="t_max", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
    p.set_defaults(func=cmd_additivity)

    p = sub.add_parser("validate", help="run the full cross-check suite (JSON)")
    _add_output(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every float flag, checked once here: nan and inf are never valid input
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
            print(f"error: {flag} must be finite, got {value}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        return args.func(args)
    except SeparableStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEPARABLE
    except (ConfigError, ValueError) as exc:  # the library's one-line refusal of bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # an input too large to hold, such as a huge lattice
        print(f"error: input too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
