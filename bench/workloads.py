"""The three workloads: seeded inputs, the calls into esdlab, and output checks.

A workload is a pool of rounds; a round is a list of operations.  The
timed loop cycles through the pool with one client, each call starting
when the previous one has returned.  Only the generated inputs reach
esdlab.  The operations of every round have the same structure for every
seed; the seed draws the values (lambda, rates, states), so the cost of a
round does not depend on the seed.

Each operation carries a label.  ``light`` labels feed the latency and
throughput metrics, the ``heavy`` label its own median.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import reference as ref

channels = importlib.import_module("esdlab.channels")
cli = importlib.import_module("esdlab.cli")
closedform = importlib.import_module("esdlab.closedform")
# ``esdlab.concurrence`` is also a function exported by the package
conc = importlib.import_module("esdlab.concurrence")
linalg = importlib.import_module("esdlab.linalg")

NoiseSpec = channels.NoiseSpec
RATE_RANGE = (0.5, 2.0)
MAX_MESSAGES = 5


@dataclass
class Op:
    label: str
    items: int  # work units: commands, trace points or lattice cells
    args: tuple  # what is passed to esdlab
    params: dict = field(default_factory=dict)  # what the checks need besides


class Workload:
    name = ""
    why = ""
    light: frozenset = frozenset()
    heavy = ""
    aliases: dict = {}

    def __init__(self, seed: int, tiny: bool):
        self.rng = random.Random(seed)
        self.rounds = self.make_rounds(tiny)

    def make_rounds(self, tiny: bool) -> list[list[Op]]:
        raise NotImplementedError

    def run(self, op: Op, in_process: bool):
        """Output of one operation; only cli distinguishes a fresh process."""
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def errors(self, op: Op, output) -> list[str]:
        """Failure messages for one output; empty when it matches its reference."""
        raise NotImplementedError

    def rate(self) -> float:
        return self.rng.uniform(*RATE_RANGE)


def _specs(amp: dict, phase: dict) -> tuple:
    """Noise list from per-qubit rate lists; k rates give k same-kind specs."""
    out = []
    for q in "AB":
        out += [NoiseSpec(q, "amplitude", r) for r in amp.get(q, ())]
        out += [NoiseSpec(q, "phase", r) for r in phase.get(q, ())]
    return tuple(out)


def _worst(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))


# ---------------------------------------------------------------- cli --


def _noise_flags(ra: float, rp: float) -> list[str]:
    return [
        flag
        for spec in (f"A:amplitude:{ra!r}", f"B:amplitude:{ra!r}",
                     f"A:phase:{rp!r}", f"B:phase:{rp!r}")
        for flag in ("--noise", spec)
    ]


def _csv(stdout: bytes) -> tuple[list[str], list[list[str]]]:
    lines = stdout.decode().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class Cli(Workload):
    name = "cli"
    why = (
        "This is what a user pays per command. Interpreter start, import esdlab, "
        "argparse and output formatting dominate the short commands; validate "
        "exercises checks together with the Kraus and RK4 oracles. A kernel "
        "optimisation should leave the short commands flat, and a start-up "
        "optimisation shows only here."
    )
    light = frozenset({"esd", "trace", "additivity", "diagram"})
    heavy = "validate"
    aliases = {"heavy_p50_s": "validate_s", "work_per_s": "commands_per_s"}
    panels = {"i": ("amplitude",), "ii": ("phase",), "iii": ("amplitude", "phase")}

    def make_rounds(self, tiny):
        samples, res = (10, 8) if tiny else (100, 16)
        rounds = []
        for _ in range(1 if tiny else 2):
            ops = []
            for v in range(1 if tiny else 3):
                lam, ra, rp = self.rng.uniform(1.0, 4.0), self.rate(), self.rate()
                family = {"lam": lam, "ra": ra, "rp": rp}
                noise = _noise_flags(ra, rp)
                ops.append(Op("esd", 1, ("esd", "--lambda", repr(lam), "--t-max", "20", *noise),
                              dict(family, t_max=20.0)))
                ops.append(Op("trace", 1, ("trace", "--lambda", repr(lam), *noise, "--t-max", "2",
                                           "--samples", str(samples)),
                              dict(family, t_max=2.0, samples=samples)))
                g1, g2 = self.rate(), self.rate()
                add = ("additivity", "--gamma1", repr(g1), "--gamma2", repr(g2))
                if tiny:
                    add += ("--samples", "4", "--t-max", "1")
                ops.append(Op("additivity", 1, add, {"g1": g1, "g2": g2}))
                panel, rate = ("i", "ii", "iii")[v], self.rate()
                ops.append(Op("diagram", 1, ("diagram", "--panel", panel, "--resolution", str(res),
                                             "--rate", repr(rate)),
                              {"panel": panel, "rate": rate, "res": res}))
            if not tiny:
                ops.append(Op("validate", 1, ("validate",)))
            rounds.append(ops)
        return rounds

    def run(self, op, in_process):
        """(exit code, stdout bytes, stderr bytes) of one CLI command."""
        if not in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "esdlab.cli", *op.args],
                capture_output=True, timeout=150, check=False,
            )
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.args))
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, out.getvalue().encode(), err.getvalue().encode()

    def digest(self, output):
        code, stdout, _ = output
        return f"{code}:" + hashlib.sha1(stdout).hexdigest()

    def errors(self, op, output):
        code, stdout, stderr = output
        if code != 0:
            last = stderr.decode().strip().splitlines()[-1:]
            return [f"{op.label}: exit code {code}: {' '.join(last)[:200]}"]
        p = op.params
        if op.label == "esd":
            report = json.loads(stdout)
            law = lambda t: closedform.combined_concurrence(p["lam"], p["ra"], p["rp"], t)
            if report["class"] == "SUDDEN_DEATH":
                return ref.death_errors(law, report["t_star"], "esd")
            return [] if law(p["t_max"]) > 0 else ["esd: EXPONENTIAL but the closed form dies"]
        if op.label == "trace":
            header, rows = _csv(stdout)
            times = np.linspace(0.0, p["t_max"], p["samples"])
            if header != ["t", "concurrence"] or len(rows) != len(times):
                return ["trace: unexpected table shape"]
            got_t = [float(r[0]) for r in rows]
            want = [closedform.combined_concurrence(p["lam"], p["ra"], p["rp"], t) for t in got_t]
            errs = []
            if _worst(got_t, times) > 0:
                errs.append("trace: time grid differs from linspace")
            worst = _worst([float(r[1]) for r in rows], want)
            if worst > ref.CLOSED_FORM_TOL:
                errs.append(f"trace: off the closed form by {worst:.3e}")
            return errs
        if op.label == "additivity":
            report = json.loads(stdout)
            law = [0.5 * math.exp(-(0.5 * p["g1"] + p["g2"]) * t) for t in report["times"]]
            errs = [] if report["pass"] is True else ["additivity: reported FAIL"]
            for route, tol in (("kraus", ref.CLOSED_FORM_TOL), ("lindblad", ref.RK4_TOL)):
                worst = _worst(report[route], law)
                if worst > tol:
                    errs.append(f"additivity: {route} off the law by {worst:.3e}")
            return errs
        if op.label == "diagram":
            header, rows = _csv(stdout)
            if header != ["a", "z", "class", "t_star"] or len(rows) != p["res"] ** 2:
                return ["diagram: unexpected table shape"]
            specs = tuple(NoiseSpec(q, kind, p["rate"])
                          for kind in self.panels[p["panel"]] for q in "AB")
            errs = []
            for a, z, kind, t_star in rows:
                errs += ref.cell_errors(conc, float(a), float(z), kind,
                                        float(t_star) if t_star else None, specs, None)
            return errs[:MAX_MESSAGES]
        report = json.loads(stdout)
        return [] if report["pass"] is True else ["validate: reported FAIL"]


# -------------------------------------------------------------- sweep --


class Sweep(Workload):
    name = "sweep"
    why = (
        "The channels and linalg layers do almost all the work here (np.kron, "
        "as_matrix, KrausChannel.__post_init__). Spec multiplicity drives the Kraus "
        "path's cost, 16^k ops. X and general states share the evolution layer but "
        "differ in the concurrence route: X states read three matrix entries, "
        "general states go through product_spectrum."
    )
    light = frozenset({"trace"})
    heavy = "esd"
    aliases = {"heavy_p50_s": "esd_general_p50_s", "work_per_s": "points_per_s"}
    ESD_T_MAX = 3.0

    def _family_specs(self, k):
        amp, phase = [self.rate() for _ in range(k)], [self.rate() for _ in range(k)]
        return _specs({"A": amp, "B": amp}, {"A": phase, "B": phase}), sum(amp), sum(phase)

    def _any_specs(self, k):
        return _specs({q: [self.rate() for _ in range(k)] for q in "AB"},
                      {q: [self.rate() for _ in range(k)] for q in "AB"})

    def _x_state(self):
        while True:
            cuts = sorted(self.rng.random() for _ in range(3))
            a, b, c, d = (hi - lo for lo, hi in zip([0.0] + cuts, cuts + [1.0]))
            z = math.sqrt(b * c) * self.rng.uniform(0.6, 1.0) * cmath.exp(
                1j * self.rng.uniform(0.0, 2 * math.pi))
            if abs(z) - math.sqrt(a * d) > 0.05:
                return conc.XState(a, b, c, d, z)

    def _general_state(self):
        """Entangled full-rank state with every matrix element populated."""
        while True:
            psi = np.array([complex(self.rng.gauss(0, 1), self.rng.gauss(0, 1))
                            for _ in range(4)])
            psi /= np.linalg.norm(psi)
            if ref.pure_concurrence(psi) < 0.7:
                continue
            p = self.rng.uniform(0.75, 0.95)
            rho = p * np.outer(psi, psi.conj()) + (1 - p) * np.eye(4) / 4
            if ref.margin(rho) > 0.1:
                return linalg.validate_density(rho)

    def _trace(self, state, specs, grid, **params):
        return Op("trace", len(grid), (state, specs, grid), params)

    def make_rounds(self, tiny):
        grid = np.linspace(0.0, 2.0, 6 if tiny else 32)
        short = np.linspace(0.0, 2.0, 2 if tiny else 3)
        rounds = []
        for _ in range(1 if tiny else 4):
            ops = []
            for k, n, g in ((1, 1 if tiny else 3, grid), (2, 0 if tiny else 1, grid)):
                for _ in range(n):
                    lam = self.rng.uniform(1.0, 4.0)
                    specs, amp, phase = self._family_specs(k)
                    ops.append(self._trace(conc.lambda_state(lam), specs, g, route="lambda",
                                           lam=lam, amp=amp, phase=phase))
            for _ in range(1 if tiny else 3):
                ops.append(self._trace(self._x_state(), self._any_specs(1), grid, route="x"))
            # k = 3 in the first round of the pool only: a 30 s run then holds
            # about four such calls, far from the ten the tail percentile
            # leaves above it, so the tail stays inside the k = 2 group
            k3 = 0 if rounds else 1
            for k, n, g in ((1, 1 if tiny else 3, grid), (2, 0 if tiny else 1, grid),
                            (2 if tiny else 3, 1 if tiny else k3, short)):
                for _ in range(n):
                    ops.append(self._trace(self._general_state(), self._any_specs(k), g,
                                           route="general"))
            ops.append(Op("esd", 1, (self._general_state(), self._any_specs(1), self.ESD_T_MAX)))
            rounds.append(ops)
        return rounds

    def run(self, op, in_process):
        if op.label == "trace":
            return conc.trace_concurrence(*op.args).values
        return conc.esd_time(*op.args)

    def digest(self, output):
        if isinstance(output, np.ndarray):
            return hashlib.sha1(output.tobytes()).hexdigest()
        return repr(output)

    def errors(self, op, output):
        state, specs = op.args[0], op.args[1]
        if op.label == "esd":
            return self._esd_errors(state, specs, op.args[2], output)
        grid = op.args[2]
        route = op.params["route"]
        if route == "lambda":
            p = op.params
            want = [closedform.combined_concurrence(p["lam"], p["amp"], p["phase"], t)
                    for t in grid]
            tol = ref.CLOSED_FORM_TOL
        elif route == "x":
            want = [ref.x_margin(conc, state, specs, float(t)) for t in grid]
            tol = ref.CLOSED_FORM_TOL
        else:
            path = channels.integrate_path(state, specs, grid, ref.RK4_DT)
            want = [max(0.0, ref.margin(s.mat)) for s in path]
            tol = ref.RK4_TOL
        worst = _worst(output, want)
        return [] if worst <= tol else [f"trace ({route}): off the reference by {worst:.3e}"]

    def _esd_errors(self, rho, specs, t_max, t_star):
        exact = lambda t: ref.margin(ref.evolve(rho.mat, specs, t))
        if t_star is None:
            grid = np.linspace(0.0, t_max, 513)
            if min(exact(float(t)) for t in grid) <= 0:
                return ["esd: no death reported, but the reference dies on the scan grid"]
            return []
        errs = ref.death_errors(exact, t_star, "esd")
        before = np.linspace(0.0, t_star - ref.DEATH_BRACKET, 64)
        if min(exact(float(t)) for t in before) <= 0:
            errs.append("esd: the reference dies before t*")
        (at,) = channels.integrate_path(rho, specs, [t_star], ref.RK4_DT)
        rk4 = max(0.0, ref.margin(at.mat))
        if rk4 > ref.RK4_TOL:
            errs.append(f"esd: RK4 concurrence {rk4:.3e} at t*")
        return errs


# ------------------------------------------------------------ diagram --


class Diagram(Workload):
    name = "diagram"
    why = (
        "All root finding in concurrence: a scan plus bisection on the X-state "
        "margin, with zero calls into channels and linalg, so an evolution-kernel "
        "change should leave it flat. Panel ii is scan-only, panel i bisects and "
        "rescans grazes near a = |z|^2, panel iii bisects every cell."
    )
    light = frozenset({"panel-i", "panel-ii", "panel-iii"})
    heavy = "panel-iii"
    aliases = {"heavy_p50_s": "panel_iii_p50_s", "work_per_s": "cells_per_s"}

    def make_rounds(self, tiny):
        res = 8 if tiny else 32
        a_values, z_values = np.linspace(0.0, 1.0, res), np.linspace(0.0, 0.5, res)
        rounds = []
        for _ in range(1 if tiny else 8):
            amp = {q: [self.rate()] for q in "AB"}
            phase = {q: [self.rate()] for q in "AB"}
            ops = [
                Op(f"panel-{panel}", res * res, (a_values, z_values, specs, None))
                for panel, specs in (("i", _specs(amp, {})), ("ii", _specs({}, phase)),
                                     ("iii", _specs(amp, phase)))
            ]
            rounds.append(ops)
        return rounds

    def run(self, op, in_process):
        return conc.diagram_grid(*op.args)

    def digest(self, output):
        return hashlib.sha1(repr(output).encode()).hexdigest()

    def errors(self, op, output):
        a_values, z_values, specs, t_max = op.args
        lattice = [(float(a), float(z)) for a in a_values for z in z_values]
        if [(c.a, c.z) for c in output] != lattice:
            return [f"{op.label}: cells differ from the lattice"]
        errs = []
        for c in output:
            errs += ref.cell_errors(conc, c.a, c.z, c.kind.value, c.t_star, specs, t_max)
        return errs[:MAX_MESSAGES]


WORKLOADS = {w.name: w for w in (Cli, Sweep, Diagram)}
