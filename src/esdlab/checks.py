"""Cross-validation suite: channel machinery against closed forms and integrator.

Each check returns a CheckResult with its worst observed deviation and the
tolerance it was held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    DEFAULT_DT,
    NoiseSpec,
    _compose_stack,
    _kind_stack,
    _kraus_sum,
    _rk4_runs,
    check_nonnegative,
    check_times,
    evolve_states,
)
from .closedform import (
    amplitude_concurrence,
    amplitude_elements,
    coherence_factor,
    combined_concurrence,
    combined_death_time,
    phase_concurrence,
)
from .concurrence import concurrence_margins, esd_time, lambda_state
from .linalg import check_densities, validate_density

LAMBDAS = (1.0, 2.0, 3.0, 3.5, 4.0)
RATES = (0.5, 1.0, 2.0)
N_TIMES = 50
# one tolerance per class of check: a Kraus route against a closed-form law,
# agreement at roundoff level, the numerical witness t* against the closed
# form's, and an RK4 route against the law or the Kraus oracle
KRAUS_LAW_TOL = 1e-10
ROUNDOFF_TOL = 1e-12
WITNESS_TOL = 1e-8
RK4_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "worst_deviation": self.worst,
            "tolerance": self.tol,
        }


def _result(name, worst, tol) -> CheckResult:
    return CheckResult(name, bool(worst <= tol), float(worst), float(tol))


def _additivity_runs(pairs, times, dt=DEFAULT_DT) -> list[dict]:
    """``additivity_series`` of each (gamma1, gamma2) pair, the RK4 runs in lockstep.
    The RK4 runs go first, so that a grid past their step budget or stability
    limit is refused before the Kraus route builds a stack per grid time."""
    plus_x = validate_density(np.full((2, 2), 0.5, dtype=np.complex128))
    times = check_times(times).tolist()
    spec_sets = [(NoiseSpec("A", "amplitude", g1), NoiseSpec("A", "phase", 2 * g2))
                 for g1, g2 in pairs]
    paths = _rk4_runs(plus_x, spec_sets, times, dt)[:, :, 0, 1].real.tolist()
    kraus = []
    for gamma1, gamma2 in pairs:
        phase = _kind_stack("phase", gamma2, times)
        ops = _compose_stack(_compose_stack(_kind_stack("amplitude", gamma1, times), phase), phase)
        kraus.append(check_densities(_kraus_sum(ops, plus_x.mat))[:, 0, 1].real.tolist())
    out = []
    for (gamma1, gamma2), k_route, lindblad in zip(pairs, kraus, paths):
        analytic = [0.5 * coherence_factor(gamma1, gamma2, t) for t in times]
        dev_kraus = max(abs(k - a) for k, a in zip(k_route, analytic))
        dev_lind = max(abs(l - a) for l, a in zip(lindblad, analytic))
        passed = dev_kraus <= KRAUS_LAW_TOL and dev_lind <= RK4_TOL
        out.append({"times": times, "kraus": k_route, "lindblad": lindblad,
                    "analytic": analytic, "max_dev_kraus": dev_kraus,
                    "max_dev_lindblad": dev_lind, "pass": bool(passed)})
    return out


def additivity_series(gamma1: float, gamma2: float, times, dt=DEFAULT_DT) -> dict:
    """Single-qubit coherence along a grid: Kraus, integrator and analytic routes.

    The Kraus route composes the relaxation channel with the dephasing
    channel applied twice, and the integrator runs with a doubled phase
    rate: both express the transverse master-equation rate gamma2 in the
    half-rate channel convention (see :mod:`esdlab.channels`).  All three
    routes must land on 0.5 * exp(-(gamma1/2 + gamma2) t); the result also
    holds each numeric route's worst deviation from the analytic one and
    the pass verdict against KRAUS_LAW_TOL and RK4_TOL.  A bad rate, or an
    overflowing doubled one, raises ValueError naming it.  The validate
    suite steps the RK4 runs of its pairs, on one grid, in lockstep.
    """
    check_nonnegative(gamma1=gamma1, gamma2=gamma2, **{"2 * gamma2": 2 * gamma2})
    return _additivity_runs([(gamma1, gamma2)], times, dt)[0]


def _check_additivity_suite() -> list[CheckResult]:
    pairs = [(g1, g2) for g1 in (0.1, 1.0, 3.0) for g2 in (0.1, 1.0, 3.0)]
    suite = _additivity_runs(pairs, np.linspace(0.0, 5.0, 20))
    worst_k = max(series["max_dev_kraus"] for series in suite)
    worst_l = max(series["max_dev_lindblad"] for series in suite)
    return [
        _result("additivity_kraus_vs_analytic", worst_k, KRAUS_LAW_TOL),
        _result("additivity_lindblad_vs_analytic", worst_l, RK4_TOL),
    ]


def _symmetric(kind: str, rate: float) -> tuple[NoiseSpec, NoiseSpec]:
    return (NoiseSpec("A", kind, rate), NoiseSpec("B", kind, rate))


def _worst_vs_law(specs, times, law, lams) -> float:
    """Worst |concurrence - law(lam, t)| over the states lambda_state(lam) of lams
    under one noise set, evolved by the Kraus oracle in one call and read
    through the general formula."""
    states = evolve_states(tuple(lambda_state(lam).to_density() for lam in lams), specs, times)
    m = concurrence_margins(states)
    return max(abs(c - law(lam, t)) for lam, row in zip(lams, np.where(m > 0.0, m, 0.0))
               for t, c in zip(times, row))


def _check_phase_law() -> CheckResult:
    times = np.linspace(0.0, 5.0, N_TIMES)
    worst = max(_worst_vs_law(_symmetric("phase", rate), times,
                              lambda lam, t: phase_concurrence(lam, rate, t), LAMBDAS)
                for rate in RATES)
    return _result("phase_noise_concurrence", worst, KRAUS_LAW_TOL)


def _check_amplitude_elements() -> CheckResult:
    times = np.linspace(0.0, 5.0, N_TIMES)
    rhos = tuple(lambda_state(lam).to_density() for lam in LAMBDAS)
    worst = max(  # z, a and d of each evolved state against the law's
        np.abs(m[(1, 0, 3), (2, 0, 3)].real - amplitude_elements(lam, rate, t)).max()
        for rate in RATES
        for lam, states in zip(LAMBDAS, evolve_states(rhos, _symmetric("amplitude", rate), times))
        for t, m in zip(times, states)
    )
    return _result("amplitude_noise_elements", worst, ROUNDOFF_TOL)


def _check_amplitude_law() -> list[CheckResult]:
    lams = (3.0, 3.5, 4.0)
    worst = max(_worst_vs_law(_symmetric("amplitude", rate), np.linspace(0.0, 5.0 / rate, N_TIMES),
                              lambda lam, t: amplitude_concurrence(lam, rate, t), lams)
                for rate in RATES)
    # esd_time on the default horizon 20 / rate
    survived = all(esd_time(lambda_state(lam), _symmetric("amplitude", rate)) is None
                   for lam in lams for rate in RATES)
    return [
        _result("amplitude_noise_concurrence", worst, KRAUS_LAW_TOL),
        CheckResult("amplitude_noise_no_death", survived, 0.0 if survived else 1.0, 0.0),
    ]


def _check_combined_law() -> CheckResult:
    times = np.linspace(0.0, 5.0, N_TIMES)
    worst = max(_worst_vs_law(_symmetric("amplitude", g1) + _symmetric("phase", g2), times,
                              lambda lam, t: combined_concurrence(lam, g1, g2, t), LAMBDAS)
                for g1 in RATES for g2 in RATES)
    return _result("combined_noise_concurrence", worst, KRAUS_LAW_TOL)


def _check_reductions() -> CheckResult:
    worst = max(  # each law with one rate zero against the one-kind law
        max(abs(combined_concurrence(lam, 0.0, rate, t) - phase_concurrence(lam, rate, t)),
            abs(combined_concurrence(lam, rate, 0.0, t) - amplitude_concurrence(lam, rate, t))
            if lam >= 3.0 else 0.0)
        for lam in LAMBDAS for rate in RATES for t in np.linspace(0.0, 6.0, N_TIMES)
    )
    return _result("closed_form_reductions", worst, ROUNDOFF_TOL)


def _check_witness() -> CheckResult:
    violations = 0
    for lam in (3.2, 3.6, 4.0):
        both = combined_death_time(lam, 1.0, 1.0)
        amp_only = combined_death_time(lam, 1.0, 0.0)
        phase_only = combined_death_time(lam, 0.0, 1.0)
        if both is None or amp_only is not None or phase_only is not None:
            violations += 1
        state = lambda_state(lam)  # esd_time on the default horizon 20 / 1.0
        if esd_time(state, _symmetric("amplitude", 1.0)) is not None:
            violations += 1
        if esd_time(state, _symmetric("phase", 1.0)) is not None:
            violations += 1
        t_num = esd_time(state, _symmetric("amplitude", 1.0) + _symmetric("phase", 1.0))
        if t_num is None or both is None or abs(t_num - both) > WITNESS_TOL:
            violations += 1
    return CheckResult(
        "non_additivity_witness", violations == 0, float(violations), 0.0
    )


EQUIVALENCE_PLACEMENTS = (
    (NoiseSpec("A", "amplitude", 1.2),),
    (NoiseSpec("B", "amplitude", 0.7),),
    (NoiseSpec("A", "phase", 1.5),),
    (NoiseSpec("B", "phase", 0.9),),
    (NoiseSpec("A", "amplitude", 1.0), NoiseSpec("B", "phase", 1.0)),
    (
        NoiseSpec("A", "amplitude", 0.8),
        NoiseSpec("A", "phase", 1.1),
        NoiseSpec("B", "amplitude", 1.3),
        NoiseSpec("B", "phase", 0.6),
    ),
)


def equivalence_state():
    """Fixed full-rank two-qubit state with every matrix element populated."""
    psi = np.array([0.7, 0.4, 0.4, math.sqrt(0.19)], dtype=np.complex128)
    rho = 0.6 * np.outer(psi, psi.conj()) + 0.4 * np.eye(4) / 4
    return validate_density(rho)


def _kraus_lindblad_devs(spec_sets, times) -> list[float]:
    """``check_kraus_lindblad`` of each noise set, the RK4 runs in lockstep."""
    rho0 = equivalence_state()
    paths = _rk4_runs(rho0, spec_sets, times, DEFAULT_DT)
    return [
        float(np.abs(evolve_states(rho0, specs, times) - path).max())
        for specs, path in zip(spec_sets, paths)
    ]


def check_kraus_lindblad(specs, times) -> float:
    """Worst element-wise deviation between channel and integrator evolution."""
    return _kraus_lindblad_devs([tuple(specs)], times)[0]


def _check_equivalence() -> CheckResult:
    worst = max(_kraus_lindblad_devs(EQUIVALENCE_PLACEMENTS, (0.5, 1.5)))
    return _result("kraus_vs_lindblad", worst, RK4_TOL)


def run_validation():
    """Run every cross-check; returns a list of CheckResult."""
    results = []
    results.extend(_check_additivity_suite())
    results.append(_check_phase_law())
    results.append(_check_amplitude_elements())
    results.extend(_check_amplitude_law())
    results.append(_check_combined_law())
    results.append(_check_reductions())
    results.append(_check_witness())
    results.append(_check_equivalence())
    return results
