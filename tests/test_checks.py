import sys

import numpy as np
import pytest

from esdlab import checks
from esdlab.checks import (
    KRAUS_LAW_TOL,
    RK4_TOL,
    _check_witness,
    additivity_series,
)
from esdlab.concurrence import DecayClass, DecayKind, first_root

# rates on which RK4 trace drift reached 1.00-1.06e-12 at some grid time,
# past the strict 1e-12 trace bound that integrated states were once held to
DRIFT_PAIRS = [
    (0.1822076819138183, 2.523718801367622),
    (0.5446958291571056, 0.827956962205405),
    (0.5370867145515137, 0.8377742688558437),
    (0.5268108525691211, 1.3249045239521244),
    (0.6701333294896641, 1.7971671888633616),
]


@pytest.mark.parametrize("gamma1,gamma2", DRIFT_PAIRS)
def test_additivity_series_tolerates_rk4_trace_drift(gamma1, gamma2):
    series = additivity_series(gamma1, gamma2, np.linspace(0, 5, 20))
    assert series["pass"] is True


def test_additivity_series_verdict_follows_its_deviations():
    series = additivity_series(1.0, 0.5, np.linspace(0, 2, 5), dt=1e-3)
    for route, key, tol in (("kraus", "max_dev_kraus", KRAUS_LAW_TOL),
                            ("lindblad", "max_dev_lindblad", RK4_TOL)):
        want = max(abs(v - a) for v, a in zip(series[route], series["analytic"]))
        assert series[key] == want <= tol
    assert series["pass"] is True
    # a step this coarse leaves the RK4 route well off the law
    assert additivity_series(1.0, 1.0, [0.0, 1.0], dt=0.5)["pass"] is False


def test_witness_does_not_share_the_numerical_root_finder(monkeypatch):
    # every esdlab namespace that binds first_root gets a wrapper that moves
    # each root by 1e-6: classify's t* moves, the closed form's must not
    def shifted(*args):
        return [None if t is None else t + 1e-6 for t in first_root(*args)]

    patched = []
    for key, module in list(sys.modules.items()):
        if key == "esdlab" or key.startswith("esdlab."):
            for attr, value in list(vars(module).items()):
                if value is first_root:
                    monkeypatch.setattr(module, attr, shifted)
                    patched.append(f"{key}.{attr}")
    assert _check_witness().passed is False
    assert patched == ["esdlab.concurrence.first_root"]


@pytest.mark.parametrize("branch", ["closed_form", "amplitude_only", "phase_only"])
def test_witness_counts_each_violation(branch, monkeypatch):
    # each branch broken for every lambda, the other branches left as they are
    if branch == "closed_form":  # the closed form finds no death under both noises
        real = checks.combined_death_time

        def patched(lam, rate_amp, rate_phase):
            return None if rate_amp and rate_phase else real(lam, rate_amp, rate_phase)

        monkeypatch.setattr(checks, "combined_death_time", patched)
    else:  # the numerical route reports a death under one noise alone
        real = checks.classify
        kind = branch.split("_")[0]

        def patched(state, specs):
            if {s.kind for s in specs} == {kind}:
                return DecayClass(DecayKind.SUDDEN_DEATH, 1.0)
            return real(state, specs)

        monkeypatch.setattr(checks, "classify", patched)
    result = _check_witness()
    assert result.passed is False
    # a closed form that finds no death also fails the t* comparison
    assert result.worst == (6.0 if branch == "closed_form" else 3.0)
