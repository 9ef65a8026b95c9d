import sys

import numpy as np
import pytest

from esdlab.checks import (
    ADDITIVITY_KRAUS_TOL,
    ADDITIVITY_LINDBLAD_TOL,
    _check_witness,
    additivity_series,
)
from esdlab.concurrence import first_root

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
    for route, key, tol in (("kraus", "max_dev_kraus", ADDITIVITY_KRAUS_TOL),
                            ("lindblad", "max_dev_lindblad", ADDITIVITY_LINDBLAD_TOL)):
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
