"""The transfer-map kernel against the Kraus oracle, its invariants, and the
general-state route of trace_concurrence against the closed-form laws."""

import math

import numpy as np
import pytest

from esdlab import (
    NoiseSpec,
    amplitude_concurrence,
    combined_concurrence,
    lambda_state,
    phase_concurrence,
    trace_concurrence,
    validate_density,
)
from esdlab.channels import evolve_states, noise_channel, transfer_states
from esdlab.checks import LAMBDAS, N_TIMES, RATES
from esdlab.concurrence import concurrence_margins

from helpers import random_density, random_x_state

ALL_FOUR = tuple(NoiseSpec(q, k, 1.0) for q in "AB" for k in ("amplitude", "phase"))
X_ZEROS = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]


def _random_noise(rng):
    """A random subset of the four (qubit, kind) noises, rates in [0, 2]."""
    return tuple(NoiseSpec(q, k, rng.uniform(0.0, 2.0))
                 for q in "AB" for k in ("amplitude", "phase") if rng.random() < 0.6)


@pytest.mark.parametrize("call", [
    lambda rho, specs, t: evolve_states(rho, specs, [0.5, t]),
    lambda rho, specs, t: transfer_states(rho, specs, [0.5, t]),
    lambda rho, specs, t: noise_channel(specs, t),
], ids=["evolve_states", "transfer_states", "noise_channel"])
def test_time_is_checked_whatever_the_noise_set(call):
    # with no noise no dephasing factor is built, so the time needs its own check
    rho = lambda_state(4.0).to_density()
    for specs in ((), ALL_FOUR):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^time must be finite and >= 0"):
                call(rho, specs, bad)


def test_boundary_rates_match_the_kraus_oracle():
    # exp(-(amp + phase) t / 2) would overflow amp + phase to inf, and inf * 0
    # at t = 0 is NaN; warnings are errors in this suite
    rho = lambda_state(4.0).to_density()
    times = [0.0, 1.0, 10.0]
    for target in "AB":
        specs = (NoiseSpec(target, "amplitude", 1e308), NoiseSpec(target, "phase", 1e308))
        got = transfer_states(rho, specs, times)
        assert np.array_equal(got[0], rho.mat)
        assert np.abs(got - evolve_states(rho, specs, times)).max() <= 1e-15


def test_transfer_states_match_the_kraus_oracle(rng):
    times = np.linspace(0.0, 6.0, 121)
    for _ in range(20):
        rho, specs = random_density(rng, 4), _random_noise(rng)
        got, want = transfer_states(rho, specs, times), evolve_states(rho, specs, times)
        assert np.abs(got - want).max() <= 1e-15
        c_got, c_want = (np.maximum(concurrence_margins(s), 0.0) for s in (got, want))
        assert np.abs(c_got - c_want).max() <= 1e-13
    assert transfer_states(rho, specs, []).shape == (0, 4, 4)


def test_transfer_states_keep_trace_and_positivity(rng):
    times = np.linspace(0.0, 6.0, 25)
    for _ in range(40):
        states = transfer_states(random_density(rng, 4), _random_noise(rng), times)
        assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() <= 1e-14
        assert np.linalg.eigvalsh(states)[:, 0].min() >= -1e-14


def test_transfer_states_form_a_semigroup(rng):
    for _ in range(40):
        rho, specs = random_density(rng, 4), _random_noise(rng)
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        first = validate_density(transfer_states(rho, specs, [t1])[0])
        split = transfer_states(first, specs, [t2])[0]
        assert np.abs(split - transfer_states(rho, specs, [t1 + t2])[0]).max() <= 1e-14


def test_transfer_states_keep_x_states_x_shaped(rng):
    times = np.linspace(0.0, 4.0, 17)
    for _ in range(40):
        states = transfer_states(random_x_state(rng).to_density(), _random_noise(rng), times)
        for i, j in X_ZEROS:
            assert not states[:, i, j].any() and not states[:, j, i].any()


def _symmetric(kind, rate):
    return (NoiseSpec("A", kind, rate), NoiseSpec("B", kind, rate))


def test_general_trace_route_matches_the_closed_form_laws():
    """validate's lambda and rate grid, traced from the density matrix."""
    times = np.linspace(0.0, 5.0, N_TIMES)
    cases = [(lam, _symmetric("phase", r), times, lambda t, lam=lam, r=r:
              phase_concurrence(lam, r, t)) for lam in LAMBDAS for r in RATES]
    cases += [(lam, _symmetric("amplitude", r), np.linspace(0.0, 5.0 / r, N_TIMES),
               lambda t, lam=lam, r=r: amplitude_concurrence(lam, r, t))
              for lam in (3.0, 3.5, 4.0) for r in RATES]
    cases += [(lam, _symmetric("amplitude", g1) + _symmetric("phase", g2), times,
               lambda t, lam=lam, g1=g1, g2=g2: combined_concurrence(lam, g1, g2, t))
              for lam in LAMBDAS for g1 in RATES for g2 in RATES]
    for lam, specs, grid, law in cases:
        got = trace_concurrence(lambda_state(lam).to_density(), specs, grid).values
        assert np.abs(got - [law(t) for t in grid]).max() <= 1e-10
