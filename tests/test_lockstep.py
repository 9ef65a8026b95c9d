"""Lockstep RK4: a stack of runs on one time grid, against a per-run loop.

Every comparison is exact (np.array_equal or ==): stepping runs together
must give each run the bits it gets when stepped alone.
"""

import math

import numpy as np
import pytest

from esdlab import (
    NoiseSpec,
    integrate_path,
    lindblad_rhs,
    validate_density,
)
from esdlab import channels, checks
from esdlab.channels import (
    MAX_RK4_STEPS,
    NumericalFailureError,
    _compose_stack,
    _kind_stack,
    _kraus_sum,
)
from esdlab.checks import additivity_series, check_kraus_lindblad

from helpers import edge_spec_sets, random_density

# spans of 0.013, 0.037, 0.25 and 0.01 need steps of four different sizes
UNEVEN_GRID = [0.0, 0.013, 0.05, 0.3, 0.31]
PLUS_X = validate_density(np.full((2, 2), 0.5, dtype=np.complex128))


def reference_generator(specs, dim):
    """The superoperator of lindblad_rhs column by column, one call per
    basis matrix."""
    n = dim * dim
    sup = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        basis = np.zeros(n, dtype=np.complex128)
        basis[j] = 1.0
        sup[:, j] = lindblad_rhs(basis.reshape(dim, dim), specs).reshape(n)
    return sup


def reference_path(rho0, specs, times, dt):
    """One run alone: the generator column by column, its degree-4 Taylor
    step per span, and one matrix-vector product per step."""
    dim = rho0.dim
    n = dim * dim
    sup = reference_generator(specs, dim)
    vec, now, out = rho0.mat.reshape(n), 0.0, []
    for t in times:
        n_steps = math.ceil((t - now) / dt - 1e-12)
        if n_steps:
            h = (t - now) / n_steps
            step = term = np.eye(n, dtype=np.complex128)
            for k in (1, 2, 3, 4):
                term = (h / k) * (sup @ term)
                step = step + term
            for _ in range(n_steps):
                vec = step @ vec
        out.append(vec.reshape(dim, dim))
        now = t
    return np.array(out)


def random_specs(rng, targets, count):
    """``count`` specs on random targets and kinds; about one rate in four is 0."""
    return tuple(
        NoiseSpec(str(rng.choice(targets)), str(rng.choice(["amplitude", "phase"])),
                  0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 3.0)))
        for _ in range(count)
    )


def assert_stack_matches_runs(rho0, spec_sets, times, dt):
    stack = channels._rk4_runs(rho0, spec_sets, times, dt)
    assert stack.shape == (len(spec_sets), len(times), rho0.dim, rho0.dim)
    for specs, states in zip(spec_sets, stack):
        assert np.array_equal(states, reference_path(rho0, specs, times, dt))


@pytest.mark.parametrize("grid", [np.linspace(0.0, 0.5, 6), UNEVEN_GRID],
                         ids=["even", "uneven"])
def test_two_by_two_stack_matches_runs_alone(rng, grid):
    rho0 = random_density(rng, 2)
    spec_sets = [
        (),
        (NoiseSpec("A", "amplitude", 0.0),),
        (NoiseSpec("A", "phase", 2.5),),
        (NoiseSpec("A", "amplitude", 1.5), NoiseSpec("A", "phase", 0.4),
         NoiseSpec("A", "amplitude", 0.3)),
    ] + [random_specs(rng, ["A"], 3) for _ in range(4)]
    assert_stack_matches_runs(rho0, spec_sets, grid, 1e-3)


@pytest.mark.parametrize("grid", [np.linspace(0.0, 0.5, 6), UNEVEN_GRID],
                         ids=["even", "uneven"])
def test_four_by_four_stack_matches_runs_alone(rng, grid):
    rho0 = random_density(rng, 4)
    spec_sets = [
        (),
        (NoiseSpec("B", "phase", 0.0), NoiseSpec("A", "amplitude", 0.0)),
        (NoiseSpec("A", "amplitude", 1.2),),
        (NoiseSpec("A", "amplitude", 0.8), NoiseSpec("A", "phase", 1.1),
         NoiseSpec("B", "amplitude", 1.3), NoiseSpec("B", "phase", 0.6)),
    ] + [random_specs(rng, ["A", "B"], 4) for _ in range(3)]
    assert_stack_matches_runs(rho0, spec_sets, grid, 2e-3)


def test_one_run_stack_is_integrate_path(rng):
    for dim in (2, 4):
        rho0 = random_density(rng, dim)
        specs = random_specs(rng, ["A"] if dim == 2 else ["A", "B"], 3)
        ref = reference_path(rho0, specs, UNEVEN_GRID, 1e-3)
        assert np.array_equal(channels._rk4_runs(rho0, [specs], UNEVEN_GRID, 1e-3)[0], ref)
        path = integrate_path(rho0, specs, UNEVEN_GRID, 1e-3)
        assert np.array_equal(np.array([s.mat for s in path]), ref)
        assert not any(s.mat.flags.writeable for s in path)


def test_suites_match_their_one_run_calls():
    pairs = [(0.1, 3.0), (0.0, 1.0), (3.0, 0.0), (1.0, 1.0)]
    times = np.linspace(0.0, 2.0, 7)
    for pair, series in zip(pairs, checks._additivity_runs(pairs, times, 1e-3)):
        assert series == additivity_series(*pair, times, dt=1e-3)
    placements = checks.EQUIVALENCE_PLACEMENTS
    devs = checks._kraus_lindblad_devs(placements, (0.2, 0.5))
    assert devs == [check_kraus_lindblad(specs, (0.2, 0.5)) for specs in placements]


def test_additivity_routes_match_per_time_computations():
    gamma1, gamma2, times, dt = 1.0, 0.5, [0.0, 0.3, 1.0], 1e-3
    series = additivity_series(gamma1, gamma2, times, dt=dt)
    for t, value in zip(times, series["kraus"]):
        phase = _kind_stack("phase", gamma2, [t])
        ops = _compose_stack(_compose_stack(_kind_stack("amplitude", gamma1, [t]), phase), phase)
        assert value == _kraus_sum(ops, PLUS_X.mat)[0, 0, 1].real
    specs = (NoiseSpec("A", "amplitude", gamma1), NoiseSpec("A", "phase", 2 * gamma2))
    ref = reference_path(PLUS_X, specs, times, dt)
    assert series["lindblad"] == [m[0, 1].real for m in ref]


@pytest.fixture
def step_builds(monkeypatch):
    """The generator stack of each RK4 step matrix built: no step can run
    before the first."""
    calls = []
    build = channels._rk4_step_matrix

    def counted(sup, h):
        calls.append(sup)
        return build(sup, h)

    monkeypatch.setattr(channels, "_rk4_step_matrix", counted)
    return calls


def test_stack_rejects_a_run_rk4_cannot_take_before_any_step(rng, step_builds):
    rho0 = random_density(rng, 4)
    fine = (NoiseSpec("A", "phase", 1.0),)
    unstable = (NoiseSpec("B", "amplitude", 1e300),)
    with pytest.raises(ValueError, match="stability limit"):
        channels._rk4_runs(rho0, [fine, unstable, fine], [0.5, 1.0], 1e-4)
    with pytest.raises(ValueError, match=f"more than {MAX_RK4_STEPS} RK4 steps"):
        channels._rk4_runs(rho0, [fine, fine], [1.0], 1e-7)
    assert step_builds == []
    channels._rk4_runs(rho0, [fine, fine], [0.5, 1.0], 1e-4)
    assert len(step_builds) == 2  # one build per span once the checks pass


def test_generator_is_the_column_by_column_superoperator(rng, step_builds):
    """One lindblad_rhs call on the stacked basis per run gives the generator
    of reference_generator bit for bit, in C order."""
    cases = edge_spec_sets(rng)
    for (dim, specs), (other_dim, other) in zip(cases, cases[1:] + cases[:1]):
        spec_sets = [specs, other] if other_dim == dim else [specs]
        total = max(sum(s.rate for s in run) for run in spec_sets)
        t = min(1e-3, 0.5 / total) if total else 1e-3  # one stable step
        step_builds.clear()
        channels._rk4_runs(random_density(rng, dim), spec_sets, [0.0, t], t)
        (sups,) = step_builds
        assert sups.flags.c_contiguous
        want = np.array([reference_generator(run, dim) for run in spec_sets])
        assert sups.tobytes() == want.tobytes(), spec_sets


def test_stack_names_the_time_at_which_a_run_left_the_state_space(rng, monkeypatch):
    build = channels._rk4_step_matrix
    # the second of three runs gains trace at every step
    monkeypatch.setattr(channels, "_rk4_step_matrix",
                        lambda sup, h: build(sup, h) * np.array([1.0, 1.1, 1.0])[:, None, None])
    specs = (NoiseSpec("A", "phase", 1.0),)
    with pytest.raises(NumericalFailureError, match="left the state space at t=0.25"):
        channels._rk4_runs(random_density(rng, 4), [specs] * 3, [0.0, 0.25, 0.5], 0.05)
