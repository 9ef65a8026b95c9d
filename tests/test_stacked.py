"""Stacked evolution and checks against per-time loops, bit for bit.

``evolve_states`` and the X-state route of ``trace_concurrence`` apply the
Kraus matrices of a whole time grid with stacked matmuls.  The arithmetic
is the one of the per-time loop kept here as the reference, so results
must be equal, never merely close.  General states are traced by transfer
maps instead, and agree with that loop to roundoff.
"""

import math
import tracemalloc

import numpy as np
import pytest

from esdlab import (
    HermiticityError,
    NoiseSpec,
    NumericalFailureError,
    PositivityError,
    TraceError,
    XState,
    concurrence,
    concurrence_x,
    product_spectrum,
    trace_concurrence,
    validate_density,
)
from esdlab.channels import evolve_states
from esdlab.concurrence import BLOCK_TIMES, spin_flipped
from esdlab.linalg import check_densities

from helpers import damping, random_density, random_x_state

NOISE_SETS = {
    "none": (),
    "rate_zero": (NoiseSpec("A", "amplitude", 0.0), NoiseSpec("B", "phase", 0.7)),
    "repeated_same_kind": (
        NoiseSpec("A", "amplitude", 0.3), NoiseSpec("A", "amplitude", 0.9),
        NoiseSpec("B", "phase", 0.4), NoiseSpec("A", "phase", 1.1),
        NoiseSpec("B", "phase", 0.6), NoiseSpec("B", "amplitude", 0.2),
    ),
    "one_qubit_only": (NoiseSpec("B", "amplitude", 1.3), NoiseSpec("B", "phase", 0.5)),
    "huge_rate": (NoiseSpec("A", "amplitude", 1e300), NoiseSpec("B", "phase", 1.0)),
    "all_four": tuple(NoiseSpec(q, k, 1.0) for q in "AB" for k in ("amplitude", "phase")),
}
# t = 0 first, and two full trace_concurrence blocks plus a remainder
GRID = np.linspace(0.0, 3.0, 2 * BLOCK_TIMES + 7)


def _kraus_loop(specs, t):
    """Two-qubit Kraus set at one time, one 2x2 and one 4x4 matrix at a time."""
    per_qubit = []
    for target in "AB":
        rates = {}
        for s in specs:
            if s.target == target:
                rates[s.kind] = rates.get(s.kind, 0.0) + s.rate
        ops = [np.eye(2, dtype=complex)]
        for kind in ("amplitude", "phase"):
            if kind in rates:
                gamma, omega = damping(rates[kind], t)
                k1 = [[0, 0], [omega, 0]] if kind == "amplitude" else [[omega, 0], [0, 0]]
                then = (np.array([[gamma, 0], [0, 1]], dtype=complex),
                        np.array(k1, dtype=complex))
                ops = [l @ k for k in ops for l in then]
        per_qubit.append(ops)
    return [np.kron(a, b) for a in per_qubit[0] for b in per_qubit[1]]


def _evolve_loop(rho, specs, t):
    out = np.zeros((4, 4), dtype=complex)
    for k in _kraus_loop(specs, t):
        out += k @ rho @ k.conj().T
    return out


def _entangled_x(rng):
    """Random X state whose concurrence starts above 0.2, so traces carry values."""
    while True:
        x = random_x_state(rng)
        if concurrence_x(x) > 0.2:
            return x


def _initial_states(rng):
    return [random_density(rng, 4), _entangled_x(rng).to_density()]


@pytest.mark.parametrize("name", sorted(NOISE_SETS))
def test_evolve_states_equals_per_time_loop(rng, name):
    specs = NOISE_SETS[name]
    for rho in _initial_states(rng):
        for grid in (GRID, GRID[:0]):  # and the empty grid
            got = evolve_states(rho, specs, grid)
            assert got.shape == (len(grid), 4, 4)
            via_loop = np.array([_evolve_loop(rho.mat, specs, t) for t in grid])
            assert np.array_equal(got, via_loop.reshape(-1, 4, 4))


def _trace_loop(initial, specs, times):
    """Concurrence per grid point, as one Kraus application per time."""
    is_x = isinstance(initial, XState)
    rho0 = initial.to_density() if is_x else initial
    values = []
    for t in times:
        m = _evolve_loop(rho0.mat, specs, float(t))
        if is_x:
            root = math.sqrt(max(0.0, m[0, 0].real * m[3, 3].real))
            values.append(2.0 * max(0.0, abs(m[1, 2]) - root))
        else:
            values.append(concurrence(validate_density(m)))
    return np.array(values)


@pytest.mark.parametrize("name", sorted(NOISE_SETS))
def test_trace_concurrence_equals_per_point_loop(rng, name):
    """X states take the Kraus route, bit for bit; general states take the
    transfer maps, equal to the Kraus loop to roundoff."""
    specs = NOISE_SETS[name]
    x = _entangled_x(rng)
    got = trace_concurrence(x, specs, GRID).values
    assert got.max() > 0.0
    assert np.array_equal(got, _trace_loop(x, specs, GRID))
    rho = random_density(rng, 4)
    got = trace_concurrence(rho, specs, GRID).values
    assert got.max() > 0.0
    assert np.abs(got - _trace_loop(rho, specs, GRID)).max() <= 1e-13


def test_stacked_product_spectrum_rows_equal_single_calls(rng):
    mats = np.array([rho.mat for rho in (random_density(rng, 4) for _ in range(40))])
    products = mats @ spin_flipped(mats)
    stacked = product_spectrum(products)
    assert stacked.shape == (40, 4)
    for row, single in zip(stacked, products):
        assert np.array_equal(row, product_spectrum(single))
    grid = products.reshape(5, 8, 4, 4)
    assert np.array_equal(product_spectrum(grid).reshape(40, 4), stacked)


def _five(rng):
    return np.array([random_density(rng, 4).mat for _ in range(5)])


@pytest.mark.parametrize("error, spoil", [
    (HermiticityError, lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-6)),
    (TraceError, lambda m: m.__imul__(1.0 + 1e-6)),
    (PositivityError, lambda m: m.__iadd__(np.diag([-1.0, 1.0, 0.0, 0.0]))),
])
def test_stacked_density_checks_find_one_bad_slice(rng, error, spoil):
    stack = _five(rng)
    check_densities(stack)
    for bad in range(5):
        spoiled = stack.copy()
        spoil(spoiled[bad])
        with pytest.raises(error):
            check_densities(spoiled)
        with pytest.raises(error):
            validate_density(spoiled[bad])
        for good in set(range(5)) - {bad}:
            validate_density(spoiled[good])


def test_stacked_spectrum_finds_one_bad_slice(rng):
    mats = _five(rng)
    products = mats @ spin_flipped(mats)
    product_spectrum(products)
    rot = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)
    for bad in range(5):
        spoiled = products.copy()
        spoiled[bad] = rot
        with pytest.raises(NumericalFailureError):
            product_spectrum(spoiled)


def test_negative_grid_time_still_raises(rng):
    rho = random_density(rng, 4)
    specs = NOISE_SETS["all_four"]
    with pytest.raises(ValueError):
        evolve_states(rho, specs, [0.0, 0.5, -0.25])
    with pytest.raises(ValueError):
        trace_concurrence(rho, specs, [-0.25, 0.5])
    with pytest.raises(ValueError):
        evolve_states(validate_density(np.eye(2) / 2), specs, [0.5])


def test_long_trace_memory_is_bounded_by_blocks():
    """100,000 states would take 25.6 MB at once; blocks keep the peak far lower."""
    times = np.linspace(0.0, 5.0, 100_000)
    specs = (NoiseSpec("A", "phase", 1.0),)
    x = random_x_state(np.random.default_rng(1))
    tracemalloc.start()
    try:
        trace = trace_concurrence(x, specs, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.values.shape == times.shape
    assert peak < 20e6
