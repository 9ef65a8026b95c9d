"""Stacked evolution and checks against per-time loops, bit for bit.

``evolve_states`` applies the Kraus matrices of a whole time grid with
stacked matmuls, and the X-state route of ``trace_concurrence`` writes
that Kraus sum out on the five X entries.  The arithmetic is the one of
the per-time loop kept here as the reference, so results must be equal,
never merely close.  General states are traced by transfer maps instead,
and agree with that loop to roundoff.
"""

import itertools
import math
import sys
import tracemalloc
import warnings

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
from esdlab.concurrence import BLOCK_TIMES, _evolved_margins, spin_flipped
from esdlab.linalg import check_densities, check_x_densities

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
    """Each state equals the per-time loop bit for bit, on the grid and on the
    empty grid; a tuple of states evolves in one call to an (n, n_t, 4, 4)
    stack whose slices are the states' own calls, and a one-qubit state in
    the tuple or an empty tuple is refused, on either grid."""
    specs = NOISE_SETS[name]
    rhos = (random_density(rng, 4), *_initial_states(rng))
    for grid in (GRID, GRID[:0]):  # and the empty grid
        stacked = evolve_states(rhos, specs, grid)
        assert stacked.shape == (3, len(grid), 4, 4)
        for rho, states in zip(rhos, stacked):
            got = evolve_states(rho, specs, grid)
            assert got.shape == (len(grid), 4, 4)
            assert np.array_equal(states, got)
            via_loop = np.array([_evolve_loop(rho.mat, specs, t) for t in grid])
            assert np.array_equal(got, via_loop.reshape(-1, 4, 4))
    with pytest.raises(ValueError, match="^dimension mismatch: channel 4, state 2$"):
        evolve_states(rhos[:2] + (validate_density(np.eye(2) / 2),), specs, GRID)
    for grid in (GRID, GRID[:0]):
        with pytest.raises(ValueError, match="^no states to evolve: the tuple of states is empty$"):
            evolve_states((), specs, grid)


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
    """X states take the Kraus sum written out on their X entries, equal to
    the Kraus loop bit for bit; general states take the transfer maps, equal
    to it to roundoff."""
    specs = NOISE_SETS[name]
    x = _entangled_x(rng)
    got = trace_concurrence(x, specs, GRID).values
    assert got.max() > 0.0
    assert np.array_equal(got, _trace_loop(x, specs, GRID))
    rho = random_density(rng, 4)
    got = trace_concurrence(rho, specs, GRID).values
    assert got.max() > 0.0
    assert np.abs(got - _trace_loop(rho, specs, GRID)).max() <= 1e-13


def _x_entry_margins(states):
    """2 (|z| - sqrt(max(0, a d))), read off a stack of X-shaped states: the
    X route of trace_concurrence before it left the Kraus oracle."""
    ad = states[:, 0, 0].real * states[:, 3, 3].real
    z = states[:, 1, 2]
    return 2.0 * (np.hypot(z.real, z.imag) - np.sqrt(np.where(ad > 0.0, ad, 0.0)))


EDGE_X_RATES = (0.0, 5e-324, 1e-300, 1e300, sys.float_info.max / 4)
SLOTS = [(q, k) for q in "AB" for k in ("amplitude", "phase")]


def test_x_margins_equal_the_kraus_oracle_bit_for_bit(rng):
    """Every subset of the (qubit, kind) slots, each slot with one or two
    specs at edge or random rates, on grids that cross BLOCK_TIMES and hold
    the edge times 0, 5e-324 and 1e300, for X states with real and complex
    z; with warnings as errors, since a numpy-scalar rate * t overflow warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for subset, _ in itertools.product(range(16), range(3)):
            rates = EDGE_X_RATES + (float(rng.uniform(0.0, 3.0)),)
            specs = tuple(
                NoiseSpec(q, kind, rates[i])
                for bit, (q, kind) in enumerate(SLOTS) if subset >> bit & 1
                for i in rng.integers(len(rates), size=rng.integers(1, 3))
            )
            inner = np.sort(rng.uniform(1e-3, 5.0, BLOCK_TIMES + rng.integers(1, BLOCK_TIMES)))
            grid = np.concatenate([[0.0, 5e-324], inner, [1e300]])
            x = random_x_state(rng)
            real_z = XState(x.a, x.b, x.c, x.d, float(rng.choice([-1.0, 1.0]) * abs(x.z)))
            for state in (x, real_z):
                want = _x_entry_margins(evolve_states(state.to_density(), specs, grid))
                assert np.array_equal(_evolved_margins(state, specs, grid), want)


def _x_entries(rng, n):
    """Entry arrays a, b, c, d, z of n random X states."""
    states = [random_x_state(rng) for _ in range(n)]
    return [np.array([getattr(x, f) for x in states]) for f in "abcdz"]


@pytest.mark.parametrize("error, spoil", [
    (TraceError, lambda e, i: e[0].__setitem__(i, e[0][i] + 1e-6)),
    (PositivityError, lambda e, i: e[4].__setitem__(i, math.sqrt(e[1][i] * e[2][i]) + 1e-3)),
])
def test_x_entry_checks_find_one_bad_state(rng, error, spoil):
    """check_x_densities raises what check_densities raises on the same
    states; and trace_concurrence checks the X states it evolves."""
    entries = _x_entries(rng, 5)
    check_x_densities(*entries)
    for bad in range(5):
        spoiled = [e.copy() for e in entries]
        spoil(spoiled, bad)
        with pytest.raises(error):
            check_x_densities(*spoiled)
        a, b, c, d, z = spoiled
        mats = np.zeros((5, 4, 4), dtype=complex)
        mats[:, 0, 0], mats[:, 1, 1], mats[:, 2, 2], mats[:, 3, 3] = a, b, c, d
        mats[:, 1, 2], mats[:, 2, 1] = z, z.conj()
        with pytest.raises(error):
            check_densities(mats)
        for good in set(range(5)) - {bad}:
            check_x_densities(*(e[good:good + 1] for e in spoiled))
        x = XState(*(e[bad] for e in entries))
        for field, value in zip("abcdz", spoiled):
            object.__setattr__(x, field, value[bad])  # past XState's own check
        with pytest.raises(error):
            trace_concurrence(x, NOISE_SETS["all_four"], GRID)


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
