"""Batched lattice classification and multi-row root finding, bit for bit.

``esd_time`` and ``diagram_grid`` share one blocked scan, ``_first_hits``:
it walks the shared grid a block of times at a time, a chunk of rows at a
time, and drops each row after the block where it dies.  ``first_root``
then bisects all brackets in lockstep.  The arithmetic per cell or state is
the scan-and-bisect over the whole grid kept here as the reference, so
roots must be equal, never merely close, and no grid time past a row's
dying block may be evaluated.
"""

import functools
import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from esdlab import (
    DecayKind,
    NoiseSpec,
    XState,
    concurrence_x,
    diagram_grid,
    esd_time,
)
from esdlab.concurrence import (
    BLOCK_TIMES,
    ESD_RESOLUTION,
    SCAN_BLOCK,
    SCAN_POINTS,
    _evolved_margins,
    _first_hits,
    _x_entries,
    _x_margins,
    _x_rates,
    first_root,
)

from helpers import random_density, random_x_state

KINDS = ("amplitude", "phase")
PANELS = {"i": ("amplitude",), "ii": ("phase",), "iii": ("amplitude", "phase")}


def _first_root_1d(margin, grid, values, resolution):
    """Scalar scan-and-bisect of one margin row: the reference root finder."""
    hits = np.nonzero(values[1:] <= 0.0)[0]
    if len(hits) == 0:
        return None
    idx = 1 + int(hits[0])
    lo, hi = float(grid[idx - 1]), float(grid[idx])
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if margin(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _cell_margins(x, rates, times):
    """One X state's margin |z| exp(-(ph_A + ph_B) t / 2) - sqrt(a d(t))."""
    amp_a, amp_b, ph_a, ph_b = rates
    ua = 1 - np.exp(-amp_a * times)
    ub = 1 - np.exp(-amp_b * times)
    ad = x.a * (ua * ub * x.a + ua * x.b + ub * x.c + x.d)
    zf = np.exp(-0.5 * (ph_a + ph_b) * times)
    return np.where(ad == 0.0, abs(x.z), abs(x.z) * zf - np.sqrt(ad))


def _reference_cells(a_values, z_values, specs, t_max):
    """(a, z, kind, t_star) of each cell, classified one cell at a time."""
    rates = [sum(s.rate for s in specs if (s.target, s.kind) == (q, kind))
             for kind in KINDS for q in "AB"]
    horizon = 20.0 / min(s.rate for s in specs) if t_max is None else t_max
    grid = np.linspace(0.0, horizon, SCAN_POINTS + 1)
    out = []
    for a in a_values:
        half = 0.5 * (1.0 - a)
        for z in z_values:
            kind, t_star = DecayKind.INVALID, None
            if 0 <= a <= 1 and 0 <= z <= half + 1e-12:
                x = XState(float(a), half, half, 0.0, min(float(z), half))
                kind = DecayKind.SEPARABLE_AT_START
                if concurrence_x(x) != 0.0:
                    t_star = _first_root_1d(
                        lambda t: _cell_margins(x, rates, np.asarray([t]))[0],
                        grid, _cell_margins(x, rates, grid), ESD_RESOLUTION)
                    kind = (DecayKind.EXPONENTIAL if t_star is None
                            else DecayKind.SUDDEN_DEATH)
            out.append((float(a), float(z), kind, t_star))
    return out


def _cells(a_values, z_values, specs, t_max=None):
    return [(c.a, c.z, c.kind, c.t_star)
            for c in diagram_grid(a_values, z_values, specs, t_max)]


def _random_panel(rng, panel):
    """Asymmetric rates: one spec per qubit and kind of the panel."""
    return tuple(NoiseSpec(q, kind, rng.uniform(0.5, 2.0))
                 for kind in PANELS[panel] for q in "AB")


@pytest.mark.parametrize("panel", sorted(PANELS))
@pytest.mark.parametrize("t_max", [None, 0.3, 7.0, 1e5])
def test_diagram_grid_matches_per_cell_reference(rng, panel, t_max):
    # the lattice holds the z = 0 column (separable) and INVALID cells
    # above |z| = (1 - a)/2; t_max = 1e5 puts roots late and underflows a(t)
    a_values, z_values = np.linspace(0.0, 1.0, 15), np.linspace(0.0, 0.5, 14)
    specs = _random_panel(rng, panel)
    got = _cells(a_values, z_values, specs, t_max)
    assert repr(got) == repr(_reference_cells(a_values, z_values, specs, t_max))
    kinds = {cell[2] for cell in got}
    assert {DecayKind.INVALID, DecayKind.SEPARABLE_AT_START} <= kinds


def test_diagram_grid_matches_reference_off_lattice(rng):
    # unsorted values, out-of-range a and z, and more live cells than one
    # scan chunk; a = -0.0 and a = 1.0 (half = 0), z = -0.0, and z at
    # (1 - a)/2 and 5e-13 past it, inside the XSTATE_TOL slack, where it is clamped
    half = 0.5 * (1.0 - 0.3)
    a_values = np.concatenate([rng.uniform(-0.1, 1.1, 30), [-0.0, 1.0, 0.3]])
    z_values = np.concatenate([[0.0], rng.uniform(-0.05, 0.55, 30),
                               [-0.0, 5e-13, half, half + 5e-13]])
    specs = _random_panel(rng, "iii")
    assert len(a_values) * len(z_values) > SCAN_BLOCK
    want = repr(_reference_cells(a_values, z_values, specs, None))
    for a, z in ((a_values, z_values), (a_values.tolist(), z_values.tolist())):
        got = _cells(a, z, specs)
        assert repr(got) == want
    live = [c for c in got if c[2] in (DecayKind.EXPONENTIAL, DecayKind.SUDDEN_DEATH)]
    assert len(live) > SCAN_BLOCK


def test_diagram_grid_single_and_empty_lattices(rng):
    specs = _random_panel(rng, "iii")
    # a = -0.0, half = 0 at a = 1, z = -0.0, and z at (1 - 0.2)/2 = 0.4 (exact) and past it
    edges = ((-0.0, 0.3), (1.0, 0.0), (1.0, 5e-13), (0.2, -0.0), (0.2, 0.4), (0.2, 0.4 + 5e-13))
    for a, z in ((0.2, 0.3), (0.2, 0.0), (0.9, 0.3)) + edges:
        assert repr(_cells([a], [z], specs)) == repr(_reference_cells([a], [z], specs, None))
    assert diagram_grid([], [0.1], specs) == []
    assert diagram_grid([0.2], [], specs) == []


def test_diagram_grid_marks_non_finite_entries_invalid():
    specs = (NoiseSpec("A", "phase", 1.0), NoiseSpec("B", "phase", 1.0))
    for a, z in ((0.2, math.nan), (math.nan, 0.1), (0.2, math.inf), (math.inf, 0.1)):
        [cell] = diagram_grid([a], [z], specs)
        assert cell.kind is DecayKind.INVALID and cell.t_star is None, (a, z)


def test_diagram_grid_tracemalloc_peak_stays_small():
    # unblocked, the (cells x grid) scan temporaries of this lattice peak
    # near 27 MB; chunks of SCAN_BLOCK cells by BLOCK_TIMES times keep the
    # peak near 1.1 MB, most of it the 4,096 cells returned
    specs = tuple(NoiseSpec(q, kind, 1.0) for kind in KINDS for q in "AB")
    a_values, z_values = np.linspace(0.0, 1.0, 64), np.linspace(0.0, 0.5, 64)
    tracemalloc.start()
    try:
        cells = diagram_grid(a_values, z_values, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cells) == 64 * 64
    assert peak < 5e6


def test_diagram_grid_scans_no_block_past_a_cells_death(monkeypatch, rng):
    """Each live cell is evaluated at the grid times in order, up to the end
    of the block holding its first nonpositive margin and never past it (a
    surviving cell at every grid time once), and the bisection evaluates no
    grid time."""
    module = importlib.import_module("esdlab.concurrence")
    real, calls = module._x_margins, []

    def counted(entries, rates, times):
        calls.append((np.asarray(entries), np.asarray(times)))
        return real(entries, rates, times)

    specs = _random_panel(rng, "i")
    a_values, z_values = np.linspace(0.0, 1.0, 32), np.linspace(0.0, 0.5, 32)
    monkeypatch.setattr(module, "_x_margins", counted)
    cells = diagram_grid(a_values, z_values, specs)
    live = [c for c in cells if c.kind in (DecayKind.EXPONENTIAL, DecayKind.SUDDEN_DEATH)]
    assert {c.kind for c in live} == {DecayKind.EXPONENTIAL, DecayKind.SUDDEN_DEATH}
    assert len(live) > SCAN_BLOCK  # more than one chunk of rows
    grid = np.linspace(0.0, 20.0 / min(s.rate for s in specs), SCAN_POINTS + 1)
    scan = list(itertools.takewhile(lambda c: np.isin(c[1], grid).all(), calls))
    assert not any(np.isin(t, grid).any() for _, t in calls[len(scan):])
    seen = {}  # (a, z_in) of a cell -> the grid times it was evaluated at
    for entries, times in scan:
        for a, z_in in zip(entries[0].ravel().tolist(), entries[4].ravel().tolist()):
            seen.setdefault((a, z_in), []).append(times)
    rates = _x_rates(specs)
    for c in live:
        half = 0.5 * (1.0 - c.a)
        z_in = min(c.z, half)
        values = real((c.a, half, half, 0.0, z_in), rates, grid)
        hits = np.flatnonzero(values[1:] <= 0.0)
        assert (c.kind is DecayKind.SUDDEN_DEATH) == bool(len(hits))
        end = (SCAN_POINTS + 1 if not len(hits)
               else min(BLOCK_TIMES * ((1 + hits[0]) // BLOCK_TIMES + 1), SCAN_POINTS + 1))
        assert np.array_equal(np.concatenate(seen.pop((c.a, z_in))), grid[:end]), c
    assert not seen


def _linear_rows(thresholds, grid):
    """Margins c - t of rows with roots c, and their (rows, t) evaluator."""
    values = thresholds[:, None] - grid[None, :]
    return (lambda rows, t: thresholds[rows] - t), values


def _roots(margin, n_rows, grid):
    """The production pipeline: the blocked scan, then the lockstep bisection."""
    return first_root(margin, grid, _first_hits(margin, n_rows, grid))


def test_first_root_rows_match_one_row_calls_and_the_reference(rng):
    grid = np.linspace(0.0, 10.0, 65)  # one block of BLOCK_TIMES and one more time
    # roots inside the grid, past it (no hit), on a grid point and in its
    # first interval (hit at grid[1])
    thresholds = np.concatenate([rng.uniform(0.01, 10.0, 20), [12.0, 30.0],
                                 grid[[1, 7]], [0.05]])
    margin, values = _linear_rows(thresholds, grid)
    got = _roots(margin, len(thresholds), grid)
    assert got[20] is None and got[21] is None
    for row, c in enumerate(thresholds):
        one = _roots(lambda _, t: c - t, 1, grid)
        ref = _first_root_1d(lambda t: c - t, grid, values[row], ESD_RESOLUTION)
        assert repr(got[row]) == repr(one[0]) == repr(ref), row
    # the scan's first hits are those read off the whole margin rows
    hits = values[:, 1:] <= 0.0
    idx = np.where(hits.any(axis=1), 1 + hits.argmax(axis=1), 0)
    assert np.array_equal(_first_hits(margin, len(thresholds), grid), idx)


def test_first_root_hit_at_first_grid_point():
    grid = np.linspace(0.0, 1.0, 9)
    margin, _ = _linear_rows(np.array([0.01, 0.125]), grid)
    got = _roots(margin, 2, grid)
    assert 0.0 < got[0] <= grid[1] and got[1] == grid[1]
    assert got[0] - 0.01 <= ESD_RESOLUTION and margin(np.array([0]), np.array([got[0]]))[0] <= 0.0


def test_first_root_stops_at_adjacent_floats():
    # roots near 1e300 sit where adjacent floats are ~1e284 apart, far wider
    # than ESD_RESOLUTION: each row must stop on an adjacent pair, at its own step
    grid = np.linspace(0.0, 4e300, 9)
    thresholds = np.array([1.1e300, 2.7e300, 3.3e300])
    margin, _ = _linear_rows(thresholds, grid)
    got = _roots(margin, len(thresholds), grid)
    for c, t in zip(thresholds, got):
        assert t >= c and np.nextafter(t, 0.0) < c
        assert repr(t) == repr(_first_root_1d(lambda s: c - s, grid, c - grid, ESD_RESOLUTION))


def test_first_root_without_rows():
    grid = np.linspace(0.0, 1.0, 5)
    assert _first_hits(None, 0, grid).shape == (0,)  # the margin is never called
    assert _roots(None, 0, grid) == []


def _margins_at(state, specs):
    """esd_time's margin route: the X-entry margins or the evolved general ones."""
    if isinstance(state, XState):
        return functools.partial(_x_margins, _x_entries(state), _x_rates(specs))
    return functools.partial(_evolved_margins, state, specs)


def _full_scan(state, specs, t_max):
    """(root, first hit index or None) of the reference over all SCAN_POINTS + 1 margins."""
    margins_at = _margins_at(state, specs)
    grid = np.linspace(0.0, t_max, SCAN_POINTS + 1)
    values = margins_at(grid)
    hits = np.flatnonzero(values[1:] <= 0.0)
    root = _first_root_1d(lambda t: margins_at(np.array([t]))[0], grid, values, ESD_RESOLUTION)
    return root, 1 + int(hits[0]) if len(hits) else None


def _dying_state(rng, route):
    """A seeded X or general state that dies under all four noise kinds, its
    specs and its death time."""
    specs = tuple(NoiseSpec(q, kind, rng.uniform(0.5, 2.0))
                  for kind in ("amplitude", "phase") for q in "AB")
    while True:
        state = random_x_state(rng) if route == "x" else random_density(rng, 4)
        if _margins_at(state, specs)(np.zeros(1))[0] > 0.0:
            t_star = esd_time(state, specs, 40.0)
            if t_star is not None:
                return state, specs, t_star


def _t_max_for(t_star, index):
    """A horizon whose grid puts t_star strictly inside (grid[index - 1], grid[index])."""
    return SCAN_POINTS * t_star / (index - 0.5)


@pytest.mark.parametrize("route", ["x", "general"])
def test_esd_time_equals_the_full_scan_reference(rng, route):
    # deaths in block 0, on both sides of the first block edge and at the
    # last grid point, horizons too short to see the death, and the float ends
    for _ in range(2):
        state, specs, t_star = _dying_state(rng, route)
        for index in (1, 10, 64, 65, 300, 512):
            t_max = _t_max_for(t_star, index)
            root, hit = _full_scan(state, specs, t_max)
            assert hit == index
            assert repr(esd_time(state, specs, t_max)) == repr(root)
        for t_max in (0.5 * t_star, 5e-324):
            assert _full_scan(state, specs, t_max) == (None, None)
            assert esd_time(state, specs, t_max) is None
    root, hit = _full_scan(state, specs, 1e300)
    assert hit == 1 and repr(esd_time(state, specs, 1e300)) == repr(root)


@pytest.mark.parametrize("route", ["x", "general"])
def test_esd_time_scans_no_block_past_the_death(monkeypatch, rng, route):
    """The t = 0 probe runs first; then the scan evaluates each grid time
    once, in order, up to the end of the block holding the first
    nonpositive margin, and the bisection evaluates no grid time."""
    state, specs, t_star = _dying_state(rng, route)
    module = importlib.import_module("esdlab.concurrence")  # esdlab.concurrence is a function
    name = "_x_margins" if route == "x" else "_evolved_margins"
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(np.asarray(args[-1]))
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    for index in (None, 1, 63, 64, 65, 128, 300, 512):
        t_max = 0.5 * t_star if index is None else _t_max_for(t_star, index)
        grid = np.linspace(0.0, t_max, SCAN_POINTS + 1)
        scanned = SCAN_POINTS + 1 if index is None else min(
            BLOCK_TIMES * (index // BLOCK_TIMES + 1), SCAN_POINTS + 1)
        assert _full_scan(state, specs, t_max)[1] == index
        calls.clear()
        t = esd_time(state, specs, t_max)
        assert (t is None) == (index is None)
        assert calls[0].tolist() == [0.0]
        scan = list(itertools.takewhile(lambda c: np.isin(c, grid).all(), calls[1:]))
        assert np.array_equal(np.concatenate(scan), grid[:scanned]), index
        assert not any(np.isin(c, grid).any() for c in calls[1 + len(scan):])
