"""Batched lattice classification and multi-row root finding, bit for bit.

``esd_time`` and ``diagram_grid`` share one root finder, ``first_root``: it
reads every row's margin at t_max, gives None to the rows still alive there,
and bisects [0, t_max] for the others, all rows in lockstep.  Its arithmetic
per cell or state is the scalar bisection ``_bisect_1d`` kept here, so roots
must equal that, never merely be close to it.  A surviving row is evaluated
once, at t_max, and a dying one only at midpoints inside (0, t_max).  A
scan-and-bisect over a 513-point grid, ``_first_root_1d``, is the
independent reference: the same class everywhere, t* within ESD_RESOLUTION
(or two ulps), and the same bits wherever its grid step t_max / 512 is exact.
Apart from the numerics, the diagram's classes must follow closedform's
exact class rule, panel i's t* its closed form, and the Kraus oracle must
bracket sampled deaths.
"""

import functools
import gc
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from esdlab import (
    DecayKind,
    DiagramCell,
    NoiseSpec,
    SeparableStateError,
    XState,
    concurrence_x,
    diagram_grid,
    esd_time,
    validate_density,
)
from esdlab.channels import _regroup, _transfer_blocks, evolve_states, fold_rates
from esdlab.checks import WITNESS_TOL
from esdlab.closedform import d0_death_time, d0_dies
from esdlab.concurrence import (
    ESD_RESOLUTION,
    DiagramGrid,
    _evolved_margins,
    _horizon,
    _x_entries,
    _x_margins,
    _x_rates,
    concurrence_margins,
    first_root,
    lambda_state,
)

from helpers import random_density, random_x_state

KINDS = ("amplitude", "phase")
PANELS = {"i": ("amplitude",), "ii": ("phase",), "iii": ("amplitude", "phase")}
REF_POINTS = 512  # intervals of the independent reference's scan grid


def _bisect_1d(margin, t_max):
    """Scalar bisection of one margin row on [0, t_max]: the reference of first_root."""
    if not margin(t_max) <= 0.0:
        return None
    lo, hi = 0.0, t_max
    while hi - lo > ESD_RESOLUTION * min(1.0, t_max):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if margin(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _first_root_1d(margin, grid, values, resolution):
    """Scalar scan-and-bisect of one margin row: the independent reference."""
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


def _grid_is_exact(t_max):
    """Whether t_max's significand has at most 43 bits, so that every point of
    the reference grid and of the bisection's first ten levels is an exact
    multiple of t_max / 1024: then both reach the same bracket, bit for bit."""
    return (math.frexp(t_max)[0] * 2.0 ** 43).is_integer()


def _close(t, ref):
    """t* within ESD_RESOLUTION of the reference, or two ulps where adjacent
    floats are wider, and None exactly where it is None."""
    if t is None or ref is None:
        return t is ref
    return abs(t - ref) <= max(ESD_RESOLUTION, 2 * math.ulp(max(t, ref)))


def _cell_margins(x, rates, times):
    """One X state's margin |z| exp(-(ph_A + ph_B) t / 2) - sqrt(a d(t))."""
    amp_a, amp_b, ph_a, ph_b = rates
    ua = 1 - np.exp(-amp_a * times)
    ub = 1 - np.exp(-amp_b * times)
    ad = x.a * (ua * ub * x.a + ua * x.b + ub * x.c + x.d)
    zf = np.exp(-0.5 * (ph_a + ph_b) * times)
    return np.where(ad == 0.0, abs(x.z), abs(x.z) * zf - np.sqrt(ad))


def _reference_cells(a_values, z_values, specs, t_max, scan=False):
    """(a, z, kind, t_star) of each cell, classified one cell at a time by
    ``_bisect_1d``, or by the reference scan ``_first_root_1d`` when ``scan``."""
    rates = [sum(s.rate for s in specs if (s.target, s.kind) == (q, kind))
             for kind in KINDS for q in "AB"]
    horizon = 20.0 / min(s.rate for s in specs) if t_max is None else t_max
    grid = np.linspace(0.0, horizon, REF_POINTS + 1)
    out = []
    for a in a_values:
        half = 0.5 * (1.0 - a)
        for z in z_values:
            kind, t_star = DecayKind.INVALID, None
            if 0 <= a <= 1 and 0 <= z <= half + 1e-12:
                x = XState(float(a), half, half, 0.0, min(float(z), half))
                kind = DecayKind.SEPARABLE_AT_START
                if concurrence_x(x) != 0.0:
                    margin = lambda t: _cell_margins(x, rates, np.asarray([t]))[0]
                    t_star = (_first_root_1d(margin, grid, _cell_margins(x, rates, grid),
                                             ESD_RESOLUTION) if scan
                              else _bisect_1d(margin, horizon))
                    kind = (DecayKind.EXPONENTIAL if t_star is None
                            else DecayKind.SUDDEN_DEATH)
            out.append((float(a), float(z), kind, t_star))
    return out


def _assert_same_cells(got, want):
    """Every cell's repr equal, compared cell by cell: when a lattice differs,
    pytest diffing two whole-lattice reprs takes minutes, not the first
    differing cell."""
    assert len(got) == len(want)
    bad = next((i for i, pair in enumerate(zip(got, want)) if repr(pair[0]) != repr(pair[1])), None)
    assert bad is None, (bad, got[bad], want[bad])


def _assert_matches_scan(got, a_values, z_values, specs, t_max):
    """Every cell in the reference scan's class, t* close to its root, and
    the same bits where the scan grid is exact."""
    want = _reference_cells(a_values, z_values, specs, t_max, scan=True)
    assert len(got) == len(want)
    for cell, ref in zip(got, want):
        assert cell[:3] == ref[:3] and _close(cell[3], ref[3]), (cell, ref)
    if t_max is not None and _grid_is_exact(t_max):
        _assert_same_cells(got, want)


def _cells(a_values, z_values, specs, t_max=None):
    return [(c.a, c.z, c.kind, c.t_star)
            for c in diagram_grid(a_values, z_values, specs, t_max)]


def _random_panel(rng, panel):
    """Asymmetric rates: one spec per qubit and kind of the panel."""
    return tuple(NoiseSpec(q, kind, rng.uniform(0.5, 2.0))
                 for kind in PANELS[panel] for q in "AB")


@pytest.mark.parametrize("panel", sorted(PANELS))
@pytest.mark.parametrize("t_max", [None, 0.3, 7.0, 20.0, 1e5])
def test_diagram_grid_matches_per_cell_reference(rng, panel, t_max):
    # the lattice holds the z = 0 column (separable) and INVALID cells
    # above |z| = (1 - a)/2; t_max = 1e5 puts roots late and underflows a(t)
    a_values, z_values = np.linspace(0.0, 1.0, 15), np.linspace(0.0, 0.5, 14)
    specs = _random_panel(rng, panel)
    got = _cells(a_values, z_values, specs, t_max)
    _assert_same_cells(got, _reference_cells(a_values, z_values, specs, t_max))
    _assert_matches_scan(got, a_values, z_values, specs, t_max)
    kinds = {cell[2] for cell in got}
    assert {DecayKind.INVALID, DecayKind.SEPARABLE_AT_START} <= kinds


def test_diagram_grid_matches_reference_off_lattice(rng):
    # unsorted values, out-of-range a and z; a = -0.0 and a = 1.0 (half = 0),
    # z = -0.0, and z at (1 - a)/2 and 5e-13 past it, inside the XSTATE_TOL
    # slack, where it is clamped
    half = 0.5 * (1.0 - 0.3)
    a_values = np.concatenate([rng.uniform(-0.1, 1.1, 30), [-0.0, 1.0, 0.3]])
    z_values = np.concatenate([[0.0], rng.uniform(-0.05, 0.55, 30),
                               [-0.0, 5e-13, half, half + 5e-13]])
    specs = _random_panel(rng, "iii")
    want = _reference_cells(a_values, z_values, specs, None)
    for a, z in ((a_values, z_values), (a_values.tolist(), z_values.tolist())):
        got = _cells(a, z, specs)
        _assert_same_cells(got, want)
    _assert_matches_scan(got, a_values, z_values, specs, None)


def test_diagram_grid_single_and_empty_lattices(rng):
    specs = _random_panel(rng, "iii")
    # a = -0.0, half = 0 at a = 1, z = -0.0, and z at (1 - 0.2)/2 = 0.4 (exact) and past it
    edges = ((-0.0, 0.3), (1.0, 0.0), (1.0, 5e-13), (0.2, -0.0), (0.2, 0.4), (0.2, 0.4 + 5e-13))
    for a, z in ((0.2, 0.3), (0.2, 0.0), (0.9, 0.3)) + edges:
        got = _cells([a], [z], specs)
        assert repr(got) == repr(_reference_cells([a], [z], specs, None))
        _assert_matches_scan(got, [a], [z], specs, None)
    assert diagram_grid([], [0.1], specs) == []
    assert diagram_grid([0.2], [], specs) == []


def test_diagram_grid_marks_non_finite_entries_invalid():
    specs = (NoiseSpec("A", "phase", 1.0), NoiseSpec("B", "phase", 1.0))
    for a, z in ((0.2, math.nan), (math.nan, 0.1), (0.2, math.inf), (math.inf, 0.1)):
        [cell] = diagram_grid([a], [z], specs)
        assert cell.kind is DecayKind.INVALID and cell.t_star is None, (a, z)


def test_diagram_grid_tracemalloc_peak_stays_small():
    # an unblocked (cells x 513) scan of this lattice would peak near 27 MB;
    # one margin per live cell and time keeps the peak at 0.65 MB, 0.37 MB
    # of it the four columns of the 4,096 cells returned
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


UNIT = {panel: tuple(NoiseSpec(q, kind, 1.0) for kind in kinds for q in "AB")
        for panel, kinds in PANELS.items()}


def test_diagram_cell_is_a_named_tuple_with_pinned_reprs():
    # bench/workloads.py digests repr(diagram_grid(...)): these bytes are the contract
    dying, invalid = diagram_grid([0.2, 2.0], [0.3], UNIT["iii"])
    [surviving] = diagram_grid([0.2], [0.3], UNIT["ii"])
    assert repr(dying) == ("DiagramCell(a=0.2, z=0.3, kind=<DecayKind.SUDDEN_DEATH: "
                           "'SUDDEN_DEATH'>, t_star=0.3228259536263067)")
    assert repr(surviving) == ("DiagramCell(a=0.2, z=0.3, kind=<DecayKind.EXPONENTIAL: "
                               "'EXPONENTIAL'>, t_star=None)")
    assert repr(invalid) == ("DiagramCell(a=2.0, z=0.3, kind=<DecayKind.INVALID: "
                             "'INVALID'>, t_star=None)")
    assert DiagramCell._fields == ("a", "z", "kind", "t_star")
    assert DiagramCell(0.2, 0.3, DecayKind.EXPONENTIAL) == surviving
    assert surviving == (0.2, 0.3, DecayKind.EXPONENTIAL, None)
    twin = DiagramCell(0.2, 0.3, DecayKind.SUDDEN_DEATH, 0.3228259536263067)
    assert twin == dying and hash(twin) == hash(dying) and twin != surviving
    with pytest.raises(AttributeError):
        dying.t_star = 1.0


def test_diagram_grid_is_a_read_only_sequence_of_cells():
    specs = UNIT["iii"]
    grid = diagram_grid([0.2, 2.0], [0.3], specs)
    dying = DiagramCell(0.2, 0.3, DecayKind.SUDDEN_DEATH, 0.3228259536263067)
    invalid = DiagramCell(2.0, 0.3, DecayKind.INVALID)
    assert isinstance(grid, DiagramGrid) and len(grid) == 2
    assert list(grid) == [dying, invalid]
    assert grid[0] == grid[-2] == dying and grid[1] == grid[-1] == invalid
    assert grid[1:] == [invalid]
    for i in (2, -3):
        with pytest.raises(IndexError):
            grid[i]
    with pytest.raises(TypeError):
        grid[0] = invalid
    with pytest.raises(TypeError):
        hash(grid)
    assert grid == list(grid) and list(grid) == grid and grid != [dying]
    assert grid == diagram_grid([0.2, 2.0], [0.3], specs) and grid != (dying, invalid)
    assert diagram_grid([], [0.1], specs) == [] and not diagram_grid([], [0.1], specs)
    # bench/workloads.py digests repr(diagram_grid(...)): the list's bytes
    assert repr(grid) == repr(list(grid)) == (
        "[DiagramCell(a=0.2, z=0.3, kind=<DecayKind.SUDDEN_DEATH: 'SUDDEN_DEATH'>, "
        "t_star=0.3228259536263067), DiagramCell(a=2.0, z=0.3, kind=<DecayKind.INVALID: "
        "'INVALID'>, t_star=None)]")
    order = diagram_grid([0.2, 0.1], [0.3, 0.0], specs)  # a-major, z-minor
    assert [(c.a, c.z) for c in order] == [(0.2, 0.3), (0.2, 0.0), (0.1, 0.3), (0.1, 0.0)]


def test_a_held_lattice_adds_no_tracked_object_per_cell():
    # the collector walks every tracked object a caller holds on each full
    # collection; a list of 4,096 cells would add 4,096 of them
    axes = np.linspace(0.0, 1.0, 64), np.linspace(0.0, 0.5, 64)
    diagram_grid(*axes, UNIT["iii"])  # any first-call caches
    gc.collect()
    before = len(gc.get_objects())
    grid = diagram_grid(*axes, UNIT["iii"])
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(grid) == 64 * 64 and added < 64, added
    kinds = set(DecayKind)  # module-level members, not per cell
    assert not any(gc.is_tracked(x) for column in gc.get_referents(grid)
                   if isinstance(column, list) for x in column if x not in kinds)


@pytest.mark.parametrize("a_values, z_values, name", [
    ([[0.2, 0.3]], [0.1], "a_values"),  # a 2d axis used to drop cells
    ([0.2], [[0.1], [0.2]], "z_values"),
    (0.2, [0.1], "a_values"),  # a scalar axis used to raise TypeError
    ([0.2], 0.1, "z_values"),
])
def test_diagram_grid_requires_1d_axes(a_values, z_values, name):
    with pytest.raises(ValueError, match=f"{name} must be a 1d axis"):
        diagram_grid(a_values, z_values, UNIT["i"])


def _death_bound_iii(x, rate_amp, rate_phase):
    """A time by which a d = 0 cell with a > 0 is dead under both kinds: from
    ln 2 / rate_amp on, w >= 1/2 and a (a w^2 + s w) >= m = a (a / 4 + s / 2), and
    |z|^2 exp(-2 rate_phase t) <= m from ln(|z|^2 / m) / (2 rate_phase) on."""
    m = x.a * (0.25 * x.a + 0.5 * (x.b + x.c))
    return max(math.log(2.0) / rate_amp, math.log(abs(x.z) ** 2 / m) / (2.0 * rate_phase))


def test_diagram_grid_matches_the_closed_form_class_rule(rng):
    """Classes against closedform.d0_dies on all three panels, panel i's t*
    against d0_death_time, and panel iii's t* below its closed-form bound.
    A cell whose closed-form death (or bound) lies past half the default
    horizon is skipped: there the numerical class may read EXPONENTIAL.
    The Kraus oracle brackets a seeded sample of the deaths."""
    rate_amp, rate_phase = rng.uniform(0.5, 2.0, 2)
    # the tie (1/9, 1/3); z just below the panel-i edge |z| = sqrt(a) at a = 0.04,
    # 0.09 and 0.16, dying at rate * t* of about 6.3, 13.2 and 22.5; a = 1e-30 dies late
    # on panel iii
    a_values = np.concatenate([[0.0, 1 / 9, 1.0, 1e-30, 0.04, 0.09, 0.16],
                               rng.uniform(0.0, 1.0, 17)])
    z_values = np.concatenate([[0.0, 1 / 3, 0.2 * (1 - 1e-3), 0.3 * (1 - 1e-6),
                                0.4 * (1 - 1e-10)], rng.uniform(0.0, 0.5, 19)])
    deaths, skipped, cells, noise = {}, {}, {}, {}
    for panel, kinds in PANELS.items():
        amp = rate_amp if "amplitude" in kinds else 0.0
        phase = rate_phase if "phase" in kinds else 0.0
        specs = tuple(NoiseSpec(q, kind, amp if kind == "amplitude" else phase)
                      for kind in kinds for q in "AB")
        half_horizon = 10.0 / min(s.rate for s in specs)
        deaths[panel], skipped[panel], noise[panel] = 0, 0, specs
        cells[panel] = diagram_grid(a_values, z_values, specs)
        for cell in cells[panel]:
            if cell.kind not in (DecayKind.EXPONENTIAL, DecayKind.SUDDEN_DEATH):
                continue
            half = 0.5 * (1.0 - cell.a)
            x = XState(cell.a, half, half, 0.0, min(cell.z, half))
            dies = d0_dies(x, amp, phase)
            bound = None
            if dies:
                bound = d0_death_time(x, amp) if panel == "i" else _death_bound_iii(x, amp, phase)
            if dies and bound > half_horizon:
                skipped[panel] += 1
                continue
            assert (cell.kind is DecayKind.SUDDEN_DEATH) == dies, (panel, cell)
            if dies:
                deaths[panel] += 1
                assert cell.t_star <= bound + WITNESS_TOL, (panel, cell, bound)
            if panel == "i" and dies:
                assert abs(cell.t_star - bound) <= WITNESS_TOL, (cell, bound)
    # the tie a (a + b + c) = |z|^2, exact in rationals, does not die on panel i
    tie = [i for i, c in enumerate(cells["i"]) if (c.a, c.z) == (1 / 9, 1 / 3)]
    assert [cells[p][i].kind for p in PANELS for i in tie] == [
        DecayKind.EXPONENTIAL, DecayKind.EXPONENTIAL, DecayKind.SUDDEN_DEATH]
    assert deaths == {"i": 167, "ii": 0, "iii": 215}
    assert skipped == {"i": 2, "ii": 0, "iii": 23}
    for panel in ("i", "iii"):  # the third route: Kraus sets, general formula
        dying = [c for c in cells[panel] if c.kind is DecayKind.SUDDEN_DEATH]
        for k in rng.choice(len(dying), 4, replace=False):
            a, z, _, t_star = dying[k]
            half = 0.5 * (1.0 - a)
            rho = XState(a, half, half, 0.0, min(z, half)).to_density()
            times = [t_star * (1 - 1e-6), t_star * (1 + 1e-6)]
            before, after = concurrence_margins(evolve_states(rho, noise[panel], times))
            assert before > 0.0 >= after, (panel, dying[k])


def _bisection_calls(t_max):
    """The most margin calls a bisection of [0, t_max] may take: one per level
    down to ESD_RESOLUTION * min(1, t_max), and one more for rounding."""
    return math.ceil(math.log2(t_max / (ESD_RESOLUTION * min(1.0, t_max)))) + 1


def test_diagram_grid_evaluates_a_surviving_cell_once(monkeypatch, rng):
    """All live cells are evaluated once together, at t_max; after that only
    the dying cells are, each at midpoints strictly inside (0, t_max)."""
    module = importlib.import_module("esdlab.concurrence")
    real, calls = module._x_margins, []

    def counted(entries, rates, times):
        calls.append((np.asarray(entries), np.asarray(times)))
        return real(entries, rates, times)

    specs = _random_panel(rng, "i")
    t_max = 20.0 / min(s.rate for s in specs)
    a_values, z_values = np.linspace(0.0, 1.0, 32), np.linspace(0.0, 0.5, 32)
    monkeypatch.setattr(module, "_x_margins", counted)
    cells = diagram_grid(a_values, z_values, specs)
    live = [c for c in cells if c.kind in (DecayKind.EXPONENTIAL, DecayKind.SUDDEN_DEATH)]
    assert {c.kind for c in live} == {DecayKind.EXPONENTIAL, DecayKind.SUDDEN_DEATH}

    def keys(entries):  # (a, z_in) of each cell in a call
        return list(zip(entries[0].tolist(), entries[4].tolist()))

    def key(c):
        return c.a, min(c.z, 0.5 * (1.0 - c.a))

    (first, at), rest = calls[0], calls[1:]
    assert sorted(keys(first)) == sorted(key(c) for c in live)
    assert (at == t_max).all()
    assert 0 < len(rest) <= _bisection_calls(t_max)
    dying = {key(c) for c in live if c.kind is DecayKind.SUDDEN_DEATH}
    for entries, times in rest:
        assert set(keys(entries)) <= dying
        assert ((0.0 < times) & (times < t_max)).all()


def _linear_rows(thresholds):
    """The margin of first_root for margins c - t, with roots c: rows -> (t -> c[rows] - t)."""
    return lambda rows: lambda t: thresholds[rows] - t


def test_first_root_rows_match_one_row_calls_and_the_reference(rng):
    t_max = 10.0
    grid = np.linspace(0.0, t_max, REF_POINTS + 1)  # exact: the scan reference agrees
    # roots inside [0, t_max], past it, at t_max, on a grid point, in the
    # grid's first interval, and a NaN row, which never dies
    thresholds = np.concatenate([rng.uniform(0.01, 10.0, 20), [12.0, 30.0, t_max, math.nan],
                                 grid[[1, 7]], [0.005]])
    margin = _linear_rows(thresholds)
    got = first_root(margin, len(thresholds), t_max)
    assert got[20] is None and got[21] is None and got[23] is None
    assert got[22] == t_max
    for row, c in enumerate(thresholds):
        one = first_root(lambda _: lambda t: c - t, 1, t_max)
        ref = _bisect_1d(lambda t: c - t, t_max)
        scan = _first_root_1d(lambda t: c - t, grid, c - grid, ESD_RESOLUTION)
        assert repr(got[row]) == repr(one[0]) == repr(ref) == repr(scan), row


def test_first_root_hit_at_first_grid_point():
    # roots in the first eighth of [0, 1] and on its end, 0.125
    margin = _linear_rows(np.array([0.01, 0.125]))
    got = first_root(margin, 2, 1.0)
    assert 0.0 < got[0] <= 0.125 and got[1] == 0.125
    assert got[0] - 0.01 <= ESD_RESOLUTION and margin(np.array([0]))(np.array([got[0]]))[0] <= 0.0
    assert repr(got) == repr([_bisect_1d(lambda t: c - t, 1.0) for c in (0.01, 0.125)])


def test_first_root_stops_at_adjacent_floats():
    # roots near 1e300 sit where adjacent floats are ~1e284 apart, far wider
    # than ESD_RESOLUTION: each row must stop on an adjacent pair, at its own step
    t_max = 4e300
    grid = np.linspace(0.0, t_max, REF_POINTS + 1)
    thresholds = np.array([1.1e300, 2.7e300, 3.3e300])
    got = first_root(_linear_rows(thresholds), len(thresholds), t_max)
    for c, t in zip(thresholds, got):
        assert t >= c and np.nextafter(t, 0.0) < c
        assert repr(t) == repr(_bisect_1d(lambda s: c - s, t_max))
        assert repr(t) == repr(_first_root_1d(lambda s: c - s, grid, c - grid, ESD_RESOLUTION))


def test_first_root_builds_an_evaluator_only_when_its_rows_change():
    # what margin(rows) derives from its rows (the lattice's gathered entries)
    # is built once per set of live rows, not once per bisection level
    thresholds = np.array([0.3, 0.7, 2.0, 5.0])
    row_sets, levels = [], []

    def margin(rows):
        row_sets.append(rows.tolist())
        def at(t):
            levels.append(len(t))
            return thresholds[rows] - t
        return at

    assert first_root(margin, 4, 1.0) == first_root(_linear_rows(thresholds), 4, 1.0)
    assert row_sets == [[0, 1, 2, 3], [0, 1], []]
    assert levels[0] == 4 and set(levels[1:]) == {2} and len(levels) > 30


def test_first_root_without_rows():
    assert first_root(_linear_rows(np.zeros(0)), 0, 1.0) == []


def _margins_at(state, specs):
    """esd_time's margin route: the X-entry margins or the evolved general ones."""
    if isinstance(state, XState):
        return functools.partial(_x_margins, _x_entries(state), _x_rates(specs))
    return functools.partial(_evolved_margins, state, specs)


def _full_scan(state, specs, t_max):
    """(root, first hit index or None) of the reference over all REF_POINTS + 1 margins."""
    margins_at = _margins_at(state, specs)
    grid = np.linspace(0.0, t_max, REF_POINTS + 1)
    values = margins_at(grid)
    hits = np.flatnonzero(values[1:] <= 0.0)
    root = _first_root_1d(lambda t: margins_at(np.array([t]))[0], grid, values, ESD_RESOLUTION)
    return root, 1 + int(hits[0]) if len(hits) else None


def _bisected(state, specs, t_max):
    """``_bisect_1d`` on esd_time's margin route."""
    margins_at = _margins_at(state, specs)
    return _bisect_1d(lambda t: margins_at(np.array([t]))[0], t_max)


def _per_call_esd(state, specs, t_max):
    """esd_time on the per-call-checked route: the t = 0 probe, then
    ``_bisected``, every state checked by transfer_states as it is evolved."""
    if _margins_at(state, specs)(np.zeros(1))[0] <= 0.0:
        raise SeparableStateError("initial state is separable (zero concurrence)")
    return _bisected(state, specs, t_max)


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
    """A horizon whose reference grid puts t_star strictly inside (grid[index - 1], grid[index])."""
    return REF_POINTS * t_star / (index - 0.5)


@pytest.mark.parametrize("route", ["x", "general"])
def test_esd_time_equals_the_full_scan_reference(rng, route):
    # deaths in the reference's first grid interval, on both sides of its
    # first block edge and in its last interval, horizons too short to see
    # the death, exact grid steps, and the float ends
    for _ in range(2):
        state, specs, t_star = _dying_state(rng, route)
        for index in (1, 10, 64, 65, 300, 512):
            t_max = _t_max_for(t_star, index)
            root, hit = _full_scan(state, specs, t_max)
            assert hit == index
            got = esd_time(state, specs, t_max)
            assert repr(got) == repr(_bisected(state, specs, t_max))
            assert _close(got, root), (got, root)
        for t_max in (0.5 * t_star, 5e-324):
            assert _full_scan(state, specs, t_max) == (None, None)
            assert _bisected(state, specs, t_max) is None
            assert esd_time(state, specs, t_max) is None
        for t_max in (7.0, 20.0, 40.0):  # t_max / 512 exact: the reference's bits
            assert repr(esd_time(state, specs, t_max)) == repr(_full_scan(state, specs, t_max)[0])
    root, hit = _full_scan(state, specs, 1e300)
    got = esd_time(state, specs, 1e300)
    assert hit == 1 and repr(got) == repr(_bisected(state, specs, 1e300)) and _close(got, root)


@pytest.mark.parametrize("route", ["x", "general"])
def test_esd_time_evaluates_t_0_then_t_max_then_midpoints(monkeypatch, rng, route):
    """The t = 0 probe runs first and t_max second; a surviving state is
    evaluated nowhere else, and a dying one only at midpoints strictly
    inside (0, t_max), one bisection level per call.  A general state is
    counted where it is evolved, at the unchecked transfer core."""
    state, specs, t_star = _dying_state(rng, route)
    module = importlib.import_module("esdlab.concurrence")  # esdlab.concurrence is a function
    name = "_x_margins" if route == "x" else "_transfer_blocks"
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(np.asarray(args[-1]))
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    for t_max in (0.5 * t_star, 0.99 * t_star, 1.01 * t_star, 2 * t_star, 20.0, 1e5):
        calls.clear()
        t = esd_time(state, specs, t_max)
        assert (t is None) == (t_max < t_star)
        assert [c.tolist() for c in calls[:2]] == [[0.0], [t_max]]
        rest = calls[2:]
        assert not rest if t is None else 0 < len(rest) <= _bisection_calls(t_max)
        assert all(len(c) == 1 and 0.0 < c[0] < t_max for c in rest)


def _outcome(call, *args):
    """repr of the result, or the exception's type and message."""
    try:
        return repr(call(*args))
    except Exception as exc:  # the outcome under comparison
        return f"{type(exc).__name__}: {exc}"


def test_general_esd_time_matches_the_per_call_checked_route(rng):
    # rank 1-4 states mixed with the identity, some of them separable, under
    # random noise subsets with rates 0, 1e-300 and 1e300 mixed in; deaths
    # inside and past each horizon.  A 1e-300 rate puts the default
    # horizon at 2e301, whose ~1,000-step bisection takes 0.1-0.3 s a call
    # (ROADMAP item 12), so such a state runs at the finite horizons only.
    outcomes = set()
    for _ in range(20):
        rank = int(rng.integers(1, 5))
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        p = rng.uniform(0.3, 1.0)
        state = validate_density(p * g @ g.conj().T / np.trace(g @ g.conj().T).real
                                 + (1 - p) * np.eye(4) / 4)
        specs = tuple(NoiseSpec(q, kind, float(rng.choice([0.0, 1e-300, 1e300, rng.uniform(0.2, 2)],
                                                            p=[0.1, 0.05, 0.1, 0.75])))
                      for kind in KINDS for q in "AB" if rng.random() < 0.6)
        tiny = any(s.rate == 1e-300 for s in specs)
        for t_max in (0.3, 3.0, 40.0) if tiny else (None, 0.3, 3.0, 40.0):
            got = _outcome(esd_time, state, specs, t_max)
            assert got == _outcome(_per_call_esd, state, specs, _horizon(specs, t_max)), (
                state.mat, specs, t_max)
            outcomes.add(got.split(":")[0] if "Error" in got else got == "None")
    assert outcomes == {"SeparableStateError", True, False}


@pytest.mark.parametrize("where, rows, error, spectrum_fails", [
    ("t_0", [1.5, 1.5, 1.5, 1.5], "TraceError", False),
    ("t_max", [1.0, 2.0, 1.0, 1.0], "HermiticityError", False),
    ("t_max", [1.0, 1.0, 1.0, -1.0], "TraceError", True),
    ("midpoint", [1.0, 3.0, 3.0, 1.0], "PositivityError", True),
])
def test_esd_time_checks_every_evolved_state(monkeypatch, rng, where, rows, error, spectrum_fails):
    """A state corrupted at t = 0, at t_max or at the first midpoint, by
    scaling the rows of qubit A's map [++, +-, -+, --] there, raises the ValidationError of
    the per-call-checked route, type and message, also where its spectrum
    alone raises NumericalFailureError."""
    state, specs, t_star = _dying_state(rng, "general")
    t_max = 2.0 * t_star
    at = {"t_0": 0.0, "t_max": t_max, "midpoint": 0.5 * t_max}[where]
    module = importlib.import_module("esdlab.channels")
    real = module._transfer_stack

    def corrupted(rates, times, target):
        maps = real(rates, times, target)
        return maps * np.array(rows)[:, None] if target == "A" and times.tolist() == [at] else maps

    monkeypatch.setattr(module, "_transfer_stack", corrupted)
    want = _outcome(_per_call_esd, state, specs, t_max)
    assert want.startswith(error + ":")
    assert _outcome(esd_time, state, specs, t_max) == want
    bad = _transfer_blocks(_regroup(state.mat), fold_rates(specs), np.array([at]))
    assert _outcome(concurrence_margins, bad).startswith("NumericalFailureError") == spectrum_fails


def test_esd_time_resolves_a_short_default_horizon():
    # rates of 1e300 give the default horizon 2e-299, far below ESD_RESOLUTION:
    # the width scales with the horizon, so t* = ln 5 / 1e300 comes out within
    # the width's 1.24e-9 relative
    specs = (NoiseSpec("A", "phase", 1e300), NoiseSpec("B", "amplitude", 1e300))
    t_star = esd_time(lambda_state(4), specs)
    assert abs(t_star / 1.6094379124341e-300 - 1.0) < 2e-9
