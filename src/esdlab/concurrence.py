"""Two-qubit entanglement: concurrence, sudden-death times and decay classes.

Concurrence comes in two independent flavors that are required to agree:
the general spectral formula (via :func:`esdlab.linalg.product_spectrum`)
and the closed form for X-shaped states.  Sudden death is detected on the
signed concurrence margin (the quantity inside max{0, .}), which keeps a
vanished-and-absorbed zero distinguishable from an exponential tail that
merely became tiny.
"""

from __future__ import annotations

import collections.abc
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .channels import (
    KINDS,
    TARGETS,
    NoiseSpec,
    _checked_grid,
    _damping,
    _finite,
    _floats,
    _regroup,
    _shown,
    _transfer_blocks,
    check_nonnegative,
    check_times,
    fold_rates,
    transfer_states,
)
from .linalg import (
    DensityMatrix,
    check_densities,
    check_x_densities,
    kron,
    product_spectrum,
    validate_density,
)

# first_root bisects [0, t_max] down to ESD_RESOLUTION * min(1, t_max): an absolute
# width for horizons >= 1, a relative one for shorter horizons
ESD_RESOLUTION = 1e-10
# grid times trace_concurrence evolves at once: bounds the (block, 4, 4) transfer
# stacks of a general state and the per-time factor arrays of an X state
BLOCK_TIMES = 64
# slack on XState's population sum and |z| <= sqrt(b c), and on diagram_grid's |z| clamp
XSTATE_TOL = 1e-12
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SPIN_FLIP = kron(_SIGMA_Y, _SIGMA_Y)


class SeparableStateError(ValueError):
    """The initial state carries no entanglement to lose."""


@dataclass(frozen=True)
class XState:
    """Two-qubit state with populations a, b, c, d and inner coherence z.

    Nonzero entries sit on the diagonal and at the center of the
    anti-diagonal:

        [[a, 0,  0, 0],
         [0, b,  z, 0],
         [0, z*, c, 0],
         [0, 0,  0, d]]

    Populations sum to one and |z| <= sqrt(b*c), so the matrix is a valid
    density operator.
    """

    a: float
    b: float
    c: float
    d: float
    z: complex

    def __post_init__(self):
        pops = (self.a, self.b, self.c, self.d)
        if not all(_finite(x) for x in (*pops, self.z)):
            raise ValueError("entries must be finite")
        if min(pops) < 0:
            raise ValueError(f"populations must be >= 0, got {pops}")
        if abs(sum(pops) - 1.0) > XSTATE_TOL:
            raise ValueError(f"populations must sum to 1, got {sum(pops)!r}")
        if abs(self.z) > math.sqrt(self.b * self.c) + XSTATE_TOL:
            raise ValueError(
                f"|z| = {abs(self.z):.6g} exceeds sqrt(b c) = "
                f"{math.sqrt(self.b * self.c):.6g}"
            )

    def to_density(self) -> DensityMatrix:
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.b, self.c, self.d
        m[1, 2] = self.z
        m[2, 1] = np.conj(self.z)
        return validate_density(m)


def check_lambda(lam: float):
    """Raise ValueError unless lam is in (0, 4], the benchmark family's range."""
    if not (0 < lam <= 4):
        raise ValueError(f"lambda must be in (0, 4], got {_shown(lam, str)}")


def lambda_state(lam: float) -> XState:
    """One-parameter benchmark family: populations (1, 4, 4, 0)/9, z = lam/9."""
    check_lambda(lam)
    return XState(1 / 9, 4 / 9, 4 / 9, 0.0, lam / 9)


def spin_flipped(mat: np.ndarray) -> np.ndarray:
    """(sy (x) sy) conj(rho) (sy (x) sy)."""
    return _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP


def concurrence_margins(mats) -> np.ndarray:
    """Signed margins of a (..., 4, 4) stack of two-qubit density matrices."""
    roots = np.sqrt(product_spectrum(mats @ spin_flipped(mats)))
    return roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]


def concurrence_margin(rho: DensityMatrix) -> float:
    """Signed margin m with concurrence = max(0, m), from the general formula."""
    if rho.n_qubits != 2:
        raise ValueError("concurrence is defined for two-qubit states")
    return float(concurrence_margins(rho.mat))


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1]."""
    return max(0.0, concurrence_margin(rho))


def concurrence_x(x: XState) -> float:
    """Closed-form concurrence of an X state: 2 max{0, |z| - sqrt(a d)}."""
    return 2.0 * max(0.0, abs(x.z) - math.sqrt(x.a * x.d))


def _x_rates(specs: Iterable[NoiseSpec]) -> list[float]:
    """Summed rates [amplitude A, amplitude B, phase A, phase B]."""
    rates = fold_rates(specs)
    return [rates.get((q, kind), 0.0) for kind in KINDS for q in TARGETS]


def evolve_x(x: XState, specs: Iterable[NoiseSpec], t: float) -> XState:
    """Closed-form action of the lifted noise channels on an X state.

    X states are closed under these channels: populations mix through the
    per-qubit relaxation maps and z picks up the product of the per-qubit
    damping factors.  Identical (to roundoff) to building and applying the
    Kraus channels.
    """
    check_nonnegative(time=t)
    amp_a, amp_b, ph_a, ph_b = _x_rates(specs)
    ga, gb = math.exp(-amp_a * t), math.exp(-amp_b * t)
    zf = math.exp(-0.5 * (amp_a + ph_a + amp_b + ph_b) * t) if t else 1.0  # no inf * 0
    a = ga * gb * x.a
    b = ga * ((1 - gb) * x.a + x.b)
    c = gb * ((1 - ga) * x.a + x.c)
    d = (1 - ga) * (1 - gb) * x.a + (1 - ga) * x.b + (1 - gb) * x.c + x.d
    return XState(a, b, c, d, zf * x.z)


def _x_entries(x: XState) -> tuple:
    return (x.a, x.b, x.c, x.d, abs(x.z))


def _x_margins(entries, rates: list[float], times: np.ndarray) -> np.ndarray:
    """Vectorized X-state margin |z(t)| - sqrt(a(t) d(t)), up to a positive factor.

    ``entries`` holds the arrays a, b, c, d, |z|, which broadcast against
    ``times``.  Only the sign is used.  Both terms share the amplitude decay
    exp(-(amp_A + amp_B) t / 2), which is divided out, leaving
    |z| exp(-(ph_A + ph_B) t / 2) - sqrt(a0 d(t)); where a0 d(t) is exactly 0
    the value is |z|.  Either way no sign is lost when a term underflows.
    """
    a, b, c, d, abs_z = entries
    amp_a, amp_b, ph_a, ph_b = rates
    # a rate times a time overflows at most to inf, whose exponential 0 is the
    # exact limit; the phase rates are halved before they add, which is exact
    # for normal numbers and keeps a sum of two huge rates finite
    with np.errstate(over="ignore"):
        ua = 1 - np.exp(-amp_a * times)
        ub = 1 - np.exp(-amp_b * times)
        zf = np.exp(-(0.5 * ph_a + 0.5 * ph_b) * times)
    ad = a * (ua * ub * a + ua * b + ub * c + d)
    return np.where(ad == 0.0, abs_z, abs_z * zf - np.sqrt(ad))


@dataclass(frozen=True)
class ConcurrenceTrace:
    """Concurrence sampled along a time grid for one noise configuration."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1d arrays of equal length")
        if values.min(initial=0.0) < 0 or values.max(initial=0.0) > 1 + 1e-9:
            raise ValueError("concurrence values must lie in [0, 1]")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def _x_kraus_margins(x: XState, rates: list[float], times: np.ndarray) -> np.ndarray:
    """Margins 2 (|z| - sqrt(max(0, a d))) of an X state evolved to ``times``.

    The Kraus sum of ``channels.evolve_states`` written out for the five X
    entries, bit for bit: every op of the lifted Kraus set has at most one
    nonzero entry per row, so each entry of K rho K^dag is one product
    (k p) k plus exact zeros, and the terms add in op order.  The evolved
    entries are checked as ``check_densities`` checks the evolved states.
    Qubit q's composed ops diag(u, 1), s |+><+|, w |-><+| (and 0) come from
    ``channels._damping`` at its summed rates, 0 for an absent kind.
    """
    times = times.tolist()
    (g_amp_a, wa), (g_amp_b, wb), (g_ph_a, w_ph_a), (g_ph_b, w_ph_b) = (
        _damping(rate, times) for rate in rates)
    ua, sa = g_ph_a * g_amp_a, w_ph_a * g_amp_a
    ub, sb = g_ph_b * g_amp_b, w_ph_b * g_amp_b
    a, b, c, d = x.a, x.b, x.c, x.d

    def sq(k, p):
        return k * p * k

    a_t = sq(ua * ub, a) + sq(ua * sb, a) + sq(sa * ub, a) + sq(sa * sb, a)
    b_t = sq(ua, b) + sq(ua * wb, a) + sq(sa, b) + sq(sa * wb, a)
    c_t = sq(ub, c) + sq(sb, c) + sq(wa * ub, a) + sq(wa * sb, a)
    d_t = d + sq(wb, c) + sq(wa, b) + sq(wa * wb, a)
    z_t = ua * x.z * ub
    check_x_densities(a_t, b_t, c_t, d_t, z_t)
    ad = a_t * d_t
    # hypot, not np.abs: it matches the scalar abs() bit for bit
    return 2.0 * (np.hypot(z_t.real, z_t.imag) - np.sqrt(np.where(ad > 0.0, ad, 0.0)))


def _evolved_margins(initial, specs: tuple, times) -> np.ndarray:
    """Margins of the evolved states, BLOCK_TIMES times at a time: an XState's
    by the Kraus sum written out on its X entries, a DensityMatrix's by
    transfer maps and the general formula (the routes of ``trace_concurrence``)."""
    if isinstance(initial, XState):
        margins = functools.partial(_x_kraus_margins, initial, _x_rates(specs))
    else:
        def margins(t):
            return concurrence_margins(transfer_states(initial, specs, t))
    out = np.empty(len(times))
    for lo in range(0, len(times), BLOCK_TIMES):
        out[lo:lo + BLOCK_TIMES] = margins(times[lo:lo + BLOCK_TIMES])
    return out


def trace_concurrence(
    initial: Union[XState, DensityMatrix],
    specs: Iterable[NoiseSpec],
    times: Sequence[float],
) -> ConcurrenceTrace:
    """Concurrence along a time grid, each point evolved fresh from t = 0.

    The state is propagated with the channels at each grid time (never by
    composing earlier steps), so there is no error accumulation along the
    grid, BLOCK_TIMES times at a time, which bounds memory on long grids.
    An XState goes through the Kraus sum of the channels written out on its
    five X entries, bit-identical to applying the Kraus sets
    (``channels.evolve_states``) and reading those entries off; a
    DensityMatrix through per-qubit transfer maps (``transfer_states``) and
    the general formula.
    """
    specs = tuple(specs)
    times = check_times(times)
    if not len(times) or np.any(np.diff(times) <= 0):
        raise ValueError("need a nonempty ascending time grid")
    values = _evolved_margins(initial, specs, times)
    values[~(values > 0.0)] = 0.0  # NaN and -0.0 become 0.0 too
    return ConcurrenceTrace(times=times, values=values)


def first_root(margin, n_rows: int, t_max: float) -> list[Optional[float]]:
    """First sign change on [0, t_max] of each of ``n_rows`` margin rows.

    ``margin(rows)`` gives the evaluator of the rows indexed by ``rows``, a
    function of one time per row that returns their margins.  It is called
    for all rows, for the rows that bisect and again only when some finish,
    not per level, so the lattice gathers its rows once per live-row set.
    Every row is evaluated once at t_max: since concurrence never increases
    under local semigroup noise (Wootters, PRL 80, 2245 (1998)), a row whose
    margin there is positive (or NaN) never dies on [0, t_max] and gets
    None.  The other rows bisect [0, t_max] in lockstep, each down to
    ESD_RESOLUTION * min(1, t_max) or to adjacent floats, and get the
    nonpositive end of their bracket.  The margin at t = 0 is the caller's
    to check.
    """
    dies = margin(np.arange(n_rows))(np.full(n_rows, t_max)) <= 0.0  # False at NaN
    rows = np.flatnonzero(dies)  # the rows still bisecting, with their brackets
    lo, hi = np.zeros(len(rows)), np.full(len(rows), t_max)
    roots = np.zeros(n_rows)
    width = ESD_RESOLUTION * min(1.0, t_max)
    margin_at = margin(rows)
    while True:
        mid = 0.5 * (lo + hi)
        go = (hi - lo > width) & (lo < mid) & (mid < hi)
        if not go.all():
            roots[rows[~go]] = hi[~go]
            rows, lo, hi, mid = rows[go], lo[go], hi[go], mid[go]
            margin_at = margin(rows)
        if not len(rows):
            break
        dead = margin_at(mid) <= 0.0
        lo, hi = np.where(dead, lo, mid), np.where(dead, mid, hi)
    return [t if d else None for d, t in zip(dies.tolist(), roots.tolist())]


def _horizon(specs: tuple, t_max: Optional[float]) -> float:
    """``t_max`` checked, or the default horizon 20 / min(active rate), 1.0 with
    no active rate.  A heuristic, not a bound: exp(-20), about 2.06e-9, is not
    below every tolerance in use, and a death past the horizon reads EXPONENTIAL."""
    if t_max is None:
        active = [s.rate for s in specs if s.rate > 0]
        t_max = 20.0 / min(active) if active else 1.0
        if not math.isfinite(t_max):
            raise ValueError(f"rate {min(active)!r} is too small for the default horizon 20 / rate")
    if not (_finite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and > 0, got {_shown(t_max, str)}")
    return t_max


def esd_time(
    initial: Union[XState, DensityMatrix],
    specs: Iterable[NoiseSpec],
    t_max: Optional[float] = None,
) -> Optional[float]:
    """Smallest time at which the concurrence hits zero, up to ``t_max`` or,
    when that is None, up to the default horizon of ``_horizon``.

    The horizon is checked first, and the margin is then probed at t = 0,
    so SeparableStateError comes before any error of a later time.  Then
    ``first_root``, the root finder ``diagram_grid`` shares, reads the margin
    at t_max and, when it is nonpositive there, bisects [0, t_max] down to
    ESD_RESOLUTION * min(1, t_max).  Concurrence never increases under these
    local semigroup channels (Wootters, PRL 80, 2245 (1998)), so the sign at
    t_max decides whether the state dies.  Returns None when the margin is
    still positive at t_max, and raises SeparableStateError when there is
    nothing to lose at t = 0.

    For a DensityMatrix the margin is read off the evolved 4x4 matrix, so
    there is a precision floor: once the concurrence is below the roundoff
    of the evolved entries, no test on that matrix can decide death, and a
    late t* may be an artifact.  The X route reads the margin from
    ``_x_margins`` instead, which divides out the decay its terms share.

    A DensityMatrix's dimension is checked and its rates folded once per
    call, as ``transfer_states`` does per grid.  Each probe and midpoint is
    evolved by the unchecked core ``channels._transfer_blocks``, with the
    margins and bits of ``transfer_states``, and every evolved state is
    checked by one stacked ``check_densities`` before this returns or
    raises: an invalid one raises its ValidationError, which wins over a
    NumericalFailureError from its spectrum and over SeparableStateError.
    """
    specs = tuple(specs)
    t_max = _horizon(specs, t_max)
    states = []  # a DensityMatrix's evolved states, checked on the way out
    if isinstance(initial, XState):
        margins_at = functools.partial(_x_margins, _x_entries(initial), _x_rates(specs))
    else:
        _, rates = _checked_grid(initial, specs, ())  # the dimension check, folded rates
        blocks = _regroup(initial.mat)

        def margins_at(times):
            states.append(_transfer_blocks(blocks, rates, times))
            return concurrence_margins(states[-1])

    try:
        if margins_at(np.zeros(1))[0] <= 0.0:
            raise SeparableStateError("initial state is separable (zero concurrence)")
        return first_root(lambda _: margins_at, 1, t_max)[0]  # one row
    finally:
        if states:
            check_densities(np.concatenate(states))


class DecayKind(Enum):
    SEPARABLE_AT_START = "SEPARABLE_AT_START"
    EXPONENTIAL = "EXPONENTIAL"
    SUDDEN_DEATH = "SUDDEN_DEATH"
    INVALID = "INVALID"  # used only for out-of-range diagram cells


@dataclass(frozen=True)
class DecayClass:
    """``classify``'s class and t*, kept with it only for the benchmark tracer."""

    kind: DecayKind
    t_star: Optional[float] = None

    def __post_init__(self):
        if (self.kind is DecayKind.SUDDEN_DEATH) != (self.t_star is not None):
            raise ValueError("t_star must be present exactly for SUDDEN_DEATH")
        if self.t_star is not None and not self.t_star > 0:
            raise ValueError("t_star must be > 0")


def classify(x: XState, specs: Iterable[NoiseSpec]) -> DecayClass:
    """``esd_time`` of a d = 0 X state on the default horizon 20 / min(rate) as a
    class: a separable start is SEPARABLE_AT_START, None is EXPONENTIAL.  Kept only
    while the benchmark tracer binds ``concurrence.classify``; ``esd_time`` is the route."""
    if x.d != 0.0:
        raise ValueError("classification is defined on the d = 0 slice")
    try:
        t_star = esd_time(x, specs)
    except SeparableStateError:
        return DecayClass(DecayKind.SEPARABLE_AT_START)
    if t_star is None:
        return DecayClass(DecayKind.EXPONENTIAL)
    return DecayClass(DecayKind.SUDDEN_DEATH, t_star)


class DiagramCell(NamedTuple):
    """A lattice cell: a, |z|, its class and a SUDDEN_DEATH cell's t*.  A tuple:
    it equals, hashes, iterates and indexes as the plain tuple of its values."""

    a: float
    z: float
    kind: DecayKind
    t_star: Optional[float] = None


class DiagramGrid(collections.abc.Sequence):
    """The cells of a diagram lattice as four columns: a, z and t* as float
    lists (None for no death), the kinds as DecayKind members.  A read-only
    sequence of DiagramCell, each built as it is read, that equals a list of
    the same cells and has that list's ``repr``."""

    __slots__ = ("_a", "_z", "_kinds", "_t_stars")

    def __init__(self, a: list, z: list, kinds: list, t_stars: list):
        self._a, self._z, self._kinds, self._t_stars = a, z, kinds, t_stars

    def __len__(self) -> int:
        return len(self._a)

    def __iter__(self):
        return map(DiagramCell, self._a, self._z, self._kinds, self._t_stars)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return DiagramCell(self._a[i], self._z[i], self._kinds[i], self._t_stars[i])

    def __eq__(self, other):
        if isinstance(other, (list, DiagramGrid)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # list(self)'s repr, each cell freed once written
        return "[" + ", ".join(map(repr, self)) + "]"


def diagram_grid(
    a_values: Sequence[float],
    z_values: Sequence[float],
    specs: Iterable[NoiseSpec],
    t_max: Optional[float] = None,
) -> DiagramGrid:
    """Classify the (a, |z|) lattice of d = 0 states with b = c = (1 - a)/2.

    Each axis must be 1d (ValueError naming it otherwise), checked after the
    horizon.  One validity mask over the lattice arrays decides every cell,
    with no XState built: cells outside |z| <= (1 - a)/2 + XSTATE_TOL, or
    with a non-finite a or z, are INVALID.  A valid cell is live when its
    clamped z_in = min(z, (1 - a)/2), half its concurrence, is nonzero.  Live
    cells go through one ``first_root`` call, one margin row each, whose
    entries are gathered once per set of live rows: a cell that survives
    costs one evaluation, at t_max, and the dying cells bisect in lockstep.
    Each gets the bits ``esd_time`` gives it at the same horizon, checked on
    entry as there.  Rows are a-major, z-minor.

    Returns a DiagramGrid: the cells by column, a DiagramCell built only as
    it is read.  A list of cells would hand the garbage collector one
    tracked tuple per cell (a NamedTuple is never untracked), and each full
    collection walks every cell a caller still holds.
    """
    specs = tuple(specs)
    t_max = _horizon(specs, t_max)  # even when no cell is live
    rates = _x_rates(specs)
    a_axis, z_axis = _floats(a_values, "a_values"), _floats(z_values, "z_values")
    for name, axis in (("a_values", a_axis), ("z_values", z_axis)):
        if axis.ndim != 1:
            raise ValueError(f"{name} must be a 1d axis, got shape {axis.shape}")
    a, z = np.repeat(a_axis, len(z_axis)), np.tile(z_axis, len(a_axis))
    half = 0.5 * (1.0 - a)
    valid = (0 <= a) & (a <= 1) & (0 <= z) & (z <= half + XSTATE_TOL)  # False at nan
    z_in = np.minimum(z, half)
    live = np.flatnonzero(valid & (z_in != 0.0))  # d = 0: concurrence 2 z_in
    # each enum member is looked up once, not per cell: a bool indexes each pair
    kinds = list(map((DecayKind.INVALID, DecayKind.SEPARABLE_AT_START).__getitem__, valid.tolist()))
    t_stars: list[Optional[float]] = [None] * len(kinds)
    if len(live):
        entries = np.array([a[live], half[live], half[live], np.zeros(len(live)), z_in[live]])
        margin = lambda rows: functools.partial(_x_margins, entries[:, rows], rates)
        ends = (DecayKind.SUDDEN_DEATH, DecayKind.EXPONENTIAL)
        for i, t_star in zip(live.tolist(), first_root(margin, len(live), t_max)):
            kinds[i], t_stars[i] = ends[t_star is None], t_star
    return DiagramGrid(a.tolist(), z.tolist(), kinds, t_stars)
