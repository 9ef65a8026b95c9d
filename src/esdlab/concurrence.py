"""Two-qubit entanglement: concurrence, sudden-death times and decay classes.

Concurrence comes in two independent flavors that are required to agree:
the general spectral formula (via :func:`esdlab.linalg.product_spectrum`)
and the closed form for X-shaped states.  Sudden death is detected on the
signed concurrence margin (the quantity inside max{0, .}), which keeps a
vanished-and-absorbed zero distinguishable from an exponential tail that
merely became tiny.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .channels import (
    KINDS,
    TARGETS,
    NoiseSpec,
    _damping,
    check_time,
    check_times,
    fold_rates,
    transfer_states,
)
from .linalg import DensityMatrix, check_x_densities, kron, product_spectrum, validate_density

# root scan: grid points on (0, t_max], and the bisection width of first_root
SCAN_POINTS = 512
SCAN_BLOCK = 32  # X states scanned at a time: bounds the (block, grid) temporaries
ESD_RESOLUTION = 1e-10
# grid times trace_concurrence evolves, and esd_time scans, at once: bounds the
# (block, 4, 4) transfer stacks of a general state and the per-time factor arrays
# of an X state
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
        if not all(math.isfinite(p) for p in pops) or not np.isfinite(self.z):
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
        raise ValueError(f"lambda must be in (0, 4], got {lam}")


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
    check_time(t)
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
    specs: tuple
    initial: Union[XState, DensityMatrix]

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
        object.__setattr__(self, "specs", tuple(self.specs))


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
    return ConcurrenceTrace(times=times, values=values, specs=specs, initial=initial)


def first_root(margin, grid, values) -> list[Optional[float]]:
    """First sign change of each row of ``values``, margins on ``grid`` that start > 0.

    ``values`` is an (n, m) array or an iterable of (k, m) row blocks, with
    m <= len(grid): a row may end after its first nonpositive value, since
    nothing past it is read.  Each row's bracket [grid[idx - 1], grid[idx]]
    around its first nonpositive value is bisected on ``margin(rows, t)``,
    the margins of those rows at their own times, all rows in lockstep, each
    down to ESD_RESOLUTION or to adjacent floats.  Returns per row the
    nonpositive end of the bracket, or None when the row has no nonpositive
    value.
    """
    found = [np.zeros(0, dtype=np.intp)]
    for block in values:
        hits = np.atleast_2d(block)[:, 1:] <= 0.0
        found.append(np.where(hits.any(axis=1), 1 + hits.argmax(axis=1), 0))
    idx = np.concatenate(found)
    rows = np.flatnonzero(idx)  # the rows still bisecting, with their brackets
    lo, hi = grid[idx[rows] - 1], grid[idx[rows]]
    roots = np.zeros(len(idx))
    while True:
        mid = 0.5 * (lo + hi)
        go = (hi - lo > ESD_RESOLUTION) & (lo < mid) & (mid < hi)
        if not go.all():
            roots[rows[~go]] = hi[~go]
            rows, lo, hi, mid = rows[go], lo[go], hi[go], mid[go]
        if not len(rows):
            break
        dead = margin(rows, mid) <= 0.0
        lo, hi = np.where(dead, lo, mid), np.where(dead, mid, hi)
    return [t if i else None for i, t in zip(idx.tolist(), roots.tolist())]


def _horizon(specs: tuple, t_max: Optional[float]) -> float:
    """``t_max`` checked, or the default horizon 20 / min(active rate), 1.0 with
    no active rate.  A heuristic, not a bound: exp(-20), about 2.06e-9, is not
    below every tolerance in use, and a death past the horizon reads EXPONENTIAL."""
    if t_max is None:
        active = [s.rate for s in specs if s.rate > 0]
        t_max = 20.0 / min(active) if active else 1.0
        if not math.isfinite(t_max):
            raise ValueError(f"rate {min(active)!r} is too small for the default horizon 20 / rate")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    return t_max


def esd_time(
    initial: Union[XState, DensityMatrix],
    specs: Iterable[NoiseSpec],
    t_max: Optional[float] = None,
) -> Optional[float]:
    """Smallest time at which the concurrence hits zero, up to ``t_max`` or,
    when that is None, up to the default horizon of ``_horizon``.

    The horizon is checked first, and the margin is then probed at t = 0,
    so SeparableStateError comes before any error of a later time.  The grid
    ``linspace(0, t_max, SCAN_POINTS + 1)`` is then scanned BLOCK_TIMES
    times at a time, in order, and the scan stops after the first block
    holding a nonpositive margin past t = 0; ``first_root`` bisects that
    first sign change to ESD_RESOLUTION, on the one row of this state, and
    reads nothing past it, so the blocks left unscanned change no bit.
    Concurrence never increases under these local semigroup channels
    (Wootters, PRL 80, 2245 (1998)), so that zero stays zero and needs no
    check past it.  Returns None when the margin stays positive on the
    whole grid, and raises SeparableStateError when there is nothing to
    lose at t = 0.

    For a DensityMatrix the margin is read off the evolved 4x4 matrix, so
    there is a precision floor: once the concurrence is below the roundoff
    of the evolved entries, no test on that matrix can decide death, and a
    late t* may be an artifact.  The X route reads the margin from
    ``_x_margins`` instead, which divides out the decay its terms share.
    """
    specs = tuple(specs)
    t_max = _horizon(specs, t_max)
    if isinstance(initial, XState):
        margins_at = functools.partial(_x_margins, _x_entries(initial), _x_rates(specs))
    else:
        margins_at = functools.partial(_evolved_margins, initial, specs)
    if margins_at(np.zeros(1))[0] <= 0.0:
        raise SeparableStateError("initial state is separable (zero concurrence)")
    grid = np.linspace(0.0, t_max, SCAN_POINTS + 1)
    margins = np.empty_like(grid)
    for lo in range(0, len(grid), BLOCK_TIMES):
        hi = lo + BLOCK_TIMES
        margins[lo:hi] = margins_at(grid[lo:hi])
        if (margins[1:hi] <= 0.0).any():  # first_root reads no hit at t = 0 either
            break
    return first_root(lambda _, t: margins_at(t), grid, [margins[:hi]])[0]


class DecayKind(Enum):
    SEPARABLE_AT_START = "SEPARABLE_AT_START"
    EXPONENTIAL = "EXPONENTIAL"
    SUDDEN_DEATH = "SUDDEN_DEATH"
    INVALID = "INVALID"  # used only for out-of-range diagram cells


@dataclass(frozen=True)
class DecayClass:
    """Decay classification with the death time when there is one."""

    kind: DecayKind
    t_star: Optional[float] = None

    def __post_init__(self):
        if (self.kind is DecayKind.SUDDEN_DEATH) != (self.t_star is not None):
            raise ValueError("t_star must be present exactly for SUDDEN_DEATH")
        if self.t_star is not None and not self.t_star > 0:
            raise ValueError("t_star must be > 0")


def classify(
    x: XState, specs: Iterable[NoiseSpec], t_max: Optional[float] = None
) -> DecayClass:
    """Decay class of a d = 0 X state under a noise set."""
    if x.d != 0.0:
        raise ValueError("classification is defined on the d = 0 slice")
    specs = tuple(specs)
    fold_rates(specs)  # an overflowing summed rate raises here too, as on every route
    if concurrence_x(x) == 0.0:
        return DecayClass(DecayKind.SEPARABLE_AT_START)
    t_star = esd_time(x, specs, t_max)
    if t_star is None:
        return DecayClass(DecayKind.EXPONENTIAL)
    return DecayClass(DecayKind.SUDDEN_DEATH, t_star)


@dataclass(frozen=True)
class DiagramCell:
    a: float
    z: float
    kind: DecayKind
    t_star: Optional[float] = None


def diagram_grid(
    a_values: Sequence[float],
    z_values: Sequence[float],
    specs: Iterable[NoiseSpec],
    t_max: Optional[float] = None,
) -> list[DiagramCell]:
    """Classify the (a, |z|) lattice of d = 0 states with b = c = (1 - a)/2.

    One validity mask over the lattice arrays decides every cell, with no
    XState built: cells outside |z| <= (1 - a)/2 + XSTATE_TOL, or with a
    non-finite a or z, are INVALID.  A valid cell is live when its clamped
    z_in = min(z, (1 - a)/2), half its concurrence, is nonzero.  Live cells
    go through one scan, SCAN_BLOCK at a time, and one lockstep bisection,
    and get the bits ``classify`` gives each.  Rows are a-major, z-minor.
    """
    specs = tuple(specs)
    rates = _x_rates(specs)
    a_axis, z_axis = np.asarray(a_values, dtype=float), np.asarray(z_values, dtype=float)
    a, z = np.repeat(a_axis, len(z_axis)), np.tile(z_axis, len(a_axis))
    half = 0.5 * (1.0 - a)
    valid = (0 <= a) & (a <= 1) & (0 <= z) & (z <= half + XSTATE_TOL)  # False at nan
    z_in = np.minimum(z, half)
    live = np.flatnonzero(valid & (z_in != 0.0))  # d = 0: concurrence 2 z_in
    kinds = [DecayKind.SEPARABLE_AT_START if ok else DecayKind.INVALID for ok in valid.tolist()]
    t_stars: list[Optional[float]] = [None] * len(kinds)
    if len(live):
        entries = np.array([a[live], half[live], half[live], np.zeros(len(live)), z_in[live]])
        grid = np.linspace(0.0, _horizon(specs, t_max), SCAN_POINTS + 1)
        blocks = (
            _x_margins(entries[:, lo:lo + SCAN_BLOCK, None], rates, grid)
            for lo in range(0, len(live), SCAN_BLOCK)
        )
        roots = first_root(lambda rows, t: _x_margins(entries[:, rows], rates, t), grid, blocks)
        for i, t_star in zip(live.tolist(), roots):
            kinds[i] = DecayKind.EXPONENTIAL if t_star is None else DecayKind.SUDDEN_DEATH
            t_stars[i] = t_star
    return [DiagramCell(*cell) for cell in zip(a.tolist(), z.tolist(), kinds, t_stars)]
