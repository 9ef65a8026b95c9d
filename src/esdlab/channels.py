"""Qubit noise channels in Kraus form plus a matching master-equation integrator.

Conventions
-----------
A channel is built for a rate G and an elapsed time t.  ``_kind_stack``
builds the Kraus pair {diag(gamma, 1), K1} of either kind on a whole time
grid; both kinds share the damping pair of ``_damping``

    gamma(G, t) = exp(-G * t / 2),      omega = sqrt(1 - gamma**2).

* amplitude, K1 = omega |-><+|: energy relaxation |+> -> |->.  Excited
  population decays as gamma**2 = exp(-G*t), single-qubit coherence as gamma.
* phase, K1 = omega |+><+|: pure dephasing.  Populations are untouched, the
  single-qubit coherence decays as gamma = exp(-G*t/2) per application.

Rates are therefore "half rates" on coherence for the dephasing kind: the
widely used transverse convention in which coherence decays as exp(-G*t)
corresponds to rate 2*G here, or equivalently to applying the channel
twice.  ``lindblad_rhs`` uses generators that exponentiate to exactly
these channel families, so Kraus evolution and the integrator agree
element-wise for the same noise set.

Everything is in the rotating frame of the qubits: there is no Hamiltonian
term, only dissipators.

Two-qubit states evolve by one of two routes.  ``evolve_states`` builds the
Kraus sets of a whole time grid once and applies them to one state, or to
each of a tuple of states, in two matrix products: it is the oracle that
``esdlab.checks`` and the tests hold the other routes to.
``transfer_states`` applies the same channels as a tensor product of
per-qubit transfer maps, with no Kraus set built, and evolves general
states.  X states take neither: ``esdlab.concurrence`` writes the Kraus sum
out on their five X entries, bit-identical to ``evolve_states``, because
the transfer maps move their traced concurrence by a few 1e-16 and the
stored golden CLI traces are byte-exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DensityMatrix,
    NumericalFailureError,
    ValidationError,
    as_matrix,
    as_stack,
    check_densities,
    kron,
    validate_density,
)

COMPLETENESS_TOL = 1e-10
DEFAULT_DT = 1e-4
# trace and positivity bound for RK4 states, which carry error from many steps
INTEGRATOR_TOL = 1e-8
# bounds on one integrate_path run: total RK4 steps, and step size times the
# generator's spectral radius (RK4 is stable on the real axis down to -2.785)
MAX_RK4_STEPS = 10**6
RK4_STABILITY_LIMIT = 2.785

TARGETS = ("A", "B")
KINDS = ("amplitude", "phase")

_SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |+> -> |->
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


def _finite(x) -> bool:
    """math.isfinite of a real or complex number, False for an int beyond the float range."""
    return abs(x) <= sys.float_info.max


def _floats(values, name: str) -> np.ndarray:
    """``values`` as a float array, or ValueError naming them for an int beyond the float range."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} hold an int beyond the float range") from None


def _shown(x, fmt) -> str:
    """``fmt(x)`` for a message, or a phrase for an int beyond the float range,
    whose hundreds of digits would not fit on one line."""
    return "an int beyond the float range" if isinstance(x, int) and not _finite(x) else fmt(x)


def check_nonnegative(**values: float):
    """Raise ValueError, naming the argument, unless each value (a rate or a
    time) is finite and >= 0; the arguments are checked in the order given."""
    for name, x in values.items():
        if not (_finite(x) and x >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {_shown(x, repr)}")


def check_times(times) -> np.ndarray:
    """A time grid as a 1d float array, every time checked as by
    ``check_nonnegative``, which names the first bad one: the one grid check."""
    times = _floats(times, "times")
    if times.ndim != 1:
        raise ValueError(f"need a 1d time grid, got shape {times.shape}")
    bad = ~(np.isfinite(times) & (times >= 0.0))
    if bad.any():
        check_nonnegative(time=float(times[bad.argmax()]))
    return times


@dataclass(frozen=True)
class NoiseSpec:
    """One independent noise source: target qubit, kind and rate.

    ``rate`` parameterizes the channel family of this module directly
    (damping factor exp(-rate*t/2) inside the Kraus matrices).
    """

    target: str
    kind: str
    rate: float

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        check_nonnegative(rate=self.rate)


@dataclass(frozen=True)
class KrausChannel:
    """A finite set of Kraus matrices of one dimension, at one time.

    ``noise_channel`` fills it from the stacked builder, complete to within
    COMPLETENESS_TOL; ``apply_channel`` enforces that before using a channel.
    The container itself only checks shapes, so that a broken channel can be
    built and refused.  Goes once the benchmark tracer stops reading ``.ops``.
    """

    dim: int
    ops: tuple

    def __post_init__(self):
        if self.dim not in (2, 4):
            raise ValueError(f"dim must be 2 or 4, got {self.dim}")
        if not self.ops:
            raise ValueError("a channel needs at least one Kraus matrix")
        ops = np.array([as_matrix(op, dims=(self.dim,)) for op in self.ops])
        ops.setflags(write=False)
        object.__setattr__(self, "ops", tuple(ops))


def fold_rates(specs: Iterable[NoiseSpec]) -> dict:
    """Summed rate per (target, kind) that occurs in ``specs``, added in spec
    order; raises ValueError, naming the qubit and kind, on a sum that overflows."""
    rates: dict = {}
    for s in specs:
        rates[s.target, s.kind] = rates.get((s.target, s.kind), 0.0) + s.rate
    for (target, kind), rate in rates.items():
        if not math.isfinite(rate):
            raise ValueError(f"summed {kind} rate of qubit {target} must be finite, got {rate!r}")
    return rates


def _damping(rate: float, times: Sequence[float]) -> tuple:
    """(gamma, omega) arrays of one kind at a checked rate and checked float times:
    gamma = exp(-rate t / 2) over Python floats (an overflowing rate * t is -inf,
    silently) and omega = sqrt(max(0, 1 - gamma^2))."""
    gamma = np.array([math.exp(-0.5 * rate * t) for t in times])
    return gamma, np.sqrt(np.maximum(0.0, 1.0 - gamma * gamma))


def _kind_stack(kind: str, rate: float, times: Sequence[float]) -> np.ndarray:
    """(n_t, 2, 2, 2) Kraus pairs of one kind from ``_damping``: diag(gamma, 1),
    and omega in K1 at |-><+| for amplitude, at |+><+| for phase."""
    gamma, omega = _damping(rate, times)
    ops = np.zeros((len(gamma), 2, 2, 2), dtype=np.complex128)
    ops[:, 0, 0, 0], ops[:, 0, 1, 1] = gamma, 1.0
    ops[:, 1, 1 if kind == "amplitude" else 0, 0] = omega
    return ops


def _lift_stack(ops_a: np.ndarray, ops_b: np.ndarray) -> np.ndarray:
    """(n_t, n_a n_b, 4, 4) stack {K_i (x) L_j}, op i * n_b + j, in kron's layout."""
    prod = ops_a[:, :, None, :, None, :, None] * ops_b[:, None, :, None, :, None, :]
    return prod.reshape(len(prod), ops_a.shape[1] * ops_b.shape[1], 4, 4)


def _compose_stack(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """Channel applying ``first`` and then ``then``, per time of (n_t, n_ops, d, d)
    stacks: op i * n_then + j is L_j K_i."""
    return (then[:, None] @ first[:, :, None]).reshape(len(first), -1, *first.shape[2:])


def _completeness_defect(ops: np.ndarray) -> float:
    """Max-norm of sum(K^dag K) - 1, worst over an (n_t, n_ops, d, d) Kraus stack:
    per time, one product of the ops stacked as an (n_ops d, d) matrix A: A^dag A."""
    stacked = ops.reshape(len(ops), -1, ops.shape[-1])
    gram = stacked.conj().swapaxes(1, 2) @ stacked
    return float(np.abs(gram - np.eye(ops.shape[-1])).max())


def _kraus_sum(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum K rho K^dag at each time of a complete (n_t, n_ops, d, d) Kraus stack:
    (n_t, d, d) for one rho (d, d), (n, n_t, d, d) for a stack rho (n, d, d).

    Two products: K rho of every op and time as one (n_t n_ops d, d) @ (d, d)
    product per state, then (K rho) K^dag of every state as one (n d, d) @ (d, d)
    product per op and time; the terms are added in op order.  numpy's BLAS
    computes each entry with the operations of a lone 4x4 product, so the
    bits are those of one op applied to one state at a time (tests/test_stacked.py)."""
    defect = _completeness_defect(ops)
    if defect > COMPLETENESS_TOL:
        raise ValueError(
            f"channel completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL:.0e}"
        )
    (n_t, n_ops, d, _), rhos = ops.shape, rho.reshape(-1, *rho.shape[-2:])
    left = (ops.reshape(-1, d) @ rhos).reshape(len(rhos), n_t * n_ops, d, d).swapaxes(0, 1)
    right = ops.reshape(-1, d, d).conj().swapaxes(1, 2)
    terms = (left.reshape(n_t * n_ops, -1, d) @ right).reshape(n_t, n_ops, len(rhos), d, d)
    out = sum(terms.swapaxes(0, 1), np.zeros_like(terms[:, 0]))  # in op order
    return out.swapaxes(0, 1).reshape(*rho.shape[:-2], n_t, d, d)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a complete channel: rho -> sum K rho K^dag, revalidated.

    Goes once the benchmark tracer stops binding it; ``evolve_states`` is the oracle."""
    if ch.dim != rho.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, state {rho.dim}")
    return validate_density(_kraus_sum(np.array(ch.ops)[None], rho.mat)[0])


def _qubit_stack(rates: dict, times: Sequence[float], target: str) -> np.ndarray:
    """(n_t, n_ops, 2, 2) Kraus stack of one qubit's noise: the identity, then
    each kind in ``rates`` at its summed rate, amplitude before phase (the
    kinds commute in action, so the order only fixes the representative)."""
    ops = np.broadcast_to(_I2, (len(times), 1, 2, 2))
    for kind in KINDS:
        if (target, kind) in rates:
            ops = _compose_stack(ops, _kind_stack(kind, rates[(target, kind)], times))
    return ops


def _noise_stack(rates: dict, times: Sequence[float]) -> np.ndarray:
    """(n_t, n_ops, 4, 4) Kraus stack of a folded noise set: the one builder."""
    return _lift_stack(_qubit_stack(rates, times, "A"), _qubit_stack(rates, times, "B"))


def noise_channel(specs: Iterable[NoiseSpec], t: float) -> KrausChannel:
    """Two-qubit channel for a noise set at elapsed time t: at most 16 Kraus ops.

    Goes once the benchmark tracer stops binding it; ``evolve_states`` is the oracle."""
    return KrausChannel(4, tuple(_noise_stack(fold_rates(specs), check_times([t]).tolist())[0]))


def _checked_grid(
    rho0: DensityMatrix | tuple, specs: Iterable[NoiseSpec], times: Sequence[float]
) -> tuple:
    """The checked time grid and folded rates, for evolving a two-qubit rho0 or a tuple."""
    if isinstance(rho0, tuple) and not rho0:
        raise ValueError("no states to evolve: the tuple of states is empty")
    for rho in rho0 if isinstance(rho0, tuple) else (rho0,):
        if rho.dim != 4:
            raise ValueError(f"dimension mismatch: channel 4, state {rho.dim}")
    return check_times(times), fold_rates(specs)


def evolve_states(
    rho0: DensityMatrix | tuple, specs: Iterable[NoiseSpec], times: Sequence[float]
) -> np.ndarray:
    """States of a two-qubit rho0 under a noise set at each grid time, (n_t, 4, 4),
    or of each of a tuple of n of them, (n, n_t, 4, 4).

    The Kraus oracle: the folded Kraus sets of the whole grid from the one
    stacked builder, built once for every state and applied by ``_kraus_sum``
    in two products.  Equal, bit for bit, to applying each time's set to each
    state alone, one 4x4 product at a time.
    """
    times, rates = _checked_grid(rho0, specs, times)
    mats = np.reshape([r.mat for r in rho0], (-1, 4, 4)) if isinstance(rho0, tuple) else rho0.mat
    if not len(times):  # the stacked checks take a max over at least one time
        return np.empty((*mats.shape[:-2], 0, 4, 4), dtype=np.complex128)
    return check_densities(_kraus_sum(_noise_stack(rates, times.tolist()), mats))


def _transfer_stack(rates: dict, times: np.ndarray, target: str) -> np.ndarray:
    """(n_t, 4, 4) real map of one qubit's folded noise on its vectorized 2x2
    block [++, +-, -+, --]: the excited population decays as exp(-amp t) into
    the ground one, the coherence as exp(-amp t / 2) exp(-phase t / 2)."""
    amp = rates.get((target, "amplitude"), 0.0)
    phase = rates.get((target, "phase"), 0.0)
    # folded rates and checked times are finite, so their product overflows at
    # most to inf, whose exponentials are the exact limits 0 and -1
    with np.errstate(over="ignore"):
        decay, gain = np.exp(-amp * times), -np.expm1(-amp * times)
        coherence = np.exp(-0.5 * amp * times) * np.exp(-0.5 * phase * times)
    maps = np.zeros((len(times), 4, 4))
    maps[:, 0, 0], maps[:, 3, 0], maps[:, 3, 3] = decay, gain, 1.0
    maps[:, 1, 1] = maps[:, 2, 2] = coherence
    return maps


def _regroup(mats: np.ndarray) -> np.ndarray:
    """(..., 4, 4) two-qubit matrices regrouped from (iA iB, jA jB) to
    (iA jA, iB jB), and back: the regrouping is its own inverse."""
    return mats.reshape(*mats.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -2).reshape(mats.shape)


def _transfer_blocks(blocks: np.ndarray, rates: dict, times: np.ndarray) -> np.ndarray:
    """Unchecked (n_t, 4, 4) states from a regrouped rho0, folded rates and a
    checked grid: two stacked matmuls apply the per-qubit maps, qubit A's on
    the left of the blocks, qubit B's on the right."""
    out = _transfer_stack(rates, times, "A") @ blocks
    return _regroup(out @ _transfer_stack(rates, times, "B").swapaxes(1, 2))


def transfer_states(
    rho0: DensityMatrix, specs: Iterable[NoiseSpec], times: Sequence[float]
) -> np.ndarray:
    """States of a two-qubit rho0 under a noise set at each grid time, (n_t, 4, 4),
    by the tensor product of per-qubit transfer maps at the folded rates.

    The same channels as ``evolve_states`` in another representation
    (Wood, Biamonte & Cory, arXiv:1111.6950): equal to it to roundoff, not
    bit for bit, with the same time and density checks.  The unchecked core
    ``_transfer_blocks`` evolves rho0 regrouped as (iA jA, iB jB), and
    ``check_densities`` checks its result.
    """
    times, rates = _checked_grid(rho0, specs, times)
    if not len(times):
        return np.empty((0, 4, 4), dtype=np.complex128)
    return check_densities(_transfer_blocks(_regroup(rho0.mat), rates, times))


def _lift_op(op: np.ndarray, target: str, n_qubits: int) -> np.ndarray:
    if n_qubits == 1:
        if target != "A":
            raise ValueError("single-qubit states only have qubit A")
        return op
    return kron(op, _I2) if target == "A" else kron(_I2, op)


def lindblad_rhs(rho, specs: Iterable[NoiseSpec]) -> np.ndarray:
    """Dissipative generator applied to a state, or to each matrix of a (..., d, d) stack.

    Per noise source, with L acting on the target qubit:

    * amplitude, rate G:  (G/2) (2 s- rho s+  -  s+ s- rho  -  rho s+ s-)
    * phase, rate G:      (G/4) (sz rho sz - rho)

    The phase coefficient G/4 makes this the exact generator of the phase
    Kraus pair at rate G (coherence factor exp(-G*t/2)); see the module
    docstring for the relation to the exp(-G*t) convention.
    """
    mat = rho.mat if isinstance(rho, DensityMatrix) else as_stack(rho)
    n_qubits = 1 if mat.shape[-1] == 2 else 2
    out = np.zeros_like(mat)
    for s in specs:
        if s.kind == "amplitude":
            low = _lift_op(_SIGMA_MINUS, s.target, n_qubits)
            raise_ = low.conj().T
            num = raise_ @ low
            out += (0.5 * s.rate) * (
                2.0 * low @ mat @ raise_ - num @ mat - mat @ num
            )
        else:
            sz = _lift_op(_SIGMA_Z, s.target, n_qubits)
            out += (0.25 * s.rate) * (sz @ mat @ sz - mat)
    return out


def _rk4_step_matrix(sup: np.ndarray, h: float) -> np.ndarray:
    """One fixed-size classical Runge-Kutta step for a constant linear generator
    (or a (..., n, n) stack of them).

    For rho' = L rho the textbook k1..k4 update collapses to the degree-4
    Taylor polynomial of exp(h L); iterating this matrix is the RK4 solution.
    """
    n = sup.shape[-1]
    step = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in (1, 2, 3, 4):
        term = (h / k) * (sup @ term)
        step = step + term
    return step


def _rk4_runs(
    rho0: DensityMatrix, spec_sets: Sequence[tuple], times: Sequence[float], dt: float
) -> np.ndarray:
    """``integrate_path`` of each noise set in ``spec_sets`` as (n_runs, n_t, d, d)
    states: the runs step in lockstep, one stacked matmul per step, and each
    run's states are bit for bit those of stepping it alone.  A lone run steps
    a flat vector by ``ndarray.dot``, the zgemv that the matmul calls per run."""
    times = check_times(times)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be ascending")
    times = times.tolist()
    if not (_finite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {_shown(dt, str)}")
    for specs in spec_sets:  # the generator adds up the rates of each set
        fold_rates(specs)
    dim, runs = rho0.dim, len(spec_sets)
    basis = np.eye(dim * dim, dtype=np.complex128).reshape(-1, dim, dim)
    # row j is the generator applied to basis matrix j, so vec of column j of
    # the superoperator: transposed, then copied to C order by np.array
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        sups = np.array([lindblad_rhs(basis, specs).reshape(len(basis), -1).T
                         for specs in spec_sets])
    if not np.isfinite(sups).all():
        raise ValueError("noise rates overflow the master-equation generator")
    vecs = rho0.mat.reshape(dim * dim if runs == 1 else (1, dim * dim, 1))  # flat for one run
    too_many = f"dt {dt} needs more than {MAX_RK4_STEPS} RK4 steps"
    if len(times) - (times[:1] == [0.0]) > MAX_RK4_STEPS:  # before the step plan is built
        raise ValueError(too_many)
    spans = [t - s for s, t in zip([0.0] + times, times)]
    # capped before ceil (no inf from a huge span / dt); a positive span takes >= 1 step
    counts = [max(1, math.ceil(min(span / dt - 1e-12, MAX_RK4_STEPS + 1))) if span else 0
              for span in spans]
    if sum(counts) > MAX_RK4_STEPS:
        raise ValueError(too_many)
    h_max = max((span / n for span, n in zip(spans, counts) if n), default=0.0)
    radius = float(np.abs(np.linalg.eigvals(sups)).max()) if h_max else 0.0
    if h_max * radius > RK4_STABILITY_LIMIT:
        raise ValueError(
            f"RK4 step {h_max:.3g} times generator rate {radius:.3g} exceeds "
            f"the stability limit {RK4_STABILITY_LIMIT}"
        )
    out = np.empty((runs, len(times), dim, dim), dtype=np.complex128)
    for i, (t, span, n_steps) in enumerate(zip(times, spans, counts)):
        if n_steps:
            step = _rk4_step_matrix(sups, span / n_steps)
            if runs == 1:
                dot = step[0].dot
                for _ in range(n_steps):
                    vecs = dot(vecs)
            else:  # a literal @: a bound step.__matmul__ costs about 5 % per step
                for _ in range(n_steps):
                    vecs = step @ vecs
        out[:, i] = vecs.reshape(-1, dim, dim)
        try:
            check_densities(out[:, i], tol=INTEGRATOR_TOL)
        except ValidationError as exc:
            raise NumericalFailureError(
                f"integration left the state space at t={t}: {exc}"
            ) from exc
    return out


def integrate_path(
    rho0: DensityMatrix,
    specs: Iterable[NoiseSpec],
    times: Sequence[float],
    dt: float = DEFAULT_DT,
) -> list[DensityMatrix]:
    """Fixed-step RK4 solutions of the master equation on an ascending time grid.

    One pass; each span between grid times is split into equal steps
    h = span / ceil(span / dt) <= dt.  Before the first step, a run of more
    than MAX_RK4_STEPS steps, or with h times the generator's spectral
    radius above RK4_STABILITY_LIMIT, raises ValueError.  States are
    revalidated to INTEGRATOR_TOL, and a failure becomes NumericalFailureError.
    The one-run case of ``_rk4_runs``, stepped by ``ndarray.dot``: the lockstep bits.
    """
    states = _rk4_runs(rho0, [tuple(specs)], times, dt)[0]
    states.setflags(write=False)
    return [DensityMatrix(rho0.n_qubits, m) for m in states]
