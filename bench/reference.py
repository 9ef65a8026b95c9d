"""Independent references the benchmark checks esdlab's outputs against.

Nothing here goes through esdlab's Kraus channels or its spectral
concurrence.  General states are evolved by one transfer map per qubit,
with the rates of each (qubit, kind) summed, because same-kind channels
on one qubit compose to the channel of the summed rate.  Concurrence
comes from the Hermitian form sqrt(rho) rho~ sqrt(rho).  X states use
esdlab's closed forms (``evolve_x``, ``concurrence_x`` and the
``closedform`` laws), which share no code with the Kraus path.

Tolerances are the ones the repository already uses: 1e-10 for closed
forms against channels, 1e-6 for the RK4 integrator, 1e-12 for a
vanished concurrence.  A death time t* must have zero concurrence at t*
and positive concurrence at t* - 2e-10, the bisection resolution of
1e-10 plus margin.
"""

from __future__ import annotations

import math

import numpy as np

CLOSED_FORM_TOL = 1e-10
RK4_TOL = 1e-6
DEAD_TOL = 1e-12
DEATH_BRACKET = 2e-10
RK4_DT = 1e-4

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def summed_rates(specs) -> dict:
    """Total rate per (target, kind)."""
    out = {(q, k): 0.0 for q in "AB" for k in ("amplitude", "phase")}
    for s in specs:
        out[(s.target, s.kind)] += s.rate
    return out


def horizon(specs) -> float:
    """Default classification horizon of the CLI: 20 / min(active rate)."""
    active = [s.rate for s in specs if s.rate > 0]
    return 20.0 / min(active) if active else 1.0


def _transfer(amp: float, phase: float, t: float) -> np.ndarray:
    """Single-qubit map T[i', j', i, j] in the rate convention of esdlab.channels.

    The excited population decays as exp(-amp t) into the ground state and
    the coherence as exp(-(amp + phase) t / 2).
    """
    decay = math.exp(-amp * t)
    coherence = math.exp(-0.5 * (amp + phase) * t)
    m = np.zeros((2, 2, 2, 2))
    m[0, 0, 0, 0] = decay
    m[1, 1, 0, 0] = -math.expm1(-amp * t)
    m[1, 1, 1, 1] = 1.0
    m[0, 1, 0, 1] = m[1, 0, 1, 0] = coherence
    return m


def evolve(rho: np.ndarray, specs, t: float) -> np.ndarray:
    """Two-qubit state at time t under the noise set, by per-qubit transfer maps."""
    r = summed_rates(specs)
    ta = _transfer(r["A", "amplitude"], r["A", "phase"], t)
    tb = _transfer(r["B", "amplitude"], r["B", "phase"], t)
    x = np.asarray(rho).reshape(2, 2, 2, 2)  # (iA, iB, jA, jB)
    return np.einsum("acik,bdjl,ijkl->abcd", ta, tb, x).reshape(4, 4)


def margin(rho: np.ndarray) -> float:
    """Signed Wootters margin l1 - l2 - l3 - l4; concurrence is max(0, margin)."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    r = root @ _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (r + r.conj().T)), 0.0, None))
    return float(lam[3] - lam[2] - lam[1] - lam[0])


def pure_concurrence(psi: np.ndarray) -> float:
    """Exact concurrence |psi^T (sy x sy) psi| of a normalized pure state."""
    return float(abs(psi @ _SPIN_FLIP @ psi))


def death_errors(margin_at, t_star: float, what: str) -> list[str]:
    """A death time must zero the concurrence and follow a positive stretch."""
    errors = []
    at = margin_at(t_star)
    if max(0.0, at) > DEAD_TOL:
        errors.append(f"{what}: concurrence {at:.3e} at t*={t_star!r} is not zero")
    before = margin_at(t_star - DEATH_BRACKET)
    if not before > 0.0:
        errors.append(f"{what}: concurrence not positive just before t*={t_star!r}")
    return errors


def x_margin(conc, x, specs, t: float) -> float:
    """Concurrence of an X state at time t by the closed-form X route."""
    return conc.concurrence_x(conc.evolve_x(x, specs, t))


def cell_errors(conc, a, z, kind: str, t_star, specs, t_max) -> list[str]:
    """Check one diagram cell against the closed-form X margin at the horizon."""
    half = 0.5 * (1.0 - a)
    what = f"cell a={a!r} z={z!r}"
    if z > half + 1e-12:
        return [] if kind == "INVALID" else [f"{what}: {kind}, expected INVALID"]
    x = conc.XState(a, half, half, 0.0, min(z, half))
    if conc.concurrence_x(x) == 0.0:
        expected = "SEPARABLE_AT_START"
    else:
        end = horizon(specs) if t_max is None else t_max
        dead = x_margin(conc, x, specs, end) == 0.0
        expected = "SUDDEN_DEATH" if dead else "EXPONENTIAL"
    if kind != expected:
        return [f"{what}: {kind}, expected {expected}"]
    if kind == "SUDDEN_DEATH":
        # concurrence_x clamps at zero, so "positive before" tests the margin sign
        return death_errors(lambda t: x_margin(conc, x, specs, t), t_star, what)
    return []
