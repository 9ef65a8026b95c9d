"""Closed-form decay laws for the one-parameter benchmark family.

These expressions are an independent cross-check layer for the channel
machinery.  The family is ``lambda_state(lam)``: populations (1, 4, 4, 0)/9
and inner coherence lam/9, with 0 < lam <= 4.  Rates follow the channel
convention of :mod:`esdlab.channels` (damping factor exp(-rate*t/2) per
qubit); symmetric noise means the same rate on both qubits.

With w2 = 1 - exp(-rate_amp * t):

* phase only:      C(t) = (2 lam / 9) exp(-rate_phase t)
* amplitude only:  C(t) = (2/9) [lam - sqrt(w2^2 + 8 w2)] exp(-rate_amp t),
  valid for 3 <= lam <= 4 where the bracket never goes negative
* both:            C(t) = (2/9) exp(-rate_amp t) *
                          max{0, lam exp(-rate_phase t) - sqrt(w2^2 + 8 w2)}

The two-noise form vanishes at the root of its bracket and stays zero; the
single-noise forms only decay exponentially.  The root exists exactly when
rate_amp > 0 and (rate_phase > 0 or lam < 3); this layer bisects it on its
own and shares no root finder or horizon with the numerical routes.

The phase diagram's d = 0 X states have their own exact laws: ``d0_dies``
decides in exact rationals whether one dies, and ``d0_death_time`` gives the
death time under amplitude noise alone in closed form.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from .channels import _shown, check_nonnegative
from .concurrence import SeparableStateError, XState, check_lambda


def coherence_factor(rate_amp: float, rate_phase: float, t: float) -> float:
    """Single-qubit coherence decay exp(-(rate_amp/2 + rate_phase) t).

    ``rate_amp`` and ``rate_phase`` are master-equation rates: the total
    decay rate is the sum of the halved longitudinal rate and the full
    transverse rate.
    """
    check_nonnegative(rate_amp=rate_amp, rate_phase=rate_phase, time=t)
    return math.exp(-(0.5 * rate_amp + rate_phase) * t) if t else 1.0  # no inf * 0


def phase_concurrence(lam: float, rate: float, t: float) -> float:
    """Concurrence under symmetric phase noise: (2 lam / 9) exp(-rate t)."""
    check_lambda(lam)
    check_nonnegative(rate=rate, time=t)
    return (2.0 * lam / 9.0) * math.exp(-rate * t)


def amplitude_elements(lam: float, rate: float, t: float):
    """Matrix elements (z, a, d) under symmetric amplitude noise."""
    check_lambda(lam)
    check_nonnegative(rate=rate, time=t)
    decay = math.exp(-rate * t)
    w2 = -math.expm1(-rate * t)
    z = (lam / 9.0) * decay
    a = decay * decay / 9.0
    d = w2 * w2 / 9.0 + 8.0 * w2 / 9.0
    return z, a, d


def _bracket(lam: float, rate_amp: float, rate_phase: float, t: float) -> float:
    """lam exp(-rate_phase t) - sqrt(w2^2 + 8 w2), with w2 = 1 - exp(-rate_amp t)."""
    w2 = -math.expm1(-rate_amp * t)
    return lam * math.exp(-rate_phase * t) - math.sqrt(w2 * w2 + 8.0 * w2)


def amplitude_concurrence(lam: float, rate: float, t: float) -> float:
    """Concurrence under symmetric amplitude noise, for 3 <= lam <= 4 only.

    Outside that range the bracket changes sign and the closed form does
    not apply; evaluate amplitude_elements and the X-state formula instead.
    """
    if not (3.0 <= lam <= 4.0):
        raise ValueError(
            f"closed form holds for 3 <= lambda <= 4, got {_shown(lam, str)}; "
            "use amplitude_elements for the general case"
        )
    check_nonnegative(rate=rate, time=t)
    return (2.0 / 9.0) * _bracket(lam, rate, 0.0, t) * math.exp(-rate * t)


def combined_concurrence(
    lam: float, rate_amp: float, rate_phase: float, t: float
) -> float:
    """Concurrence under simultaneous symmetric amplitude and phase noise."""
    check_lambda(lam)
    check_nonnegative(rate_amp=rate_amp, rate_phase=rate_phase, time=t)
    bracket = _bracket(lam, rate_amp, rate_phase, t)
    return (2.0 / 9.0) * math.exp(-rate_amp * t) * max(0.0, bracket)


def combined_death_time(
    lam: float, rate_amp: float, rate_phase: float
) -> Optional[float]:
    """Root of the two-noise bracket, to adjacent floats.  It starts at lam > 0 and
    never rises; with rate_amp > 0, w2 -> 1 and sqrt(w2^2 + 8 w2) -> 3, so its t -> oo
    limit is -3 if rate_phase > 0, else lam - 3; with rate_amp = 0 it stays
    lam exp(-rate_phase t) > 0.  None when the limit is not negative, as there is no
    root; ValueError when the root lies past the largest float."""
    check_lambda(lam)
    check_nonnegative(rate_amp=rate_amp, rate_phase=rate_phase)
    if not (rate_amp > 0 and (rate_phase > 0 or lam < 3)):
        return None
    lo, hi = 0.0, 1.0  # double hi, the last doubling clamped, until the bracket is <= 0
    while _bracket(lam, rate_amp, rate_phase, hi) > 0:
        if hi == sys.float_info.max:
            raise ValueError("the death time lies past the largest float")
        lo, hi = hi, min(2.0 * hi, sys.float_info.max)
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:  # the midpoint cannot overflow
        lo, hi = (lo, mid) if _bracket(lam, rate_amp, rate_phase, mid) <= 0 else (mid, hi)
    return hi


def d0_dies(x: XState, rate_amp: float, rate_phase: float) -> bool:
    """Whether an entangled d = 0 X state dies in finite time under amplitude
    rate ``rate_amp`` and phase rate ``rate_phase`` on both qubits.

    Derivation, in the rate convention of :mod:`esdlab.channels` (``evolve_x``
    writes it out): with g = exp(-rate_amp t), a(t) = g^2 a0, the coherence
    is |z(t)| = g exp(-rate_phase t) |z0|, and with w = 1 - g,
    d(t) = a0 w^2 + s w + d0, s = b0 + c0.  The concurrence is
    2 max{0, |z(t)| - sqrt(a(t) d(t))}; divide out the shared g, and with
    d0 = 0 the state is dead at t exactly when

        |z0|^2 exp(-2 rate_phase t) <= a0 (a0 w^2 + s w).

    At t = 0 the left side |z0|^2 > 0 exceeds the right side 0.
      * rate_amp = 0: w = 0, the right side stays 0: never dies.
      * rate_phase = 0: the right side rises with w to its t -> oo limit
        a0 (a0 + s), which w never reaches: dies iff a0 (a0 + s) > |z0|^2.
      * both > 0: the left side falls to 0 and the right side rises to
        a0 (a0 + s): dies iff a0 > 0.
    The comparison is made in exact rationals on the stored floats, so a tie
    (the lattice cell a = 1/9, |z| = 1/3 is one) does not die.
    """
    check_nonnegative(rate_amp=rate_amp, rate_phase=rate_phase)
    if x.d != 0.0:
        raise ValueError("the rule is defined on the d = 0 slice")
    if x.z == 0:
        raise SeparableStateError("the state is separable (zero concurrence)")
    if rate_amp == 0:
        return False
    if rate_phase > 0:
        return x.a > 0
    from fractions import Fraction  # here, not at the top: it imports decimal, ~3 ms per CLI start

    a, z = Fraction(x.a), complex(x.z)
    return a * (a + Fraction(x.b) + Fraction(x.c)) > Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


def d0_death_time(x: XState, rate: float) -> Optional[float]:
    """Death time of an entangled d = 0 X state under amplitude rate ``rate`` on
    both qubits, None when it never dies (``d0_dies`` at phase rate 0).

    With ``d0_dies``' notation at rate_phase = 0, the death is where
    a0^2 w^2 + a0 s w - |z0|^2 = 0.  The positive root, rationalized so that
    nothing cancels, is

        w* = 2 |z0|^2 / (a0 (s + sqrt(s^2 + 4 |z0|^2))),

    and w = 1 - exp(-rate t) gives t* = -log1p(-w*) / rate.  ValueError when
    that is not a finite float: w* rounded to 1, or the quotient overflowed.
    """
    if not d0_dies(x, rate, 0.0):
        return None
    s, z2 = x.b + x.c, abs(x.z) ** 2
    w = 2.0 * z2 / (x.a * (s + math.sqrt(s * s + 4.0 * z2)))
    t_star = -math.log1p(-w) / rate if w < 1.0 else math.inf
    if t_star == math.inf:
        raise ValueError("the death time is not a finite float")
    return t_star
