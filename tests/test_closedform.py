import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from esdlab import (
    SeparableStateError,
    XState,
    amplitude_concurrence,
    amplitude_elements,
    coherence_factor,
    combined_concurrence,
    combined_death_time,
    evolve_x,
    lambda_state,
    phase_concurrence,
)
from esdlab.closedform import d0_death_time, d0_dies

T_STAR_COMBINED_4 = 0.673460816143141
T_STAR_AMP_2 = 0.6389165189617606
C_AMP_4_LN2 = 0.21538302079901883  # (2/9)(4 - sqrt(17)/2) / 2


def test_coherence_factor():
    assert coherence_factor(0.0, 0.0, 7.0) == 1.0
    assert abs(coherence_factor(1.0, 1.0, 1.0) - math.exp(-1.5)) < 1e-16
    assert abs(coherence_factor(2.0, 0.0, 1.0) - math.exp(-1.0)) < 1e-16
    # 0.5 max + max overflows to inf, and inf * 0 was nan
    big = sys.float_info.max
    assert coherence_factor(big, big, 0.0) == coherence_factor(big, big, -0.0) == 1.0
    assert coherence_factor(big, big, 1e-300) == 0.0
    with pytest.raises(ValueError):
        coherence_factor(1.0, 1.0, -0.5)


def test_phase_concurrence():
    assert abs(phase_concurrence(4.0, 1.0, 0.0) - 8 / 9) < 1e-16
    assert abs(phase_concurrence(4.0, 1.0, math.log(2)) - 4 / 9) < 1e-15
    assert phase_concurrence(1e-9, 1.0, 2.0) < 1e-9
    with pytest.raises(ValueError):
        phase_concurrence(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        phase_concurrence(4.5, 1.0, 1.0)


def test_amplitude_elements():
    z, a, d = amplitude_elements(4.0, 1.0, 0.0)
    assert (z, a, d) == (4 / 9, 1 / 9, 0.0)
    z, a, d = amplitude_elements(4.0, 1.0, 50.0)
    assert z < 1e-20 and a < 1e-40 and abs(d - 1.0) < 1e-15
    z, a, d = amplitude_elements(4.0, 1.0, math.log(2))
    assert abs(z - 2 / 9) < 1e-16
    assert abs(a - 1 / 36) < 1e-16
    assert abs(d - 17 / 36) < 1e-15


def test_amplitude_concurrence():
    assert abs(amplitude_concurrence(4.0, 1.0, 0.0) - 8 / 9) < 1e-16
    assert abs(amplitude_concurrence(4.0, 1.0, math.log(2)) - C_AMP_4_LN2) < 1e-15
    # lam = 3 sits on the survival boundary: positive, decaying to zero
    values = [amplitude_concurrence(3.0, 1.0, t) for t in np.linspace(0, 20, 40)]
    assert all(v > 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        amplitude_concurrence(2.9, 1.0, 1.0)
    with pytest.raises(ValueError):
        amplitude_concurrence(4.1, 1.0, 1.0)


def test_combined_reduces_to_single_noise_forms():
    for lam in (0.5, 2.0, 3.0, 3.5, 4.0):
        for rate in (0.5, 1.0, 2.0):
            for t in np.linspace(0.0, 6.0, 25):
                assert abs(combined_concurrence(lam, 0.0, rate, t)
                           - phase_concurrence(lam, rate, t)) < 1e-12
                if lam >= 3.0:
                    assert abs(combined_concurrence(lam, rate, 0.0, t)
                               - amplitude_concurrence(lam, rate, t)) < 1e-12


def test_combined_concurrence_vanishes_at_root():
    assert combined_concurrence(4.0, 1.0, 1.0, T_STAR_COMBINED_4 - 1e-4) > 0
    assert combined_concurrence(4.0, 1.0, 1.0, T_STAR_COMBINED_4 + 1e-4) == 0.0
    assert combined_concurrence(4.0, 1.0, 1.0, 5.0) == 0.0


def test_combined_death_time_roots():
    t_star = combined_death_time(4.0, 1.0, 1.0)
    assert abs(t_star - T_STAR_COMBINED_4) < 1e-10
    t_star = combined_death_time(2.0, 1.0, 0.0)
    assert abs(t_star - T_STAR_AMP_2) < 1e-10


def test_combined_death_time_no_death_cases():
    assert combined_death_time(4.0, 1.0, 0.0) is None   # amplitude only, lam > 3
    assert combined_death_time(3.0, 1.0, 0.0) is None   # boundary family member
    assert combined_death_time(4.0, 0.0, 1.0) is None   # phase only
    assert combined_death_time(4.0, 0.0, 0.0) is None   # no noise at all
    with pytest.raises(ValueError):
        combined_death_time(0.0, 1.0, 1.0)


def test_combined_death_time_finite_for_all_lambda():
    for lam in np.linspace(0.125, 4.0, 32):
        assert combined_death_time(float(lam), 1.0, 1.0) is not None


def test_witness_non_additivity():
    for lam in (3.2, 3.6, 4.0):
        assert combined_death_time(lam, 1.0, 1.0) is not None
        assert combined_death_time(lam, 1.0, 0.0) is None
        assert combined_death_time(lam, 0.0, 1.0) is None


@pytest.mark.parametrize("func, args, name", [
    (combined_death_time, (4, math.nan, 1), "rate_amp"),  # was None: "no death"
    (combined_death_time, (4, 1, math.inf), "rate_phase"),  # was t* = 5.7e-13
    (combined_death_time, (4, -1, 0), "rate_amp"),  # was a math domain error
    (combined_concurrence, (4, -1, 1, 1), "rate_amp"),  # was a math domain error
    (phase_concurrence, (4, -1, 2), "rate"),  # was 6.57, a concurrence above 1
], ids=["death_time_nan", "death_time_inf", "death_time_negative",
        "combined_negative", "phase_negative"])
def test_closed_forms_reject_invalid_rates(func, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
        func(*args)


def test_every_closed_form_checks_its_rates():
    for bad in (-1.0, math.inf, math.nan):
        for call in (lambda: coherence_factor(bad, 0.0, 1.0),
                     lambda: coherence_factor(0.0, bad, 1.0),
                     lambda: amplitude_elements(4.0, bad, 1.0),
                     lambda: amplitude_concurrence(4.0, bad, 1.0),
                     lambda: combined_concurrence(4.0, 1.0, bad, 1.0),
                     lambda: combined_death_time(4.0, 1.0, bad)):
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                call()


def test_combined_death_time_rejects_rates_whose_horizon_overflows():
    # only a root past the largest float raises: with rate_phase = 5e-324
    # the root exceeds ln(4/3) / 5e-324
    for rates in ((5e-324, 5e-324), (1.0, 5e-324)):
        with pytest.raises(ValueError, match="past the largest float"):
            combined_death_time(4.0, *rates)


def _decimal_root(lam, rate_amp, rate_phase, t):
    """The bracket's root to 50 digits by Newton's method in decimal, from t.

    w2 = 1 - exp(-rate_amp t) is taken at extra digits where rate_amp t is
    tiny, so that it keeps 50 significant ones."""
    lam, ga, gp, t = (Decimal(x) for x in (lam, rate_amp, rate_phase, t))
    with localcontext() as ctx:
        ctx.prec = 50
        for _ in range(100):
            decay = (-ga * t).exp()
            with localcontext() as wide:
                wide.prec = 60 + max(0, -(ga * t).adjusted())
                w2 = 1 - (-ga * t).exp()
            w2 = +w2
            root = (w2 * w2 + 8 * w2).sqrt()
            phase = lam * (-gp * t).exp()
            slope = -gp * phase - (w2 + 4) * ga * decay / root
            step = (phase - root) / slope
            t -= step
            if abs(step) <= t * Decimal("1e-45"):
                return t
    raise AssertionError("Newton's method did not converge")


@pytest.mark.parametrize("lam", [1.0, 2.0, 3.0, 3.5, 4.0])
def test_combined_death_time_matches_a_50_digit_root(lam):
    rates = [(ga, gp) for ga in (0.5, 1.0, 2.0) for gp in (0.5, 1.0, 2.0)]
    rates += [(ga, 0.0) for ga in (0.5, 1.0, 2.0) if lam < 3]
    for ga, gp in rates:
        t_star = combined_death_time(lam, ga, gp)
        exact = _decimal_root(lam, ga, gp, t_star)
        assert abs(Decimal(t_star) / exact - 1) <= Decimal("1e-13"), (lam, ga, gp)


def test_combined_death_time_just_below_lambda_3_under_amplitude_alone():
    # the bracket tends to lam - 3 = -1e-9: a death near t = 21.2, ill
    # conditioned; the 20 / rate horizon reported no death here
    lam = 3.0 - 1e-9
    t_star = combined_death_time(lam, 1.0, 0.0)
    assert t_star is not None
    exact = _decimal_root(lam, 1.0, 0.0, t_star)
    assert abs(Decimal(t_star) / exact - 1) <= Decimal("1e-7")


def test_combined_death_time_root_between_2_1023_and_the_largest_float():
    # the doubling must clamp to the largest float, not reach inf, and the
    # midpoint lo + (hi - lo) / 2 must not overflow
    assert combined_death_time(4.0, 5e-309, 5e-309) == 1.3469216322862824e308


def test_tiny_amplitude_rate_keeps_its_term():
    # w2 = 1 - exp(-rate t) rounded to 0 for rate t below ~1e-16, and the
    # "root" sat where exp(-t) underflows, near t = 745; the roots are
    # 33.135054105973760, 342.81574098711934 and 352.01284407946575
    for rate_amp in (1e-30, 1e-300, 1e-308):
        t_star = combined_death_time(4.0, rate_amp, 1.0)
        exact = _decimal_root(4.0, rate_amp, 1.0, t_star)
        assert abs(Decimal(t_star) / exact - 1) <= Decimal("1e-13"), rate_amp
    z, a, d = amplitude_elements(4.0, 1e-30, 1.0)
    assert abs(d - 8e-30 / 9) <= 1e-15 * d  # was 0.0


def test_every_time_argument_must_be_finite_and_nonnegative():
    # NaN and inf times gave nan: phase_concurrence(4, 1, nan), and
    # phase_concurrence(4, 0, inf) from 0 * inf
    for bad in (-0.5, math.inf, math.nan):
        for call in (lambda: coherence_factor(1.0, 1.0, bad),
                     lambda: phase_concurrence(4.0, 1.0, bad),
                     lambda: phase_concurrence(4.0, 0.0, bad),
                     lambda: amplitude_elements(4.0, 1.0, bad),
                     lambda: amplitude_concurrence(4.0, 1.0, bad),
                     lambda: combined_concurrence(4.0, 1.0, 1.0, bad),
                     lambda: evolve_x(lambda_state(4.0), (), bad)):
            with pytest.raises(ValueError, match="^time must be finite and >= 0"):
                call()


@pytest.mark.parametrize("lam, tol", [(0.5, 1e-13), (1.0, 1e-13), (2.0, 1e-13), (2.9, 1e-13),
                                      (3.0 - 1e-9, 1e-8)])
def test_d0_death_time_matches_the_lambda_family_root(lam, tol):
    # lambda_state is a d = 0 X state: under amplitude noise alone its death
    # time is the two-noise bracket's root at rate_phase = 0, found there by bisection
    for rate in (0.5, 1.0, 2.0):
        t_star = d0_death_time(lambda_state(lam), rate)
        exact = _decimal_root(lam, rate, 0.0, t_star)
        assert abs(Decimal(t_star) / exact - 1) <= Decimal(tol), (lam, rate)
        assert abs(t_star / combined_death_time(lam, rate, 0.0) - 1) <= 1e2 * tol


def test_d0_dies_class_rule():
    # lambda = 3 is the exact tie a (a + b + c) = |z|^2 on the stored floats
    for lam, dies in ((2.9, True), (3.0, False), (3.5, False)):
        assert d0_dies(lambda_state(lam), 1.0, 0.0) is dies
        assert (d0_death_time(lambda_state(lam), 1.0) is None) is not dies
    assert d0_dies(lambda_state(4.0), 1.0, 1e-300) is True  # both kinds: any a > 0 dies
    assert d0_dies(XState(0.0, 0.5, 0.5, 0.0, 0.3), 1.0, 1.0) is False
    assert d0_dies(lambda_state(1.0), 0.0, 1.0) is False  # phase alone never kills
    assert d0_dies(XState(0.5, 0.25, 0.25, 0.0, 0.25j), 1.0, 0.0) is True  # a complex z
    with pytest.raises(ValueError, match="d = 0 slice"):
        d0_dies(XState(0.1, 0.4, 0.4, 0.1, 0.3), 1.0, 0.0)
    with pytest.raises(SeparableStateError):
        d0_death_time(XState(0.2, 0.4, 0.4, 0.0, 0.0), 1.0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            d0_dies(lambda_state(2.0), 1.0, bad)
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            d0_death_time(lambda_state(2.0), bad)
    with pytest.raises(ValueError, match="not a finite float"):
        d0_death_time(lambda_state(2.0), 5e-324)
