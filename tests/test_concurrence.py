import math

import numpy as np
import pytest

from esdlab import (
    ConcurrenceTrace,
    DecayKind,
    NoiseSpec,
    SeparableStateError,
    XState,
    amplitude_concurrence,
    combined_concurrence,
    concurrence,
    concurrence_x,
    diagram_grid,
    esd_time,
    evolve_x,
    kron,
    lambda_state,
    trace_concurrence,
    validate_density,
)
from esdlab.channels import evolve_states
from esdlab.concurrence import DecayClass, classify  # shims: contract tests only

from helpers import partial_trace, random_density, random_unitary, random_x_state

# independently derived reference roots (quadratic formula + bisection)
T_STAR_COMBINED_4 = 0.673460816143141       # 15 x^2 + 10 x - 9 = 0, x = e^-t
T_STAR_AMP_2 = 0.6389165189617606           # u^2 + 8 u = 4, u = 1 - e^-t
T_STAR_A_ONLY_4 = math.log(5.0)             # both noises on qubit A alone

BELL = validate_density(np.array(
    [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]],
    dtype=complex))


def symmetric(kind, rate):
    return (NoiseSpec("A", kind, rate), NoiseSpec("B", kind, rate))


def _random_local_noise(rng):
    return tuple(
        NoiseSpec(target, kind, rng.uniform(0.0, 2.0))
        for target in "AB" for kind in ("amplitude", "phase")
        if rng.random() < 0.8
    )


def test_x_state_validation():
    XState(0.25, 0.25, 0.25, 0.25, 0.1j)
    with pytest.raises(ValueError):
        XState(0.5, 0.25, 0.25, 0.25, 0.0)   # sum > 1
    with pytest.raises(ValueError):
        XState(-0.1, 0.55, 0.3, 0.25, 0.0)   # negative population
    with pytest.raises(ValueError):
        XState(0.0, 0.5, 0.5, 0.0, 0.6)      # |z| > sqrt(b c)
    with pytest.raises(ValueError):
        XState(0.25, 0.25, 0.25, 0.25, complex("nan"))


def test_lambda_state_bounds():
    assert lambda_state(4.0).z == pytest.approx(4 / 9)
    for bad in (0.0, -1.0, 4.0001):
        with pytest.raises(ValueError):
            lambda_state(bad)


def test_concurrence_reference_states():
    assert abs(concurrence(BELL) - 1.0) < 1e-12
    assert concurrence(validate_density(np.eye(4) / 4)) == 0.0
    with pytest.raises(ValueError):
        concurrence(validate_density(np.eye(2) / 2))


def test_concurrence_werner():
    # p |Psi-><Psi-| + (1-p) I/4 has concurrence max(0, (3p - 1)/2)
    p = 0.6
    psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
    rho = validate_density(p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4)
    assert abs(concurrence(rho) - 0.4) < 1e-12
    x = XState((1 - p) / 4, (1 + p) / 4, (1 + p) / 4, (1 - p) / 4, -p / 2)
    assert abs(concurrence_x(x) - 0.4) < 1e-15


def test_concurrence_x_examples():
    assert abs(concurrence_x(lambda_state(4.0)) - 8 / 9) < 1e-15
    assert concurrence_x(XState(0.25, 0.25, 0.25, 0.25, 0.0)) == 0.0
    assert concurrence_x(XState(0.25, 0.25, 0.25, 0.25, 0.25)) == 0.0


def test_concurrence_agrees_with_x_form(rng):
    for _ in range(1000):
        x = random_x_state(rng)
        assert abs(concurrence(x.to_density()) - concurrence_x(x)) < 1e-10


def test_concurrence_local_unitary_invariance(rng):
    for _ in range(200):
        rho = random_density(rng, 4)
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = validate_density(u @ rho.mat @ u.conj().T)
        assert abs(concurrence(rho) - concurrence(rotated)) < 1e-8


def test_evolve_x_matches_channel_path(rng):
    for _ in range(100):
        x = random_x_state(rng)
        specs = _random_local_noise(rng)
        t = rng.uniform(0, 3)
        fast = evolve_x(x, specs, t)
        mat = evolve_states(x.to_density(), specs, [t])[0]
        assert abs(fast.a - mat[0, 0].real) < 1e-14
        assert abs(fast.b - mat[1, 1].real) < 1e-14
        assert abs(fast.c - mat[2, 2].real) < 1e-14
        assert abs(fast.d - mat[3, 3].real) < 1e-14
        assert abs(fast.z - mat[1, 2]) < 1e-14


def test_trace_constant_without_noise():
    times = np.linspace(0, 2, 9)
    trace = trace_concurrence(lambda_state(4.0), (), times)
    assert np.allclose(trace.values, 8 / 9, atol=1e-15)


def test_trace_phase_only_exponential():
    trace = trace_concurrence(lambda_state(4.0), symmetric("phase", 1.0),
                              [0.0, math.log(2.0)])
    assert abs(trace.values[0] - 8 / 9) < 1e-15
    assert abs(trace.values[1] - 4 / 9) < 1e-12


def test_trace_phase_law_for_random_d0_states(rng):
    # with d = 0 the populations are static and z scales, so
    # C(t) = C(0) exp(-rate t) exactly for symmetric phase noise
    times = np.linspace(0.0, 4.0, 15)
    for _ in range(25):
        a, b, c = rng.dirichlet(np.ones(3))
        x = XState(a, b, c, 0.0, rng.uniform(0, math.sqrt(b * c)))
        trace = trace_concurrence(x, symmetric("phase", 1.3), times)
        want = concurrence_x(x) * np.exp(-1.3 * times)
        assert np.abs(trace.values - want).max() < 1e-12


def test_trace_combined_past_death_is_zero():
    specs = symmetric("amplitude", 1.0) + symmetric("phase", 1.0)
    trace = trace_concurrence(lambda_state(4.0), specs, [0.0, 1.0, 2.0])
    assert trace.values[0] > 0
    assert trace.values[1] == 0.0 and trace.values[2] == 0.0


def test_trace_input_validation():
    with pytest.raises(ValueError):
        trace_concurrence(lambda_state(4.0), (), [1.0, 0.5])
    with pytest.raises(ValueError):
        trace_concurrence(lambda_state(4.0), (), [-1.0, 0.5])
    with pytest.raises(ValueError):
        ConcurrenceTrace(np.array([0.0, 1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        ConcurrenceTrace(np.array([0.0]), np.array([1.5]))


def test_trace_concurrence_rejects_non_finite_times():
    amp = symmetric("amplitude", 1.0)
    for bad in (math.nan, math.inf):
        for specs in ((), amp):
            with pytest.raises(ValueError, match="time must be finite"):
                trace_concurrence(lambda_state(4.0), specs, [0.0, bad])
            with pytest.raises(ValueError, match="time must be finite"):
                trace_concurrence(lambda_state(4.0).to_density(), specs, [bad, 1.0])


def test_amplitude_only_matches_closed_form_and_survives():
    for lam in (3.0, 3.5, 4.0):
        x = lambda_state(lam)
        specs = symmetric("amplitude", 1.0)
        times = np.linspace(0.0, 6.0, 30)
        trace = trace_concurrence(x, specs, times)
        want = [amplitude_concurrence(lam, 1.0, t) for t in times]
        assert np.abs(trace.values - want).max() < 1e-10
        assert esd_time(x, specs, 20.0) is None


def test_combined_matches_closed_form_and_dies():
    for lam in (0.5, 1.5, 2.5, 3.5, 4.0):
        x = lambda_state(lam)
        specs = symmetric("amplitude", 1.0) + symmetric("phase", 1.0)
        times = np.linspace(0.0, 4.0, 40)
        trace = trace_concurrence(x, specs, times)
        want = [combined_concurrence(lam, 1.0, 1.0, t) for t in times]
        assert np.abs(trace.values - want).max() < 1e-10
        alive = trace.values > 0
        drops = np.diff(trace.values[alive])
        assert np.all(drops <= 1e-15)
        assert esd_time(x, specs, 20.0) is not None


def test_esd_time_reference_roots():
    specs = symmetric("amplitude", 1.0) + symmetric("phase", 1.0)
    t_star = esd_time(lambda_state(4.0), specs, 20.0)
    assert abs(t_star - T_STAR_COMBINED_4) < 1e-8

    t_star = esd_time(lambda_state(2.0), symmetric("amplitude", 1.0), 20.0)
    assert abs(t_star - T_STAR_AMP_2) < 1e-8

    on_a = (NoiseSpec("A", "amplitude", 1.0), NoiseSpec("A", "phase", 1.0))
    t_star = esd_time(lambda_state(4.0), on_a, 20.0)
    assert abs(t_star - T_STAR_A_ONLY_4) < 1e-8


def test_esd_time_none_for_phase_only():
    assert esd_time(lambda_state(4.0), symmetric("phase", 1.0), 50.0) is None


def test_esd_time_guards():
    # a separable start raises at any horizon, on the X and the general route
    for state in (XState(0.5, 0.25, 0.25, 0.0, 0.0), validate_density(np.eye(4) / 4)):
        for t_max in (5e-324, 5.0, 1e300):
            with pytest.raises(SeparableStateError):
                esd_time(state, symmetric("phase", 1.0), t_max)
    with pytest.raises(ValueError):
        esd_time(lambda_state(4.0), (), 0.0)


def test_esd_time_rejects_non_finite_horizon():
    for t_max in (math.inf, math.nan):
        with pytest.raises(ValueError):
            esd_time(lambda_state(4.0), symmetric("phase", 1.0), t_max)


def test_esd_time_terminates_when_float_spacing_exceeds_resolution():
    # rates of 1e-300 put the root near 6.7e299, where adjacent floats are
    # far more than the 1e-10 resolution apart; the bisection must stop there
    rate = 1e-300
    state = lambda_state(4.0)
    both = symmetric("amplitude", rate) + symmetric("phase", rate)
    assert abs(esd_time(state, both) * rate - T_STAR_COMBINED_4) < 1e-9
    assert esd_time(state, symmetric("amplitude", rate)) is None


def test_default_horizon_rejects_rates_whose_horizon_overflows():
    # 20 / rate is inf below about 1.1e-307; the scan used to start on an
    # inf horizon and fail with "t_max must be finite" or worse
    state = lambda_state(4.0)
    for rate in (5e-324, 1e-308):
        with pytest.raises(ValueError, match=f"rate {rate!r} is too small"):
            esd_time(state, symmetric("phase", rate))
    assert esd_time(state, symmetric("phase", 1.2e-307)) is None
    with pytest.raises(ValueError, match="rate 5e-324 is too small"):
        diagram_grid([0.2], [0.3], symmetric("phase", 5e-324))
    assert diagram_grid([0.2], [0.3], symmetric("phase", 5e-324), 1.0)[0].t_star is None


def test_esd_time_without_t_max_scans_to_the_default_horizon():
    specs = symmetric("amplitude", 0.1) + symmetric("phase", 0.1)
    state = lambda_state(4.0)
    t_star = esd_time(state, specs)  # to 20 / 0.1: the death falls past t = 5
    assert t_star == classify(state, specs).t_star == esd_time(state, specs, 200.0)
    assert t_star > 5.0 and esd_time(state, specs, 5.0) is None
    assert esd_time(state, symmetric("phase", 1.0)) is None
    # the horizon is checked before the separable probe
    for start in (state, XState(0.5, 0.25, 0.25, 0.0, 0.0), validate_density(np.eye(4) / 4)):
        with pytest.raises(ValueError, match="rate 5e-324 is too small"):
            esd_time(start, symmetric("phase", 5e-324))


def test_esd_time_accepts_general_density_matrix():
    specs = symmetric("amplitude", 1.0) + symmetric("phase", 1.0)
    t_x = esd_time(lambda_state(4.0), specs, 20.0)
    t_dm = esd_time(lambda_state(4.0).to_density(), specs, 20.0)
    assert abs(t_x - t_dm) < 1e-9


def test_decay_class_invariants():
    DecayClass(DecayKind.SUDDEN_DEATH, 1.0)
    DecayClass(DecayKind.EXPONENTIAL)
    with pytest.raises(ValueError):
        DecayClass(DecayKind.EXPONENTIAL, 1.0)
    with pytest.raises(ValueError):
        DecayClass(DecayKind.SUDDEN_DEATH, None)
    with pytest.raises(ValueError):
        DecayClass(DecayKind.SUDDEN_DEATH, -1.0)


def test_classify_examples():
    half = 0.5 * (1 - 1 / 9)
    state = XState(1 / 9, half, half, 0.0, 4 / 9)
    amp = symmetric("amplitude", 1.0)
    both = amp + symmetric("phase", 1.0)
    # a <= |z|^2 survives amplitude noise, a > |z|^2 dies
    assert classify(state, amp).kind is DecayKind.EXPONENTIAL
    low_z = XState(1 / 9, half, half, 0.0, 0.2)
    assert classify(low_z, amp).kind is DecayKind.SUDDEN_DEATH
    assert classify(state, both).kind is DecayKind.SUDDEN_DEATH
    separable = XState(0.3, 0.35, 0.35, 0.0, 0.0)
    assert classify(separable, amp).kind is DecayKind.SEPARABLE_AT_START
    with pytest.raises(ValueError):
        classify(XState(0.25, 0.25, 0.25, 0.25, 0.0), amp)


def test_esd_time_amplitude_boundary_matches_sign_test(rng):
    amp = symmetric("amplitude", 1.0)
    for _ in range(60):
        a = rng.uniform(0.0, 0.9)
        half = 0.5 * (1 - a)
        z = rng.uniform(0.01, half)
        if abs(a - z * z) < 1e-3:
            continue
        dies = esd_time(XState(a, half, half, 0.0, z), amp) is not None
        assert dies == (a > z * z), (a, z)


def test_esd_time_combined_corner_a_zero_is_exponential():
    # with a = d = 0 the root sqrt(a(t) d(t)) vanishes identically and
    # C = 2|z(t)| never reaches zero
    state = XState(0.0, 0.5, 0.5, 0.0, 0.3)
    both = symmetric("amplitude", 1.0) + symmetric("phase", 1.0)
    assert esd_time(state, both) is None


def test_esd_time_asymmetric_placements():
    on_a = (NoiseSpec("A", "amplitude", 1.0), NoiseSpec("A", "phase", 1.0))
    assert abs(esd_time(lambda_state(4.0), on_a) - T_STAR_A_ONLY_4) < 1e-8


def test_cross_placement_kills_pair_but_marginals_relax():
    # phase noise on A only, amplitude on B only; a non-X pure state with
    # coherent marginals shows normal local relaxation with finite-time
    # joint disentanglement
    psi = np.array([0.7, 0.4, 0.4, math.sqrt(0.19)], dtype=complex)
    rho0 = validate_density(np.outer(psi, psi))
    specs = (NoiseSpec("A", "phase", 1.0), NoiseSpec("B", "amplitude", 1.0))
    t_star = esd_time(rho0, specs, 10.0)
    assert t_star is not None and 0 < t_star < 1.0
    for t, out in zip((0.5, 1.5), evolve_states(rho0, specs, [0.5, 1.5])):
        coh_a = partial_trace(out, "A")[0, 1]
        coh_b = partial_trace(out, "B")[0, 1]
        start_a = partial_trace(rho0.mat, "A")[0, 1]
        start_b = partial_trace(rho0.mat, "B")[0, 1]
        assert abs(coh_a - start_a * math.exp(-0.5 * t)) < 1e-14
        assert abs(coh_b - start_b * math.exp(-0.5 * t)) < 1e-14


def test_diagram_segment_maps_to_lambda_family():
    # the row a = 1/9 with b = c = (1 - a)/2 = 4/9 is exactly the benchmark
    # family, z = lam/9 for 1/3 <= z <= 4/9
    for z in np.linspace(1 / 3, 4 / 9, 7):
        half = 0.5 * (1 - 1 / 9)
        row_state = XState(1 / 9, half, half, 0.0, z)
        fam = lambda_state(9 * z)
        assert row_state == fam


def test_diagram_grid_small():
    a_vals = np.linspace(0, 1, 12)
    z_vals = np.linspace(0, 0.5, 12)
    phase = symmetric("phase", 1.0)
    cells = diagram_grid(a_vals, z_vals, phase)
    assert len(cells) == 144
    kinds = {c.kind for c in cells}
    assert DecayKind.INVALID in kinds
    assert DecayKind.SUDDEN_DEATH not in kinds
    for cell in cells:
        if cell.z > 0.5 * (1 - cell.a) + 1e-12:
            assert cell.kind is DecayKind.INVALID


def _entangled_general_state(rng):
    while True:
        psi = random_unitary(rng, 4)[:, 0]
        pure = np.outer(psi, psi.conj())
        p = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 1.0)
        rho = validate_density(p * pure + (1.0 - p) * np.eye(4) / 4)
        if concurrence(rho) > 0.05:
            return rho


def test_concurrence_never_rises_and_its_zero_is_absorbing(rng):
    # local semigroup noise cannot create entanglement, so a root of the
    # margin is a death time without any check past it.  No step of the
    # concurrence may rise, not even by roundoff (the signed general margin
    # may, while negative), so a zero is absorbing as well
    states = [random_x_state(rng) for _ in range(40)]
    states += [_entangled_general_state(rng) for _ in range(40)]
    for state in states:
        times = np.unique(rng.uniform(0.0, 5.0, 50))
        values = trace_concurrence(state, _random_local_noise(rng), times).values
        assert (np.diff(values) <= 0.0).all(), np.diff(values).max()


def test_amplitude_panel_boundary_cells_stay_exponential():
    # a = |z|^2 is the edge of the death region under amplitude noise alone;
    # the margin only touches zero at t = infinity there
    a_cell, z_cell = np.linspace(0, 1, 64)[7], np.linspace(0, 0.5, 64)[42]
    for rate in (0.5, 1.0, 2.0):
        amp = symmetric("amplitude", rate)
        [cell] = diagram_grid([a_cell], [z_cell], amp)
        assert cell.kind is DecayKind.EXPONENTIAL
        for z in np.linspace(0.05, 0.4, 8):
            a = z * z
            state = XState(a, 0.5 * (1 - a), 0.5 * (1 - a), 0.0, z)
            assert esd_time(state, amp) is None, (rate, z)


def test_underflow_keeps_the_late_root():
    # a(t) = 1e-6 e^(-2t) reaches 0 near t = 366; the root is where
    # |z| e^(-0.01 t) = sqrt(a d(t)) with d(t) = 1 to double precision
    a = 1e-6
    half = 0.5 * (1 - a)
    specs = symmetric("amplitude", 1.0) + symmetric("phase", 0.01)
    t_star = esd_time(XState(a, half, half, 0.0, half), specs)
    assert t_star == pytest.approx(100 * math.log(half / math.sqrt(a)), rel=1e-6)


def test_underflow_of_both_terms_is_no_death():
    # |z| > sqrt(a) survives amplitude noise; both terms underflow near t = 745
    state = XState(0.1, 0.45, 0.45, 0.0, 0.45)
    assert esd_time(state, symmetric("amplitude", 1.0), 1000.0) is None


def test_underflow_of_coherence_with_a_zero_is_no_death():
    state = XState(0.0, 0.5, 0.5, 0.0, 0.3)
    specs = symmetric("amplitude", 1.0) + symmetric("phase", 1000.0)
    assert esd_time(state, specs) is None


def test_underflow_of_coherence_with_d_zero_is_no_death():
    # without amplitude noise d(t) stays 0 and C = 2 |z(t)| > 0 for all t
    state = XState(0.2, 0.4, 0.4, 0.0, 0.3)
    specs = (NoiseSpec("A", "phase", 1000.0), NoiseSpec("B", "phase", 1.0))
    assert esd_time(state, specs) is None
