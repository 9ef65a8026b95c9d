"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Reference roots were derived independently (quadratic formula plus
bisection on the closed forms) before the implementation existed.
"""

import math
import time

import numpy as np
import pytest

from esdlab import (
    DecayKind,
    NoiseSpec,
    amplitude_concurrence,
    amplitude_elements,
    concurrence,
    concurrence_x,
    diagram_grid,
    esd_time,
    lambda_state,
    phase_concurrence,
    trace_concurrence,
    validate_density,
)
from esdlab.channels import _completeness_defect, _kind_stack, evolve_states
from esdlab.checks import (
    EQUIVALENCE_PLACEMENTS,
    _additivity_runs,
    check_kraus_lindblad,
)

from helpers import partial_trace, random_density, random_x_state

T_STAR_COMBINED_4 = 0.673460816143141   # root of 15 x^2 + 10 x - 9, x = e^-t
T_STAR_A_ONLY_4 = math.log(5.0)         # both noises on A alone, lam = 4
T_STAR_CROSS_PLACED = 0.5923225826826335  # regression golden, first derivation


def _report(num, ok, detail):
    print(f"\ncriterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _symmetric(kind, rate=1.0):
    return (NoiseSpec("A", kind, rate), NoiseSpec("B", kind, rate))


def test_criterion_01_single_qubit_additivity():
    start = time.perf_counter()
    times = np.linspace(0.0, 5.0, 20)
    pairs = [(g1, g2) for g1 in (0.1, 1.0, 3.0) for g2 in (0.1, 1.0, 3.0)]
    suite = _additivity_runs(pairs, times)  # the nine RK4 runs step in lockstep
    worst_kraus = max(series["max_dev_kraus"] for series in suite)
    worst_lind = max(series["max_dev_lindblad"] for series in suite)
    elapsed = time.perf_counter() - start
    ok = worst_kraus <= 1e-10 and worst_lind <= 1e-6 and elapsed < 5.0
    _report(1, ok,
            f"summed-rate coherence: kraus dev {worst_kraus:.2e} (tol 1e-10), "
            f"lindblad dev {worst_lind:.2e} (tol 1e-6), {elapsed:.2f}s (< 5s)")


def test_criterion_02_phase_noise_concurrence_law():
    start = time.perf_counter()
    times = np.linspace(0.0, 5.0, 50)
    worst = 0.0
    for lam in (1.0, 2.0, 3.0, 4.0):
        trace = trace_concurrence(lambda_state(lam), _symmetric("phase"), times)
        want = np.array([phase_concurrence(lam, 1.0, t) for t in times])
        worst = max(worst, float(np.abs(trace.values - want).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(2, ok, f"C(t) = (2 lam/9) e^-t: dev {worst:.2e} (tol 1e-10), "
                   f"{elapsed:.2f}s (< 1s)")


def test_criterion_03_amplitude_noise_elements():
    times = np.linspace(0.0, 5.0, 50)
    worst = 0.0
    for lam in (1.0, 2.0, 3.0, 4.0):
        states = evolve_states(lambda_state(lam).to_density(), _symmetric("amplitude"), times)
        for t, mat in zip(times, states):
            z, a, d = amplitude_elements(lam, 1.0, t)
            worst = max(worst, abs(mat[1, 2].real - z), abs(mat[0, 0].real - a),
                        abs(mat[3, 3].real - d))
    ok = worst <= 1e-12
    _report(3, ok, f"z(t), a(t), d(t) element laws: dev {worst:.2e} (tol 1e-12)")


def test_criterion_04_amplitude_noise_concurrence_law():
    worst = 0.0
    survived = True
    for lam in (3.0, 3.5, 4.0):
        # general spectral path, not the X-state shortcut
        rho0 = lambda_state(lam).to_density()
        times = np.linspace(0.0, 20.0, 50)
        trace = trace_concurrence(rho0, _symmetric("amplitude"), times)
        want = np.array([amplitude_concurrence(lam, 1.0, t) for t in times])
        worst = max(worst, float(np.abs(trace.values - want).max()))
        if np.any(trace.values[:-1] == 0.0):
            survived = False
        if esd_time(lambda_state(lam), _symmetric("amplitude"), 20.0) is not None:
            survived = False
    ok = worst <= 1e-10 and survived
    _report(4, ok, f"closed form dev {worst:.2e} (tol 1e-10), "
                   f"no zero crossing up to t = 20: {survived}")


def test_criterion_05_combined_noise_death_time():
    start = time.perf_counter()
    specs = _symmetric("amplitude") + _symmetric("phase")
    t_star = esd_time(lambda_state(4.0), specs, 20.0)
    err = abs(t_star - T_STAR_COMBINED_4)
    all_finite = all(
        esd_time(lambda_state(float(lam)), specs, 20.0) is not None
        for lam in np.linspace(0.125, 4.0, 32)
    )
    elapsed = time.perf_counter() - start
    ok = err <= 1e-8 and all_finite and elapsed < 5.0
    _report(5, ok, f"t* = {t_star:.9f} vs root of 15x^2+10x-9 "
                   f"(err {err:.2e}, tol 1e-8); finite for 32 lambdas: "
                   f"{all_finite}; {elapsed:.2f}s (< 5s)")


@pytest.fixture(scope="module")
def grids():
    a_vals = np.linspace(0.0, 1.0, 64)
    z_vals = np.linspace(0.0, 0.5, 64)
    out = {}
    for name, kinds in (("i", ("amplitude",)), ("ii", ("phase",)),
                        ("iii", ("amplitude", "phase"))):
        specs = tuple(NoiseSpec(t, k, 1.0) for k in kinds for t in "AB")
        t0 = time.perf_counter()
        out[name] = diagram_grid(a_vals, z_vals, specs)
        out[name + "_time"] = time.perf_counter() - t0
    out["da"] = float(a_vals[1] - a_vals[0])
    out["dz"] = float(z_vals[1] - z_vals[0])
    return out


def test_criterion_06_amplitude_panel_boundary(grids):
    da, dz = grids["da"], grids["dz"]
    mismatches = 0
    checked = 0
    for cell in grids["i"]:
        if cell.kind in (DecayKind.INVALID, DecayKind.SEPARABLE_AT_START):
            continue
        # skip cells within one grid cell of the a = |z|^2 boundary
        if abs(cell.a - cell.z ** 2) <= da + 2 * cell.z * dz + dz * dz:
            continue
        checked += 1
        want = (DecayKind.SUDDEN_DEATH if cell.a > cell.z ** 2
                else DecayKind.EXPONENTIAL)
        if cell.kind is not want:
            mismatches += 1
    elapsed = grids["i_time"]
    ok = mismatches == 0 and checked > 1000 and elapsed < 60.0
    _report(6, ok, f"64x64 amplitude panel: {checked} cells vs a > |z|^2 sign "
                   f"test, {mismatches} mismatches, {elapsed:.2f}s (< 60s)")


def test_criterion_07_phase_panel_all_exponential(grids):
    deaths = sum(1 for c in grids["ii"] if c.kind is DecayKind.SUDDEN_DEATH)
    ok = deaths == 0
    _report(7, ok, f"64x64 phase panel: {deaths} sudden-death cells (want 0)")


def test_criterion_08_combined_panel_all_die(grids):
    entangled = [c for c in grids["iii"]
                 if c.kind not in (DecayKind.INVALID, DecayKind.SEPARABLE_AT_START)
                 and c.a > 0.0]
    survivors = sum(1 for c in entangled if c.kind is not DecayKind.SUDDEN_DEATH)
    ok = survivors == 0 and len(entangled) > 1000
    _report(8, ok, f"64x64 combined panel: {survivors} survivors among "
                   f"{len(entangled)} entangled cells with a > 0 (want 0)")


def test_criterion_09_asymmetric_placements():
    # (a) both noises on qubit A only
    on_a = (NoiseSpec("A", "amplitude", 1.0), NoiseSpec("A", "phase", 1.0))
    t_a = esd_time(lambda_state(4.0), on_a, 20.0)
    err_a = abs(t_a - T_STAR_A_ONLY_4)

    # (b) phase on A, amplitude on B, entangled pure state with coherent marginals
    psi = np.array([0.7, 0.4, 0.4, math.sqrt(0.19)], dtype=complex)
    rho0 = validate_density(np.outer(psi, psi))
    cross = (NoiseSpec("A", "phase", 1.0), NoiseSpec("B", "amplitude", 1.0))
    t_b = esd_time(rho0, cross, 10.0)
    err_b = abs(t_b - T_STAR_CROSS_PLACED)

    times = np.linspace(0.2, 2.0, 10)
    states = evolve_states(rho0, cross, times)
    worst_resid = 0.0
    for keep in ("A", "B"):
        coh = [abs(partial_trace(m, keep)[0, 1]) for m in states]
        fit = np.polyfit(times, np.log(coh), 1)
        worst_resid = max(worst_resid,
                          float(np.abs(np.polyval(fit, times) - np.log(coh)).max()))

    ok = err_a <= 1e-8 and err_b <= 1e-8 and worst_resid < 1e-8
    _report(9, ok, f"noises on A alone: t* = {t_a:.9f} (err {err_a:.2e}); "
                   f"cross-placed: marginal log-fit residual {worst_resid:.2e} "
                   f"(< 1e-8) yet pair dies at t* = {t_b:.9f} (err {err_b:.2e})")


def test_criterion_10_property_suites(rng):
    # channel completeness on a log time grid
    worst_defect = 0.0
    for kind in ("phase", "amplitude"):
        for rate in (0.1, 1.0, 3.0):
            grid = [0.0] + np.logspace(-3, np.log10(20.0 / rate), 30).tolist()
            worst_defect = max(worst_defect, _completeness_defect(_kind_stack(kind, rate, grid)))

    # trace and positivity preservation on 1000 random states
    worst_trace = worst_eig = 0.0
    for _ in range(1000):
        specs = tuple(
            NoiseSpec(target, kind, rng.uniform(0.0, 2.0))
            for target in "AB" for kind in ("amplitude", "phase")
            if rng.random() < 0.7
        )
        t = rng.uniform(0.0, 3.0)
        out = evolve_states(random_density(rng, 4), specs, [t])[0]
        worst_trace = max(worst_trace, abs(out.trace().real - 1.0))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(out)[0]))

    # general vs closed-form concurrence on 1000 random X states
    worst_x = 0.0
    for _ in range(1000):
        x = random_x_state(rng)
        worst_x = max(worst_x, abs(concurrence(x.to_density()) - concurrence_x(x)))

    # local-unitary invariance of concurrence
    from helpers import random_unitary
    from esdlab import kron

    worst_lu = 0.0
    for _ in range(200):
        rho = random_density(rng, 4)
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = validate_density(u @ rho.mat @ u.conj().T)
        worst_lu = max(worst_lu, abs(concurrence(rho) - concurrence(rotated)))

    # channel vs integrator across all placements
    worst_eq = 0.0
    for specs in EQUIVALENCE_PLACEMENTS:
        worst_eq = max(worst_eq, check_kraus_lindblad(specs, (0.5, 1.5)))

    ok = (worst_defect <= 1e-10 and worst_trace <= 1e-10 and worst_eig <= 1e-10
          and worst_x <= 1e-10 and worst_lu <= 1e-8 and worst_eq <= 1e-6)
    _report(10, ok,
            f"completeness {worst_defect:.2e} (tol 1e-10); trace "
            f"{worst_trace:.2e} / positivity {worst_eig:.2e} (tol 1e-10); "
            f"general-vs-X {worst_x:.2e} (tol 1e-10); local-unitary "
            f"{worst_lu:.2e} (tol 1e-8); kraus-vs-lindblad {worst_eq:.2e} "
            f"(tol 1e-6)")
