import math
import time

import numpy as np
import pytest

from esdlab import (
    NoiseSpec,
    integrate_path,
    kron,
    lambda_state,
    lindblad_rhs,
    validate_density,
)
from esdlab.channels import (
    DEFAULT_DT,
    MAX_RK4_STEPS,
    RK4_STABILITY_LIMIT,
    KrausChannel,
    _completeness_defect,
    _compose_stack,
    _kind_stack,
    _kraus_sum,
    _lift_stack,
    _noise_stack,
    _qubit_stack,
    apply_channel,
    evolve_states,
    fold_rates,
)

from helpers import damping, edge_spec_sets, partial_trace, random_density, random_x_state

PLUS_X = validate_density(np.full((2, 2), 0.5, dtype=complex))
IDENTITY = np.eye(2, dtype=complex)[None, None]  # one time, one Kraus matrix
KIND = pytest.mark.parametrize("kind", ["amplitude", "phase"],
                               ids=["amplitude_channel", "dephasing_channel"])


def _act(ops, rho):
    """sum K rho K^dag of a one-time (1, n_ops, d, d) Kraus stack."""
    return _kraus_sum(ops, rho.mat)[0]


def _evolve(rho, specs, t):
    """The Kraus oracle's state at one time."""
    return evolve_states(rho, specs, [t])[0]


def test_noise_spec_validation():
    NoiseSpec("A", "amplitude", 0.0)
    with pytest.raises(ValueError):
        NoiseSpec("C", "amplitude", 1.0)
    with pytest.raises(ValueError):
        NoiseSpec("A", "depolarizing", 1.0)
    with pytest.raises(ValueError):
        NoiseSpec("A", "phase", -0.1)
    with pytest.raises(ValueError):
        NoiseSpec("A", "phase", float("nan"))


def test_dephasing_factors():
    """The damping pair (gamma, omega) as both Kraus kinds carry it; times are
    checked where a grid enters (``check_times``), not here."""
    for kind in ("phase", "amplitude"):
        def pair(rate, t):
            k0, k1 = _kind_stack(kind, rate, [t])[0]
            return k0[0, 0].real, np.abs(k1).max()

        assert pair(1.0, 0.0) == (1.0, 0.0)
        g, w = pair(1.0, 200.0)
        assert g < 1e-40 and abs(w - 1.0) < 1e-15
        g, w = pair(1.0, 2 * math.log(2))
        assert abs(g - 0.5) < 1e-15
        assert abs(w - math.sqrt(3) / 2) < 1e-15


@KIND
def test_channels_start_as_identity(kind):
    ops = _kind_stack(kind, 1.0, [0.0])
    assert np.array_equal(ops[0, 0], np.eye(2))
    assert np.abs(ops[0, 1]).max() == 0.0
    assert np.array_equal(_act(ops, PLUS_X), PLUS_X.mat)


@KIND
def test_channels_complete_on_log_grid(kind):
    for rate in (0.1, 1.0, 3.0):
        grid = [0.0] + np.logspace(-3, np.log10(20.0 / rate), 25).tolist()
        assert _completeness_defect(_kind_stack(kind, rate, grid)) <= 1e-12


def test_dephasing_action():
    rho = validate_density(np.array([[0.7, 0.3j], [-0.3j, 0.3]]))
    out = _act(_kind_stack("phase", 2.0, [0.8]), rho)
    g = math.exp(-0.5 * 2.0 * 0.8)
    assert abs(out[0, 0] - 0.7) < 1e-15
    assert abs(out[1, 1] - 0.3) < 1e-15
    assert abs(out[0, 1] - 0.3j * g) < 1e-15


def test_dephasing_twice_gives_full_rate_factor():
    # one application damps the coherence by exp(-G t / 2); its square is
    # the master-equation transverse factor exp(-G t)
    ops = _kind_stack("phase", 1.0, [2.0])
    out = _act(_compose_stack(ops, ops), PLUS_X)
    assert abs(out[0, 1] - 0.5 * math.exp(-2.0)) < 1e-15


def test_amplitude_action():
    rho = validate_density(np.array([[0.7, 0.3j], [-0.3j, 0.3]]))
    g1, w1 = damping(1.3, 0.6)
    out = _act(_kind_stack("amplitude", 1.3, [0.6]), rho)
    assert abs(out[0, 0] - 0.7 * g1 * g1) < 1e-15
    assert abs(out[1, 1] - (0.3 + 0.7 * w1 * w1)) < 1e-15
    assert abs(out[0, 1] - 0.3j * g1) < 1e-15


def test_amplitude_lift_reproduces_population_laws():
    lam, rate, t = 4.0, 1.0, 0.7
    specs = (NoiseSpec("A", "amplitude", rate), NoiseSpec("B", "amplitude", rate))
    out = _evolve(lambda_state(lam).to_density(), specs, t)
    w2 = 1.0 - math.exp(-rate * t)
    assert abs(out[0, 0] - math.exp(-2 * rate * t) / 9) < 1e-15
    assert abs(out[3, 3] - (w2 * w2 / 9 + 8 * w2 / 9)) < 1e-15
    assert abs(out[1, 2] - (lam / 9) * math.exp(-rate * t)) < 1e-15


def test_lift_structure_and_identity():
    assert np.array_equal(_lift_stack(IDENTITY, IDENTITY)[0, 0], np.eye(4))
    assert np.array_equal(_noise_stack({}, [0.5])[0], [np.eye(4)])
    g, _ = damping(1.0, 1.0)
    pair = _kind_stack("phase", 1.0, [1.0])
    lifted = _lift_stack(pair, pair)[0]
    assert len(lifted) == 4
    assert np.allclose(lifted[0], np.diag([g * g, g, g, 1.0]), atol=0)


def test_lift_leaves_other_marginal_alone(rng):
    specs = (NoiseSpec("B", "amplitude", 1.0),)
    for _ in range(20):
        rho = random_density(rng, 4)
        out = _evolve(rho, specs, 0.8)
        before = partial_trace(rho.mat, "A")
        after = partial_trace(out, "A")
        assert np.abs(before - after).max() < 1e-12


def test_apply_channel_guards():
    identity = KrausChannel(2, (np.eye(2),))
    with pytest.raises(ValueError):
        apply_channel(identity, validate_density(np.eye(4) / 4))
    broken = KrausChannel(2, (np.diag([0.9, 1.0]),))
    with pytest.raises(ValueError):
        apply_channel(broken, PLUS_X)


def test_kraus_channel_refuses_a_bad_dimension_or_no_ops():
    with pytest.raises(ValueError, match="dim must be 2 or 4, got 3"):
        KrausChannel(3, (np.eye(3),))
    with pytest.raises(ValueError, match="a channel needs at least one Kraus matrix"):
        KrausChannel(2, ())
    with pytest.raises(ValueError, match="expected dimension in"):
        KrausChannel(2, (np.eye(4),))


def test_apply_preserves_trace_and_positivity(rng):
    for _ in range(1000):
        t = rng.uniform(0.0, 3.0)
        specs = tuple(
            NoiseSpec(target, kind, rng.uniform(0.0, 2.0))
            for target in "AB" for kind in ("amplitude", "phase")
            if rng.random() < 0.7
        )
        out = _evolve(random_density(rng, 4), specs, t)
        assert abs(out.trace() - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-10


def test_dephasing_lift_on_x_state():
    x = lambda_state(4.0)
    ga, _ = damping(1.0, 0.9)
    gb, _ = damping(2.0, 0.9)
    specs = (NoiseSpec("A", "phase", 1.0), NoiseSpec("B", "phase", 2.0))
    out = _evolve(x.to_density(), specs, 0.9)
    diag = np.diagonal(out).real
    assert np.allclose(diag, [x.a, x.b, x.c, x.d], atol=1e-15)
    assert abs(out[1, 2] - x.z * ga * gb) < 1e-15


def test_compose_identity_and_order():
    ops = _kind_stack("amplitude", 1.0, [0.5])
    composed = _compose_stack(IDENTITY, ops)
    rho = validate_density(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
    assert np.abs(_act(composed, rho) - _act(ops, rho)).max() < 1e-15


def test_compose_coherence_factor_is_product_of_gammas():
    g1, g2, t = 1.7, 0.4, 1.1
    ops = _compose_stack(_kind_stack("phase", g2, [t]), _kind_stack("amplitude", g1, [t]))
    out = _act(ops, PLUS_X)
    assert abs(out[0, 1] - 0.5 * math.exp(-0.5 * (g1 + g2) * t)) < 1e-14


def test_compose_order_swap_equal_in_action(rng):
    g1, g2, t = 1.2, 0.8, 0.7
    amp, phase = _kind_stack("amplitude", g1, [t]), _kind_stack("phase", g2, [t])
    one, two = _compose_stack(amp, phase), _compose_stack(phase, amp)
    for _ in range(20):
        rho = random_density(rng, 2)
        assert np.abs(_act(one, rho) - _act(two, rho)).max() < 1e-12


def test_completeness_defect_values():
    assert _completeness_defect(np.eye(4)[None, None]) == 0.0
    full = _kind_stack("phase", 1.0, [1.0])
    assert _completeness_defect(full) <= 1e-15
    _, w = damping(1.0, 1.0)
    assert abs(_completeness_defect(full[:, :1]) - w * w) < 1e-15
    # the worst time of a stack counts: sum K^dag K is 1, then 1/4
    two_times = np.array([[np.eye(2), np.zeros((2, 2))], [0.5 * np.eye(2), np.zeros((2, 2))]])
    assert _completeness_defect(two_times) == 0.75


def test_semigroup_property(rng):
    for kind in ("phase", "amplitude"):
        joint = _kind_stack(kind, 1.3, [0.9 + 0.4])
        split = _compose_stack(_kind_stack(kind, 1.3, [0.9]), _kind_stack(kind, 1.3, [0.4]))
        for _ in range(20):
            rho = random_density(rng, 2)
            assert np.abs(_act(joint, rho) - _act(split, rho)).max() < 1e-12


def test_x_shape_closure(rng):
    specs = (NoiseSpec("A", "amplitude", 1.1), NoiseSpec("B", "amplitude", 0.7),
             NoiseSpec("A", "phase", 0.5), NoiseSpec("B", "phase", 1.4))
    x_zeros = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]
    for _ in range(50):
        x = random_x_state(rng)
        out = _evolve(x.to_density(), specs, rng.uniform(0, 2))
        for i, j in x_zeros:
            assert abs(out[i, j]) <= 1e-14
            assert abs(out[j, i]) <= 1e-14


def test_qubit_channel_rates_add():
    twice = (NoiseSpec("A", "amplitude", 0.4), NoiseSpec("A", "amplitude", 0.8))
    once = (NoiseSpec("A", "amplitude", 1.2),)
    rho = validate_density(np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex))
    ops1, ops2 = (_qubit_stack(fold_rates(s), [0.9], "A") for s in (twice, once))
    assert ops1.shape[1] == ops2.shape[1] == 2
    assert np.abs(_act(ops1, rho) - _act(ops2, rho)).max() < 1e-15


def _same_kind_specs(k, rng):
    """k specs of every (qubit, kind) pair with seeded rates, in shuffled order."""
    specs = [NoiseSpec(q, kind, float(rng.uniform(0.1, 2.0)))
             for q in ("A", "B") for kind in ("amplitude", "phase") for _ in range(k)]
    return [specs[i] for i in rng.permutation(len(specs))]


def _per_spec_chain(specs, t, target):
    """One Kraus pair per spec, composed in turn: amplitude specs, then phase."""
    ops = IDENTITY
    for kind in ("amplitude", "phase"):
        for s in specs:
            if s.target == target and s.kind == kind:
                ops = _compose_stack(ops, _kind_stack(kind, s.rate, [t]))
    return ops[0]


def test_noise_channel_folds_same_kind_specs(rng):
    """However often a (qubit, kind) repeats, the folded builder makes at most
    16 Kraus matrices, quickly."""
    _noise_stack(fold_rates(_same_kind_specs(1, rng)), [0.5])  # warm-up
    for k in range(1, 7):
        specs = _same_kind_specs(k, rng)
        start = time.perf_counter()
        ops = _noise_stack(fold_rates(specs), [0.7])
        elapsed = time.perf_counter() - start
        assert ops.shape[1] <= 16
        assert elapsed < 0.05, f"k={k}: {elapsed * 1e3:.1f} ms"


def test_folded_channel_matches_per_spec_chain(rng):
    eye = np.eye(2)
    for k in (1, 2, 3):
        for _ in range(5):
            specs = _same_kind_specs(k, rng)
            t = float(rng.uniform(0.0, 2.0))
            rho = random_density(rng, 4)
            on_a = np.array([kron(op, eye) for op in _per_spec_chain(specs, t, "A")])
            on_b = np.array([kron(eye, op) for op in _per_spec_chain(specs, t, "B")])
            want = _kraus_sum(on_b[None], _kraus_sum(on_a[None], rho.mat)[0])[0]
            got = _evolve(rho, specs, t)
            assert np.abs(got - want).max() < 1e-12


def test_lindblad_rhs_zero_for_empty():
    assert np.abs(lindblad_rhs(PLUS_X, ())).max() == 0.0


def test_lindblad_rhs_amplitude_population_rate():
    excited = validate_density(np.diag([1.0, 0.0]))
    rhs = lindblad_rhs(excited, (NoiseSpec("A", "amplitude", 1.7),))
    assert abs(rhs[0, 0] - (-1.7)) < 1e-15
    assert abs(rhs[1, 1] - 1.7) < 1e-15


def test_lindblad_rhs_phase_coherence_rate():
    # channel-convention rate G: coherence decays at G/2 per qubit, so the
    # generator carries (G/4)(sz rho sz - rho); populations are untouched
    rhs = lindblad_rhs(PLUS_X, (NoiseSpec("A", "phase", 2.0),))
    assert abs(rhs[0, 1] - (-0.5 * 2.0 * 0.5)) < 1e-15
    assert rhs[0, 0] == 0.0 and rhs[1, 1] == 0.0


def test_lindblad_rhs_traceless_hermitian(rng):
    specs = (NoiseSpec("A", "amplitude", 1.0), NoiseSpec("B", "phase", 2.0))
    for _ in range(50):
        rhs = lindblad_rhs(random_density(rng, 4), specs)
        assert abs(rhs.trace()) < 1e-14
        assert np.abs(rhs - rhs.conj().T).max() < 1e-14


def test_lindblad_rhs_rejects_b_target_on_single_qubit():
    with pytest.raises(ValueError):
        lindblad_rhs(PLUS_X, (NoiseSpec("B", "phase", 1.0),))


def test_lindblad_rhs_stack_matches_per_matrix_calls(rng):
    for dim, specs in edge_spec_sets(rng):
        shape = (2, 3, dim, dim)
        stacks = [np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim),
                  rng.normal(size=shape) + 1j * rng.normal(size=shape)]
        for stack in stacks:
            got = lindblad_rhs(stack, specs)
            want = [lindblad_rhs(m, specs) for m in stack.reshape(-1, dim, dim)]
            assert got.shape == stack.shape
            assert got.tobytes() == np.array(want).tobytes(), (dim, specs)


def integrate(rho0, specs, t, dt=DEFAULT_DT):
    """RK4 state at a single time: the last point of a one-point path."""
    return integrate_path(rho0, specs, [t], dt)[-1]


def test_integrate_time_zero_and_bad_dt():
    assert np.array_equal(integrate(PLUS_X, (), 0.0).mat, PLUS_X.mat)
    for bad_dt in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            integrate(PLUS_X, (), 1.0, dt=bad_dt)
    with pytest.raises(ValueError):
        integrate(PLUS_X, (), -1.0)


def test_integrate_single_qubit_summed_rates():
    # master-equation rates amplitude 1 and transverse 1; the transverse
    # rate is 2 in the channel convention used by NoiseSpec
    specs = (NoiseSpec("A", "amplitude", 1.0), NoiseSpec("A", "phase", 2.0))
    out = integrate(PLUS_X, specs, 1.0)
    assert abs(out.mat[0, 1] - 0.5 * math.exp(-1.5)) < 1e-9


def test_integrate_two_qubit_phase_coherence():
    specs = (NoiseSpec("A", "phase", 1.0), NoiseSpec("B", "phase", 1.0))
    out = integrate(lambda_state(4.0).to_density(), specs, 1.0)
    assert abs(out.mat[1, 2] - (4 / 9) * math.exp(-1.0)) < 1e-9


def test_integrate_matches_channels_elementwise(rng):
    placements = [
        (NoiseSpec("A", "amplitude", 1.2),),
        (NoiseSpec("B", "phase", 0.9),),
        (NoiseSpec("A", "phase", 0.7), NoiseSpec("B", "amplitude", 1.1)),
    ]
    rho0 = random_density(rng, 4)
    for specs in placements:
        for t in (0.3, 1.0):
            via_ode = integrate(rho0, specs, t)
            via_kraus = _evolve(rho0, specs, t)
            assert np.abs(via_ode.mat - via_kraus).max() < 1e-6


def test_integrate_path_matches_integrate():
    specs = (NoiseSpec("A", "amplitude", 1.0), NoiseSpec("B", "phase", 0.5))
    rho0 = lambda_state(3.0).to_density()
    times = [0.0, 0.4, 1.0]
    path = integrate_path(rho0, specs, times)
    for t, state in zip(times, path):
        assert np.abs(state.mat - integrate(rho0, specs, t).mat).max() < 1e-10
    with pytest.raises(ValueError):
        integrate_path(rho0, specs, [0.5, 0.2])


def test_integrate_path_rejects_runs_rk4_cannot_take():
    for dt in (1e-9, 1e-320):  # 1e9 steps; a step count that overflows to inf
        with pytest.raises(ValueError, match=f"more than {MAX_RK4_STEPS} RK4 steps"):
            integrate(PLUS_X, (), 1.0, dt=dt)
    # one amplitude spec of rate G: the generator's spectral radius is G;
    # the step is h = 0.1 here
    for rate in (1.01 * RK4_STABILITY_LIMIT / 0.1, 1e300):
        with pytest.raises(ValueError, match="stability limit"):
            integrate(PLUS_X, (NoiseSpec("A", "amplitude", rate),), 1.0, dt=0.1)
    rate = 0.99 * RK4_STABILITY_LIMIT / 0.1
    out = integrate(PLUS_X, (NoiseSpec("A", "amplitude", rate),), 1.0, dt=0.1)
    assert 0.0 <= out.mat[0, 0].real < 0.5
