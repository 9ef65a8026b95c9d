"""Shared random-state generators, the Kraus damping pair and a partial trace
for the test suite."""

import math

import numpy as np

from esdlab import NoiseSpec, XState, validate_density

# zero, the ends of the float range and a plain rate
EDGE_RATES = (0.0, 5e-324, 1e-300, 1.0, 1e300)


def random_density(rng, dim):
    """Full-rank random state from a complex Gaussian square."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return validate_density(rho / rho.trace().real)


def random_unitary(rng, dim):
    """Haar-ish random unitary via QR with phase fixing."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_x_state(rng):
    a, b, c, d = rng.dirichlet(np.ones(4))
    radius = rng.uniform(0.0, np.sqrt(b * c))
    phase = rng.uniform(0.0, 2 * np.pi)
    return XState(a, b, c, d, radius * np.exp(1j * phase))


def edge_spec_sets(rng):
    """(dim, specs) for 1 and 2 qubits: 0-5 specs on random targets and kinds
    at EDGE_RATES or a random rate, and each kind three times on qubit A at
    each of EDGE_RATES, so that same-kind specs repeat."""
    cases = []
    for dim, targets in ((2, ["A"]), (4, ["A", "B"])):
        for count in range(6):
            for _ in range(4):
                rates = EDGE_RATES + (float(rng.uniform(0.0, 3.0)),)
                cases.append((dim, tuple(
                    NoiseSpec(str(rng.choice(targets)), str(rng.choice(["amplitude", "phase"])),
                              rates[rng.integers(len(rates))]) for _ in range(count))))
        cases += [(dim, (NoiseSpec("A", kind, rate),) * 3)
                  for kind in ("amplitude", "phase") for rate in EDGE_RATES]
    return cases


def damping(rate, t):
    """Damping pair (gamma, omega) of the channels at rate and time t:
    gamma = exp(-rate t / 2) and gamma^2 + omega^2 = 1."""
    gamma = math.exp(-0.5 * rate * t)
    return gamma, math.sqrt(max(0.0, 1.0 - gamma * gamma))


def partial_trace(m, keep):
    """Reduced single-qubit operator of a two-qubit one; ``keep`` is 'A' or 'B'."""
    a = np.asarray(m, dtype=np.complex128).reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", a)
    if keep == "B":
        return np.einsum("kikj->ij", a)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
