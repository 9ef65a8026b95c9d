import numpy as np
import pytest

from esdlab import (
    DensityMatrix,
    HermiticityError,
    NumericalFailureError,
    PositivityError,
    TraceError,
    kron,
    product_spectrum,
    validate_density,
)
from esdlab.concurrence import lambda_state, spin_flipped
from esdlab.linalg import check_densities

from helpers import partial_trace, random_density, random_unitary

I2 = np.eye(2, dtype=complex)
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_((0, 3), (0, 3))] = 0.5  # |Phi+><Phi+| in [++, +-, -+, --] order


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_diagonal_structure():
    g = 0.37
    w = np.sqrt(1 - g * g)
    got = kron(np.diag([g, 1.0]), np.diag([g, 1.0]))
    assert np.allclose(got, np.diag([g * g, g, g, 1.0]), atol=0)
    got = kron(np.diag([0.0, w]), np.diag([0.0, w]))
    assert np.allclose(got, np.diag([0.0, 0.0, 0.0, w * w]), atol=0)


def test_kron_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        kron(np.eye(4), I2)
    with pytest.raises(ValueError):
        kron(I2, np.eye(3))


def test_kron_bilinear_and_mixed_product(rng):
    for _ in range(50):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                      for _ in range(4))
        lhs = kron(a + 2.0 * c, b)
        rhs = kron(a, b) + 2.0 * kron(c, b)
        assert np.abs(lhs - rhs).max() < 1e-12
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_product_spectrum_bell():
    got = product_spectrum(BELL @ spin_flipped(BELL))
    assert np.allclose(got, [1, 0, 0, 0], atol=1e-12)


def test_product_spectrum_maximally_mixed():
    rho = np.eye(4) / 4
    got = product_spectrum(rho @ spin_flipped(rho))
    assert np.allclose(got, [1 / 16] * 4, atol=1e-14)


def test_product_spectrum_product_state():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)  # |++><++|
    got = product_spectrum(rho @ spin_flipped(rho))
    assert np.allclose(got, 0.0, atol=1e-14)


def test_product_spectrum_rejects_complex_spectrum():
    rot = np.zeros((4, 4))
    rot[0, 1], rot[1, 0] = -1.0, 1.0  # eigenvalues +-i
    rot[2, 2] = rot[3, 3] = 1.0
    with pytest.raises(NumericalFailureError):
        product_spectrum(rot)


def test_product_spectrum_local_unitary_invariance(rng):
    for _ in range(100):
        rho = random_density(rng, 4).mat
        base = product_spectrum(rho @ spin_flipped(rho))
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rot = u @ rho @ u.conj().T
        moved = product_spectrum(rot @ spin_flipped(rot))
        assert np.abs(base - moved).max() < 1e-8


def test_validate_density_accepts():
    dm = validate_density(np.eye(4) / 4)
    assert isinstance(dm, DensityMatrix)
    assert dm.n_qubits == 2 and dm.dim == 4
    # boundary coherence |z| = sqrt(b c): smallest eigenvalue is exactly 0
    validate_density(lambda_state(4.0).to_density().mat)


def test_check_densities_tol_loosens_trace_and_positivity():
    drifted = np.diag([0.5, 0.5 + 5e-12, 0.0, 0.0])
    with pytest.raises(TraceError):
        validate_density(drifted)
    assert check_densities(drifted, tol=1e-8)[1, 1] == drifted[1, 1]
    dipped = np.diag([0.5, 0.5 + 5e-9, -5e-9, 0.0])
    with pytest.raises(PositivityError):
        validate_density(dipped)
    check_densities(dipped, tol=1e-8)
    with pytest.raises(TraceError):
        check_densities(np.diag([0.5, 0.5 + 2e-8, 0.0, 0.0]), tol=1e-8)


def test_validate_density_named_failures():
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 1e-6j
    with pytest.raises(HermiticityError):
        validate_density(bad)
    with pytest.raises(TraceError):
        validate_density(np.eye(4) / 2)
    block = np.zeros((4, 4), dtype=complex)
    block[1, 1] = block[2, 2] = 0.5
    block[1, 2] = block[2, 1] = 0.6  # |z| > sqrt(b c)
    with pytest.raises(PositivityError):
        validate_density(block)


def test_validate_density_immutable():
    dm = validate_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        dm.mat[0, 0] = 1.0


def test_partial_trace():
    assert np.allclose(partial_trace(BELL, "A"), I2 / 2, atol=1e-15)
    assert np.allclose(partial_trace(BELL, "B"), I2 / 2, atol=1e-15)
    one = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    other = np.array([[0.2, 0.0], [0.0, 0.8]], dtype=complex)
    prod = kron(one, other)
    assert np.abs(partial_trace(prod, "A") - one).max() < 1e-15
    assert np.abs(partial_trace(prod, "B") - other).max() < 1e-15
    with pytest.raises(ValueError):
        partial_trace(BELL, "C")
