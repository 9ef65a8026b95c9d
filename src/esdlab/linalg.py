"""Dense complex linear algebra for one- and two-qubit operators.

Matrices are plain numpy arrays (complex128, row major) of dimension 2 or 4.
The two-qubit basis order is [++, +-, -+, --], with the excited state |+>
first in each single-qubit factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10

# spectral junk above _FAILURE_TOL means the input was bad, not roundoff
_FAILURE_TOL = 1e-6


class ValidationError(ValueError):
    """A matrix failed density-matrix validation."""


class HermiticityError(ValidationError):
    pass


class TraceError(ValidationError):
    pass


class PositivityError(ValidationError):
    pass


class NumericalFailureError(RuntimeError):
    """A numerical routine left its guaranteed regime."""


def as_stack(m, dims=(2, 4)) -> np.ndarray:
    """Coerce to a (..., n, n) stack of square complex matrices with n in ``dims``."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in dims:
        raise ValueError(f"expected dimension in {dims}, got {a.shape[-1]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix(m, dims=(2, 4)) -> np.ndarray:
    """Coerce to a square complex matrix whose dimension is in ``dims``."""
    if np.ndim(m) != 2:
        raise ValueError(f"expected a square matrix, got shape {np.shape(m)}")
    return as_stack(m, dims)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators, first factor leftmost.

    Consistent with the [++, +-, -+, --] basis order: row i of the product
    is (i // 2) of the first factor and (i % 2) of the second.
    """
    a = as_matrix(a, dims=(2,))
    b = as_matrix(b, dims=(2,))
    return np.kron(a, b)


def product_spectrum(m) -> np.ndarray:
    """Eigenvalues of spin-flip product matrices, descending, clamped to >= 0.

    ``m`` is one 4x4 matrix or a (..., 4, 4) stack, each rho @ rho_tilde for
    a valid two-qubit density matrix; that product is not Hermitian but its
    spectrum is real and nonnegative up to roundoff.  Imaginary and negative
    parts up to _FAILURE_TOL (1e-6) are discarded; a part beyond it anywhere
    raises NumericalFailureError because the input was not such a product.
    """
    m = as_stack(m, dims=(4,))
    vals = np.linalg.eigvals(m)
    worst_imag = np.abs(vals.imag).max()
    worst_neg = -min(vals.real.min(), 0.0)
    if worst_imag > _FAILURE_TOL or worst_neg > _FAILURE_TOL:
        raise NumericalFailureError(
            "spectrum has imaginary or negative parts "
            f"(imag {worst_imag:.3e}, neg {worst_neg:.3e}); "
            "input is not a valid spin-flip product"
        )
    real = vals.real.copy()
    real[real < 0.0] = 0.0
    return np.sort(real, axis=-1)[..., ::-1]


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, positive semidefinite.

    Instances are immutable; ``mat`` is a read-only array.  Construct via
    :func:`validate_density`.
    """

    n_qubits: int
    mat: np.ndarray

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def check_densities(m, tol: Optional[float] = None) -> np.ndarray:
    """Validate a (..., n, n) stack of density operators; returns it as complex.

    ``validate_density`` is the one-matrix case; on a stack, each property is
    checked over all matrices in turn and the error reports the worst one.
    ``tol``, when given, replaces both TRACE_TOL and POSITIVITY_TOL (the bounds
    on the trace defect and on how far below zero the smallest eigenvalue may
    sit); only the RK4 integrator loosens them.
    """
    trace_tol = TRACE_TOL if tol is None else tol
    positivity_tol = POSITIVITY_TOL if tol is None else tol
    a = as_stack(m)
    adjoint = a.conj().swapaxes(-1, -2)
    herm_defect = np.abs(a - adjoint).max()
    if herm_defect > HERMITICITY_TOL:
        raise HermiticityError(
            f"hermiticity defect {herm_defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    trace = np.trace(a, axis1=-2, axis2=-1) - 1.0
    # hypot, not np.abs: it matches the scalar abs() bit for bit
    _check_trace(np.hypot(trace.real, trace.imag).max(), trace_tol)
    _check_positivity(np.linalg.eigvalsh(0.5 * (a + adjoint))[..., 0].min(), positivity_tol)
    return a


def _check_trace(defect: float, tol: float):
    if defect > tol:
        raise TraceError(f"trace defect {defect:.3e} exceeds {tol:.0e}")


def _check_positivity(smallest: float, tol: float):
    if smallest < -tol:
        raise PositivityError(f"smallest eigenvalue {smallest:.3e} below -{tol:.0e}")


def check_x_densities(a, b, c, d, z):
    """``check_densities`` on a stack of X-shaped states held as their entry
    arrays: populations a, b, c, d and inner coherence z, laid out as in
    ``concurrence.XState``.  Such a matrix is Hermitian by construction; its
    trace defect is checked against TRACE_TOL, and its smallest eigenvalue,
    the least of a, d and (b + c)/2 - hypot((b - c)/2, |z|), against
    POSITIVITY_TOL, raising the same errors.
    """
    _check_trace(np.abs(a + b + c + d - 1.0).max(), TRACE_TOL)
    inner = 0.5 * (b + c) - np.hypot(0.5 * (b - c), np.hypot(z.real, z.imag))
    _check_positivity(np.minimum(np.minimum(a, d), inner).min(), POSITIVITY_TOL)


def validate_density(m) -> DensityMatrix:
    """Validate a matrix as a density operator and wrap it.

    Raises HermiticityError, TraceError or PositivityError, naming the
    violated property.
    """
    a = check_densities(as_matrix(m)).copy()
    a.setflags(write=False)
    return DensityMatrix(n_qubits=1 if a.shape[0] == 2 else 2, mat=a)

