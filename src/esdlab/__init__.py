"""Two-qubit open-system toolkit: noise channels, concurrence decay, sudden death.

Single-qubit decoherence rates add when independent weak noises act
together; the entanglement of a qubit pair does not follow suit and can
vanish at a finite time instead.  This package provides the channel and
master-equation machinery to demonstrate both behaviors numerically, the
closed-form decay laws to check them against, and a CLI for time traces,
death-time reports and classification sweeps over the state class.
"""

from .linalg import (
    DensityMatrix,
    HermiticityError,
    NumericalFailureError,
    PositivityError,
    TraceError,
    ValidationError,
    kron,
    product_spectrum,
    validate_density,
)
from .channels import NoiseSpec, integrate_path, lindblad_rhs
from .concurrence import (
    ConcurrenceTrace,
    DecayClass,
    DecayKind,
    DiagramCell,
    SeparableStateError,
    XState,
    classify,
    concurrence,
    concurrence_x,
    diagram_grid,
    esd_time,
    evolve_x,
    lambda_state,
    trace_concurrence,
)
from .closedform import (
    amplitude_concurrence,
    amplitude_elements,
    coherence_factor,
    combined_concurrence,
    combined_death_time,
    phase_concurrence,
)
from .checks import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConcurrenceTrace",
    "DecayClass",
    "DecayKind",
    "DensityMatrix",
    "DiagramCell",
    "HermiticityError",
    "NoiseSpec",
    "NumericalFailureError",
    "PositivityError",
    "SeparableStateError",
    "TraceError",
    "ValidationError",
    "XState",
    "amplitude_concurrence",
    "amplitude_elements",
    "classify",
    "coherence_factor",
    "combined_concurrence",
    "combined_death_time",
    "concurrence",
    "concurrence_x",
    "diagram_grid",
    "esd_time",
    "evolve_x",
    "integrate_path",
    "kron",
    "lambda_state",
    "lindblad_rhs",
    "phase_concurrence",
    "product_spectrum",
    "run_validation",
    "trace_concurrence",
    "validate_density",
]
