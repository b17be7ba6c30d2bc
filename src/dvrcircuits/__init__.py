"""Sinc-DVR simulation of superconducting circuits with convergence metrics."""

from .circuits import CircuitSpec, Family, HamiltonianTerm, OperatorKind, terms
from .convergence import (
    ConvergenceCurve,
    DEFAULT_THRESHOLD_GHZ,
    MetricsRecord,
    Scale,
    decoherence_R,
    default_sizes,
    level_metrics,
    metrics,
    saturation_P,
    sweep,
    sweep_levels,
)
from .dvr import (
    DvrBasis,
    DvrKind,
    OperatorMatrix,
    Spacing,
    conj_moment_traditional,
    conj_moment_truncated,
    cosine_in_charge,
    diag_of_discretized,
    grid_points,
)
from .errors import ConfigError, IncompatibleRepresentationError, NumericalError
from .fdm import Boundary, FdGrid, fd_coefficients, fd_hamiltonian
from .ho import HoBasis, LengthScale, cos_in_ho, length_scale
from .spectra import (
    DvrRep,
    FdRep,
    HoRep,
    Representation,
    Spectrum,
    assemble,
    charge_basis,
    eigensolve,
    lowest_states,
    reference_energy,
)
from .states import ShiftSpec, StateVector, apply_shift, decompose, expectation, flux_sweep, shift_operator

__version__ = "0.1.0"
