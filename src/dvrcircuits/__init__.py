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
from .dvr import DvrBasis, DvrKind, OperatorMatrix, Spacing, grid_points
from .errors import ConfigError, IncompatibleRepresentationError, NumericalError
from .fdm import Boundary, FdGrid, fd_coefficients, fd_hamiltonian
from .ho import HoBasis, LengthScale, length_scale
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
from .states import ShiftSpec, apply_shift, decompose, expectation, flux_sweep

__version__ = "0.1.0"
