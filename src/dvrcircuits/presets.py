"""Built-in run configurations for the three reference circuits.

Grid lists: nineteen charge spacings in [1/20, 2] and eighteen phase
spacings in [pi/64, 3*pi] for the LC oscillator; dN = 1/n (n = 1..15) plus
the same phase list for the fluxonium; the charge basis and the
size-dependent truncated phase grid for the two transmon parameter sets.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .circuits import CircuitSpec
from .convergence import default_sizes
from .dvr import DvrKind, Spacing
from .fdm import Boundary
from .ho import LengthScale
from .spectra import DvrRep, FdRep, HoRep, Representation, charge_basis

LC_CIRCUIT = CircuitSpec.lc(E_C=1.0, E_L=1.0)
FLUXONIUM_CIRCUIT = CircuitSpec.fluxonium(E_C=2.5, E_L=0.5, E_J=10.0, A=0.5)
TRANSMON_LIMIT = CircuitSpec.transmon(E_C=0.2, E_J=10.0, N_g=0.5)
CHARGE_LIMIT = CircuitSpec.transmon(E_C=5.0, E_J=5.0, N_g=0.5)

LC_CHARGE_GRIDS = tuple(
    Fraction(*f)
    for f in [
        (1, 20), (1, 15), (1, 10), (1, 8), (1, 6), (1, 5), (1, 4), (3, 10),
        (7, 20), (2, 5), (9, 20), (1, 2), (3, 5), (7, 10), (4, 5), (1, 1),
        (5, 4), (3, 2), (2, 1),
    ]
)

PHASE_GRIDS = tuple(
    Fraction(*f)
    for f in [
        (1, 64), (1, 32), (1, 16), (3, 32), (1, 8), (5, 32), (3, 16), (7, 32),
        (1, 4), (9, 32), (5, 16), (1, 3), (5, 12), (1, 2), (5, 8), (3, 4),
        (3, 2), (3, 1),
    ]
)

FLUXONIUM_CHARGE_GRIDS = tuple(Fraction(1, n) for n in range(1, 16))

FD_PHASE_GRIDS = tuple(
    Fraction(*f)
    for f in [
        (1, 512), (1, 256), (3, 512), (1, 128), (3, 256), (1, 64), (3, 128),
        (1, 32), (3, 64), (1, 16), (3, 32), (1, 8), (3, 16), (1, 4), (3, 8),
        (1, 2), (3, 4),
    ]
)

FD_SIZES = default_sizes(599)


def _dvr_reps(charge_grids, phase_grids) -> list[Representation]:
    reps: list[Representation] = []
    for kind in (DvrKind.TRADITIONAL_PHASE, DvrKind.TRUNCATED_PHASE):
        reps += [DvrRep(kind, Spacing(f.numerator, f.denominator, pi=True)) for f in phase_grids]
    for kind in (DvrKind.TRADITIONAL_CHARGE, DvrKind.TRUNCATED_CHARGE):
        reps += [DvrRep(kind, Spacing(f.numerator, f.denominator)) for f in charge_grids]
    return reps


def fd_representations() -> list[Representation]:
    return [FdRep(float(f) * math.pi, 1, Boundary.BOUNDED) for f in FD_PHASE_GRIDS]


def lc_representations() -> list[Representation]:
    return _dvr_reps(LC_CHARGE_GRIDS, PHASE_GRIDS)


def fluxonium_representations() -> list[Representation]:
    reps = _dvr_reps(FLUXONIUM_CHARGE_GRIDS, PHASE_GRIDS)
    reps += [HoRep(LengthScale.LC), HoRep(LengthScale.PLASMA)]
    return reps


def transmon_representations() -> list[Representation]:
    return [charge_basis(), DvrRep(DvrKind.TRUNCATED_PHASE, None)]
