"""Circuit definitions for the LC oscillator, fluxonium, and transmon.

All energies are stored as E/h in GHz.  A circuit is described by a
:class:`CircuitSpec`, and :func:`terms` expands it into the ordered list of
Hamiltonian terms, the one statement of its Hamiltonian that every basis
module builds its matrix from:

    LC:         4 E_C N^2 + (E_L/2) theta^2
    fluxonium:  4 E_C N^2 + (E_L/2) theta^2 - E_J cos(theta + 2 pi A)
    transmon:   4 E_C (N - N_g)^2 - E_J cos(theta)
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, from_json, is_finite, to_json


class Family(str, Enum):
    LC = "lc"
    FLUXONIUM = "fluxonium"
    TRANSMON = "transmon"


class OperatorKind(str, Enum):
    N_SQUARED = "n_squared"
    THETA_SQUARED = "theta_squared"
    COS_THETA = "cos_theta"


@dataclass(frozen=True)
class HamiltonianTerm:
    """One additive Hamiltonian contribution, coefficient in GHz.

    ``offset`` carries N_g of (N - N_g)^2 for N_SQUARED; ``flux`` carries the
    flux ratio A of cos(theta + 2*pi*A) for COS_THETA.
    """

    coefficient: float
    kind: OperatorKind
    offset: float = 0.0
    flux: float = 0.0


@dataclass(frozen=True)
class CircuitSpec:
    family: Family
    E_C: float
    E_L: float | None = None
    E_J: float | None = None
    A: float | None = None
    N_g: float | None = None

    def __post_init__(self):
        required = {
            Family.LC: ("E_C", "E_L"),
            Family.FLUXONIUM: ("E_C", "E_L", "E_J", "A"),
            Family.TRANSMON: ("E_C", "E_J", "N_g"),
        }[self.family]
        for name in ("E_C", "E_L", "E_J", "A", "N_g"):
            value = getattr(self, name)
            if value is None:
                if name in required:
                    raise ConfigError(f"{self.family.value} circuit requires {name}")
                continue
            if name not in required:
                raise ConfigError(f"{name} is not a {self.family.value} parameter")
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not is_finite(value):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")
            if name in ("E_C", "E_L", "E_J") and not value > 0:
                raise ConfigError(f"{name} must be strictly positive, got {value!r}")

    @classmethod
    def lc(cls, E_C: float, E_L: float) -> "CircuitSpec":
        return cls(Family.LC, E_C=E_C, E_L=E_L)

    @classmethod
    def fluxonium(cls, E_C: float, E_L: float, E_J: float, A: float) -> "CircuitSpec":
        return cls(Family.FLUXONIUM, E_C=E_C, E_L=E_L, E_J=E_J, A=A)

    @classmethod
    def transmon(cls, E_C: float, E_J: float, N_g: float) -> "CircuitSpec":
        return cls(Family.TRANSMON, E_C=E_C, E_J=E_J, N_g=N_g)

    def to_dict(self) -> dict:
        return {name: value for name, value in to_json(self).items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitSpec":
        return from_json(cls, data, _CIRCUIT_PARSERS, "circuit")


# the parameters go to CircuitSpec as they are, which checks them
_CIRCUIT_PARSERS = {"family": Family, **dict.fromkeys(("E_C", "E_L", "E_J", "A", "N_g"), lambda raw: raw)}


def terms(spec: CircuitSpec) -> list[HamiltonianTerm]:
    """Ordered Hamiltonian term list for a circuit, coefficients in GHz."""
    if spec.family is Family.LC:
        return [
            HamiltonianTerm(4.0 * spec.E_C, OperatorKind.N_SQUARED),
            HamiltonianTerm(0.5 * spec.E_L, OperatorKind.THETA_SQUARED),
        ]
    if spec.family is Family.FLUXONIUM:
        return [
            HamiltonianTerm(4.0 * spec.E_C, OperatorKind.N_SQUARED),
            HamiltonianTerm(0.5 * spec.E_L, OperatorKind.THETA_SQUARED),
            HamiltonianTerm(-spec.E_J, OperatorKind.COS_THETA, flux=spec.A),
        ]
    if spec.family is Family.TRANSMON:
        return [
            HamiltonianTerm(4.0 * spec.E_C, OperatorKind.N_SQUARED, offset=spec.N_g),
            HamiltonianTerm(-spec.E_J, OperatorKind.COS_THETA, flux=0.0),
        ]
    raise ConfigError(f"unknown family {spec.family!r}")
