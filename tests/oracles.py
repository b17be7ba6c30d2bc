"""Slow, independent reference implementations that the tests compare against.

They share no machinery with the package's fast paths, so an agreement
between the two is evidence about both.
"""

import math

import numpy as np

from dvrcircuits.dvr import DvrBasis, OperatorMatrix
from dvrcircuits.errors import ConfigError


def conj_moment_truncated_direct(basis: DvrBasis, power: int) -> OperatorMatrix:
    """Independent finite-sum evaluation of the truncated conjugate moments.

    Slow elementwise reference path used to validate the DFT construction;
    kept free of any shared machinery with conj_function_truncated.
    """
    if not basis.kind.is_truncated:
        raise ConfigError("conj_moment_truncated_direct requires a truncated kind")
    if power not in (1, 2):
        raise ConfigError(f"power must be 1 or 2, got {power}")
    M, d = basis.M, basis.dim
    dy = basis.conjugate_spacing
    sign = -1.0 if basis.kind.is_phase else 1.0
    entries = np.empty((d, d), dtype=complex)
    for a in range(-M, M + 1):
        for b in range(-M, M + 1):
            # compensated accumulation: the terms cancel heavily for a != b;
            # n*(a-b) is reduced mod d in integers so the phase carries no
            # rounding that grows with M
            phases = [(n, 2.0 * math.pi * (n * (a - b) % d) / d) for n in range(-M, M + 1)]
            re = math.fsum((n * dy) ** power * math.cos(t) for n, t in phases)
            im = math.fsum((n * dy) ** power * sign * math.sin(t) for n, t in phases)
            entries[a + M, b + M] = complex(re, im) / d
    return OperatorMatrix(entries)
