"""Workload definitions: representation pools, seeded selection, CLI configs.

The pools restate the package presets as data, so that a later change to
``dvrcircuits.presets`` cannot silently change what the benchmark measures.
A seed selects a stratified subset of a pool: one representation from each
stratum, so every seed asks for the same kinds of matrices at the same sizes
and the cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

FLUXONIUM = {"family": "fluxonium", "E_C": 2.5, "E_L": 0.5, "E_J": 10.0, "A": 0.5}
LC = {"family": "lc", "E_C": 1.0, "E_L": 1.0}
TRANSMON_TL = {"family": "transmon", "E_C": 0.2, "E_J": 10.0, "N_g": 0.5}
TRANSMON_CL = {"family": "transmon", "E_C": 5.0, "E_J": 5.0, "N_g": 0.5}

# Phase spacings in units of pi, as in presets.PHASE_GRIDS.
PHASE_GRIDS = (
    (1, 64), (1, 32), (1, 16), (3, 32), (1, 8), (5, 32), (3, 16), (7, 32),
    (1, 4), (9, 32), (5, 16), (1, 3), (5, 12), (1, 2), (5, 8), (3, 4),
    (3, 2), (3, 1),
)
# Charge spacings 1/n, as in presets.FLUXONIUM_CHARGE_GRIDS.
FLUXONIUM_CHARGE_GRIDS = tuple((1, n) for n in range(1, 16))
# Finite-difference phase spacings in units of pi, as in presets.FD_PHASE_GRIDS.
FD_PHASE_GRIDS = (
    (1, 512), (1, 256), (3, 512), (1, 128), (3, 256), (1, 64), (3, 128),
    (1, 32), (3, 64), (1, 16), (3, 32), (1, 8), (3, 16), (1, 4), (3, 8),
    (1, 2), (3, 4),
)

# Matrix sizes: every odd d up to 301 for the fluxonium (the preset range);
# every fourth odd d up to 599 for the LC finite differences, which keeps the
# largest tridiagonal matrices while one grid's three levels fit in a pass;
# every odd d up to 101 for the transmon presets.
FLUXONIUM_SIZES = {"largest": 301}
FD_SIZES = {"largest": 599, "stride": 4}
TRANSMON_SIZES = {"largest": 101}


def _dvr(kind: str, grid: tuple[int, int], pi: bool) -> dict:
    return {"type": "dvr", "kind": kind, "spacing": {"num": grid[0], "den": grid[1], "pi": pi}}


def _fd(grid: tuple[int, int]) -> dict:
    return {
        "type": "fd",
        "spacing": {"num": grid[0], "den": grid[1], "pi": True},
        "order_M": 1,
        "boundary": "bounded",
    }


FLUXONIUM_STRATA = {
    "traditional_phase": [_dvr("traditional_phase", g, True) for g in PHASE_GRIDS],
    "truncated_phase": [_dvr("truncated_phase", g, True) for g in PHASE_GRIDS],
    "traditional_charge": [_dvr("traditional_charge", g, False) for g in FLUXONIUM_CHARGE_GRIDS],
    "truncated_charge": [_dvr("truncated_charge", g, False) for g in FLUXONIUM_CHARGE_GRIDS],
    "ho": [{"type": "ho", "scale": "lc", "embed_dim": 1001},
           {"type": "ho", "scale": "plasma", "embed_dim": 1001}],
}
FD_STRATA = {"fd": [_fd(g) for g in FD_PHASE_GRIDS]}
TRANSMON_REPS = [
    _dvr("traditional_charge", (1, 1), False),
    {"type": "dvr", "kind": "truncated_phase", "spacing": None},
]


def rep_key(rep: dict) -> str:
    """Stable identifier of a representation descriptor."""
    if rep["type"] == "dvr":
        s = rep["spacing"]
        if s is None:
            return f"{rep['kind']}[2pi/d]"
        return f"{rep['kind']}[{s['num']}/{s['den']}{'pi' if s['pi'] else ''}]"
    if rep["type"] == "ho":
        return f"ho[{rep['scale']}]"
    s = rep["spacing"]
    return f"fd[{rep['boundary']},{s['num']}/{s['den']}pi,M={rep['order_M']}]"


def size_count(sizes: dict) -> int:
    """Number of odd matrix sizes from 3 in a {"largest", "stride"} range."""
    return len(range(3, sizes["largest"] + 1, 2 * sizes.get("stride", 1)))


def _pick(strata: dict, seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [rng.choice(pool) for pool in strata.values()]


def _pool(strata: dict) -> list[dict]:
    return [rep for pool in strata.values() for rep in pool]


# One CLI call: (command, config name, config).  A pass runs the calls in order.
def fluxonium_metrics(reps: list[dict]) -> list[tuple[str, str, dict]]:
    config = {"circuit": FLUXONIUM, "representations": reps, "sizes": FLUXONIUM_SIZES,
              "levels": [0]}
    return [("metrics", "fluxonium", config)]


def lc_fd_levels(reps: list[dict]) -> list[tuple[str, str, dict]]:
    calls = [("levels", "lc-fd", {"circuit": LC, "representations": reps, "sizes": FD_SIZES,
                                  "levels": [0, 1, 2], "scale": "lc_scaled"})]
    for name, circuit in (("transmon-tl", TRANSMON_TL), ("transmon-cl", TRANSMON_CL)):
        calls.append(("levels", name, {"circuit": circuit, "representations": TRANSMON_REPS,
                                       "sizes": TRANSMON_SIZES, "levels": [0, 1, 2]}))
    return calls


def fluxonium_states(reps: list[dict]) -> list[tuple[str, str, dict]]:
    config = {"circuit": FLUXONIUM, "representations": reps, "sizes": FLUXONIUM_SIZES,
              "levels": [0, 1, 2, 3, 4], "shift_betas": [0, 1, 2]}
    return [("decompose", "fluxonium", config), ("shift", "fluxonium", config)]


@dataclass(frozen=True)
class Workload:
    """A named workload: its strata, how a pass calls the CLI, and its set-up."""

    name: str
    strata: dict
    calls: Callable[[list[dict]], list[tuple[str, str, dict]]]
    # circuits whose reference oracle set-up builds, with the levels used
    oracles: list
    # HO length scales whose fluxonium embedding set-up builds
    embeddings: list

    def pass_calls(self, seed: int) -> list[tuple[str, str, dict]]:
        """The CLI calls of one pass for this seed."""
        return self.calls(_pick(self.strata, seed))

    def golden_calls(self) -> list[tuple[str, str, dict]]:
        """The CLI calls that cover every representation any seed can pick."""
        return self.calls(_pool(self.strata))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fluxonium-metrics", FLUXONIUM_STRATA, fluxonium_metrics,
                 oracles=[(FLUXONIUM, [0])], embeddings=["lc", "plasma"]),
        Workload("lc-fd-levels", FD_STRATA, lc_fd_levels,
                 oracles=[(LC, [0, 1, 2]), (TRANSMON_TL, [0, 1, 2]), (TRANSMON_CL, [0, 1, 2])],
                 embeddings=[]),
        Workload("fluxonium-states", FLUXONIUM_STRATA, fluxonium_states,
                 oracles=[], embeddings=["lc", "plasma"]),
    )
}
