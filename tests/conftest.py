"""Shared pytest hooks and the level-0 preset sweeps of one test run.

The acceptance tests record one pass/fail line per criterion; replaying them
in the terminal summary guarantees they appear in the run log even though
pytest captures per-test output.

``ground_sweeps`` runs the production route (``spectra.eigenvalues_by_size``)
over d = 3-301 at level 0 once per test run for every LC and fluxonium preset
pair, all of which split by parity; the acceptance scans and the comparison
with the two-block merge read it.
"""

import time

import pytest

from dvrcircuits.convergence import default_sizes
from dvrcircuits.presets import FLUXONIUM_CIRCUIT, LC_CIRCUIT, fluxonium_representations, lc_representations
from dvrcircuits.spectra import eigenvalues_by_size, splits_by_parity

ACCEPTANCE_LINES: list[str] = []

GROUND_SIZES = default_sizes(301)
GROUND_POOL = [
    (spec, rep)
    for spec, reps in ((FLUXONIUM_CIRCUIT, fluxonium_representations()), (LC_CIRCUIT, lc_representations()))
    for rep in reps
    if splits_by_parity(spec, rep)
]


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="session")
def ground_sweeps():
    """({(spec, rep): eigenvalues_by_size(spec, rep, GROUND_SIZES, 0)} over
    GROUND_POOL, {family: seconds those sweeps took})."""
    values, seconds = {}, {}
    for spec, rep in GROUND_POOL:
        start = time.monotonic()
        values[(spec, rep)] = eigenvalues_by_size(spec, rep, GROUND_SIZES, 0)
        seconds[spec.family] = seconds.get(spec.family, 0.0) + time.monotonic() - start
    return values, seconds


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
