"""Compare the CLI's outputs of one pass with the golden outputs.

Rules (tolerances are computed by make_golden.py and stored with the goldens):

- Identity columns (circuit, representation, spacing, level, alpha) and R
  must match exactly.
- A float may differ from its golden value by at most the stored tolerance,
  a multiple of eps * max|H(d)| (populations and expectation values: of
  eps * ||H|| / gap).  The inputs echoed in a row (A, phi) may differ by
  at most 4 ulp.
- A boolean or sign (saturated, crossed_zero, P_sign) may differ only where
  the golden curve lies within its tolerance of that decision's boundary.
  If ``saturated`` flips, P must still lie within the tolerance of the
  golden window of the last three |Delta| values.

Every output is one (representation, level) row of metrics/levels, one
(representation, level) table of decompose, or one (representation, A, beta)
row of shift.  A missing output counts as a mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from env import GOLDEN
from workloads import rep_key

# The metric definitions of convergence.saturation_P (documented in the README).
PRECISION_FLOOR = 1e-12
PLATEAU_BAND = 1.1
INPUT_ULPS = 4 * np.finfo(float).eps


def load(workload: str) -> dict:
    golden = json.loads((GOLDEN / f"{workload}.json").read_text())
    npz = GOLDEN / f"{workload}.npz"
    if npz.exists():
        with np.load(npz, allow_pickle=False) as arrays:
            golden["arrays"] = {k: arrays[k] for k in arrays.files}
    return golden


def _saturation_ambiguous(window: list[float], tol: float) -> bool:
    w = [abs(x) for x in window]
    lo, hi = min(w), max(w)
    if lo - tol <= PRECISION_FLOOR <= lo + tol:
        return True
    ratio_min = max(hi - tol, 0.0) / (lo + tol)
    ratio_max = (hi + tol) / max(lo - tol, np.finfo(float).tiny)
    return ratio_min < PLATEAU_BAND <= ratio_max


def metrics_row_ok(row: list[str], golden: dict) -> bool:
    g = golden["row"]
    if row[:7] != g[:7]:  # identity columns and R
        return False
    window, tols = golden["window"], golden["tol"]
    tol = max(tols)
    p, p_golden = float(row[7]), float(g[7])
    if row[9] == g[9]:
        if abs(p - p_golden) > tol:
            return False
    elif not _saturation_ambiguous(window, tol):
        return False
    elif not min(abs(x) for x in window) - tol <= p <= max(abs(x) for x in window) + tol:
        return False
    if row[8] != g[8] and abs(window[-1]) > tols[-1]:
        return False
    if row[10] != g[10] and not golden["zero_ambiguous"]:
        return False
    return len(row) == len(g)


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]] | None:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    if not lines:
        return None
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _metrics(config: dict, out: Path, golden: dict) -> tuple[int, int]:
    expected = [golden["rows"][f"{rep_key(rep)}|{level}"]
                for rep in config["representations"] for level in config["levels"]]
    parsed = _read_rows(out / golden["file"])
    if parsed is None or parsed[0] != golden["header"]:
        return len(expected), len(expected)
    rows = {tuple(r[:6]): r for r in parsed[1]}
    failed = 0
    for g in expected:
        row = rows.get(tuple(g["row"][:6]))
        failed += row is None or not metrics_row_ok(row, g)
    return len(expected), failed


def _load_table(path: Path, columns: int) -> np.ndarray | None:
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    return table if table.shape[1] == columns else None


def _decompose(config: dict, out: Path, golden: dict) -> tuple[int, int]:
    levels = len(config["levels"])
    attempted = failed = 0
    for rep in config["representations"]:
        g = golden["decompose"][rep_key(rep)]
        want = golden["arrays"]["decompose"][g["index"]]
        dim = want.shape[1]
        attempted += levels
        table = _load_table(out / g["file"], 3)
        if table is None or table.shape[0] != levels * dim:
            failed += levels
            continue
        index_ok = (np.array_equal(table[:, 0], np.repeat(np.arange(levels), dim))
                    and np.array_equal(table[:, 1], np.tile(np.arange(dim), levels)))
        mags = table[:, 2].reshape(levels, dim)
        for level in range(levels):
            err = np.abs(mags[level] - want[level]).max()
            failed += not (index_ok and err <= g["tol"][level])
    return attempted, failed


def _shift(config: dict, out: Path, golden: dict) -> tuple[int, int]:
    attempted = failed = 0
    for rep in config["representations"]:
        g = golden["shift"].get(rep_key(rep))
        if g is None:  # the shift command sweeps phase DVRs only
            continue
        want = golden["arrays"]["shift"][g["index"]]
        attempted += want.shape[0]
        table = _load_table(out / g["file"], 4)
        if table is None or table.shape != want.shape:
            failed += want.shape[0]
            continue
        err = np.abs(table - want)
        ok = (
            (err[:, :2] <= INPUT_ULPS * np.maximum(np.abs(want[:, :2]), 1.0)).all(axis=1)
            & (err[:, 2] <= g["tol_energy"])
            & (err[:, 3] <= g["tol_current"])
        )
        failed += int((~ok).sum())
    return attempted, failed


def check_call(command: str, name: str, config: dict, out: Path, golden: dict) -> tuple[int, int]:
    """(attempted, failed) outputs of one CLI call against the goldens."""
    if command in ("metrics", "levels"):
        return _metrics(config, out, golden[name])
    if command == "decompose":
        return _decompose(config, out, golden)
    return _shift(config, out, golden)
