"""Regenerate the golden outputs under perfbench/golden/ from this checkout.

    python3 perfbench/make_golden.py

Run it only at the commit whose outputs define correctness.  For every
workload it runs the CLI once over the whole representation pool (so every
seed's subset is covered) and stores what the CLI wrote, together with the
tolerances the check in check.py allows.  Takes about five minutes.

Tolerances follow from the eigensolver's backward error.  An eigenvalue of
H(d) is accurate to a multiple of eps * max|H(d)|; an energy difference
Delta(d) = E_d - E_ref also carries the reference's own error, so

    tol(d) = K * eps * (max|H(d)| + max|H_ref|) / energy_scale.

An eigenvector moves by at most K * eps * ||H|| / gap (Davis-Kahan), which
bounds the populations and the expectation values built from it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

from env import GOLDEN, OUT, SRC, THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from dvrcircuits import (  # noqa: E402
    CircuitSpec, Family, HoRep, LengthScale, Scale, assemble, charge_basis,
    default_sizes, reference_energy, sweep,
)
from dvrcircuits.cli import main, rep_from_dict  # noqa: E402

from workloads import FLUXONIUM, WORKLOADS, rep_key  # noqa: E402

K = 64
EPS = float(np.finfo(float).eps)


def _run_cli(command: str, name: str, config: dict) -> tuple[str, list[str]]:
    out = OUT / "golden-run" / f"{command}-{name}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    code = main([command, "--config", str(path), "--out", str(out), "--threads", "1"])
    if code != 0:
        raise SystemExit(f"{command} {name} exited {code} at golden generation")
    files = json.loads((out / "manifest.json").read_text())["files"]
    return str(out), files


def _sizes(raw: dict) -> tuple[int, ...]:
    return default_sizes(raw["largest"], raw.get("stride", 1))


def _oracle_hmax(spec: CircuitSpec, level: int) -> float:
    if spec.family is Family.FLUXONIUM:
        return float(np.abs(assemble(spec, HoRep(LengthScale.LC), 1001).entries).max())
    if spec.family is Family.TRANSMON:
        return float(np.abs(assemble(spec, charge_basis(), 401).entries).max())
    return abs(reference_energy(spec, level))


def metrics_golden(command: str, name: str, config: dict) -> dict:
    out, files = _run_cli(command, name, config)
    lines = open(os.path.join(out, files[0])).read().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    spec = CircuitSpec.from_dict(config["circuit"])
    scale = Scale(config.get("scale", "absolute"))
    energy_scale = math.sqrt(8 * spec.E_C * spec.E_L) if scale is Scale.LC_SCALED else 1.0
    sizes = _sizes(config["sizes"])
    levels = config["levels"]
    href = {level: _oracle_hmax(spec, level) for level in levels}
    golden = {}
    it = iter(rows)
    for rep in config["representations"]:
        rep_obj = rep_from_dict(rep)
        hmax = np.array([np.abs(assemble(spec, rep_obj, d).entries).max() for d in sizes])
        for level in levels:
            row = next(it)
            assert row[5] == str(level), (row, level)
            deltas = sweep(spec, rep_obj, sizes, level, scale).deltas
            tol = K * EPS * (hmax + href[level]) / energy_scale
            golden[f"{rep_key(rep)}|{level}"] = {
                "row": row,
                "window": [float(x) for x in deltas[-3:]],
                "tol": [float(x) for x in tol[-3:]],
                "zero_ambiguous": bool(np.any(np.abs(deltas) <= tol)),
            }
    assert next(it, None) is None
    return {"file": files[0], "header": header, "rows": golden}


def states_golden(calls) -> tuple[dict, dict]:
    _, _, config = calls[0]  # decompose and shift share one config
    spec = CircuitSpec.from_dict(config["circuit"])
    dim = config["sizes"]["largest"]
    levels = len(config["levels"])
    e_j = FLUXONIUM["E_J"]
    dec_out, dec_files = _run_cli("decompose", "fluxonium", config)
    shift_out, shift_files = _run_cli("shift", "fluxonium", config)
    meta = {"decompose": {}, "shift": {}}
    dec_arrays, shift_arrays = [], []
    for rep, dec_file in zip(config["representations"], dec_files):
        h = assemble(spec, rep_from_dict(rep), dim).entries
        ev = np.linalg.eigvalsh(h)
        hnorm = float(np.abs(ev).max())
        gaps = [min(ev[n + 1] - ev[n], ev[n] - ev[n - 1] if n else np.inf) for n in range(levels)]
        vec_tol = [K * EPS * hnorm / g for g in gaps]
        table = np.loadtxt(os.path.join(dec_out, dec_file), delimiter=",", skiprows=1)
        meta["decompose"][rep_key(rep)] = {
            "file": dec_file,
            "index": len(dec_arrays),
            "tol": [2 * v + v * v for v in vec_tol],
        }
        dec_arrays.append(table[:, 2].reshape(levels, dim))
        shift_file = "shift_" + dec_file.removeprefix("decompose_fluxonium_")
        if shift_file in shift_files:
            hbound = hnorm + 2 * e_j
            meta["shift"][rep_key(rep)] = {
                "file": shift_file,
                "index": len(shift_arrays),
                "tol_energy": 2 * vec_tol[0] * hbound + K * EPS * hbound,
                "tol_current": 2 * vec_tol[0] + K * EPS,
            }
            shift_arrays.append(
                np.loadtxt(os.path.join(shift_out, shift_file), delimiter=",", skiprows=1)
            )
    assert len(meta["shift"]) == len(shift_files)
    return meta, {"decompose": np.stack(dec_arrays), "shift": np.stack(shift_arrays)}


def main_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        calls = workload.golden_calls()
        if name == "fluxonium-states":
            meta, arrays = states_golden(calls)
            np.savez_compressed(GOLDEN / f"{name}.npz", **arrays)
        else:
            meta = {call_name: metrics_golden(command, call_name, config)
                    for command, call_name, config in calls}
        (GOLDEN / f"{name}.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        print(f"wrote golden outputs of {name}", flush=True)
    shutil.rmtree(OUT / "golden-run", ignore_errors=True)


if __name__ == "__main__":
    main_golden()
