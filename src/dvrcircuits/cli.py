"""Command-line front end: config parsing, sweep orchestration, CSV emission.

A run is described by a single JSON config (or a named preset) and produces
deterministic CSV files plus a ``manifest.json`` recording the config hash,
library versions, BLAS thread variables, and wall time.  Runs are sequential.
Plotting is out of process: ``--emit-plot-script`` writes a gnuplot script next
to the data.

Exit codes: 0 success, 2 config error or unwritable output, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .circuits import CircuitSpec, Family
from .convergence import (
    DEFAULT_THRESHOLD_GHZ,
    Scale,
    default_sizes,
    energy_scale,
    level_metrics,
    sweep_levels,
)
from .dvr import DvrKind, Spacing
from .errors import ConfigError, NumericalError, from_json, json_int, json_number, reject_unknown, to_json
from .fdm import Boundary
from .ho import LengthScale
from .presets import (
    CHARGE_LIMIT,
    FLUXONIUM_CIRCUIT,
    LC_CIRCUIT,
    TRANSMON_LIMIT,
    fluxonium_representations,
    lc_representations,
    transmon_representations,
)
from .spectra import (
    DvrRep,
    FdRep,
    HoRep,
    Representation,
    check_compatible,
    lowest_states,
)
from .states import ShiftSpec, decompose, flux_sweep


# ---------------------------------------------------------------------------
# representation descriptors <-> JSON


def _fd_spacing(raw) -> float | None:
    """An FD grid spacing: a number, a spacing descriptor, or null for 2*pi/d."""
    if isinstance(raw, dict):
        return Spacing.from_dict(raw).value
    if raw is not None:
        raw = json_number(raw, "fd spacing")
        if not raw > 0.0:
            raise ConfigError(f"fd spacing must be finite and positive, got {raw!r}")
    return raw


# each representation type: its class and one parser per field it may hold
_REPS = {
    "dvr": (DvrRep, {"kind": DvrKind, "spacing": lambda raw: None if raw is None else Spacing.from_dict(raw)}),
    "ho": (HoRep, {"scale": LengthScale, "embed_dim": lambda raw: json_int(raw, "embed_dim")}),
    "fd": (FdRep, {"spacing": _fd_spacing, "order_M": lambda raw: json_int(raw, "order_M"), "boundary": Boundary}),
}


def rep_to_dict(rep: Representation) -> dict:
    for kind, (cls, _) in _REPS.items():
        if isinstance(rep, cls):
            return {"type": kind, **to_json(rep)}
    raise ConfigError(f"unknown representation {rep!r}")


def rep_from_dict(data: dict) -> Representation:
    kind = data.get("type") if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in _REPS:
        raise ConfigError(f"a representation needs a 'type' field, one of {sorted(_REPS)}: {data!r}")
    cls, parsers = _REPS[kind]
    untagged = {name: value for name, value in data.items() if name != "type"}
    return from_json(cls, untagged, parsers, f"{kind} representation")


def _slug(rep: Representation) -> str:
    """The part of a representation's output file names that names it."""
    return (
        rep.label.replace("[", "_").replace("]", "").replace("/", "-")
        .replace(",", "_").replace("=", "").replace("*", "").replace(".", "p")
    )


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    circuit: CircuitSpec
    representations: tuple[Representation, ...]
    sizes: tuple[int, ...]
    levels: tuple[int, ...] = (0,)
    threshold_GHz: float = DEFAULT_THRESHOLD_GHZ
    scale: Scale = Scale.ABSOLUTE
    decompose_floor: float = 1e-20
    shift_betas: tuple[int, ...] = (0, 1, 2)
    shift_direction: int = +1
    shift_rediagonalize: bool = False

    def __post_init__(self):
        if not isinstance(self.shift_rediagonalize, bool):
            raise ConfigError(f"shift_rediagonalize must be true or false, got {self.shift_rediagonalize!r}")
        if not self.representations:
            raise ConfigError("representation list must not be empty")
        if not self.sizes:
            raise ConfigError("size list must not be empty")
        if not self.levels:
            raise ConfigError("level list must not be empty")
        if not 0.0 < self.threshold_GHz < math.inf:
            raise ConfigError(f"threshold must be finite and positive, got {self.threshold_GHz}")
        if not 0.0 <= self.decompose_floor < math.inf:
            raise ConfigError(f"decompose floor must be finite and non-negative, got {self.decompose_floor}")
        # a representation's output files are named by its _slug
        named: dict[str, Representation] = {}
        for rep in self.representations:
            check_compatible(self.circuit, rep)
            slug = _slug(rep)
            if slug in named:
                raise ConfigError(
                    f"representations {rep_to_dict(named[slug])} and {rep_to_dict(rep)} "
                    f"would write the same output files ({slug!r})"
                )
            named[slug] = rep
        if len(set(self.levels)) < len(self.levels):
            raise ConfigError(f"levels must not repeat, got {list(self.levels)}")
        # every command rejects a shift the shift command could not apply
        for beta in (0, *self.shift_betas):
            ShiftSpec(beta, self.shift_direction)

    def to_dict(self) -> dict:
        # each representation keeps its "type" tag
        return dict(to_json(self), representations=[rep_to_dict(r) for r in self.representations])


def _parse_sizes(raw) -> tuple[int, ...]:
    if isinstance(raw, dict):
        reject_unknown(raw, ("largest", "stride"), "size range")
        stride = json_int(raw.get("stride", 1), "size stride")
        if stride < 1:
            raise ConfigError(f"size stride must be >= 1, got {stride}")
        return default_sizes(json_int(raw.get("largest", 301), "largest size"), stride)
    if isinstance(raw, list):
        return tuple(json_int(s, "size") for s in raw)
    raise ConfigError(f"sizes must be a list or a range spec, got {raw!r}")


# one parser per RunConfig field, in the order the fields are parsed; a field
# the config leaves out takes the dataclass default
_FIELD_PARSERS = {
    "circuit": CircuitSpec.from_dict,
    "representations": lambda raw: tuple(rep_from_dict(r) for r in raw),
    "sizes": _parse_sizes,
    "levels": lambda raw: tuple(json_int(n, "level") for n in raw),
    "threshold_GHz": lambda raw: json_number(raw, "threshold_GHz"),
    "scale": Scale,
    "decompose_floor": lambda raw: json_number(raw, "decompose_floor"),
    "shift_betas": lambda raw: tuple(json_int(b, "shift beta") for b in raw),
    "shift_direction": lambda raw: json_int(raw, "shift_direction"),
    "shift_rediagonalize": lambda raw: raw,  # checked by RunConfig
}


def config_from_dict(data: dict) -> RunConfig:
    return from_json(RunConfig, data, _FIELD_PARSERS, "config")


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


PRESETS = ("lc", "fluxonium", "transmon-tl", "transmon-cl")


def preset_config(name: str) -> RunConfig:
    if name == "lc":
        return RunConfig(
            circuit=LC_CIRCUIT,
            representations=tuple(lc_representations()),
            sizes=default_sizes(301),
            scale=Scale.LC_SCALED,
        )
    if name == "fluxonium":
        return RunConfig(
            circuit=FLUXONIUM_CIRCUIT,
            representations=tuple(fluxonium_representations()),
            sizes=default_sizes(301),
            levels=(0, 1, 2, 3, 4),
        )
    if name in ("transmon-tl", "transmon-cl"):
        circuit = TRANSMON_LIMIT if name == "transmon-tl" else CHARGE_LIMIT
        return RunConfig(
            circuit=circuit,
            representations=tuple(transmon_representations()),
            sizes=default_sizes(101),
        )
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _format_column(values: tuple) -> list[str]:
    """``_fmt`` of every value, as one map over a column of all floats or all ints."""
    types = set(map(type, values))
    if types == {float}:
        return list(map("{:.17g}".format, values))
    if types == {int}:  # not bool, which _fmt spells out
        return list(map(str, values))
    return list(map(_fmt, values))


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    columns = [_format_column(column) for column in zip(*rows)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n")


def _rep_columns(rep: Representation) -> tuple[str, object, object, object]:
    """(rep_kind, spacing_num, spacing_den, spacing_pi) for the metrics schema."""
    if isinstance(rep, DvrRep):
        if rep.spacing is None:
            return (rep.kind.value, 2, "d", True)
        s = rep.spacing
        return (rep.kind.value, s.num, s.den, s.pi)
    if isinstance(rep, HoRep):
        return (f"ho_{rep.scale.value}", "", "", "")
    return (f"fdm_{rep.boundary.value}_M{rep.order_M}", "", "", _fmt(rep.spacing))


def _write_manifest(out: Path, command: str, config: RunConfig, wall_time: float,
                    files: list[str], sweeps: list[dict]) -> None:
    doc = config.to_dict()
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    manifest = {
        "command": command,
        "config": doc,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "versions": {
            "dvrcircuits": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        # the BLAS thread count can move the last bits of an eigenvalue (criterion 8)
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "wall_time_s": wall_time,
        "files": files,
        # per (representation, level) of a curve, metrics or levels run: the
        # path its numbers took ("bisected" or "full") and how many sizes it read
        "sweeps": sweeps,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


# the y axis of a curve plot, by the scale its CSV holds Delta in
_YLABELS = {Scale.ABSOLUTE: "|Delta| (GHz)", Scale.LC_SCALED: "|Delta| / sqrt(8 E_C E_L)"}


def _plot_script(out: Path, csv_files: list[str], ylabel: str) -> None:
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'matrix size'",
        f"set ylabel '{ylabel}'",
        "set key outside",
        "plot \\",
    ]
    plots = [
        f"  '{name}' using 1:3 skip 1 with linespoints title '{name}'"
        for name in csv_files
    ]
    lines.append(", \\\n".join(plots))
    (out / "plot.gp").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands


def _sweep_entry(rep: Representation, level: int, path: str, sizes_solved: int) -> dict:
    return {"representation": rep.label, "level": level, "path": path, "sizes_solved": sizes_solved}


def cmd_curve(config: RunConfig, out: Path, plot: bool) -> tuple[list[str], list[dict]]:
    curves = [
        (rep, curve)
        for rep in config.representations
        for curve in sweep_levels(config.circuit, rep, config.sizes, config.levels, config.scale)
    ]
    files, sweeps = [], []
    for rep, curve in curves:
        name = f"curve_{config.circuit.family.value}_{_slug(rep)}_n{curve.level}.csv"
        rows = [
            (size, float(delta), abs(float(delta)), int(np.sign(delta)) or 1)
            for size, delta in zip(curve.sizes, curve.deltas)
        ]
        _write_csv(out / name, ["size", "delta", "abs_delta", "sign"], rows)
        files.append(name)
        sweeps.append(_sweep_entry(rep, curve.level, "full", len(curve.sizes)))
    if plot:
        _plot_script(out, files, _YLABELS[config.scale])
    return files, sweeps


_METRICS_HEADER = [
    "circuit", "rep_kind", "spacing_num", "spacing_den", "spacing_pi",
    "level", "R", "P", "P_sign", "saturated", "crossed_zero",
]


def _write_metrics(
    config: RunConfig, out: Path, levels: tuple[int, ...], name: str
) -> tuple[list[str], list[dict]]:
    threshold = config.threshold_GHz
    if config.scale is Scale.LC_SCALED:
        threshold /= energy_scale(config.circuit)
    rows, sweeps = [], []
    for rep in config.representations:
        kind, num, den, pi = _rep_columns(rep)
        for result in level_metrics(config.circuit, rep, config.sizes, levels, threshold, config.scale):
            record = result.record
            rows.append(
                (
                    config.circuit.family.value, kind, num, den, pi, result.level,
                    record.R, record.P, record.P_sign, record.saturated,
                    record.crossed_zero,
                )
            )
            sweeps.append(_sweep_entry(rep, result.level, result.path, result.sizes_solved))
    _write_csv(out / name, _METRICS_HEADER, rows)
    return [name], sweeps


def cmd_metrics(config: RunConfig, out: Path, plot: bool) -> tuple[list[str], list[dict]]:
    return _write_metrics(config, out, (config.levels[0],), "metrics.csv")


def cmd_levels(config: RunConfig, out: Path, plot: bool) -> tuple[list[str], list[dict]]:
    return _write_metrics(config, out, config.levels, "levels.csv")


def cmd_decompose(config: RunConfig, out: Path, plot: bool) -> tuple[list[str], list[dict]]:
    files = []
    dim = max(config.sizes)
    levels = max(config.levels) + 1
    for rep in config.representations:
        table = decompose(lowest_states(config.circuit, rep, dim, levels), levels, config.decompose_floor)
        name = f"decompose_{config.circuit.family.value}_{_slug(rep)}.csv"
        # row-major, as table.ravel(): level l, alpha a at entry l * dim + a
        level_column = [level for level in range(levels) for _ in range(dim)]
        rows = list(zip(level_column, list(range(dim)) * levels, table.ravel().tolist()))
        _write_csv(out / name, ["level", "alpha", "magnitude_sq_floored"], rows)
        files.append(name)
    return files, []


def cmd_shift(config: RunConfig, out: Path, plot: bool) -> tuple[list[str], list[dict]]:
    if config.circuit.family is not Family.FLUXONIUM:
        raise ConfigError("the shift command sweeps fluxonium flux; use a fluxonium circuit")
    phase_reps = [
        rep
        for rep in config.representations
        if isinstance(rep, DvrRep) and rep.kind.is_phase and rep.spacing is not None
    ]
    if not phase_reps:
        raise ConfigError("shift sweeps need at least one phase-DVR representation")
    files = []
    dim = max(config.sizes)
    for rep in phase_reps:
        rows = flux_sweep(
            config.circuit,
            rep,
            dim,
            config.shift_betas,
            config.shift_direction,
            rediagonalize=config.shift_rediagonalize,
        )
        name = f"shift_{_slug(rep)}.csv"
        _write_csv(out / name, ["A", "phi", "energy_GHz", "current_over_Ic"], rows)
        files.append(name)
    return files, []


COMMANDS = {
    "curve": cmd_curve,
    "metrics": cmd_metrics,
    "levels": cmd_levels,
    "decompose": cmd_decompose,
    "shift": cmd_shift,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvrcircuits",
        description="Convergence studies of superconducting-circuit representations",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--preset", choices=PRESETS, help="built-in run configuration")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility and ignored: runs are sequential (must be >= 1)",
    )
    parser.add_argument(
        "--emit-plot-script", action="store_true",
        help="write a gnuplot script next to the CSV data",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if (args.config is None) == (args.preset is None):
            raise ConfigError("exactly one of --config or --preset is required")
        config = load_config(args.config) if args.config else preset_config(args.preset)
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        start = time.monotonic()
        files, sweeps = COMMANDS[args.command](config, out, args.emit_plot_script)
        _write_manifest(out, args.command, config, time.monotonic() - start, files, sweeps)
    except (ConfigError, OSError) as exc:  # OSError: --out or a file in it cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
