import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvrcircuits.cli import (
    _METRICS_HEADER,
    COMMANDS,
    PRESETS,
    RunConfig,
    _rep_columns,
    _write_csv,
    config_from_dict,
    load_config,
    main,
    preset_config,
    rep_from_dict,
    rep_to_dict,
)
from dvrcircuits.circuits import CircuitSpec
from dvrcircuits.convergence import Scale, metrics, sweep_levels
from dvrcircuits.dvr import DvrKind, Spacing
from dvrcircuits.errors import ConfigError
from dvrcircuits.fdm import Boundary
from dvrcircuits.ho import LengthScale
from dvrcircuits.presets import CHARGE_LIMIT, FLUXONIUM_CIRCUIT, LC_CIRCUIT, TRANSMON_LIMIT
from dvrcircuits.spectra import DvrRep, FdRep, HoRep, charge_basis
from oracles import write_csv_by_rows


LC_CONFIG = {
    "circuit": {"family": "lc", "E_C": 1.0, "E_L": 1.0},
    "representations": [
        {"type": "dvr", "kind": "traditional_charge", "spacing": {"num": 1, "den": 4}},
        {"type": "dvr", "kind": "truncated_phase", "spacing": {"num": 1, "den": 4, "pi": True}},
    ],
    "sizes": {"largest": 41},
}


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# descriptors and config parsing


def test_rep_round_trip():
    for rep in (
        DvrRep(DvrKind.TRUNCATED_CHARGE, Spacing(1, 5)),
        DvrRep(DvrKind.TRUNCATED_PHASE, None),
        HoRep(LengthScale.PLASMA),
        FdRep(0.1, 2, Boundary.BOUNDED),
        FdRep(None, 1, Boundary.PERIODIC),
    ):
        assert rep_from_dict(rep_to_dict(rep)) == rep


def test_rep_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        rep_from_dict({"kind": "traditional_phase"})
    with pytest.raises(ConfigError):
        rep_from_dict({"type": "dvr", "kind": "diagonal"})
    with pytest.raises(ConfigError):
        rep_from_dict({"type": "spline"})


def test_config_requires_nonempty_representations():
    doc = dict(LC_CONFIG, representations=[])
    with pytest.raises(ConfigError, match="empty"):
        config_from_dict(doc)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config"):
        config_from_dict(dict(LC_CONFIG, color="red"))


def test_config_validates_compatibility():
    doc = {
        "circuit": {"family": "transmon", "E_C": 0.2, "E_J": 10.0, "N_g": 0.5},
        "representations": [
            {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 1, "den": 8, "pi": True}}
        ],
        "sizes": [3, 5],
    }
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_sizes_range_spec():
    config = config_from_dict(dict(LC_CONFIG, sizes={"largest": 9}))
    assert config.sizes == (3, 5, 7, 9)


_spacing = st.builds(Spacing, st.integers(1, 9), st.integers(1, 64), st.booleans())
_bounded_reps = st.one_of(
    st.builds(DvrRep, st.sampled_from(DvrKind), _spacing),
    st.builds(HoRep, st.sampled_from(LengthScale), st.integers(1, 2001)),
    st.builds(FdRep, st.floats(1e-3, 1.0), st.integers(1, 3), st.just(Boundary.BOUNDED)),
)
_periodic_reps = st.one_of(
    st.just(charge_basis()),
    st.just(DvrRep(DvrKind.TRUNCATED_PHASE, None)),
    st.builds(FdRep, st.none(), st.integers(1, 3), st.just(Boundary.PERIODIC)),
)
_random_configs = st.one_of(
    st.tuples(st.sampled_from([LC_CIRCUIT, FLUXONIUM_CIRCUIT]), st.lists(_bounded_reps, min_size=1, max_size=4)),
    st.tuples(st.sampled_from([TRANSMON_LIMIT, CHARGE_LIMIT]), st.lists(_periodic_reps, min_size=1, max_size=3)),
).flatmap(
    lambda pair: st.builds(
        RunConfig,
        st.just(pair[0]),
        st.just(tuple(pair[1])),
        st.lists(st.integers(1, 601), min_size=1, max_size=5).map(tuple),
        st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple),
        st.floats(1e-15, 1.0),
        st.sampled_from(Scale),
        st.floats(0.0, 1e-3),
        st.lists(st.integers(0, 8), max_size=4).map(tuple),
        st.sampled_from([-1, 1]),
        st.booleans(),
    )
)


@given(st.one_of(st.sampled_from(PRESETS).map(preset_config), _random_configs))
def test_config_round_trip(config):
    assert config_from_dict(config.to_dict()) == config


def test_presets_valid():
    for name in ("lc", "fluxonium", "transmon-tl", "transmon-cl"):
        config = preset_config(name)
        assert config.representations
    with pytest.raises(ConfigError):
        preset_config("squid")


# ---------------------------------------------------------------------------
# command execution


def test_curve_command_writes_deterministic_csv(tmp_path):
    cfg = _write_config(tmp_path, LC_CONFIG)
    out = tmp_path / "out"
    assert main(["curve", "--config", cfg, "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in files
    csvs = [f for f in files if f.endswith(".csv")]
    assert len(csvs) == 2
    first = (out / csvs[0]).read_text()
    assert first.splitlines()[0] == "size,delta,abs_delta,sign"
    # byte-identical rerun
    out2 = tmp_path / "out2"
    assert main(["curve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out2 / csvs[0]).read_text() == first


def test_metrics_command_schema_and_values(tmp_path):
    cfg = _write_config(tmp_path, LC_CONFIG)
    out = tmp_path / "m"
    assert main(["metrics", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == (
        "circuit,rep_kind,spacing_num,spacing_den,spacing_pi,level,"
        "R,P,P_sign,saturated,crossed_zero"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    charge_row = next(r for r in rows if r[1] == "traditional_charge")
    assert charge_row[0] == "lc"
    assert charge_row[6] == "19"  # R for dN = 1/4 in the LC preset threshold


def test_levels_command(tmp_path):
    doc = dict(LC_CONFIG, levels=[0, 1])
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "l"
    assert main(["levels", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "levels.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 reps * 2 levels


def test_decompose_command(tmp_path):
    doc = {
        "circuit": {"family": "fluxonium", "E_C": 2.5, "E_L": 0.5, "E_J": 10.0, "A": 0.5},
        "representations": [
            {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 5, "den": 32, "pi": True}}
        ],
        "sizes": [41],
        "levels": [0, 1],
        "decompose_floor": 1e-16,
    }
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "d"
    assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
    lines = [f for f in out.iterdir() if f.name.startswith("decompose")][0].read_text().splitlines()
    assert lines[0] == "level,alpha,magnitude_sq_floored"
    values = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert len(values) == 2 * 41
    assert values.min() >= 1e-16
    assert np.isclose(values[:41].sum(), 1.0, atol=1e-9)


def test_shift_command(tmp_path):
    doc = {
        "circuit": {"family": "fluxonium", "E_C": 2.5, "E_L": 0.5, "E_J": 10.0, "A": 0.5},
        "representations": [
            {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 1, "den": 8, "pi": True}}
        ],
        "sizes": [41],
        "shift_betas": [0, 8],
    }
    cfg = _write_config(tmp_path, doc)
    out = tmp_path / "s"
    assert main(["shift", "--config", cfg, "--out", str(out)]) == 0
    lines = [f for f in out.iterdir() if f.name.startswith("shift")][0].read_text().splitlines()
    assert lines[0] == "A,phi,energy_GHz,current_over_Ic"
    assert len(lines) == 1 + 101 * 2


@pytest.mark.parametrize("field, value", [("shift_direction", 0), ("shift_betas", [-3])])
@pytest.mark.parametrize("command", ["curve", "metrics", "levels", "decompose", "shift"])
def test_every_command_rejects_a_bad_shift_field(tmp_path, command, field, value):
    doc = {
        "circuit": {"family": "fluxonium", "E_C": 2.5, "E_L": 0.5, "E_J": 10.0, "A": 0.5},
        "representations": [
            {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 1, "den": 8, "pi": True}}
        ],
        "sizes": [21],
        field: value,
    }
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_shift_command_rediagonalize(tmp_path):
    doc = {
        "circuit": {"family": "fluxonium", "E_C": 2.5, "E_L": 0.5, "E_J": 10.0, "A": 0.5},
        "representations": [
            {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 1, "den": 8, "pi": True}}
        ],
        "sizes": [21],
        "shift_betas": [0],
        "shift_rediagonalize": True,
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["shift", "--config", cfg, "--out", str(tmp_path / "s")]) == 0


def test_manifest_contents(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = _write_config(tmp_path, LC_CONFIG)
    out = tmp_path / "out"
    main(["curve", "--config", cfg, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "curve"
    assert len(manifest["config_sha256"]) == 64
    assert "numpy" in manifest["versions"]
    assert manifest["wall_time_s"] >= 0.0
    assert all(name.endswith(".csv") for name in manifest["files"])
    threads = manifest["thread_env"]
    assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert threads["OPENBLAS_NUM_THREADS"] == "1"
    assert threads["MKL_NUM_THREADS"] is None


MIXED_CONFIG = {
    "circuit": FLUXONIUM_CIRCUIT.to_dict(),
    "representations": [
        {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 7, "den": 32, "pi": True}},
        {"type": "dvr", "kind": "truncated_phase", "spacing": {"num": 7, "den": 32, "pi": True}},
        {"type": "dvr", "kind": "traditional_charge", "spacing": {"num": 1, "den": 12}},
        {"type": "ho", "scale": "lc"},
    ],
    "sizes": {"largest": 101},
    "levels": [0, 1, 2],
}


@pytest.mark.parametrize("command, csv", [("metrics", "metrics.csv"), ("levels", "levels.csv")])
def test_metrics_csvs_equal_those_of_the_full_sweeps(tmp_path, command, csv):
    config = config_from_dict(MIXED_CONFIG)
    levels = config.levels if command == "levels" else config.levels[:1]
    rows, sweeps = [], []
    for rep in config.representations:
        for curve in sweep_levels(config.circuit, rep, config.sizes, levels):
            record = metrics(curve)
            rows.append(
                ("fluxonium", *_rep_columns(rep), curve.level, record.R, record.P,
                 record.P_sign, record.saturated, record.crossed_zero)
            )
            sweeps.append((rep.label, curve.level, len(curve.sizes)))
    _write_csv(tmp_path / "want.csv", _METRICS_HEADER, rows)
    out = tmp_path / "out"
    assert main([command, "--config", _write_config(tmp_path, MIXED_CONFIG), "--out", str(out)]) == 0
    assert (out / csv).read_bytes() == (tmp_path / "want.csv").read_bytes()
    entries = json.loads((out / "manifest.json").read_text())["sweeps"]
    assert [(e["representation"], e["level"]) for e in entries] == [s[:2] for s in sweeps]
    for entry, (label, _, count) in zip(entries, sweeps):
        if label.startswith("truncated"):
            assert entry["path"] == "full"
        if entry["path"] == "full":
            assert entry["sizes_solved"] == count
        else:
            assert entry["path"] == "bisected" and entry["sizes_solved"] < count
    assert {e["path"] for e in entries} == {"bisected", "full"}


def test_manifest_records_the_path_of_every_curve(tmp_path):
    cfg = _write_config(tmp_path, dict(LC_CONFIG, levels=[0, 1]))
    for command in ("curve", "decompose"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        entries = json.loads((out / "manifest.json").read_text())["sweeps"]
        if command == "decompose":
            assert entries == []
            continue
        assert [(e["level"], e["path"], e["sizes_solved"]) for e in entries] == [
            (0, "full", 20), (1, "full", 20), (0, "full", 20), (1, "full", 20)
        ]


def test_plot_script_emission(tmp_path):
    cfg = _write_config(tmp_path, LC_CONFIG)
    out = tmp_path / "out"
    main(["curve", "--config", cfg, "--out", str(out), "--emit-plot-script"])
    script = (out / "plot.gp").read_text()
    assert "set logscale y" in script
    assert ".csv" in script


@pytest.mark.parametrize(
    "scale, label", [("absolute", "|Delta| (GHz)"), ("lc_scaled", "|Delta| / sqrt(8 E_C E_L)")]
)
def test_plot_script_labels_the_scale_of_the_curves(tmp_path, scale, label):
    doc = dict(LC_CONFIG, representations=LC_CONFIG["representations"][:1], sizes={"largest": 21}, scale=scale)
    out = tmp_path / "out"
    assert main(["curve", "--config", _write_config(tmp_path, doc), "--out", str(out), "--emit-plot-script"]) == 0
    assert f"set ylabel '{label}'" in (out / "plot.gp").read_text().splitlines()


def test_exit_code_on_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["metrics", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    missing = str(tmp_path / "absent.json")
    assert main(["metrics", "--config", missing, "--out", str(tmp_path / "x")]) == 2
    cfg = _write_config(tmp_path, dict(LC_CONFIG, representations=[]))
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    # no files written on validation failure
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale", "bogus"),
        ("sizes", {"largest": 21, "stride": 0}),
        ("levels", ["x"]),
        ("threshold_GHz", "abc"),
    ],
    ids=["scale", "stride", "levels", "threshold"],
)
def test_malformed_config_value_exits_2(tmp_path, field, value):
    cfg = _write_config(tmp_path, dict(LC_CONFIG, **{field: value}))
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("threshold_GHz", "1e-3"),
        ("threshold_GHz", True),
        ("threshold_GHz", float("inf")),
        ("threshold_GHz", float("nan")),
        ("threshold_GHz", 0),
        ("decompose_floor", True),
        ("decompose_floor", -1.0),
        ("decompose_floor", float("nan")),
        ("decompose_floor", float("inf")),
        ("decompose_floor", "0"),
    ],
)
def test_float_fields_must_be_finite_json_numbers(tmp_path, field, value):
    # json.dumps writes inf and nan as the JSON extensions Infinity and NaN
    cfg = _write_config(tmp_path, dict(LC_CONFIG, **{field: value}))
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_float_fields_accept_json_integers(tmp_path):
    config = config_from_dict(dict(LC_CONFIG, threshold_GHz=1, decompose_floor=0))
    assert config.threshold_GHz == 1.0 and config.decompose_floor == 0.0


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
@pytest.mark.parametrize("field", ["pi", "shift_rediagonalize"])
def test_booleans_must_be_json_booleans(tmp_path, field, value):
    doc = json.loads(json.dumps(LC_CONFIG))
    if field == "pi":
        doc["representations"][0]["spacing"]["pi"] = value
    else:
        doc[field] = value
    cfg = _write_config(tmp_path, doc)
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


_FD_CONFIG = dict(LC_CONFIG, representations=[{"type": "fd", "spacing": 0.1, "order_M": 1}])
_HO_CONFIG = dict(LC_CONFIG, representations=[{"type": "ho", "scale": "lc", "embed_dim": 101}])


@pytest.mark.parametrize("value", [4.9, 4.0, True, "4"])
@pytest.mark.parametrize(
    "doc, path",
    [
        (LC_CONFIG, ("representations", 0, "spacing", "den")),
        (LC_CONFIG, ("representations", 0, "spacing", "num")),
        (LC_CONFIG, ("sizes", "largest")),
        (dict(LC_CONFIG, sizes={"largest": 41, "stride": 1}), ("sizes", "stride")),
        (dict(LC_CONFIG, sizes=[21, 31, 41, 51, 61]), ("sizes", 0)),
        (dict(LC_CONFIG, levels=[0, 1]), ("levels", 1)),
        (_HO_CONFIG, ("representations", 0, "embed_dim")),
        (_FD_CONFIG, ("representations", 0, "order_M")),
        (LC_CONFIG, ("shift_betas",)),
        (LC_CONFIG, ("shift_direction",)),
    ],
    ids=["den", "num", "largest", "stride", "size", "level", "embed_dim", "order_M",
         "shift_betas", "shift_direction"],
)
def test_integer_fields_must_be_json_integers(tmp_path, doc, path, value):
    doc = json.loads(json.dumps(doc))
    _set(doc, path, [0, value] if path == ("shift_betas",) else value)
    cfg = _write_config(tmp_path, doc)
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("spacing", ["inf", "0.1", 1e300, 1e-200, float("inf"), float("nan"), 0, -0.1, True,
                                     10 ** 400, {"num": 10 ** 400, "den": 1, "pi": True}])
def test_fd_spacing_must_be_a_finite_positive_number(tmp_path, spacing):
    doc = json.loads(json.dumps(_FD_CONFIG))
    doc["representations"][0]["spacing"] = spacing
    cfg = _write_config(tmp_path, doc)
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "circuit, spacing",
    [
        (LC_CONFIG["circuit"], {"num": 1, "den": 10 ** 166, "pi": True}),
        (LC_CONFIG["circuit"], {"num": 10 ** 167, "den": 1, "pi": True}),
        ({"family": "lc", "E_C": 1e307, "E_L": 1e307}, {"num": 1, "den": 3, "pi": True}),
    ],
    ids=["conjugate-bound-overflows", "grid-overflows", "sum-overflows"],
)
@pytest.mark.parametrize("command", ["metrics", "decompose"])
def test_dvr_hamiltonian_must_be_finite(tmp_path, command, circuit, spacing):
    # N^2 overflows at a tiny spacing and theta^2 at a huge one; in the last
    # case every term is finite but their sum is not.  Each is a configuration
    # error on the full-matrix route (decompose) and on the parity-block route
    # (metrics) alike.
    doc = dict(LC_CONFIG, circuit=circuit, sizes={"largest": 11},
               representations=[{"type": "dvr", "kind": "traditional_phase", "spacing": spacing}])
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "circuit, largest",
    [
        ({"family": "lc", "E_C": 1e300, "E_L": 1e-300}, 11),  # theta0 = inf
        ({"family": "lc", "E_C": 1e307, "E_L": 1e307}, 101),  # 4 E_C N^2 overflows
    ],
    ids=["theta0-overflows", "kinetic-overflows"],
)
@pytest.mark.parametrize("command", ["metrics", "decompose"])
def test_ho_hamiltonian_must_be_finite(tmp_path, command, circuit, largest):
    doc = dict(_HO_CONFIG, circuit=circuit, sizes={"largest": largest})
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2


FLUXONIUM_CONFIG = {
    "circuit": FLUXONIUM_CIRCUIT.to_dict(),
    "representations": [
        {"type": "dvr", "kind": "traditional_phase", "spacing": {"num": 1, "den": 8, "pi": True}},
    ],
    "sizes": {"largest": 21},
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("A", "0.5"),
        ("A", float("nan")),
        ("A", True),
        ("E_L", float("inf")),
    ],
)
@pytest.mark.parametrize("command", ["metrics", "shift"])
def test_circuit_parameters_must_be_finite_real_numbers(tmp_path, command, field, value):
    doc = dict(FLUXONIUM_CONFIG, circuit=dict(FLUXONIUM_CONFIG["circuit"], **{field: value}))
    cfg = _write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_threads_flag_is_validated_and_changes_nothing(tmp_path):
    cfg = _write_config(tmp_path, LC_CONFIG)
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "x"), "--threads", "0"]) == 2
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["levels", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
        outputs.append((out / "levels.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_a_level_beyond_the_reference_oracle_exits_2(tmp_path, capsys):
    # level 70 fits the largest size, but the transmon oracle holds 64 levels
    doc = dict(preset_config("transmon-tl").to_dict(), sizes={"largest": 101}, levels=[70],
               representations=[rep_to_dict(charge_basis())])
    cfg = _write_config(tmp_path, doc)
    assert main(["levels", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "holds 64 levels" in capsys.readouterr().err


def test_an_unwritable_output_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(LC_CONFIG, sizes={"largest": 11}))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert main(["metrics", "--config", cfg, "--out", str(a_file)]) == 2
    assert "File exists" in capsys.readouterr().err
    # a CSV that cannot be written: its name is taken by a directory
    (tmp_path / "out" / "metrics.csv").mkdir(parents=True)
    assert main(["metrics", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "metrics.csv" in capsys.readouterr().err


def test_exactly_one_source_of_config(tmp_path):
    cfg = _write_config(tmp_path, LC_CONFIG)
    assert main(["metrics"]) == 2
    assert main(["metrics", "--config", cfg, "--preset", "lc"]) == 2


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_preset_runs_every_command(tmp_path, preset, command):
    doc = dict(preset_config(preset).to_dict(), sizes={"largest": 21})
    cfg = _write_config(tmp_path, doc)
    # shift sweeps fluxonium flux; every other pairing must succeed
    expected = 2 if command == "shift" and preset != "fluxonium" else 0
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == expected


_CSV_CASES = {
    "header only": (["a", "b"], []),
    "bool none int": (["flag", "empty", "n"], [(True, None, 3), (False, None, -7)]),
    "numpy scalars": (["x", "n"], [(np.float64(0.1), np.int64(5)), (np.float64(-2.5e-310), np.int64(-1))]),
    "special floats": (["x"], [(math.nan,), (math.inf,), (-math.inf,), (-0.0,), (5e-324,), (1e300,)]),
    "float and numpy float": (["x"], [(0.1,), (np.float64(1 / 3),)]),
    "mixed column": (["v"], [(1.5,), (2,), (True,), (None,), ("",), (np.float64(3.0),), ("d",), (np.int64(4),)]),
    "int and bool": (["v"], [(1,), (True,), (0,)]),
}


@pytest.mark.parametrize("header, rows", _CSV_CASES.values(), ids=_CSV_CASES.keys())
def test_column_writer_equals_the_row_writer(tmp_path, header, rows):
    _write_csv(tmp_path / "got.csv", header, rows)
    write_csv_by_rows(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
