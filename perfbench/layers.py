"""Which public functions the traced run wraps, and the per-layer metrics.

Layers are named by module.  Times are inclusive of wrapped callees unless
the metric name ends in ``_self_s``.  Study-phase metrics are per pass (the
median over traced passes); ``spectra.reference_first_s`` and
``ho.cos_in_ho_s`` also count set-up, where the oracles and HO embeddings
are built.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import ATTRS, NAME, PARENT, duration, self_time


def _matrix_attrs(args, result):
    h = result.entries
    scale = max(float(np.abs(h).max(initial=0.0)), 1.0)
    # The solver takes the complex path only when the imaginary part is not
    # numerically zero (the same test spectra applies before LAPACK).
    complex_solve = bool(np.iscomplexobj(h) and np.abs(h.imag).max(initial=0.0) > 1e-14 * scale)
    return h.shape[0], h.nbytes, bool(np.iscomplexobj(h)), complex_solve


def _spec_key(args, result):
    return repr(args[0]) if args else None


def targets():
    """(span name, owner, attribute, attrs) for every wrapped function."""
    from dvrcircuits import cli, convergence, dvr, fdm, ho, spectra, states

    return [
        ("cli.main", cli, "main", None),
        ("convergence.sweep", convergence, "sweep", None),
        ("convergence.metrics", convergence, "metrics", None),
        ("spectra.assemble", spectra, "assemble", _matrix_attrs),
        ("spectra.eigenvalues", spectra, "eigenvalues", None),
        ("spectra.eigensolve", spectra, "eigensolve", None),
        ("spectra.reference_energy", spectra, "reference_energy", _spec_key),
        ("ho.cos_in_ho", ho, "cos_in_ho", None),
        ("dvr.operator_check", dvr.OperatorMatrix, "__post_init__", None),
        ("dvr.conj_moment_traditional", dvr, "conj_moment_traditional", None),
        ("dvr.conj_moment_truncated", dvr, "conj_moment_truncated", None),
        ("dvr.conj_function_truncated", dvr, "conj_function_truncated", None),
        ("dvr.cosine_in_charge", dvr, "cosine_in_charge", None),
        ("dvr.diag_of_discretized", dvr, "diag_of_discretized", None),
        ("fdm.fd_hamiltonian", fdm, "fd_hamiltonian", None),
        ("states.flux_sweep", states, "flux_sweep", None),
        ("states.expectation", states, "expectation", None),
        ("states.apply_shift", states, "apply_shift", None),
        ("states.decompose", states, "decompose", None),
    ]


# name -> unit, in the order they are reported
UNITS = {
    "spectra.assemble_calls": "count",
    "spectra.assemble_s": "s",
    "spectra.assemble_self_s": "s",
    "spectra.assemble_bytes": "B",
    "spectra.assemble_complex_share": "fraction",
    "convergence.points_per_assemble": "count",
    "spectra.eig_calls": "count",
    "spectra.eig_self_s": "s",
    "spectra.eig_flops": "flop",
    "spectra.levels_per_eig": "count",
    "spectra.eigensolve_calls": "count",
    "spectra.eigensolve_s": "s",
    "spectra.reference_calls": "count",
    "spectra.reference_s": "s",
    "spectra.reference_first_s": "s",
    "ho.cos_in_ho_s": "s",
    "dvr.operator_checks": "count",
    "dvr.operator_check_s": "s",
    "dvr.conj_traditional_s": "s",
    "dvr.conj_truncated_s": "s",
    "dvr.cosine_in_charge_s": "s",
    "dvr.diag_s": "s",
    "fdm.fd_hamiltonian_s": "s",
    "convergence.sweep_calls": "count",
    "convergence.sweep_self_s": "s",
    "convergence.metrics_s": "s",
    "states.flux_sweep_s": "s",
    "states.expectation_calls": "count",
    "states.expectation_s": "s",
    "states.apply_shift_s": "s",
    "states.decompose_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "process.minor_faults": "count",
    "share.assemble": "fraction",
    "share.eig": "fraction",
    "share.operator_check": "fraction",
    "trace.spans": "count",
    "trace.study_s": "s",
    "trace.untraced_study_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list, lo: int, hi: int, study) -> dict:
    """Per-layer metrics of the spans [lo, hi) recorded during one pass of ``study``."""
    by = defaultdict(list)
    for i in range(lo, hi):
        by[spans[i][NAME]].append(i)

    def count(name):
        return len(by[name])

    def total(name):
        return sum(duration(spans[i]) for i in by[name])

    def own(*names):
        return sum(self_time(spans[i]) for name in names for i in by[name])

    # a call that raised has no attributes; its outputs count as failed elsewhere
    assembles = [spans[i] for i in by["spectra.assemble"] if spans[i][ATTRS] is not None]
    eig_spans = set(by["spectra.eigenvalues"])
    flops = sum(
        4.0 / 3.0 * s[ATTRS][0] ** 3 * (4 if s[ATTRS][3] else 1)
        for s in assembles
        if s[PARENT] in eig_spans
    )
    study_s = total("cli.main")
    m = {
        "spectra.assemble_calls": count("spectra.assemble"),
        "spectra.assemble_s": total("spectra.assemble"),
        "spectra.assemble_self_s": own("spectra.assemble"),
        "spectra.assemble_bytes": sum(s[ATTRS][1] for s in assembles),
        "spectra.assemble_complex_share": _ratio(sum(s[ATTRS][2] for s in assembles), len(assembles)),
        "convergence.points_per_assemble": _ratio(study.points, len(assembles)),
        "spectra.eig_calls": count("spectra.eigenvalues"),
        "spectra.eig_self_s": own("spectra.eigenvalues"),
        "spectra.eig_flops": flops,
        "spectra.levels_per_eig": _ratio(study.points, count("spectra.eigenvalues")),
        "spectra.eigensolve_calls": count("spectra.eigensolve"),
        "spectra.eigensolve_s": total("spectra.eigensolve"),
        "spectra.reference_calls": count("spectra.reference_energy"),
        "spectra.reference_s": total("spectra.reference_energy"),
        "ho.cos_in_ho_s": total("ho.cos_in_ho"),
        "dvr.operator_checks": count("dvr.operator_check"),
        "dvr.operator_check_s": total("dvr.operator_check"),
        "dvr.conj_traditional_s": total("dvr.conj_moment_traditional"),
        # conj_moment_truncated delegates to conj_function_truncated
        "dvr.conj_truncated_s": own("dvr.conj_moment_truncated") + total("dvr.conj_function_truncated"),
        "dvr.cosine_in_charge_s": total("dvr.cosine_in_charge"),
        "dvr.diag_s": total("dvr.diag_of_discretized"),
        "fdm.fd_hamiltonian_s": total("fdm.fd_hamiltonian"),
        "convergence.sweep_calls": count("convergence.sweep"),
        "convergence.sweep_self_s": own("convergence.sweep"),
        "convergence.metrics_s": total("convergence.metrics"),
        "states.flux_sweep_s": total("states.flux_sweep"),
        "states.expectation_calls": count("states.expectation"),
        "states.expectation_s": total("states.expectation"),
        "states.apply_shift_s": total("states.apply_shift"),
        "states.decompose_s": total("states.decompose"),
        "cli.self_s": own("cli.main"),
        "cli.output_bytes": study.output_bytes,
        "process.minor_faults": study.minor_faults,
        "share.assemble": _ratio(total("spectra.assemble"), study_s),
        "share.eig": _ratio(own("spectra.eigenvalues") + total("spectra.eigensolve"), study_s),
        "share.operator_check": _ratio(total("dvr.operator_check"), study_s),
        "trace.spans": hi - lo,
        "trace.study_s": study_s,
    }
    return m


def setup_metrics(spans: list, hi: int) -> dict:
    """Oracle and embedding build times among the set-up spans [0, hi)."""
    first, cos_s = {}, 0.0
    for s in spans[:hi]:
        if s[NAME] == "spectra.reference_energy":
            first.setdefault(s[ATTRS], duration(s))
        elif s[NAME] == "ho.cos_in_ho":
            cos_s += duration(s)
    return {"spectra.reference_first_s": sum(first.values()), "ho.cos_in_ho_s": cos_s}


def combine(per_pass: list[dict], setup: dict, untraced_study_s: float) -> dict:
    """Median over traced passes, plus set-up figures and the tracing overhead."""
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["spectra.reference_first_s"] = setup["spectra.reference_first_s"]
    out["ho.cos_in_ho_s"] = setup["ho.cos_in_ho_s"] + out["ho.cos_in_ho_s"]
    out["trace.untraced_study_s"] = untraced_study_s
    out["trace.overhead_s"] = out["trace.study_s"] - untraced_study_s
    return {name: {"value": out[name], "unit": unit} for name, unit in UNITS.items()}
