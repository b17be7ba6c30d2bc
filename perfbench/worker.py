"""One workload in one fresh process: set-up, timed CLI passes, golden check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

run.py starts it with the BLAS/OpenMP thread variables pinned to 1 and the
checkout's src/ on PYTHONPATH.  Set-up is the import of the package plus
the oracles and HO embeddings the workload uses, built through public calls.
A pass is the workload's CLI calls through ``dvrcircuits.cli.main``; passes
repeat until the time is used.  With --trace, untraced and traced passes
alternate, and the per-layer metrics come from the traced ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
from env import OUT, SRC, record  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import FLUXONIUM, WORKLOADS, size_count  # noqa: E402


def set_up(workload, before_build=None) -> float:
    """Import the package and build what the workload's passes reuse."""
    import dvrcircuits.cli

    if not dvrcircuits.cli.__file__.startswith(str(SRC)):
        raise SystemExit(f"dvrcircuits imported from {dvrcircuits.cli.__file__}, not {SRC}")
    if before_build is not None:
        before_build()
    # imported after before_build, so that the names may be wrapped ones
    from dvrcircuits import CircuitSpec, HoRep, LengthScale, assemble, reference_energy

    for circuit, levels in workload.oracles:
        spec = CircuitSpec.from_dict(circuit)
        for level in levels:
            reference_energy(spec, level)
    for scale in workload.embeddings:
        assemble(CircuitSpec.from_dict(FLUXONIUM), HoRep(LengthScale(scale)), 3)
    return time.perf_counter() - T0


class Study:
    """The CLI calls of one pass, their output directories and their checks."""

    def __init__(self, workload, seed: int):
        self.golden = check.load(workload.name)
        self.calls = workload.pass_calls(seed)
        root = OUT / workload.name
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        self.root = root
        self.dirs = []
        for i, (command, name, config) in enumerate(self.calls):
            path = root / f"call{i}-{command}-{name}.json"
            path.write_text(json.dumps(config, indent=1))
            self.dirs.append((path, root / f"call{i}-{command}-{name}"))
        self.attempted = self.failed = 0
        self.points = self.output_bytes = self.minor_faults = 0

    def run_pass(self) -> float:
        """Run every call once; returns the wall time spent inside the CLI."""
        from dvrcircuits import cli

        study = 0.0
        self.points = self.output_bytes = self.minor_faults = 0
        for (command, name, config), (path, out) in zip(self.calls, self.dirs):
            shutil.rmtree(out, ignore_errors=True)
            argv = [command, "--config", str(path), "--out", str(out), "--threads", "1"]
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed output, not a failed benchmark
                traceback.print_exc(file=sys.stderr)
                code = 1
            study += time.perf_counter() - start
            self.minor_faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            attempted, failed = check.check_call(command, name, config, out, self.golden)
            if code != 0:
                print(f"{command} {name} exited {code}", file=sys.stderr)
                failed = attempted
            self.attempted += attempted
            self.failed += failed
            # sweeps deliver one energy per (rep, level, d); decompose and shift one per output
            sizes = size_count(config["sizes"]) if command in ("metrics", "levels") else 1
            self.points += attempted * sizes
            if out.is_dir():
                self.output_bytes += sum(p.stat().st_size for p in out.iterdir())
        return study


def timed_passes(run_pass, seconds: float, min_passes: int) -> list[float]:
    """Call ``run_pass`` until another call would overrun ``seconds``."""
    times = []
    start = time.perf_counter()
    while True:
        times.append(run_pass())
        elapsed = time.perf_counter() - start
        if len(times) >= min_passes and elapsed + statistics.median(times) > seconds:
            return times


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    recorder = Recorder()
    set_up(workload, before_build=lambda: recorder.install(layers.targets()))
    setup_end = len(recorder.spans)
    recorder.uninstall()
    study = Study(workload, seed)
    untraced, per_pass = [], []

    def pair() -> float:
        start = time.perf_counter()
        untraced.append(study.run_pass())
        lo = len(recorder.spans)
        recorder.install(layers.targets())
        try:
            study.run_pass()
        finally:
            recorder.uninstall()
        per_pass.append(layers.pass_metrics(recorder.spans, lo, len(recorder.spans), study))
        return time.perf_counter() - start

    timed_passes(pair, seconds, 2)
    recorder.write(study.root / "spans.csv")
    return {
        "layers": layers.combine(per_pass, layers.setup_metrics(recorder.spans, setup_end),
                                 statistics.median(untraced)),
        "attempted": study.attempted,
        "failed": study.failed,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        result = {"setup_s": set_up(workload)}
    elif args.trace:
        result = traced_run(workload, args.seed, args.seconds)
    else:
        setup_s = set_up(workload)
        study = Study(workload, args.seed)
        pass_s = timed_passes(study.run_pass, args.seconds, 3)
        result = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "points": study.points,
            "attempted": study.attempted,
            "failed": study.failed,
        }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = record()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
