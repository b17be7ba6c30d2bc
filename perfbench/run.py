"""Benchmark entry point: runs a workload in fresh processes and reports it.

    python3 perfbench/run.py --workload fluxonium-metrics --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 it reports the end-to-end metrics (study_s, points_per_s,
setup_s, peak_rss_mb) and error_rate; with --trace 1 the per-layer metrics
of a traced run, including the tracing overhead.  Each metric is printed by
name with its unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from env import HERE, OUT, ROOT, has_package, pinned_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh processes besides the study process.
SETUP_PROBES = 4
# Every process of one workload ends within this many seconds.
BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        result = _worker(args + ["--trace"], deadline)
        metrics = result["layers"]
    else:
        setups = [_worker(args + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker(args, deadline)
        setups.append(result["setup_s"])
        study_s = statistics.median(result["pass_s"])
        metrics = {
            "study_s": _metric(study_s, "s"),
            "points_per_s": _metric(result["points"] / study_s, "1/s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
        result["setup_samples_s"] = setups
    result["metrics"] = metrics
    (OUT / name / f"result-trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: error_rate = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} outputs mismatched or failed)")


def main() -> int:
    parser = argparse.ArgumentParser(description="dvrcircuits benchmark")
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not has_package():
        print(f"perfbench: {ROOT} holds no src/dvrcircuits; run it from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("env", json.dumps(next(iter(results.values()))["env"], sort_keys=True))
    for name, result in results.items():
        report(name, result)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
