"""The repo benchmark: run one workload, check its answer, print its metrics.

Timed run (what ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload paper-headline --seed 3 --seconds 10 --trace 0

Each run of the workload happens in a fresh interpreter
(``perfbench/workload.py``) whose ``PYTHONHASHSEED`` is ``--seed`` (mod 2**32); runs
repeat until ``--seconds`` have passed (at least one).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once under the layer trace (``perfbench/layers.py``) and
reports the per-layer metrics plus the trace overhead.  Every run is
checked: answer checks, answer digest and exact work counters against
``perfbench/expected.json``, and (traced) layer coverage.  A failed check
counts the run as failed.  The last stdout line is the JSON result.

Self-check (untimed; compares two hash seeds with each other and with
``expected.json``, or rewrites it with ``--record``)::

    python3 perfbench/run.py --self-check [--workload NAME] [--record]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("paper-headline", "measured-track", "paper-track-w2")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "mean_cluster_size": "ASes",
    "recall": "share",
    "precision": "share",
}

#: Hash seeds the self-check compares.
SELF_CHECK_SEEDS = (0, 7)

#: Largest share of the traced run_s the layer times may leave unaccounted.
COVERAGE_BOUND = 0.05

#: Metrics that must be non-zero (the layer fires) / zero (it does no
#: work) on each workload.
FIRES = {
    "paper-headline": (
        "engine.busy_s", "compliance.calls", "cluster.calls", "scheduler.busy_s",
    ),
    "measured-track": (
        "engine.busy_s", "measure.busy_s", "measure.traceroutes",
        "measure.gap_index_entries", "impute.busy_s", "cluster.calls",
        "attribute.solve_s", "attribute.rows",
    ),
    "paper-track-w2": (
        "engine.busy_s", "pool.queue_wait_s", "pool.outcome_bytes",
        "cluster.calls", "attribute.solve_s", "attribute.rows",
    ),
}
SILENT = {
    "paper-headline": (
        "measure.busy_s", "measure.traceroute_s", "measure.traceroutes",
        "impute.busy_s", "pool.queue_wait_s", "pool.outcome_bytes",
        "attribute.build_s", "attribute.solve_s", "attribute.rows",
    ),
    "measured-track": (
        "compliance.calls", "compliance.busy_s", "scheduler.busy_s",
        "pool.queue_wait_s", "pool.outcome_bytes",
    ),
    "paper-track-w2": (
        "compliance.calls", "compliance.busy_s", "scheduler.busy_s",
        "measure.busy_s", "measure.traceroutes", "impute.busy_s",
    ),
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


def spawn(workload: str, traced: bool, hash_seed: int) -> Dict:
    """One run of ``workload`` in a fresh interpreter; its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--trace", "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=170,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: timed out after {exc.timeout}s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected() -> Dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def check(result: Dict, expected: Dict) -> List[str]:
    """Every failed check of one run (empty when the run is correct)."""
    failures = list(result["failures"])
    want = expected[result["workload"]]
    if result["digest"] != want["digest"]:
        failures.append(f"answer digest {result['digest']} != {want['digest']}")
    for name, value in result["counters"].items():
        if want["counters"].get(name) != value:
            failures.append(f"counter {name} = {value}, expected {want['counters'].get(name)}")
    layers = result["layers"]
    if layers is not None:
        gap = abs(layers["trace.accounted_s"] - layers["trace.run_s"])
        if gap > COVERAGE_BOUND * layers["trace.run_s"]:
            failures.append(f"trace coverage: {gap:.3f}s of run_s unaccounted")
        workload = result["workload"]
        failures += [f"layer {m} read zero" for m in FIRES[workload] if not layers[m]]
        failures += [f"layer {m} fired" for m in SILENT[workload] if layers[m]]
    return failures


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    """Repeat runs for ``seconds``; medians of the metrics and check counts."""
    expected = load_expected()
    runs: List[Dict] = []
    overheads: List[float] = []
    failed = 0
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        result = spawn(workload, False, seed)
        failures = check(result, expected)
        if traced:
            plain = result
            result = spawn(workload, True, seed)
            failures += check(result, expected)
            overheads.append(result["run_s"] - plain["run_s"])
        for failure in failures:
            print(f"FAILED {workload}: {failure}")
        failed += bool(failures)
        runs.append(result)

    if traced:
        metrics = {
            name: statistics.median(run["layers"][name] for run in runs)
            for name in runs[0]["layers"]
            if name != "trace.accounted_s"
        }
        metrics["trace.overhead_s"] = statistics.median(overheads)
    else:
        metrics = {
            name: statistics.median(run[name] for run in runs)
            for name in END_TO_END
            if name != "setup_s"
        }
        metrics["setup_s"] = statistics.median(
            value for run in runs for value in run["setup_s"]
        )
    return {"runs": runs, "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name == "pool.outcome_bytes":
        return "B"
    if name == "attribute.residual":
        return "volume"
    return "count"


def self_check(workloads, record: bool) -> int:
    """Outputs and counters must not depend on the hash seed."""
    expected = {} if record else load_expected()
    status = 0
    for workload in workloads:
        results = [spawn(workload, True, seed) for seed in SELF_CHECK_SEEDS]
        first, second = results
        problems = [f for result in results for f in result["failures"]]
        if first["digest"] != second["digest"]:
            problems.append("answer digest differs between hash seeds")
        if first["counters"] != second["counters"]:
            problems.append(
                f"counters differ between hash seeds: {first['counters']} vs {second['counters']}"
            )
        if record:
            expected[workload] = {"digest": first["digest"], "counters": first["counters"]}
        else:
            problems += [f"hash seed {r['hash_seed']}: {f}" for r in results for f in check(r, expected)]
        for problem in problems:
            print(f"FAILED {workload}: {problem}")
        status |= bool(problems)
        print(
            f"{workload}: hash seeds {SELF_CHECK_SEEDS} -> "
            f"{'identical' if not problems else 'MISMATCH'}; run_s "
            + " / ".join(f"{r['run_s']:.2f}" for r in results)
        )
    if record and not status:
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the runs' PYTHONHASHSEED (mod 2**32)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="with --self-check: rewrite expected.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "EXPERIMENTS.md").is_file():
        print(f"no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    hash_seed = args.seed % 2**32  # the range PYTHONHASHSEED accepts
    try:
        if args.self_check:
            return self_check([args.workload] if args.workload else WORKLOADS, args.record)
        if args.workload is None:
            parser.error("--workload is required")
        outcome = measure(args.workload, hash_seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    runs = outcome["runs"]
    print(f"# {args.workload}: {len(runs)} run(s), PYTHONHASHSEED={hash_seed}, "
          f"trace={args.trace}")
    metrics = outcome["metrics"]
    for name in sorted(metrics):
        print(f"{name:34s} {metrics[name]:>16.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": len(runs),
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
