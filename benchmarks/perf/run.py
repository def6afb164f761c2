#!/usr/bin/env python3
"""The repo's one benchmark: seven workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py                      # all seven, untraced
    python3 benchmarks/perf/run.py --trace --out R.json # plus the layer ledger
    python3 benchmarks/perf/run.py --workload serve_steady --seed 7 \
        --seconds 8 --trace 0                           # one run (driver form)

One ``--workload`` invocation is one measurement in this process and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without ``--workload`` every workload runs in its own
fresh subprocess and ``--out`` collects one result document, which
``compare.py`` reads.  Metric names, units and bounds live in
``BENCHMARK.json``; see ``README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
SOURCE = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(PERF_DIR, ".work")

SCHEMA = 1
DEFAULT_SEED = 2026
#: Fresh-process set-up probes per run (the median is ``setup_s``).
SETUP_SAMPLES = 7
MIN_REPETITIONS = 3


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def require_source() -> None:
    """Put ``src/`` on the path, or stop: there is no vendored copy."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        sys.exit(f"run.py: no program to measure: {SOURCE}/repro is missing")
    sys.path.insert(0, SOURCE)


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def setup_only(name: str, seed: int, quick: bool) -> None:
    """Import and build everything the workload needs, then run one unit."""
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    workload.run(workload.first_unit(workload.params(seed, quick)))


def sample_setup(name: str, seed: int, quick: bool) -> List[float]:
    """Wall time of ``--setup-only`` in fresh interpreters, start to exit."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    if quick:
        command.append("--quick")
    samples = []
    for _ in range(1 if quick else SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


# ----------------------------------------------------------------------
# One workload, end to end (tracing off)
# ----------------------------------------------------------------------
def account(workload, params, samples):
    """Correctness accounting over timed repetitions: ``(accounts, tally)``.

    A repetition's units fail when they never concluded (drops included),
    broke an oracle, or when the repetition's digest differs from the
    first one's (then every unit of it counts as failed).
    """
    from workloads import result_digest
    failures: List[str] = []
    attempted = failed = 0
    digests = [result_digest(sample["result"]) for sample in samples]
    tally = None
    for index, sample in enumerate(samples):
        tally = workload.tally(params, sample["result"])
        attempted += tally.attempted
        if tally.concluded + tally.dropped != tally.attempted:
            failures.append(f"repetition {index}: attempted "
                            f"{tally.attempted} != concluded "
                            f"{tally.concluded} + dropped {tally.dropped}")
        if tally.violations:
            failures.append(f"repetition {index}: {tally.violations} "
                            f"oracle violations")
        if digests[index] != digests[0]:
            failures.append(f"repetition {index}: digest differs from "
                            f"repetition 0")
            failed += tally.attempted
        else:
            failed += tally.failed
    accounts = {"attempted": attempted, "failed": failed,
                "failures": failures, "result_digest": digests[0]}
    return accounts, tally


def exact_metrics(tally) -> Dict[str, Any]:
    """Virtual-time quantities: identical on every run of one seed."""
    def per_unit(total):
        if total is None or not tally.concluded:
            return None
        return total / tally.concluded
    return {
        "failed_share": tally.failed / tally.attempted,
        "dropped_share": tally.dropped / tally.attempted,
        "virt_time_per_unit": per_unit(tally.virt_time),
        "msgs_per_unit": per_unit(tally.messages),
        "virt_latency_p50": tally.latency_p50,
        "virt_latency_p99": tally.latency_p99,
    }


def measure_end_to_end(name: str, seed: int, seconds: float, quick: bool,
                       units: Dict[str, str]) -> Dict[str, Any]:
    import measure
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    canary_before = measure.canary()
    params = workload.params(seed, quick)
    workload.run(params)                                   # warm-up
    samples = measure.timed_repetitions(
        lambda: workload.run(params), seconds,
        2 if quick else MIN_REPETITIONS)
    # Before verify and the set-up probes: they would add their own peaks.
    rss = measure.peak_rss_mb()
    accounts, tally = account(workload, params, samples)
    if workload.verify is not None:
        mismatches = workload.verify(params, samples[0]["result"])
        if mismatches:
            accounts["failures"] += mismatches
            accounts["failed"] = max(accounts["failed"], tally.attempted)
    concluded = max(1, tally.concluded)
    values = {
        "setup_s": sample_setup(name, seed, quick),
        "units_per_s": [concluded / s["wall"] for s in samples],
        "cpu_ms_per_unit": [s["cpu"] * 1e3 / concluded for s in samples],
        "peak_rss_mb": [rss],
    }
    canary_after = measure.canary()
    return {
        "workload": name, "unit": workload.unit, "seed": seed,
        "seconds": seconds, "quick": quick, "trace": 0,
        "environment": measure.environment(),
        "canary": {"before_s": canary_before, "after_s": canary_after,
                   "drift": canary_after / canary_before},
        "repetitions": len(samples),
        **accounts,
        "correct": not accounts["failures"] and accounts["failed"] == 0,
        "end_to_end": {metric: measure.summary(values[metric], unit)
                       for metric, unit in units.items()},
        "exact": exact_metrics(tally),
    }


# ----------------------------------------------------------------------
# One workload, layer by layer (tracing on)
# ----------------------------------------------------------------------
def measure_layers(name: str, seed: int, quick: bool,
                   units: Dict[str, str]) -> Dict[str, Any]:
    import layers
    import measure
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    params = workload.trace_params(workload.params(seed, quick))
    run = lambda: workload.run(params)
    run()                                                  # warm-up
    untraced = measure.timed_repetitions(run, 0.0, MIN_REPETITIONS)
    accounts, tally = account(workload, params, untraced)
    unit_count = max(1, tally.concluded)

    first, second = layers.profile_pass(run), layers.profile_pass(run)
    total_self = sum(first["self_s"].values())
    values: Dict[str, float] = {}
    for layer in layers.LAYERS:
        values[f"{layer}.self_share"] = first["self_s"][layer] / total_self
        values[f"{layer}.calls_per_unit"] = first["calls"][layer] / unit_count
    values.update(layers.count_pass(workload, params, unit_count))
    values.update(layers.isolated_probes(seed, quick, WORK_DIR))
    values["py.gc_collections_per_kunit"] = statistics.median(
        s["gc_collections"] for s in untraced) * 1e3 / unit_count
    values["trace.overhead"] = (
        statistics.median([first["wall"], second["wall"]])
        / statistics.median(s["wall"] for s in untraced))
    return {
        "workload": name, "unit": workload.unit, "seed": seed,
        "quick": quick, "trace": 1,
        "environment": measure.environment(),
        **accounts,
        "correct": not accounts["failures"] and accounts["failed"] == 0,
        "per_layer": {metric: {"value": values[metric], "unit": unit}
                      for metric, unit in units.items()},
        # Call counts that two profiled repetitions disagree on are not
        # counts a claim may rest on.
        "unstable_counts": [f"{layer}.calls_per_unit"
                            for layer in layers.LAYERS
                            if first["calls"][layer]
                            != second["calls"][layer]],
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """Print every metric by name with its unit; return the JSON-line form."""
    name = document["workload"]
    print(f"== {name} (unit: {document['unit']}, seed {document['seed']}, "
          f"trace {document['trace']})")
    metrics: Dict[str, Dict[str, Any]] = {}
    if document["trace"]:
        for metric, entry in document["per_layer"].items():
            print(f"{name:15s} {metric:34s} {entry['value']:16.6g} "
                  f"{entry['unit']}")
            metrics[metric] = entry
        if document["unstable_counts"]:
            print(f"{name:15s} unstable_counts: "
                  f"{', '.join(document['unstable_counts'])}")
    else:
        for metric, entry in document["end_to_end"].items():
            print(f"{name:15s} {metric:18s} {entry['median']:14.6g} "
                  f"{entry['unit']:6s} q1 {entry['q1']:.6g}  "
                  f"q3 {entry['q3']:.6g}  n={entry['n']}")
            metrics[metric] = {"value": entry["median"],
                               "unit": entry["unit"]}
        for metric, value in document["exact"].items():
            print(f"{name:15s} {metric:18s} {value!r:>14} (exact)")
        print(f"{name:15s} result_digest      {document['result_digest']}")
        print(f"{name:15s} canary_drift       "
              f"{document['canary']['drift']:14.6g}")
    for failure in document["failures"]:
        print(f"{name:15s} FAILED: {failure}")
    return {"correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"], "metrics": metrics}


def write_json(document: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[key]}
    if args.trace:
        document = measure_layers(args.workload, args.seed, args.quick, units)
    else:
        document = measure_end_to_end(args.workload, args.seed,
                                      args.seconds, args.quick, units)
    line = print_document(document)
    if args.out:
        write_json(document, args.out)
    print(json.dumps(line), flush=True)
    return 0 if document["correct"] else 1


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """Every workload in its own fresh subprocess; one merged document."""
    import measure
    os.makedirs(WORK_DIR, exist_ok=True)
    merged: Dict[str, Any] = {
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "traced": bool(args.trace),
        "environment": measure.environment(), "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as directory:
        for workload in (entry["name"] for entry in spec["workloads"]):
            entry: Dict[str, Any] = {}
            for trace in (0, 1) if args.trace else (0,):
                path = os.path.join(directory, f"{workload}.{trace}.json")
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace), "--out", path]
                if args.quick:
                    command.append("--quick")
                sys.stdout.flush()
                status |= subprocess.run(command).returncode
                with open(path, encoding="utf-8") as handle:
                    document = json.load(handle)
                if trace:
                    entry["per_layer"] = document["per_layer"]
                    entry["unstable_counts"] = document["unstable_counts"]
                    entry["correct"] &= document["correct"]
                    entry["failures"] += document["failures"]
                else:
                    entry = document
            merged["workloads"][workload] = entry
    if args.out:
        write_json(merged, args.out)
    failed = [name for name, entry in merged["workloads"].items()
              if not entry["correct"]]
    print("all correctness checks passed" if not failed
          else f"FAILED correctness checks: {', '.join(failed)}")
    return 1 if status or failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, in "
                        "this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add (all workloads) or "
                        "select (--workload) the per-layer traced run")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes: a smoke test, not a measurement")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_source()
    spec = load_spec()
    known = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(spec["run_seconds"])
    if args.setup_only:
        setup_only(args.workload, args.seed, args.quick)
        return 0
    if args.workload is not None:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
