"""The seven benchmark workloads, each driven through public ``repro`` functions.

A workload is a frozen record of plain functions:

* ``params(seed, quick)`` derives every input from the seed (the program
  under test only ever sees these generated keyword arguments);
* ``body(params)`` runs the program and returns its result rows;
* ``tally(params, rows)`` accounts for the rows: units attempted,
  concluded, dropped, oracle violations, and the virtual-time quantities;
* ``first_unit(params)`` shrinks the parameters to the smallest run that
  still imports and builds everything (what ``setup_s`` times);
* ``trace_params(params)`` is the variant the traced passes run (only
  ``sharded_pool`` differs: ``workers=0`` so the shards stay in-process
  where the profiler and ``obs.capture`` can see them);
* ``verify(params, rows)`` is an optional cross-check against a reference
  execution of the same inputs (returns failure messages).

Why these seven, and which layer each one stresses, is recorded in each
workload's ``why`` (copied into ``BENCHMARK.json``) and argued in
``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

Params = Dict[str, Any]
Rows = List[Dict[str, Any]]

#: The paper-reproduction grids ``paper_sweep`` runs (default grids, 61
#: points), and the float parameter of each that the seed may jitter.
SWEEP_SCENARIOS = (("figure9", "value"), ("figure12_tmmax", "t_msg"),
                   ("figure12_tres", "t_res"), ("large_n", None),
                   ("churn", None))

FUZZ_TARGETS = ("nested_abort", "concurrent_raises")


@dataclass(frozen=True)
class Tally:
    """What one repetition's rows add up to."""

    attempted: int
    concluded: int
    dropped: int = 0
    violations: int = 0
    #: Simulated time and protocol messages over the whole repetition
    #: (``None`` where the rows do not carry them).
    virt_time: Optional[float] = None
    messages: Optional[int] = None
    latency_p50: Optional[float] = None
    latency_p99: Optional[float] = None

    @property
    def failed(self) -> int:
        """Units that never concluded (drops included) or broke an oracle."""
        return min(self.attempted,
                   self.attempted - self.concluded + self.violations)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    why: str
    params: Callable[[int, bool], Params]
    body: Callable[[Params], Rows]
    tally: Callable[[Params, Rows], Tally]
    first_unit: Callable[[Params], Params]
    trace_params: Callable[[Params], Params] = dict
    verify: Optional[Callable[[Params, Rows], List[str]]] = None
    #: Run the body inside ``obs.capture(ObsConfig())``.
    observed: bool = False

    def run(self, params: Params) -> Rows:
        """One repetition, as a user would run it."""
        if not self.observed:
            return self.body(params)
        from repro import obs
        with obs.capture(obs.ObsConfig()):
            return self.body(params)


def derived_seed(name: str, seed: int) -> int:
    """A per-workload seed: a pure function of ``(name, seed)``."""
    digest = hashlib.sha256(f"{name}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def result_digest(rows: Rows) -> str:
    """SHA-256 over the rows' deterministic content.

    Volatile keys (wall-clock fields, executor identity) are stripped with
    the conformance suite's own canonicaliser, so the digest compares two
    commits exactly.
    """
    from repro.conformance import canonical_rows
    canonical = json.dumps(canonical_rows(rows), sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _driver_tally(_params: Params, rows: Rows) -> Tally:
    """Rows of a ``WorkloadDriver`` run (capacity-style columns)."""
    row = rows[0]
    return Tally(attempted=row["jobs"], concluded=row["completed"],
                 dropped=row["dropped"],
                 violations=row.get("n_violations", 0),
                 virt_time=row["total_time"],
                 messages=row["protocol_messages"],
                 latency_p50=row["latency_p50"],
                 latency_p99=row["latency_p99"])


def _with(**overrides: Any) -> Callable[[Params], Params]:
    return lambda params: {**params, **overrides}


def _never_drop(params: Params) -> Params:
    """Give the admission queue room for every instance of the run.

    The driver workloads run below the knee, where the default queue is
    almost never full -- but "almost" is seed-dependent (seed 1 of
    ``mixed_observed`` dropped 7 of 1500).  A queue as long as the run
    cannot fill, so no seed yields a drop; on the seeds that never filled
    the default queue the run is the same one.
    """
    return {**params, "queue_capacity": params["n_instances"]}


# ----------------------------------------------------------------------
# serve_steady
# ----------------------------------------------------------------------
def _serve_params(seed: int, quick: bool) -> Params:
    return _never_drop({
        "offered_load": 2.0, "n_instances": 200 if quick else 4000,
        "pool_size": 8, "width": 2, "raise_probability": 0.1,
        "seed": derived_seed("serve_steady", seed)})


def _serve_body(params: Params) -> Rows:
    from repro.workload.scenarios import run_capacity_point
    return [run_capacity_point(**params)]


# ----------------------------------------------------------------------
# raise_storm
# ----------------------------------------------------------------------
def _storm_params(seed: int, quick: bool) -> Params:
    # run_wide_graph takes no seed: the seed picks the message and
    # resolution delays, which move every virtual timestamp but leave the
    # amount of work (graph size, messages per iteration) fixed.
    rng = random.Random(derived_seed("raise_storm", seed))
    return {"n_threads": 8, "n_primitives": 12, "max_level": 3,
            "iterations": 10 if quick else 300,
            "t_msg": round(rng.uniform(0.03, 0.07), 4),
            "t_resolution": round(rng.uniform(0.03, 0.07), 4)}


def _storm_body(params: Params) -> Rows:
    from repro.bench.scenarios import run_wide_graph
    return [run_wide_graph(**params)]


def _storm_tally(params: Params, rows: Rows) -> Tally:
    row = rows[0]
    return Tally(attempted=params["iterations"],
                 concluded=row["recovered"] // params["n_threads"],
                 virt_time=row["total_time"],
                 messages=row["protocol_messages"])


# ----------------------------------------------------------------------
# txn_contention
# ----------------------------------------------------------------------
def _txn_params(seed: int, quick: bool) -> Params:
    return _never_drop({
        "offered_load": 1.5, "n_instances": 150 if quick else 2500,
        "seed": derived_seed("txn_contention", seed)})


def _txn_body(params: Params) -> Rows:
    from repro.workload.transactional import run_transactional_point
    return [run_transactional_point(**params)]


# ----------------------------------------------------------------------
# sharded_pool
# ----------------------------------------------------------------------
def _sharded_params(seed: int, quick: bool) -> Params:
    # 2.0 per shard: the same below-the-knee load as serve_steady, so no
    # shard drops and the two workloads share their per-shard behaviour.
    return _never_drop({
        "n_instances": 400 if quick else 8000,
        "n_shards": 4 if quick else 8,
        "offered_load": 8.0 if quick else 16.0, "workers": 2,
        "seed": derived_seed("sharded_pool", seed)})


def _sharded_body(params: Params) -> Rows:
    from repro.workload.sharding import run_scale_point
    return [run_scale_point(**params)]


def _sharded_verify(params: Params, rows: Rows) -> List[str]:
    from repro.workload.sharding import merged_snapshot_digest
    reference = _sharded_body({**params, "workers": 0})[0]
    failures = []
    if rows[0]["executor"] != "process-pool":
        failures.append(f"ran on {rows[0]['executor']!r}, not the pool")
    if merged_snapshot_digest(rows[0]) != merged_snapshot_digest(reference):
        failures.append("pool digest differs from the workers=0 digest")
    return failures


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
def _sweep_params(seed: int, quick: bool) -> Params:
    """The default paper grids, shuffled and jittered by the seed.

    The jitter (under a twentieth of the grid step) keeps every point a
    fresh input; the integer-parameter grids are only reordered.
    """
    from repro.bench.engine import REGISTRY
    rng = random.Random(derived_seed("paper_sweep", seed))
    grids: Dict[str, List[Dict[str, Any]]] = {}
    for scenario, jittered in SWEEP_SCENARIOS:
        points = [dict(point) for point in REGISTRY.get(scenario).grid]
        if quick:
            points = points[:2]
        for point in points:
            if jittered is not None:
                point[jittered] = round(
                    point[jittered] + rng.uniform(0.0, 0.01), 4)
        rng.shuffle(points)
        grids[scenario] = points
    return {"grids": grids}


def _sweep_body(params: Params) -> Rows:
    from repro.bench.engine import run_scenario
    rows: Rows = []
    for scenario, points in params["grids"].items():
        for row in run_scenario(scenario, points=points):
            rows.append({"scenario": scenario, **row})
    return rows


def _sweep_tally(params: Params, rows: Rows) -> Tally:
    attempted = sum(len(points) for points in params["grids"].values())
    return Tally(attempted=attempted, concluded=len(rows),
                 violations=sum(row.get("n_violations", 0) for row in rows))


def _sweep_first_unit(params: Params) -> Params:
    # The smallest point of each grid, not the first: the shuffle would
    # otherwise make set-up cost depend on the seed (large_n with 4 or
    # with 64 threads).
    return {"grids": {scenario: [min(points,
                                     key=lambda p: sorted(p.items()))]
                      for scenario, points in params["grids"].items()}}


# ----------------------------------------------------------------------
# fuzz_explore
# ----------------------------------------------------------------------
def _fuzz_params(seed: int, quick: bool) -> Params:
    return {"seed": derived_seed("fuzz_explore", seed),
            "cases": 10 if quick else 200}


def _fuzz_body(params: Params) -> Rows:
    from repro.explore.explorer import explore_chunk
    return [explore_chunk(target, params["seed"], 0, params["cases"])
            for target in FUZZ_TARGETS]


def _fuzz_tally(params: Params, rows: Rows) -> Tally:
    cases = sum(row["cases"] for row in rows)
    return Tally(attempted=params["cases"] * len(FUZZ_TARGETS),
                 concluded=cases - sum(row["failures"] for row in rows))


# ----------------------------------------------------------------------
# mixed_observed
# ----------------------------------------------------------------------
def _mixed_params(seed: int, quick: bool) -> Params:
    return _never_drop({"seed": derived_seed("mixed_observed", seed),
                        "n_instances": 150 if quick else 1500})


def _mixed_body(params: Params) -> Rows:
    from repro.workload.scenarios import run_mixed_traffic
    return [run_mixed_traffic(**params)]


def _mixed_verify(params: Params, rows: Rows) -> List[str]:
    if result_digest(rows) != result_digest(_mixed_body(params)):
        return ["observed rows differ from the obs-off rows"]
    return []


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "serve_steady", "instance",
        "ROADMAP headline: open-loop Poisson below the knee on one pool; "
        "runtime, simkernel and the workload driver do most of the work",
        _serve_params, _serve_body, _driver_tally,
        _with(n_instances=8)),
    Workload(
        "raise_storm", "iteration",
        "every thread raises over a 794-node graph: core resolution and "
        "message fan-out dominate, the workload driver is bypassed",
        _storm_params, _storm_body, _storm_tally,
        _with(iterations=1)),
    Workload(
        "txn_contention", "instance",
        "strict-2PL Transfer actions with deadlock recovery: the only "
        "workload where objects (locks, transactions) carries weight",
        _txn_params, _txn_body, _driver_tally,
        _with(n_instances=8)),
    Workload(
        "sharded_pool", "instance",
        "serve_steady's per-shard code on a 2-worker process pool: adds "
        "pool start-up, pickling and merge, which serve_steady bypasses",
        _sharded_params, _sharded_body, _driver_tally,
        _with(n_instances=32),
        trace_params=_with(workers=0), verify=_sharded_verify),
    Workload(
        "paper_sweep", "grid point",
        "what a paper-reproduction user runs: 61 short runs, so system "
        "build/teardown and bench.engine dispatch are paid per point",
        _sweep_params, _sweep_body, _sweep_tally, _sweep_first_unit),
    Workload(
        "fuzz_explore", "case",
        "fault plans, InvariantMonitor and trace digests: the explore "
        "layer and its recorders do their work here and nowhere else",
        _fuzz_params, _fuzz_body, _fuzz_tally,
        _with(cases=1)),
    Workload(
        "mixed_observed", "instance",
        "observation on, end to end (spans, metrics, flight recorder); "
        "every other workload runs with obs off and bypasses obs code",
        _mixed_params, _mixed_body, _driver_tally,
        _with(n_instances=8),
        verify=_mixed_verify, observed=True),
)}
