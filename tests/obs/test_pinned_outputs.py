"""Every observation artefact, pinned to what the per-event-dict recorder wrote.

The golden files in ``tests/obs/golden/`` were written by this module's
``__main__`` against the last commit whose observation built one dict per
event at record time::

    PYTHONPATH=<that commit>/src python tests/obs/test_pinned_outputs.py \
        tests/obs/golden

Recording is now one tuple append per event and every artefact is derived
when read, so each one — the event stream, the flight dumps, the merged
metrics snapshot, the Prometheus exposition and the (single-system)
Chrome trace — must come out exactly as the dict recorder wrote it: same
values, same keys, same key order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys

import pytest

from repro import obs
from repro.objects import transaction

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


def _mixed_traffic():
    from repro.workload.scenarios import run_mixed_traffic
    run_mixed_traffic(seed=11, n_instances=5)


def _transactional():
    # Two accounts under a high offered load: lock waits, deadlock
    # refusals (with their ``blockers`` lists) and promoted grants.
    from repro.workload.transactional import run_transactional_point
    run_transactional_point(n_instances=6, n_accounts=2, offered_load=3.0,
                            seed=5)


def _explore_case():
    from repro.explore.explorer import explore_chunk
    explore_chunk("nested_abort", 2026, 0, 1)


def _capacity_full():
    from repro.workload.scenarios import run_capacity_point
    run_capacity_point(offered_load=2.0, n_instances=3, seed=7)


#: name -> (capture config, run).  The flight-only ring is small enough
#: that deliveries outlive the eviction of their sends; the full run's
#: kernel steps overflow its ring, so both dump paths truncate.
RUNS = {
    "mixed_traffic": (obs.ObsConfig(), _mixed_traffic),
    "transactional": (obs.ObsConfig(), _transactional),
    "explore_flight_only": (obs.ObsConfig.flight_only(32), _explore_case),
    "capacity_full": (dataclasses.replace(obs.ObsConfig.full(),
                                          flight_capacity=96),
                      _capacity_full),
}


def artefacts(name: str) -> dict:
    """Every read-side output of one captured run, as JSON-shaped data.

    Transaction ids come from a process-wide counter; it restarts for the
    run, so the ids in lock events do not depend on what ran before.
    """
    config, run = RUNS[name]
    saved = transaction._transaction_ids
    transaction._transaction_ids = itertools.count(1)
    try:
        with obs.capture(config) as cap:
            run()
    finally:
        transaction._transaction_ids = saved
    assert len(cap.observations) == 1
    return json.loads(json.dumps({
        "events": cap.events(),
        "flight_dumps": cap.flight_dumps(),
        "metrics_snapshot": cap.metrics_snapshot(),
        "prometheus_text": cap.prometheus_text(),
        "chrome_trace": cap.chrome_trace(),
    }))


def golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name + ".json"),
              encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artefacts_equal_the_dict_recorders(name):
    expected = golden(name)
    actual = artefacts(name)
    assert actual.keys() == expected.keys()
    for artefact in expected:
        assert actual[artefact] == expected[artefact], artefact
        # Equal as values and in key order: the JSON text is identical.
        assert json.dumps(actual[artefact]) == \
            json.dumps(expected[artefact]), artefact


def test_the_pinned_runs_exercise_what_they_claim():
    transactional = golden("transactional")["events"]
    kinds = {event["kind"] for event in transactional}
    assert {"lock.waiting", "lock.deadlock", "lock.released"} <= kinds
    assert any(event.get("promoted") for event in transactional)
    (ring,) = golden("explore_flight_only")["flight_dumps"]
    assert ring["truncated"]
    window = ring["events"]
    sent = {event["seq"] for event in window
            if event["kind"] == "message.sent"}
    assert any(event["seq"] not in sent for event in window
               if event["kind"] == "message.delivered")
    full = golden("capacity_full")
    assert any(event["kind"] == "kernel.step" for event in full["events"])
    assert full["flight_dumps"][0]["truncated"]


if __name__ == "__main__":  # pragma: no cover - regenerates the goldens
    directory = sys.argv[1] if len(sys.argv) > 1 else GOLDEN_DIR
    os.makedirs(directory, exist_ok=True)
    for run_name in sorted(RUNS):
        with open(os.path.join(directory, run_name + ".json"), "w",
                  encoding="utf-8") as out:
            json.dump(artefacts(run_name), out, separators=(",", ":"))
            out.write("\n")
