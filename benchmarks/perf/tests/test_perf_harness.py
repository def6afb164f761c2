"""Opt-in tests of the benchmark harness (``pytest benchmarks/perf/tests``).

Outside tier-1 ``testpaths`` like the rest of ``benchmarks/``: they check
the harness itself, not the program it measures.
"""

import json
import os
import subprocess
import sys
import time

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(PERF_DIR))
sys.path.insert(0, PERF_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/simkernel/kernel.py", "simkernel"),
    ("/x/src/repro/net/real/host.py", "net"),
    ("/x/src/repro/core/baselines/cr.py", "core"),
    ("/x/src/repro/workload/driver.py", "workload"),
    ("C:\\x\\repro\\obs\\spans.py", "obs"),
    # Top-level modules and unlisted subpackages are not layers.
    ("/x/src/repro/conformance.py", "python"),
    ("/x/src/repro/productioncell/cell.py", "python"),
    ("/usr/lib/python3.11/heapq.py", "python"),
    ("~", "python"),
    (os.path.join(PERF_DIR, "workloads.py"), "python"),
])
def test_layer_of(path, layer):
    assert layers.layer_of(path) == layer


def test_quartiles_match_the_drivers_definition():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    result = measure.quartiles(values)
    assert result == {"median": 4.0, "q1": 2.0, "q3": 7.0, "n": 7}
    assert measure.quartiles([2.5]) == {"median": 2.5, "q1": 2.5,
                                        "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        measure.quartiles([])


def test_spec_names_the_workloads_and_layers_of_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in workloads.WORKLOADS.values()}
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert f"{layer}.self_share" in per_layer
        assert f"{layer}.calls_per_unit" in per_layer
    assert SPEC["paths"] == [os.path.relpath(PERF_DIR, ROOT)]


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.params(7, True) == workload.params(7, True)
        assert workload.params(7, True) != workload.params(8, True)


def _entry(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3,
            "samples": [q1, median, q3]}


@pytest.mark.parametrize("change, drift, expected", [
    (_entry(100.0, 99.0, 101.0), 0.0, "unchanged"),
    (_entry(95.0, 94.0, 96.0), 0.0, "unchanged"),      # within the bound
    (_entry(90.0, 89.0, 91.0), 0.0, "worse"),
    (_entry(110.0, 109.0, 111.0), 0.0, "better"),
    (_entry(90.0, 80.0, 100.0), 0.0, "unresolved"),    # spread > bound
    (_entry(90.0, 89.0, 91.0), 0.2, "unresolved"),     # host drifted
    (_entry(130.0, 120.0, 140.0), 0.0, "better"),      # wide, yet all above
])
def test_verdict(change, drift, expected):
    base = _entry(100.0, 99.0, 101.0)
    assert compare.verdict(base, change, "higher", 0.08, drift) == expected


def test_single_samples_never_claim_a_gain():
    base = {"median": 41.4, "q1": 41.4, "q3": 41.4, "samples": [41.4]}
    change = {"median": 41.3, "q1": 41.3, "q3": 41.3, "samples": [41.3]}
    assert compare.verdict(base, change, "lower", 0.1, 0.0) == "unchanged"


def test_verdict_respects_direction():
    base = _entry(100.0, 99.0, 101.0)
    slower = _entry(110.0, 109.0, 111.0)
    assert compare.verdict(base, slower, "lower", 0.08, 0.0) == "worse"


def test_quick_run_covers_every_workload_and_metric(tmp_path):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--quick",
         "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 20.0

    document = json.loads(out.read_text())
    assert sorted(document["workloads"]) == sorted(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        assert entry["attempted"] >= 1
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} \
            == end_to_end
        assert all(v["median"] > 0 for v in entry["end_to_end"].values())
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} \
            == per_layer
        shares = sum(entry["per_layer"][f"{layer}.self_share"]["value"]
                     for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0)
        assert len(entry["result_digest"]) == 64

    # A document compared with itself has no regression.
    lines, acceptable = compare.compare(document, document, SPEC)
    assert acceptable
    assert not any(line.endswith(" worse") for line in lines)
