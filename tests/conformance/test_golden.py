"""Golden-trace conformance: every case must match its committed fixture.

These tests are the gate in front of any kernel/runtime change: a refactor
or optimisation that perturbs observable behaviour — event ordering,
message counts, latency quantiles, oracle verdicts — moves a digest and
fails here.  Regenerate fixtures only when the behaviour change is
intended: ``PYTHONPATH=src python -m repro.conformance --regenerate``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import conformance

FIXTURE_ROOT = os.path.join(os.path.dirname(__file__), "fixtures")


def test_fixture_catalogue_is_complete():
    """Every catalogue case has a committed fixture and vice versa."""
    committed = {name[:-len(".json")]
                 for name in os.listdir(FIXTURE_ROOT)
                 if name.endswith(".json")}
    assert committed == set(conformance.case_names())


def test_default_fixture_root_resolves_here():
    assert os.path.samefile(conformance.default_fixture_root(), FIXTURE_ROOT)


def test_catalogue_covers_all_scenarios_and_algorithms():
    """The gated scenarios and three algorithms are all present."""
    names = set(conformance.case_names())
    for scenario in ("figure9", "large_n", "churn", "wide_graph",
                     "capacity", "mixed_traffic", "transactional",
                     "production_cell"):
        for slug in ("ours", "cr", "r96"):
            assert f"{scenario}_{slug}" in names
    assert "figure12" in names
    assert "explore_100" in names
    explore = conformance.CASES["explore_100"]
    (scenario, grid), = explore.runs
    assert scenario == "explore"
    assert sum(point["stop"] - point["start"] for point in grid) == 100


def test_every_registered_scenario_is_gated_or_exempt():
    """The coverage guard: no registered scenario may dodge conformance.

    A scenario registered through the plugin path must either appear in
    a conformance case (with a committed fixture, which the catalogue
    test above enforces) or carry an explicit exemption with a reason.
    """
    assert conformance.uncovered_scenarios() == []
    # Only the wall-clock microbenchmark is exempt: every other scenario,
    # sweeps such as capacity, wide_graph and scale included, is digested.
    assert set(conformance.COVERAGE_EXEMPT) == {"graph_microbench"}
    # Exemptions must name real scenarios, with a stated reason.
    from repro.bench.engine import REGISTRY
    for name, reason in conformance.COVERAGE_EXEMPT.items():
        assert name in REGISTRY, f"stale exemption {name!r}"
        assert reason.strip(), f"exemption {name!r} needs a reason"
    # And exemptions must not overlap actual coverage.
    assert not set(conformance.COVERAGE_EXEMPT) \
        & conformance.covered_scenarios()


def test_check_flags_ungated_scenarios(monkeypatch, tmp_path):
    """check() reports a registered-but-ungated scenario as a problem."""
    monkeypatch.setattr(
        conformance, "uncovered_scenarios", lambda: ["rogue"])
    name = "churn_ours"
    conformance.write_fixture(
        conformance.run_case(conformance.CASES[name]), str(tmp_path))
    problems = conformance.check([name], str(tmp_path))
    assert problems and "rogue" in problems[0]
    assert "no conformance case" in problems[0]


@pytest.mark.parametrize("name", conformance.case_names())
def test_case_matches_committed_fixture(name):
    """Re-run the case and compare its digest with the committed fixture."""
    fixture = conformance.load_fixture(name, FIXTURE_ROOT)
    assert fixture is not None, (
        f"fixture for {name} missing; regenerate with "
        f"python -m repro.conformance --regenerate")
    fresh = conformance.run_case(conformance.CASES[name])
    assert fresh["schema"] == fixture["schema"]
    assert fresh["digest"] == fixture["digest"], (
        f"conformance digest of {name} drifted; fresh summary: "
        f"{json.dumps(fresh['summary'], sort_keys=True)}; committed "
        f"summary: {json.dumps(fixture['summary'], sort_keys=True)}")
    # The summary is derived from the digested rows, so it must agree too.
    assert fresh["summary"] == fixture["summary"]


def test_volatile_keys_are_stripped():
    """wall-clock fields must never enter a canonical document."""
    rows = [{"total_time": 1.5, "wall_seconds": 0.123, "n": 2}]
    canonical = conformance.canonical_rows(rows)
    assert canonical == [{"total_time": 1.5, "n": 2}]


def test_digest_is_stable_for_equal_content():
    case = conformance.ConformanceCase("demo", ())
    rows = {"demo_scenario": [{"b": 2, "a": 1}]}
    reordered = {"demo_scenario": [{"a": 1, "b": 2}]}
    one = conformance.case_digest(conformance.canonical_document(case, rows))
    two = conformance.case_digest(
        conformance.canonical_document(case, reordered))
    assert one == two


def test_check_reports_missing_and_mismatched_fixtures(tmp_path):
    """check() pinpoints missing fixtures and digest drift."""
    name = "churn_ours"
    problems = conformance.check([name], str(tmp_path))
    assert problems and "fixture missing" in problems[0]

    fixture = conformance.run_case(conformance.CASES[name])
    conformance.write_fixture(fixture, str(tmp_path))
    assert conformance.check([name], str(tmp_path)) == []

    fixture["digest"] = "0" * 64
    conformance.write_fixture(fixture, str(tmp_path))
    problems = conformance.check([name], str(tmp_path))
    assert problems and "digest mismatch" in problems[0]
