"""Tests for the ``python -m repro`` front door (src/repro/cli.py)."""

from __future__ import annotations

import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, configure_logging, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def clean_repro_logger():
    """Snapshot and restore the package logger around each test."""
    logger = logging.getLogger("repro")
    state = (logger.level, list(logger.handlers), logger.propagate)
    yield logger
    logger.level, logger.handlers[:], logger.propagate = state


class TestConfigureLogging:
    @pytest.mark.parametrize("argv,level", [
        ((), logging.WARNING),
        (("-v",), logging.INFO),
        (("-vv",), logging.DEBUG),
        (("-q",), logging.ERROR),
        (("-qq",), logging.CRITICAL),
        (("-v", "-q"), logging.WARNING),
    ])
    def test_verbosity_maps_to_levels(self, clean_repro_logger, argv, level):
        arguments = build_parser().parse_args([*argv, "list"])
        assert configure_logging(arguments.verbose,
                                 arguments.quiet).level == level

    def test_extreme_counts_are_clamped(self, clean_repro_logger):
        assert configure_logging(verbose=9).level == logging.DEBUG
        assert configure_logging(quiet=9).level == logging.CRITICAL

    def test_repeated_configuration_never_stacks_handlers(
            self, clean_repro_logger):
        # The test suite calls main() repeatedly in one process; each
        # reconfiguration must adjust the level, not add another handler
        # (which would multiply every log line).
        logger = configure_logging(verbose=1)
        assert configure_logging(quiet=1) is logger
        ours = [handler for handler in logger.handlers
                if handler.get_name() == "repro-cli"]
        assert len(ours) == 1
        assert logger.level == logging.ERROR

    def test_propagation_stays_on_for_embedders(self, clean_repro_logger):
        # Root-level capture (pytest's caplog, an application's own
        # logging config) must keep seeing the tree after a CLI main()
        # ran in the same process.
        assert configure_logging().propagate is True


def test_root_flags_set_the_level_for_every_command(clean_repro_logger,
                                                    capsys):
    assert main(["-v", "list"]) == 0
    assert "churn_ours" in capsys.readouterr().out
    assert logging.getLogger("repro").level == logging.INFO
    assert main(["-q", "list"]) == 0
    assert logging.getLogger("repro").level == logging.ERROR


def test_check_rejects_an_unknown_case(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--case", "nope"])
    assert exit_info.value.code == 2
    assert "unknown case(s): nope" in capsys.readouterr().err


class TestReal:
    @pytest.fixture
    def matrix(self, monkeypatch, tmp_path):
        """Recorded backend pacing and runs; each fake result carries
        ``result["violations"]`` oracle violations."""
        from repro.real import backend
        calls = []
        result = {"violations": 0}

        class FakeResult:
            # Two nodes' bridged events, listed out of node order.
            records = {"T2": {"obs_events": [{"kind": "action.entered",
                                              "t": 0.5}]},
                       "T1": {"obs_events": [{"kind": "action.entered",
                                              "t": 0.0},
                                             {"kind": "action.concluded",
                                              "t": 1.0}]}}

            def row(self, point):
                return {**point, "n_violations": result["violations"]}

        class FakeBackend:
            # Stands in for the OS-process runner: no process is started.
            def __init__(self, time_scale, wall_timeout):
                calls.append(("pacing", time_scale, wall_timeout))

            def run(self, name, **point):
                calls.append((name, point))
                return FakeResult()

        monkeypatch.setattr(backend, "RealBackend", FakeBackend)
        monkeypatch.chdir(tmp_path)
        return calls, result

    def test_flags_reach_the_matrix_run(self, clean_repro_logger, matrix,
                                        tmp_path, capsys):
        calls, _ = matrix
        assert main(["real", "--scenario", "remote_counter",
                     "--time-scale", "0.5", "--wall-timeout", "30",
                     "--output", "matrix.json"]) == 0
        assert calls == [("pacing", 0.5, 30.0)] + [
            ("remote_counter", {"algorithm": algorithm, "iterations": 1})
            for algorithm in ("ours", "campbell-randell", "romanovsky96")]
        document = json.loads((tmp_path / "matrix.json").read_text())
        assert sorted(document) == ["backend", "oracle_violations", "python",
                                    "rows", "schema", "time_scale"]
        assert document["schema"] == 1 and document["time_scale"] == 0.5
        assert document["rows"][0] == {"scenario": "remote_counter",
                                       "algorithm": "ours", "iterations": 1,
                                       "n_violations": 0}
        assert "3 real-backend rows, 0 oracle violations" in \
            capsys.readouterr().out
        assert not (tmp_path / "real-obs").exists()

    def test_defaults_and_any_violation_fails(self, clean_repro_logger,
                                              matrix, tmp_path, capsys):
        calls, result = matrix
        result["violations"] = 1
        assert main(["real"]) == 1
        assert calls[0] == ("pacing", 0.02, 120.0)
        assert [call[0] for call in calls[1:]] == \
            ["figure9"] * 3 + ["remote_counter"] * 3
        document = json.loads(
            (tmp_path / "BENCH_realbackend.json").read_text())
        assert document["oracle_violations"] == 6
        assert "6 real-backend rows, 6 oracle violations" in \
            capsys.readouterr().out

    def test_obs_dir_gets_one_event_file_per_run(self, clean_repro_logger,
                                                 matrix, tmp_path):
        # CI uploads this directory when a real run fails its oracles.
        assert main(["real", "--scenario", "remote_counter",
                     "--obs-dir", "real-obs"]) == 0
        written = sorted(path.name for path in (tmp_path / "real-obs")
                         .iterdir())
        assert written == [f"remote_counter-{index}.events.jsonl"
                           for index in range(3)]
        lines = [json.loads(line) for line in
                 (tmp_path / "real-obs" / written[0]).read_text()
                 .splitlines()]
        assert [(line["node"], line["t"]) for line in lines] == \
            [("T1", 0.0), ("T1", 1.0), ("T2", 0.5)]

    @pytest.mark.parametrize("scenario", ["capacity", "nope"])
    def test_a_scenario_that_is_not_real_capable_is_a_usage_error(
            self, matrix, capsys, scenario):
        calls, _ = matrix
        with pytest.raises(SystemExit) as exit_info:
            main(["real", "--scenario", "figure9", "--scenario", scenario])
        assert exit_info.value.code == 2
        assert f"not real-capable: {scenario} " \
               f"(real-capable: figure9, remote_counter)" in \
            capsys.readouterr().err
        assert calls == []


class TestExplore:
    def test_a_clean_run_exits_zero(self, capsys):
        assert main(["explore", "run", "--kinds", "delay",
                     "--budget", "10"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["executed"] == 10
        assert summary["failures"] == 0

    def test_parallel_prints_the_sequential_summary(self, capsys):
        argv = ["explore", "run", "--budget", "30"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--parallel"]) == 0
        assert capsys.readouterr().out == sequential

    def test_an_unknown_target_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "run", "--target", "nope"])
        assert exit_info.value.code == 2
        assert "'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_a_budget_below_one_is_a_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "run", "--budget", budget])
        assert exit_info.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_a_partial_last_chunk_runs_exactly_the_budget(self, capsys):
        from repro.bench.engine import EXPLORE_CHUNK_SIZE

        budget = EXPLORE_CHUNK_SIZE + 3
        assert main(["explore", "run", "--kinds", "delay",
                     "--budget", str(budget)]) == 0
        assert json.loads(capsys.readouterr().out)["executed"] == budget

    def test_the_collector_runs_between_sequential_cases(self, monkeypatch,
                                                         capsys):
        # Each case pauses the collector only for itself; a sweep-wide
        # pause would hold every case's cyclic garbage to the end.
        import gc

        from repro.explore import explorer

        enabled = []
        run_case = explorer.run_case

        def recording_run_case(*args, **kwargs):
            enabled.append(gc.isenabled())
            return run_case(*args, **kwargs)

        monkeypatch.setattr(explorer, "run_case", recording_run_case)
        assert main(["explore", "run", "--budget", "3"]) == 0
        capsys.readouterr()
        assert enabled == [True] * 3

    def test_the_summary_digest_follows_the_seed(self, capsys):
        def digest(seed):
            assert main(["explore", "run", "--budget", "5",
                         "--seed", str(seed)]) == 0
            return json.loads(capsys.readouterr().out)["digest"]

        assert digest(1) == digest(1)
        assert digest(1) != digest(2)

    @pytest.mark.parametrize("removed", ["enumerate", "compare", "corpus"])
    def test_the_removed_modes_are_usage_errors(self, removed):
        # The seeded sweep is the one explore mode: the coverage-guided
        # corpus found the known bugs no faster than random sampling
        # (tests/explore/bugbench.py).
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["explore", removed])
        assert exit_info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["repro.conformance", "--check"],
    ["repro.explore", "run"],
    ["repro.obs", "summarize", "events.jsonl"],
])
def test_the_old_entry_points_fail_loudly(argv):
    # A CI step still using an old form must fail, not pass silently.
    completed = subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT)
    assert completed.returncode != 0


# ----------------------------------------------------------------------
# Every documented command parses with the front door
# ----------------------------------------------------------------------
DOCUMENTS = (".github/workflows/ci.yml", ".github/workflows/explore.yml",
             "README.md", "docs/ARCHITECTURE.md",
             ".claude/skills/verify/SKILL.md")

#: Where a shell command line stops being the command's own arguments
#: (redirections, which contain ``>``, stop it too).
_SHELL_OPERATORS = {"|", "||", "&&", ";", "&"}


def _fold_yaml(text: str) -> str:
    """Join each YAML ``>`` folded block onto its key's line."""
    lines, fold_indent = [], None
    for line in text.splitlines():
        indent = len(line) - len(line.lstrip())
        if fold_indent is not None and line.strip() and indent > fold_indent:
            lines[-1] += " " + line.strip()
            continue
        fold_indent = indent if re.search(r":\s*>-?\s*$", line) else None
        lines.append(line)
    return "\n".join(lines)


def documented_commands():
    """``(document, argv)`` of every ``python -m repro`` in the docs."""
    found = []
    for name in DOCUMENTS:
        text = (ROOT / name).read_text(encoding="utf-8")
        if name.endswith(".yml"):
            # Actions substitutes each ${{ expression }} before the shell
            # runs; the only one on a command line is the seed.
            text = re.sub(r"\$\{\{[^}]*\}\}", "1", _fold_yaml(text))
        text = re.sub(r"\\\n\s*", " ", text)
        for match in re.finditer(r"python3? -m repro(?![.\w])([^`\n]*)",
                                 text):
            argv = []
            for token in shlex.split(match.group(1), comments=True):
                if token in _SHELL_OPERATORS or ">" in token:
                    break
                argv.append(token)
            found.append((name, argv))
    return found


def test_the_documents_name_no_old_entry_point():
    old = [(name, match) for name in DOCUMENTS
           for match in re.findall(r"python3? -m repro\.\w[\w.]*",
                                   (ROOT / name).read_text(encoding="utf-8"))]
    assert old == []
    assert len(documented_commands()) >= 15


def test_every_documented_command_parses(capsys):
    parser = build_parser()
    failures = []
    for document, argv in documented_commands():
        try:
            parser.parse_args(argv)
        except SystemExit:
            failures.append(f"{document}: python -m repro {' '.join(argv)}")
    assert failures == [], capsys.readouterr().err
