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
        """Recorded ``run_scenario`` calls; each fake row carries
        ``result["violations"]`` oracle violations."""
        from repro.bench import engine
        calls = []
        result = {"violations": 0}

        def fake_run_scenario(name, points, config):
            # Stands in for the matrix run, so no OS process is started.
            calls.append((name, points, config.backend, config.export_dir,
                          config.backend_options))
            return [{"algorithm": point["algorithm"],
                     "n_violations": result["violations"]}
                    for point in points]

        monkeypatch.setattr(engine, "run_scenario", fake_run_scenario)
        monkeypatch.chdir(tmp_path)
        return calls, result

    def test_flags_reach_the_matrix_run(self, clean_repro_logger, matrix,
                                        tmp_path, capsys):
        calls, _ = matrix
        assert main(["real", "--scenario", "remote_counter",
                     "--time-scale", "0.5", "--wall-timeout", "30",
                     "--obs-dir", "real-obs", "--output", "matrix.json"]) == 0
        points = [{"algorithm": algorithm, "iterations": 1} for algorithm
                  in ("ours", "campbell-randell", "romanovsky96")]
        assert calls == [("remote_counter", points, "real", "real-obs",
                          {"time_scale": 0.5, "wall_timeout": 30.0})]
        document = json.loads((tmp_path / "matrix.json").read_text())
        assert sorted(document) == ["backend", "oracle_violations", "python",
                                    "rows", "schema", "time_scale"]
        assert document["schema"] == 1 and document["time_scale"] == 0.5
        assert document["rows"][0] == {"scenario": "remote_counter",
                                       "algorithm": "ours", "n_violations": 0}
        assert "3 real-backend rows, 0 oracle violations" in \
            capsys.readouterr().out

    def test_defaults_and_any_violation_fails(self, clean_repro_logger,
                                              matrix, tmp_path, capsys):
        calls, result = matrix
        result["violations"] = 1
        assert main(["real"]) == 1
        assert [call[0] for call in calls] == ["figure9", "remote_counter"]
        assert calls[0][3:] == (None, {"time_scale": 0.02,
                                       "wall_timeout": 120.0})
        document = json.loads(
            (tmp_path / "BENCH_realbackend.json").read_text())
        assert document["oracle_violations"] == 6
        assert "6 real-backend rows, 6 oracle violations" in \
            capsys.readouterr().out

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
    def test_corpus_search(self, capsys):
        assert main(["explore", "corpus", "--kinds", "delay",
                     "--budget", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "corpus"

    def test_a_corpus_for_another_target_is_refused(self, tmp_path, capsys):
        from repro.explore import Corpus
        path = str(tmp_path / "corpus.json")
        Corpus(target="concurrent_raises").save(path)
        assert main(["explore", "corpus", "--target", "nested_abort",
                     "--corpus", path, "--budget", "1"]) == 2
        assert "'concurrent_raises'" in capsys.readouterr().err

    @pytest.mark.parametrize("removed", ["enumerate", "compare"])
    def test_the_removed_modes_are_usage_errors(self, removed):
        # Corpus search is the one explore mode; the enumeration-vs-corpus
        # claim lives in tests/explore/test_corpus.py::TestCoverageClaim.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["explore", removed])
        assert exit_info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["repro.conformance", "--check"],
    ["repro.explore", "corpus"],
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
            text = _fold_yaml(text)
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
