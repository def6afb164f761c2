"""Tests for the shared CLI logging plumbing (src/repro/cli.py)."""

from __future__ import annotations

import argparse
import logging

import pytest

from repro.cli import add_logging_arguments, configure_logging


@pytest.fixture
def clean_repro_logger():
    """Snapshot and restore the package logger around each test."""
    logger = logging.getLogger("repro")
    state = (logger.level, list(logger.handlers), logger.propagate)
    yield logger
    logger.level, logger.handlers[:], logger.propagate = state


def parse(*argv: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    add_logging_arguments(parser)
    return parser.parse_args(list(argv))


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
        assert configure_logging(parse(*argv)).level == level

    def test_extreme_counts_are_clamped(self, clean_repro_logger):
        assert configure_logging(verbose=9).level == logging.DEBUG
        assert configure_logging(quiet=9).level == logging.CRITICAL

    def test_repeated_configuration_never_stacks_handlers(
            self, clean_repro_logger):
        # The test suite calls entry-point main()s repeatedly in one
        # process; each reconfiguration must adjust the level, not add
        # another handler (which would multiply every log line).
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


class TestEntryPointsShareTheFlags:
    def test_conformance_list_verbose(self, clean_repro_logger, capsys):
        from repro.conformance import main
        assert main(["--list", "-v"]) == 0
        assert "churn_ours" in capsys.readouterr().out
        assert logging.getLogger("repro").level == logging.INFO

    def test_baseline_list_quiet(self, clean_repro_logger, capsys):
        from repro.bench.baseline import main
        assert main(["--list", "-q"]) == 0
        assert "capacity" in capsys.readouterr().out
        assert logging.getLogger("repro").level == logging.ERROR

    def test_obs_cli_accepts_the_flags(self, clean_repro_logger, tmp_path,
                                       capsys):
        from repro.obs import write_jsonl
        from repro.obs.__main__ import main
        path = str(tmp_path / "events.jsonl")
        write_jsonl([{"t": 0.0, "kind": "job.submitted"}], path)
        assert main(["-v", "summarize", path]) == 0
        assert logging.getLogger("repro").level == logging.INFO


def test_baseline_main_drives_the_real_backend_writer(
        clean_repro_logger, monkeypatch, capsys):
    import repro.bench.baseline as baseline
    calls = []
    violations = iter([0, 2])

    def fake_writer(path, **options):
        # Stands in for the matrix run, so no OS process is started.
        calls.append((path, options))
        return {"rows": [{}, {}, {}], "oracle_violations": next(violations)}

    monkeypatch.setattr(baseline, "write_real_backend_baseline", fake_writer)
    assert baseline.main(["--scenario", "figure9",
                          "--scenario", "remote_counter",
                          "--time-scale", "0.5", "--wall-timeout", "30",
                          "--obs-dir", "real-obs",
                          "--output", "matrix.json"]) == 0
    assert baseline.main([]) == 1     # any oracle violation fails the run
    assert calls == [
        ("matrix.json", {"scenarios": ["figure9", "remote_counter"],
                         "time_scale": 0.5, "wall_timeout": 30.0,
                         "obs_dir": "real-obs"}),
        ("BENCH_realbackend.json", {"scenarios": None, "time_scale": 0.02,
                                    "wall_timeout": 120.0, "obs_dir": None}),
    ]
    assert "3 real-backend rows, 2 oracle violations" in \
        capsys.readouterr().out
