"""One process pool: ``parallel_map`` and the three callers that fan out
through it (engine sweeps, sharded shards, ``explore run --parallel``).

Each fallback rule is one test parametrised over the helper and its
callers.  A fake executor stands in for ``ProcessPoolExecutor`` where a
test needs to see the pool's size or make it fail; no test starts a real
pool of more than 2 workers.
"""

from __future__ import annotations

import contextlib
import io
import logging
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench.engine import ScenarioRegistry, run_scenario
from repro.cli import main
from repro.runtime.system import parallel_map
from repro.workload.sharding import ShardedPool, ShardPlan

POOL = "concurrent.futures.process.ProcessPoolExecutor"
LOGGER = "repro.runtime.system"
PARENT = os.getpid()


def square(n):
    return {"n": n, "square": n * n}


def exit_in_worker(n):
    if os.getpid() != PARENT:
        os._exit(1)
    return square(n)


def fail_on_two(n):
    if n == 2:
        raise ValueError("runner failed on n=2")
    return square(n)


def _helper(workers, fn=square):
    return parallel_map(fn, [{"n": n} for n in (1, 2, 3)], workers)


def _engine(workers, fn=square):
    registry = ScenarioRegistry()
    registry.register("square", grid=[{"n": n} for n in (1, 2, 3)])(fn)
    return run_scenario("square", registry=registry, workers=workers), None


def _shards(workers):
    result = ShardedPool(pool_size=4, workers=workers).run(
        ShardPlan(seed=1, n_shards=2, n_instances=20, offered_load=4.0))
    return result["per_shard"], result["executor"]


def _cli(workers):
    argv = ["explore", "run", "--budget", "30"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv + ["--parallel"] if workers > 1 else argv) == 0
    return out.getvalue(), None


#: Each caller run at a worker count: ``(results, executor label)``.  The
#: engine and the CLI report no label; the CLI's result is its summary.
CALLERS = {"helper": _helper, "engine": _engine, "shards": _shards,
           "cli": _cli}


@pytest.fixture
def fake_pool(monkeypatch):
    """Install a fake executor; returns the ``max_workers`` it was given.

    ``"run"`` runs every point in this process, ``"oserror"`` fails at
    creation, ``"broken"`` fails every result as a dead worker does.
    """
    sizes = []

    def install(mode="run"):
        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)
                if mode == "oserror":
                    raise OSError("no semaphores here")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, **point):
                future = Future()
                if mode == "broken":
                    future.set_exception(BrokenProcessPool("a worker died"))
                    return future
                try:
                    future.set_result(fn(**point))
                except Exception as error:
                    future.set_exception(error)
                return future

        monkeypatch.setattr(POOL, FakePool)
        # --parallel then asks for more workers than the CLI has chunks.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        return sizes
    return install


def _warnings(caplog):
    return [record.getMessage() for record in caplog.records
            if record.name == LOGGER and record.levelno >= logging.WARNING]


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("mode", ["oserror", "broken"])
def test_a_pool_that_fails_falls_back_with_equal_results(
        caller, mode, fake_pool, caplog):
    reference, _ = CALLERS[caller](0)
    fake_pool(mode)
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        results, executor = CALLERS[caller](2)
    assert results == reference
    assert executor in (None, "sequential")
    [warning] = _warnings(caplog)
    assert "falling back" in warning


def test_a_worker_that_dies_mid_run_falls_back(caplog):
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        results, executor = _helper(2, exit_in_worker)
    assert (results, executor) == _helper(0)
    [warning] = _warnings(caplog)
    assert "terminated abruptly" in warning


@pytest.mark.parametrize("caller", [_helper, _engine])
def test_an_unpicklable_fn_runs_in_process(caller, fake_pool, caplog):
    offset = 10

    def closure(n):
        return {"n": n + offset}

    sizes = fake_pool()
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        results, executor = caller(2, closure)
    assert results == [{"n": 11}, {"n": 12}, {"n": 13}]
    assert executor in (None, "sequential")
    assert sizes == []
    assert len(_warnings(caplog)) == 1


def test_an_exception_fn_raises_propagates(fake_pool, caplog):
    fake_pool()
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        with pytest.raises(ValueError, match="n=2"):
            _helper(2, fail_on_two)
    assert _warnings(caplog) == []


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("workers", [0, 1])
def test_at_most_one_worker_never_constructs_an_executor(
        caller, workers, fake_pool):
    sizes = fake_pool()
    _, executor = CALLERS[caller](workers)
    assert sizes == []
    assert executor in (None, "sequential")


def test_one_point_never_constructs_an_executor(fake_pool):
    sizes = fake_pool()
    assert parallel_map(square, [{"n": 3}], 8) == ([square(3)],
                                                  "sequential")
    assert run_scenario("large_n", points=[{"n_threads": 3}],
                        workers=8)[0]["n_threads"] == 3
    assert sizes == []


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_the_worker_count_is_capped_at_the_points(caller, fake_pool):
    # Three helper/engine points, two shards, two CLI chunks (25 + 5).
    sizes = fake_pool()
    assert CALLERS[caller](8)[0] == CALLERS[caller](0)[0]
    assert sizes == [2 if caller in ("shards", "cli") else 3]

