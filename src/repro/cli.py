"""The command line: ``python -m repro COMMAND``, one subcommand table.

* ``check`` — re-run the conformance cases and fail on digest drift;
* ``list`` — the case catalogue, the scenario coverage and the registry;
* ``explore run`` — a seeded fault-space sweep, failing plans shrunk;
* ``obs {summarize,convert,diff}`` — read exported traces;
* ``real`` — the real-backend smoke matrix on OS processes.

Each command imports the library it drives when it runs, so ``--help``
and the trace readers never load the scenario engine.  ``-v`` / ``-q``
(repeatable) go before the command and move the ``repro`` logger from
its default WARNING one level per flag.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import List, Optional

#: Marks the handler this module installed, so it is never added twice.
_HANDLER_NAME = "repro-cli"


class _CurrentStderrHandler(logging.StreamHandler):
    """A stream handler bound to the *current* ``sys.stderr``.

    A plain ``StreamHandler(sys.stderr)`` would keep writing to a stream
    the test suite's output capture has since swapped out.
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler.__init__ assigns; ignore.
        pass


def configure_logging(verbose: int = 0, quiet: int = 0) -> logging.Logger:
    """Set the package ``repro`` logger's level; install its handler once.

    Each ``-v`` lowers the level one step from WARNING, each ``-q``
    raises it (clamped to DEBUG..CRITICAL); a second call only adjusts
    the level, so repeated ``main()`` calls never multiply log lines.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(max(logging.DEBUG, min(
        logging.CRITICAL, logging.WARNING + 10 * (quiet - verbose))))
    if not any(handler.get_name() == _HANDLER_NAME
               for handler in logger.handlers):
        handler = _CurrentStderrHandler()
        handler.set_name(_HANDLER_NAME)
        handler.setFormatter(logging.Formatter(
            "%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
        # Propagation stays on: the CLI leaves the root logger alone, and
        # embedders that configure it (pytest's log capture) see records.
    return logger


def _print_json(document) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


def cmd_check(arguments) -> int:
    import contextlib

    from . import conformance, obs

    names = arguments.case or conformance.case_names()
    unknown = sorted(set(names) - set(conformance.CASES))
    if unknown:
        arguments.error(f"unknown case(s): {', '.join(unknown)}")
    # With --obs one ambient capture adopts every system the cases build;
    # the digests must still match, as observation never perturbs a run.
    ambient = obs.capture(obs.ObsConfig()) if arguments.obs \
        else contextlib.nullcontext()
    with ambient:
        if arguments.regenerate:
            for path in conformance.regenerate(names, arguments.fixtures):
                print(f"wrote {path}")
            return 0
        problems = conformance.check(names, arguments.fixtures)
    bytecode = conformance.tracked_bytecode()
    if bytecode:
        problems.append(f"tracked bytecode: {', '.join(sorted(bytecode))}")
    if problems:
        for problem in problems:
            print(f"CONFORMANCE FAILURE: {problem}", file=sys.stderr)
        return 1
    print(f"{len(names)} conformance case(s) OK"
          + ("" if bytecode is None else "; no tracked bytecode"))
    return 0


def registry_listing() -> List[str]:
    """Every scenario and traffic action: what ``list`` ends with.

    Name, grid size, description, declared parameters and — for
    real-capable scenarios — the OS-process nodes.
    """
    from .bench.engine import REGISTRY
    from .workload.registry import ACTIONS

    lines: List[str] = [f"Scenarios ({len(REGISTRY)}):"]
    for name in REGISTRY.names():
        scenario = REGISTRY.get(name)
        lines.append(f"  {name}  [{len(scenario.grid)} grid point(s)]")
        if scenario.description:
            lines.append(f"      {scenario.description}")
        lines.append(f"      params: {scenario.describe_params()}")
        if scenario.nodes:
            lines.append(f"      nodes: {', '.join(scenario.nodes)} "
                         f"(runs on the real backend)")
    lines.append("")
    lines.append(f"Traffic actions ({len(ACTIONS)}):")
    for name in ACTIONS.names():
        spec = ACTIONS.get(name)
        lines.append(f"  {name}  [{type(spec).__name__}: "
                     f"width={spec.width}, mean_service={spec.mean_service}, "
                     f"raise_probability={spec.raise_probability}, "
                     f"weight={spec.weight}]")
        lines.append(f"      params: {ACTIONS.describe_params(name)}")
    return lines


def cmd_list(arguments) -> int:
    from .bench.engine import REGISTRY
    from .conformance import CASES, COVERAGE_EXEMPT, covered_scenarios

    for name, case in CASES.items():
        scenarios = ", ".join(scenario for scenario, _ in case.runs)
        print(f"{name:24s} {scenarios:28s} {case.note}")
    print()
    covered = covered_scenarios()
    print("Scenario coverage:")
    for scenario in REGISTRY.names():
        if scenario in covered:
            status = "gated"
        elif scenario in COVERAGE_EXEMPT:
            status = f"exempt ({COVERAGE_EXEMPT[scenario]})"
        else:
            status = "UNGATED — add a case or an exemption"
        print(f"  {scenario:20s} {status}")
    print()
    for line in registry_listing():
        print(line)
    return 0


#: ``--kinds`` vocabularies in :mod:`repro.explore.generator`: delays
#: (full oracle catalogue) or the failure storm (liveness waived).
KINDS = {"delay": "DEFAULT_KINDS", "storm": "STORM_KINDS"}


def _kinds(name: str):
    from .explore import generator
    return getattr(generator, KINDS[name])


def _write_reproducers(reproducers, directory: str) -> List[str]:
    from .obs import write_flight_dump

    os.makedirs(directory, exist_ok=True)
    paths = []
    for number, record in enumerate(reproducers):
        path = os.path.join(directory, f"test_reproducer_{number}.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(record["source"])
        paths.append(path)
        # The failing run's flight-recorder timeline rides next to the
        # ready-to-paste test (`python -m repro obs summarize` reads it).
        if record.get("flight"):
            flight_path = os.path.join(
                directory, f"test_reproducer_{number}.flight.jsonl")
            write_flight_dump(record["flight"], flight_path)
            paths.append(flight_path)
    return paths


def cmd_run(arguments) -> int:
    """Sweep ``--budget`` seeded plans; exit 1 on any oracle violation.

    The sweep runs on the engine's ``explore`` scenario in chunks of
    ``EXPLORE_CHUNK_SIZE`` plans, and each failing plan is shrunk into a
    pytest reproducer (one per reduced plan).  Without ``--parallel`` the
    chunks run in this process outside the engine's sweep-wide collector
    pause, so each case's cyclic garbage is collected before the next.
    """
    import hashlib

    from .bench.engine import EXPLORE_CHUNK_SIZE, run_scenario
    from .explore import TARGETS, ExplorationPlan
    from .explore.explorer import explore_chunk
    from .explore.shrink import shrink_to_reproducers

    if arguments.target not in TARGETS:
        arguments.error(f"unknown target {arguments.target!r} "
                        f"(targets: {', '.join(sorted(TARGETS))})")
    if arguments.budget < 1:
        arguments.error("--budget must be >= 1")
    points = [{"target": arguments.target, "seed": arguments.seed,
               "start": start,
               "stop": min(start + EXPLORE_CHUNK_SIZE, arguments.budget),
               "kinds": _kinds(arguments.kinds)}
              for start in range(0, arguments.budget, EXPLORE_CHUNK_SIZE)]
    if arguments.parallel:
        rows = run_scenario("explore", points=points, parallel=True)
    else:
        rows = [explore_chunk(**point) for point in points]
    failing = [ExplorationPlan.from_dict(plan) for row in rows
               for plan in row["failing_plans"]]
    reproducers = shrink_to_reproducers(arguments.target, failing)
    summary = {
        "target": arguments.target,
        "seed": arguments.seed,
        "kinds": arguments.kinds,
        "executed": sum(row["cases"] for row in rows),
        "failures": len(failing),
        "violations": [violation for row in rows
                       for violation in row["violations"]],
        "reproducers": len(reproducers),
        "digest": hashlib.sha256("".join(
            row["digest"] for row in rows).encode("ascii")).hexdigest(),
    }
    if arguments.reproducers and reproducers:
        summary["reproducer_files"] = _write_reproducers(
            reproducers, arguments.reproducers)
    _print_json(summary)
    return 1 if failing else 0


def cmd_summarize(arguments) -> int:
    from .obs.export import summarize_path

    _print_json(summarize_path(arguments.file))
    return 0


def cmd_convert(arguments) -> int:
    from .obs.export import chrome_trace, load_trace

    form, payload = load_trace(arguments.file)
    if form == "chrome":
        print(f"{arguments.file} is already a Chrome trace", file=sys.stderr)
        return 2
    doc = chrome_trace([record for record in payload
                        if record.get("kind") != "flight.header"])
    with open(arguments.output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True)
    print(f"wrote {arguments.output} "
          f"({len(doc['traceEvents'])} trace events)")
    return 0


def cmd_diff(arguments) -> int:
    from .obs.export import diff_summaries, summarize_path

    delta = diff_summaries(summarize_path(arguments.a),
                           summarize_path(arguments.b))
    _print_json(delta)
    return 1 if delta else 0


#: Bump when the ``BENCH_realbackend.json`` row layout changes
#: incompatibly.
SCHEMA_VERSION = 1

#: Every real-capable scenario runs under each resolution algorithm.
REAL_BACKEND_ALGORITHMS = ("ours", "campbell-randell", "romanovsky96")


def cmd_real(arguments) -> int:
    """Run the real-capable scenarios on OS processes; write the rows.

    Rows are oracle-gated, not digest-gated: wall-clock pacing makes a
    real run's interleavings non-reproducible, but the paper's
    invariants must hold on every one of them.
    """
    import platform

    from .bench.engine import REGISTRY
    from .real.backend import RealBackend

    capable = sorted(scenario.name for scenario in REGISTRY
                     if scenario.nodes)
    names = arguments.scenario or capable
    unknown = sorted(set(names) - set(capable))
    if unknown:
        arguments.error(f"not real-capable: {', '.join(unknown)} "
                        f"(real-capable: {', '.join(capable)})")
    backend = RealBackend(time_scale=arguments.time_scale,
                          wall_timeout=arguments.wall_timeout)
    points = [{"algorithm": algorithm, "iterations": 1}
              for algorithm in REAL_BACKEND_ALGORITHMS]
    rows = []
    for name in names:
        for index, point in enumerate(points):
            result = backend.run(name, **point)
            if arguments.obs_dir is not None:
                _write_run_events(result, arguments.obs_dir,
                                  f"{name}-{index}.events.jsonl")
            rows.append({"scenario": name, **result.row(point)})
    violations = sum(row["n_violations"] for row in rows)
    with open(arguments.output, "w", encoding="utf-8") as handle:
        json.dump({"schema": SCHEMA_VERSION,
                   "python": platform.python_version(),
                   "backend": "real",
                   "time_scale": arguments.time_scale,
                   "rows": rows,
                   "oracle_violations": violations},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {arguments.output}: {len(rows)} real-backend rows, "
          f"{violations} oracle violations")
    return 1 if violations else 0


def _write_run_events(result, directory: str, filename: str) -> None:
    """One run's bridged obs events as JSONL, each line naming its node.

    CI uploads these as the post-mortem artifact when a real run fails
    its oracles.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, filename), "w",
              encoding="utf-8") as handle:
        for node, record in sorted(result.records.items()):
            for event in record.get("obs_events", ()):
                handle.write(json.dumps({"node": node, **event},
                                        sort_keys=True, default=str) + "\n")


def _arg(*flags, **options):
    return flags, options


#: ``name -> (help, handler, *arguments)``; a command group holds the
#: table of its own commands in place of the handler.
COMMANDS = {
    "check": (
        "re-run the conformance cases; fail on digest drift", cmd_check,
        _arg("--case", action="append", metavar="NAME",
             help="restrict to one case (repeatable; default: all)"),
        _arg("--fixtures", metavar="DIR",
             help="fixture directory (default: tests/conformance/fixtures)"),
        _arg("--obs", action="store_true",
             help="run under an ambient repro.obs capture (digests must "
                  "not move)"),
        _arg("--regenerate", action="store_true",
             help="rewrite the fixtures instead of checking them")),
    "list": ("list the cases, the scenario coverage and the registry",
             cmd_list),
    "explore": ("fault-space exploration", {
        "run": (
            "seeded fault-plan sweep; failing plans shrunk to reproducers",
            cmd_run,
            _arg("--target", default="nested_abort",
                 help="exploration target (default: nested_abort)"),
            _arg("--seed", type=int, default=2026,
                 help="sampling seed (default: 2026)"),
            _arg("--budget", type=int, default=200,
                 help="executed runs (default: 200)"),
            _arg("--kinds", choices=sorted(KINDS), default="storm",
                 help="fault vocabulary (default: storm)"),
            _arg("--reproducers", metavar="DIR",
                 help="write auto-shrunk pytest reproducers here"),
            _arg("--parallel", action="store_true",
                 help="fan chunks over the scenario engine's process pool")),
    }),
    "obs": ("summarize, convert, and diff exported traces", {
        "summarize": ("event counts, span outcomes, time range",
                      cmd_summarize,
                      _arg("file", help="JSONL or Chrome trace file")),
        "convert": ("JSONL events → Chrome trace_event JSON", cmd_convert,
                    _arg("file", help="JSONL trace or flight dump"),
                    _arg("-o", "--output", required=True,
                         help="output trace_event JSON path")),
        "diff": ("differing summary leaves of two trace files", cmd_diff,
                 _arg("a", help="first trace file"),
                 _arg("b", help="second trace file")),
    }),
    "real": (
        "run the real-backend smoke matrix on OS processes", cmd_real,
        _arg("--scenario", action="append", metavar="NAME",
             help="restrict to this real-capable scenario (repeatable)"),
        _arg("--time-scale", type=float, default=0.02,
             help="wall seconds per unit of virtual time (default 0.02)"),
        _arg("--wall-timeout", type=float, default=120.0,
             help="wall-clock cap per run; children are killed on expiry"),
        _arg("--obs-dir",
             help="write each run's bridged obs events as JSONL here"),
        _arg("--output", default="BENCH_realbackend.json",
             help="output path (default: BENCH_realbackend.json)")),
}


def _add_commands(parser: argparse.ArgumentParser, table) -> None:
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    for name, (help_text, handler, *arguments) in table.items():
        sub = commands.add_parser(name, help=help_text,
                                  description=help_text)
        if isinstance(handler, dict):
            _add_commands(sub, handler)
            continue
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        # ``arguments.error`` is a usage error (exit 2) on this command.
        sub.set_defaults(func=handler, error=sub.error)


def build_parser() -> argparse.ArgumentParser:
    """One root parser: the logging flags, then :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Coordinated exception handling in distributed object "
                    "systems: conformance, exploration, traces, and the "
                    "real backend.")
    group = parser.add_argument_group("logging")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="more logging (-v: info, -vv: debug)")
    group.add_argument("-q", "--quiet", action="count", default=0,
                       help="less logging (-q: errors only, "
                            "-qq: critical only)")
    _add_commands(parser, COMMANDS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)
    configure_logging(arguments.verbose, arguments.quiet)
    return arguments.func(arguments)
