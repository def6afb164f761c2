"""The life-cycle event seam: one ``system.emit`` per protocol point.

One scenario exercises every action/signal kind but
``signal.stale_dropped``: T1–T3 run ``Outer``; T2/T3 nest ``Inner``, T2
raises and resolves there, T1's outer exception aborts ``Inner`` (T3's
abortion handler signals a residue), and the outer handlers finish at
different times — so toBeSignalled proposals park — with T1's signalling
the interface exception ``eps``.
"""

from collections import Counter

from repro import obs
from repro.core.action import CAActionDefinition, RoleDefinition
from repro.core.exception_graph import generate_full_graph
from repro.core.exceptions import interface, internal
from repro.core.handlers import HandlerMap, HandlerResult
from repro.runtime.monitor import InvariantMonitor
from repro.net.latency import ConstantLatency
from repro.runtime import events as kinds
from repro.runtime import DistributedCASystem, RuntimeConfig
from repro.runtime.metrics import RunMetrics
from repro.worlds import delay_handler, install_action

OUTER_FAULT = internal("outer_fault")
ABORT_RESIDUE = internal("abort_residue")
INNER_FAULT = internal("inner_fault")
EPS = interface("eps")

INSTANCES = {"Outer": "Outer#1", "Inner": "Outer#1/Inner#1"}
RESOLVED = "abort_residue&outer_fault"

#: What an ambient capture recorded for this scenario at the commit
#: before the seam (probe bus + ``PROBE_KINDS``), for the nine kinds that
#: existed then: ``(t, kind, thread, action[, kind-specific fields])``.
GOLDEN = [
    (0.1, "action.entered", "T2", "Outer"),
    (0.1, "action.entered", "T3", "Outer"),
    (0.1, "action.entered", "T1", "Outer"),
    (0.3, "action.entered", "T3", "Inner"),
    (0.3, "action.entered", "T2", "Inner"),
    (1.3, "action.raised", "T2", "Inner", dict(exception="inner_fault")),
    (1.5, "action.resolved", "T2", "Inner",
     dict(exception="inner_fault", resolver="T2")),
    (1.6, "action.resolved", "T3", "Inner",
     dict(exception="inner_fault", resolver="T2")),
    (2.1, "action.raised", "T1", "Outer", dict(exception="outer_fault")),
    (2.2, "action.aborting", "T2", "Inner"),
    (2.2, "action.aborting", "T3", "Inner"),
    (5.2, "action.abortion_completed", "T2", "Inner",
     dict(resume_action="Outer", signalled=None)),
    (5.2, "action.concluded", "T2", "Inner",
     dict(status="aborted", resolved=None, signalled="phi")),
    (5.2, "action.abortion_completed", "T3", "Inner",
     dict(resume_action="Outer", signalled="abort_residue")),
    (5.2, "action.concluded", "T3", "Inner",
     dict(status="aborted", resolved=None, signalled="phi")),
    (5.3, "action.resolved", "T3", "Outer",
     dict(exception=RESOLVED, resolver="T3")),
    (5.4, "action.resolved", "T1", "Outer",
     dict(exception=RESOLVED, resolver="T3")),
    (5.4, "action.resolved", "T2", "Outer",
     dict(exception=RESOLVED, resolver="T3")),
    (5.7, "signal.parked", "T2", "Outer"),
    (5.7, "signal.parked", "T3", "Outer"),
    (6.1, "signal.parked", "T3", "Outer"),
    (6.3, "action.concluded", "T3", "Outer",
     dict(status="recovered", resolved=RESOLVED, signalled="phi")),
    (6.4, "action.signalled", "T1", "Outer", dict(exception="eps")),
    (6.4, "action.concluded", "T1", "Outer",
     dict(status="signalled", resolved=RESOLVED, signalled="eps")),
    (6.4, "action.concluded", "T2", "Outer",
     dict(status="recovered", resolved=RESOLVED, signalled="phi")),
]
NEW_KINDS = (kinds.ACTION_SUSPENDED, kinds.ACTION_HANDLING)


def build_system():
    system = DistributedCASystem(RuntimeConfig(abort_time=3.0),
                                 latency=ConstantLatency(0.1))
    system.add_threads(["T1", "T2", "T3"])

    def signalling_handler(ctx):
        yield ctx.delay(0.2)
        return HandlerResult.signal(EPS)

    def signal_residue(ctx):
        return HandlerResult.signal(ABORT_RESIDUE)

    def inner_raiser(ctx):
        yield ctx.delay(1.0)
        ctx.raise_exception(INNER_FAULT)

    def inner_worker(ctx):
        yield ctx.delay(50.0)

    slow = delay_handler(10.0)
    inner = CAActionDefinition(
        "Inner",
        [RoleDefinition("b2", inner_raiser, HandlerMap(default_handler=slow)),
         RoleDefinition("b3", inner_worker,
                        HandlerMap(abortion_handler=signal_residue,
                                   default_handler=slow))],
        internal_exceptions=[INNER_FAULT],
        graph=generate_full_graph([INNER_FAULT], action_name="Inner"),
        parent="Outer")

    def outer_raiser(ctx):
        yield ctx.delay(2.0)
        ctx.raise_exception(OUTER_FAULT)

    def nesting_role(role):
        def body(ctx):
            yield ctx.delay(0.1)
            return (yield from ctx.perform_nested("Inner", role))
        return body

    outer = CAActionDefinition(
        "Outer",
        [RoleDefinition("a1", outer_raiser,
                        HandlerMap(default_handler=signalling_handler)),
         RoleDefinition("a2", nesting_role("b2"),
                        HandlerMap(default_handler=delay_handler(0.6))),
         RoleDefinition("a3", nesting_role("b3"),
                        HandlerMap(default_handler=delay_handler(1.0)))],
        internal_exceptions=[OUTER_FAULT, ABORT_RESIDUE],
        interface_exceptions=[EPS],
        graph=generate_full_graph([OUTER_FAULT, ABORT_RESIDUE],
                                  action_name="Outer"))
    system.define_action(inner)
    system.bind("Inner", {"b2": "T2", "b3": "T3"})
    install_action(system, outer, {"a1": "T1", "a2": "T2", "a3": "T3"},
                   iterations=None)
    return system


def run(captured: bool):
    """One run; returns ``(system, monitor, life-cycle events or None)``."""
    if not captured:
        system = build_system()
        monitor = InvariantMonitor(system)
        system.run()
        return system, monitor, None
    with obs.capture() as cap:
        system = build_system()
        monitor = InvariantMonitor(system)
        system.run()
    return system, monitor, [event for event in cap.events()
                             if kinds.category(event["kind"]) == "action"]


def test_every_life_cycle_kind_but_stale_drop_is_emitted():
    _, _, events = run(captured=True)
    expected = {kind for kind, category in kinds.CATEGORIES.items()
                if category == "action"} - {kinds.SIGNAL_STALE_DROPPED}
    assert {event["kind"] for event in events} == expected


def test_run_metrics_count_exactly_what_the_obs_stream_holds():
    system, _, events = run(captured=True)
    counts = Counter(event["kind"] for event in events)
    metrics = system.metrics
    assert metrics.exceptions_raised == counts[kinds.ACTION_RAISED] == 2
    assert metrics.suspensions == counts[kinds.ACTION_SUSPENDED] == 5
    assert metrics.handlers_invoked == counts[kinds.ACTION_HANDLING] == 5
    assert metrics.abortions == counts[kinds.ACTION_ABORTING] == 2
    assert sum(metrics.signalled.values()) == \
        counts[kinds.ACTION_SIGNALLED] == 1
    # ``resolved`` is emitted per delivery; a resolution is the resolver's.
    assert metrics.resolutions == sum(
        1 for event in events if event["kind"] == kinds.ACTION_RESOLVED
        and event["resolver"] == event["thread"]) == 2
    assert len(metrics.action_outcomes) == counts[kinds.ACTION_CONCLUDED] == 5
    assert [(o.action, o.outcome, o.signalled, round(o.started_at, 6),
             round(o.finished_at, 6)) for o in metrics.action_outcomes] == [
        ("Inner", "aborted", None, 0.3, 5.2),
        ("Inner", "aborted", None, 0.3, 5.2),
        ("Outer", "recovered", None, 0.1, 6.3),
        ("Outer", "signalled", "eps", 0.1, 6.4),
        ("Outer", "recovered", None, 0.1, 6.4)]


def test_metrics_and_monitor_do_not_depend_on_an_ambient_capture():
    plain_system, plain_monitor, _ = run(captured=False)
    seen_system, seen_monitor, _ = run(captured=True)
    assert plain_system.metrics.snapshot() == seen_system.metrics.snapshot()
    assert plain_monitor.check() == seen_monitor.check() == []
    assert plain_monitor.resolutions == seen_monitor.resolutions
    assert plain_monitor.outcomes == seen_monitor.outcomes


def test_pre_seam_kinds_are_recorded_field_for_field_and_in_order():
    _, _, events = run(captured=True)
    golden = []
    for t, kind, thread, action, *extra in GOLDEN:
        golden.append([("t", t), ("kind", kind), ("thread", thread),
                       ("action", action), ("instance", INSTANCES[action]),
                       *(extra[0].items() if extra else ())])
    recorded = [[(key, round(value, 6) if key == "t" else value)
                 for key, value in event.items()]
                for event in events if event["kind"] not in NEW_KINDS]
    assert recorded == golden


def test_subscribers_see_live_objects_and_the_emitting_instant():
    system = build_system()
    assert system.subscribers == [system.metrics.on_event]
    seen = []
    system.subscribe(lambda *call: seen.append(call))
    system.run()
    kind, now, thread, action, instance, data = next(
        call for call in seen if call[0] == kinds.ACTION_SIGNALLED)
    assert (round(now, 6), thread, action, instance) == \
        (6.4, "T1", "Outer", "Outer#1")
    assert data == {"exception": EPS}


def test_a_fresh_metrics_object_replays_the_run_from_the_seam():
    system = build_system()
    replay = RunMetrics()
    system.subscribe(replay.on_event)
    system.run()
    assert replay.snapshot() == system.metrics.snapshot()
