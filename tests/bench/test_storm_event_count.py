"""A count gate on the message path: kernel events per storm iteration.

Virtual-time runs repeat their counts exactly on any host, so a bound on
kernel events per iteration is a perf gate that host load cannot flip.
Each delivered message costs one kernel event (its delivery, inside which
the receiver consumes it); the rest of an iteration is the life cycle's
own waits and wake-ups.
"""

from repro.bench import scenarios

#: Kernel events per steady-state iteration of the default storm (8
#: threads, 794-node graph): 217 when a receiver consumes each envelope
#: inside its delivery event, 391 when every delivery also woke the
#: receiver's dispatcher process through a second event.
EVENTS_PER_ITERATION = 218
#: Messages per iteration, which the delivery step must not change.
MESSAGES_PER_ITERATION = 175


def test_a_storm_iteration_stays_within_its_kernel_event_budget(monkeypatch):
    systems = []
    build = scenarios.build_wide_graph

    def recording_build(*args):
        systems.append(build(*args))
        return systems[-1]

    monkeypatch.setattr(scenarios, "build_wide_graph", recording_build)
    counts = {}
    for iterations in (2, 4):
        row = scenarios.run_wide_graph(iterations=iterations)
        assert row["recovered"] == 8 * iterations
        counts[iterations] = (next(systems[-1].kernel._eid),
                              row["message_stats"]["sent"])
    # The difference of two run lengths leaves out the set-up's events.
    events = (counts[4][0] - counts[2][0]) / 2
    messages = (counts[4][1] - counts[2][1]) / 2
    assert messages == MESSAGES_PER_ITERATION
    assert events <= EVENTS_PER_ITERATION
