"""Experiment E5 — the Lemma 1 completion-time bound.

Lemma 1 bounds the time any thread needs to complete exception handling:

    T ≤ (2·n_max + 3)·Tmmax + n_max·Tabort + (n_max + 1)(Treso + Δmax)

The experiment-1 scenario (one nesting level, an abort, two exceptions and a
joint resolution) is run for one iteration across a grid of parameters; the
measured completion time — total virtual time minus the normal-computation
prefix — must stay below the bound in every configuration.
"""

import pytest

from repro.analysis import TimingParameters, lemma1_completion_bound
from repro.bench import run_experiment1
from repro.bench.reporting import format_table
from repro.worlds import HANDLER_TIME, NORMAL_COMPUTATION_TIME

#: Extra slack for the parts of the run the bound does not model: the entry
#: barrier of the outermost action and the signalling phase after handling.
_SETUP_AND_SIGNALLING_MARGIN = 3  # message rounds


def _grid():
    for t_msg in (0.1, 0.5, 1.0, 2.0):
        for t_abort in (0.1, 0.5, 1.5):
            for t_reso in (0.1, 0.5, 1.5):
                yield t_msg, t_abort, t_reso


@pytest.mark.benchmark(group="lemma1")
def test_lemma1_bound_holds(benchmark, report):
    rows = []
    for t_msg, t_abort, t_reso in _grid():
        result = run_experiment1(t_msg, t_abort, t_reso, iterations=1)
        params = TimingParameters(t_msg_max=t_msg, t_resolution=t_reso,
                                  t_abort=t_abort,
                                  t_handler_max=HANDLER_TIME,
                                  max_nesting=1)
        bound = lemma1_completion_bound(params)
        # Remove the parts Lemma 1 does not model: the normal computation
        # before the exception and the entry/signalling rounds.
        measured = (result.total_time - NORMAL_COMPUTATION_TIME
                    - _SETUP_AND_SIGNALLING_MARGIN * t_msg)
        rows.append({"t_msg": t_msg, "t_abort": t_abort, "t_reso": t_reso,
                     "exception_handling_time": round(measured, 3),
                     "lemma1_bound": round(bound, 3),
                     "within_bound": measured <= bound + 1e-9})
        assert measured <= bound + 1e-9, (
            f"Lemma 1 violated for Tmmax={t_msg}, Tabort={t_abort}, "
            f"Treso={t_reso}: measured {measured:.3f} > bound {bound:.3f}")

    report("Lemma 1 — measured exception-handling time vs analytic bound "
           "(n_max = 1)", format_table(rows))

    benchmark.pedantic(run_experiment1, args=(0.5, 0.5, 0.5),
                       kwargs={"iterations": 1}, rounds=3, iterations=1)


@pytest.mark.benchmark(group="lemma1")
def test_bound_is_not_vacuous(benchmark, report):
    """The bound should be of the same order as the measurement, not 100×."""
    t_msg, t_abort, t_reso = 1.0, 1.0, 1.0
    result = run_experiment1(t_msg, t_abort, t_reso, iterations=1)
    params = TimingParameters(t_msg_max=t_msg, t_resolution=t_reso,
                              t_abort=t_abort, t_handler_max=HANDLER_TIME,
                              max_nesting=1)
    bound = lemma1_completion_bound(params)
    measured = result.total_time - NORMAL_COMPUTATION_TIME
    ratio = bound / measured
    assert 0.3 <= ratio <= 10, \
        f"bound/measured ratio {ratio:.2f} suggests a mis-modelled scenario"

    report("Lemma 1 — tightness check (Tmmax = Tabort = Treso = 1.0)",
           f"measured: {measured:.3f} s, bound: {bound:.3f} s, "
           f"ratio {ratio:.2f}")
    benchmark.pedantic(run_experiment1, args=(1.0, 1.0, 1.0),
                       kwargs={"iterations": 1}, rounds=3, iterations=1)
