"""The verdict rules of ``benchmarks/ab.py`` on synthetic series (no runs)."""

from ab import bound_verdict, gain, quartiles, wins

PARENT = [2.0, 2.1, 2.2, 2.0, 2.1, 2.3, 2.2, 2.0, 2.1, 2.2]


def test_quartiles_of_a_short_series():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_win_on_every_pair_is_a_gain():
    change = [value - 0.4 for value in PARENT]
    assert wins(PARENT, change, "lower") == 10
    assert gain(PARENT, change, "lower")
    # The same series read as "higher is better" is a loss.
    assert not gain(PARENT, change, "higher")


def test_nine_of_ten_suffices_and_ties_count_for_neither_side():
    change = [value - 0.4 for value in PARENT]
    change[3] = PARENT[3]
    assert wins(PARENT, change, "lower") == 9
    assert gain(PARENT, change, "lower")
    change[4] = PARENT[4]
    assert wins(PARENT, change, "lower") == 8
    assert not gain(PARENT, change, "lower")


def test_winning_every_pair_inside_the_parent_spread_is_no_gain():
    change = [value - 0.05 for value in PARENT]
    assert wins(PARENT, change, "lower") == 10
    q1, _, q3 = quartiles(PARENT)
    assert q3 - q1 > 0.05
    assert not gain(PARENT, change, "lower")


def test_a_gain_with_more_failed_runs_than_the_parent_does_not_count():
    change = [value - 0.4 for value in PARENT]
    assert gain(PARENT, change, "lower", bad_parent=0, bad_change=0)
    assert gain(PARENT, change, "lower", bad_parent=2, bad_change=1)
    assert gain(PARENT, change, "lower", bad_parent=1, bad_change=1)
    assert not gain(PARENT, change, "lower", bad_parent=0, bad_change=1)


def test_higher_is_better_metrics():
    change = [value + 0.5 for value in PARENT]
    assert gain(PARENT, change, "higher")
    assert bound_verdict(PARENT, change, "higher", 0.2) == "ok"


def test_bound_verdicts():
    assert bound_verdict(PARENT, PARENT, "lower", 0.2) == "ok"
    worse = [value * 1.3 for value in PARENT]
    assert bound_verdict(PARENT, worse, "lower", 0.2) == "worse"
    assert bound_verdict(PARENT, worse, "higher", 0.2) == "ok"
    # A parent spread wider than the bound cannot tell "no worse" ...
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert bound_verdict(noisy, [1.6] * 6, "lower", 0.2) == "unresolved"
    # ... unless every change run beats every parent run.
    assert bound_verdict(noisy, [0.9] * 6, "lower", 0.2) == "ok"
