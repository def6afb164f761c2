"""The scenario registry's ``--list`` view, pinned line for line.

``registry_listing()`` is what ``python -m repro.bench.baseline --list``
prints and what ``python -m repro.conformance --list`` ends with: every
scenario's grid size, description, declared params (its runner's real
signature) and nodes, then every traffic action.  A change to any
runner's signature or to the declaration table shows up here as a
golden diff.  Regenerate only when the listing is meant to change::

    PYTHONPATH=src python -m repro.bench.baseline --list \
        > tests/bench/registry_listing.txt
"""

from pathlib import Path

from repro import conformance
from repro.bench import baseline

GOLDEN = Path(__file__).with_name("registry_listing.txt").read_text(
    encoding="utf-8")


def test_listing_matches_the_golden():
    assert "\n".join(baseline.registry_listing()) + "\n" == GOLDEN


def test_both_clis_print_the_same_block(capsys):
    assert baseline.main(["--list"]) == 0
    assert capsys.readouterr().out == GOLDEN
    assert conformance.main(["--list"]) == 0
    assert capsys.readouterr().out.endswith("\n" + GOLDEN)
