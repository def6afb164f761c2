"""The scenario registry's listing, pinned line for line.

``registry_listing()`` is what ``python -m repro list`` ends with:
every scenario's grid size, description, declared params (its runner's
real signature) and nodes, then every traffic action.  A change to any
runner's signature or to the declaration table shows up here as a
golden diff.  Regenerate only when the listing is meant to change (the
block starts at the ``Scenarios (`` line)::

    PYTHONPATH=src python -m repro list | sed -n '/^Scenarios (/,$p' \
        > tests/bench/registry_listing.txt
"""

from pathlib import Path

from repro import cli

GOLDEN = Path(__file__).with_name("registry_listing.txt").read_text(
    encoding="utf-8")


def test_listing_matches_the_golden():
    assert "\n".join(cli.registry_listing()) + "\n" == GOLDEN


def test_list_ends_with_the_block(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out.endswith("\n" + GOLDEN)
