"""A/B of one benchmark workload: this checkout against another revision.

Unpacks ``--against`` with ``git archive`` into a temporary directory and
runs ``benchmarks/perf/run.py --workload W`` there and in this checkout,
``--pairs`` times, alternating which side runs first.  Prints every pair,
each side's median and quartiles per end-to-end metric of
``BENCHMARK.json``, and two verdicts per metric:

* **gain** — the change wins at least nine tenths of the pairs (ties count
  for neither side), the medians differ, in the better direction, by
  more than the parent's interquartile range, and the change has no more
  incorrect or failed runs than the parent;
* **bound** — ``worse`` when the change's median is worse than the
  parent's by more than the metric's bound, ``unresolved`` when the
  parent's own spread (IQR over median) is wider than that bound and not
  every change run beats every parent run, otherwise ``ok``.

::

    python3 benchmarks/ab.py --against HEAD~1 --workload raise_storm \\
        --pairs 10 --seed 2026

``run.py`` is called unchanged, each run in a fresh interpreter with
``--trace 0`` and its own run window.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(series: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` of ``series`` (inclusive method)."""
    if len(series) == 1:
        return series[0], series[0], series[0]
    q1, median, q3 = statistics.quantiles(series, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: Sequence[float], change: Sequence[float],
         better: str) -> int:
    """Pairs in which the change reads strictly better (ties count for
    neither side)."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def gain(parent: Sequence[float], change: Sequence[float], better: str,
         bad_parent: int = 0, bad_change: int = 0) -> bool:
    """The rule a claimed gain must meet on ``parent`` / ``change`` pairs,
    which had ``bad_parent`` / ``bad_change`` incorrect or failed runs."""
    if bad_change > bad_parent:
        return False
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    ahead = (p_median - c_median if better == "lower"
             else c_median - p_median)
    return (10 * wins(parent, change, better) >= 9 * len(parent)
            and ahead > p_q3 - p_q1)


def bound_verdict(parent: Sequence[float], change: Sequence[float],
                  better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok`` against a relative ``bound``."""
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    worse_by = ((c_median - p_median) if better == "lower"
                else (p_median - c_median)) / p_median
    if worse_by > bound:
        return "worse"
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if (p_q3 - p_q1) / p_median > bound and not all_better:
        return "unresolved"
    return "ok"


def unpack(revision: str, directory: str) -> None:
    """Write ``git archive <revision>`` of this repository into
    ``directory``."""
    archive = subprocess.Popen(["git", "archive", revision], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", directory], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {revision} failed")


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One fresh ``run.py --workload`` in ``tree``; its JSON result line."""
    command = [sys.executable, "benchmarks/perf/run.py", "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=tree, env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True,
                        help="revision to compare this checkout against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    series: Dict[str, Dict[str, List[float]]] = {
        side: {m["name"]: [] for m in metrics}
        for side in ("parent", "change")}
    bad = {"parent": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="ab-") as parent_tree:
        unpack(args.against, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else (
                "change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed)
                bad[side] += (not result["correct"]) + result["failed"]
                for name in series[side]:
                    series[side][name].append(
                        result["metrics"][name]["value"])
            print(f"pair {pair + 1:2d} ({order[0]} first): " + "  ".join(
                f"{m['name']} {series['parent'][m['name']][-1]:.4g} -> "
                f"{series['change'][m['name']][-1]:.4g}" for m in metrics),
                flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"against {args.against}; incorrect or failed: parent "
          f"{bad['parent']}, change {bad['change']}")
    print(f"{'metric':16s} {'parent q1/median/q3':>28s} "
          f"{'change q1/median/q3':>28s} {'wins':>6s} {'gain':>5s} bound")
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent, change = series["parent"][name], series["change"][name]
        p, c = quartiles(parent), quartiles(change)
        gained = gain(parent, change, better, bad["parent"], bad["change"])
        print(f"{name:16s} {p[0]:8.4g} {p[1]:9.4g} {p[2]:9.4g} "
              f"{c[0]:8.4g} {c[1]:9.4g} {c[2]:9.4g} "
              f"{wins(parent, change, better):3d}/{len(parent):<2d} "
              f"{'yes' if gained else 'no':>5s} "
              f"{bound_verdict(parent, change, better, metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
