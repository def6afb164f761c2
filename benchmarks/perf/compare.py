#!/usr/bin/env python3
"""Compare two result documents of ``run.py``: A is the base, B the change.

    python3 benchmarks/perf/compare.py A.json B.json

One row per (workload, metric): each side's median with quartiles, the
ratio B/A (base A), the bound from ``BENCHMARK.json`` and a verdict:

* ``better`` / ``worse`` — B's median moved past A's by more than the
  run-to-run spread (better) or the metric's bound (worse);
* ``unchanged`` — within the bound;
* ``unresolved`` — the spread of either side, or the host's canary drift
  during either run, is wider than the bound, so the bound cannot be
  checked (reported instead of ``worse`` or ``unchanged`` unless every
  sample of B reads better than every sample of A).

Exact metrics (virtual-time quantities) and ``result_digest`` are compared
for equality.  Exits non-zero on any ``worse`` row, any exact difference,
or a higher failed count.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def relative_spread(entry: Dict[str, Any]) -> float:
    """Distance between the quartiles as a share of the median."""
    return (entry["q3"] - entry["q1"]) / entry["median"]


def verdict(base: Dict[str, Any], change: Dict[str, Any], better: str,
            bound: float, drift: float) -> str:
    """The verdict for one bounded metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (change["median"] - base["median"]) / base["median"]
    spread = max(relative_spread(base), relative_spread(change))
    # A single sample (peak_rss_mb) has no spread to beat: never "better".
    repeated = len(base["samples"]) > 1
    if max(spread, drift) > bound:
        all_better = repeated and all(
            sign * (b - a) > 0
            for a in base["samples"] for b in change["samples"])
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if repeated and gain > relative_spread(base):
        return "better"
    return "unchanged"


def quartet(entry: Dict[str, Any]) -> str:
    return f"{entry['median']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"


def drift_of(entry: Dict[str, Any]) -> float:
    """How far the canary moved during the run, as a share."""
    return abs(entry["canary"]["drift"] - 1.0)


def compare(base: Dict[str, Any], change: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Rows of the comparison table, and whether B is acceptable."""
    lines: List[str] = []
    acceptable = True
    header = (f"{'workload':15s} {'metric':18s} {'A median [q1, q3]':>34s} "
              f"{'B median [q1, q3]':>34s} {'B/A':>7s} {'bound':>6s} verdict")
    lines.append(header)

    for workload in (entry["name"] for entry in spec["workloads"]):
        a = base["workloads"].get(workload)
        b = change["workloads"].get(workload)
        if a is None or b is None:
            lines.append(f"{workload:15s} missing from "
                         f"{'A' if a is None else 'B'}")
            acceptable = False
            continue
        drift = max(drift_of(a), drift_of(b))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ea, eb = a["end_to_end"][name], b["end_to_end"][name]
            outcome = verdict(ea, eb, metric["better"], metric["bound"],
                              drift)
            acceptable &= outcome != "worse"
            lines.append(
                f"{workload:15s} {name:18s} {quartet(ea):>34s} "
                f"{quartet(eb):>34s} {eb['median'] / ea['median']:7.3f} "
                f"{metric['bound']:6.2f} {outcome}")
        exact_b = {**b["exact"], "result_digest": b["result_digest"]}
        for name, value in {**a["exact"],
                            "result_digest": a["result_digest"]}.items():
            other = exact_b.get(name)
            same = value == other
            acceptable &= same
            shown = (f"{str(value)[:16]:>34s} {str(other)[:16]:>34s}"
                     if not same else f"{str(value)[:16]:>34s} {'=':>34s}")
            lines.append(f"{workload:15s} {name:18s} {shown} "
                         f"{'':7s} {'exact':>6s} "
                         f"{'equal' if same else 'DIFFERENT'}")
        if b["failed"] > a["failed"]:
            acceptable = False
            lines.append(f"{workload:15s} failed units rose: {a['failed']} "
                         f"of {a['attempted']} -> {b['failed']} of "
                         f"{b['attempted']}")
        lines.append(f"{workload:15s} canary drift A "
                     f"{a['canary']['drift']:.3f}  B "
                     f"{b['canary']['drift']:.3f}")
    return lines, acceptable


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, change = load(arguments[0]), load(arguments[1])
    for key in ("schema", "seed", "seconds", "quick"):
        if base[key] != change[key]:
            print(f"not comparable: {key} is {base[key]!r} in A and "
                  f"{change[key]!r} in B", file=sys.stderr)
            return 2
    lines, acceptable = compare(
        base, change, load(os.path.join(ROOT, "BENCHMARK.json")))
    print("\n".join(lines))
    print("no regression" if acceptable else "REGRESSION (see rows above)")
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
