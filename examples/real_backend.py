"""The same protocol code on two execution backends.

Any real-capable scenario of the one registry
(``repro.bench.engine.REGISTRY``; ``python -m repro list`` shows their
nodes) runs either all-local on the deterministic sim kernel
(``repro.bench.scenarios.run_sim``) or as one OS process per node over
TCP sockets with wall-clock pacing (``repro.real.RealBackend``).
Parameters are the scenario's declared grid-point parameters, validated
before anything is built.  This example:

1. runs the paper's Experiment 1 application (``figure9``) on both
   backends and shows the oracle verdicts and (action, status) outcome
   counts agree;
2. runs the ``remote_counter`` scenario, whose external atomic object
   lives on a dedicated ``objhost`` process reached via RPC proxies;
3. kills a node mid-run to show degraded quiescence: the survivors are
   finalized, liveness oracles are waived, safety oracles still hold.

Run with:  PYTHONPATH=src python examples/real_backend.py
"""

from repro.bench import REGISTRY
from repro.bench.scenarios import run_sim
from repro.real import RealBackend


def show(label, result):
    verdict = "ok" if result.ok else "ORACLE VIOLATIONS"
    print(f"  {label:28s} {verdict:18s} outcomes={result.outcomes}")
    for violation in result.violations:
        print(f"    {violation}")


def main() -> None:
    print("real-capable scenarios:", ", ".join(
        f"{scenario.name} (nodes {'/'.join(scenario.nodes)})"
        for scenario in REGISTRY if scenario.nodes), "\n")

    # -- 1. figure9 on both backends -----------------------------------
    print("figure9 (algorithm=ours, 1 iteration):")
    sim = run_sim("figure9", iterations=1)
    real = RealBackend(time_scale=0.01).run("figure9", iterations=1)
    show("sim", sim)
    show("real (3 processes)", real)
    print("  parity:", "outcomes match" if real.outcomes == sim.outcomes
          else "OUTCOMES DIVERGE")

    # -- 2. remote atomic objects --------------------------------------
    # Two worker processes run the CA action; the account object lives on
    # the objhost process, reached through RemoteTransaction RPC proxies.
    print("\nremote_counter (2 workers + 1 object host):")
    real = RealBackend(time_scale=0.01).run("remote_counter", iterations=2)
    show("real (3 processes)", real)
    counter = real.record.counters[0]
    print(f"  host counter: {counter['initial']} -> {counter['final']} "
          f"({counter['committed_writers']} committed writers)")

    # -- 3. crash injection --------------------------------------------
    print("\nfigure9 with T3 killed at 0.4s wall time:")
    real = RealBackend(time_scale=0.05, stall=1.0).run(
        "figure9", iterations=3, kill=("T3", 0.4))
    show("real, degraded", real)
    print(f"  crashed={real.crashed}  surviving records from "
          f"{sorted(real.records)}")


if __name__ == "__main__":
    main()
