"""Driving traffic through the workload subsystem and reading the capacity curve.

This example:

1. builds a system with a shared pool of 8 worker partitions and drives
   open-loop Poisson traffic (one action definition, 10% faulty instances)
   through the :class:`~repro.workload.driver.WorkloadDriver`;
2. shows the same pool under closed-loop clients;
3. sweeps the offered load through the scenario engine's ``capacity``
   scenario and locates the saturation knee.

Run with:  PYTHONPATH=src python examples/workload_capacity.py
"""

from repro.bench import format_table, run_scenario
from repro.net.latency import ConstantLatency
from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedCASystem
from repro.workload import (
    AdmissionController,
    ClosedLoopClients,
    OpenLoopPoisson,
    TrafficActionSpec,
    WorkloadDriver,
)
from repro.workload.scenarios import saturation_knee


def build_driver(seed: int) -> WorkloadDriver:
    system = DistributedCASystem(RuntimeConfig(resolution_time=0.05),
                                 latency=ConstantLatency(0.02))
    system.add_threads([f"W{i:02d}" for i in range(1, 9)])
    driver = WorkloadDriver(
        system, seed=seed,
        admission=AdmissionController(max_in_flight=None, queue_capacity=32,
                                      policy="drop"))
    driver.add_action(TrafficActionSpec("Serve", width=2, mean_service=1.0,
                                        raise_probability=0.1))
    return driver


def main() -> None:
    # -- 1. open-loop traffic ------------------------------------------
    driver = build_driver(seed=2026)
    report = driver.run(OpenLoopPoisson(rate=2.0, count=200))
    print("Open-loop Poisson, 200 instances at offered load 2.0:")
    print(f"  completed={report.completed} dropped={report.dropped} "
          f"throughput={report.throughput:.2f}/s")
    print(f"  latency p50={report.latency['p50']:.2f} "
          f"p99={report.latency['p99']:.2f} "
          f"max concurrency={report.max_concurrency}")

    # -- 2. closed-loop clients ----------------------------------------
    driver = build_driver(seed=2027)
    report = driver.run(ClosedLoopClients(n_clients=4, think_time=0.5,
                                          jobs_per_client=25))
    print("\nClosed-loop, 4 clients x 25 jobs, think time 0.5:")
    print(f"  completed={report.completed} "
          f"throughput={report.throughput:.2f}/s "
          f"mean concurrency={report.mean_concurrency:.2f}")

    # -- 3. the capacity sweep and its knee ----------------------------
    rows = run_scenario("capacity", workers=2)
    columns = ["offered_load", "throughput", "latency_p50", "latency_p99",
               "dropped", "max_concurrency"]
    print("\n" + format_table(
        [{c: row[c] for c in columns} for row in rows],
        title="capacity: offered load vs throughput/latency"))
    knee = saturation_knee(rows)
    print(f"\nSaturation knee: offered load {knee['knee_offered_load']} "
          f"(throughput {knee['knee_throughput']:.2f}/s, "
          f"p99 {knee['knee_latency_p99']:.2f}); "
          f"saturated loads: {knee['saturated_loads']}")


if __name__ == "__main__":
    main()
