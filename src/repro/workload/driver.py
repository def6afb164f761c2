"""The workload driver: many concurrent CA-action instances over one pool.

The paper's experiments execute one coordinated-recovery episode at a
time; a deployed system serves many overlapping action instances.  The
:class:`WorkloadDriver` turns a :class:`~repro.runtime.system.
DistributedCASystem` into exactly that:

* a **shared partition pool** — each pool partition runs a long-lived
  worker program that serves one role of one instance at a time;
* **per-instance placement** — each admitted job is placed on the first
  free workers (deterministic natural order) and given an
  *instance-scoped* role binding
  (:meth:`~repro.runtime.system.DistributedCASystem.bind_instance`), so
  instances of the *same* action definition overlap freely on disjoint
  worker subsets; every participant executes
  ``perform_action(..., instance=key)`` with the driver-allocated key, so
  entry barriers, LEi records, resolution and signalling all coordinate
  per ``(action, instance)``;
* an :class:`~repro.workload.admission.AdmissionController` bounding
  in-flight instances with a FIFO queue and drop/retry backpressure;
* **measurement** — per-instance latency (arrival → conclusion of the
  last participant) into mergeable
  :class:`~repro.analysis.histograms.LatencyHistogram` buckets, queueing
  delay, throughput, and observed concurrency (max and time-weighted
  mean).

The driver keeps state for the instances in flight, not for every
instance served: once a job settles (completed or dropped) it lives on
only in counters and histograms, and the :class:`Job` itself is freed by
reference counting unless the caller kept what :meth:`WorkloadDriver.
submit` returned.  The system's :class:`~repro.runtime.metrics.
RunMetrics` likewise counts outcomes instead of listing them.

Everything runs in deterministic virtual time; a ``(system build, seed,
arrival process)`` triple reproduces the run byte for byte.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.histograms import LatencyHistogram
from ..core.state import thread_order_key
from ..runtime import events as kinds
from ..runtime.system import DistributedCASystem, SystemConfigurationError
from ..simkernel.channels import Mailbox
from ..simkernel.events import Event
from ..simkernel.rng import SeededStreams
from .actions import ActionMix, JobProfile, TrafficActionSpec
from .admission import DISPATCH, DROP, QUEUE, RETRY, AdmissionController
from .arrivals import ArrivalProcess

#: Sentinel delivered to a worker inbox to end its program.
_STOP = object()


@dataclass(slots=True)
class Job:
    """One submitted action instance, from arrival to conclusion."""

    index: int
    action: str
    width: int
    roles: Tuple[str, ...]
    instance: str
    arrived_at: float
    profile: JobProfile
    completion: Event
    #: Number of admission offers so far (first offer sets it to 1).
    attempts: int = 0
    dispatched_at: Optional[float] = None
    completed_at: Optional[float] = None
    outcome: str = "pending"          # "completed" | "dropped"
    #: Final per-role statuses (ActionStatus values), in conclusion order.
    statuses: List[str] = field(default_factory=list)
    workers: Tuple[str, ...] = ()
    pending_roles: int = 0

    @property
    def latency(self) -> Optional[float]:
        """Arrival → conclusion of the last participant (None if dropped)."""
        if self.outcome != "completed" or self.completed_at is None:
            return None
        return self.completed_at - self.arrived_at

    @property
    def wait(self) -> Optional[float]:
        """Arrival → dispatch (time spent in admission)."""
        if self.dispatched_at is None:
            return None
        return self.dispatched_at - self.arrived_at


@dataclass(slots=True)
class WorkloadReport:
    """Aggregated result of one driver run (all fields JSON-friendly)."""

    jobs: int
    completed: int
    dropped: int
    total_time: float
    throughput: float
    max_concurrency: int
    mean_concurrency: float
    latency: Dict[str, Any]
    wait: Dict[str, Any]
    latency_histogram: Dict[str, Any]
    latency_by_action: Dict[str, Dict[str, Any]]
    outcome_counts: Dict[str, int]
    admission: Dict[str, int]
    admission_config: Dict[str, Any]
    arrivals: str
    metrics: Dict[str, Any]

    def to_row(self) -> Dict[str, Any]:
        """Flatten the headline numbers into one benchmark row."""
        row: Dict[str, Any] = {
            "jobs": self.jobs,
            "completed": self.completed,
            "dropped": self.dropped,
            "total_time": self.total_time,
            "throughput": self.throughput,
            "max_concurrency": self.max_concurrency,
            "mean_concurrency": self.mean_concurrency,
        }
        for name, value in self.latency.items():
            row[f"latency_{name}"] = value
        for name, value in self.wait.items():
            row[f"wait_{name}"] = value
        row["outcomes"] = dict(self.outcome_counts)
        row["admission"] = dict(self.admission)
        return row


class WorkloadDriver:
    """Drives seeded traffic through a shared pool of partitions."""

    def __init__(self, system: DistributedCASystem,
                 pool: Optional[Sequence[str]] = None,
                 admission: Optional[AdmissionController] = None,
                 seed: int = 0,
                 release_instances: bool = True) -> None:
        self.system = system
        self.kernel = system.kernel
        self.admission = admission or AdmissionController()
        self.streams = SeededStreams(seed)
        self.seed = int(seed)
        self.release_instances = release_instances
        self.mix = ActionMix()
        # Emissions read ``system.observation`` (``None`` = observability
        # off) when they happen, so attach order does not matter to them;
        # only the timeline gauges need an observation attached by now.
        if system.observation is not None:
            system.observation.register_driver(self)

        pool_names = list(pool) if pool is not None \
            else sorted(system.partitions, key=thread_order_key)
        if not pool_names:
            raise SystemConfigurationError("the worker pool is empty")
        for name in pool_names:
            if name not in system.partitions:
                raise SystemConfigurationError(
                    f"pool names unknown thread {name!r}")
        self.pool: Tuple[str, ...] = tuple(
            sorted(pool_names, key=thread_order_key))
        self._free: List[str] = list(self.pool)
        self._inboxes: Dict[str, Mailbox] = {}
        for name in self.pool:
            self._inboxes[name] = Mailbox(self.kernel)
            system.spawn(name, self._make_worker(name))
        self._stopped = False
        # Outcomes are counted, not listed: a soak must not keep one
        # ActionOutcome per participation.
        system.metrics.keep_details = False

        # Counters, not a job list: a settled job leaves nothing behind.
        self._submitted = 0
        self._completed = 0
        self._dropped = 0
        self._first_arrival: Optional[float] = None
        self._by_instance: Dict[str, Job] = {}
        self._outstanding = 0
        self._drained: Optional[Event] = None

        self.latency_histogram = LatencyHistogram()
        self.wait_histogram = LatencyHistogram()
        self.latency_by_action: Dict[str, LatencyHistogram] = {}
        self.outcome_counts: Dict[str, int] = {}
        self.max_concurrency = 0
        self._busy_integral = 0.0
        self._last_change = self.kernel.now
        self._arrivals_description = ""

    # ------------------------------------------------------------------
    # Workload definition
    # ------------------------------------------------------------------
    def add_action(self, spec: Union[TrafficActionSpec, str],
                   **overrides) -> TrafficActionSpec:
        """Register a spec in the system registry and the driver's mix.

        ``spec`` is either a :class:`TrafficActionSpec` instance or the
        name of a template registered with
        :data:`~repro.workload.registry.ACTIONS`; a name is resolved with
        the (validated) field ``overrides`` applied, so scenarios can say
        ``driver.add_action("Serve", width=3)``.  The action definition
        itself comes from :meth:`TrafficActionSpec.build`, which is how
        spec subclasses plug custom role bodies into the same path.
        """
        if isinstance(spec, str):
            from .registry import ACTIONS
            spec = ACTIONS.resolve(spec, **overrides)
        elif overrides:
            raise TypeError("overrides are only valid with a registered "
                            "action name, not a spec instance")
        if spec.width > len(self.pool):
            raise SystemConfigurationError(
                f"action {spec.name!r} needs {spec.width} workers but the "
                f"pool has {len(self.pool)}")
        self.system.define_action(spec.build(self))
        return self.mix.add(spec)

    def profile_for(self, instance: str) -> JobProfile:
        """The pre-drawn profile of the job running as ``instance``."""
        return self._by_instance[instance].profile

    # ------------------------------------------------------------------
    # Submission and placement
    # ------------------------------------------------------------------
    def submit(self, action: Optional[str] = None) -> Job:
        """Submit one job now; returns it (with its ``completion`` event).

        The completion fires with the job's ``outcome`` once it settles.
        The driver keeps no reference to a settled job: a caller that
        wants the timeline keeps the jobs this returns.
        """
        spec = self.mix.get(action) if action else self.mix.pick(self.streams)
        index = self._submitted
        job = Job(
            index=index,
            action=spec.name,
            width=spec.width,
            roles=spec.role_names,
            instance=f"{spec.name}@{index:06d}",
            arrived_at=self.kernel.now,
            profile=spec.draw_profile(self.streams, index),
            completion=self.kernel.event(),
        )
        self._submitted += 1
        if self._first_arrival is None:
            self._first_arrival = job.arrived_at
        self._by_instance[job.instance] = job
        self._outstanding += 1
        if self.system.observation is not None:
            self.system.observation.job_event(kinds.JOB_SUBMITTED, job)
        self._offer(job)
        return job

    def _offer(self, job: Job) -> None:
        decision = self.admission.offer(
            job, placeable=len(self._free) >= job.width)
        obs = self.system.observation
        if decision == DISPATCH:
            self._dispatch(job)
        elif decision == RETRY:
            if obs is not None:
                obs.job_event(kinds.ADMISSION_RETRY, job,
                              attempts=job.attempts)
            retry = self.kernel.timeout(self.admission.retry_delay)
            retry.callbacks.append(lambda _event, j=job: self._offer(j))
        elif decision == DROP:
            if obs is not None:
                obs.job_event(kinds.ADMISSION_DROPPED, job)
            self._finalize_drop(job)
        else:
            assert decision == QUEUE  # parked inside the controller
            if obs is not None:
                obs.job_event(kinds.ADMISSION_QUEUED, job,
                              queue_depth=len(self.admission.queue))

    def _dispatch(self, job: Job) -> None:
        workers = self._free[:job.width]
        del self._free[:job.width]
        binding = dict(zip(job.roles, workers))
        self.system.bind_instance(job.instance, job.action, binding)
        job.workers = tuple(workers)
        job.dispatched_at = self.kernel.now
        job.pending_roles = job.width
        self._note_concurrency(+1)
        self.admission.job_dispatched(job)
        if self.system.observation is not None:
            self.system.observation.job_event(
                kinds.JOB_DISPATCHED, job, in_flight=self.admission.in_flight)
        for role, worker in binding.items():
            self._inboxes[worker].deliver((job, role))

    def _pump(self) -> None:
        """Dispatch queued jobs while slots and workers allow."""
        while True:
            job = self.admission.pop_placeable(
                lambda j: len(self._free) >= j.width)
            if job is None:
                return
            self._dispatch(job)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _make_worker(self, name: str):
        def worker(ctx):
            inbox = self._inboxes[name]
            served = 0
            while True:
                item = yield inbox.get()
                if item is _STOP:
                    return served
                job, role = item
                report = yield from ctx.perform_action(
                    job.action, role, instance=job.instance)
                served += 1
                self._role_concluded(job, report)
        return worker

    def _role_concluded(self, job: Job, report) -> None:
        status = report.status.value
        job.statuses.append(status)
        self.outcome_counts[status] = self.outcome_counts.get(status, 0) + 1
        job.pending_roles -= 1
        if job.pending_roles > 0:
            return
        job.completed_at = self.kernel.now
        job.outcome = "completed"
        self._note_concurrency(-1)
        self.latency_histogram.record(job.latency or 0.0)
        self.wait_histogram.record(job.wait or 0.0)
        per_action = self.latency_by_action.setdefault(job.action,
                                                       LatencyHistogram())
        per_action.record(job.latency or 0.0)
        # The free list is kept sorted at all times (placement takes its
        # prefix), so returning workers is two ordered insertions, not a
        # rebuild-and-sort of the whole pool.  thread_order_key is a total
        # order, so the result is identical to re-sorting.
        for worker in job.workers:
            insort(self._free, worker, key=thread_order_key)
        self.admission.job_finished(job)
        if self.system.observation is not None:
            self.system.observation.job_event(
                kinds.JOB_COMPLETED, job, status="completed",
                latency=job.latency or 0.0)
        if self.release_instances:
            self.system.release_instance(job.instance)
        # The instance lookup is only needed between dispatch and the last
        # conclusion (profile_for from the role bodies); prune it so a
        # long soak does not grow by one entry per instance ever served.
        del self._by_instance[job.instance]
        self._completed += 1
        self._settle(job)
        self._pump()

    def _finalize_drop(self, job: Job) -> None:
        job.outcome = "dropped"
        job.completed_at = self.kernel.now
        if self.system.observation is not None:
            self.system.observation.job_event(kinds.JOB_DROPPED, job)
        del self._by_instance[job.instance]
        self._dropped += 1
        self._settle(job)

    def _settle(self, job: Job) -> None:
        # The completion fires with the outcome, not the job: an event
        # whose value is the job that holds it is a reference cycle, and
        # a settled job must be freed by reference counting.
        job.completion.succeed(job.outcome)
        self._outstanding -= 1
        if self._outstanding == 0 and self._drained is not None and \
                not self._drained.triggered:
            self._drained.succeed()

    def _note_concurrency(self, delta: int) -> None:
        self._flush_concurrency()
        if delta > 0:
            self.max_concurrency = max(self.max_concurrency,
                                       self.admission.in_flight + delta)

    def _flush_concurrency(self) -> None:
        """Accumulate the busy-time integral up to the current instant."""
        now = self.kernel.now
        self._busy_integral += self.admission.in_flight * \
            (now - self._last_change)
        self._last_change = now

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def run(self, arrivals: ArrivalProcess,
            stop_workers: bool = True) -> WorkloadReport:
        """Run ``arrivals`` to completion and return the aggregated report.

        Spawns the arrival processes, lets the simulation drain every
        submitted job (completed or dropped), then — unless
        ``stop_workers=False`` — retires the worker programs so
        ``system.run_to_completion`` semantics and the explorer's
        quiescence checks hold afterwards.
        """
        self._arrivals_description = arrivals.describe()
        sources = [self.kernel.process(generator, name=f"arrivals:{i}")
                   for i, generator in enumerate(arrivals.processes(self))]
        self.kernel.run(until=self.kernel.all_of(sources))
        while self._outstanding:
            self._drained = self.kernel.event()
            self.kernel.run(until=self._drained)
            self._drained = None
        if stop_workers:
            self.stop_workers()
            self.kernel.run()
        return self.report()

    def stop_workers(self) -> None:
        """Deliver the stop sentinel to every worker inbox (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        for name in self.pool:
            self._inboxes[name].deliver(_STOP)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> WorkloadReport:
        """Aggregate the run so far into a :class:`WorkloadReport`."""
        # Flush the busy integral so a mid-run report counts the interval
        # since the last dispatch/conclusion, not just completed intervals.
        self._flush_concurrency()
        completed = self._completed
        total_time = self.kernel.now
        elapsed = total_time - (self._first_arrival or 0.0)
        return WorkloadReport(
            jobs=self._submitted,
            completed=completed,
            dropped=self._dropped,
            total_time=total_time,
            throughput=(completed / elapsed if elapsed > 0 else 0.0),
            max_concurrency=self.max_concurrency,
            mean_concurrency=(self._busy_integral / elapsed
                              if elapsed > 0 else 0.0),
            latency=self.latency_histogram.summary(),
            wait=self.wait_histogram.summary(),
            latency_histogram=self.latency_histogram.snapshot(),
            latency_by_action={name: histogram.summary()
                               for name, histogram
                               in sorted(self.latency_by_action.items())},
            outcome_counts=dict(sorted(self.outcome_counts.items())),
            admission=self.admission.stats.snapshot(),
            admission_config=self.admission.describe(),
            arrivals=self._arrivals_description,
            metrics=self.system.metrics.counters(),
        )

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """The run's mergeable telemetry as one plain, picklable dict.

        Everything a shard of a :class:`~repro.workload.sharding.
        ShardedPool` ships back to the orchestrating process: scalar
        counters plus :meth:`~repro.analysis.histograms.LatencyHistogram.
        snapshot` payloads for the latency and wait histograms — no live
        objects, so the value crosses process boundaries and merges
        identically wherever the shard ran.
        """
        report = self.report()
        return {
            "jobs": report.jobs,
            "completed": report.completed,
            "dropped": report.dropped,
            "total_time": report.total_time,
            "throughput": report.throughput,
            "max_concurrency": report.max_concurrency,
            "mean_concurrency": report.mean_concurrency,
            "latency": report.latency,
            "wait": report.wait,
            "latency_histogram": report.latency_histogram,
            "wait_histogram": self.wait_histogram.snapshot(),
            "admission": report.admission,
            "outcome_counts": report.outcome_counts,
        }

    def __repr__(self) -> str:
        return (f"<WorkloadDriver pool={len(self.pool)} "
                f"jobs={self._submitted} in_flight={self.admission.in_flight}>")
