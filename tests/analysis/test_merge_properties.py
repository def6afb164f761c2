"""Merge algebra of the telemetry types.

A :class:`~repro.workload.sharding.ShardedPool` relies on merged
telemetry being independent of how the work was sharded and in which
order the shards were folded in.  These are randomized-split property
tests of exactly that contract, for every mergeable telemetry type:

* **union equality** — merging per-shard telemetry equals telemetry
  recorded over the undivided sample set, for every random partition;
* **commutativity** — folding shards in any order gives the same result
  (lists as multisets, float sums approximately);
* **associativity** — grouping does not matter: ``(a + b) + c``
  equals ``a + (b + c)``.

Integer counters must match exactly; floating-point sums only to
``pytest.approx`` (addition order differs between groupings); outcome
lists as multisets (concatenation order differs between fold orders).
"""

import random

import pytest

from repro.analysis.histograms import LatencyHistogram
from repro.net.network import MessageStatistics
from repro.runtime import events as kinds
from repro.runtime.metrics import ActionOutcome, RunMetrics
from repro.workload.admission import AdmissionStats
from tests.conftest import feed, feed_outcome

SEEDS = (7, 2026, 90125)
SHARD_COUNTS = (1, 2, 3, 5)


def partition(items, n_shards, rng):
    """Randomly assign every item to one of ``n_shards`` buckets."""
    buckets = [[] for _ in range(n_shards)]
    for item in items:
        buckets[rng.randrange(n_shards)].append(item)
    return buckets


# ----------------------------------------------------------------------
# LatencyHistogram
# ----------------------------------------------------------------------
def histogram_of(samples):
    histogram = LatencyHistogram()
    histogram.record_many(samples)
    return histogram


def assert_histograms_match(merged, reference):
    ours, theirs = merged.snapshot(), reference.snapshot()
    assert ours["buckets"] == theirs["buckets"]
    assert ours["count"] == theirs["count"]
    assert ours["min"] == theirs["min"]
    assert ours["max"] == theirs["max"]
    assert ours["sum"] == pytest.approx(theirs["sum"])


class TestLatencyHistogramMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_merged_shards_equal_union(self, seed, n_shards):
        rng = random.Random(seed)
        samples = [rng.expovariate(1.0) for _ in range(400)]
        merged = LatencyHistogram()
        for bucket in partition(samples, n_shards, rng):
            merged.merge(histogram_of(bucket))
        assert_histograms_match(merged, histogram_of(samples))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_commutative(self, seed):
        rng = random.Random(seed)
        a, b = (histogram_of([rng.expovariate(1.0) for _ in range(100)])
                for _ in range(2))
        ab, ba = LatencyHistogram(), LatencyHistogram()
        ab.merge(a), ab.merge(b)
        ba.merge(b), ba.merge(a)
        assert ab.snapshot() == ba.snapshot()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_associative(self, seed):
        rng = random.Random(seed)
        a, b, c = (histogram_of([rng.expovariate(1.0) for _ in range(60)])
                   for _ in range(3))
        left = LatencyHistogram()
        left.merge(a), left.merge(b)
        left_c = LatencyHistogram()
        left_c.merge(left), left_c.merge(c)
        bc = LatencyHistogram()
        bc.merge(b), bc.merge(c)
        right = LatencyHistogram()
        right.merge(a), right.merge(bc)
        assert_histograms_match(left_c, right)

    def test_merge_accepts_snapshots_and_instances(self):
        a = histogram_of([0.5, 1.0])
        via_snapshot, via_instance = LatencyHistogram(), LatencyHistogram()
        via_snapshot.merge(a.snapshot())
        via_instance.merge(a)
        assert via_snapshot.snapshot() == via_instance.snapshot()


# ----------------------------------------------------------------------
# RunMetrics
# ----------------------------------------------------------------------
EXCEPTIONS = ("EDiskFull", "ETimeout", "EBadInput")
ACTIONS = ("Serve", "Transfer")


#: The counted life-cycle kinds, and whether each carries an exception.
COUNTED_KINDS = ((kinds.ACTION_RAISED, True), (kinds.ACTION_SUSPENDED, False),
                 (kinds.ACTION_RESOLVED, True), (kinds.ACTION_HANDLING, True),
                 (kinds.ACTION_ABORTING, False), (kinds.ACTION_SIGNALLED, True))


def random_metrics_events(rng, n_events):
    """A list of ``feed`` argument tuples to replay into RunMetrics."""
    events = []
    for index in range(n_events):
        kind, has_exception = COUNTED_KINDS[rng.randrange(6)]
        exception = rng.choice(EXCEPTIONS)
        action = rng.choice(ACTIONS)
        thread = f"W{rng.randrange(8):03d}"
        now = round(rng.uniform(0.0, 100.0), 3)
        events.append((kind, thread, action, now,
                       exception if has_exception else None))
    return events


def metrics_of(events, outcomes=()):
    metrics = RunMetrics()
    for event in events:
        feed(metrics.on_event, *event)
    for outcome in outcomes:
        feed_outcome(metrics.on_event, outcome.action, outcome.outcome,
                     outcome.signalled, outcome.started_at,
                     outcome.finished_at)
    return metrics


def canonical(metrics):
    """Snapshot with order-insensitive lists (merge concatenates)."""
    snapshot = metrics.snapshot()
    snapshot["action_outcomes"] = sorted(
        snapshot["action_outcomes"],
        key=lambda o: sorted(o.items(), key=lambda kv: (kv[0], repr(kv[1]))))
    return snapshot


class TestRunMetricsMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_merged_shards_equal_union(self, seed, n_shards):
        rng = random.Random(seed)
        events = random_metrics_events(rng, 300)
        merged = RunMetrics()
        for bucket in partition(events, n_shards, rng):
            merged.merge(metrics_of(bucket).snapshot())
        assert canonical(merged) == canonical(metrics_of(events))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_commutative_and_associative(self, seed):
        rng = random.Random(seed)
        parts = [metrics_of(random_metrics_events(rng, 80)).snapshot()
                 for _ in range(3)]
        folds = []
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            folded = RunMetrics()
            for index in order:
                folded.merge(parts[index])
            folds.append(canonical(folded))
        assert folds[0] == folds[1] == folds[2]

    def test_outcomes_merge_as_multiset(self):
        first = ActionOutcome("Serve", "success", started_at=0.0,
                              finished_at=1.0)
        second = ActionOutcome("Serve", "failed", started_at=1.0,
                               finished_at=3.0)
        merged = RunMetrics()
        merged.merge(metrics_of((), [first]).snapshot())
        merged.merge(metrics_of((), [second]).snapshot())
        union = metrics_of((), [second, first])
        assert canonical(merged) == canonical(union)
        assert merged.summary()["outcomes"] == {"success": 1, "failed": 1}


# ----------------------------------------------------------------------
# MessageStatistics
# ----------------------------------------------------------------------
NODES = ("n0", "n1", "n2", "n3")
PAYLOADS = ("Exception", "Commit", "Suspended", "AppMessage")


def random_message_snapshot(rng, n_messages):
    """A plausible per-shard MessageStatistics snapshot (all integers)."""
    stats = {"sent": 0, "delivered": 0, "dropped": 0,
             "by_type": {}, "by_link": {}}
    for _ in range(n_messages):
        payload = rng.choice(PAYLOADS)
        source, destination = rng.sample(NODES, 2)
        stats["sent"] += 1
        stats["by_type"][payload] = stats["by_type"].get(payload, 0) + 1
        link = f"{source}->{destination}"
        stats["by_link"][link] = stats["by_link"].get(link, 0) + 1
        if rng.random() < 0.9:
            stats["delivered"] += 1
        else:
            stats["dropped"] += 1
    return stats


def fold(snapshots):
    stats = MessageStatistics()
    for snapshot in snapshots:
        stats.merge(snapshot)
    return stats.snapshot()


class TestMessageStatisticsMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_merged_shards_equal_union(self, seed, n_shards):
        rng = random.Random(seed)
        shards = [random_message_snapshot(rng, rng.randrange(10, 60))
                  for _ in range(n_shards)]
        merged = fold(shards)
        assert merged["sent"] == sum(s["sent"] for s in shards)
        assert merged["delivered"] == sum(s["delivered"] for s in shards)
        assert merged["dropped"] == sum(s["dropped"] for s in shards)
        for name in {name for s in shards for name in s["by_type"]}:
            assert merged["by_type"][name] == \
                sum(s["by_type"].get(name, 0) for s in shards)
        for link in {link for s in shards for link in s["by_link"]}:
            assert merged["by_link"][link] == \
                sum(s["by_link"].get(link, 0) for s in shards)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_commutative_and_associative(self, seed):
        rng = random.Random(seed)
        parts = [random_message_snapshot(rng, 40) for _ in range(3)]
        orders = ((0, 1, 2), (2, 0, 1), (1, 2, 0))
        folds = [fold([parts[i] for i in order]) for order in orders]
        assert folds[0] == folds[1] == folds[2]


# ----------------------------------------------------------------------
# AdmissionStats (tallies sum; watermarks max)
# ----------------------------------------------------------------------
def random_admission_snapshot(rng):
    snapshot = {name: rng.randrange(100) for name in AdmissionStats.TALLIES}
    snapshot["max_queue_length"] = rng.randrange(32)
    snapshot["max_in_flight"] = rng.randrange(64)
    return snapshot


class TestAdmissionStatsMerge:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_tallies_sum_and_watermarks_max(self, seed, n_shards):
        rng = random.Random(seed)
        shards = [random_admission_snapshot(rng) for _ in range(n_shards)]
        merged = AdmissionStats()
        for shard in shards:
            merged.merge(shard)
        for name in AdmissionStats.TALLIES:
            assert getattr(merged, name) == sum(s[name] for s in shards)
        assert merged.max_queue_length == \
            max(s["max_queue_length"] for s in shards)
        assert merged.max_in_flight == max(s["max_in_flight"] for s in shards)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fold_order_does_not_matter(self, seed):
        rng = random.Random(seed)
        parts = [random_admission_snapshot(rng) for _ in range(3)]
        snapshots = []
        for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
            folded = AdmissionStats()
            for index in order:
                folded.merge(parts[index])
            snapshots.append(folded.snapshot())
        assert snapshots[0] == snapshots[1] == snapshots[2]
