"""Focused unit tests for the ``objects/`` primitives.

The transactional workload (``repro.workload.transactional``) leans on
behaviours the original suite did not pin directly: queue-aware deadlock
avoidance (a wait-for cycle that closes through a lock's FIFO queue, not
just its current holders), the oracle views over held/queued locks, and
the exact lock-release and state-restoration guarantees of commit, abort
and recovery after abort.
"""

import pytest

from repro.objects import (
    DeadlockError,
    LockManager,
    LockMode,
    TransactionManager,
    TransactionStatus,
    UndoFailure,
)
from repro.simkernel import Kernel


@pytest.fixture
def kernel():
    return Kernel()


# ----------------------------------------------------------------------
# Lock conflict and release ordering
# ----------------------------------------------------------------------
class TestLockOrdering:
    def test_queued_requests_grant_in_fifo_order_across_releases(self, kernel):
        locks = LockManager(kernel)
        locks.acquire("obj", "t1", LockMode.EXCLUSIVE)
        w2 = locks.acquire("obj", "t2", LockMode.SHARED)
        w3 = locks.acquire("obj", "t3", LockMode.SHARED)
        w4 = locks.acquire("obj", "t4", LockMode.EXCLUSIVE)
        assert not (w2.triggered or w3.triggered or w4.triggered)
        locks.release_all("t1")
        # Both compatible shared requests promote together; the exclusive
        # one stays behind them.
        assert w2.triggered and w3.triggered and not w4.triggered
        locks.release_all("t2")
        assert not w4.triggered
        locks.release_all("t3")
        assert w4.triggered

    def test_all_holders_and_all_waiters_views(self, kernel):
        locks = LockManager(kernel)
        locks.acquire("a", "t1", LockMode.EXCLUSIVE)
        locks.acquire("b", "t2", LockMode.SHARED)
        locks.acquire("b", "t3", LockMode.SHARED)
        locks.acquire("a", "t4", LockMode.EXCLUSIVE)
        assert locks.all_holders() == {
            "a": [("t1", "exclusive")],
            "b": [("t2", "shared"), ("t3", "shared")],
        }
        assert locks.all_waiters() == {"a": ["t4"]}
        locks.release_all("t1")
        locks.release_all("t4")
        assert "a" not in locks.all_holders()
        assert locks.all_waiters() == {}


# ----------------------------------------------------------------------
# Deadlock avoidance, including cycles through the queues
# ----------------------------------------------------------------------
class TestDeadlockAvoidance:
    def test_direct_cycle_through_holders_refused(self, kernel):
        locks = LockManager(kernel)
        locks.acquire("a", "t1", LockMode.EXCLUSIVE)
        locks.acquire("b", "t2", LockMode.EXCLUSIVE)
        locks.acquire("b", "t1", LockMode.EXCLUSIVE)
        doomed = locks.acquire("a", "t2", LockMode.EXCLUSIVE)
        assert doomed.triggered and not doomed.ok
        assert isinstance(doomed.value, DeadlockError)
        doomed.defused = True

    def test_cycle_through_queue_refused(self, kernel):
        """A cycle that closes via a queued-ahead request, not a holder.

        t3 queues on ``a`` behind t2, so t3 waits on t2 even though t2
        holds nothing on ``a`` yet.  When t2 then requests ``b`` (held by
        t3), granting the wait would close the cycle t2 → t3 → t2.  A
        holders-only wait-for graph misses this and hangs both forever.
        """
        locks = LockManager(kernel)
        locks.acquire("a", "t1", LockMode.EXCLUSIVE)
        locks.acquire("b", "t3", LockMode.EXCLUSIVE)
        locks.acquire("a", "t2", LockMode.EXCLUSIVE)   # queued behind t1
        locks.acquire("a", "t3", LockMode.EXCLUSIVE)   # queued behind t2
        doomed = locks.acquire("b", "t2", LockMode.EXCLUSIVE)
        assert doomed.triggered and not doomed.ok
        assert isinstance(doomed.value, DeadlockError)
        doomed.defused = True

    def test_stale_edges_dropped_after_release(self, kernel):
        """Edges recorded while waiting must not outlive the conflict."""
        locks = LockManager(kernel)
        locks.acquire("a", "t1", LockMode.EXCLUSIVE)
        waiting = locks.acquire("a", "t2", LockMode.EXCLUSIVE)
        locks.release_all("t1")            # t2 promoted, edge t2→t1 gone
        assert waiting.triggered and waiting.ok
        locks.acquire("b", "t1", LockMode.EXCLUSIVE)
        # t1's request for a waits on t2 only; no phantom cycle.
        again = locks.acquire("a", "t1", LockMode.EXCLUSIVE)
        assert not again.triggered
        locks.release_all("t2")
        assert again.triggered and again.ok

    def test_reader_reader_queue_is_not_refused(self, kernel):
        """A shared request behind shared holders/waiters is no deadlock.

        t1 holds ``a`` shared and waits on ``b`` (held exclusively by
        t3).  When t3 then requests ``a`` *shared* behind a queue that
        contains only another shared request, nothing actually blocks it:
        FIFO promotion grants the whole run of readers together.  The old
        mode-blind wait-for rebuild counted the compatible entries as
        blockers, manufactured the cycle t3 → t1 → t3 and refused the
        request as a phantom deadlock.
        """
        locks = LockManager(kernel)
        locks.acquire("a", "th", LockMode.EXCLUSIVE)
        locks.acquire("a", "t4", LockMode.SHARED)        # queued behind th
        locks.acquire("b", "t3", LockMode.EXCLUSIVE)
        locks.acquire("b", "t4", LockMode.EXCLUSIVE)     # t4 waits on t3
        request = locks.acquire("a", "t3", LockMode.SHARED)
        assert not request.triggered, "reader/reader queue must queue, " \
            "not be refused as a phantom deadlock"
        # Promotion grants both queued readers together once th releases.
        locks.release_all("th")
        assert request.triggered and request.ok
        holders = dict(locks.holders("a"))
        assert holders["t3"] is LockMode.SHARED
        assert holders["t4"] is LockMode.SHARED

    def test_upgrade_cycle_still_refused(self, kernel):
        """Two shared holders both upgrading is a genuine deadlock."""
        locks = LockManager(kernel)
        locks.acquire("a", "t1", LockMode.SHARED)
        locks.acquire("a", "t2", LockMode.SHARED)
        upgrade = locks.acquire("a", "t1", LockMode.EXCLUSIVE)
        assert not upgrade.triggered     # waits on the other reader
        doomed = locks.acquire("a", "t2", LockMode.EXCLUSIVE)
        assert doomed.triggered and not doomed.ok
        assert isinstance(doomed.value, DeadlockError)
        doomed.defused = True

    def test_wait_for_rebuild_is_mode_aware(self, kernel):
        """Only incompatible holders/queued-ahead produce wait-for edges."""
        locks = LockManager(kernel)
        locks.acquire("a", "t1", LockMode.SHARED)
        locks.acquire("a", "t2", LockMode.EXCLUSIVE)     # queued
        locks.acquire("a", "t3", LockMode.SHARED)        # queued behind t2
        locks._rebuild_wait_for()
        assert locks._wait_for["t2"] == {"t1"}
        # t3 waits on the exclusive ahead of it, not on the shared holder.
        assert locks._wait_for["t3"] == {"t2"}

    def test_refused_request_leaves_no_queue_entry(self, kernel):
        locks = LockManager(kernel)
        locks.acquire("a", "t1", LockMode.EXCLUSIVE)
        locks.acquire("b", "t2", LockMode.EXCLUSIVE)
        locks.acquire("b", "t1", LockMode.EXCLUSIVE)
        doomed = locks.acquire("a", "t2", LockMode.EXCLUSIVE)
        doomed.defused = True
        assert locks.all_waiters() == {"b": ["t1"]}
        locks.release_all("t2")            # t2 aborts after the refusal
        assert locks.all_holders()["b"] == [("t1", "exclusive")]


# ----------------------------------------------------------------------
# Transaction commit/rollback round-trips and recovery after abort
# ----------------------------------------------------------------------
class TestTransactionRoundTrips:
    def make_manager(self):
        manager = TransactionManager(Kernel())
        manager.create_object("acct", {"value": 0})
        return manager

    def test_commit_round_trip_with_locks(self):
        manager = self.make_manager()
        txn = manager.begin("T")
        grant = txn.lock("acct", LockMode.EXCLUSIVE)
        assert grant.triggered and grant.ok
        txn.write("acct", "value", txn.read("acct", "value") + 1)
        txn.commit()
        assert txn.status is TransactionStatus.COMMITTED
        assert manager.object("acct").committed_value("value") == 1
        assert not manager.locks.is_locked("acct")
        assert txn in manager.finished and not manager.active

    def test_transaction_ids_count_per_manager(self):
        # Ids (and the lock records that carry them) must not depend on
        # how many transactions earlier managers in the process began.
        first, second = self.make_manager(), self.make_manager()
        assert [first.begin("T").transaction_id for _ in range(3)] == [
            "txn-1", "txn-2", "txn-3"]
        assert second.begin("T").transaction_id == "txn-1"

    def test_abort_rolls_back_and_releases_locks(self):
        manager = self.make_manager()
        txn = manager.begin("T")
        txn.lock("acct", LockMode.EXCLUSIVE)
        waiter = manager.begin("U")
        blocked = waiter.lock("acct", LockMode.EXCLUSIVE)
        txn.write("acct", "value", 99)
        assert txn.abort() is TransactionStatus.ABORTED
        assert manager.object("acct").committed_value("value") == 0
        # The abort released the lock, so the blocked transaction runs.
        assert blocked.triggered and blocked.ok
        assert manager.locks.holders("acct") == [
            (waiter.transaction_id, LockMode.EXCLUSIVE)]

    def test_recovery_after_abort_reuses_clean_state(self):
        """A fresh transaction after an abort sees the restored state."""
        manager = self.make_manager()
        doomed = manager.begin("T")
        doomed.lock("acct", LockMode.EXCLUSIVE)
        doomed.write("acct", "value", 123)
        doomed.abort()
        retry = manager.begin("T")
        grant = retry.lock("acct", LockMode.EXCLUSIVE)
        assert grant.triggered and grant.ok
        assert retry.read("acct", "value") == 0
        retry.write("acct", "value", 1)
        retry.commit()
        assert manager.object("acct").committed_value("value") == 1
        assert manager.object("acct").version == 1     # one commit only

    def test_failed_undo_surfaces_and_still_releases_locks(self):
        manager = self.make_manager()
        txn = manager.begin("T")
        txn.lock("acct", LockMode.EXCLUSIVE)
        txn.write("acct", "value", 7)
        manager.object("acct").inject_undo_fault(txn.transaction_id)
        assert txn.abort() is TransactionStatus.FAILED_UNDO
        assert txn.failed_objects == ["acct"]
        assert not manager.locks.is_locked("acct")
