"""The observability event taxonomy.

Every instrumentation point in the kernel, network, runtime, and
workload layers reports one **event**.  Read back, an event is a plain
dict with two mandatory keys — ``"t"`` (virtual time) and ``"kind"``
(one of the constants below) — plus kind-specific fields: the form that
JSONL export writes and that survives pickling unchanged.  While a run
records, an event is only a tuple appended to the observation's log
(:mod:`repro.obs.observation`); its dict is built when somebody reads.

Kinds are dotted ``layer.verb`` strings grouped into four categories:

========== =====================================================
category   kinds
========== =====================================================
action     ``action.entered`` ``action.raised`` ``action.suspended``
           ``action.resolved`` ``action.handling`` ``action.aborting``
           ``action.abortion_completed`` ``action.signalled``
           ``action.concluded`` ``signal.parked``
           ``signal.stale_dropped``
message    ``message.sent`` ``message.delivered`` ``message.dropped``
workload   ``job.submitted`` ``job.dispatched`` ``job.completed``
           ``job.dropped`` ``admission.queued`` ``admission.retry``
           ``admission.dropped``
objects    ``lock.granted`` ``lock.waiting`` ``lock.deadlock``
           ``lock.released``
kernel     ``kernel.step`` (opt-in; one record per scheduler step)
========== =====================================================

The action kinds are the runtime's own vocabulary: each protocol point
of ``runtime/{lifecycle,effects,dispatcher}.py`` reports itself with one
``DistributedCASystem.emit(kind, thread, action, instance, **data)``, and
every subscriber of that seam (``RunMetrics``, ``InvariantMonitor``,
``SystemObservation``) dispatches on the same constant.
"""

from __future__ import annotations

from typing import Dict

# --- action life-cycle (from ``DistributedCASystem.emit``) ------------
ACTION_ENTERED = "action.entered"
ACTION_RAISED = "action.raised"
ACTION_SUSPENDED = "action.suspended"
ACTION_RESOLVED = "action.resolved"
ACTION_HANDLING = "action.handling"
ACTION_ABORTING = "action.aborting"
ACTION_ABORTION_COMPLETED = "action.abortion_completed"
ACTION_SIGNALLED = "action.signalled"
ACTION_CONCLUDED = "action.concluded"
SIGNAL_PARKED = "signal.parked"
SIGNAL_STALE_DROPPED = "signal.stale_dropped"

# --- messaging (from ``Network`` / ``RpcEndpoint``) -------------------
MESSAGE_SENT = "message.sent"
MESSAGE_DELIVERED = "message.delivered"
MESSAGE_DROPPED = "message.dropped"
RPC_FAILURE = "rpc.failure"

# --- workload admission + jobs (from ``WorkloadDriver``) --------------
JOB_SUBMITTED = "job.submitted"
JOB_DISPATCHED = "job.dispatched"
JOB_COMPLETED = "job.completed"
JOB_DROPPED = "job.dropped"
ADMISSION_QUEUED = "admission.queued"
ADMISSION_RETRY = "admission.retry"
ADMISSION_DROPPED = "admission.dropped"

# --- shared objects (from ``LockManager``) ----------------------------
LOCK_GRANTED = "lock.granted"
LOCK_WAITING = "lock.waiting"
LOCK_DEADLOCK = "lock.deadlock"
LOCK_RELEASED = "lock.released"

# --- scheduler (opt-in, high volume) ----------------------------------
KERNEL_STEP = "kernel.step"

#: Kind → category, used by the Chrome exporter to pick track and
#: phase, and by :func:`repro.obs.export.summarize` to group counts.
CATEGORIES: Dict[str, str] = {}
for _kind in (ACTION_ENTERED, ACTION_RAISED, ACTION_SUSPENDED,
              ACTION_RESOLVED, ACTION_HANDLING, ACTION_ABORTING,
              ACTION_ABORTION_COMPLETED, ACTION_SIGNALLED, ACTION_CONCLUDED,
              SIGNAL_PARKED, SIGNAL_STALE_DROPPED):
    CATEGORIES[_kind] = "action"
for _kind in (MESSAGE_SENT, MESSAGE_DELIVERED, MESSAGE_DROPPED,
              RPC_FAILURE):
    CATEGORIES[_kind] = "message"
for _kind in (JOB_SUBMITTED, JOB_DISPATCHED, JOB_COMPLETED, JOB_DROPPED,
              ADMISSION_QUEUED, ADMISSION_RETRY, ADMISSION_DROPPED):
    CATEGORIES[_kind] = "workload"
for _kind in (LOCK_GRANTED, LOCK_WAITING, LOCK_DEADLOCK, LOCK_RELEASED):
    CATEGORIES[_kind] = "objects"
CATEGORIES[KERNEL_STEP] = "kernel"
del _kind


def category(kind: str) -> str:
    """The category of an event kind (``"other"`` outside the taxonomy)."""
    return CATEGORIES.get(kind, "other")
