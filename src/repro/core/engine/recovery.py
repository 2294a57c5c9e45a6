"""Actor-level state recovery from the WAL (§4.2.5, §4.3.4).

A re-activated actor scans the logger group for its own state records
and restores the newest one *covered* by a commit record — a
``BatchCompleteRecord`` covered by a ``BatchCommitRecord``, or an
``ActPrepareRecord`` covered by an ``ActCommitRecord`` /
``CoordCommitRecord`` — ordered by the machine-wide LSN.  Under
incremental logging (§5.4.2) it restores the newest covered full
snapshot and replays the covered deltas logged after it.

With :mod:`repro.snapshot` enabled the scan may also find a durable
``SnapshotRecord`` for the actor: recovery then *seeds* from the
snapshot's state and replays only the covered records with LSNs past
its frontier, which bounds recovery work by the tail length rather than
the log length.  A missing or stale snapshot degrades to plain replay —
the snapshot is pure optimization, never load-bearing.

Records *newer* than that recovery point whose outcome is still
undecided form the actor's **in-doubt tail**: sub-batches it voted for
and ACTs it prepared whose commit decisions were in flight when the
actor crashed.  Classic 2PC participant recovery applies — the actor
must resolve each in-doubt record (the decision may land *after* the
crash) before serving new work, or a transaction that goes on to commit
leaves the live state permanently short of its durable effects.
:func:`resolve_in_doubt_tail` implements this; the actor runtime holds
the reactivation's inbox closed until it returns.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set

from repro.persistence.records import (
    ActCommitRecord,
    ActPrepareRecord,
    BatchAbortRecord,
    BatchCommitRecord,
    BatchCompleteRecord,
    CoordCommitRecord,
    SnapshotRecord,
)

#: tags delta payloads in state records (incremental logging, §5.4.2).
DELTA_MARKER = "__snapper_delta__"


class RecoveryWarning(UserWarning):
    """Recovery proceeded on a suspicious WAL shape (best effort).

    Raised as a *warning*, not an error: the recovered state is the best
    reconstruction available, but an invariant the recovery algorithm
    relies on did not hold — e.g. a covered delta chain whose full base
    snapshot is missing from the log.
    """


def is_delta(payload: Any) -> bool:
    """Is this state-record payload a logged delta rather than a blob?"""
    return (
        isinstance(payload, tuple)
        and len(payload) == 2
        and payload[0] == DELTA_MARKER
    )


@dataclass
class RecoveryResult:
    """What :func:`recover_state_ex` reconstructed, and from how much log.

    ``frontier_lsn`` is the LSN of the newest covered record embedded in
    ``state`` (the snapshot's frontier if nothing newer was replayed,
    ``-1`` if the actor has no committed history at all) — the exact
    value a later snapshot of this state must carry.  ``replayed`` is
    the number of covered state records applied past the snapshot seed;
    with a fresh snapshot it is the bounded-recovery guarantee made
    countable.  ``tail`` is the actor's in-doubt tail (see
    :func:`in_doubt_tail`), found by the same scan.
    """

    state: Any
    frontier_lsn: int = -1
    replayed: int = 0
    snapshot: Optional[SnapshotRecord] = None
    tail: List[Any] = field(default_factory=list)


class _WalScan:
    """One pass over the WAL from one actor's point of view: the
    machine-wide decisions, and the actor's own state records and
    snapshots.  Recovery and the in-doubt tail both read from it."""

    def __init__(self, actor_id: Any, loggers: Any):
        self.committed_bids: Set[int] = set()
        self.aborted_bids: Set[int] = set()
        self.committed_tids: Set[int] = set()
        self.state_records: List[Any] = []
        #: the actor's newest durable snapshot, by LSN.
        self.snapshot: Optional[SnapshotRecord] = None
        #: the highest frontier any of its snapshots carries.
        self.snapshot_floor = -1
        for record in loggers.all_records():
            if isinstance(record, BatchCommitRecord):
                self.committed_bids.add(record.bid)
            elif isinstance(record, (ActCommitRecord, CoordCommitRecord)):
                self.committed_tids.add(record.tid)
            elif isinstance(record, (BatchCompleteRecord, ActPrepareRecord)):
                if record.actor == actor_id and record.state is not None:
                    self.state_records.append(record)
            elif isinstance(record, BatchAbortRecord):
                self.aborted_bids.add(record.bid)
            elif isinstance(record, SnapshotRecord):
                if record.actor == actor_id:
                    if (self.snapshot is None
                            or record.lsn > self.snapshot.lsn):
                        self.snapshot = record
                    self.snapshot_floor = max(
                        self.snapshot_floor, record.frontier_lsn
                    )

    def covered(self, record: Any) -> bool:
        """Is this state record's commit decision in the WAL?"""
        if isinstance(record, BatchCompleteRecord):
            return record.bid in self.committed_bids
        return record.tid in self.committed_tids

    def tail(self) -> List[Any]:
        """Uncovered state records past the recovery point, minus votes
        whose batch has a durable cascade-abort decision — those are not
        doubt but garbage (a commit record for the same bid would have
        made them covered: commit wins).  In LSN order."""
        recovery_point = max(
            (r.lsn for r in self.state_records if self.covered(r)),
            default=-1,
        )
        recovery_point = max(recovery_point, self.snapshot_floor)
        return sorted(
            (
                r for r in self.state_records
                if r.lsn > recovery_point
                and not self.covered(r)
                and not (isinstance(r, BatchCompleteRecord)
                         and r.bid in self.aborted_bids)
            ),
            key=lambda r: r.lsn,
        )


def recover_state_ex(
    actor_id: Any,
    loggers: Any,
    state: Any,
    apply_delta: Callable[[Any, List[Any]], Any],
    *,
    use_snapshots: bool = True,
) -> RecoveryResult:
    """Advance ``state`` (the actor's initial state) to the last
    committed WAL image, with the frontier/replay accounting the
    snapshot subsystem needs and the in-doubt tail the same scan found.

    ``state`` is returned unchanged when logging is disabled or no
    covered record exists.  ``use_snapshots=False`` forces the
    replay-from-zero path (the chaos oracle's C8 baseline)."""
    if not loggers.enabled:
        return RecoveryResult(state)
    scan = _WalScan(actor_id, loggers)
    state_records = scan.state_records
    snapshot = scan.snapshot if use_snapshots else None
    tail = scan.tail()
    floor = snapshot.frontier_lsn if snapshot is not None else -1
    covered = sorted(
        (r for r in state_records if r.lsn > floor and scan.covered(r)),
        key=lambda r: r.lsn,
    )
    if snapshot is not None:
        state = copy.deepcopy(snapshot.state)
    if not covered:
        return RecoveryResult(state, floor, 0, snapshot, tail)
    # start from the latest full-state record (if any), then replay
    # the delta records logged after it (incremental logging, §5.4.2);
    # a snapshot seed is itself a full base for an all-delta tail.
    base_index = -1
    for index, record in enumerate(covered):
        if not is_delta(record.state):
            base_index = index
    if base_index >= 0:
        state = copy.deepcopy(covered[base_index].state)
    elif snapshot is None:
        # Every covered record is a delta.  Replaying them onto the
        # *initial* state is only sound when the chain really starts at
        # the actor's birth; if an earlier full snapshot exists anywhere
        # in the log (it should have been the base and is either lost or
        # uncovered out of order), the reconstruction is suspect.
        first_covered_lsn = covered[0].lsn
        earlier_full = [
            r for r in state_records
            if not is_delta(r.state) and r.lsn < first_covered_lsn
        ]
        if earlier_full:
            warnings.warn(
                RecoveryWarning(
                    f"{actor_id}: replaying {len(covered)} covered delta "
                    f"record(s) from the initial state, but the log holds "
                    f"an earlier full snapshot (lsn "
                    f"{earlier_full[-1].lsn}) that is not covered by any "
                    f"commit — the delta chain may be missing its base"
                ),
                stacklevel=2,
            )
    for record in covered[base_index + 1:]:
        delta = copy.deepcopy(record.state[1])
        state = apply_delta(state, delta)
    return RecoveryResult(
        state, covered[-1].lsn, len(covered), snapshot, tail
    )


def in_doubt_tail(actor_id: Any, loggers: Any) -> List[Any]:
    """This actor's state records newer than its recovery point whose
    commit decisions are not in the WAL, in LSN order.

    These are the sub-batches the actor voted ``complete`` for and the
    ACTs it prepared whose coordinators had not (durably) decided when
    the log was scanned — the 2PC in-doubt window.  With a durable
    snapshot in the log, only post-frontier LSNs are walked: an
    uncovered record at or below the frontier predates a commit the
    actor later durably took, so its transaction is decided (it could
    only have aborted) — it is garbage, not doubt.

    Activation takes the tail from :func:`recover_state_ex`'s result;
    this entry point serves callers that want the tail alone.
    """
    if not loggers.enabled:
        return []
    return _WalScan(actor_id, loggers).tail()


def _adopt(state: Any, record: Any,
           apply_delta: Callable[[Any, List[Any]], Any]) -> Any:
    if is_delta(record.state):
        return apply_delta(state, copy.deepcopy(record.state[1]))
    return copy.deepcopy(record.state)


def _act_decided_commit(loggers: Any, tid: int) -> bool:
    return any(
        isinstance(r, (ActCommitRecord, CoordCommitRecord)) and r.tid == tid
        for r in loggers.all_records()
    )


async def resolve_in_doubt_tail(
    actor_id: Any,
    loggers: Any,
    registry: Any,
    state: Any,
    apply_delta: Callable[[Any, List[Any]], Any],
    timeout: float,
    tail: Optional[List[Any]] = None,
    on_adopt: Optional[Callable[[Any], None]] = None,
) -> Any:
    """2PC participant recovery: advance ``state`` through the actor's
    in-doubt tail as each record's commit decision resolves.

    ``recover_state_ex`` stops at the newest *covered* record, but the
    records past it are not garbage — they are prepared work whose
    decision was in flight when the actor crashed.  If such a
    transaction goes on to commit while the reactivated actor serves
    from the covered state, the commit's effects are durable in the WAL
    yet absent from the live state, and every later snapshot buries the
    loss.  So, before the actor serves anything, walk the tail in LSN
    order and ask for each record's outcome:

    * **Sub-batch votes** resolve through the silo's commit registry
      (which outlives actor crashes): wait until the batch commits —
      adopt the record — or aborts.  A batch *abort* ends the walk:
      batches pipeline speculatively (§4.4.1 rule 1), so every later
      tail record embeds the aborted batch's effects and the covered
      state is the correct rollback target.
    * **ACT prepares** resolve through the WAL itself: the coordinator
      persists its commit record before releasing anyone (§4.3.3), so
      a commit decision is visible to a log scan — possibly only after
      a short wait for in-flight appends.  Absence after the grace
      period is *presumed abort*, and the walk continues: an aborted
      ACT's effects were undone on the live actor before any later
      record was logged, so later records do not embed them.

    ``on_adopt`` fires once per adopted record (after its state is
    folded in) so the caller can track the committed frontier.
    """
    if tail is None:
        # activation passes the tail its recovery scan already found;
        # computing it here is another full-log walk.
        tail = in_doubt_tail(actor_id, loggers)
    if not tail:
        return state
    from repro.runtime.kernel import sleep

    for record in tail:
        if isinstance(record, BatchCompleteRecord):
            if registry.batch(record.bid) is None:
                # The registry has no memory of this batch: it predates
                # a silo recovery, whose commit rule already resolved
                # every in-doubt batch and persisted commit records for
                # the survivors.  No commit record (the record would be
                # covered) means it was presumed aborted.  Do NOT fall
                # through to the watermark query — after the reset the
                # watermark says nothing about pre-crash bids.
                break
            try:
                await registry.wait_until_committed(
                    record.bid, timeout=timeout
                )
            except Exception:
                # aborted, or undecided past the grace period: presume
                # abort and stop — later tail records embed this
                # batch's speculative effects.
                break
            info = registry.batch(record.bid)
            if info is None or info.status != "committed":
                # The wait resolved through the commit *watermark*, not
                # an explicit commit entry: a silo recovery reset the
                # registry while we waited, and the new chain's commits
                # pushed the watermark past this pre-crash bid.  The
                # recovery commit rule already judged the batch (no
                # commit record on file means presumed abort) — adopting
                # here would resurrect a cascade-aborted batch's effects.
                break
            state = _adopt(state, record, apply_delta)
            if on_adopt is not None:
                on_adopt(record)
        else:
            if not _act_decided_commit(loggers, record.tid):
                await sleep(timeout)
                if not _act_decided_commit(loggers, record.tid):
                    continue  # presumed abort; undo already ran
            state = _adopt(state, record, apply_delta)
            if on_adopt is not None:
                on_adopt(record)
    return state
