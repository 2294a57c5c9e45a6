"""Loggers: shared in-memory objects that persist records (§4.1.1).

Each :class:`Logger` owns one log file — modelled as a serialized
:class:`~repro.sim.IoDevice` plus a :class:`WriteAheadLog` — and serves
many actors, assigned by a hash of the actor ID.  Delegating to a small
number of loggers (instead of one log per actor) constrains the number of
log files, reduces random IO, and lets the IO cost be amortized by
batching, exactly as the paper argues.

Group commit: ``persist`` appends the record and joins the next flush.
One flush writes every record that accumulated while the device was busy,
paying the base IO latency once — this is the mechanism behind the
"PACT amortizes logging" results in Fig. 12 (our ablation bench switches
it off to show the effect).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.persistence.records import LogRecord
from repro.persistence.wal import WriteAheadLog
from repro.runtime import kernel


class Logger:
    """One log file: WAL contents plus an IO device for cost accounting."""

    def __init__(
        self,
        io: Any,
        wal: Optional[WriteAheadLog] = None,
        group_commit: bool = True,
    ):
        self.io = io
        self.wal = wal if wal is not None else WriteAheadLog()
        self.group_commit = group_commit
        self._pending: List[Tuple[LogRecord, Any]] = []
        self._flushing = False
        self.records_persisted = 0
        # obs handles, shared across the group (set by LoggerGroup).
        self._obs_appends = None
        self._obs_flushes = None
        self._obs_flushed_bytes = None
        self._obs_flush_batch = None

    async def persist(self, record: LogRecord) -> None:
        """Durably append ``record``; returns once it is stable on disk."""
        self.wal.append(record)
        if self._obs_appends is not None:
            self._obs_appends.inc()
        done = kernel.Future(label=f"persist:{record.kind}")
        self._pending.append((record, done))
        if not self._flushing:
            self._flushing = True
            kernel.spawn(self._flush_loop(), label="logger.flush")
        await done

    def _take_batch(self) -> Tuple[List[Tuple[LogRecord, Any]], int]:
        """Slice the next flush batch off the pending queue (FIFO)."""
        if not self.group_commit:
            batch = [self._pending.pop(0)]
            return batch, batch[0][0].size_bytes()
        batch, self._pending = self._pending, []
        return batch, sum(record.size_bytes() for record, _ in batch)

    async def _flush_loop(self) -> None:
        try:
            while self._pending:
                batch, size = self._take_batch()
                await self.io.flush(size)
                self.records_persisted += len(batch)
                if self._obs_flushes is not None:
                    self._obs_flushes.inc()
                    self._obs_flushed_bytes.inc(size)
                    self._obs_flush_batch.observe(len(batch))
                for _, done in batch:
                    done.try_set_result(None)
        finally:
            self._flushing = False

    @property
    def bytes_written(self) -> int:
        return self.io.bytes_written


class LoggerGroup:
    """The machine's set of loggers, with hash-based actor assignment."""

    def __init__(
        self,
        num_loggers: int = 4,
        io_base_latency: float = 125e-6,
        io_per_byte: float = 5e-9,
        group_commit: bool = True,
        enabled: bool = True,
        cpu=None,
        cpu_per_record: float = 20e-6,
        cpu_per_byte: float = 10e-9,
        log_dir: Optional[str] = None,
        io_factory: Optional[Callable[..., Any]] = None,
        wal_segment_bytes: Optional[int] = None,
    ):
        """``log_dir`` switches the WALs from in-memory lists to pickle
        files on disk (one per logger), so committed state survives the
        *process*, not just a simulated crash.

        ``io_factory`` builds the log devices — pass the owning
        backend's ``io_device`` so flush latency is charged on the right
        substrate; defaults to the kernel dispatch (DES device)."""
        if num_loggers < 1:
            raise ValueError("need at least one logger")
        #: when False, persist() is free — the paper's "CC only" mode.
        self.enabled = enabled
        #: optional CpuPool: serializing a record costs CPU on the silo,
        #: which is the dominant logging overhead the paper measures
        #: (states are value blobs serialized whole, §5.4.2).
        self.cpu = cpu
        self.cpu_per_record = cpu_per_record
        self.cpu_per_byte = cpu_per_byte
        #: observation hook (:mod:`repro.chaos`): called with each record
        #: *after* it is durable, so crash points can target protocol
        #: windows ("after the Nth CoordPrepareRecord hits the WAL").
        self.on_persist: Optional[Callable[[LogRecord], None]] = None
        self._next_lsn = 0
        if io_factory is None:
            io_factory = kernel.io_device
        self.loggers = []
        for i in range(num_loggers):
            wal = None
            if log_dir is not None:
                from repro.persistence.wal import FileLogStorage, WriteAheadLog
                import os

                wal = WriteAheadLog(
                    FileLogStorage(
                        os.path.join(log_dir, f"log{i}.bin"),
                        segment_bytes=wal_segment_bytes,
                    )
                )
            self.loggers.append(
                Logger(
                    io_factory(io_base_latency, io_per_byte, label=f"log{i}"),
                    wal=wal,
                    group_commit=group_commit,
                )
            )
        if log_dir is not None:
            # resume the machine-wide LSN above anything already on disk
            existing = [r.lsn for r in self.all_records()]
            if existing:
                self._next_lsn = max(existing) + 1

    def attach_obs(self, obs) -> None:
        """Declare the WAL instruments and hand them to every logger."""
        appends = obs.counter(
            "snapper_wal_appends_total", "Records appended to the WALs"
        )
        flushes = obs.counter(
            "snapper_wal_flushes_total",
            "Flush (fsync) operations across all log devices",
        )
        flushed_bytes = obs.counter(
            "snapper_wal_flushed_bytes_total", "Bytes made durable"
        )
        flush_batch = obs.histogram(
            "snapper_wal_flush_batch_count",
            "Records made durable per flush (group-commit amortization)",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        # hand each logger the resolved children: persist() fires per
        # record, so the hot path is one call on the child.
        for logger in self.loggers:
            logger._obs_appends = appends.labels()
            logger._obs_flushes = flushes.labels()
            logger._obs_flushed_bytes = flushed_bytes.labels()
            logger._obs_flush_batch = flush_batch.labels()

    def logger_for(self, actor_id: Any) -> Logger:
        """Pick the logger serving ``actor_id`` by a stable hash."""
        return self.loggers[hash(actor_id) % len(self.loggers)]

    async def persist(self, actor_id: Any, record: LogRecord) -> None:
        """Persist ``record`` on the logger assigned to ``actor_id``.

        Stamps a machine-wide LSN on the record so recovery can order
        state records across log files.
        """
        if not self.enabled:
            return
        if self.cpu is not None:
            # ``cpu`` is a CpuPool, or a resolver actor_id -> CpuPool in
            # multi-silo deployments (serialization runs where the actor
            # lives)
            pool = self.cpu(actor_id) if callable(self.cpu) else self.cpu
            await pool.execute(
                self.cpu_per_record + self.cpu_per_byte * record.size_bytes()
            )
        object.__setattr__(record, "lsn", self._next_lsn)
        self._next_lsn += 1
        await self.logger_for(actor_id).persist(record)
        if self.on_persist is not None:
            self.on_persist(record)

    # -- recovery support ---------------------------------------------------
    def all_records(self):
        """Merge-scan every logger's WAL (append order within each log)."""
        for logger in self.loggers:
            yield from logger.wal.scan()

    def records_persisted(self) -> int:
        return sum(logger.records_persisted for logger in self.loggers)

    def bytes_written(self) -> int:
        return sum(logger.bytes_written for logger in self.loggers)

    def truncate(self) -> None:
        for logger in self.loggers:
            logger.wal.truncate()

    def truncate_upto(self, lsn: int) -> Tuple[int, int]:
        """Reclaim records at or below ``lsn`` across every logger.

        Safe only when ``lsn`` is at or below the machine-wide snapshot
        frontier (see :mod:`repro.snapshot`): every state record that
        low is embedded in a durable snapshot, and every commit record
        that low covers only such records.  Returns the total
        ``(records, bytes)`` dropped.
        """
        records = 0
        size = 0
        for logger in self.loggers:
            r, b = logger.wal.truncate_upto(lsn)
            records += r
            size += b
        return records, size

    def close(self) -> None:
        """Close file-backed storage (no-op for in-memory logs)."""
        for logger in self.loggers:
            close = getattr(logger.wal.storage, "close", None)
            if close is not None:
                close()
