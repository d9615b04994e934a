"""Read-only replicas: a Database rebuilt from shipped state + WAL.

A :class:`ReplicaDatabase` is the follower half of log shipping.  It is
bootstrapped from the primary's checkpoint records (the same records
:func:`repro.durability.checkpoint.encode_database` writes to a disk
checkpoint — recovery *is* the replication substrate) and then advanced
one logical WAL record at a time by :meth:`apply_wal_record`; both go
through the one per-operation apply crash recovery uses.
Because replay drives the ordinary public write path, the replica
adopts column segments, re-validates schemas, and maintains its own
B+Tree indexes from DDL — indexes are derived state on the follower
just as they are in a checkpoint.

Everything except the replication apply path is sealed: once bootstrap
finishes, direct writes raise :class:`repro.errors.ReplicationError`.
The freshness watermark ``last_applied_lsn`` is advanced atomically
with each applied record (under the replica's own write lock), and
:meth:`ensure_fresh` is the stale-read gate the worker loop calls
before serving any request.
"""

from __future__ import annotations

from ..durability.recovery import apply_checkpoint_state, apply_wal_record
from ..errors import ReplicationError, StaleReplicaError
from ..storage.catalog import Database

__all__ = ["ReplicaDatabase", "build_replica"]

_WRITER_NAMES = ("create_table", "drop_table", "register_schema",
                 "create_xml_index", "create_relational_index",
                 "drop_index", "insert", "delete_rows")


class ReplicaDatabase(Database):
    """A Database that only moves forward by applying shipped records.

    Reads (``xquery``, ``sql`` SELECT/VALUES, snapshots, explains) work
    exactly as on the primary; writes are allowed only during bootstrap
    and through :meth:`apply_wal_record`.
    """

    def __init__(self, index_order: int = 64):
        super().__init__(index_order=index_order)
        #: LSN of the last applied record — the freshness watermark.
        self.last_applied_lsn = 0
        self._sealed = False
        self._applying = False

    # ------------------------------------------------------------------
    # Replication apply path
    # ------------------------------------------------------------------

    def apply_wal_record(self, lsn: int, record: dict) -> bool:
        """Apply one shipped logical record and advance the watermark.

        Records at or below the watermark are skipped (idempotent
        redelivery, same guard recovery uses for stale logs).  Returns
        True when the record was applied.  State change and watermark
        advance happen under one exclusive section, so a reader that
        observes ``last_applied_lsn >= L`` is guaranteed to see every
        record up to ``L``.
        """
        with self._rwlock.write():
            if lsn <= self.last_applied_lsn:
                return False
            self._applying = True
            try:
                apply_wal_record(self, record, lsn)
            finally:
                self._applying = False
            self.last_applied_lsn = lsn
            return True

    def seal(self) -> None:
        """End bootstrap: from here on only shipped records may write."""
        self._sealed = True

    # ------------------------------------------------------------------
    # Freshness gate
    # ------------------------------------------------------------------

    def ensure_fresh(self, required_lsn: int) -> None:
        """Refuse to serve a snapshot the replica has not caught up to."""
        if required_lsn > self.last_applied_lsn:
            raise StaleReplicaError(required_lsn, self.last_applied_lsn)

    # ------------------------------------------------------------------
    # Write sealing
    # ------------------------------------------------------------------

    def _guard_write(self, operation: str) -> None:
        if self._sealed and not self._applying:
            raise ReplicationError(
                f"replica is read-only: {operation}() is only reachable "
                f"through apply_wal_record() once bootstrap is sealed")


def _sealed_writer(name: str):
    base = getattr(Database, name)

    def writer(self, *args, **kwargs):
        self._guard_write(name)
        return base(self, *args, **kwargs)

    writer.__name__ = name
    writer.__qualname__ = f"ReplicaDatabase.{name}"
    writer.__doc__ = (f"Sealed override of Database.{name}: raises "
                      f"ReplicationError unless applying a shipped "
                      f"record or still bootstrapping.")
    return writer


for _name in _WRITER_NAMES:
    setattr(ReplicaDatabase, _name, _sealed_writer(_name))
del _name


def build_replica(checkpoint: list[dict] | None, records, *,
                  index_order: int = 64) -> ReplicaDatabase:
    """Bootstrap a replica from checkpoint records plus a WAL tail.

    ``checkpoint`` is the primary's checkpoint records, header first
    (or None for an empty-at-LSN-0 primary); ``records`` is an iterable of
    ``(lsn, record)`` pairs — typically :func:`repro.durability.wal.
    tail_wal` output or the pipe-shipped equivalent.  Records at or
    below the checkpoint LSN are skipped, mirroring recovery's stale-
    log guard, so checkpoint + tail overlap is harmless.
    """
    replica = ReplicaDatabase(index_order=index_order)
    if checkpoint is not None:
        apply_checkpoint_state(replica, checkpoint)
        replica.last_applied_lsn = checkpoint[0]["last_lsn"]
    for lsn, record in records:
        replica.apply_wal_record(lsn, record)
    replica.seal()
    return replica
