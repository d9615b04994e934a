"""Durability subsystem: WAL, checkpoints, crash recovery, faults.

The paper's substrate (DB2 Viper) is a *persistent* native XML store;
this package gives the reproduction the same property.  See the README
"Durability & recovery" section for the protocol overview and the CLI
surface (``--data DIR``, ``repro checkpoint``, ``repro recover``).

Module map:

``fsio``        the only module allowed raw ``os``/file primitives
``codec``       the one record grammar: a builder per record shape
``wal``         append-only logical log with CRC framing + group commit
``checkpoint``  a compacted log: the state as records in WAL frames,
                written temp/fsync/rename
``recovery``    checkpoint + WAL tail through one apply, idempotent
``faults``      named crash points and torn-write enumeration
``engine``      :class:`DurableDatabase` — the public entry point
"""

from .checkpoint import CHECKPOINT_NAME, CheckpointInfo
from .engine import DurableDatabase
from .faults import FAULT_POINTS, CrashError, FaultInjector, NO_FAULTS
from .recovery import RecoveryResult, VerifyReport
from .wal import WAL_NAME, WriteAheadLog

__all__ = [
    "DurableDatabase", "WriteAheadLog", "RecoveryResult",
    "VerifyReport", "CheckpointInfo", "CrashError", "FaultInjector",
    "NO_FAULTS", "FAULT_POINTS", "WAL_NAME", "CHECKPOINT_NAME",
]
