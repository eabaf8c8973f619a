"""The durable write-ahead delta log: :class:`WriteAheadLog`.

The serving store applies mutations in memory; a crash therefore loses
every delta since boot and a restart rebuilds the world cold.  The WAL
closes both gaps with the classic recipe:

* **append before apply** — a serialized :class:`~repro.data.delta.Delta`
  record (one per atomic apply, covering multi-relation deltas in a
  single version bump) is written and flushed *before* the engine
  mutates anything, so a crash between append and apply is repaired by
  replay, never by data loss;
* **checksummed records** — every record carries a CRC-32 over its
  sequence number and payload; a torn tail (crash mid-append) is
  detected, dropped, and the file truncated back to the last durable
  record on the next open;
* **fsync batching** — ``fsync_batch=1`` (the default) syncs every
  append for strict durability; larger batches trade the tail of the
  log for group-commit throughput (at most ``fsync_batch - 1`` records
  can be lost to a power failure);
* **replay on boot** — ``repro serve --wal PATH`` recovers the log
  before building its store, so servers restart *warm and current*:
  the recovered database lands at the pre-crash ``db_version`` and the
  engine encodes it exactly once, instead of re-running the mutation
  history;
* **compaction** — :meth:`compact` replays the log, writes one
  snapshot record of the current database, and drops the delta prefix
  (crash-safe via write-temp-then-rename).

The file format is line-oriented text — one record per line::

    repro-wal 2
    <seq> <crc32-hex> <payload-length> <payload JSON>

where the payload is ``{"kind": "delta"|"snapshot", "db_version": N,
...}``.  A ``snapshot`` record holds full relation contents and resets
replay state; a ``delta`` record holds a serialized delta whose apply
minted ``db_version``.  The length prefix is a second, independent
commitment to the payload: a truncated record whose shortened payload
happens to collide with the stored CRC-32 (a 32-bit check, so
collisions are rare but real) still disagrees with the declared
length and is dropped as torn.  The text format keeps ``repro wal
inspect`` and plain ``grep`` useful on production logs.

Fault points (:mod:`repro.chaos.faults`): ``wal.torn_write``,
``wal.corrupt_crc``, and ``wal.fsync`` are wired into :meth:`_append`
and simulate a process death at exactly the byte position each name
describes; all three are free no-ops unless a chaos plan is armed.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.chaos.faults import ChaosCrash, fire as _fire
from repro.data.database import Database
from repro.data.delta import Delta
from repro.errors import WalError

#: On-disk format version, written in the header line and surfaced by
#: ``repro --version`` so operators can tell at a glance whether two
#: hosts' logs interoperate.  Version 2 added the payload-length field
#: between the checksum and the payload.
WAL_FORMAT_VERSION = 2

_HEADER = f"repro-wal {WAL_FORMAT_VERSION}\n"


def _checksum(seq: int, payload: str) -> str:
    return format(zlib.crc32(f"{seq}:{payload}".encode()), "08x")


def _format_line(seq: int, payload: str) -> str:
    return f"{seq} {_checksum(seq, payload)} {len(payload)} {payload}\n"


def _snapshot_rows(relation) -> list[list]:
    """``relation``'s rows for a snapshot record, in a deterministic
    order: the relation's own sorted order, or by ``repr`` when its
    values cannot be compared."""
    try:
        return [list(row) for row in relation.sorted_tuples()]
    except TypeError:
        return sorted((list(row) for row in relation.tuples), key=repr)


@dataclass(frozen=True)
class WalRecord:
    """One durable log record (a delta apply or a compaction snapshot)."""

    seq: int
    kind: str  # "delta" | "snapshot"
    db_version: int
    delta: Delta | None = None
    relations: dict[str, list] | None = None


@dataclass
class WalStats:
    """Counters for one :class:`WriteAheadLog` (monotonic per open)."""

    records_appended: int = 0
    fsyncs: int = 0
    bytes_written: int = 0
    records_replayed: int = 0
    torn_tail_dropped: int = 0
    compactions: int = 0
    truncations: int = 0

    def as_dict(self) -> dict:
        return {
            "records_appended": self.records_appended,
            "fsyncs": self.fsyncs,
            "bytes_written": self.bytes_written,
            "records_replayed": self.records_replayed,
            "torn_tail_dropped": self.torn_tail_dropped,
            "compactions": self.compactions,
            "truncations": self.truncations,
        }


class WriteAheadLog:
    """An append-only, checksummed, fsync-batched log of deltas.

    Args:
        path: the log file (created, with its header, if absent).
        fsync_batch: how many appends may share one ``fsync``.  ``1``
            (default) syncs every record; ``N`` syncs every N-th append
            (and always on :meth:`sync`/:meth:`close`), bounding loss
            to the last ``N - 1`` records.

    Thread-safe: appends serialize on an internal lock (the store
    additionally holds its mutation lock across append-then-apply, so
    record order always matches version order).
    """

    def __init__(self, path: str | os.PathLike, fsync_batch: int = 1):
        self.path = Path(path)
        self._fsync_batch = max(1, int(fsync_batch))
        self._pending = 0
        self._lock = threading.Lock()
        self.stats = WalStats()
        self._last_seq = 0
        self._last_db_version = 0
        self._open_and_scan()

    # -- open / scan -------------------------------------------------------

    def _open_and_scan(self) -> None:
        """Validate the header, find the last durable record, and cut a
        torn tail off (appending past one would shadow the new records
        behind an unreadable line forever)."""
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(_HEADER)
                handle.flush()
                os.fsync(handle.fileno())
            self._file = open(self.path, "a", encoding="utf-8")
            return
        good_end = 0
        with open(self.path, "r", encoding="utf-8") as handle:
            header = handle.readline()
            if not header.startswith("repro-wal "):
                raise WalError(
                    f"{self.path} is not a repro WAL (bad header "
                    f"{header[:32]!r})"
                )
            try:
                fmt = int(header.split()[1])
            except (IndexError, ValueError):
                raise WalError(
                    f"{self.path}: unreadable WAL header"
                ) from None
            if fmt != WAL_FORMAT_VERSION:
                raise WalError(
                    f"{self.path} speaks WAL format {fmt}, this build "
                    f"speaks {WAL_FORMAT_VERSION} (compact the log "
                    "with a matching build to migrate)"
                )
            good_end = handle.tell()
            while True:
                line = handle.readline()
                if not line:
                    break
                record = self._parse_line(line)
                if record is None:
                    # Torn or corrupt tail: stop at the last good
                    # record; everything after it is dropped below.
                    break
                self._last_seq = record.seq
                self._last_db_version = record.db_version
                good_end = handle.tell()
        size = self.path.stat().st_size
        if good_end < size:
            self.stats.torn_tail_dropped += 1
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.truncate(good_end)
        self._file = open(self.path, "a", encoding="utf-8")

    @staticmethod
    def _parse_line(line: str) -> WalRecord | None:
        if not line.endswith("\n"):
            return None  # torn: the trailing newline commits a record
        parts = line.rstrip("\n").split(" ", 3)
        if len(parts) != 4:
            return None
        seq_text, crc, length_text, payload = parts
        try:
            seq = int(seq_text)
            length = int(length_text)
        except ValueError:
            return None
        # Length first: a truncated payload that happens to collide
        # with the 32-bit CRC still disagrees with the declared length.
        if len(payload) != length:
            return None
        if _checksum(seq, payload) != crc:
            return None
        try:
            body = json.loads(payload)
        except json.JSONDecodeError:
            return None
        kind = body.get("kind")
        version = body.get("db_version")
        if kind not in ("delta", "snapshot") or not isinstance(
            version, int
        ):
            return None
        if kind == "delta":
            return WalRecord(
                seq=seq,
                kind="delta",
                db_version=version,
                delta=Delta.coerce(body.get("delta", {})),
            )
        return WalRecord(
            seq=seq,
            kind="snapshot",
            db_version=version,
            relations=body.get("relations", {}),
        )

    # -- appending ---------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the last durable record (0 = empty log)."""
        return self._last_seq

    @property
    def last_db_version(self) -> int:
        """The ``db_version`` the last record minted (or snapshotted)."""
        return self._last_db_version

    def append_delta(self, delta: Delta, db_version: int) -> int:
        """Append one delta record; returns its sequence number.

        Must be called *before* the in-memory apply that mints
        ``db_version`` — that ordering is the whole durability story.
        """
        payload = {
            "kind": "delta",
            "db_version": int(db_version),
            "delta": Delta.coerce(delta).as_dict(),
        }
        return self._append(payload)

    def append_snapshot(self, database, db_version: int) -> int:
        """Append a full-database snapshot record (compaction and the
        self-containment seed of a fresh log); always fsynced."""
        if not isinstance(database, Database):
            database = Database(database)
        payload = {
            "kind": "snapshot",
            "db_version": int(db_version),
            "relations": {
                name: _snapshot_rows(relation)
                for name, relation in sorted(
                    database.relations.items()
                )
            },
        }
        seq = self._append(payload)
        self.sync()
        return seq

    def _append(self, payload: dict) -> int:
        text = json.dumps(payload, default=str, separators=(",", ":"))
        with self._lock:
            seq = self._last_seq + 1
            line = _format_line(seq, text)
            if _fire("wal.torn_write"):
                # Die midway through the write: a partial line, no
                # newline, reaches the file.  Open-time truncation must
                # drop it — the write was never acknowledged.
                self._file.write(line[: max(1, len(line) // 2)])
                self._file.flush()
                raise ChaosCrash("wal.torn_write")
            if _fire("wal.corrupt_crc"):
                # A full line lands whose checksum disagrees with its
                # payload (bit rot / a buggy writer); replay must treat
                # it as torn, not apply it.
                crc = _checksum(seq, text)
                bad = ("f" if crc[0] != "f" else "0") + crc[1:]
                self._file.write(f"{seq} {bad} {len(text)} {text}\n")
                self._file.flush()
                raise ChaosCrash("wal.corrupt_crc")
            self._file.write(line)
            self._file.flush()
            if _fire("wal.fsync"):
                # The record reached the OS (written + flushed) but the
                # process dies before fsync returns: durable on disk,
                # never acknowledged to the caller.  Replay may
                # legitimately resurrect it — the checker's pending-
                # delta tolerance models exactly this window.
                raise ChaosCrash("wal.fsync")
            self._pending += 1
            if self._pending >= self._fsync_batch:
                os.fsync(self._file.fileno())  # repro: noqa[LOCK-BLOCKING] -- group commit: append order must equal durability order
                self._pending = 0
                self.stats.fsyncs += 1
            self._last_seq = seq
            self._last_db_version = payload["db_version"]
            self.stats.records_appended += 1
            self.stats.bytes_written += len(line.encode())
            return seq

    def sync(self) -> None:
        """Force any batched records to stable storage now."""
        with self._lock:
            if self._pending:
                self._file.flush()
                os.fsync(self._file.fileno())  # repro: noqa[LOCK-BLOCKING] -- group commit: append order must equal durability order
                self._pending = 0
                self.stats.fsyncs += 1

    def close(self) -> None:
        self.sync()
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading / recovery ------------------------------------------------

    def records(self) -> list[WalRecord]:
        """Every durable record, in append order (torn tails skipped)."""
        self.sync()
        out: list[WalRecord] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            handle.readline()  # header, validated at open
            for line in handle:
                record = self._parse_line(line)
                if record is None:
                    break
                out.append(record)
        return out

    def recover(
        self, database=None, *, seed: bool = False
    ) -> tuple[Database, int]:
        """Replay the log: the ``(database, db_version)`` it ends at.

        A snapshot record replaces the replay state; delta records
        apply on top.  ``database`` is the base for logs that start
        with deltas (a log seeded with a snapshot is self-contained and
        ignores it).  With ``seed=True`` an *empty* log gets a
        snapshot record of ``database`` at version 0 appended, so the
        log recovers standalone from then on — ``repro serve --wal``
        does this on first boot.
        """
        if database is not None and not isinstance(database, Database):
            database = Database(database)
        version = 0
        replayed = 0
        for record in self.records():
            if record.kind == "snapshot":
                database = Database(
                    {
                        name: {tuple(row) for row in rows}
                        for name, rows in record.relations.items()
                    }
                )
            else:
                if database is None:
                    raise WalError(
                        f"{self.path} starts with delta records; "
                        "recovery needs the base database they applied "
                        "to (pass it, or compact the log)"
                    )
                database = database.apply(record.delta)
            version = record.db_version
            replayed += 1
        self.stats.records_replayed += replayed
        if database is None:
            raise WalError(
                f"{self.path} is empty and no base database was given"
            )
        if seed and self._last_seq == 0:
            self.append_snapshot(database, version)
        return database, version

    # -- maintenance (the ``repro wal`` CLI) --------------------------------

    def _rewrite(self, lines: list[str]) -> None:
        """Atomically replace the log body (header + ``lines``)."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(_HEADER)
            handle.writelines(lines)
            handle.flush()
            os.fsync(handle.fileno())
        with self._lock:
            self._file.close()
            os.replace(tmp, self.path)
            self._file = open(self.path, "a", encoding="utf-8")
            self._pending = 0

    def truncate(self, keep_through_seq: int) -> int:
        """Drop every record with ``seq > keep_through_seq`` (tail
        repair); returns how many records were dropped."""
        kept: list[str] = []
        last_seq = 0
        last_version = 0
        dropped = 0
        for record in self.records():
            if record.seq > keep_through_seq:
                dropped += 1
                continue
            kept.append(_format_line(record.seq, self._payload_of(record)))
            last_seq = record.seq
            last_version = record.db_version
        self._rewrite(kept)
        with self._lock:
            self._last_seq = last_seq
            self._last_db_version = last_version
            self.stats.truncations += 1
        return dropped

    def compact(self, database=None) -> int:
        """Snapshot the replayed state and drop the delta prefix;
        returns how many records the snapshot subsumed.  ``database``
        is only needed for logs that start with deltas (see
        :meth:`recover`)."""
        state, version = self.recover(database)
        subsumed = len(self.records())
        payload = json.dumps(
            {
                "kind": "snapshot",
                "db_version": version,
                "relations": {
                    name: _snapshot_rows(relation)
                    for name, relation in sorted(
                        state.relations.items()
                    )
                },
            },
            default=str,
            separators=(",", ":"),
        )
        seq = max(self._last_seq, 1)
        self._rewrite([_format_line(seq, payload)])
        with self._lock:
            self._last_seq = seq
            self._last_db_version = version
            self.stats.compactions += 1
        return subsumed

    @staticmethod
    def _payload_of(record: WalRecord) -> str:
        if record.kind == "delta":
            body = {
                "kind": "delta",
                "db_version": record.db_version,
                "delta": record.delta.as_dict(),
            }
        else:
            body = {
                "kind": "snapshot",
                "db_version": record.db_version,
                "relations": record.relations,
            }
        return json.dumps(body, default=str, separators=(",", ":"))

    # -- observability -----------------------------------------------------

    def wal_stats(self) -> dict:
        """A plain-dict snapshot for ``/stats`` and ``repro wal
        inspect``: position (seq / db_version) plus the counters."""
        with self._lock:
            out = self.stats.as_dict()
            out["path"] = str(self.path)
            out["format"] = WAL_FORMAT_VERSION
            out["last_seq"] = self._last_seq
            out["last_db_version"] = self._last_db_version
            out["fsync_batch"] = self._fsync_batch
        return out

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.path)!r}, seq={self._last_seq}, "
            f"db_version={self._last_db_version})"
        )


__all__ = ["WAL_FORMAT_VERSION", "WalRecord", "WalStats", "WriteAheadLog"]
