"""The sweep result store: indexed sqlite, plus a v1 JSONL migration.

One row per completed sweep point, keyed by the point's content hash
(:meth:`~repro.dse.spec.SweepPoint.content_hash`).
:class:`SqliteResultStore` keeps each row as its canonical JSON text
(:func:`row_text`) in an indexed table, so a single cell is answered by
one primary-key lookup in well under a millisecond — the store behind
both ``python -m repro.dse`` and the ``repro.serve`` sweep service.
Every append commits, so a killed sweep loses at most the row being
written. It adds age-based TTL expiry and an oldest-first row cap
(eviction metadata lives in table columns, never inside the row
payload), plus quarantine-and-recreate recovery when the database file
itself is torn or corrupt.

Earlier versions wrote an append-only JSON-lines file (format v1).
:func:`load_jsonl` reads one, and :func:`migrate_jsonl_to_sqlite`
copies it into a sqlite store with row-for-row byte equality
(:func:`store_digest` proves the migration lossless).

Rows carry no wall-clock fields — a serial sweep, a ``--jobs N`` sweep
and a resumed sweep of the same spec produce byte-identical rows,
differing only in insertion order.

Row schema (``version`` = :data:`~repro.dse.spec.STORE_VERSION`)::

    {"hash": ..., "version": 1, "status": "ok" | "failed" | "pruned",
     "point": {workload, config, scale, machine_overrides,
               workload_kwargs},
     "machine_digest": ..., "metrics": {...} | null,
     "error": null | "ExcType: message", "attempts": 1 | 2}

``attempts`` counts the attempts behind the row: 1, or 2 when a worker
process died under the group and its retry failed too. It reflects the
**last-written row only**: a store keeps one row per hash, so a resumed
retry of a ``failed`` point *replaces* the old row (and its attempts
count). A point whose group failed twice, then succeeded on
``--resume``, loads as ``{"status": "ok", "attempts": 1}`` (pinned by
``tests/dse/test_store_v2.py::TestAttemptsSemantics``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigError

#: value of the ``format`` key in a store's ``meta`` table
SQLITE_FORMAT_VERSION = 2

#: the 16-byte magic every well-formed sqlite file starts with
_SQLITE_MAGIC = b"SQLite format 3\x00"


def row_text(row: Dict[str, object]) -> str:
    """Canonical single-line serialization of one row."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def load_jsonl(path: str) -> Dict[str, Dict[str, object]]:
    """Hash -> last row of a v1 JSON-lines store, in file order.

    A torn final line (a writer killed mid-row) and blank lines are
    skipped; a row without a hash is an error.
    """
    rows: Dict[str, Dict[str, object]] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(row, dict) or "hash" not in row:
                raise ConfigError(f"result store {path}: row without a hash")
            rows[row["hash"]] = row
    return rows


class SqliteResultStore:
    """Indexed sqlite store: one row per hash, millisecond lookups.

    The row payload is stored verbatim as its canonical JSON text
    (:func:`row_text`), so a migrated v1 file keeps its exact row bytes.
    Bookkeeping that must never leak into rows —
    insertion sequence for oldest-first eviction, a wall-clock
    ``stored_at`` for TTL expiry — lives in separate columns.

    * ``ttl_s > 0``: :meth:`evict_expired` deletes rows older than the
      TTL, measured from the time the row was (re-)written; re-writing
      a hash refreshes its age. ``ttl_s == 0`` disables expiry.
    * ``max_rows > 0``: every append evicts oldest-written rows beyond
      the cap. ``max_rows == 0`` means unbounded.
    * A file that exists but is not a readable sqlite database (torn
      block writes, a v1 JSON-lines file passed as a store path) is
      quarantined — renamed to ``<path>.corrupt`` (``.corrupt-2``, ...
      if taken) — and a fresh empty store is created in its place; the
      quarantined path is kept in :attr:`quarantined` so callers can
      surface it (``python -m repro.dse`` and ``python -m repro.serve``
      print it as a warning). Every point is recomputable, so losing a corrupt
      cache beats refusing to serve.

    Thread-safe: one connection guarded by a lock (the serve layer's
    HTTP handler threads and worker callbacks share a store).
    """

    def __init__(self, path: str, ttl_s: float = 0.0, max_rows: int = 0):
        self.path = path
        self.ttl_s = float(ttl_s)
        self.max_rows = int(max_rows)
        #: path the pre-existing corrupt file was moved to, if any
        self.quarantined: Optional[str] = None
        self._lock = threading.Lock()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = self._connect()

    # -- lifecycle -----------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        try:
            return self._open_and_init()
        except sqlite3.DatabaseError:
            self.quarantined = self._quarantine()
            return self._open_and_init()

    def _open_and_init(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS rows ("
                " hash TEXT PRIMARY KEY,"
                " status TEXT NOT NULL,"
                " row TEXT NOT NULL,"
                " seq INTEGER NOT NULL,"
                " stored_at REAL NOT NULL)"
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS rows_seq ON rows(seq)"
            )
            conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES "
                "('format', ?)", (str(SQLITE_FORMAT_VERSION),)
            )
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _quarantine(self) -> str:
        target = self.path + ".corrupt"
        n = 1
        while os.path.exists(target):
            n += 1
            target = f"{self.path}.corrupt-{n}"
        os.replace(self.path, target)
        # sqlite sidecars of the corrupt db must not attach to the
        # fresh file
        for suffix in ("-wal", "-shm", "-journal"):
            if os.path.exists(self.path + suffix):
                os.replace(self.path + suffix, target + suffix)
        return target

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, object]]:
        """Hash -> row, in insertion order."""
        with self._lock:
            cur = self._conn.execute(
                "SELECT row FROM rows ORDER BY seq")
            return {
                (row := json.loads(text))["hash"]: row
                for (text,) in cur.fetchall()
            }

    def get(self, hash_: str) -> Optional[Dict[str, object]]:
        """Indexed single-row lookup — the serve layer's cache hit."""
        with self._lock:
            cur = self._conn.execute(
                "SELECT row FROM rows WHERE hash = ?", (hash_,))
            hit = cur.fetchone()
        return json.loads(hit[0]) if hit else None

    def count(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM rows").fetchone()
        return int(n)

    # -- writing -------------------------------------------------------
    def append(self, row: Dict[str, object]) -> None:
        """Insert-or-replace one row; enforces ``max_rows``."""
        if not isinstance(row, dict) or "hash" not in row:
            raise ConfigError(
                f"result store {self.path}: row without a hash")
        with self._lock:
            (seq,) = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM rows").fetchone()
            self._conn.execute(
                "INSERT OR REPLACE INTO rows"
                " (hash, status, row, seq, stored_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (row["hash"], str(row.get("status")), row_text(row),
                 seq, time.time()),
            )
            if self.max_rows > 0:
                self._conn.execute(
                    "DELETE FROM rows WHERE seq <= ("
                    " SELECT COALESCE(MAX(seq), 0) - ? FROM rows)",
                    (self.max_rows,),
                )
            self._conn.commit()

    def evict_expired(self, now: Optional[float] = None) -> int:
        """Delete rows older than ``ttl_s``; returns the eviction count.

        ``now`` is injectable for tests; production callers (the serve
        housekeeping loop) pass nothing.
        """
        if self.ttl_s <= 0:
            return 0
        cutoff = (now if now is not None else time.time()) - self.ttl_s
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM rows WHERE stored_at < ?", (cutoff,))
            self._conn.commit()
        return cur.rowcount


def open_result_store(path: Optional[str]) -> Optional[SqliteResultStore]:
    """Open the sqlite store at ``path`` (None -> no store)."""
    return SqliteResultStore(path) if path else None


def store_digest(store: SqliteResultStore) -> str:
    """Content digest: sha256 over the sorted canonical row lines. Two
    stores holding the same rows — regardless of insertion order or
    replaced history — share a digest."""
    lines = sorted(row_text(row) for row in store.load().values())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass(frozen=True)
class MigrationReport:
    """What :func:`migrate_jsonl_to_sqlite` did."""

    source: str
    target: str
    rows: int
    digest: str

    def line(self) -> str:
        return (f"migrated {self.rows} rows: {self.source} -> "
                f"{self.target} (digest {self.digest[:12]})")


def migrate_jsonl_to_sqlite(jsonl_path: str,
                            sqlite_path: Optional[str] = None,
                            overwrite: bool = False) -> MigrationReport:
    """Copy a v1 JSONL store into a new sqlite store.

    Rows are carried over in file order with their exact canonical
    bytes (shadowed history collapses to last-row-per-hash, as every v1
    load did; a torn final line is dropped). The source file is left
    untouched. Refuses to clobber an existing target unless
    ``overwrite=True``.
    """
    if not os.path.exists(jsonl_path):
        raise ConfigError(f"migration source {jsonl_path} does not exist")
    with open(jsonl_path, "rb") as f:
        if f.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC:
            raise ConfigError(
                f"migration source {jsonl_path} is already a sqlite store")
    target = sqlite_path or (os.path.splitext(jsonl_path)[0] + ".sqlite")
    if os.path.exists(target):
        if not overwrite:
            raise ConfigError(
                f"migration target {target} exists "
                f"(pass overwrite to replace it)")
        os.remove(target)
    rows = load_jsonl(jsonl_path)
    store = SqliteResultStore(target)
    try:
        for row in rows.values():
            store.append(row)
        digest = store_digest(store)
    finally:
        store.close()
    return MigrationReport(source=jsonl_path, target=target,
                           rows=len(rows), digest=digest)


__all__ = [
    "MigrationReport", "SQLITE_FORMAT_VERSION", "SqliteResultStore",
    "load_jsonl", "migrate_jsonl_to_sqlite", "open_result_store",
    "row_text", "store_digest",
]
