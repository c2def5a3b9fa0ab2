"""Persistent on-disk result store (append-only JSONL).

Layout: ``<root>/<namespace>/results.jsonl`` -- one JSON record per
line, keyed by the evaluation point's config hash.  The namespace is
one digest of the whole source tree (:mod:`repro.eval.fingerprints`),
shared by every backend and the co-search, so any source edit
silently starts a fresh namespace instead of serving stale results,
while re-runs under unchanged code are fully incremental.

Duplicate keys are legal (``--force`` re-evaluations append); the last
record wins on load.  A torn trailing line from an interrupted write is
skipped, so a crashed campaign resumes cleanly.  Writes are
multi-writer safe: every mutation (:meth:`ResultStore.put`,
:meth:`~ResultStore.compact`, :meth:`~ResultStore.merge`) takes an
advisory ``fcntl`` lock on a per-namespace lockfile, so N sharded
campaign processes may append to one namespace concurrently.  Readers
take no ``fcntl`` lock: appends are atomic single writes, and a line
without its newline yet is left for the next read.
:meth:`ResultStore.refresh` reads only the lines appended since the
index last read the file, other processes' included, and reads the
file whole when it was replaced (a ``compact``/``dse gc`` rename),
truncated or rewritten.  Within one process, one thread lock per store
orders every index update (a read, ``put``, ``merge``, ``compact``,
``destroy``), so an older read never overwrites a newer record.
:meth:`ResultStore.merge` folds another shard's store -- or a
``results.jsonl`` copied from another host -- into this one, last-wins
by key and idempotent under re-merge, committing only the records
computed under this namespace's fingerprint.

Record lines and served replies share one JSON encoding
(:func:`encode_json`).  A store answering the same key many times (the
evaluation service's store tier) keeps each result's encoded bytes
beside its in-memory index, encoded on first request
(:meth:`ResultStore.result_with_json`).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no locking
    fcntl = None  # type: ignore[assignment]

from repro import faults
from repro.dse.records import result_from_dict, result_to_dict
from repro.eval.fingerprints import code_fingerprint
from repro.eval.result import EvalResult
from repro.obs import counter, observe, trace

#: Environment variable overriding the default store root.
DEFAULT_ROOT_ENV = "REPRO_DSE_STORE"

#: Per-namespace lockfile serializing cross-process mutations.
LOCK_FILENAME = ".lock"

#: Quarantine sidecars written by :meth:`ResultStore.compact` for lines
#: that are not valid records (torn writes, foreign JSON).
CORRUPT_PREFIX = "corrupt-"

#: How many bytes before its read offset a store compares with what it
#: read there, to tell an append from an in-place rewrite.
_SEEN_BYTES = 4096


def default_store_root() -> Path:
    """``$REPRO_DSE_STORE`` or ``~/.cache/repro-dse``."""
    override = os.environ.get(DEFAULT_ROOT_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-dse"


class ScanResult(NamedTuple):
    """One pass over a ``results.jsonl``: records, bloat, and damage."""

    #: Last-wins ``key -> record`` map.
    records: dict[str, dict[str, Any]]
    #: Raw non-blank line count (superseded duplicates and corrupt
    #: lines included), so callers like the GC need not re-read the
    #: file to measure bloat.
    raw_lines: int
    #: Lines that are not valid records -- torn writes from crashed
    #: campaigns, foreign/non-dict JSON -- verbatim, for quarantine.
    corrupt: tuple[str, ...]
    #: Byte offset just past the last newline-terminated line: where a
    #: scan of the lines appended later starts.
    end: int
    #: Whether a non-blank line without its newline follows ``end``: a
    #: torn write, or an append still in progress.  It is counted in
    #: ``raw_lines`` and ``corrupt``, never parsed as a record.
    partial: bool


def scan_jsonl(path: Path, start: int = 0) -> ScanResult:
    """One-pass parse of a ``results.jsonl`` from byte ``start`` on.

    A torn or otherwise corrupt line is skipped (and reported in
    ``corrupt``), never fatal, so a crashed campaign resumes cleanly;
    a missing file reads as empty.  ``start`` must be a line boundary,
    such as the ``end`` of an earlier scan of the same file.
    """
    records: dict[str, dict[str, Any]] = {}
    raw_lines = 0
    corrupt: list[str] = []
    end = start
    partial = False
    try:
        handle = path.open("rb")
    except (FileNotFoundError, NotADirectoryError):
        return ScanResult(records, raw_lines, (), end, partial)
    with handle:
        handle.seek(start)
        for raw in handle:
            line = raw.strip()
            if not raw.endswith(b"\n"):
                # The last line has no newline yet: reported, not
                # consumed, so a later scan from ``end`` reads it whole.
                if line:
                    raw_lines += 1
                    corrupt.append(line.decode("utf-8", "replace"))
                    partial = True
                break
            end += len(raw)
            if not line:
                continue
            raw_lines += 1
            try:
                record = json.loads(line)
            except ValueError:  # torn write from a crashed run
                corrupt.append(line.decode("utf-8", "replace"))
                continue
            if not isinstance(record, dict):
                # valid JSON, not a record
                corrupt.append(line.decode("utf-8", "replace"))
                continue
            key = record.get("key")
            if key:
                records[key] = record
    return ScanResult(records, raw_lines, tuple(corrupt), end, partial)


def load_jsonl_records(path: Path) -> dict[str, dict[str, Any]]:
    """The last-wins ``key -> record`` map of a ``results.jsonl``."""
    return scan_jsonl(path).records


def encode_json(payload: Any) -> bytes:
    """The one JSON encoding of records and replies: sorted keys, UTF-8."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def encode_record(record: Mapping[str, Any]) -> bytes:
    """The canonical on-disk line for one record (shared by ``put``,
    ``compact``, ``merge``, and the GC's dry-run size estimate)."""
    return encode_json(record) + b"\n"


class CompactStats(NamedTuple):
    """What a :meth:`ResultStore.compact` pass kept and reclaimed."""

    live_records: int
    reclaimed_bytes: int


class MergeStats(NamedTuple):
    """What a :meth:`ResultStore.merge` fold wrote and turned away."""

    written: int
    #: Records whose ``fingerprint`` is not this namespace (or absent).
    skipped: int


class ResultStore:
    """Keyed persistent storage for evaluation records.

    Next to the in-memory index it keeps, per key, the encoded result
    :meth:`result_with_json` answered with.  An entry is filled on first
    request and belongs to the record it encodes: :meth:`put`,
    :meth:`merge` and a :meth:`refresh` that reads on drop the entries
    of the keys they write, and a whole re-read, :meth:`compact` and
    :meth:`destroy` drop them all.

    Index updates hold one thread lock; lookups take none.  A whole
    read builds a fresh index and publishes it at once, so a lookup on
    another thread sees the old index or the new one, never half of it.
    """

    def __init__(self, root: str | Path | None = None,
                 namespace: str | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.namespace = namespace or code_fingerprint()
        self.path = self.root / self.namespace / "results.jsonl"
        self._records: dict[str, dict[str, Any]] = {}
        self._loaded = False
        #: key -> (the record, its result's encoding)
        self._encoded: dict[str, tuple[dict[str, Any], bytes]] = {}
        #: Where the index's read of the file stopped (just past its
        #: last complete line), and what it saw there: the file's
        #: ``(st_dev, st_ino)`` and the bytes just before the offset.
        self._offset = 0
        self._seen: tuple[tuple[int, int], bytes] | None = None
        #: Orders every index update: reads, put, merge, compact, destroy.
        self._lock = threading.Lock()

    # -- locking ---------------------------------------------------------
    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory cross-process lock over this namespace's mutations.

        Readers never take it: appends land as atomic single writes and
        a read leaves a line without its newline for the next read, so
        the lock only has to serialize writers (concurrent shard
        appends, ``compact`` rewrites, ``merge`` folds).  On platforms
        without ``fcntl`` the store degrades to the old single-writer
        discipline.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        fd = os.open(self.path.parent / LOCK_FILENAME,
                     os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            # Lock *wait* (contention with other shard processes), not
            # the held duration; the campaign report splits them out.
            start = time.perf_counter()
            fcntl.flock(fd, fcntl.LOCK_EX)
            observe("store.lock_wait", time.perf_counter() - start,
                    namespace=self.namespace)
            yield
        finally:
            os.close(fd)  # closing the descriptor releases the lock

    # -- loading ---------------------------------------------------------
    def _load(self) -> None:
        if not self._loaded:
            self.refresh()

    def refresh(self) -> None:
        """Index the records appended since the last read of the file.

        Picks up other processes' appends.  The first call, and any call
        after the file was replaced, truncated or rewritten, reads the
        file whole instead.
        """
        with self._lock:
            self._read()

    def _probe(self, offset: int) -> tuple[tuple[int, int], bytes] | None:
        """The file's identity and up to ``_SEEN_BYTES`` bytes before
        ``offset`` (fewer if the file is shorter); ``None`` if absent."""
        try:
            with self.path.open("rb") as handle:
                stat = os.fstat(handle.fileno())
                begin = max(0, offset - _SEEN_BYTES)
                handle.seek(begin)
                return (stat.st_dev, stat.st_ino), handle.read(offset - begin)
        except (FileNotFoundError, NotADirectoryError):
            return None

    def _read(self) -> None:
        """The body of :meth:`refresh`; the caller holds ``_lock``.

        Reads on from the remembered offset while the file is the one
        the index read (same identity, same bytes before the offset),
        else reads it whole into a fresh index.  A file that appears,
        vanishes or is replaced during the read is read whole next time.
        """
        with trace("store.load", namespace=self.namespace):
            before = self._probe(self._offset)
            start = self._offset if before == self._seen else 0
            scan = scan_jsonl(self.path, start)
            if start:
                self._records.update(scan.records)
                for key in scan.records:
                    self._encoded.pop(key, None)
            else:
                self._records, self._encoded = scan.records, {}
            self._loaded = True
            after = self._probe(scan.end)
            if before is None or after is None or before[0] != after[0]:
                self._offset, self._seen = 0, None
            else:
                self._offset, self._seen = scan.end, after
            corrupt = len(scan.corrupt) - scan.partial
            if corrupt:
                # Observable, not fatal: the summary/gc paths surface
                # the count so torn lines don't rot silently.
                counter("store.corrupt_lines", n=corrupt,
                        namespace=self.namespace)

    # -- mapping protocol ------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        self._load()
        return self._records.get(key)

    def __contains__(self, key: str) -> bool:
        self._load()
        return key in self._records

    def __len__(self) -> int:
        self._load()
        return len(self._records)

    def keys(self) -> Iterator[str]:
        self._load()
        return iter(tuple(self._records))

    # -- writing ---------------------------------------------------------
    def _append(self, lines: list[bytes]) -> None:
        """Append pre-serialized record lines as one atomic write.

        The caller holds ``_lock`` and the namespace lock, and indexes
        the lines itself.  If the file ends mid-line (a torn write from
        a crashed campaign), the append starts on a fresh line --
        otherwise the first new record would concatenate onto the torn
        fragment and be lost with it.  When the file before the append
        is exactly what the index read (same identity, same bytes
        before the read offset, nothing after it), the read offset
        moves past the appended lines, so the next refresh does not
        parse them again; a line without its newline never moves it.
        """
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            data = b"".join(lines)
            stat = os.fstat(fd)
            size = stat.st_size
            # lseek+read (not os.pread) keeps the probe portable to
            # platforms without fcntl; O_APPEND still sends the write
            # to end-of-file regardless of the read offset.
            begin = max(0, size - _SEEN_BYTES)
            os.lseek(fd, begin, os.SEEK_SET)
            tail = os.read(fd, size - begin)
            if tail and not tail.endswith(b"\n"):
                data = b"\n" + data
            seen = ((stat.st_dev, stat.st_ino), tail)
            indexed = size == self._offset and (not size or seen == self._seen)
            os.write(fd, data)
            if indexed and data.endswith(b"\n"):
                self._offset = size + len(data)
                self._seen = (seen[0], (tail + data)[-_SEEN_BYTES:])
        finally:
            os.close(fd)

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Append one record and update the in-memory index.

        The line goes out as a single ``write()`` to an ``O_APPEND``
        descriptor under the namespace lock, so concurrent shard
        processes appending to one namespace interleave whole records
        -- a colliding key degrades to a duplicate/last-wins record
        instead of torn JSON.
        """
        self._load()
        record = {**record, "key": key}
        data = encode_record(record)
        if faults.enabled():
            # Chaos-testing hook: a `slow_io` fault stalls here, a
            # `torn_write` fault truncates the line mid-record exactly
            # like a writer crashing inside write() -- the record stays
            # in this process's memory but is lost on disk, so a resume
            # must re-evaluate it and compact() must quarantine the
            # fragment.
            if faults.store_write_fault(key) == "torn_write":
                data = data[:max(1, len(data) // 2)].rstrip(b"\n")
        with trace("store.put", namespace=self.namespace):
            with self._lock, self._locked():
                self._append([data])
                self._records[key] = record
                self._encoded.pop(key, None)

    def _quarantine(self, corrupt: tuple[str, ...]) -> None:
        """Move non-record lines into a ``corrupt-<ts>.jsonl`` sidecar.

        Called under the namespace lock (so the torn trailing line of
        an *in-flight* append can never be quarantined -- writers hold
        the same lock).  The fragments are preserved verbatim for
        post-mortems instead of silently discarded by the rewrite.
        """
        sidecar = self.path.parent / f"{CORRUPT_PREFIX}{int(time.time())}.jsonl"
        with sidecar.open("a", encoding="utf-8") as handle:
            for line in corrupt:
                handle.write(line + "\n")
        counter("store.corrupt_lines", n=len(corrupt),
                namespace=self.namespace, quarantined=True)

    def compact(self) -> CompactStats:
        """Rewrite the file without superseded duplicates.

        Runs under the namespace lock and re-reads the file inside it,
        so records appended by other processes survive the rewrite.
        Corrupt lines (torn writes, foreign JSON) are quarantined to a
        ``corrupt-<ts>.jsonl`` sidecar rather than silently dropped.
        When zero live records remain the stale file is unlinked (not
        left behind).  Returns the live-record count and the bytes
        reclaimed.
        """
        if not self.path.exists():
            # True no-op: don't create the namespace dir (and its
            # lockfile husk) just to discover there is nothing to do.
            self.refresh()
            return CompactStats(0, 0)
        with self._lock, self._locked():
            scan = scan_jsonl(self.path)
            self._records, self._encoded = scan.records, {}
            self._loaded = True
            if scan.corrupt:
                self._quarantine(scan.corrupt)
            before = self.path.stat().st_size if self.path.exists() else 0
            if not self._records:
                if self.path.exists():
                    self.path.unlink()
                return CompactStats(0, before)
            tmp = self.path.with_suffix(".jsonl.tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                for record in self._records.values():
                    handle.write(encode_record(record).decode("utf-8"))
            tmp.replace(self.path)
            after = self.path.stat().st_size
            # The rewrite holds exactly the index, and the namespace
            # lock keeps appends out until it is released.
            self._offset, self._seen = after, self._probe(after)
        return CompactStats(len(self._records), before - after)

    def destroy(self) -> None:
        """Remove the whole namespace directory (records, lockfile,
        rewrite temps) under the namespace lock.

        Serializing on the lock means an in-flight writer's append
        completes before the directory goes, so eviction never tears a
        record mid-write.  Eviction is still destructive by design: a
        writer that comes back afterwards recreates a fresh, empty
        namespace.
        """
        if not self.path.parent.is_dir():
            return
        with self._lock, self._locked():
            shutil.rmtree(self.path.parent)
            self._records, self._encoded = {}, {}
            self._loaded = True
            self._offset, self._seen = 0, None

    def merge(self, source: "ResultStore | str | Path") -> MergeStats:
        """Fold another store's records into this one, last-wins by key.

        ``source`` may be a :class:`ResultStore`, a namespace directory,
        or a bare ``results.jsonl`` (e.g. copied from another shard
        host).  Only records whose ``fingerprint`` equals this
        namespace are committed; any other record was computed by
        other code and is skipped rather than served as this code's
        result.  Records identical to what this store already holds
        are not rewritten, so merging the same shard twice is a no-op.
        """
        if isinstance(source, ResultStore):
            source_path = source.path
        else:
            source_path = Path(source)
            if source_path.is_dir():
                source_path = source_path / "results.jsonl"
        incoming = load_jsonl_records(source_path)
        ours = {key: record for key, record in incoming.items()
                if record.get("fingerprint") == self.namespace}
        skipped = len(incoming) - len(ours)
        if not ours:
            return MergeStats(0, skipped)
        written = 0
        with self._lock, self._locked():
            self._read()
            lines: list[bytes] = []
            for key, record in ours.items():
                if self._records.get(key) == record:
                    continue
                lines.append(encode_record(record))
                self._records[key] = record
                self._encoded.pop(key, None)
                written += 1
            if lines:
                self._append(lines)
        return MergeStats(written, skipped)

    # -- convenience -----------------------------------------------------
    def _result_record(self, key: str, load: bool) -> dict[str, Any] | None:
        """``key``'s record if it holds an evaluation result."""
        if load:
            record = self.get(key)
        else:
            record = self._records.get(key) if self._loaded else None
        if record is None:
            return None
        payload = record.get("result")
        if not isinstance(payload, Mapping) or "workload" not in payload:
            return None  # not an evaluation result
        return record

    def result(self, key: str, *, load: bool = True) -> EvalResult | None:
        """Deserialize the stored canonical result for ``key``.

        A record whose ``result`` is not an evaluation result counts as
        a miss.  ``load=False`` never reads the file: it consults the
        in-memory index only, and a store that has not loaded it
        misses.
        """
        record = self._result_record(key, load)
        return None if record is None else result_from_dict(record["result"])

    def result_with_json(self, key: str, *, load: bool = True
                         ) -> tuple[EvalResult, bytes] | None:
        """:meth:`result` and its bytes, ``encode_json(result.to_dict())``.

        The bytes are encoded on the first request for the record and
        kept until the record is replaced or the index reloaded.  Each
        entry names the record it encodes, so a lookup racing a
        :meth:`refresh` on another thread never pairs one record's
        result with another's bytes.
        """
        record = self._result_record(key, load)
        if record is None:
            return None
        result = result_from_dict(record["result"])
        entry = self._encoded.get(key)
        if entry is None or entry[0] is not record:
            entry = (record, encode_json(result_to_dict(result)))
            self._encoded[key] = entry
        return result, entry[1]

