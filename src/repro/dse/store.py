"""Persistent on-disk result store (append-only JSONL).

Layout: ``<root>/<namespace>/results.jsonl`` -- one JSON record per
line, keyed by the evaluation point's config hash.  Every namespace
derives from one digest of the whole source tree
(:mod:`repro.eval.fingerprints`), so any source edit silently starts
fresh namespaces instead of serving stale results, while re-runs under
unchanged code are fully incremental.

Duplicate keys are legal (``--force`` re-evaluations append); the last
record wins on load.  A torn trailing line from an interrupted write is
skipped, so a crashed campaign resumes cleanly.  Writes are
multi-writer safe: every mutation (:meth:`ResultStore.put`,
:meth:`~ResultStore.compact`, :meth:`~ResultStore.merge`) takes an
advisory ``fcntl`` lock on a per-namespace lockfile, so N sharded
campaign processes may append to one namespace concurrently; readers
never lock (appends are atomic single writes and a torn trailing line
is tolerated).  :meth:`ResultStore.merge` folds another shard's store
-- or a ``results.jsonl`` copied from another host -- into this one,
last-wins by key and idempotent under re-merge, committing only the
records computed under this namespace's fingerprint.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: no locking
    fcntl = None  # type: ignore[assignment]

from repro import faults
from repro.accelerators.base import NetworkEvaluation
from repro.dse.records import (
    RECORD_VERSION,
    evaluation_from_dict,
    result_from_dict,
)
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


def scan_jsonl(path: Path) -> ScanResult:
    """One-pass parse of a ``results.jsonl``.

    A torn or otherwise corrupt line is skipped (and reported in
    ``corrupt``), never fatal, so a crashed campaign resumes cleanly;
    a missing file reads as empty.
    """
    records: dict[str, dict[str, Any]] = {}
    raw_lines = 0
    corrupt: list[str] = []
    if not path.exists():
        return ScanResult(records, raw_lines, ())
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            raw_lines += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                corrupt.append(line)  # torn write from a crashed run
                continue
            if not isinstance(record, dict):
                corrupt.append(line)  # valid JSON, not a record
                continue
            key = record.get("key")
            if key:
                records[key] = record
    return ScanResult(records, raw_lines, tuple(corrupt))


def load_jsonl_records(path: Path) -> dict[str, dict[str, Any]]:
    """The last-wins ``key -> record`` map of a ``results.jsonl``."""
    return scan_jsonl(path).records


def encode_record(record: Mapping[str, Any]) -> bytes:
    """The canonical on-disk line for one record (shared by ``put``,
    ``compact``, ``merge``, and the GC's dry-run size estimate)."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


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
    """Keyed persistent storage for evaluation records."""

    def __init__(self, root: str | Path | None = None,
                 namespace: str | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.namespace = namespace or code_fingerprint()
        self.path = self.root / self.namespace / "results.jsonl"
        self._records: dict[str, dict[str, Any]] = {}
        self._loaded = False

    # -- locking ---------------------------------------------------------
    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory cross-process lock over this namespace's mutations.

        Readers never take it: appends land as atomic single writes and
        the loader tolerates a torn trailing line, so the lock only has
        to serialize writers (concurrent shard appends, ``compact``
        rewrites, ``merge`` folds).  On platforms without ``fcntl`` the
        store degrades to the old single-writer discipline.
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
        if self._loaded:
            return
        self._loaded = True
        with trace("store.load", namespace=self.namespace):
            scan = scan_jsonl(self.path)
            self._records.update(scan.records)
            if scan.corrupt:
                # Observable, not fatal: the summary/gc paths surface
                # the count so torn lines don't rot silently.
                counter("store.corrupt_lines", n=len(scan.corrupt),
                        namespace=self.namespace)

    def refresh(self) -> None:
        """Re-read the backing file (e.g. after another process wrote)."""
        self._records.clear()
        self._loaded = False
        self._load()

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

        If the file ends mid-line (a torn write from a crashed
        campaign), the append starts on a fresh line -- otherwise the
        first new record would concatenate onto the torn fragment and
        be lost with it.
        """
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            data = b"".join(lines)
            size = os.fstat(fd).st_size
            if size:
                # lseek+read (not os.pread) keeps the probe portable to
                # platforms without fcntl; O_APPEND still sends the
                # write to end-of-file regardless of the read offset.
                os.lseek(fd, size - 1, os.SEEK_SET)
                if os.read(fd, 1) != b"\n":
                    data = b"\n" + data
            os.write(fd, data)
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
            with self._locked():
                self._append([data])
        self._records[key] = record

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
        with self._locked():
            scan = scan_jsonl(self.path)
            self._records.clear()
            self._records.update(scan.records)
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
        with self._locked():
            shutil.rmtree(self.path.parent)
        self._records.clear()
        self._loaded = True

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
        with self._locked():
            self.refresh()
            lines: list[bytes] = []
            for key, record in ours.items():
                if self._records.get(key) == record:
                    continue
                lines.append(encode_record(record))
                self._records[key] = record
                written += 1
            if lines:
                self._append(lines)
        return MergeStats(written, skipped)

    # -- convenience -----------------------------------------------------
    def result(self, key: str) -> EvalResult | None:
        """Deserialize the stored canonical result for ``key``.

        Records from an older layout (``version`` mismatch) count as
        misses, so a record-format change re-evaluates instead of
        feeding a stale dict to the deserializer.
        """
        record = self.get(key)
        if record is None or record.get("version") != RECORD_VERSION:
            return None
        payload = record.get("result")
        if not isinstance(payload, Mapping) or "workload" not in payload:
            return None  # not an evaluation result
        return result_from_dict(payload)

    def evaluation(self, key: str) -> NetworkEvaluation | None:
        """Legacy view of :meth:`result` (model-backed records only)."""
        record = self.get(key)
        if record is None or record.get("version") != RECORD_VERSION:
            return None
        payload = record.get("result")
        if not isinstance(payload, Mapping) or "workload" not in payload:
            return None  # not an evaluation result
        if payload.get("backend", "model") != "model":
            return None  # no analytical breakdown to reconstruct
        return evaluation_from_dict(payload)


class StoreRouter:
    """Routes each evaluation point to its backend's store namespace.

    Model-backed records live in the campaign's own store; every other
    backend gets a sibling namespace under the same root, keyed by the
    backend's source fingerprint -- so a mixed-backend campaign's
    executor, summaries, and CLI all agree on where records land.
    """

    def __init__(self, base: ResultStore) -> None:
        from repro.eval.request import MODEL_BACKEND

        self.base = base
        self._stores: dict[str, ResultStore] = {MODEL_BACKEND: base}

    def for_backend(self, backend: str) -> ResultStore:
        if backend not in self._stores:
            from repro.eval.registry import get_backend

            self._stores[backend] = ResultStore(
                self.base.root,
                namespace=get_backend(backend).fingerprint())
        return self._stores[backend]

    def for_point(self, point: Any) -> ResultStore:
        return self.for_backend(point.backend)

    def result(self, point: Any) -> EvalResult | None:
        return self.for_point(point).result(point.key())

    def record(self, point: Any) -> dict[str, Any] | None:
        """The raw stored record for ``point`` (provenance and all)."""
        return self.for_point(point).get(point.key())
