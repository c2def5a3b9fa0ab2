"""Store lifecycle: compact live namespaces, evict stale ones.

A store root accumulates one namespace directory per source
fingerprint that ever ran a campaign.  Every namespace digests the
whole ``repro`` tree and numpy's version, so any source edit or numpy
upgrade rotates all of them and the old namespaces silently stop being
read -- they are pure disk weight.
:func:`collect_garbage` walks a root, compacts the namespaces the
current source tree still produces (dropping superseded ``--force``
duplicates and torn lines), and evicts stale namespaces by age and an
optional total-size budget.
Live namespaces are never evicted, whatever the budget.

CLI: ``python -m repro.dse gc [--dry-run] [--max-age-days D]
[--max-bytes N]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.dse.store import (
    CORRUPT_PREFIX,
    LOCK_FILENAME,
    ResultStore,
    default_store_root,
    encode_record,
    scan_jsonl,
)

#: Default age after which a stale namespace is evicted.
DEFAULT_MAX_AGE_DAYS = 30.0


def live_namespaces() -> frozenset[str]:
    """Every namespace the current source tree can still write to.

    The registered evaluation backends' namespaces (model and
    ``simnet-``) plus the guided co-search's ``opt-``, all derived from
    one whole-tree digest.  Anything else under a root -- an older
    digest, or a prefix the tree no longer writes, such as the retired
    ``sim-`` validation campaigns -- is stale.
    """
    from repro.eval.fingerprints import live_fingerprints, opt_fingerprint

    return live_fingerprints() | {opt_fingerprint()}


@dataclass(frozen=True)
class NamespaceReport:
    """What the GC found -- and did -- in one namespace directory."""

    namespace: str
    live: bool
    records: int          #: raw JSONL lines (incl. superseded and torn)
    live_records: int     #: last-wins records
    size_bytes: int       #: results.jsonl size before the pass
    age_days: float       #: since the last append
    action: str           #: ``"keep"`` | ``"compact"`` | ``"evict"``
    reclaimed_bytes: int  #: what the action frees (0 for ``"keep"``)
    corrupt_lines: int = 0  #: torn/foreign lines found in results.jsonl

    def to_dict(self) -> dict[str, Any]:
        return {
            "namespace": self.namespace,
            "live": self.live,
            "records": self.records,
            "live_records": self.live_records,
            "size_bytes": self.size_bytes,
            "age_days": self.age_days,
            "action": self.action,
            "reclaimed_bytes": self.reclaimed_bytes,
            "corrupt_lines": self.corrupt_lines,
        }


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :func:`collect_garbage` pass over a store root."""

    root: Path
    dry_run: bool
    namespaces: tuple[NamespaceReport, ...]

    @property
    def reclaimed_bytes(self) -> int:
        return sum(ns.reclaimed_bytes for ns in self.namespaces)

    @property
    def evicted(self) -> int:
        return sum(1 for ns in self.namespaces if ns.action == "evict")

    @property
    def compacted(self) -> int:
        return sum(1 for ns in self.namespaces if ns.action == "compact")

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": str(self.root),
            "dry_run": self.dry_run,
            "namespaces": [ns.to_dict() for ns in self.namespaces],
            "evicted": self.evicted,
            "compacted": self.compacted,
            "reclaimed_bytes": self.reclaimed_bytes,
        }


def _compacted_size(records: dict[str, dict[str, Any]]) -> int:
    """Exact byte size of the file :meth:`ResultStore.compact` writes."""
    return sum(len(encode_record(record)) for record in records.values())


def _is_empty_namespace(ns_dir: Path) -> bool:
    """True when ``ns_dir`` holds nothing but store bookkeeping files.

    The shape a zero-live-record :meth:`ResultStore.compact` leaves
    behind: the directory, its lockfile (compact always creates one),
    possibly an abandoned rewrite temp, and possibly corrupt-line
    quarantine sidecars -- no ``results.jsonl``.  The lockfile is
    required: a merely empty directory under the root could belong to
    anything and is not ours to evict.
    """
    allowed = {LOCK_FILENAME, "results.jsonl", "results.jsonl.tmp"}
    names = {child.name for child in ns_dir.iterdir()}
    extras = {name for name in names
              if name.startswith(CORRUPT_PREFIX) and name.endswith(".jsonl")}
    return LOCK_FILENAME in names and names - extras <= allowed


def collect_garbage(
    root: str | Path | None = None,
    *,
    max_age_days: float = DEFAULT_MAX_AGE_DAYS,
    max_bytes: int | None = None,
    dry_run: bool = False,
    now: float | None = None,
) -> GcReport:
    """One GC pass over every namespace under ``root``.

    Policy, in order:

    1. live namespaces (producible by the current source) are compacted
       when that reclaims bytes, otherwise kept -- never evicted;
    2. stale namespaces older than ``max_age_days`` (since their last
       append) are evicted;
    3. if the root would still exceed ``max_bytes``, the remaining
       stale namespaces are evicted oldest-first until it fits.

    ``dry_run`` computes the identical report without touching disk.
    ``now`` pins the clock for tests.
    """
    if max_age_days < 0:
        raise ValueError(f"max_age_days must be >= 0, got {max_age_days}")
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    root = Path(root) if root is not None else default_store_root()
    clock = time.time() if now is None else now
    live = live_namespaces()

    scanned: list[dict[str, Any]] = []
    if root.is_dir():
        for ns_dir in sorted(root.iterdir()):
            path = ns_dir / "results.jsonl"
            if not ns_dir.is_dir():
                continue
            if not path.exists():
                # No results file -- only the husk a zero-live-record
                # compact() leaves behind (the dir and its lockfile)
                # counts as a namespace; anything else under the root
                # is not ours to evict.
                if not _is_empty_namespace(ns_dir):
                    continue
                stat = ns_dir.stat()
                scanned.append({
                    "namespace": ns_dir.name,
                    "dir": ns_dir,
                    "live": ns_dir.name in live,
                    "records": 0,
                    "live_records": 0,
                    "size_bytes": 0,
                    "age_days": max(
                        0.0, (clock - stat.st_mtime) / 86400.0),
                    "compacted_size": 0,
                    "corrupt_lines": 0,
                })
                continue
            stat = path.stat()
            records, raw_lines, corrupt = scan_jsonl(path)
            scanned.append({
                "namespace": ns_dir.name,
                "dir": ns_dir,
                "live": ns_dir.name in live,
                "records": raw_lines,
                "live_records": len(records),
                "size_bytes": stat.st_size,
                "age_days": max(0.0, (clock - stat.st_mtime) / 86400.0),
                "compacted_size": _compacted_size(records),
                "corrupt_lines": len(corrupt),
            })

    # Pass 1: age policy (plus unconditional compaction of live dirs).
    for entry in scanned:
        if entry["live"]:
            reclaim = entry["size_bytes"] - entry["compacted_size"]
            entry["action"] = "compact" if reclaim > 0 else "keep"
            entry["reclaimed_bytes"] = max(0, reclaim)
        elif entry["age_days"] > max_age_days:
            entry["action"] = "evict"
            entry["reclaimed_bytes"] = entry["size_bytes"]
        else:
            entry["action"] = "keep"
            entry["reclaimed_bytes"] = 0

    # Pass 2: size budget over whatever survives pass 1, oldest first.
    if max_bytes is not None:
        def surviving_size(entry: dict[str, Any]) -> int:
            if entry["action"] == "evict":
                return 0
            if entry["action"] == "compact":
                return entry["compacted_size"]
            return entry["size_bytes"]

        total = sum(surviving_size(entry) for entry in scanned)
        for entry in sorted(scanned, key=lambda e: -e["age_days"]):
            if total <= max_bytes:
                break
            if entry["live"] or entry["action"] == "evict":
                continue
            total -= entry["size_bytes"]
            entry["action"] = "evict"
            entry["reclaimed_bytes"] = entry["size_bytes"]

    if not dry_run:
        for entry in scanned:
            if entry["action"] == "evict":
                # destroy() takes the namespace lock, so an in-flight
                # writer (e.g. a campaign still running on the old
                # checkout that produced this fingerprint) finishes its
                # append before the directory goes.
                ResultStore(root, namespace=entry["namespace"]).destroy()
            elif entry["action"] == "compact":
                stats = ResultStore(
                    root, namespace=entry["namespace"]).compact()
                # Trust the rewrite over the estimate (another process
                # may have appended between the scan and the compact).
                entry["reclaimed_bytes"] = stats.reclaimed_bytes
                entry["live_records"] = stats.live_records

    return GcReport(
        root=root,
        dry_run=dry_run,
        namespaces=tuple(
            NamespaceReport(
                namespace=entry["namespace"],
                live=entry["live"],
                records=entry["records"],
                live_records=entry["live_records"],
                size_bytes=entry["size_bytes"],
                age_days=entry["age_days"],
                action=entry["action"],
                reclaimed_bytes=entry["reclaimed_bytes"],
                corrupt_lines=entry["corrupt_lines"],
            )
            for entry in scanned),
    )


def gc_table(report: GcReport) -> str:
    """Human-readable table for ``python -m repro.dse gc``."""
    from repro.utils.tables import format_table

    rows = [
        [
            ns.namespace,
            "yes" if ns.live else "no",
            ns.records,
            ns.live_records,
            ns.corrupt_lines,
            ns.size_bytes,
            f"{ns.age_days:.1f}",
            ns.action,
            ns.reclaimed_bytes,
        ]
        for ns in report.namespaces
    ]
    mode = "dry run -- nothing touched" if report.dry_run else "applied"
    total_corrupt = sum(ns.corrupt_lines for ns in report.namespaces)
    damage = (f", {total_corrupt} corrupt lines quarantined"
              if total_corrupt else "")
    return format_table(
        ["namespace", "live", "lines", "records", "corrupt", "bytes",
         "age (d)", "action", "reclaims"],
        rows,
        title=(f"Store GC {report.root} ({mode}): "
               f"{report.compacted} compacted, {report.evicted} evicted, "
               f"{report.reclaimed_bytes} bytes reclaimed{damage}"),
    )
