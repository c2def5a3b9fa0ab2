"""``python -m repro.dse``: define, run, resume, and summarize campaigns.

Examples::

    # Write a template spec (defaults to the full paper grid).
    python -m repro.dse init --out campaign.json

    # Run/resume it on 4 workers (cached points are skipped).
    python -m repro.dse run --spec campaign.json --jobs 4

    # Inline specs work too, for quick sweeps and CI smoke tests.
    python -m repro.dse run --name smoke \\
        --accelerators SCNN,Stripes --networks cnn_lstm --jobs 2

    # The evaluation backend is a campaign axis: sim-backed points run
    # the structural NPU simulator (repro.eval's sim-* backends) and
    # land in the same store as the model's, keyed by backend.
    python -m repro.dse run --name simgrid --accelerators BitWave \\
        --networks cnn_lstm --backends model,sim-vectorized

    # Parametrized workloads make token sweeps ordinary grid axes.
    python -m repro.dse run --name tokens --accelerators BitWave \\
        --networks bert_base@tokens=4,bert_base@tokens=64

    # The hardware description is a campaign axis (repro.arch): sweep
    # technology parameters and PE-array geometry over both backends,
    # one distinctly-hashed record per arch override.
    python -m repro.dse run --name tech-sense --accelerators BitWave \\
        --networks cnn_lstm --backends model,sim-vectorized \\
        --archs bitwave-16nm,bitwave-16nm@dram_pj=30+group=16

    # Summaries read the store only -- no evaluation.  --format json
    # emits machine-readable rows for scripting and dashboards.
    python -m repro.dse summary --spec campaign.json --format json
    python -m repro.dse pareto --spec campaign.json --x cycles --y energy

    # Shard a campaign across hosts/processes: each shard evaluates a
    # disjoint, deterministic slice of the grid (split by config hash)
    # against the same fingerprint namespace.  Merge folds shard
    # stores (or a results.jsonl copied from another host) into one,
    # filing each record under the namespace its own fingerprint
    # names, last-wins by key and idempotent under re-merge.
    python -m repro.dse run --spec campaign.json --shard 0/2 --store a
    python -m repro.dse run --spec campaign.json --shard 1/2 --store b
    python -m repro.dse merge --store a b
    python -m repro.dse merge --store a copied/results.jsonl
    python -m repro.dse summary --spec campaign.json --store a

    # Store lifecycle: compact live namespaces, evict stale ones
    # (namespaces of an earlier source tree) by age/size budget.
    python -m repro.dse gc --dry-run
    python -m repro.dse gc --max-age-days 7 --max-bytes 100000000

    # Structured tracing (repro.obs): where did the wall-clock go?
    # --trace records spans/counters from every worker process into a
    # per-run directory; the obs CLI aggregates per-phase latency,
    # cache hit/miss counters and the slowest points.
    python -m repro.dse run --spec campaign.json --jobs 4 --trace
    python -m repro.obs report ~/.cache/repro-dse/traces/<run-dir>

    # Sweep the simulator's PE-array geometry: every sim-backed layer
    # stores its Section V-B model deviation next to its counters.
    python -m repro.dse run --name sim-sweep --accelerators BitWave \\
        --networks cnn_lstm --backends sim-vectorized \\
        --archs bitwave-16nm@group=4+oxu=8,bitwave-16nm@group=8+oxu=16

    # Self-healing: failed attempts retry with exponential backoff
    # (poison errors are quarantined at once), a per-point --timeout
    # arms the hung-worker watchdog, and SIGINT/SIGTERM stop the run
    # gracefully (completed results are committed; rerun to resume).
    python -m repro.dse run --spec campaign.json --jobs 4 \\
        --max-attempts 5 --timeout 600

    # Chaos-test the machinery itself: deterministic fault injection
    # (repro.faults).  Same seed, same campaign => same faults, so CI
    # can assert the exact retry/timeout counters a plan must produce.
    python -m repro.dse run --name chaos --accelerators SCNN \\
        --networks cnn_lstm --jobs 2 --timeout 30 \\
        --inject 'seed=7,crash:0.2:attempt<1,torn_write:0.3'
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Any, Sequence

from pathlib import Path

from repro import faults, obs

from repro.arch import arch_names
from repro.dse.executor import CampaignRun, run_campaign
from repro.dse.gc import DEFAULT_MAX_AGE_DAYS, collect_garbage, gc_table
from repro.dse.retry import RetryPolicy
from repro.dse.spec import CampaignSpec, Shard, paper_grid
from repro.dse.store import (
    ResultStore,
    default_store_root,
    load_jsonl_records,
)
from repro.dse.summary import (
    METRICS,
    pareto_data,
    pareto_table,
    summary_data,
    summary_table,
)
from repro.eval.registry import backend_names
from repro.utils.progress import ProgressPrinter

#: A fingerprint `merge` may file records under: one plain directory
#: name, never a path out of the destination root.
_NAMESPACE = re.compile(r"[A-Za-z0-9_-]+")


def _csv(value: str) -> tuple[str, ...]:
    return tuple(part for part in value.split(",") if part)


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--name", default="adhoc",
                        help="campaign name for inline specs")
    parser.add_argument("--accelerators", type=_csv, default=(),
                        metavar="A,B", help="comma-separated accelerators")
    parser.add_argument("--networks", type=_csv, default=(),
                        metavar="N,M",
                        help="comma-separated networks, optionally "
                             "parametrized (bert_base@tokens=128)")
    parser.add_argument("--variants", type=_csv, default=(),
                        metavar="V,W", help="comma-separated BitWave variants")
    parser.add_argument("--backends", type=_csv, default=(),
                        metavar="B,C",
                        help="comma-separated evaluation backends "
                             f"(default: model; known: "
                             f"{','.join(backend_names())})")
    parser.add_argument("--archs", type=_csv, default=(),
                        metavar="A,B",
                        help="comma-separated hardware design points "
                             "(repro.arch preset spellings, e.g. "
                             "bitwave-16nm@sram_pj=0.5+group=16; "
                             f"presets: {','.join(arch_names())}; "
                             "default: bitwave-16nm)")


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", metavar="FILE",
                        help="campaign spec JSON (from `init`)")
    _add_grid_arguments(parser)
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="result-store root (default: "
                             "$REPRO_DSE_STORE or ~/.cache/repro-dse)")


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format (default: table)")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", nargs="?", const="auto", default=None,
                        metavar="DIR",
                        help="emit structured trace events (repro.obs "
                             "spans/counters) into DIR; with no DIR, a "
                             "per-run directory under <store>/traces. "
                             "Aggregate with `python -m repro.obs "
                             "report DIR`")


def _activate_tracing(args: argparse.Namespace, name: str,
                      store_root: Path) -> Path | None:
    """Enable tracing for this run (and its pool workers) if requested.

    ``--trace`` with no value picks a fresh per-run directory under the
    store root; the resolved directory is exported via ``REPRO_TRACE``
    so forked/spawned workers write their own per-process files there.
    """
    if args.trace is None:
        return None
    if args.trace == "auto":
        stamp = time.strftime("%Y%m%d-%H%M%S")
        directory = store_root / "traces" / f"{name}-{stamp}-{os.getpid()}"
    else:
        directory = Path(args.trace)
    return obs.configure(directory)


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help="attempts per point before it is quarantined "
                             "as failed (default: the spec's retry policy, "
                             f"else {RetryPolicy().max_attempts}; 1 = "
                             "never retry)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-point wall-clock deadline; a worker "
                             "past it is killed by the watchdog and the "
                             "point retried (default: none)")
    parser.add_argument("--backoff", type=float, default=None, metavar="S",
                        help="first retry backoff, doubled per attempt "
                             "with deterministic jitter (default: "
                             f"{RetryPolicy().backoff_s:g})")
    parser.add_argument("--inject", metavar="SPEC", default=None,
                        help="deterministic fault injection (chaos "
                             "testing), e.g. "
                             "'seed=7,crash:0.2:attempt<1,torn_write:0.3'"
                             "; kinds: "
                             + ",".join(faults.FAULT_KINDS))


def _activate_faults(args: argparse.Namespace) -> None:
    """Arm fault injection for this run (and its pool workers).

    The parsed plan's canonical spec is exported via ``REPRO_FAULTS``
    so forked/spawned workers inject from the identical plan.
    """
    if args.inject is None:
        return
    plan = faults.configure(args.inject)
    assert plan is not None
    print(f"fault injection armed: {plan.spec()}", file=sys.stderr)


def _policy_from_args(args: argparse.Namespace,
                      base: RetryPolicy | None) -> RetryPolicy:
    """CLI retry flags layered over the spec's stored policy."""
    return (base or RetryPolicy()).with_overrides(
        max_attempts=args.max_attempts,
        timeout_s=args.timeout,
        backoff_s=args.backoff,
    )


def _run_exit_code(run: CampaignRun) -> int:
    """Campaign exit status: 0 clean, 1 failed points, 128+N signal."""
    if run.interrupted:
        return 128 + (run.interrupt_signum or 0)
    return 1 if run.failed else 0


def _add_shard_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shard", type=Shard.parse, default=None,
                        metavar="I/N",
                        help="restrict to deterministic shard I of N "
                             "(0-based, split by config hash); N "
                             "processes/hosts given the same spec cover "
                             "the grid disjointly and `merge` folds "
                             "their stores back together")


def _inline_spec(args: argparse.Namespace) -> CampaignSpec:
    spec = CampaignSpec(
        name=args.name,
        accelerators=args.accelerators,
        networks=args.networks,
        variants=args.variants,
        backends=args.backends or ("model",),
        archs=args.archs,
    )
    spec.validate()
    return spec


def _load_spec(args: argparse.Namespace) -> CampaignSpec:
    if args.spec:
        if args.accelerators or args.networks or args.variants \
                or args.backends or args.archs:
            raise SystemExit("--spec and inline grid flags are exclusive")
        return CampaignSpec.from_json(args.spec)
    return _inline_spec(args)


def _store(args: argparse.Namespace) -> ResultStore:
    return ResultStore(args.store)


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_init(args: argparse.Namespace) -> int:
    if args.accelerators or args.networks or args.variants \
            or args.backends or args.archs:
        spec = _inline_spec(args)
    else:
        spec = paper_grid(args.name)
    spec.to_json(args.out)
    print(f"wrote {args.out}: {len(spec.points())} points "
          f"({spec.name})")
    return 0


def _cmd_points(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    store = _store(args)
    points = spec.points()
    if args.shard is not None:
        points = args.shard.select(points)
    if args.format == "json":
        _emit_json([
            {"accelerator": point.accelerator, "network": point.workload,
             "variant": point.variant, "backend": point.backend,
             "arch": point.arch, "key": point.key(), "label": point.label,
             "cached": point.key() in store}
            for point in points
        ])
        return 0
    for point in points:
        status = "cached" if point.key() in store else "pending"
        print(f"{point.key()}  {status:8s}  {point.label}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    store = _store(args)
    trace_dir = _activate_tracing(args, spec.name, store.root)
    _activate_faults(args)
    progress = None if args.quiet else ProgressPrinter()
    run = run_campaign(
        spec, store, jobs=args.jobs, force=args.force, progress=progress,
        shard=args.shard, policy=_policy_from_args(args, spec.retry))
    print(run.summary_line)
    if trace_dir is not None:
        obs.flush()
        print(f"trace: {trace_dir} "
              f"(aggregate: python -m repro.obs report {trace_dir})")
    for point in run.points:
        error = run.failure_for(point)
        if error is not None:
            print(f"FAILED {point.label}: {error}", file=sys.stderr)
    if run.interrupted:
        print(f"interrupted: {run.remaining} points remain; rerun the "
              f"same command to resume from the store", file=sys.stderr)
    print()
    print(summary_table(spec, store, failures=run.failed))
    return _run_exit_code(run)


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.dse.store import scan_jsonl

    spec = _load_spec(args)
    store = _store(args)
    corrupt = len(scan_jsonl(store.path).corrupt)
    if args.format == "json":
        _emit_json(summary_data(spec, store))
    else:
        print(summary_table(spec, store))
    if corrupt:
        # Damage is worth a line even in table mode: torn lines mean a
        # writer crashed mid-append; `gc` quarantines them.
        print(f"WARNING: {corrupt} corrupt line(s) in {store.path}; "
              f"run `python -m repro.dse gc` to quarantine them",
              file=sys.stderr)
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if args.format == "json":
        _emit_json(pareto_data(spec, _store(args), x=args.x, y=args.y))
        return 0
    print(pareto_table(spec, _store(args), x=args.x, y=args.y))
    return 0


def _merge_files(src: str) -> list[Path]:
    """The ``results.jsonl`` files a merge source names."""
    path = Path(src).expanduser()
    if path.is_file():
        return [path]  # a bare results.jsonl, e.g. copied from a host
    if (path / "results.jsonl").is_file():
        return [path / "results.jsonl"]  # one namespace directory
    if path.is_dir():  # a whole store root
        return sorted(ns / "results.jsonl" for ns in path.iterdir()
                      if (ns / "results.jsonl").is_file())
    raise ValueError(
        f"merge source {src!r} is neither a store root, a "
        f"namespace directory, nor a results.jsonl file")


def _record_namespace(record: dict[str, Any]) -> str | None:
    """The namespace a record's own ``fingerprint`` names, if any."""
    fingerprint = record.get("fingerprint")
    if isinstance(fingerprint, str) and _NAMESPACE.fullmatch(fingerprint):
        return fingerprint
    return None


def _cmd_merge(args: argparse.Namespace) -> int:
    dest_root = (Path(args.store).expanduser() if args.store
                 else default_store_root())
    total = 0
    for src in args.sources:
        for path in _merge_files(src):
            # Each record is filed under the namespace it was computed
            # under -- never under this checkout's.
            namespaces = [_record_namespace(record) for record
                          in load_jsonl_records(path).values()]
            for namespace in sorted(filter(None, set(namespaces))):
                stats = ResultStore(dest_root, namespace=namespace).merge(
                    path)
                print(f"merged {stats.written} records from {path} "
                      f"into {namespace}")
                total += stats.written
            if None in namespaces:
                print(f"skipped {namespaces.count(None)} records from "
                      f"{path} that name no fingerprint namespace")
    print(f"merge complete: {total} records into {dest_root}")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    report = collect_garbage(
        args.store,
        max_age_days=args.max_age_days,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    if args.format == "json":
        _emit_json(report.to_dict())
        return 0
    print(gc_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="design-space-exploration campaigns over the "
                    "accelerator evaluation grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser(
        "init", help="write a campaign spec JSON (default: full paper grid)")
    _add_grid_arguments(p_init)
    p_init.add_argument("--out", required=True, metavar="FILE")
    p_init.set_defaults(func=_cmd_init)

    p_points = sub.add_parser(
        "points", help="list the grid points, keys and cache status")
    _add_spec_arguments(p_points)
    _add_format_argument(p_points)
    _add_shard_argument(p_points)
    p_points.set_defaults(func=_cmd_points)

    p_run = sub.add_parser("run", help="run or resume a campaign")
    _add_spec_arguments(p_run)
    p_run.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (0 = all CPUs; default 1)")
    p_run.add_argument("--force", action="store_true",
                       help="re-evaluate points already in the store")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress lines")
    _add_shard_argument(p_run)
    _add_trace_argument(p_run)
    _add_resilience_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_summary = sub.add_parser(
        "summary", help="print stored metrics for a campaign")
    _add_spec_arguments(p_summary)
    _add_format_argument(p_summary)
    p_summary.set_defaults(func=_cmd_summary)

    p_pareto = sub.add_parser(
        "pareto", help="extract the Pareto front over two metrics")
    _add_spec_arguments(p_pareto)
    _add_format_argument(p_pareto)
    p_pareto.add_argument("--x", default="cycles", choices=sorted(METRICS),
                          help="first objective (default: cycles)")
    p_pareto.add_argument("--y", default="energy", choices=sorted(METRICS),
                          help="second objective (default: energy)")
    p_pareto.set_defaults(func=_cmd_pareto)

    p_merge = sub.add_parser(
        "merge", help="fold shard stores (or copied results.jsonl "
                      "files) into a store, each record under the "
                      "namespace its fingerprint names, last-wins by "
                      "key")
    p_merge.add_argument("sources", nargs="+", metavar="SRC",
                         help="store roots, namespace directories, or "
                              "bare results.jsonl files")
    p_merge.add_argument("--store", metavar="DIR", default=None,
                         help="destination store root (default: "
                              "$REPRO_DSE_STORE or ~/.cache/repro-dse)")
    p_merge.set_defaults(func=_cmd_merge)

    p_gc = sub.add_parser(
        "gc", help="compact live store namespaces and evict stale "
                   "ones (superseded by code edits) by age/size budget")
    p_gc.add_argument("--store", metavar="DIR", default=None,
                      help="store root (default: $REPRO_DSE_STORE or "
                           "~/.cache/repro-dse)")
    p_gc.add_argument("--max-age-days", type=float,
                      default=DEFAULT_MAX_AGE_DAYS, metavar="D",
                      help="evict stale namespaces whose last append is "
                           f"older than D days (default: "
                           f"{DEFAULT_MAX_AGE_DAYS:g}; live namespaces "
                           "are never evicted)")
    p_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                      help="after the age pass, evict the oldest stale "
                           "namespaces until the root fits N bytes")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be reclaimed, touch "
                           "nothing")
    _add_format_argument(p_gc)
    p_gc.set_defaults(func=_cmd_gc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
