"""``python -m repro.opt``: guided search over the cached eval grid.

Examples::

    # Seeded successive halving over an inline campaign space: probe a
    # 12-point sample of the grid, promote the best half each round,
    # report the Pareto front of everything probed.
    python -m repro.opt sh --name smoke \\
        --accelerators SCNN,BitWave --networks cnn_lstm,cnn_lstm@frames=64 \\
        --seed 73 --sample 12 --metric cycles --x cycles --y tops_per_w

    # The pinned acceptance space (36 points; CI asserts the guided
    # front matches the exhaustive one from 12 evaluations).
    python -m repro.opt sh --smoke --format json

    # Single-axis tuning: find the group size where BitWave's cycles
    # cross a target, auto-widening the bounds if they miss it.
    python -m repro.opt tune --network cnn_lstm --field group \\
        --target 5e6 --lo 4 --hi 32 --tolerance 1e5 --decreasing

    # Accuracy x hardware co-search: greedy Bit-Flip strategies priced
    # under candidate archs, emitting an accuracy-vs-TOPS/W frontier.
    python -m repro.opt cosearch --network cnn_lstm \\
        --archs bitwave-16nm,bitwave-dense-16nm --min-accuracy 3.5

    # Guided runs share the exhaustive store: after `repro.dse run`
    # over the same grid, `sh` performs zero new evaluations.  Tracing
    # and chaos flags work exactly as on campaigns.
    python -m repro.opt sh --smoke --store /tmp/s --trace --inject \\
        'seed=7,crash:0.3:attempt<1:site=opt'
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro import obs
from repro.dse.__main__ import (
    _activate_faults,
    _activate_tracing,
    _add_format_argument,
    _add_resilience_arguments,
    _add_trace_argument,
    _csv,
    _load_spec,
    _policy_from_args,
    _store,
)
from repro.dse.retry import RetryPolicy
from repro.dse.summary import METRICS
from repro.dse.spec import CampaignSpec
from repro.opt.cosearch import CosearchConfig, cosearch
from repro.opt.halving import (
    SMOKE_SAMPLE,
    SMOKE_SEED,
    HalvingConfig,
    smoke_space,
    successive_halving,
)
from repro.opt.scalar import tune_arch_field
from repro.utils.tables import format_table


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _add_spec_like_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.dse.__main__ import _add_spec_arguments

    _add_spec_arguments(parser)
    parser.add_argument("--smoke", action="store_true",
                        help="use the pinned acceptance space instead "
                             "of --spec/inline flags (36 points, "
                             f"seed {SMOKE_SEED}, sample {SMOKE_SAMPLE})")


def _sh_spec(args: argparse.Namespace) -> CampaignSpec:
    if args.smoke:
        if args.spec or args.accelerators or args.networks \
                or args.variants or args.backends or args.archs:
            raise SystemExit("--smoke and --spec/inline flags are exclusive")
        return smoke_space()
    return _load_spec(args)


def _finish_trace(trace_dir: Any) -> None:
    if trace_dir is not None:
        obs.flush()
        print(f"trace: {trace_dir} "
              f"(aggregate: python -m repro.obs report {trace_dir})",
              file=sys.stderr)


def _cmd_sh(args: argparse.Namespace) -> int:
    spec = _sh_spec(args)
    store = _store(args)
    trace_dir = _activate_tracing(args, f"opt-{spec.name}", store.root)
    _activate_faults(args)
    config = HalvingConfig(
        metric=args.metric, x=args.x, y=args.y,
        seed=args.seed, sample=args.sample, eta=args.eta,
        min_survivors=args.min_survivors,
    )
    result = successive_halving(
        spec, store, config, policy=_policy_from_args(args, spec.retry))
    _finish_trace(trace_dir)
    if args.format == "json":
        _emit_json(result.to_dict())
        return 1 if result.counts.get("failed") else 0
    counts = result.counts
    print(f"successive halving over {spec.name}: "
          f"{counts['probes']} probes ({counts['evaluated']} evaluated, "
          f"{counts['saved']} cache hits, {counts['failed']} failed) "
          f"across {len(result.rounds)} rounds; grid size "
          f"{result.grid_size}")
    rows = [
        [row["config"], row["network"], row[config.x], row[config.y]]
        for row in result.front
    ]
    print(format_table(
        ["config", "network", config.x, config.y],
        rows,
        title=(f"Guided Pareto front over ({config.x}, {config.y}), "
               f"{len(rows)} points from "
               f"{counts['evaluated']}/{result.grid_size} evaluations"),
    ))
    return 1 if counts.get("failed") else 0


def _cmd_tune(args: argparse.Namespace) -> int:
    store = _store(args)
    trace_dir = _activate_tracing(args, f"opt-tune-{args.field}", store.root)
    _activate_faults(args)
    result = tune_arch_field(
        args.field, args.target, store,
        network=args.network, metric=args.metric,
        accelerator=args.accelerator, backend=args.backend,
        base_arch=args.arch,
        lo=args.lo, hi=args.hi, tolerance=args.tolerance,
        max_tries=args.max_tries, expand_factor=args.expand_factor,
        max_expansions=args.max_expansions,
        increasing=not args.decreasing, integer=not args.float,
        policy=_policy_from_args(args, None))
    _finish_trace(trace_dir)
    if args.format == "json":
        _emit_json(result.to_dict())
        return 0 if result.converged else 1
    status = "converged" if result.converged else "NOT converged"
    print(f"tune {args.field} on {args.network}: best "
          f"{args.field}={result.best_x:g} -> {args.metric}="
          f"{result.best_value:g} (target {args.target:g}, {status}, "
          f"{result.tries} probes, {result.expansions} bound expansions)")
    return 0 if result.converged else 1


def _cmd_cosearch(args: argparse.Namespace) -> int:
    store = _store(args)
    trace_dir = _activate_tracing(args, "opt-cosearch", store.root)
    _activate_faults(args)
    config = CosearchConfig(
        network=args.network, preset=args.preset, archs=args.archs,
        min_accuracy=args.min_accuracy, max_moves=args.max_moves,
        group_sizes=args.group_sizes, batch=args.batch, seed=args.seed)
    result = cosearch(store, config,
                      policy=_policy_from_args(args, None))
    _finish_trace(trace_dir)
    if args.format == "json":
        _emit_json(result.to_dict())
        return 1 if result.counts.get("failed") else 0
    counts = result.counts
    print(f"cosearch on {config.network} ({config.preset}): "
          f"{len(result.history)} accepted moves, {counts['probes']} "
          f"pricing probes ({counts['evaluated']} evaluated, "
          f"{counts['saved']} cache hits, {counts['failed']} failed)")
    rows = [
        [row["moves"], row["arch"], f"{row['accuracy']:.4f}",
         f"{row['tops_per_w']:.4f}"]
        for row in result.front
    ]
    print(format_table(
        ["moves", "arch", "accuracy", "TOPS/W"],
        rows,
        title=(f"Accuracy-vs-TOPS/W frontier over "
               f"{{strategy x arch}}, {len(rows)} of {len(result.rows)} "
               f"archive points"),
    ))
    return 1 if counts.get("failed") else 0


def _int_csv(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in value.split(",") if part)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.opt",
        description="guided design-space search and accuracy x hardware "
                    "co-search over the cached evaluation grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sh = sub.add_parser(
        "sh", help="seeded successive halving over a campaign space")
    _add_spec_like_arguments(p_sh)
    p_sh.add_argument("--seed", type=int, default=SMOKE_SEED,
                      help=f"candidate-draw seed (default {SMOKE_SEED})")
    p_sh.add_argument("--sample", type=int, default=SMOKE_SAMPLE,
                      help="candidates drawn from the grid "
                           f"(default {SMOKE_SAMPLE}; 0 = whole grid)")
    p_sh.add_argument("--eta", type=int, default=2,
                      help="survivor fraction per round (default 2)")
    p_sh.add_argument("--min-survivors", type=int, default=1,
                      help="stop when this many candidates remain")
    p_sh.add_argument("--metric", default="cycles",
                      choices=sorted(METRICS),
                      help="promotion ranking metric (default: cycles)")
    p_sh.add_argument("--x", default="cycles", choices=sorted(METRICS),
                      help="first front objective (default: cycles)")
    p_sh.add_argument("--y", default="tops_per_w",
                      choices=sorted(METRICS),
                      help="second front objective (default: tops_per_w)")
    _add_format_argument(p_sh)
    _add_trace_argument(p_sh)
    _add_resilience_arguments(p_sh)
    p_sh.set_defaults(func=_cmd_sh)

    p_tune = sub.add_parser(
        "tune", help="bound-expanding scalar search over one arch axis")
    p_tune.add_argument("--network", required=True)
    p_tune.add_argument("--field", required=True,
                        help="arch override field to tune (e.g. group, "
                             "sram_pj)")
    p_tune.add_argument("--target", type=float, required=True,
                        help="metric value to hit")
    p_tune.add_argument("--metric", default="cycles",
                        choices=sorted(METRICS))
    p_tune.add_argument("--accelerator", default="BitWave")
    p_tune.add_argument("--backend", default="model")
    p_tune.add_argument("--arch", default="bitwave-16nm",
                        help="base arch the tuned field overrides")
    p_tune.add_argument("--lo", type=float, required=True)
    p_tune.add_argument("--hi", type=float, required=True)
    p_tune.add_argument("--tolerance", type=float, required=True)
    p_tune.add_argument("--max-tries", type=int, default=32)
    p_tune.add_argument("--expand-factor", type=float, default=2.0)
    p_tune.add_argument("--max-expansions", type=int, default=8)
    p_tune.add_argument("--decreasing", action="store_true",
                        help="the metric falls as the field grows")
    p_tune.add_argument("--float", action="store_true",
                        help="tune a float-valued field (default: "
                             "integer, snapped and spelled as int)")
    p_tune.add_argument("--store", metavar="DIR", default=None,
                        help="result-store root (default: "
                             "$REPRO_DSE_STORE or ~/.cache/repro-dse)")
    _add_format_argument(p_tune)
    _add_trace_argument(p_tune)
    _add_resilience_arguments(p_tune)
    p_tune.set_defaults(func=_cmd_tune)

    p_co = sub.add_parser(
        "cosearch", help="joint accuracy x hardware Pareto search over "
                         "{strategy x arch}")
    p_co.add_argument("--network", default="cnn_lstm",
                      help="benchmark network (default: cnn_lstm)")
    p_co.add_argument("--preset", default="tiny",
                      help="executable model preset for the fidelity "
                           "proxy (default: tiny)")
    p_co.add_argument("--archs", type=_csv,
                      default=("bitwave-16nm", "bitwave-dense-16nm"),
                      metavar="A,B",
                      help="candidate hardware design points")
    p_co.add_argument("--min-accuracy", type=float, default=3.5,
                      help="Algorithm 1 stopping constraint on the "
                           "fidelity-proxy scale (default 3.5)")
    p_co.add_argument("--max-moves", type=int, default=3,
                      help="accepted greedy moves to explore (default 3)")
    p_co.add_argument("--group-sizes", type=_int_csv, default=(16,),
                      metavar="G,H",
                      help="group sizes the strategy search may flip at "
                           "(default: 16)")
    p_co.add_argument("--batch", type=int, default=2,
                      help="calibration-input batch (default 2)")
    p_co.add_argument("--seed", type=int, default=0,
                      help="calibration-input seed (default 0)")
    p_co.add_argument("--store", metavar="DIR", default=None,
                      help="result-store root (default: "
                           "$REPRO_DSE_STORE or ~/.cache/repro-dse)")
    _add_format_argument(p_co)
    _add_trace_argument(p_co)
    _add_resilience_arguments(p_co)
    p_co.set_defaults(func=_cmd_cosearch)
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
