"""One round of ``campaign-cold`` or ``sim-net``, in a fresh process.

``python3 -m perfbench.rounds WORKLOAD --result FILE [--tallies DIR]
[--setup-only]`` runs against the empty store named by
``$REPRO_DSE_STORE`` and writes one JSON record: the monotonic stamps
that bound the measured phase, the campaign's point counts, the store
namespaces it wrote, and the output checks.  ``--setup-only`` stops
where the measured phase would begin (extra ``setup_s`` samples).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "arch" / "golden" / "harness_outputs.json"

NETWORKS = ("cnn_lstm", "mobilenetv2", "resnet18")
ARCHS = ("bitwave-16nm", "bitwave-16nm@group=16")

#: Pool workers per workload (campaign-cold fans out, sim-net is serial).
JOBS = {"campaign-cold": 2, "sim-net": 1}

#: The Section V-B bound the conformance suite holds every simulated
#: non-depthwise layer to.
DEVIATION_BOUND = 0.06

#: Fig. 13-17 harnesses read back on campaign-cold.
HARNESSES = ("fig13_breakdown", "fig14_speedup", "fig15_energy",
             "fig16_energy_breakdown", "fig17_efficiency")


def campaign_spec(workload: str):
    """The workload's grid, in the program's own order.  Neither
    campaign takes its order from the seed, which is only recorded:
    the order of points moves the pool workers' heap history, and with
    it their peak RSS, by up to ~8% (155.7-168.0 MiB over seeded
    orders of the accelerator and variant axes)."""
    from repro.accelerators import BITWAVE_VARIANTS, SOTA_ACCELERATORS
    from repro.dse import CampaignSpec

    if workload == "campaign-cold":
        return CampaignSpec(
            name="campaign-cold", accelerators=SOTA_ACCELERATORS,
            variants=BITWAVE_VARIANTS, networks=NETWORKS, archs=ARCHS)
    if workload == "sim-net":
        return CampaignSpec(
            name="sim-net", accelerators=("BitWave",),
            backends=("sim-vectorized",), networks=NETWORKS)
    raise ValueError(f"no campaign for workload {workload!r}")


def check_harnesses(networks: tuple[str, ...]) -> list[str]:
    """Fig. 13-17 harness outputs, read through the store, against the
    golden file; returns one message per mismatching harness."""
    import importlib

    from repro.eval import api

    golden = json.loads(GOLDEN.read_text())
    api.reset_cache()
    problems = []
    for name in HARNESSES:
        module = importlib.import_module(f"repro.experiments.{name}")
        got = json.loads(json.dumps(module.run(networks=networks),
                                    sort_keys=True))
        want = {net: golden[name[:5]][net] for net in networks}
        if got != want:
            problems.append(f"{name} differs from the golden outputs")
    return problems


def check_deviation(results) -> list[str]:
    """Every simulated non-depthwise layer within the V-B bound."""
    problems = []
    for result in results:
        for layer in result.layers:
            deviation = layer.detail["model_deviation"]
            if layer.detail["kind"] != "dwconv" \
                    and not deviation < DEVIATION_BOUND:
                problems.append(f"{result.workload}/{layer.name}: model "
                                f"deviation {deviation:.4f}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.rounds")
    parser.add_argument("workload", choices=sorted(JOBS))
    parser.add_argument("--result", required=True)
    parser.add_argument("--tallies", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.dse import ResultStore, run_campaign
    from repro.eval import eval_store

    tallies = None
    if args.tallies:
        from perfbench.layers import TARGETS
        from perfbench.tracer import Tallies

        tallies = Tallies(args.tallies)
        tallies.install(TARGETS)
    spec = campaign_spec(args.workload)
    # Open every namespace the workload writes: the fingerprint is
    # part of set-up on purpose.
    store = ResultStore()
    if args.workload == "sim-net":
        namespaces = {"sim-vectorized": eval_store("sim-vectorized").namespace}
    else:
        namespaces = {"model": store.namespace}
    record: dict = {"measure_start": time.monotonic(),
                    "namespaces": namespaces}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(record))
        return 0

    run = run_campaign(spec, store, jobs=JOBS[args.workload])
    record["measure_end"] = time.monotonic()
    if tallies is not None:
        tallies.flush()  # before the checks, which are not the workload

    if args.workload == "campaign-cold":
        checks = check_harnesses(NETWORKS)
    else:
        checks = check_deviation(run.results.values())
        record["sim_cycles"] = int(sum(
            layer.cycles for result in run.results.values()
            for layer in result.layers))
    record.update({
        "points": run.total, "evaluated": run.evaluated,
        "cached": run.cached, "failed": len(run.failed),
        "retried": run.retried, "check_failed": bool(checks),
        "problems": [f"point failed: {error}"
                     for error in run.failed.values()] + checks,
        "missing_targets": tallies.missing if tallies else [],
    })
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
