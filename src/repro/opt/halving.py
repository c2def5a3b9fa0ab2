"""Successive halving over a sampled campaign space.

Draw a deterministic sample from a :class:`repro.dse.CampaignSpec`
grid, probe every candidate, keep the best ``1/eta`` fraction under a
named ranking metric, and repeat until one survivor set remains.
Because every probe lands in the shared result store under the same
key an exhaustive campaign uses, the search costs only the *fresh*
evaluations -- round-two probes of round-one survivors are pure cache
hits, and a halving run launched after an exhaustive campaign
evaluates nothing at all.

The Pareto front is taken over *every* successful probe the run made
(the archive), not just the last survivors: round one already prices
the whole sample, so the front loses nothing to the halving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.pareto import pareto_front
from repro.dse.retry import RetryPolicy
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore
from repro.dse.summary import Metric, point_columns, resolve_metric
from repro.eval.request import EvalRequest
from repro.obs import counter, trace
from repro.opt.objective import Objective, Probe

#: Provenance tag stamped into every record a halving run writes.
SH_ORIGIN = "opt:sh"

#: Pinned seed/sample for the acceptance smoke: with this draw the
#: sample contains every point of the exhaustive Pareto front, so the
#: guided run recovers it bit-identically from 12 of 36 grid points.
#: It is the smallest such seed.  The draw is over key-sorted points,
#: so any change to what a request key hashes re-derives it by this
#: rule (``tests/opt/test_halving.py`` checks it).
SMOKE_SEED = 95
SMOKE_SAMPLE = 12


def smoke_space(name: str = "opt-smoke") -> CampaignSpec:
    """The pinned ~3-axis acceptance space (36 points, all model-backed).

    Six accelerators x three CNN-LSTM parametrizations of escalating
    size x two arch design points.  Small enough for CI (every point
    evaluates in milliseconds), rich enough that the
    (cycles, TOPS/W) front is a genuine 3-point trade-off curve.
    """
    return CampaignSpec(
        name=name,
        accelerators=("SCNN", "Stripes", "Pragmatic", "Bitlet", "HUAA",
                      "BitWave"),
        networks=("cnn_lstm@frames=2+bins=32+hidden=32",
                  "cnn_lstm@frames=32+hidden=256",
                  "cnn_lstm@frames=64"),
        archs=("bitwave-16nm", "bitwave-dense-16nm"),
    )


@dataclass(frozen=True)
class HalvingConfig:
    """Knobs of one successive-halving run (all deterministic)."""

    #: Ranking metric for promotion between rounds.
    metric: str = "cycles"
    #: Archive/front objectives.
    x: str = "cycles"
    y: str = "tops_per_w"
    seed: int = SMOKE_SEED
    #: Candidates drawn from the grid (0 = the whole grid).
    sample: int = SMOKE_SAMPLE
    #: Survivor fraction: each round keeps ``ceil(n / eta)``.
    eta: int = 2
    min_survivors: int = 1

    def __post_init__(self) -> None:
        resolve_metric(self.metric)
        resolve_metric(self.x)
        resolve_metric(self.y)
        if self.sample < 0:
            raise ValueError(f"sample must be >= 0, got {self.sample}")
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        if self.min_survivors < 1:
            raise ValueError(
                f"min_survivors must be >= 1, got {self.min_survivors}")


@dataclass(frozen=True)
class HalvingResult:
    """Everything a halving run decided, probed, and found."""

    spec_name: str
    config: HalvingConfig
    grid_size: int
    #: Request keys of the sampled candidates, in draw order.
    sampled: tuple[str, ...]
    #: Per-round summaries: candidates in, survivors out.
    rounds: tuple[dict[str, Any], ...]
    #: Keys of the final survivor set, best-ranked first.
    survivors: tuple[str, ...]
    #: Every probed request key, in call order (cache hits included).
    trajectory: tuple[str, ...]
    #: Pareto rows over (x, y) across all successful probes.
    front: tuple[dict[str, Any], ...]
    counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec_name,
            "origin": SH_ORIGIN,
            "metric": self.config.metric,
            "objectives": [self.config.x, self.config.y],
            "seed": self.config.seed,
            "grid_size": self.grid_size,
            "sampled": list(self.sampled),
            "rounds": [dict(r) for r in self.rounds],
            "survivors": list(self.survivors),
            "trajectory": list(self.trajectory),
            "front": [dict(row) for row in self.front],
            "counts": dict(self.counts),
        }


def sample_candidates(spec: CampaignSpec, seed: int,
                      sample: int) -> list[EvalRequest]:
    """The deterministic candidate draw a seed names.

    The pool is sorted by request key before sampling, so the draw
    depends only on ``(grid contents, seed, sample)`` -- never on grid
    expansion order or ``PYTHONHASHSEED``.
    """
    pool = sorted(spec.points(), key=lambda p: p.key())
    if sample == 0 or sample >= len(pool):
        return pool
    return random.Random(seed).sample(pool, sample)


def _rank(probes: list[Probe], metric: Metric) -> list[Probe]:
    """Best-first order under ``metric``; failed/unpriced probes rank
    last, ties break by request key -- fully deterministic."""
    def sort_key(probe: Probe) -> tuple[int, float, str]:
        value = (None if probe.result is None
                 else metric.extract(probe.result))
        if value is None or value != value:
            return (1, 0.0, probe.request.key())
        ranked = -value if metric.maximize else value
        return (0, ranked, probe.request.key())
    return sorted(probes, key=sort_key)


def _front_rows(archive: list[Probe], config: HalvingConfig,
                ) -> tuple[dict[str, Any], ...]:
    """Pareto rows (shaped like ``dse.summary.pareto_data``) over the
    archive."""
    mx, my = resolve_metric(config.x), resolve_metric(config.y)
    points = []
    for probe in archive:
        if probe.result is None:
            continue
        vx, vy = mx.extract(probe.result), my.extract(probe.result)
        if vx is None or vy is None:
            continue
        points.append((vx, vy, probe.request))
    front = pareto_front(points, maximize=(mx.maximize, my.maximize))
    return tuple({**point_columns(point), config.x: vx, config.y: vy}
                 for vx, vy, point in front)


def successive_halving(
    spec: CampaignSpec,
    store: ResultStore,
    config: HalvingConfig | None = None,
    policy: RetryPolicy | None = None,
) -> HalvingResult:
    """Run seeded successive halving over ``spec``'s grid.

    Deterministic end to end: the same ``(spec, config)`` replays the
    identical candidate draw, probe trajectory, and survivor sets --
    whatever the store already holds only changes which probes are
    cache hits, never which probes are made.
    """
    config = config or HalvingConfig()
    policy = policy or spec.retry or RetryPolicy()
    objective = Objective(store, origin=SH_ORIGIN, policy=policy)
    metric = resolve_metric(config.metric)
    grid_size = len(spec.points())
    candidates = sample_candidates(spec, config.seed, config.sample)
    counter("opt.grid.size", n=grid_size, origin=SH_ORIGIN)
    counter("opt.sampled", n=len(candidates), origin=SH_ORIGIN)

    sampled = tuple(point.key() for point in candidates)
    archive: list[Probe] = []
    archived: set[str] = set()
    rounds: list[dict[str, Any]] = []
    round_index = 0
    while True:
        with trace("opt.round", origin=SH_ORIGIN, round=round_index,
                   candidates=len(candidates)):
            probes = []
            for point in candidates:
                probe = objective.probe(point, round_index=round_index)
                probes.append(probe)
                if probe.ok and probe.request.key() not in archived:
                    archived.add(probe.request.key())
                    archive.append(probe)
            ranked = _rank(probes, metric)
            keep = max((len(ranked) + config.eta - 1) // config.eta,
                       config.min_survivors)
            survivors = ranked[:keep]
        rounds.append({
            "round": round_index,
            "candidates": len(candidates),
            "survivors": [p.request.key() for p in survivors],
        })
        candidates = [probe.request for probe in survivors]
        round_index += 1
        if len(candidates) <= config.min_survivors:
            break
    counter("opt.rounds", n=len(rounds), origin=SH_ORIGIN)

    return HalvingResult(
        spec_name=spec.name,
        config=config,
        grid_size=grid_size,
        sampled=sampled,
        rounds=tuple(rounds),
        survivors=tuple(point.key() for point in candidates),
        trajectory=tuple(objective.trajectory),
        front=_front_rows(archive, config),
        counts=objective.counts(),
    )
