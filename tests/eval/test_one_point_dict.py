"""Every producer stores one ``point`` dict for one request.

A campaign, ``evaluate()``, an ``EvalService`` miss and an ``Objective``
probe all carry the request itself, so each record's ``point`` is
``request.to_dict()``.
"""

from __future__ import annotations

import asyncio

from repro.dse.executor import run_campaign
from repro.dse.spec import CampaignSpec
from repro.dse.store import ResultStore
from repro.eval import EvalRequest, evaluate
from repro.opt.objective import Objective
from repro.serve.service import EvalService

WORKLOAD = "cnn_lstm@frames=2+bins=32+hidden=32"


def _serve_miss(root, request: EvalRequest) -> str:
    async def main() -> str:
        service = EvalService(root)
        await service.start()
        outcome = await service.submit(request)
        await service.drain(timeout_s=10)
        return outcome.source

    return asyncio.run(main())


def test_every_producer_stores_the_request_dict(tmp_path):
    spec = CampaignSpec(name="one", accelerators=("SCNN",),
                        networks=(WORKLOAD,),
                        archs=("bitwave-16nm@group=16+sram_pj=0.5",))
    (request,) = spec.points()
    roots = {name: tmp_path / name
             for name in ("campaign", "evaluate", "serve", "probe")}

    assert run_campaign(spec, ResultStore(roots["campaign"])).evaluated == 1
    evaluate(request, store=ResultStore(roots["evaluate"]))
    assert _serve_miss(roots["serve"], request) == "computed"
    probe = Objective(ResultStore(roots["probe"]),
                      origin="opt:test").probe(request)
    assert probe.ok and not probe.cached

    points = {name: ResultStore(root).get(request.key())["point"]
              for name, root in roots.items()}
    assert points == {name: request.to_dict() for name in roots}
    assert request.to_dict()["arch"] == "bitwave-16nm@sram_pj=0.5"
