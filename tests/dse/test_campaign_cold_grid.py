"""The perfbench campaign-cold grid evaluates each distinct point once.

Its second arch, ``bitwave-16nm@group=16``, changes no model result:
the model takes its PE-array geometry from each design's SU set.  So
its 54 spellings are 27 points, and every stored record names the
canonical arch.
"""

from __future__ import annotations

from perfbench.rounds import campaign_spec
from repro.dse.executor import run_campaign
from repro.dse.store import ResultStore
from repro.eval.request import EvalRequest


def test_campaign_cold_stores_27_canonical_points(tmp_path):
    spec = campaign_spec("campaign-cold")
    assert len(spec.archs) == 2
    points = spec.points()
    assert len(points) == 27
    assert {point.arch for point in points} == {"bitwave-16nm"}

    store = ResultStore(tmp_path)
    run = run_campaign(spec, store, jobs=1)
    assert (run.total, run.evaluated, len(run.failed)) == (27, 27, 0)
    records = [store.get(key) for key in store.keys()]
    assert len(records) == 27
    for record in records:
        point = EvalRequest.from_dict(record["point"])
        assert record["point"] == point.to_dict(), "stored a non-canonical point"
        assert record["key"] == point.key()
        assert record["point"]["arch"] == "bitwave-16nm"
