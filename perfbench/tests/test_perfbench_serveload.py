"""The serve-skew schedule: seeded, and tier-exact under any order in
which the service touches a batch's keys."""

from __future__ import annotations

import random
from collections import Counter

from perfbench import serveload
from repro.serve.cache import HotCache

REQUESTS = 1500


def _keys(op):
    kind, arg = op
    return [arg] if kind == "get" else arg


def test_same_seed_same_schedule():
    first = serveload.build_schedule(7, requests=REQUESTS)
    assert serveload.build_schedule(7, requests=REQUESTS) == first
    other = serveload.build_schedule(8, requests=REQUESTS)
    assert other["ops"] != first["ops"]


def test_schedule_shape():
    schedule = serveload.build_schedule(3, requests=REQUESTS)
    seeded = set(schedule["seeded"])
    assert len(schedule["space"]) - len(seeded) == serveload.UNSEEDED
    assert sorted(schedule["warm"]) == sorted(seeded)
    batches = [keys for kind, keys in schedule["ops"] if kind == "batch"]
    assert len(batches) == round(serveload.BATCH_SHARE * REQUESTS)
    for keys in batches:
        assert len(set(keys)) == len(keys) == serveload.BATCH_SIZE


def _replay(schedule, order_seed):
    """Tiers a real HotCache gives when each batch's lookups, and the
    puts that follow its misses, interleave in one random order."""
    rng = random.Random(order_seed)
    cache = HotCache(schedule["hot_max"])
    stored = set(schedule["seeded"])
    result = object()
    for key in schedule["warm"]:
        if cache.get(key) is None:
            cache.put(key, result)
    tiers = {}
    for index, op in enumerate(schedule["ops"]):
        timeline = [("lookup", k) for k in _keys(op)]
        rng.shuffle(timeline)
        i = 0
        while i < len(timeline):
            event, key = timeline[i]
            if event == "put":
                cache.put(key, result)
            elif cache.get(key) is not None:
                tiers[index, key] = "hot"
            else:
                tiers[index, key] = "store" if key in stored else "computed"
                stored.add(key)
                timeline.insert(rng.randint(i + 1, len(timeline)),
                                ("put", key))
            i += 1
    return tiers


def test_tiers_do_not_depend_on_order_within_a_batch():
    schedule = serveload.build_schedule(11, requests=REQUESTS)
    first = _replay(schedule, 1)
    assert _replay(schedule, 2) == first
    assert _replay(schedule, 3) == first
    counts = Counter(first.values())
    assert counts == Counter(schedule["predicted"])
    assert counts["hot"] and counts["store"]
