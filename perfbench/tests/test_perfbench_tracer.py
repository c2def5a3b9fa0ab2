"""Self-time accounting, fork safety and binding replacement of the
per-layer tallies."""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import sys
import types

import pytest

from perfbench.tracer import Tallies, Target, covered, merge


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_excludes_nested_wrapped_calls(tmp_path):
    clock = FakeClock()
    tallies = Tallies(tmp_path, clock=clock)

    def leaf():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        wrapped_leaf()
        clock.t += 0.5

    def outer():
        clock.t += 1.0
        wrapped_middle()
        clock.t += 3.0
        wrapped_leaf()

    wrapped_leaf = tallies.wrap(Target("leaf", "m:leaf"), leaf)
    wrapped_middle = tallies.wrap(Target("middle", "m:middle"), middle)
    tallies.wrap(Target("outer", "m:outer"), outer)()

    assert tallies.rows["leaf"] == [2, 4.0, 4.0]
    assert tallies.rows["middle"] == [1, 3.5, 1.5]
    # 9.5 s in all; middle (3.5 s) and the second leaf (2 s) are its
    # children -- the leaf inside middle is not counted twice.
    assert tallies.rows["outer"] == [1, 9.5, 4.0]


def test_concurrent_children_count_once(tmp_path):
    clock = FakeClock()
    tallies = Tallies(tmp_path, clock=clock)

    async def child(gate):
        await gate.wait()

    async def parent():
        gate = asyncio.Event()
        both = asyncio.gather(wrapped_child(gate), wrapped_child(gate))
        await asyncio.sleep(0)  # both children enter at t=0
        clock.t = 5.0
        gate.set()
        await both
        clock.t = 6.0

    wrapped_child = tallies.wrap(Target("child", "m:child"), child)
    asyncio.run(tallies.wrap(Target("parent", "m:parent"), parent)())

    assert tallies.rows["child"] == [2, 10.0, 10.0]
    assert tallies.rows["parent"] == [1, 6.0, 1.0]


def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def _work():
    return None


@pytest.mark.skipif(sys.platform != "linux", reason="fork start method")
def test_forked_worker_tallies_survive_os_exit(tmp_path):
    tallies = Tallies(tmp_path)
    work = tallies.wrap(Target("work", "m:work"), _work)
    work()  # the parent's own call, written only by its flush()

    def child():
        work()
        work()
        os._exit(0)  # like a pool worker: no atexit, no flush hook

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(30)
    assert process.exitcode == 0
    tallies.flush()

    rows, _, _ = merge(tmp_path)
    assert rows["work"][0] == 3  # 1 parent + 2 child, none double counted


def test_install_replaces_every_binding_and_skips_missing(tmp_path):
    source = types.ModuleType("repro_perfbench_fake_source")
    user = types.ModuleType("repro_perfbench_fake_user")

    def profile(x):
        return x * 2

    class Engine:
        def run(self, x):
            return x + 1

    source.profile = profile
    source.Engine = Engine
    user.profile = profile  # what `from source import profile` leaves
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    try:
        tallies = Tallies(tmp_path)
        tallies.install([
            Target("fake.profile", f"{source.__name__}:profile"),
            Target("fake.run", f"{source.__name__}:Engine.run"),
            Target("fake.gone", f"{source.__name__}:vanished"),
        ])
        assert user.profile is source.profile is not profile
        assert user.profile(3) == 6
        assert source.profile(4) == 8
        assert Engine().run(1) == 2
        assert tallies.rows["fake.profile"][0] == 2
        assert tallies.rows["fake.run"][0] == 1
        assert tallies.missing == [f"{source.__name__}:vanished"]
    finally:
        del sys.modules[source.__name__]
        del sys.modules[user.__name__]
