"""Map a function over a network's layers, one thread per CPU.

A network's layers are independent: each draws its weights from its
own :func:`repro.utils.rng.seeded_rng` stream, and numpy releases the
GIL while it fills and reduces arrays, so the layers of one evaluation
or one profile run side by side on the CPUs this process may use.

:func:`map_layers` takes no option.  It returns results in layer order
and runs at most ``min(layers, CPUs)`` threads, the calling thread
among them.  Inside a pool worker process it runs serially, because
the pool already owns the CPUs.  Each layer runs in a copy of the
caller's :mod:`contextvars` context, so context-based tracers charge
its time to the caller's call.  A layer that raises stops the map: no
new layer starts, the running ones finish, every thread is joined, and
the error raised is the first failing layer's in layer order, as in a
serial loop.  A ``KeyboardInterrupt`` in the calling thread stops it
the same way.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
import threading
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def map_layers(fn: Callable[[T], R], layers: Iterable[T]) -> list[R]:
    """``[fn(layer) for layer in layers]``, one thread per CPU."""
    items = list(layers)
    threads = min(len(items), usable_cpus())
    if threads <= 1 or multiprocessing.parent_process() is not None:
        return [fn(item) for item in items]

    caller = contextvars.copy_context()
    results: dict[int, R] = {}
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    next_index = 0
    stop = False

    def take() -> int | None:
        nonlocal next_index
        with lock:
            if stop or next_index == len(items):
                return None
            index = next_index
            next_index += 1
            return index

    def work(catch: type[BaseException]) -> None:
        nonlocal stop
        while (index := take()) is not None:
            try:
                results[index] = caller.copy().run(fn, items[index])
            except catch as exc:  # re-raised below, after the join
                with lock:
                    errors[index] = exc
                    stop = True

    helpers = [threading.Thread(target=work, args=(BaseException,),
                                name=f"map_layers-{n}", daemon=True)
               for n in range(1, threads)]
    try:
        for thread in helpers:
            thread.start()
        # The calling thread takes layers too; a KeyboardInterrupt
        # there is not a layer's error and leaves at once.
        work(Exception)
    finally:
        stop = True
        for thread in helpers:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[min(errors)]
    return [results[index] for index in range(len(items))]
