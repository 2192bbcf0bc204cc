"""Deterministic per-trial seed derivation, trial parallelism, and mean ± SE.

Every experiment in this package derives its per-trial randomness from
``subseed(master_seed, *key)``, a pure function of the master seed and the
trial's index path. Results are therefore independent of execution order:
running trials serially, in a different order, or across worker processes
produces identical aggregates.

Each Monte Carlo experiment runs all its jobs through one ``imap_indexed``
iterator, most of them as a ``map_indexed`` list, and reports its sample
means with ``_mean_se``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Callable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")


def subseed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence(entropy=master_seed, spawn_key=key). Pure and collision-safe."""
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))


def rng_for(master_seed: int, *key: int) -> np.random.Generator:
    """Fresh generator for one trial, derived from (master_seed, key)."""
    return np.random.default_rng(subseed(master_seed, *key))


def imap_indexed(fn: Callable[[int], T], n_items: int, workers: int = 1) -> Iterator[T]:
    """fn(0), ..., fn(n_items-1), yielded in index order as each is ready.

    At most min(workers, n_items, os.cpu_count()) processes start, and none
    when that is 1: each call then runs when the iterator reaches it. ``fn``
    must be picklable (module-level function or functools.partial of one)
    when they do. Output order is always index order, so the items do not
    depend on scheduling or the pool's size. The pool starts at the first
    item and stops when the iterator ends, is closed or raises what ``fn``
    raised; items that workers finish ahead of the caller wait in this
    process.
    """
    workers = min(workers, n_items, os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, range(n_items))
        return
    ctx = multiprocessing.get_context()
    chunk = max(1, n_items // (workers * 8))
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(fn, range(n_items), chunksize=chunk)


def map_indexed(fn: Callable[[int], T], n_items: int, workers: int = 1) -> list[T]:
    """[fn(0), ..., fn(n_items-1)]: the items of ``imap_indexed`` as one list."""
    return list(imap_indexed(fn, n_items, workers))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """The sample mean and its standard error std(ddof=1) / sqrt(n), 0 for n = 1."""
    n = len(values)
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se
