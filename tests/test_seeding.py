"""Seed derivation, the bounded worker pool, and the sample mean's standard error."""

import math
import multiprocessing

import numpy as np
import pytest

from acp.seeding import _mean_se, imap_indexed, map_indexed


class _FakePool:
    """Records the pool size it was asked for and maps in the calling process."""

    def __init__(self, sizes, processes):
        sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def pool_sizes(monkeypatch):
    sizes = []

    class FakeContext:
        def Pool(self, processes):
            return _FakePool(sizes, processes)

    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: FakeContext())
    return sizes


class TestMapIndexed:
    @pytest.mark.parametrize(
        "workers, n_items, cpus, started",
        [
            (100_000, 10, 4, [4]),  # no more processes than cores
            (3, 2, 4, [2]),  # no more processes than items
            (2, 10, 4, [2]),
            (100_000, 10, None, []),  # an unknown core count counts as one: no pool
            (100_000, 10, 1, []),
            (4, 1, 4, []),
            (1, 10, 4, []),
        ],
    )
    def test_pool_is_bounded(self, monkeypatch, pool_sizes, workers, n_items, cpus, started):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert map_indexed(lambda i: i * i, n_items, workers=workers) == [i * i for i in range(n_items)]
        assert pool_sizes == started

    def test_no_items(self, pool_sizes):
        assert map_indexed(lambda i: i, 0, workers=8) == []
        assert pool_sizes == []


class TestImapIndexed:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_yields_items_in_index_order(self, workers):
        # str is picklable, so --workers 2 really starts a pool
        items = imap_indexed(str, 200, workers=workers)
        assert next(items) == "0"
        assert list(items) == [str(i) for i in range(1, 200)]
        assert multiprocessing.active_children() == []

    def test_one_worker_calls_each_item_when_it_is_reached(self):
        calls = []
        items = imap_indexed(lambda i: calls.append(i) or -i, 5)
        assert calls == []
        assert next(items) == 0 and calls == [0]
        assert list(items) == [-1, -2, -3, -4] and calls == [0, 1, 2, 3, 4]

    def test_closing_early_stops_the_workers(self):
        items = imap_indexed(str, 10_000, workers=2)
        assert next(items) == "0"
        assert multiprocessing.active_children() != []
        items.close()
        assert multiprocessing.active_children() == []


class TestMeanSe:
    def test_matches_sample_formula(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0])
        mean, se = _mean_se(values)
        assert mean == pytest.approx(23.0 / 6.0)
        assert se == pytest.approx(math.sqrt(np.var(values, ddof=1) / values.size))
        assert (type(mean), type(se)) == (float, float)

    def test_one_value_has_zero_error(self):
        assert _mean_se(np.array([2.5])) == (2.5, 0.0)
