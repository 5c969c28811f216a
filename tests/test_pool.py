"""The order-preserving thread map behind the fbim cell pool and the tile pool."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import texent._pool
from texent._pool import parallel_map


@pytest.fixture
def tasks(monkeypatch):
    """Per pool that parallel_map opens, the number of tasks submitted to it."""
    counts = []

    class CountingExecutor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(0)

        def submit(self, fn, /, *args, **kwargs):
            counts[-1] += 1
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(texent._pool, "ThreadPoolExecutor", CountingExecutor)
    return counts


@pytest.mark.parametrize("as_generator", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 124])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_input_order_with_at_most_one_task_per_thread(n, threads, as_generator, tasks):
    seen = []

    def square(x):
        seen.append(x)
        return x * x

    items = (x for x in range(n)) if as_generator else list(range(n))
    assert parallel_map(square, items, threads) == [x * x for x in range(n)]
    assert sorted(seen) == list(range(n))
    assert len(tasks) == (threads > 1) and all(t <= threads for t in tasks)


def test_first_failure_in_input_order_is_raised():
    def check(x):
        if x in (5, 9):
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="item 5"):
        parallel_map(check, range(12), 2)
