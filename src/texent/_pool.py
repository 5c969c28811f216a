"""Order-preserving map over a thread pool."""

import numbers
from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def check_threads(threads) -> None:
    """Raise :class:`DomainError` unless ``threads`` is an integer >= 1."""
    if not isinstance(threads, numbers.Integral):
        raise DomainError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")


def parallel_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]`` on ``threads`` worker threads, in input order.

    Each worker maps one contiguous share of the items, so the pool runs at
    most ``threads`` tasks however many items there are.
    """
    check_threads(threads)
    if threads == 1:
        return [fn(x) for x in items]
    items = list(items)
    share = -(-len(items) // threads) or 1  # ceil(len / threads), and 1 for no items
    shares = [items[k:k + share] for k in range(0, len(items), share)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        mapped = pool.map(lambda part: [fn(x) for x in part], shares)
        return [y for part in mapped for y in part]
