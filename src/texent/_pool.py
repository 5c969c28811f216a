"""Order-preserving map over a thread pool."""

from concurrent.futures import ThreadPoolExecutor

from .errors import DomainError


def parallel_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]`` on ``threads`` worker threads, in input order."""
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
