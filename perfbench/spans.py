"""In-memory span tracing of the package's public functions, from outside it.

:class:`Tracer` wraps each function listed in :data:`TRACED` and rebinds
every module-level name that refers to it, because the calling modules look
the function up under their own name (``fbim`` imports ``compute_glcm``,
``dataset`` imports ``glcp`` and ``apply_measure``).  The wrapper records a
span ``(id, parent, thread, name, start_ns, end_ns, counters)``.  A span's
parent is the innermost open span of its thread; a span opened on a pool
worker thread, whose stack is empty, takes the open pool-owning span as its
parent.  Counters are computed after the span has ended, so they do not
count towards its time.

:func:`summarize` turns spans into per-name totals, self times (duration
minus the part covered by child spans) and the parallel efficiency of the
pool owners; :func:`merge` adds such totals up, so that spans can be folded
in and dropped after every pass and memory stays bounded.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time
from pathlib import Path

import numpy as np


def _glcm_counters(args, kwargs, glcm) -> dict:
    counts = glcm.counts
    nonzero = counts[counts > 0]
    return {
        "pairs": int(nonzero.sum()),
        "cells": int(counts.size),
        "nonzero": int(nonzero.size),
        "distinct_counts": int(np.count_nonzero(np.bincount(nonzero))),
        "bytes_computed": int(counts.nbytes),
    }


def _measure_counters(args, kwargs, value) -> dict:
    return {"cells": int(args[1].n)}


def _read_counters(args, kwargs, image) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _evaluate_counters(args, kwargs, report) -> dict:
    return {"records": len(args[1])}


# (span name, "module:qualified name" of the function, counters, owns a thread pool)
TRACED = (
    ("dataset.read_pgm", "texent.dataset:read_pgm", _read_counters, False),
    ("dataset.load_labeled_images", "texent.dataset:load_labeled_images", None, False),
    ("dataset.build_feature_sets", "texent.dataset:build_feature_sets", None, True),
    ("dataset.tile_features", "texent.dataset:_extract_multi", None, False),
    ("glcm.GrayImage.quantize", "texent.glcm:GrayImage.quantize", None, False),
    ("glcm.compute_glcm", "texent.glcm:compute_glcm", _glcm_counters, False),
    ("glcm.glcp", "texent.glcm:glcp", None, False),
    ("glcm.correlation", "texent.glcm:correlation", None, False),
    ("measures.apply_measure", "texent.measures:apply_measure", _measure_counters, False),
    ("fbim.compute_fbim", "texent.fbim:compute_fbim", None, True),
    ("fbim.cell", "texent.fbim:_cell_feature", None, False),
    ("fbim.fbim_to_image", "texent.fbim:fbim_to_image", None, False),
    ("fbim.fbim_to_csv", "texent.fbim:fbim_to_csv", None, False),
    ("classifier.train", "texent.classifier:train", None, False),
    ("classifier.evaluate", "texent.classifier:evaluate", _evaluate_counters, False),
    ("classifier.cross_validate", "texent.classifier:cross_validate", None, False),
)


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every name."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        # next() on itertools.count and list.append are each atomic under the GIL.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_owner = None
        self._undo: list[tuple] = []

    def wrap(self, name, fn, counters=None, owns_pool=False):
        """``fn`` wrapped so that each call records one span named ``name``."""
        threads_of = None
        if owns_pool:
            sig = inspect.signature(fn)

            def threads_of(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return int(bound.arguments["threads"])

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._pool_owner
            attrs = {}
            if owns_pool:
                attrs["threads"] = threads_of(args, kwargs)
                outer_owner, self._pool_owner = self._pool_owner, sid
            stack.append(sid)
            result = error = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if owns_pool:
                    self._pool_owner = outer_owner
                if error is not None:
                    attrs["error"] = error
                elif counters is not None:
                    attrs.update(counters(args, kwargs, result))
                self.spans.append((sid, parent, threading.get_ident(), name, t0, t1, attrs))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every module-level name under which a traced function is reachable."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "texent" or key.startswith("texent."))]
        for name, target, counters, owns_pool in TRACED:
            module_name, qualname = target.split(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(target)
                continue
            wrapped = self.wrap(name, original, counters, owns_pool)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapped)

    def _rebind(self, obj, key, original, wrapped):
        setattr(obj, key, wrapped)
        self._undo.append((obj, key, original))

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()


def _covered(intervals, t0, t1) -> int:
    """Nanoseconds of [t0, t1] covered by the union of ``intervals``."""
    total, cursor = 0, t0
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, t1)
        if b > a:
            total += b - a
            cursor = b
    return total


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s, errors, summed counters, and for
    pool owners the children's busy seconds and the owner's thread-seconds."""
    children: dict[int, list] = {}
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[str, dict] = {}
    for sid, _, _, name, t0, t1, attrs in spans:
        s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": {}})
        kids = children.get(sid, ())
        s["calls"] += 1
        s["busy_s"] += (t1 - t0) / 1e9
        s["self_s"] += (t1 - t0 - _covered(kids, t0, t1)) / 1e9
        for key, value in attrs.items():
            if key == "error":
                s["errors"][value] = s["errors"].get(value, 0) + 1
            elif key == "threads":
                s["child_busy_s"] = s.get("child_busy_s", 0.0) + sum(b - a for a, b in kids) / 1e9
                s["thread_s"] = s.get("thread_s", 0.0) + value * (t1 - t0) / 1e9
            else:
                s[key] = s.get(key, 0) + value
    return out


def merge(total: dict, part: dict) -> dict:
    """``total`` with the per-name sums of ``part`` added in."""
    for name, stats in part.items():
        into = total.setdefault(name, {"errors": {}})
        for key, value in stats.items():
            if key == "errors":
                for err, count in value.items():
                    into["errors"][err] = into["errors"].get(err, 0) + count
            else:
                into[key] = into.get(key, 0) + value
    return total
