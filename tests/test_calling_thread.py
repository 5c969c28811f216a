"""Every fbim cell and every tile is evaluated once, in input order, on the calling thread."""

import threading

import numpy as np
import pytest

import texent.dataset
import texent.fbim
from conftest import noise_image
from texent import (
    ANGLES,
    CORRELATION,
    FEATURE_ANGLES,
    MEASURE_KINDS,
    EntropyMeasure,
    GrayImage,
    SpacingVector,
    apply_measure,
    build_feature_sets,
    compute_fbim,
    compute_glcm,
    glcp,
)

MEASURES = {"h": EntropyMeasure("shannon"), "p": EntropyMeasure("proposed")}


def _recording(monkeypatch, module, name, calls):
    """Wrap ``module.name`` so each call appends (first argument, thread id)."""
    original = getattr(module, name)

    def wrapper(*args):
        calls.append((args, threading.get_ident()))
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("as_generator", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_tiles_once_in_input_order_on_the_calling_thread(n, threads, as_generator,
                                                         monkeypatch):
    items = [(f"c{k % 2}", f"t{k}", noise_image(8, 8, seed=k)) for k in range(n)]
    expected = build_feature_sets(items, MEASURES, 1, threads=1)
    calls = []
    _recording(monkeypatch, texent.dataset, "_extract_multi", calls)
    given = (item for item in items) if as_generator else items
    got = build_feature_sets(given, MEASURES, 1, threads=threads)
    for key in MEASURES:
        assert got[key].records == expected[key].records
        assert [(label, source) for label, source, _ in got[key].records] == \
            [(label, source) for label, source, _ in items]
    assert [args[0] for args, _ in calls] == [img for _, _, img in items]
    assert all(ident == threading.get_ident() for _, ident in calls)


@pytest.mark.parametrize("chunk_bytes, chunk", [(4 << 10, 1), (20 << 10, 5)])
def test_chunks_mixing_binned_and_per_tile_distances(chunk_bytes, chunk, monkeypatch):
    # 16 x 16 tiles at L = 16, symmetric: every spacing vector bins at d = 1
    # and 2, but 45 and 135 degrees do not at d = 5 (2 * 11 * 11 < 16 * 16).
    monkeypatch.setattr(texent.dataset, "_CHUNK_BYTES", chunk_bytes)
    assert chunk_bytes // (8 * (16 * 16 + 16 * 16)) == chunk
    rng = np.random.default_rng(12)
    images = [GrayImage(rng.integers(0, 16, (16, 16)), 16) for _ in range(12)]
    measures = {kind: EntropyMeasure.select(kind, 2.0, 0.6) for kind in MEASURE_KINDS}
    calls = []
    _recording(monkeypatch, texent.dataset, "_extract_multi", calls)
    got = build_feature_sets([("c", f"t{k}", img) for k, img in enumerate(images)],
                             measures, [1, 2, 5], symmetric=True)
    for key, measure in measures.items():
        for img, record in zip(images, got[key].records):
            want = []
            for d in (1, 2, 5):
                vals = [apply_measure(measure, glcp(compute_glcm(img, SpacingVector(d, theta),
                                                                 True)))
                        for theta in FEATURE_ANGLES]
                want.append(sum(vals) / len(vals))
            assert np.array(record.features).tobytes() == np.array(want).tobytes(), key
    assert len(calls) == len(images)
    assert all(args[0] is img for (args, _), img in zip(calls, images))
    assert all(args[2] == [SpacingVector(5, theta) for theta in FEATURE_ANGLES]
               for args, _ in calls)


@pytest.mark.parametrize("d_max", [1, 2, 3, 7])
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_cells_once_in_input_order_on_the_calling_thread(d_max, threads, monkeypatch):
    img = noise_image(16, 12, seed=d_max)
    feature = EntropyMeasure("proposed")
    expected = compute_fbim(img, feature, d_max=d_max, threads=1)
    calls = []
    _recording(monkeypatch, texent.fbim, "_cell_feature", calls)
    got = compute_fbim(img, feature, d_max=d_max, threads=threads)
    assert got.values.tobytes() == expected.values.tobytes()
    assert [args[2] for args, _ in calls] == [
        SpacingVector(d=d, theta=theta) for theta in ANGLES[:len(ANGLES) // 2] for d in range(1, d_max + 1)
    ]
    assert all(args[0] is img for args, _ in calls)
    assert all(ident == threading.get_ident() for _, ident in calls)


@pytest.mark.parametrize("threads", [1, 2])
def test_correlation_map_evaluates_no_single_cell(threads, monkeypatch):
    calls = []
    _recording(monkeypatch, texent.fbim, "_cell_feature", calls)
    compute_fbim(noise_image(16, 12, seed=3), CORRELATION, d_max=5, threads=threads)
    assert calls == []


def test_first_failing_tile_is_raised_and_later_tiles_are_not_evaluated(monkeypatch):
    items = [("a", f"t{k}", noise_image(8, 8, seed=k)) for k in range(12)]
    seen = []

    def extract(img, measures, row, symmetric):
        k = next(k for k, (_, _, item) in enumerate(items) if item is img)
        seen.append(k)
        if k in (5, 9):
            raise ValueError(f"item {k}")
        return {key: 0.0 for key in measures}

    monkeypatch.setattr(texent.dataset, "_extract_multi", extract)
    with pytest.raises(ValueError, match="item 5"):
        build_feature_sets(items, MEASURES, 1, threads=2)
    assert seen == list(range(6))


@pytest.mark.parametrize("threads", [1, 2, 64, np.int64(3)])
def test_threads_accepts_positive_integers(threads):
    items = [("a", "t0", noise_image(8, 8, seed=1))]
    got, want = (build_feature_sets(items, MEASURES, 1, threads=t) for t in (threads, 1))
    assert all(got[key].records == want[key].records for key in MEASURES)
    img = noise_image(8, 8, seed=1)
    assert compute_fbim(img, CORRELATION, d_max=2, threads=threads).values.tobytes() == \
        compute_fbim(img, CORRELATION, d_max=2).values.tobytes()
