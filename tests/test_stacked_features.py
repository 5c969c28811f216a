"""Corpus features from stacked tiles equal the public per-cell chain, in bounded memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import texent.dataset
from texent import (
    FEATURE_ANGLES,
    MEASURE_KINDS,
    DomainError,
    EntropyMeasure,
    GrayImage,
    SpacingVector,
    apply_measure,
    build_feature_sets,
    compute_glcm,
    extract_feature,
    glcm_entropy,
    glcp,
)

#: Orders inside (1.03) and outside the near-1 band, up to the largest accepted.
_ORDERS = (0.6, 1.03, 2.0, 1e308)


def _per_cell(img, measure, distances, symmetric):
    """The mean over the four feature angles of apply_measure(glcp(compute_glcm(...)))."""
    out = []
    for d in distances:
        vals = [apply_measure(measure, glcp(compute_glcm(img, SpacingVector(d, theta), symmetric)))
                for theta in FEATURE_ANGLES]
        out.append(sum(vals) / len(vals))
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(2, 256),
       h=st.integers(2, 24), w=st.integers(2, 24), tiles=st.integers(1, 5),
       spread=st.floats(0.05, 1.0), symmetric=st.booleans(),
       distances=st.lists(st.integers(1, 23), min_size=1, max_size=4, unique=True),
       order=st.sampled_from(_ORDERS))
@example(seed=1, levels=4, h=8, w=8, tiles=3, spread=1.0, symmetric=False,
         distances=[1, 3], order=2.0)  # every row binned
@example(seed=2, levels=256, h=8, w=12, tiles=3, spread=1.0, symmetric=True,
         distances=[1, 2], order=0.6)  # every row sorted
@example(seed=3, levels=8, h=4, w=40, tiles=4, spread=0.7, symmetric=False,
         distances=[1, 3], order=1.03)  # d = 1 binned; d = 3 binned at 0 degrees only
@example(seed=4, levels=16, h=16, w=16, tiles=5, spread=1.0, symmetric=True,
         distances=[1, 2, 5], order=1e308)  # d = 1, 2 binned, d = 5 not
def test_stacked_features_equal_the_per_cell_chain(seed, levels, h, w, tiles, spread,
                                                  symmetric, distances, order):
    rng = np.random.default_rng(seed)
    top = max(1, int(levels * spread))
    images = [GrayImage(rng.integers(0, top, (h, w)), levels) for _ in range(tiles)]
    distances = sorted({min(d, min(h, w) - 1) for d in distances})
    measures = {kind: EntropyMeasure.select(kind, order, order) for kind in MEASURE_KINDS}
    got = build_feature_sets([("c", f"t{k}", img) for k, img in enumerate(images)],
                             measures, distances, symmetric)
    for key, measure in measures.items():
        for img, record in zip(images, got[key].records):
            want = np.array(_per_cell(img, measure, distances, symmetric))
            assert np.array(record.features).tobytes() == want.tobytes(), key
        single = extract_feature(images[0], measure, distances, symmetric)
        assert np.array(single).tobytes() == np.array(got[key].records[0].features).tobytes()


@pytest.mark.parametrize("other, message", [
    (GrayImage(np.zeros((8, 9), dtype=np.uint8), 16), "tile b/t1 is 9x8 but a/t0 is 8x8"),
    (GrayImage(np.zeros((8, 8), dtype=np.uint8), 8), "tile b/t1 has 8 gray levels but a/t0 has 16"),
])
def test_tiles_of_another_shape_or_level_count_rejected(other, message):
    first = GrayImage(np.arange(64).reshape(8, 8) % 16, 16)
    items = [("a", "t0", first), ("b", "t1", other), ("b", "t2", first)]
    with pytest.raises(DomainError, match=f"^{message}"):
        build_feature_sets(items, {"p": EntropyMeasure("proposed")}, 1)
    assert build_feature_sets(items[:1] + items[2:], {"p": EntropyMeasure("proposed")}, 1)


def _peak_bytes(tiles: int) -> int:
    """tracemalloc peak of build_feature_sets on ``tiles`` binned 32 x 32 tiles."""
    rng = np.random.default_rng(tiles)
    items = [("c", f"t{k}", GrayImage(rng.integers(0, 16, (32, 32)), 16)) for k in range(tiles)]
    measures = {"p": EntropyMeasure("proposed")}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_feature_sets(items, measures, [1, 2])
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_stacked_features_take_memory_bounded_by_the_chunk():
    # One chunk holds 256 KiB of int64 pair codes and bins; stacking all 512
    # tiles at once would take 4 MiB of pair codes alone.
    small, large = _peak_bytes(64), _peak_bytes(512)
    assert large < 1 << 20
    assert large - small < 1 << 18


@pytest.mark.parametrize("symmetric, binned_distances", [(False, [1, 4]), (True, [1, 4, 11])])
def test_each_angle_of_a_distance_keeps_its_own_pair_count(symmetric, binned_distances,
                                                            monkeypatch):
    # On 20 x 12 tiles the four angles of a distance count different numbers
    # of pairs: at d = 4, 16 * 12, 16 * 8, 20 * 8 and 16 * 8.  At d = 11 only
    # a symmetric 45 or 135 degree GLCM has its 16 cells (2 * 9 pairs).
    # Chunks of 3 tiles split the 8 tiles into 3 chunks.
    monkeypatch.setattr(texent.dataset, "_CHUNK_BYTES", 3 * 8 * (20 * 12 + 4 * 4))
    rng = np.random.default_rng(20)
    images = [GrayImage(rng.integers(0, 4, (12, 20)), 4) for _ in range(8)]
    measures = {kind: EntropyMeasure.select(kind, 2.0, 0.6) for kind in MEASURE_KINDS}
    calls = []
    original = texent.dataset._count_histograms
    monkeypatch.setattr(texent.dataset, "_count_histograms",
                        lambda *args: calls.append(args) or original(*args))
    got = build_feature_sets([("c", f"t{k}", img) for k, img in enumerate(images)],
                             measures, [1, 4, 11], symmetric)
    for key, measure in measures.items():
        for img, record in zip(images, got[key].records):
            want = np.array(_per_cell(img, measure, [1, 4, 11], symmetric))
            assert np.array(record.features).tobytes() == want.tobytes(), key
    assert [args[3] for args in calls] == [[SpacingVector(d, theta) for theta in FEATURE_ANGLES]
                                           for d in binned_distances] * 3
    assert [len(args[1]) for args in calls[::len(binned_distances)]] == [3, 3, 2]


def test_a_measure_that_is_not_an_entropy_measure_rejected(monkeypatch):
    img = GrayImage(np.arange(64).reshape(8, 8) % 4, 4)
    message = "^measure must be an EntropyMeasure, got 'proposed'$"
    with pytest.raises(DomainError, match=message):
        apply_measure("proposed", glcp(compute_glcm(img, SpacingVector(1, 0))))
    with pytest.raises(DomainError, match="^measure must be an EntropyMeasure, got 'correlation'$"):
        glcm_entropy(compute_glcm(img, SpacingVector(1, 0)), "correlation")
    calls = []
    for name in ("_count_histograms", "_extract_multi"):  # no tile is counted first
        monkeypatch.setattr(texent.dataset, name, lambda *args: calls.append(args))
    with pytest.raises(DomainError, match=message):
        extract_feature(img, "proposed", [1, 7])
    with pytest.raises(DomainError, match=message):
        build_feature_sets([("c", "t0", img), ("c", "t1", img)],
                           {"p": EntropyMeasure("proposed"), "x": "proposed"}, [1, 7])
    assert calls == []
