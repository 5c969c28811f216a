"""Unit tests for PGM I/O, tiling, feature extraction and seeded splits."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import ORDERS, noise_image, stripe_image
from texent import (
    MEASURE_KINDS,
    DomainError,
    EntropyMeasure,
    GrayImage,
    LabeledFeatureSet,
    PgmError,
    SpacingVector,
    SplitMix64,
    SplitSpec,
    build_feature_sets,
    compute_glcm,
    extract_feature,
    glcm_entropy,
    load_labeled_images,
    load_pgm,
    read_feature_csv,
    save_pgm,
    split,
    tile,
    write_feature_csv,
    write_pgm,
)

E1 = math.exp(-1)

# A copy of the P2 reader that reads every value as one regex token, kept
# here as the reference for load_pgm's one-split raster path.
_REF_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*(?=[\n\r]|\Z))*([^\s#]+)")


def _token_loop_p2(data: bytes):
    """(pixel rows, levels) of P2 bytes, or the PgmError the token loop raises."""
    pos = 0

    def token():
        m = _REF_TOKEN.match(data, pos)
        if m is None:
            raise PgmError("unexpected end of data in header", offset=len(data))
        return m

    def int_token(what):
        nonlocal pos
        m = token()
        try:
            if m[1].isdigit():
                pos = m.end()
                return int(m[1])
        except ValueError:
            pass
        raise PgmError(f"malformed {what} {m[1]!r}", offset=m.start(1))

    m = token()
    assert m[1] == b"P2"
    start, pos = m.start(1), m.end()
    width, height = int_token("width"), int_token("height")
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}", offset=start)
    maxval = int_token("maxval")
    if maxval > 255:
        raise PgmError(f"maxval {maxval} exceeds 255", offset=pos)
    if maxval < 1:
        raise PgmError(f"invalid maxval {maxval}", offset=pos)
    values = []
    for _ in range(width * height):
        at = token().start(1)
        value = int_token("pixel value")
        if value > maxval:
            raise PgmError(f"pixel value {value} exceeds maxval {maxval}", offset=at)
        values.append(value)
    return [values[r * width : (r + 1) * width] for r in range(height)], maxval + 1


_SPACE = [b" ", b"\n", b"\r\n", b"\t", b"\x0b", b"\x0c", b" \n "]
_COMMENT = [b" #c\n", b"#\r", b"\n# 12 x\n", b"#glued"]


@st.composite
def _p2_bytes(draw):
    """P2 bytes near the common case.  A quarter of the examples each put
    comments in the header, put comments in the raster, have one odd token,
    glue two tokens, let values exceed maxval, have too few or too many
    values, or end in other trailing bytes than a newline."""
    def rarely():
        return draw(st.integers(0, 3)) == 0

    head = st.sampled_from(_SPACE + (_COMMENT if rarely() else []))
    body = st.sampled_from(_SPACE + (_COMMENT if rarely() else []))
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.sampled_from([1, 3, 255]) | st.integers(1, 255))
    value = st.builds(lambda zeros, v: b"0" * zeros + str(v).encode(), st.integers(0, 2),
                      st.integers(0, maxval + 2 if rarely() else maxval))
    count = width * height + (draw(st.sampled_from([-2, -1, 1, 2])) if rarely() else 0)
    tokens = draw(st.lists(value, min_size=max(1, count), max_size=max(1, count)))
    seps = [draw(head)] + [draw(body) for _ in tokens[1:]]
    if rarely():
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(
            [b"0" * 4301, b"0" * 4300 + b"1", b"x", b"+1", b"1_0", b"\xff", b"\xa0"]))
    if rarely() and len(seps) > 1:
        seps[draw(st.integers(1, len(seps) - 1))] = draw(st.sampled_from([b"", b"\x1c"]))
    out = b"P2" + b"".join(draw(head) + str(n).encode() for n in (width, height, maxval))
    out += b"".join(s + t for s, t in zip(seps, tokens))
    return out + (draw(st.sampled_from([b"", b" ", b"#end", b"# c\n", b" 7", b" x"]))
                  if rarely() else b"\n")


def _outcome(read, data):
    try:
        return read(data)
    except Exception as e:
        return type(e), str(e), getattr(e, "offset", None)


class TestPgmLoad:
    def test_minimal_binary(self):
        img = load_pgm(b"P5\n1 1\n255\n\x00")
        assert (img.width, img.height, img.levels) == (1, 1, 256)
        assert img.pixels[0, 0] == 0

    def test_ascii_with_comments(self):
        data = b"P2 # plain text\n# another comment\n2 2\n3\n0 1\n2 3\n"
        img = load_pgm(data)
        assert img.pixels.tolist() == [[0, 1], [2, 3]]
        assert img.levels == 4

    def test_round_trip(self):
        for img in (noise_image(9, 5, seed=1), noise_image(4, 7, seed=2, levels=64)):
            back = load_pgm(save_pgm(img))
            assert np.array_equal(back.pixels, img.pixels)
            assert back.levels == img.levels

    def test_color_magic_unsupported(self):
        with pytest.raises(PgmError, match="P6"):
            load_pgm(b"P6\n1 1\n255\n\x00\x00\x00")

    def test_garbage_magic(self):
        with pytest.raises(PgmError):
            load_pgm(b"hello world")

    def test_truncated_payload_reports_offset(self):
        with pytest.raises(PgmError, match="byte") as err:
            load_pgm(b"P5\n2 2\n255\n\x00\x01")
        assert err.value.offset is not None

    def test_maxval_too_large(self):
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_non_integer_header(self):
        with pytest.raises(PgmError, match="width"):
            load_pgm(b"P5\nxx 1\n255\n\x00")

    def test_binary_pixel_above_maxval(self):
        with pytest.raises(PgmError, match="exceeds maxval") as err:
            load_pgm(b"P5\n2 1\n100\n\x00\xc8")
        assert err.value.offset == len(b"P5\n2 1\n100\n") + 1

    def test_ascii_truncated(self):
        with pytest.raises(PgmError):
            load_pgm(b"P2\n2 2\n255\n0 1 2")

    def test_empty_input(self):
        with pytest.raises(PgmError):
            load_pgm(b"")

    @pytest.mark.parametrize("data, expected", [
        # A comment glued to a token ends the token.
        (b"P2 2#c\n1 3#c\n0 1", ([[0, 1]], 4)),
        # A comment that runs to the end of the data.
        (b"P2 1 1 3 2 #end", ([[2]], 4)),
        (b"P2 1 1 #end", ("unexpected end of data in header", 11)),
        # Vertical tab, form feed and CR-only line ends separate tokens.
        (b"P2\x0b2\x0c1\r3\r0\r1", ([[0, 1]], 4)),
        (b"P2 2 1 3\n0 # mid\n1\n", ([[0, 1]], 4)),
        # A malformed raster token is reported at its first byte.
        (b"P2 2 1 3\n0 x1\n", ("malformed pixel value b'x1'", 11)),
        # In P5 a glued comment leaves no whitespace before the payload.
        (b"P5 1 1 255#c\n\x00", ("missing whitespace before pixel data", 10)),
        # Numbers are plain decimal digits: no sign and no '_' separator.
        (b"P2 1 1 1_0 +3", ("malformed maxval b'1_0'", 7)),
        (b"P5 1 1 2_5\n\x03", ("malformed maxval b'2_5'", 7)),
        (b"P2 1 1 9 +3", ("malformed pixel value b'+3'", 9)),
        # An out-of-range raster value is reported where it starts.
        (b"P2 3 1 9 1 12 3", ("pixel value 12 exceeds maxval 9", 11)),
    ])
    def test_token_edge_cases(self, data, expected):
        first, second = expected
        if isinstance(first, str):
            with pytest.raises(PgmError) as err:
                load_pgm(data)
            assert str(err.value) == f"{first} (at byte {second})"
            assert err.value.offset == second
        else:
            img = load_pgm(data)
            assert img.pixels.tolist() == first and img.levels == second

    @given(st.lists(st.one_of(
        st.sampled_from([b"P2", b"P5", b"P6", b" ", b"\n", b"\r", b"\x0b", b"#c\n",
                         b"#", b"0", b"1", b"2", b"3", b"255", b"256", b"-1", b"x"]),
        st.binary(max_size=4)), max_size=24).map(b"".join))
    def test_arbitrary_bytes_raise_only_pgm_error(self, data):
        try:
            img = load_pgm(data)
        except PgmError:
            return
        assert isinstance(img, GrayImage)

    @settings(max_examples=300)
    @given(_p2_bytes())
    @example(b"P2\n# synthetic texture\n2 2\n255\n0 1\n254 255\n")
    @example(b"P2 2 1 9 1 " + b"0" * 4301)
    def test_p2_matches_token_loop(self, data):
        def load(data):
            img = load_pgm(data)
            return img.pixels.tolist(), img.levels

        assert _outcome(load, data) == _outcome(_token_loop_p2, data)

    @given(st.data())
    def test_p5_round_trip_any_shape_and_levels(self, data):
        levels = data.draw(st.integers(2, 256))
        h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        flat = data.draw(st.lists(st.integers(0, levels - 1), min_size=h * w,
                                  max_size=h * w))
        img = GrayImage(np.array(flat).reshape(h, w), levels)
        back = load_pgm(save_pgm(img))
        assert np.array_equal(back.pixels, img.pixels) and back.levels == levels


class TestTile:
    def test_512_into_128(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.int64), levels=256)
        assert len(tile(img, 128)) == 16

    def test_identity_tiling(self):
        img = noise_image(16, 16, seed=3)
        tiles = tile(img, 16)
        assert len(tiles) == 1
        assert np.array_equal(tiles[0].pixels, img.pixels)

    def test_non_divisible_rejected(self):
        img = GrayImage(np.zeros((100, 100), dtype=np.int64), levels=256)
        with pytest.raises(DomainError):
            tile(img, 128)

    def test_tiles_partition_exactly(self):
        img = noise_image(8, 8, seed=4)
        tiles = tile(img, 4)
        rebuilt = np.block([[tiles[0].pixels, tiles[1].pixels],
                            [tiles[2].pixels, tiles[3].pixels]])
        assert np.array_equal(rebuilt, img.pixels)


class TestExtractFeature:
    def test_constant_tile_hits_floor(self):
        img = GrayImage(np.full((128, 128), 50, dtype=np.int64), levels=256)
        assert extract_feature(img, EntropyMeasure("proposed"), 31) == [
            pytest.approx(E1, abs=1e-15)
        ]

    def test_equals_mean_of_four_directions(self):
        img = noise_image(20, 20, seed=5, levels=16)
        m = EntropyMeasure("shannon")
        got = extract_feature(img, m, 3)[0]
        per_dir = [
            glcm_entropy(compute_glcm(img, SpacingVector(3, theta)), m)
            for theta in (0, 45, 90, 135)
        ]
        assert got == pytest.approx(sum(per_dir) / 4, abs=1e-15)

    def test_noise_above_stripes(self):
        noisy = noise_image(32, 32, seed=6)
        stripes = stripe_image(32, 32, period=4, duty=2)
        m = EntropyMeasure("proposed-normalized")
        assert extract_feature(noisy, m, 4)[0] > extract_feature(stripes, m, 4)[0]

    def test_multi_distance_vector(self):
        img = noise_image(16, 16, seed=7, levels=8)
        m = EntropyMeasure("proposed")
        vec = extract_feature(img, m, [1, 2, 3])
        assert len(vec) == 3
        assert vec == [extract_feature(img, m, d)[0] for d in (1, 2, 3)]

    def test_bad_distances(self):
        img = noise_image(8, 8, seed=8)
        with pytest.raises(DomainError):
            extract_feature(img, EntropyMeasure("proposed"), 0)
        with pytest.raises(DomainError):
            extract_feature(img, EntropyMeasure("proposed"), [])


def _toy_set(classes=3, per_class=6, dim=2):
    rows = []
    for k in range(classes):
        for i in range(per_class):
            rows.append((f"c{k}", f"t{i}", [float(k)] * dim))
    return LabeledFeatureSet(rows)


class TestLabeledFeatureSet:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DomainError):
            LabeledFeatureSet([("a", "t0", [1.0]), ("a", "t1", [1.0, 2.0])])

    def test_class_labels_sorted(self):
        fs = LabeledFeatureSet([("b", "t", [0.0]), ("a", "t", [0.0])])
        assert fs.class_labels() == ("a", "b")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(DomainError, match="^tile b/t1 has a non-finite feature value$"):
            LabeledFeatureSet([("a", "t0", [1.0, 2.0]), ("b", "t1", [1.0, bad])])


class TestSplitMix64:
    def test_reference_stream(self):
        # First outputs of the published generator for seed 0.
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_shuffle_is_permutation(self):
        items = list(range(20))
        SplitMix64(99).shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestSplit:
    def test_half_split_15x16(self):
        fs = _toy_set(classes=15, per_class=16)
        train, test = split(fs, SplitSpec(seed=42))
        assert len(train) == 120 and len(test) == 120
        assert all(len(g) == 8 for g in train.by_class().values())
        assert all(len(g) == 8 for g in test.by_class().values())

    def test_same_seed_same_split(self):
        fs = _toy_set()
        a = split(fs, SplitSpec(seed=7))
        b = split(fs, SplitSpec(seed=7))
        assert a[0].records == b[0].records and a[1].records == b[1].records

    def test_different_seed_differs(self):
        fs = _toy_set(classes=4, per_class=10)
        a = split(fs, SplitSpec(seed=1))
        b = split(fs, SplitSpec(seed=2))
        assert a[0].records != b[0].records

    def test_union_and_disjointness(self):
        fs = _toy_set()
        train, test = split(fs, SplitSpec(seed=3))
        merged = sorted(train.records + test.records)
        assert merged == sorted(fs.records)
        assert not set(train.records) & set(test.records)

    def test_counts_within_one_of_fraction(self):
        fs = _toy_set(classes=2, per_class=10)
        train, _ = split(fs, SplitSpec(seed=4, fraction=0.3))
        for group in train.by_class().values():
            assert abs(len(group) - 3) <= 1

    def test_small_class_rejected(self):
        fs = LabeledFeatureSet([("a", "t0", [0.0]), ("b", "t0", [1.0]), ("b", "t1", [1.0])])
        with pytest.raises(DomainError):
            split(fs, SplitSpec(seed=5))

    def test_half_rounds_to_even(self):
        rows = [("five", f"t{i}", [0.0]) for i in range(5)]
        rows += [("seven", f"t{i}", [1.0]) for i in range(7)]
        train, _ = split(LabeledFeatureSet(rows), SplitSpec(seed=9))
        # round(2.5) == 2 and round(3.5) == 4, where rounding half up gives 3 and 4.
        assert {label: len(g) for label, g in train.by_class().items()} == {
            "five": 2, "seven": 4}

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            SplitSpec(seed=1, fraction=1.0)


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        fs = LabeledFeatureSet(
            [("a", "t0", [0.123456789012345, 1.0]), ("b", "t1", [2.0, 3.5])]
        )
        path = tmp_path / "features.csv"
        write_feature_csv(path, fs)
        header = path.read_text().splitlines()[0]
        assert header == "label,tile,f1,f2"
        back = read_feature_csv(path)
        assert back.records == fs.records

    def test_rejects_non_finite_value(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("label,tile,f1\na,t0,0.5\na,t1,nan\n")
        with pytest.raises(DomainError, match="a/t1"):
            read_feature_csv(path)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(DomainError):
            read_feature_csv(path)


class TestLabeledCorpus:
    def test_directory_layout(self, tmp_path):
        for cls in ("wood", "grass"):
            (tmp_path / cls).mkdir()
            for i in range(2):
                write_pgm(tmp_path / cls / f"t{i}.pgm", noise_image(8, 8, seed=i))
        items = load_labeled_images(tmp_path)
        assert [(label, name) for label, name, _ in items] == [
            ("grass", "t0"), ("grass", "t1"), ("wood", "t0"), ("wood", "t1"),
        ]

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            load_labeled_images(tmp_path)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), side=st.integers(2, 16),
           levels=st.integers(2, 16),
           distances=st.lists(st.integers(1, 15), min_size=1, max_size=3, unique=True),
           alpha=ORDERS, q=ORDERS)
    @example(seed=0, side=12, levels=16, distances=[1, 2], alpha=1e308, q=1e308)
    def test_build_feature_sets_thread_invariant(self, seed, side, levels, distances,
                                                 alpha, q):
        rng = np.random.default_rng(seed)
        items = [(f"c{i % 2}", f"t{i}",
                  GrayImage(rng.integers(0, levels, (side, side)), levels))
                 for i in range(4)]
        distances = [min(d, side - 1) for d in distances]
        measures = {kind: EntropyMeasure.select(kind, alpha, q) for kind in MEASURE_KINDS}
        seq = build_feature_sets(items, measures, distances, threads=1)
        par = build_feature_sets(items, measures, distances, threads=2)
        for kind in measures:
            assert seq[kind].records == par[kind].records
