"""End-to-end tests of the command-line interface."""

import argparse
import csv
import os

import numpy as np
import pytest

from conftest import noise_image, stripe_image
from texent import (GrayImage, SpacingVector, compute_glcm, glcp, read_feature_csv, read_pgm,
                    write_pgm)
from texent import dataset
from texent.cli import build_parser, run


@pytest.fixture
def const_image(tmp_path):
    path = tmp_path / "const.pgm"
    write_pgm(path, GrayImage(np.full((64, 64), 9, dtype=np.int64), levels=256))
    return path


@pytest.fixture
def small_images(tmp_path):
    """A 20x20 and a 40x20 noise image, as ``square.pgm`` and ``wide.pgm`` in tmp_path."""
    write_pgm(tmp_path / "square.pgm", noise_image(20, 20, seed=3, levels=8))
    write_pgm(tmp_path / "wide.pgm", noise_image(40, 20, seed=4, levels=8))
    return tmp_path


@pytest.fixture
def corpus(tmp_path):
    """Two trivially separable classes, four 16x16 tiles each."""
    root = tmp_path / "corpus"
    for cls, maker in (
        ("noise", lambda i: noise_image(16, 16, seed=i)),
        ("stripes", lambda i: stripe_image(16, 16, period=4, duty=2, phase=i)),
    ):
        (root / cls).mkdir(parents=True)
        for i in range(4):
            write_pgm(root / cls / f"t{i}.pgm", maker(i))
    return root


class TestExitCodes:
    def test_help_is_success(self, capsys):
        assert run(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ["tile", "glcm", "entropy", "fbim", "classify", "compare"]
    )
    def test_every_subcommand_documents_itself(self, command, capsys):
        assert run([command, "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 1

    def test_unknown_flag(self, const_image, capsys):
        rc = run(["entropy", str(const_image), "--bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--bogus" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = run(["entropy", str(tmp_path / "absent.pgm"), "--dist", "1"])
        assert rc == 2

    def test_corrupt_pgm_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00")
        rc = run(["entropy", str(bad), "--dist", "1"])
        assert rc == 2
        assert capsys.readouterr().err.count("bad.pgm") == 1

    def test_corrupt_corpus_tile_names_the_file(self, corpus, tmp_path, capsys):
        bad = corpus / "stripes" / "t1.pgm"
        bad.write_bytes(b"P5\n4 4\n255\n\x00")
        rc = run(["classify", "--train", str(corpus), "--dist", "1",
                  "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad}: truncated pixel data" in err

    @pytest.mark.parametrize("argv", [
        ["fbim", "in.pgm", "--out", "map.pgm"],
        ["classify", "--train", "corpus", "--report", "r.csv"],
        ["compare", "--train", "corpus", "--report", "r.csv"],
    ])
    def test_threads_default_is_one_whatever_the_cpus(self, argv, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 7}, raising=False)
        assert build_parser().parse_args(argv).threads == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert build_parser().parse_args(argv).threads == 1

    def test_domain_error_names_problem(self, const_image, capsys):
        rc = run(["entropy", str(const_image), "--drange", "5:1"])
        assert rc == 1
        assert "--drange" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["entropy", "{image}", "--dist", "0"], "--dist must be >= 1, got 0"),
        (["entropy", "{image}", "--drange", "3"], "--drange must be START:END, got '3'"),
        (["entropy", "{image}", "--drange", "1:x"], "--drange must be START:END, got '1:x'"),
        (["entropy", "{image}", "--dist", "64"],
         "--dist must be below the smallest image side 64, got 64"),
        # Rejected before a list of a trillion distances is built.
        (["entropy", "{image}", "--drange", "1:1000000000000"],
         "--drange END must be below the smallest image side 64, got '1:1000000000000'"),
        (["classify", "--train", "{corpus}", "--drange", "2:16", "--report", "{tmp}/r.csv"],
         "--drange END must be below the smallest image side 16, got '2:16'"),
        (["classify", "--train", "{corpus}", "--dist", "1", "--trials", "0",
          "--report", "{tmp}/r.csv"], "--trials must be >= 1, got 0"),
        (["classify", "--train", "{image}", "--dist", "1", "--report", "{tmp}/r.csv"],
         "{image}: not a directory"),
        (["tile", "{image}", "--size", "0", "--out", "{tmp}/tiles"],
         "--size must be >= 1, got 0"),
        (["glcm", "{tmp}/square.pgm", "--dist", "25"],
         "--dist must leave a pixel pair along --angle 0 in the 20x20 image, got 25"),
        (["glcm", "{tmp}/wide.pgm", "--dist", "30", "--angle", "90"],
         "--dist must leave a pixel pair along --angle 90 in the 40x20 image, got 30"),
    ])
    def test_bad_flag_is_one_line_error(self, argv, message, const_image, corpus, small_images,
                                        tmp_path, capsys):
        def fill(text):
            return text.format(image=const_image, corpus=corpus, tmp=tmp_path)

        assert run([fill(a) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {fill(message)}\n"


class TestOneSubparserPerCall:
    ALL = ["tile", "glcm", "entropy", "fbim", "classify", "compare"]

    @pytest.fixture
    def built(self, monkeypatch):
        """The names of the subparsers built, in order."""
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(action, name, **kwargs):
            names.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        return names

    def test_fbim_builds_its_own_only(self, built, const_image, tmp_path):
        assert run(["fbim", str(const_image), "--dmax", "2",
                    "--out", str(tmp_path / "m.pgm")]) == 0
        assert built == ["fbim"]

    def test_classify_builds_its_own_only(self, built, corpus, tmp_path, capsys):
        assert run(["classify", "--train", str(corpus), "--dist", "1",
                    "--report", str(tmp_path / "r.csv")]) == 0
        assert built == ["classify"]

    @pytest.mark.parametrize("argv, status", [
        (["--help"], 0), (["bogus"], 1), ([], 1), (["-h", "fbim"], 0),
    ])
    def test_help_and_unknown_command_build_all(self, built, argv, status, capsys):
        assert run(argv) == status
        assert built == self.ALL

    def test_build_parser_builds_all(self, built):
        build_parser()
        assert built == self.ALL


class TestEntropyCommand:
    def test_constant_image_prints_floor(self, const_image, capsys):
        assert run(["entropy", str(const_image), "--measure", "proposed",
                    "--dist", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.367879441171442"

    def test_drange_prints_one_value_per_distance(self, const_image, capsys):
        assert run(["entropy", str(const_image), "--drange", "1:4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_renyi_parameter_flows_through(self, tmp_path, capsys):
        path = tmp_path / "img.pgm"
        write_pgm(path, noise_image(16, 16, seed=0, levels=8))
        assert run(["entropy", str(path), "--measure", "renyi", "--alpha", "3",
                    "--dist", "1"]) == 0
        a3 = capsys.readouterr().out
        assert run(["entropy", str(path), "--measure", "renyi", "--alpha", "2",
                    "--dist", "1"]) == 0
        assert a3 != capsys.readouterr().out

    def test_huge_renyi_order_gives_min_entropy(self, tmp_path, capsys):
        path = tmp_path / "img.pgm"
        img = noise_image(16, 16, seed=0, levels=8)
        write_pgm(path, img)
        assert run(["entropy", str(path), "--measure", "renyi", "--alpha", "1e308",
                    "--dist", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        # Renyi tends to -ln max p as alpha grows; the feature averages 4 angles.
        want = np.mean([-np.log(glcp(compute_glcm(img, SpacingVector(1, theta))).probs.max())
                        for theta in (0, 45, 90, 135)])
        assert float(out) == pytest.approx(want, rel=1e-14)

    def test_non_finite_order_rejected(self, const_image, capsys):
        assert run(["entropy", str(const_image), "--measure", "renyi", "--alpha", "inf",
                    "--dist", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: alpha must be finite, > 0 and != 1, got inf\n"


class TestTileCommand:
    def test_splits_512_into_16_named_tiles(self, tmp_path, capsys):
        src = tmp_path / "big.pgm"
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(512, 512))
        write_pgm(src, GrayImage(pixels, levels=256))
        out = tmp_path / "tiles"
        assert run(["tile", str(src), "--size", "128", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert len(names) == 16
        assert names[0] == "r0_c0.pgm" and "r3_c3.pgm" in names
        t = read_pgm(out / "r1_c2.pgm")
        assert np.array_equal(t.pixels, pixels[128:256, 256:384])

    def test_non_divisible_size(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_pgm(src, noise_image(100, 100, seed=1))
        assert run(["tile", str(src), "--size", "128", "--out",
                    str(tmp_path / "t")]) == 1


class TestGlcmCommand:
    def test_matches_library_counts(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        img = noise_image(12, 12, seed=2, levels=256)
        write_pgm(src, img)
        assert run(["glcm", str(src), "--dist", "1", "--angle", "45",
                    "--levels", "4"]) == 0
        out = capsys.readouterr().out
        got = np.array([[int(v) for v in line.split(",")]
                        for line in out.strip().split("\n")])
        want = compute_glcm(img.quantize(4), SpacingVector(1, 45)).counts
        assert np.array_equal(got, want)

    def test_writes_file(self, tmp_path, const_image):
        out = tmp_path / "glcm.csv"
        assert run(["glcm", str(const_image), "--dist", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_distance_bounded_along_its_angle_only(self, small_images, capsys):
        # 30 is not below the 20-pixel height, but angle 0 pairs along the 40-pixel width.
        wide = small_images / "wide.pgm"
        assert run(["glcm", str(wide), "--dist", "30", "--angle", "0"]) == 0
        got = [[int(v) for v in line.split(",")]
               for line in capsys.readouterr().out.strip().split("\n")]
        assert np.array_equal(got, compute_glcm(read_pgm(wide), SpacingVector(30, 0)).counts)


class TestFbimCommand:
    def test_writes_p5_map_and_csv(self, tmp_path):
        src = tmp_path / "img.pgm"
        write_pgm(src, noise_image(24, 24, seed=3))
        out_map = tmp_path / "map.pgm"
        out_csv = tmp_path / "map.csv"
        assert run(["fbim", str(src), "--feature", "proposed", "--dmax", "6",
                    "--out", str(out_map), "--csv", str(out_csv)]) == 0
        raw = out_map.read_bytes()
        assert raw.startswith(b"P5\n6 8\n255\n")
        assert len(out_csv.read_text().strip().split("\n")) == 9

    def test_byte_identical_across_thread_counts(self, tmp_path):
        src = tmp_path / "img.pgm"
        write_pgm(src, noise_image(24, 24, seed=4))
        outs = []
        for threads in ("1", "4"):
            out_map = tmp_path / f"map{threads}.pgm"
            out_csv = tmp_path / f"map{threads}.csv"
            assert run(["fbim", str(src), "--dmax", "5", "--threads", threads,
                        "--out", str(out_map), "--csv", str(out_csv)]) == 0
            outs.append((out_map.read_bytes(), out_csv.read_bytes()))
        assert outs[0] == outs[1]

    def test_huge_renyi_order_maps_every_cell(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_pgm(src, noise_image(16, 16, seed=5))
        out_csv = tmp_path / "map.csv"
        assert run(["fbim", str(src), "--feature", "renyi", "--alpha", "1e308",
                    "--dmax", "3", "--out", str(tmp_path / "map.pgm"),
                    "--csv", str(out_csv)]) == 0
        assert capsys.readouterr().err == ""
        rows = out_csv.read_text().strip().split("\n")[1:]
        cells = [float(v) for row in rows for v in row.split(",")]
        assert len(cells) == 24 and np.isfinite(cells).all()

    @pytest.mark.parametrize("order", [["--feature", "renyi", "--alpha", "2"],
                                       ["--feature", "tsallis", "--q", "0.5"]])
    def test_zero_cells_print_without_a_sign(self, order, tmp_path):
        # On a constant image every cell holds all pairs: Renyi's value is
        # -0.0 for alpha > 1, and Tsallis's for q < 1.
        src = tmp_path / "flat.pgm"
        write_pgm(src, GrayImage(np.full((16, 16), 7), levels=256))
        out_csv = tmp_path / "map.csv"
        assert run(["fbim", str(src), *order, "--dmax", "3",
                    "--out", str(tmp_path / "map.pgm"), "--csv", str(out_csv)]) == 0
        assert out_csv.read_text() == "1,2,3\n" + "0,0,0\n" * 8

    def test_dmax_too_large(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_pgm(src, noise_image(16, 16, seed=5))
        assert run(["fbim", str(src), "--dmax", "31",
                    "--out", str(tmp_path / "m.pgm")]) == 1
        assert capsys.readouterr().err == \
            "error: --dmax must be below the smallest image side 16, got 31\n"
        assert run(["fbim", str(src), "--dmax", "16", "--out", str(tmp_path / "m.pgm")]) == 1
        assert "got 16\n" in capsys.readouterr().err
        assert run(["fbim", str(src), "--dmax", "15", "--out", str(tmp_path / "m.pgm")]) == 0


class TestClassifyCommand:
    def test_split_mode_report(self, corpus, tmp_path, capsys):
        report = tmp_path / "report.csv"
        rc = run(["classify", "--train", str(corpus), "--dist", "2",
                  "--levels", "16", "--seed", "42", "--report", str(report)])
        assert rc == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "class,accuracy_v,accuracy_cv"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "noise", "stripes", "average"]
        assert lines[-1] == "average,1,1"
        assert "average_v=1" in capsys.readouterr().out

    def test_report_quotes_labels_as_the_feature_table_does(self, corpus, tmp_path):
        (corpus / "noise").rename(corpus / "noise, grainy")
        report, features = tmp_path / "report.csv", tmp_path / "features.csv"
        assert run(["classify", "--train", str(corpus), "--dist", "2", "--levels", "16",
                    "--report", str(report), "--features-out", str(features)]) == 0
        rows = list(csv.reader(report.read_text().splitlines()))
        assert [len(row) for row in rows] == [3] * 4
        labels = sorted({r.label for r in read_feature_csv(features).records})
        assert [row[0] for row in rows[1:-1]] == labels == ["noise, grainy", "stripes"]

    @pytest.mark.parametrize("alpha, message", [
        ("inf", "error: alpha must be finite, > 0 and != 1, got inf"),
    ])
    def test_non_finite_renyi_is_one_line_error(self, alpha, message, corpus, tmp_path,
                                                capsys):
        rc = run(["classify", "--train", str(corpus), "--measure", "renyi",
                  "--alpha", alpha, "--dist", "1", "--threads", "2",
                  "--report", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"

    def test_huge_renyi_order_gives_finite_features(self, corpus, tmp_path, capsys):
        features = tmp_path / "features.csv"
        rc = run(["classify", "--train", str(corpus), "--measure", "renyi",
                  "--alpha", "1e308", "--dist", "1", "--threads", "2",
                  "--report", str(tmp_path / "r.csv"), "--features-out", str(features)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        # read_feature_csv rejects a table holding a non-finite value.
        assert len(read_feature_csv(features)) == 8

    def test_explicit_test_dir_mode(self, corpus, tmp_path):
        report = tmp_path / "report.csv"
        rc = run(["classify", "--train", str(corpus), "--test", str(corpus),
                  "--dist", "2", "--levels", "16", "--report", str(report)])
        assert rc == 0
        assert report.read_text().strip().split("\n")[-1] == "average,1,1"

    def test_features_out_table(self, corpus, tmp_path):
        features = tmp_path / "features.csv"
        rc = run(["classify", "--train", str(corpus), "--dist", "2",
                  "--levels", "16", "--report", str(tmp_path / "r.csv"),
                  "--features-out", str(features)])
        assert rc == 0
        lines = features.read_text().strip().split("\n")
        assert lines[0] == "label,tile,f1"
        assert len(lines) == 9

    def test_trials_mean(self, corpus, tmp_path):
        report = tmp_path / "report.csv"
        rc = run(["classify", "--train", str(corpus), "--dist", "2",
                  "--levels", "16", "--trials", "3", "--report", str(report)])
        assert rc == 0
        assert report.read_text().strip().split("\n")[-1] == "average,1,1"

    def test_trials_need_split_mode(self, corpus, tmp_path):
        rc = run(["classify", "--train", str(corpus), "--test", str(corpus),
                  "--trials", "2", "--dist", "2",
                  "--report", str(tmp_path / "r.csv")])
        assert rc == 1


class TestSplitFlagsCheckedFirst:
    """Flags no corpus can satisfy fail before any tile is read."""

    @pytest.mark.parametrize("command", ["classify", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "--trials must be >= 1, got 0"),
        (["--test", "{corpus}", "--trials", "2"],
         "--trials applies only when --test is omitted"),
        (["--fraction", "1.5"], "--fraction must lie in (0, 1), got 1.5"),
        (["--fraction", "0"], "--fraction must lie in (0, 1), got 0.0"),
        (["--fraction", "nan"], "--fraction must lie in (0, 1), got nan"),
        (["--threads", "0"], "--threads must be >= 1, got 0"),
        (["--threads", "-3"], "--threads must be >= 1, got -3"),
        (["--levels", "1"], "--levels must be >= 2, got 1"),
        (["--dist", "0"], "--dist must be >= 1, got 0"),
        (["--drange", "1:x"], "--drange must be START:END, got '1:x'"),
        (["--drange", "4:2"], "--drange must satisfy 1 <= START <= END, got '4:2'"),
    ])
    def test_rejected_before_loading(self, command, flags, message, corpus, tmp_path,
                                     capsys, monkeypatch):
        loaded = []
        monkeypatch.setattr(dataset, "load_labeled_images",
                            lambda root: loaded.append(root) or [])
        argv = [command, "--train", str(corpus), "--dist", "1",
                *(f.format(corpus=corpus) for f in flags),
                "--report", str(tmp_path / "r.csv")]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert loaded == []

    @pytest.mark.parametrize("argv, message", [
        (["fbim", "--out", "{tmp}/m.pgm", "--threads", "0"], "--threads must be >= 1, got 0"),
        (["fbim", "--out", "{tmp}/m.pgm", "--dmax", "0"], "--dmax must be >= 1, got 0"),
        (["fbim", "--out", "{tmp}/m.pgm", "--levels", "1"], "--levels must be >= 2, got 1"),
        (["entropy", "--levels", "0"], "--levels must be >= 2, got 0"),
        (["glcm", "--levels", "1"], "--levels must be >= 2, got 1"),
        (["entropy", "--dist", "0"], "--dist must be >= 1, got 0"),
        (["entropy", "--drange", "3"], "--drange must be START:END, got '3'"),
        (["entropy", "--drange", "0:4"], "--drange must satisfy 1 <= START <= END, got '0:4'"),
        (["entropy", "--drange", "5:1"], "--drange must satisfy 1 <= START <= END, got '5:1'"),
        (["glcm", "--dist", "0"], "--dist must be >= 1, got 0"),
        (["glcm", "--dist", "-2", "--angle", "90"], "--dist must be >= 1, got -2"),
        (["tile", "--size", "0", "--out", "{tmp}/tiles"], "--size must be >= 1, got 0"),
    ])
    def test_image_never_read(self, argv, message, tmp_path, capsys, monkeypatch):
        # The image does not exist either, which would exit 2 if it were read.
        read = []
        monkeypatch.setattr(dataset, "read_pgm", lambda path: read.append(path))
        command, *flags = argv
        assert run([command, str(tmp_path / "missing.pgm"),
                    *(f.format(tmp=tmp_path) for f in flags)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert read == [] and not (tmp_path / "tiles").exists()


class TestCompareCommand:
    def test_combined_table_covers_all_measures(self, corpus, tmp_path, capsys):
        report = tmp_path / "combined.csv"
        rc = run(["compare", "--train", str(corpus), "--dist", "2",
                  "--levels", "16", "--report", str(report)])
        assert rc == 0
        lines = report.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "class"
        for name in ("proposed", "shannon", "renyi", "tsallis", "palpal"):
            assert f"{name}_v" in header and f"{name}_cv" in header
        assert lines[-1].startswith("average,")
        out = capsys.readouterr().out
        assert out.count("average_v=") == 5


class TestSharedPipeline:
    @pytest.fixture
    def mismatched(self, tmp_path):
        """Train classes c0..c3 and test classes c0, c1, c2, c9."""
        roots = {}
        for name, labels in (("A", ("c0", "c1", "c2", "c3")),
                             ("B", ("c0", "c1", "c2", "c9"))):
            for k, label in enumerate(labels):
                (tmp_path / name / label).mkdir(parents=True)
                for i in range(2):
                    write_pgm(tmp_path / name / label / f"t{i}.pgm",
                              stripe_image(16, 16, period=2 + k, duty=1, phase=i))
            roots[name] = tmp_path / name
        return roots

    def test_compare_leaves_missing_classes_blank(self, mismatched, tmp_path, capsys):
        report = tmp_path / "combined.csv"
        rc = run(["compare", "--train", str(mismatched["A"]), "--test",
                  str(mismatched["B"]), "--dist", "1", "--report", str(report)])
        assert rc == 0
        rows = {line.split(",")[0]: line.split(",")[1:]
                for line in report.read_text().strip().split("\n")}
        assert list(rows) == ["class", "c0", "c1", "c2", "c3", "c9", "average"]
        # c3 is never tested in the train->test direction, c9 never in the reverse.
        assert rows["c3"][0::2] == [""] * 5 and "" not in rows["c3"][1::2]
        assert rows["c9"][1::2] == [""] * 5 and "" not in rows["c9"][0::2]

    def test_compare_features_out_matches_classify(self, corpus, tmp_path):
        tables = []
        for command in ("classify", "compare"):
            features = tmp_path / f"{command}.csv"
            assert run([command, "--train", str(corpus), "--test", str(corpus),
                        "--dist", "2", "--levels", "16",
                        "--report", str(tmp_path / "r.csv"),
                        "--features-out", str(features)]) == 0
            tables.append(features.read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].decode().strip().split("\n")) == 17

    @pytest.mark.parametrize("threads", ["0", "-5"])
    @pytest.mark.parametrize("command", ["fbim", "classify", "compare"])
    def test_threads_below_one_rejected(self, command, threads, corpus, tmp_path,
                                        capsys):
        if command == "fbim":
            argv = ["fbim", str(corpus / "noise" / "t0.pgm"), "--dmax", "3",
                    "--out", str(tmp_path / "m.pgm")]
        else:
            argv = [command, "--train", str(corpus), "--dist", "2",
                    "--report", str(tmp_path / "r.csv")]
        assert run(argv + ["--threads", threads]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "threads" in err

    @pytest.mark.parametrize("test_dir", [False, True])
    def test_mixed_gray_levels_rejected(self, tmp_path, capsys, test_dir):
        train = tmp_path / "train"
        for cls in ("a", "b"):
            (train / cls).mkdir(parents=True)
            for i in range(2):
                levels = 16 if (cls, i) == ("b", 1) and not test_dir else 256
                write_pgm(train / cls / f"t{i}.pgm", noise_image(16, 16, i, levels))
        argv = ["classify", "--train", str(train), "--dist", "1",
                "--report", str(tmp_path / "r.csv")]
        if test_dir:
            (tmp_path / "test" / "a").mkdir(parents=True)
            write_pgm(tmp_path / "test" / "a" / "t9.pgm", noise_image(16, 16, 9, 16))
            argv += ["--test", str(tmp_path / "test")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert ("a/t9" if test_dir else "b/t1") in err and "16" in err and "256" in err
        # Quantizing every tile to 16 levels makes the corpus consistent.
        assert run(argv + ["--levels", "16"]) == 0

    @pytest.mark.parametrize("test_dir", [False, True])
    @pytest.mark.parametrize("command", ["classify", "compare"])
    def test_levels_too_high_for_a_tile_name_the_flag(self, command, test_dir, tmp_path,
                                                      capsys):
        # --levels 16 quantizes a 256-level tile to 16 levels but leaves an
        # 8-level one at 8, so the tiles still differ and the error says how to
        # make them alike.
        train = tmp_path / "train"
        for cls in ("a", "b"):
            (train / cls).mkdir(parents=True)
            for i in range(2):
                levels = 8 if (cls, i) == ("b", 1) and not test_dir else 256
                write_pgm(train / cls / f"t{i}.pgm", noise_image(16, 16, i, levels))
        argv = [command, "--train", str(train), "--dist", "1", "--levels", "16",
                "--report", str(tmp_path / "r.csv")]
        if test_dir:
            (tmp_path / "test" / "a").mkdir(parents=True)
            write_pgm(tmp_path / "test" / "a" / "t9.pgm", noise_image(16, 16, 9, 8))
            argv += ["--test", str(tmp_path / "test")]
        assert run(argv) == 1
        tile = "a/t9" if test_dir else "b/t1"
        assert capsys.readouterr().err == (
            f"error: tile {tile} has 8 gray levels but a/t0 has 16"
            "; use --levels to quantize every tile alike\n")
        assert not (tmp_path / "r.csv").exists()
        # At 8 levels every tile is alike.
        assert run(argv + ["--levels", "8"]) == 0

    @pytest.mark.parametrize("test_dir", [False, True])
    def test_mixed_tile_shapes_rejected(self, tmp_path, capsys, test_dir):
        train = tmp_path / "train"
        for cls in ("a", "b"):
            (train / cls).mkdir(parents=True)
            for i in range(2):
                side = 24 if (cls, i) == ("b", 1) and not test_dir else 16
                write_pgm(train / cls / f"t{i}.pgm", noise_image(side, 16, i, 16))
        argv = ["classify", "--train", str(train), "--dist", "1",
                "--report", str(tmp_path / "r.csv")]
        if test_dir:
            (tmp_path / "test" / "a").mkdir(parents=True)
            write_pgm(tmp_path / "test" / "a" / "t9.pgm", noise_image(16, 24, 9, 16))
            argv += ["--test", str(tmp_path / "test")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert (("a/t9 is 16x24" if test_dir else "b/t1 is 24x16") in err
                and "a/t0 is 16x16" in err)
        assert not (tmp_path / "r.csv").exists()


class TestDeterminism:
    def test_identical_invocations_identical_outputs(self, corpus, tmp_path):
        texts = []
        for k in ("a", "b"):
            report = tmp_path / f"rep_{k}.csv"
            rc = run(["classify", "--train", str(corpus), "--dist", "2",
                      "--levels", "16", "--seed", "7", "--threads", "3",
                      "--report", str(report)])
            assert rc == 0
            texts.append(report.read_bytes())
        assert texts[0] == texts[1]
