"""End-to-end tests of the command-line interface."""

import os

import numpy as np
import pytest

from conftest import noise_image, stripe_image
from texent import GrayImage, SpacingVector, compute_glcm, read_pgm, write_pgm
from texent.cli import build_parser, run


@pytest.fixture
def const_image(tmp_path):
    path = tmp_path / "const.pgm"
    write_pgm(path, GrayImage(np.full((64, 64), 9, dtype=np.int64), levels=256))
    return path


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

    def test_threads_default_counts_usable_cpus(self, monkeypatch):
        argv = ["fbim", "in.pgm", "--out", "map.pgm"]
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 7}, raising=False)
        assert build_parser().parse_args(argv).threads == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert build_parser().parse_args(argv).threads == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert build_parser().parse_args(argv).threads == 1

    def test_domain_error_names_problem(self, const_image, capsys):
        rc = run(["entropy", str(const_image), "--drange", "5:1"])
        assert rc == 1
        assert "--drange" in capsys.readouterr().err


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

    def test_dmax_too_large(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_pgm(src, noise_image(16, 16, seed=5))
        assert run(["fbim", str(src), "--dmax", "31",
                    "--out", str(tmp_path / "m.pgm")]) == 1


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

    @pytest.mark.parametrize("alpha, message", [
        ("inf", "error: alpha must be finite, > 0 and != 1, got inf"),
        # Finite, but every Renyi sum underflows and the feature is infinite.
        ("1e308", "error: tile noise/t0 has a non-finite feature value"),
    ])
    def test_non_finite_renyi_is_one_line_error(self, alpha, message, corpus, tmp_path,
                                                capsys):
        rc = run(["classify", "--train", str(corpus), "--measure", "renyi",
                  "--alpha", alpha, "--dist", "1", "--threads", "2",
                  "--report", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"

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
