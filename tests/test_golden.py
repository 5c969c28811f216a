"""Golden-output gate: every CLI output byte, pinned by SHA-256.

The inputs are closed-form integer tiles written as raw P5 bytes, with no
random number generator and no package code involved, so neither a change to
numpy's streams nor one to the package's own PGM writer can move them.  Each
case runs ``texent.cli.run`` and hashes its stdout together with every file
it writes.  Cases that take ``--threads`` run with 1 and with 2, which must
give the same bytes; the flag is checked but every job runs on one thread.
The 37 calls cover ``entropy`` (also on a hand-written ASCII P2 image),
``glcm``, ``fbim`` for five features, and ``classify``/``compare`` in split,
``--trials``, ``--test`` and centroid modes.  ``compare-binned`` runs at 8
gray levels, where every distance of every measure is counted from stacked
tiles without ``--symmetric``.  ``fbim-binned``, ``fbim-binned-symmetric``
and ``glcm-binned`` run at 16 or 8 gray levels, where every one of their
:func:`texent.glcm.compute_glcm` calls bins its pair codes, so a binned
per-cell GLCM reaches a measure and the matrix printer.  Twelve more calls
pin the usage, help and usage-error text with the exit status: no command,
``--help``, each command's ``--help``, an unknown command, a missing
required flag, a flag of the wrong type and an unknown flag.  Help is wrapped
to the terminal width, so those calls run with ``COLUMNS=80``.

The digests were recorded with Python 3.11 and numpy 2.4.6, whose SIMD
kernels dispatched to X86_V3, X86_V4, AVX512_ICL and AVX512_SPR (AVX-512).
Under another dispatch numpy's ``exp``, ``log``, ``expm1`` and ``power`` may
round differently: with the AVX-512 targets disabled, ``entropy-drange``
prints a last digit one higher and fails here.  A failing case names the
running numpy version and dispatch.  A change that moves an output byte on
purpose updates the digest here and says why.

Moved on purpose since: the feature CSVs of ``fbim-proposed``,
``fbim-correlation`` and every ``classify``/``compare`` case with
``--features-out`` (8 cases), when the entropy measures began to sum over the
histogram of nonzero co-occurrence counts (with ``math.fsum``) and correlation
to use exact integer moments.  Some values changed in their 15th significant
digit (largest change 1.1e-14, on a Shannon value near 5; at most 1.1e-15
elsewhere); no report, accuracy or stdout byte changed.
"""

import hashlib

import numpy as np
import pytest

from texent.cli import run

TRAIN_TILES = range(6)
TEST_TILES = range(6, 10)
CLASSES = range(3)


def _tile(k, t, size=16):
    i = np.arange(size)[:, None]
    j = np.arange(size)[None, :]
    return ((i * (3 + k) + j * (5 + 2 * t) + (i * j) % (7 + k)) * (k + 1)) % 256


def _write_p5(path, pixels):
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii")
                     + pixels.astype(np.uint8).tobytes())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for corpus, tiles in (("train", TRAIN_TILES), ("test", TEST_TILES)):
        for k in CLASSES:
            (root / corpus / f"c{k}").mkdir(parents=True)
            for t in tiles:
                _write_p5(root / corpus / f"c{k}" / f"t{t}.pgm", _tile(k, t))
    _write_p5(root / "image.pgm", _tile(1, 2, size=24))
    (root / "ascii.pgm").write_bytes(ASCII_PGM)
    return root


# A hand-written P2 image: comments in the header and among the values, one
# glued to a value, CR-only line ends, and bytes after the last value.
ASCII_PGM = (b"P2\n# hand-written 6x6 tile\n6 6 # width height\n15\n"
             b"0 1 2 3 4 5\n"
             b"15 14 13#glued\n12 11 10\r"
             b"# a whole-line comment among the values\n"
             b"3 3 7 7 3 3\r\n"
             b"9 0 9 0 9 0 # trailing note\n"
             b"1 2 4 8 4 2\n"
             b"5 10 15 10 5 0\n"
             b"# after the raster\nnot part of the image 99\n")


# name -> (argv with {image}/{ascii}/{train}/{test} placeholders, output flags, takes --threads)
CASES = {
    "entropy-drange": (["entropy", "{image}", "--drange", "1:4"], (), False),
    "entropy-renyi": (["entropy", "{image}", "--measure", "renyi", "--alpha", "3",
                       "--dist", "2"], (), False),
    "entropy-ascii": (["entropy", "{ascii}", "--drange", "1:3", "--levels", "16"],
                      (), False),
    "entropy-normalized": (["entropy", "{image}", "--measure", "proposed-normalized",
                            "--levels", "16", "--symmetric", "--dist", "1"], (), False),
    "glcm-stdout": (["glcm", "{image}", "--dist", "2", "--angle", "45",
                     "--levels", "16"], (), False),
    "glcm-file": (["glcm", "{image}", "--dist", "3", "--angle", "270",
                   "--symmetric"], ("--out",), False),
    "glcm-binned": (["glcm", "{image}", "--dist", "1", "--angle", "135", "--levels", "8",
                     "--symmetric"], (), False),
    "fbim-proposed": (["fbim", "{image}", "--dmax", "6"], ("--out", "--csv"), True),
    "fbim-correlation": (["fbim", "{image}", "--feature", "correlation", "--dmax", "6"],
                         ("--out", "--csv"), True),
    "fbim-tsallis": (["fbim", "{image}", "--feature", "tsallis", "--q", "3",
                      "--dmax", "6", "--symmetric"], ("--out", "--csv"), True),
    "fbim-binned": (["fbim", "{image}", "--levels", "16", "--feature", "shannon",
                     "--dmax", "6"], ("--out", "--csv"), True),
    "fbim-binned-symmetric": (["fbim", "{image}", "--levels", "8", "--feature", "renyi",
                               "--alpha", "0.5", "--dmax", "6", "--symmetric"],
                              ("--out", "--csv"), True),
    "classify-split": (["classify", "--train", "{train}", "--drange", "1:3",
                        "--seed", "7"], ("--report", "--features-out"), True),
    "classify-trials": (["classify", "--train", "{train}", "--drange", "1:3",
                         "--trials", "3", "--measure", "shannon"],
                        ("--report", "--features-out"), True),
    "classify-centroid-trials": (["classify", "--train", "{train}", "--classifier",
                                  "centroid", "--drange", "1:3", "--trials", "3"],
                                 ("--report", "--features-out"), True),
    "classify-test": (["classify", "--train", "{train}", "--test", "{test}",
                       "--dist", "2"], ("--report", "--features-out"), True),
    "classify-centroid": (["classify", "--train", "{train}", "--classifier", "centroid",
                           "--levels", "16", "--dist", "1", "--symmetric"],
                          ("--report", "--features-out"), True),
    "compare-split": (["compare", "--train", "{train}", "--drange", "1:3",
                       "--seed", "7"], ("--report", "--features-out"), True),
    "compare-trials": (["compare", "--train", "{train}", "--drange", "1:3",
                        "--trials", "3", "--alpha", "3", "--q", "0.5"],
                       ("--report", "--features-out"), True),
    "compare-test": (["compare", "--train", "{train}", "--test", "{test}",
                      "--dist", "2"], ("--report",), True),
    "compare-centroid": (["compare", "--train", "{train}", "--classifier", "centroid",
                          "--levels", "16", "--dist", "1", "--symmetric"],
                         ("--report", "--features-out"), True),
    "compare-binned": (["compare", "--train", "{train}", "--levels", "8", "--drange", "1:3"],
                       ("--report", "--features-out"), True),
}

GOLDEN = {
    "classify-centroid": "487866f35c87a62ed0cc203e009dd0660d2ed29a941313c1b598b9e863ead651",
    "classify-centroid-trials":
        "fef84a45642534d20dca5472714c225a5e7051ae53fd07c2cc9014722312fd51",
    "classify-split": "03a5a617cee86e080bf10cee83b37440a7e2e6856a8b90eb4bfe9eda1f66a861",
    "classify-test": "73751834b18a31acfa1f6041ee17c12b8d72bd5250ff12640a924336a15ed2a4",
    "classify-trials": "573eb78880158a7f2de4f19b95b7d892dbb37ccbcf944de863f8ea0245514718",
    "compare-binned": "f00d87e3a75cafa883d602ad5e85efe2f633f632e8b3ffc54b892558f9fd19ad",
    "compare-centroid": "42c087d85f384774e305b3b694707e1c81ec69ff75d6cda82e1788121aa87187",
    "compare-split": "cb611b796b029618a57993493c1960230a647fd6536c18c2f75d12fc09a675e1",
    "compare-test": "7ea46c0cd2f77d3a6b770fbe4b74fdd6a84ffbe7fa83e9be8f338b4208022413",
    "compare-trials": "74e2bcf7f69f13f067ea49f13830cbfa84f611fd022e142f60173b7ef71c72cc",
    "entropy-ascii": "f68c030d90d5a20d893fecf4c05d311109c7c9a7bc90aea3a9fd323841aa1ffa",
    "entropy-drange": "59b2e646d6e64f3be7aa64d4e2dda5fb6c9f64bb447a52a49f4bc670e2efd35e",
    "entropy-normalized": "b9c855fd61e10a7dc3251adf9383406ea1efb32303be9006ebcb650746aa7c29",
    "entropy-renyi": "03129c1ef45402a1864093bf042dcf571874279905677919da9e0837d006b597",
    "fbim-binned": "804c5848a1e126670c02985a00cfefcd887637dbe6b8a5e46f0831b05870045e",
    "fbim-binned-symmetric":
        "8ea9f590dacb26c399b61cfee8a716d6e82bfb9612f823591c8bbea0f2a6a0d2",
    "fbim-correlation": "e174efc8c8a094bd03e53b66db6f5807965bce381da365b8e1a6c2b73771c365",
    "fbim-proposed": "140f42cc2e35921fa3fbc70fecc85f6fe1c6e55fc4c230705048fdf21f454710",
    "fbim-tsallis": "534a64d24e80cab301933eb9ab6bbc88d55d2b1a2e7ddd56c5a3017126d52631",
    "glcm-binned": "d105cd98b1758e82b3fdc30b8b34c937b4213d897067172a2268b6e95a4f2a7d",
    "glcm-file": "9cfab3b52f25da84a360213ec4ee2fecdc90db93a0ee3a96fd57973202f3b075",
    "glcm-stdout": "e6d5978e48218de45412edc51def678637046a2f896063cc6a08ac9d8ec2ab62",
}


def _digest(inputs, out_dir, name, threads, capsys):
    argv, outputs, _ = CASES[name]
    argv = [a.format(image=inputs / "image.pgm", ascii=inputs / "ascii.pgm",
                     train=inputs / "train", test=inputs / "test") for a in argv]
    out_dir.mkdir()
    paths = [out_dir / f"out{n}" for n in range(len(outputs))]
    for flag, path in zip(outputs, paths):
        argv += [flag, str(path)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    capsys.readouterr()
    assert run(argv) == 0
    h = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
    for path in paths:
        h.update(b"\0" + path.read_bytes())
    return h.hexdigest()


def _numpy_scope():
    """The running numpy version and the SIMD targets its kernels dispatch to."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    found = getattr(umath, "__cpu_features__", {})
    targets = [t for t in getattr(umath, "__cpu_dispatch__", ()) if found.get(t, True)]
    return f"numpy {np.__version__}, dispatch {' '.join(targets) or 'unknown'}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(inputs, tmp_path, capsys, name):
    if CASES[name][2]:
        one, two = (_digest(inputs, tmp_path / f"t{n}", name, n, capsys) for n in (1, 2))
        assert one == two, "--threads 1 and --threads 2 wrote different bytes"
    else:
        one = _digest(inputs, tmp_path / "out", name, None, capsys)
    assert one == GOLDEN[name], (
        f"digest differs under {_numpy_scope()}; recorded under numpy 2.4.6, "
        "dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


COMMANDS = ("tile", "glcm", "entropy", "fbim", "classify", "compare")

# name -> argv of a call that ends in usage, help or a usage error ({image}, {tmp})
USAGE_CASES = {
    "usage-none": [],
    "usage-help": ["--help"],
    **{f"usage-{command}-help": [command, "--help"] for command in COMMANDS},
    "usage-bogus": ["bogus"],
    "usage-fbim-no-out": ["fbim", "{image}"],
    "usage-fbim-threads-x": ["fbim", "{image}", "--out", "{tmp}/o.pgm", "--threads", "x"],
    "usage-classify-bogus": ["classify", "--bogus"],
}

USAGE_GOLDEN = {
    "usage-bogus": "5b65ec8e149f8ec50dc15f6564a4d8b6cfa42bf055587cd69a4921850a340e1d",
    "usage-classify-bogus": "a07b81340b66c7566788d568875ce6e646f785c331d773da2f7e771d39149f66",
    "usage-classify-help": "ef52d6bf912333ba72f17596a60e8d66d15af6d1a0c35cba425e291ec7087f48",
    "usage-compare-help": "612df38a1f6e8ab9d3c731f92c39b71b614df5dea0abc233f911a0e0754ffee1",
    "usage-entropy-help": "c5f6d4d0c3094ae0cc09617b8ca921d80fa5ce064473d0377cadb3c9e28c4afa",
    "usage-fbim-help": "d60b9ed1a38e05bb3addc22f212afac1f93a5348587ca98e7eecf3e672f03f87",
    "usage-fbim-no-out": "7f1e7b74b899422ea37209d572d8cc6fb38778dfc08021ab3c65b77c222289d2",
    "usage-fbim-threads-x": "0978572e0e31c1621714fb1b528672abcbf184e3018324f0e29ebe9ad2862a17",
    "usage-glcm-help": "00f323f1add6ffc211c7baa22d52da600f5b4b289287b8eab90bb4e84765323a",
    "usage-help": "cdceb247fea887b27c3dc8bc044f38bb03c202e4993a20ba344599c0993e3498",
    "usage-none": "b965d6cbdd331824bd24e0d18a73c5f587b6258d1996847eec9789a046047abb",
    "usage-tile-help": "22885dcf45351874767032cf3f7babfe263f426039de571cd085b711b2a483f7",
}


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_usage_output(inputs, tmp_path, capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal width
    argv = [a.format(image=inputs / "image.pgm", tmp=tmp_path) for a in USAGE_CASES[name]]
    capsys.readouterr()
    status = run(argv)
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{status}\0{out}\0{err}".encode("utf-8")).hexdigest()
    assert digest == USAGE_GOLDEN[name]
