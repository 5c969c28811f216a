"""The benchmark's workloads: seeded inputs, the CLI calls made on them, and
the reference check of every output those calls write.

Each workload is one closed-loop client: a list of CLI calls that the client
repeats in order, starting each call when the previous one has returned.
``reference(op)`` recomputes a call's results with the oracle; it is timed
beside each call as the yardstick of the machine's current speed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import corpus
import oracle


def _labeled_tiles(root: Path):
    """(label, tile, pixels, levels) in the order a sorted directory walk gives."""
    out = []
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for f in sorted(class_dir.glob("*.pgm")):
            pixels, levels = oracle.read_pgm(f.read_bytes())
            out.append((class_dir.name, f.stem, pixels, levels))
    return out


class Workload:
    """Base: subclasses write the inputs, list the calls and check the outputs."""

    name = ""
    why = ""

    def __init__(self, work: Path, seed: int, threads: int):
        self.work, self.seed, self.threads = work, seed, threads
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self._expected = {}

    def op(self, key: str, tiles: int, argv: list[str], **outputs: Path) -> dict:
        """One CLI call; each output is passed as ``--<name> PATH``."""
        for name, path in outputs.items():
            argv = argv + [f"--{name.replace('_', '-')}", str(path)]
        return {"key": key, "tiles": tiles, "argv": argv,
                "outputs": {name: str(path) for name, path in outputs.items()}}

    def reference(self, op: dict):
        """The oracle's results for the inputs of ``op``, computed afresh."""
        raise NotImplementedError

    def check(self, op: dict, files: dict[str, bytes], stdout: str) -> list[str]:
        raise NotImplementedError

    def expected(self, op: dict):
        """:meth:`reference`, computed once per call key."""
        if op["key"] not in self._expected:
            self._expected[op["key"]] = self.reference(op)
        return self._expected[op["key"]]


class FbimDense(Workload):
    name = "fbim-dense"
    why = ("dense L^2 GLCM and measure work per spacing vector, through the fbim "
           "cell thread pool; half the maps use correlation instead of a measure")
    IMAGES = 16
    SIZE = 128
    D_MAX = 31
    FEATURES = ("proposed", "correlation")

    def prepare(self) -> list[dict]:
        self.images = corpus.write_images(self.work / "images", self.IMAGES, self.SIZE, self.seed)
        return [
            dict(self.op(f"{path.stem}.{feature}", 1,
                         ["fbim", str(path), "--feature", feature, "--dmax", str(self.D_MAX),
                          "--threads", str(self.threads)],
                         out=self.out / f"{path.stem}.{feature}.pgm",
                         csv=self.out / f"{path.stem}.{feature}.csv"),
                 image=str(path), feature=feature)
            for path in self.images for feature in self.FEATURES
        ]

    def reference(self, op):
        pixels, levels = oracle.read_pgm(Path(op["image"]).read_bytes())
        return oracle.polar_map(pixels, levels, self.D_MAX, op["feature"])

    def check(self, op, files, stdout):
        want = self.expected(op)
        problems = oracle.check_map_csv(files["csv"].decode("ascii"), want)
        problems += oracle.check_map_pgm(files["out"], want)
        if stdout:
            problems.append(f"unexpected stdout {stdout[:60]!r}")
        return problems


class ClassifyCoarse(Workload):
    name = "classify-coarse"
    why = ("16 gray levels make GLCMs tiny, so per-call overhead, ASCII P2 decoding "
           "and the 1-NN evaluate loop dominate; single-threaded")
    CLASSES, TILES, SIZE = 8, 96, 32
    P2_EVERY = 2
    LEVELS = 16
    DISTANCES = range(1, 9)
    TRIALS = 40
    SEED = 42

    def __init__(self, work: Path, seed: int, threads: int):
        # Single-threaded on purpose: two threads did not speed this call up.
        super().__init__(work, seed, 1)

    def prepare(self) -> list[dict]:
        root = self.work / "corpus"
        corpus.write_corpus(root, self.CLASSES, self.TILES, self.SIZE, self.seed, self.P2_EVERY)
        d = self.DISTANCES
        return [self.op("classify", self.CLASSES * self.TILES,
                        ["classify", "--train", str(root), "--drange", f"{d.start}:{d.stop - 1}",
                         "--levels", str(self.LEVELS), "--trials", str(self.TRIALS),
                         "--classifier", "1nn", "--seed", str(self.SEED),
                         "--threads", str(self.threads)],
                        report=self.out / "report.csv",
                        features_out=self.out / "features.csv")]

    def reference(self, op):
        """(feature table rows, (validation, cross) report) recomputed by the oracle."""
        tiles = _labeled_tiles(self.work / "corpus")
        table = []
        for label, tile, pixels, levels in tiles:
            if self.LEVELS < levels:
                pixels, levels = pixels * self.LEVELS // levels, self.LEVELS
            table.append((label, tile, oracle.tile_features(pixels, levels, self.DISTANCES)))
        features = np.array([row[2] for row in table])
        labels = [row[0] for row in table]
        return table, oracle.cross_validated(features, labels, self.SEED, self.TRIALS)

    def check(self, op, files, stdout):
        table, (v, cv) = self.expected(op)
        problems = oracle.check_report(files["report"].decode("ascii"), v, cv)
        problems += oracle.check_feature_csv(files["features_out"].decode("ascii"), table)
        return problems + oracle.check_averages(stdout, v[1], cv[1])


WORKLOADS = {w.name: w for w in (FbimDense, ClassifyCoarse)}
