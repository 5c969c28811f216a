"""Tests of the benchmark itself: the generator, the reference check and tracing.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests``.
The workloads are shrunk here so the tests take seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import client  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import texent.cli  # noqa: E402
import texent.fbim  # noqa: E402


class SmallFbim(workloads.FbimDense):
    IMAGES, SIZE, D_MAX = 4, 24, 5


class SmallClassify(workloads.ClassifyCoarse):
    CLASSES, TILES, SIZE = 3, 6, 16
    DISTANCES = range(1, 3)
    TRIALS = 3


SMALL = (SmallFbim, SmallClassify)


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def outputs(workload, run_cli=texent.cli.run) -> list[tuple[dict, dict, str]]:
    """(op, output bytes, stdout) of each of the workload's calls, made in-process."""
    results = []
    for op in workload.prepare():
        _, _, stdout, stderr = client.call(run_cli, op)
        assert not stderr, stderr
        files = {name: Path(path).read_bytes() for name, path in op["outputs"].items()}
        results.append((op, files, stdout))
    return results


NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def perturbed(data: bytes) -> bytes:
    """The last number moved by about 1 %; for a binary map, the last pixel by 5."""
    if data.startswith(b"P5"):
        return data[:-1] + bytes([(data[-1] + 5) % 256])
    last = list(NUMBER.finditer(data))[-1]
    value = float(last.group()) * 1.01 + 0.01
    return data[:last.start()] + repr(value).encode() + data[last.end():]


def test_generator_is_deterministic_per_seed(tmp_path):
    for n, seed in enumerate((7, 7, 8)):
        corpus.write_corpus(tmp_path / f"c{n}", 4, 3, 16, seed, p2_every=2)
        corpus.write_images(tmp_path / f"i{n}", 4, 16, seed)
    for kind in ("c", "i"):
        same, other = tree_bytes(tmp_path / f"{kind}0"), tree_bytes(tmp_path / f"{kind}1")
        assert same == other
        differs = tree_bytes(tmp_path / f"{kind}2")
        assert differs.keys() == same.keys() and differs != same


def test_corpus_mixes_p2_and_p5(tmp_path):
    paths = corpus.write_corpus(tmp_path, 2, 4, 8, 1, p2_every=2)
    magics = [p.read_bytes()[:2] for p in paths]
    assert magics.count(b"P2") == magics.count(b"P5") == 4


@pytest.mark.parametrize("kind", SMALL, ids=lambda k: k.__mro__[1].name)
def test_reference_accepts_program_and_flags_perturbation(tmp_path, kind):
    workload = kind(tmp_path, 3, 2)
    for op, files, stdout in outputs(workload):
        assert workload.check(op, files, stdout) == []
        for name, data in files.items():
            assert workload.check(op, {**files, name: perturbed(data)}, stdout), name
        if stdout:
            assert workload.check(op, files, perturbed(stdout.encode()).decode())


def test_traced_outputs_equal_untraced(tmp_path):
    for kind in SMALL:
        plain = outputs(kind(tmp_path / "plain" / kind.__name__, 5, 2))
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = outputs(kind(tmp_path / "traced" / kind.__name__, 5, 2),
                             tracer.wrap("cli.run", texent.cli.run))
        finally:
            tracer.uninstall()
        assert [(f, s) for _, f, s in plain] == [(f, s) for _, f, s in traced]
        assert tracer.missing == []
        names = {s[3] for s in tracer.spans}
        assert {"cli.run", "dataset.read_pgm", "glcm.compute_glcm", "glcm.glcp",
                "measures.apply_measure"} <= names
    assert texent.fbim.compute_glcm is texent.glcm.compute_glcm
    assert not hasattr(texent.fbim.compute_fbim, "__wrapped__")


def test_client_pairs_every_call_with_one_reference_time(tmp_path):
    workload = SmallFbim(tmp_path, 4, 2)
    ops = workload.prepare()
    seen = []
    result = run.run_client(tmp_path, "t", ops, 0.5, False, False, seen.append)
    assert len(result["calls"]) == len(result["reference_ns"]) == len(seen) >= 1
    assert [op["key"] for op in seen] == [ops[c[0]]["key"] for c in result["calls"]]
    assert all(run.check_calls(workload, ops, result))


def test_summary_self_time_and_parallel_efficiency():
    # Pool owner 1 spans 0..100 on two threads; children 10..60 and 20..90.
    summary = spans.summarize([
        (1, None, 1, "owner", 0, 100, {"threads": 2}),
        (2, 1, 2, "child", 10, 60, {}),
        (3, 1, 3, "child", 20, 90, {}),
    ])
    assert summary["owner"]["self_s"] == pytest.approx(20e-9)
    assert summary["owner"]["child_busy_s"] / summary["owner"]["thread_s"] == pytest.approx(0.6)
    assert summary["child"]["calls"] == 2


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fbim-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
