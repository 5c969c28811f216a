"""texent benchmark: closed-loop CLI workloads on a seeded synthetic corpus.

Usage, from the repository root:

    python3 perfbench/run.py --workload fbim-dense --seed 1 --seconds 50 --trace 0

The run writes the workload's inputs from ``--seed``.  With ``--trace 0`` it
times cold interpreter launches (``setup_s``), then runs the workload's CLI
calls in a fresh child process for ``--seconds`` seconds, one call after
another, and after each call times the oracle computing the same results
(``speed_vs_ref``).  Every output is checked against that independent
reference.  With ``--trace 1`` the time is split between an
untraced and a traced child, both running whole passes over the calls, and
the per-layer metrics come from the traced one, per pass.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Cold interpreter launches timed per run; setup_s is their median.
LAUNCHES = 9
#: Longest a client process may take beyond its measuring time.
CLIENT_GRACE_S = 90

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "speed_vs_ref": "ratio",
}

PER_LAYER = {
    "glcm.compute_glcm.calls": "count",
    "glcm.compute_glcm.busy_s": "s",
    "glcm.compute_glcm.pairs": "count",
    "glcm.compute_glcm.cells": "count",
    "glcm.compute_glcm.nonzero_ratio": "ratio",
    "glcm.compute_glcm.distinct_counts": "count",
    "glcm.compute_glcm.bytes_computed": "B",
    "glcm.glcp.busy_s": "s",
    "measures.apply_measure.calls": "count",
    "measures.apply_measure.busy_s": "s",
    "measures.apply_measure.cells": "count",
    "measures.apply_measure.ns_per_cell": "ns",
    "glcm.correlation.calls": "count",
    "glcm.correlation.busy_s": "s",
    "glcm.correlation.nan_cells": "count",
    "fbim.compute_fbim.busy_s": "s",
    "fbim.compute_fbim.self_s": "s",
    "fbim.compute_fbim.parallel_eff": "ratio",
    "fbim.encode.busy_s": "s",
    "dataset.read_pgm.calls": "count",
    "dataset.read_pgm.bytes": "B",
    "dataset.read_pgm.busy_s": "s",
    "glcm.GrayImage.quantize.busy_s": "s",
    "dataset.build_feature_sets.busy_s": "s",
    "dataset.build_feature_sets.self_s": "s",
    "dataset.build_feature_sets.parallel_eff": "ratio",
    "classifier.train.busy_s": "s",
    "classifier.evaluate.calls": "count",
    "classifier.evaluate.records": "count",
    "classifier.evaluate.busy_s": "s",
    "classifier.cross_validate.busy_s": "s",
    "cli.run.busy_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead": "ratio",
}


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    env = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": None,
        "src_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py")))).hexdigest(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            env["commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch_seconds() -> float:
    """Wall seconds of one cold interpreter launch that imports texent.cli."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import texent.cli"], env=child_env(), cwd=ROOT)
    # A blocking wait; Popen.wait(timeout) polls in steps of up to 50 ms, which
    # would quantize the measurement.  The timer only guards against a hang.
    guard = threading.Timer(60, proc.kill)
    guard.start()
    try:
        status = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - t0
    if status != 0:
        raise subprocess.CalledProcessError(status, proc.args)
    return elapsed


def setup_seconds() -> list[float]:
    """One untimed launch to fill the bytecode and file caches, then LAUNCHES timed ones."""
    launch_seconds()
    return [launch_seconds() for _ in range(LAUNCHES)]


def run_client(work: Path, tag: str, ops, seconds: float, trace: bool, whole_passes: bool,
               reference=None) -> dict:
    """Run one client process to its end.

    With ``reference``, each of the client's calls is followed, while the client
    waits, by a timed ``reference(op)`` on the same inputs; the times are
    returned as ``reference_ns``, one per call.
    """
    job = {
        "src": str(SRC), "ops": ops, "seconds": seconds, "trace": trace,
        "whole_passes": whole_passes, "kept": str(work / f"kept-{tag}"),
        "result": str(work / f"result-{tag}.json"),
    }
    job_path = work / f"job-{tag}.json"
    job_path.write_text(json.dumps(job))
    reference_ns = []
    with subprocess.Popen([sys.executable, str(HERE / "client.py"), str(job_path)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                          env=child_env(), cwd=ROOT) as proc:
        guard = threading.Timer(seconds + CLIENT_GRACE_S, proc.kill)
        guard.start()
        try:
            for line in proc.stdout:
                if not line.startswith("done "):
                    continue
                if reference is not None:
                    t0 = time.perf_counter_ns()
                    reference(ops[int(line.split()[1])])
                    reference_ns.append(time.perf_counter_ns() - t0)
                try:
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    break
            status = proc.wait()
        finally:
            guard.cancel()
            if proc.poll() is None:
                proc.kill()
    if status != 0:
        raise subprocess.CalledProcessError(status, proc.args)
    result = json.loads(Path(job["result"]).read_text())
    result["reference_ns"] = reference_ns
    return result


def check_calls(workload, ops, result) -> list[bool]:
    """Per call: passed (exit 0 and output matching the reference)."""
    verdicts = []
    for v in result["variants"]:
        op = ops[v["op"]]
        problems = [] if v["status"] == 0 else [f"exit status {v['status']}: {v['stderr'][-300:]}"]
        if not problems:
            missing = [name for name in op["outputs"] if name not in v["files"]]
            problems = [f"missing output {name}" for name in missing]
        if not problems:
            files = {name: Path(path).read_bytes() for name, path in v["files"].items()}
            try:
                problems = workload.check(op, files, v["stdout"])
            except (ValueError, IndexError, KeyError) as exc:  # malformed output
                problems = [f"unreadable output of {op['key']}: {exc!r}"]
        v["problems"] = problems
        verdicts.append(not problems)
    return [verdicts[c[2]] for c in result["calls"]]


def tail(values: list[float]) -> tuple[str, float, int]:
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples above it."""
    label, value, beyond = "p50", statistics.median(values), len(values) // 2
    for q in (90, 95, 99, 99.9):
        above = int(len(values) * (1 - q / 100))
        if above < 10:
            break
        label, value, beyond = f"p{q:g}", float(np.percentile(values, q)), above
    return label, value, beyond


def tiles_per_s(ops, result) -> float:
    """Median over calls of tiles in the call per second of the call.

    The median rather than the mean, so one call slowed by another tenant of
    the machine does not move the figure.
    """
    return statistics.median(ops[k]["tiles"] / (ns / 1e9) for k, ns, _ in result["calls"])


def end_to_end(ops, result, setup: list[float]) -> tuple[dict, list[str]]:
    ms = [c[1] / 1e6 for c in result["calls"]]
    tiles = sum(ops[c[0]]["tiles"] for c in result["calls"])
    ref_ms = [ns / 1e6 for ns in result["reference_ns"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "speed_vs_ref": statistics.median(r / t for r, t in zip(ref_ms, ms)),
    }
    rate = tiles_per_s(ops, result)
    notes = [f"setup_s is the median of {len(setup)} launches "
             f"(min {min(setup):.4f} s, max {max(setup):.4f} s)",
             f"{len(ms)} calls, {tiles} tiles, {sum(ms) / 1e3:.3f} s inside texent.cli.run; "
             f"call_ms min {min(ms):.1f}, p50 {statistics.median(ms):.1f}, max {max(ms):.1f}; "
             f"reference ms p50 {statistics.median(ref_ms):.1f}",
             f"tiles_per_s = {rate:.6g} 1/s at the median call "
             f"({tiles / (sum(ms) / 1e3):.6g} on average)"]
    if all(op["tiles"] == 1 for op in ops):
        label, value, beyond = tail(ms)
        notes.append(f"maps_per_s = {rate:.6g} 1/s, map_ms.p50 = "
                     f"{statistics.median(ms):.6g} ms, map_ms.tail = {label} {value:.6g} ms "
                     f"({len(ms)} maps, {beyond} beyond it)")
    return metrics, notes


def per_layer(summary: dict, passes: float, overhead: float) -> dict:
    """Per-layer values per pass over the workload's calls; ratios as measured."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for metric in PER_LAYER:
        name, key = metric.rsplit(".", 1)
        if key in ("calls", "busy_s", "self_s", "pairs", "cells", "bytes_computed",
                   "bytes", "records"):
            metrics[metric] = get(name, key) / passes
    metrics["glcm.compute_glcm.nonzero_ratio"] = ratio(get("glcm.compute_glcm", "nonzero"),
                                                        get("glcm.compute_glcm", "cells"))
    metrics["glcm.compute_glcm.distinct_counts"] = ratio(get("glcm.compute_glcm", "distinct_counts"),
                                                          get("glcm.compute_glcm", "calls"))
    metrics["measures.apply_measure.ns_per_cell"] = ratio(
        get("measures.apply_measure", "busy_s") * 1e9, get("measures.apply_measure", "cells"))
    metrics["glcm.correlation.nan_cells"] = (
        summary.get("glcm.correlation", {}).get("errors", {}).get("DegenerateVarianceError", 0) / passes)
    metrics["fbim.encode.busy_s"] = (get("fbim.fbim_to_image", "busy_s")
                                     + get("fbim.fbim_to_csv", "busy_s")) / passes
    for owner in ("fbim.compute_fbim", "dataset.build_feature_sets"):
        metrics[f"{owner}.parallel_eff"] = ratio(get(owner, "child_busy_s"), get(owner, "thread_s"))
    metrics["trace.overhead"] = overhead
    return {m: metrics[m] for m in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "texent" / "cli.py").is_file():
        print(f"error: {SRC / 'texent'} not found; run from a texent checkout", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    env = environment()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, threads)
        ops = workload.prepare()
        if args.trace:
            runs = {"untraced": run_client(work, "untraced", ops, args.seconds / 2, False, True),
                    "traced": run_client(work, "traced", ops, args.seconds / 2, True, True)}
        else:
            setup = setup_seconds()
            runs = {"timed": run_client(work, "timed", ops, args.seconds, False, False,
                                        workload.reference)}

        verdicts = {tag: check_calls(workload, ops, r) for tag, r in runs.items()}
        problems = {p for r in runs.values() for v in r["variants"] for p in v["problems"]}
        if args.trace:
            # Tracing must not change a byte: traced calls pass only with untraced hashes.
            seen = {(v["op"], json.dumps(v["shas"], sort_keys=True))
                    for v in runs["untraced"]["variants"]}
            traced = runs["traced"]
            for n, c in enumerate(traced["calls"]):
                v = traced["variants"][c[2]]
                if (v["op"], json.dumps(v["shas"], sort_keys=True)) not in seen:
                    verdicts["traced"][n] = False
                    problems.add(f"traced output of {ops[v['op']]['key']} differs from untraced")
        attempted = sum(len(v) for v in verdicts.values())
        failed = sum(not ok for v in verdicts.values() for ok in v)

        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} threads={workload.threads}")
        print("environment " + json.dumps(env, sort_keys=True))
        print(f"note: thread scaling beyond {env['nproc']} threads cannot be measured "
              f"on this {env['nproc']}-CPU machine")
        if args.trace:
            traced = runs["traced"]
            summary = traced["trace"]["summary"]
            overhead = tiles_per_s(ops, traced) / tiles_per_s(ops, runs["untraced"])
            metrics = per_layer(summary, traced["passes"], overhead)
            units = PER_LAYER
            print(f"traced {traced['passes']:g} passes, untraced {runs['untraced']['passes']:g}; "
                  f"values are per pass; {traced['trace']['spans']} spans")
            for target in traced["trace"]["missing"]:
                print(f"warning: {target} not found, not traced")
        else:
            metrics, notes = end_to_end(ops, runs["timed"], setup)
            units = END_TO_END
            for note in notes:
                print("note: " + note)
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {units[name]}")
        print(f"metric failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} calls)")
        for problem in sorted(problems)[:20]:
            print("problem: " + problem)
        for tag, r in runs.items():
            for v in r["variants"]:
                for name, sha in sorted(v["shas"].items()):
                    print(f"sha256 {tag} {ops[v['op']]['key']} {name} {sha}")
        print(json.dumps({
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
