"""One closed-loop client in its own process: calls ``texent.cli.run`` in turn.

Usage: ``python3 client.py JOB.json``.  The job names the CLI calls, how long
to run them and whether to trace.  Each call starts when the previous one
has returned; only the call itself is timed.  There is no warm-up call: a
user's every CLI call runs in a fresh process and pays the first-call costs.
Outputs are hashed after every call, and the first copy of each distinct
output is kept for the reference check.  After each call the client prints
``done K`` (K the call's index in the job) and waits for ``go`` on standard
input, so the parent can time its reference computation while this process
is idle.  The result is written to the job's ``result`` path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans


def call(run, op: dict) -> tuple[int, int, str, str]:
    """(status, nanoseconds, stdout, stderr) of one CLI call."""
    for path in op["outputs"].values():
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            status = run(op["argv"])
        except Exception:  # the loop goes on; the failure is counted and reported
            status = -1
            traceback.print_exc()
        elapsed = time.perf_counter_ns() - t0
    return status, elapsed, out.getvalue(), err.getvalue()


def digest(op: dict, stdout: str) -> dict[str, str]:
    shas = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for name, path in op["outputs"].items():
        p = Path(path)
        shas[name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else "missing"
    return shas


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    import texent
    import texent.cli

    src = Path(job["src"]).resolve()
    if src not in Path(texent.__file__).resolve().parents:
        raise SystemExit(f"texent imported from {texent.__file__}, not from {src}")
    ops = job["ops"]

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
        run = tracer.wrap("cli.run", texent.cli.run)
    else:
        run = texent.cli.run

    kept_dir = Path(job["kept"])
    kept_dir.mkdir(parents=True, exist_ok=True)
    calls, variants, index = [], [], {}
    summary, span_count = {}, 0
    deadline = time.perf_counter() + job["seconds"]
    n = 0
    while not (n > 0 and time.perf_counter() >= deadline
               and (not job["whole_passes"] or n % len(ops) == 0)):
        k = n % len(ops)
        op = ops[k]
        status, elapsed, stdout, stderr = call(run, op)
        shas = digest(op, stdout)
        vkey = (k, status, tuple(sorted(shas.items())))
        if vkey not in index:
            index[vkey] = len(variants)
            files = {}
            for name, path in op["outputs"].items():
                if shas[name] != "missing":
                    files[name] = str(shutil.copyfile(path, kept_dir / f"{len(variants)}.{name}"))
            variants.append({"op": k, "status": status, "shas": shas, "files": files,
                             "stdout": stdout, "stderr": stderr[-2000:]})
        calls.append([k, elapsed, index[vkey]])
        n += 1
        print(f"done {k}", flush=True)
        if sys.stdin.readline().strip() != "go":
            raise SystemExit("the parent process went away")
        if tracer is not None and n % len(ops) == 0:
            # Between passes no span is open: fold this pass in and drop its spans.
            spans.merge(summary, spans.summarize(tracer.spans))
            span_count += len(tracer.spans)
            tracer.spans.clear()

    result = {
        "calls": calls,
        "variants": variants,
        "passes": n / len(ops),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {"missing": tracer.missing, "summary": summary, "spans": span_count}
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
