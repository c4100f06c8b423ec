"""Benchmark worker: one closed-loop caller of `upcube.cli.main`, in-process.

Started by run.py in a fresh interpreter with the run directory as its
working directory.  Protocol, one JSON object per line:

1. The worker imports upcube, runs the fixed-seed warm-up op (filling the
   lazy mask tables), then prints `{"ready": ...}` with the warm-up record
   and the output digest.
2. It reads one command from stdin,
   `{"cmd": "run", "seconds": S, "trace": 0|1, "start": i, "spans": path}`,
   and exits if stdin closes instead.
3. It runs ops i, i+1, ... for S seconds (with trace 1: S/2 untraced, then
   S/2 traced), writes the op records to `ops.jsonl` (and the spans to
   `spans`), and prints `{"done": ...}`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import upcube  # noqa: E402
import upcube.cli  # noqa: E402
import upcube.search  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patch_everywhere  # noqa: E402

# Spans are ~30 bytes each; search makes ~500k per traced second, so the
# traced phase stops early rather than hold more than ~60 MB of them.
SPAN_BUDGET = 2_000_000


class IterationCounter:
    """Sums `local_search` iterations: the CLI report of a multi-restart
    search gives only the winning restart's count."""

    def __init__(self) -> None:
        self.total = 0

    def install(self) -> None:
        inner = upcube.search.local_search

        @functools.wraps(inner)
        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.total += result.iterations
            return result

        patch_everywhere(upcube, {inner: counted})


def run_op(op: workloads.Op, counter: IterationCounter) -> tuple[dict, list[bytes]]:
    """Run every pass of an op; returns its record and the raw outputs."""
    passes = []
    iters0 = counter.total
    t0 = perf_counter()
    for argv in op.passes:
        out, err = io.StringIO(), io.StringIO()
        error = None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = upcube.cli.main(list(argv))
        except Exception as exc:  # a crashing pass is one failed op; the loop goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        passes.append((code, out.getvalue(), err.getvalue(), error))
    wall = perf_counter() - t0
    iters = counter.total - iters0
    raw = [text.encode() for _, text, _, _ in passes]
    files = {}
    for rel in op.outputs:
        try:
            data = Path(rel).read_bytes()
        except OSError:
            continue
        raw.append(data)
        files[rel] = hashlib.sha256(data).hexdigest()
    record = {"wall": wall, "iters": iters, "files": files, "passes": []}
    for code, text, errtext, error in passes:
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        record["passes"].append({"code": code, "report": report, "stderr": errtext[-500:], "error": error})
    return record, raw


def loop(wl: workloads.Workload, start: int, seconds: float, counter: IterationCounter, tracer=None):
    """Run ops back to back, at least one, until `seconds` have passed or
    the tracer holds SPAN_BUDGET spans."""
    records = []
    t0 = perf_counter()
    while not records or (perf_counter() - t0 < seconds and (tracer is None or len(tracer) < SPAN_BUDGET)):
        i = start + len(records)
        if tracer is not None:
            tracer.op = i
        record, _ = run_op(wl.op(i), counter)
        record["i"] = i
        # kept as a string, so the collector never walks the run's reports
        records.append(json.dumps(record))
    return records, perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    counter = IterationCounter()
    counter.install()

    warm_record, raw = run_op(workloads.Workload(args.workload, args.seed, sizes, warmup=True).op(0), counter)
    digest = hashlib.sha256()
    for chunk in raw:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    print(json.dumps({"ready": True, "warmup": warm_record, "digest": digest.hexdigest()}), flush=True)

    line = sys.stdin.readline()
    if not line:
        return
    cmd = json.loads(line)
    wl = workloads.Workload(args.workload, args.seed, sizes)
    seconds, start = cmd["seconds"], cmd["start"]
    result = {}
    if cmd["trace"]:
        untraced, result["untraced_wall"] = loop(wl, start, seconds / 2, counter)
        tracer = Tracer()
        tracer.install(upcube)
        traced, result["traced_wall"] = loop(wl, start + len(untraced), seconds / 2, counter, tracer)
        tracer.write(Path(cmd["spans"]))
        result["traced_ops"] = len(traced)
        records = untraced + traced
    else:
        records, result["wall"] = loop(wl, start, seconds, counter)
        result["ops"] = len(records)
    Path("ops.jsonl").write_text("".join(line + "\n" for line in records))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"done": True, **result}), flush=True)


if __name__ == "__main__":
    main()
