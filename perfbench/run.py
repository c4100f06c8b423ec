"""upcube benchmark: time to a verdict, exploration throughput, memory.

    python3 perfbench/run.py --workload verify|artifacts|search \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Each run spawns fresh worker processes
(perfbench/worker.py), each a single closed-loop caller of
`upcube.cli.main(argv)` in-process with one thread.  With `--trace 0`
several fresh workers each time their set-up and then measure ops for
their share of S seconds; the run reports the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` one worker runs S/2 seconds untraced
and S/2 traced, and the per-layer metrics come from the spans it writes.
Every op is checked (checks.py); the last line of stdout is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, layer_stats  # noqa: E402

RUN_ROOT = ROOT / ".perfbench_run"
DEADLINE_S = 170  # a run gives up, killing its worker, after this long


class BenchError(Exception):
    pass


class Worker:
    """One fresh worker process, from spawn until it has exited."""

    def __init__(self, run_dir: Path, workload: str, seed: int, smoke: bool, index: int, deadline: float):
        argv = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
        if smoke:
            argv.append("--smoke")
        self.stderr_path = run_dir / f"worker{index}.err"
        self._stderr = open(self.stderr_path, "wb")
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=run_dir, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        self.ready = self.recv(deadline)
        self.setup_s = perf_counter() - t0

    def recv(self, deadline: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(deadline - perf_counter(), 0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            tail = self.stderr_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"worker exited or timed out without a reply:\n{tail}")
        return json.loads(line)

    def send(self, obj: dict) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._stderr.close()


def machine_info() -> dict:
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "l3": l3}


def tail_percentile(walls: list[float]) -> tuple[float, float, int]:
    """Wall time at the highest percentile with at least 10 ops beyond it."""
    s = sorted(walls)
    idx = max(len(s) - 11, 0)
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - idx - 1


def check_records(wl: workloads.Workload, records: list[dict], ref: checks.Reference) -> list[str]:
    failures = []
    for rec in records:
        problems = checks.check_op(wl.name, wl.op(rec["i"]), rec, ref)
        if problems:
            failures.append(f"op {rec['i']}: " + "; ".join(problems))
    return failures


def e2e_metrics(workload: str, setups: list[float], dones: list[dict], records: list[dict], failed: int):
    """(name, value, unit, note) for every end-to-end figure printed.

    `op_tail_s`, `fail_ratio` and `search_iters_per_s` are printed but are
    not BENCHMARK.json metrics: see perfbench/README.md.
    """
    walls = [r["wall"] for r in records]
    run_wall = sum(d["wall"] for d in dones)
    tail, pct, beyond = tail_percentile(walls)
    rates = [d["ops"] / d["wall"] for d in dones]
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} fresh workers"),
        ("ops_per_s", statistics.median(rates), "ops/s", f"median of {len(rates)} workers; {len(records)} ops in {run_wall:.1f} s"),
        ("op_p50_s", statistics.median(walls), "s", ""),
        ("op_tail_s", tail, "s", f"p{pct:.1f}, {beyond} of {len(walls)} ops beyond"),
        ("peak_rss_mb", max(d["rss_kb"] for d in dones) / 1024, "MB", f"largest of {len(dones)} workers"),
        ("fail_ratio", failed / len(records), "ratio", f"{failed} of {len(records)} ops"),
    ]
    if workload == "search":
        rows.append(("search_iters_per_s", sum(r["iters"] for r in records) / run_wall, "it/s", ""))
    return rows


def layer_unit(name: str) -> str:
    suffixes = {".calls": "calls/op", ".self_s": "s/op", ".bytes_computed": "B/op", ".iters": "it/op",
                ".iter_us": "us", ".iters_per_s": "it/s", ".spans": "spans/op", ".overhead_ratio": "ratio"}
    return next(unit for suffix, unit in suffixes.items() if name.endswith(suffix))


def layer_metrics(names: list[str], done: dict, records: list[dict], spans_path: Path) -> tuple[dict, dict]:
    """The BENCHMARK.json per-layer metrics, and every figure the spans give."""
    split = len(records) - done["traced_ops"]
    untraced, traced = records[:split], records[split:]
    stats = layer_stats(spans_path)
    ops = max(len(traced), 1)
    traced_iters = sum(r["iters"] for r in traced)
    values = {
        "trace.overhead_ratio": (len(untraced) / done["untraced_wall"]) / (len(traced) / done["traced_wall"]),
        "trace.spans": stats["spans"] / ops,
        "setcube.bytes_computed": stats["bytes_computed"] / ops,
        "search.iters": traced_iters / ops,
        "search.iters_per_s": sum(r["iters"] for r in untraced) / done["untraced_wall"],
        "search.iter_us": 1e6 * stats["self_s"].get("search.local_search", 0.0) / max(traced_iters, 1),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in stats["self_s"].items() if k.startswith(layer + ".")) / ops
    for fn in stats["calls"]:
        values[f"{fn}.calls"] = stats["calls"][fn] / ops
        values[f"{fn}.self_s"] = stats["self_s"][fn] / ops
    # a function named in BENCHMARK.json but absent from the package reads 0
    return {name: values.get(name, 0.0) for name in names}, values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes and one set-up (with --seconds 0: one op per phase)")
    args = ap.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "upcube" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding src/upcube and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.Workload(args.workload, args.seed, sizes)
    warm = workloads.Workload(args.workload, args.seed, sizes, warmup=True)

    run_dir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spans_path = RUN_ROOT / f"spans-{args.workload}.bin"
    try:
        wl.write_inputs(run_dir)
        warm.write_inputs(run_dir)
        # Each fresh worker times its own set-up, then measures its share of
        # the run: pooling ops from several processes averages out
        # per-process luck in memory placement.
        n_workers = 1 if args.trace else sizes.setups
        share = args.seconds / n_workers
        setups, digests, dones, records = [], set(), [], []
        for k in range(n_workers):
            worker = Worker(run_dir, args.workload, args.seed, args.smoke, k, deadline)
            try:
                cmd = {"cmd": "run", "seconds": share, "trace": args.trace, "start": len(records)}
                worker.send({**cmd, "spans": str(spans_path)})
                dones.append(worker.recv(deadline))
            finally:
                worker.close()
            setups.append(worker.setup_s)
            digests.add(worker.ready["digest"])
            ops_file = (run_dir / "ops.jsonl").read_text()
            records += [json.loads(line) for line in ops_file.splitlines()]
        warm_rec = {**worker.ready["warmup"], "i": 0}
        ref = checks.Reference(run_dir)
        op_failures = check_records(wl, records, ref)
        failures = ["warm-up " + f for f in check_records(warm, [warm_rec], ref)] + op_failures
        if len(digests) != 1:
            failures.append("warm-up outputs differ between fresh workers")

        print(f"machine: {json.dumps(machine_info())}")
        print(f"inputs: workload={args.workload} seed={args.seed} {json.dumps(wl.input_sizes())}")
        print(f"digest_sha256 = {digests.pop()} (fixed-seed warm-up op: JSON reports + .upset bytes)")
        failed = len(op_failures)
        for f in failures[:10]:
            print(f"FAIL {f}")
        if args.trace:
            spec_metrics = spec["per_layer"]
            names = [m["name"] for m in spec_metrics]
            values, everything = layer_metrics(names, dones[0], records, spans_path)
            for name, value in sorted(everything.items()):
                if name in values or value:
                    print(f"layer {name} = {value:.6g} {layer_unit(name)}")
        else:
            spec_metrics = spec["end_to_end"]
            values = {}
            for name, value, unit, note in e2e_metrics(args.workload, setups, dones, records, failed):
                values[name] = value
                print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        result = {
            "correct": not failures,
            "attempted": len(records),
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics},
        }
        print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
