"""Benchmark command: time one workload end to end, or trace it layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload evolve_d2 --seed 1 --seconds 35 --trace 0

Set-up is measured in SETUP_SAMPLES fresh processes: SETUP_SAMPLES - 1 that
only set up, and the worker that then runs the workload.  With ``--trace 0``
the result holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  Standard output ends with a report
line (samples, row failures, environment) and then the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

The exit code is non-zero, and no result is printed, when the program cannot
be imported or a process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 5
# runnable by name but not a BENCHMARK.json workload: 29 of its 98 rows fail
# against the exact reference (the op_norm power-iteration cut-off), so it
# reports correct = false until op_norm is fixed
UNGATED_WORKLOADS = ["decay_d3"]
# the whole run must end within 180 s; leave room to stop a late worker
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A benchmark process failed; the run prints no result."""


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        # run() kills the child on timeout and waits for it
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker overran the {DEADLINE_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "values": values}


def end_to_end(setups: list[float], run: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run["untraced"]["run_s"]),
        "cpu_s": statistics.median(run["untraced"]["cpu_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_rate": 1.0 - run["untraced"]["failed"] / run["untraced"]["attempted"],
    }


def per_layer(run: dict) -> dict[str, float]:
    """Median over traced passes; dimensions take their maximum."""
    layers = run["traced"]["layers"]
    out = {}
    for name in layers[0]:
        values = [p[name] for p in layers]
        out[name] = max(values) if name.endswith(".dim_max") else statistics.median(values)
    out["trace_overhead_s"] = statistics.median(run["traced"]["run_s"]) - statistics.median(run["untraced"]["run_s"])
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="forwarded to verify --seed only")
    parser.add_argument("--seconds", type=int, required=True, help="time budget of the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # a terminated run still stops its worker: subprocess.run kills the
    # child when SystemExit interrupts the wait
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "grading_lab" / "__init__.py").is_file():
        print(f"no grading_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = [worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = worker(args, deadline, setup_only=False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    passes = [run["untraced"]] + ([run["traced"]] if args.trace else [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = per_layer(run) if args.trace else end_to_end(setups, run)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "environment": run["environment"],
        "samples": {
            "setup_s": summary(setups),
            "run_s": summary(run["untraced"]["run_s"]),
            "cpu_s": summary(run["untraced"]["cpu_s"]),
            **({"traced_run_s": summary(run["traced"]["run_s"])} if args.trace else {}),
        },
        "rows": {
            "per_pass": sum(p["attempted"] for p in passes) // sum(len(p["run_s"]) for p in passes),
            "failed_per_pass": [f for p in passes for f in p["failed_per_pass"]],
        },
        "bindings_wrapped": run.get("bindings_wrapped"),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
