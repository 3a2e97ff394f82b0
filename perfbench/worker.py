"""One fresh benchmark process: set up a workload, then run and check passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The set-up time runs from the first line of this file, before
``grading_lab`` is imported, to the end of the workload's set-up (configs
loaded, models built and diagonalised).  With ``--setup-only`` the process
reports that time and exits.  Otherwise it runs passes of the workload's
calls until the next pass would end after ``--seconds`` (always at least
one) and checks every output row.  With ``--trace 1`` the budget is split:
half for untraced passes, half for passes with the tracer installed.  The result is one JSON object on the last line of
standard output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """Interpreter, library and thread settings the timings depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def run_passes(workload, out_dir: Path, seconds: float, first_outputs: list, spans=None) -> dict:
    """Timed passes within the budget; outputs must repeat byte for byte.

    With a tracer, pass times use its clock (hook time removed) and each
    pass records its per-layer values.
    """
    clock = spans.now if spans else time.perf_counter
    run_s, cpu_s, per_pass, layers = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for path in out_dir.iterdir():
            path.unlink()
        if spans:
            spans.reset()
        c0, w0 = os.times(), clock()
        results = [step.run(out_dir) for step in workload.steps]
        wall, c1 = clock() - w0, os.times()
        run_s.append(wall)
        cpu_s.append((c1.user + c1.system) - (c0.user + c0.system))
        if spans:
            layers.append(spans.pass_metrics())
        pass_failed = 0
        for i, (step, result) in enumerate(zip(workload.steps, results)):
            data = step.output(out_dir, result)
            if len(first_outputs) <= i:
                first_outputs.append(data)
            bad = workloads.count_failed(step, data)
            if data != first_outputs[i]:
                print(f"{step.label}: output differs from the first pass", file=sys.stderr)
                bad = step.expected_rows
            attempted += step.expected_rows
            pass_failed += bad
        failed += pass_failed
        per_pass.append(pass_failed)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(run_s) > seconds:
            break
    out = {"run_s": run_s, "cpu_s": cpu_s, "attempted": attempted, "failed": failed, "failed_per_pass": per_pass}
    if spans:
        out["layers"] = layers
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.Workload(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    loaded = Path(workloads.cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"grading_lab was imported from {loaded}, not from {SRC}")
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # a traced run splits its budget between untraced and traced passes
    budget = args.seconds / 2 if args.trace else args.seconds
    first_outputs: list = []
    with tempfile.TemporaryDirectory(prefix=".out-", dir=BENCH) as tmp:
        result["untraced"] = run_passes(workload, Path(tmp), budget, first_outputs)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            import tracer

            spans = tracer.Tracer()
            result["bindings_wrapped"] = spans.install()
            try:
                result["traced"] = run_passes(workload, Path(tmp), budget, first_outputs, spans)
            finally:
                spans.uninstall()
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
