"""Benchmark of stgf's training and serving paths.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 55 --trace 0

Builds nothing: stgf is imported from the checkout's ``src``. With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
first makes untraced ``train()`` calls as the reference, then repeats the
workload with every layer traced and reports the per-layer metrics. Metric
names and units come from ``BENCHMARK.json``. Human-readable lines come
first; the last line of standard output is the JSON result. The exit code is
0 only when every correctness check held. ``--smoke`` runs the workload at a
tiny size.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
WORKLOAD_NAMES = ("train-small", "train-paper")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True, help="synthetic-data seed")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_stgf():
    """Import stgf from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stgf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stgf from {src}: {exc}")
    if not Path(stgf.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: stgf imported from {stgf.__file__}, not from {src}")
    return stgf


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def untraced_run(workload, seed, seconds, work, ledger):
    from workloads import SETUP_REPEATS, Session

    session = Session(workload, seed, work / "run", ledger)
    setup_s = session.run(seconds, SETUP_REPEATS)
    return session.end_to_end(setup_s), {
        "train_calls": len(session.train_runs),
        "eval_calls": len(session.eval_runs),
        "predict_calls": sum(len(r) for r in session.predict_ms.values()),
        "setup_repeats": len(setup_s),
    }


def traced_run(stgf, workload, seed, seconds, work, ledger, trace_path):
    from tracing import SpanIndex, Tracer, instrument, tape_counts, timing_metrics
    from workloads import Session, rate_p5

    # untraced train units for a quarter of the seconds, at least one
    reference = Session(workload, seed, work / "reference", ledger)
    reference.setup()
    began = time.perf_counter()
    while not reference.train_runs or time.perf_counter() - began < seconds / 4:
        reference.train_once()

    session = Session(workload, seed, work / "traced", ledger)
    tracer = Tracer(stgf.Tape)
    with instrument(tracer):
        session.run(seconds, setups=1)
    probe = Tracer(stgf.Tape)
    with instrument(probe):
        tape = session.sample_tape()

    index = SpanIndex(tracer.spans)
    metrics = timing_metrics(index)
    metrics.update(tape_counts(tape, session.params, SpanIndex(probe.spans)))
    metrics["model.forward_gflop_per_s"] = (
        metrics["autodiff.matmul_mflop_per_sample"] / metrics["model.forward_ms_per_sample"]
    )
    if reference.train_runs and session.train_runs:
        metrics["trace.overhead_ratio"] = rate_p5(session.train_runs) / rate_p5(
            reference.train_runs
        )
        val, ref_val = session.train_runs[0][2], reference.train_runs[0][2]
        if val == ref_val:
            ledger.passed["traced_val_mse_equal"] += 1
        else:
            ledger.fail(f"traced val_mse {val!r} != untraced {ref_val!r}")
    else:
        metrics["trace.overhead_ratio"] = 0.0

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(trace_path, "wt") as fh:
        json.dump({"summary": index.summary(), "spans": tracer.spans}, fh)
    return metrics, {"spans": len(tracer.spans), "train_calls": len(session.train_runs)}


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads these once, when NumPy loads it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    stgf = import_stgf()
    from workloads import WORKLOADS, Ledger, smoke

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = WORK / f"{tag}-{os.getpid()}"
    ledger = Ledger()
    try:
        if args.trace:
            metrics, counts = traced_run(
                stgf, workload, args.seed, args.seconds, work, ledger,
                WORK / "traces" / f"{tag}.json.gz",
            )
        else:
            metrics, counts = untraced_run(workload, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        differ = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {differ}")

    env = environment()
    ratio = ledger.failed / ledger.attempted if ledger.attempted else math.inf
    print(f"perfbench {tag}  seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    print("counts " + json.dumps(counts, sort_keys=True))
    print("checks " + json.dumps(dict(ledger.passed), sort_keys=True))
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    for name in units:
        print(f"  {name:40s} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'ops_failed_ratio':40s} {ratio:>14.6g} ratio ({ledger.failed}/{ledger.attempted})")

    correct = ledger.failed == 0 and ledger.attempted > 0
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(
        json.dumps({**result, "env": env, "counts": counts, "checks": dict(ledger.passed),
                    "problems": ledger.problems}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
