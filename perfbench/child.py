"""One workload run in a fresh interpreter; ``run.py`` starts it.

Everything before the first timed call is set-up: interpreter start,
imports, input generation and, in a traced run, installing the span
recorder.  The record of the run (timings, history rows, per-step
failures, environment, per-layer metrics when traced) is written as
JSON to ``--record``.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --record FILE [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[1:1] = [os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

_OPENBLAS_THREADS = ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in _OPENBLAS_THREADS:
            if hasattr(handle, sym):
                found[os.path.basename(lib)] = int(getattr(handle, sym)())
                break
    return found


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit(root) -> str:
    """Commit of a git work tree, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def environment() -> dict:
    def blas_of(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]
            return f'{dep["blas"]["name"]} {dep["blas"]["version"]}'
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__, "numpy_blas": blas_of(np),
        "scipy": scipy.__version__, "scipy_blas": blas_of(scipy),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(os.path.dirname(HERE)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    watch = workloads.Watch()
    job = workloads.prepare(args.workload, args.seed, args.workdir, watch)
    recorder = None
    if args.trace:
        recorder = tracing.Recorder(
            f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        recorder.install()
    watch.install()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "first_call_epoch": time.time()}
    if args.setup_only:
        return _write(args.record, record)

    t0 = time.perf_counter()
    error = None
    try:
        job.run()
    except Exception:              # a failing step is a result, not a crash
        error = traceback.format_exc()
    t_end = time.perf_counter()

    job.finish()
    failures = checks.step_failures(job, args.seed, watch.true_residuals)
    if error is not None:
        failures[min(len(job.rows), len(failures) - 1)].append(
            "raised: " + error.strip().splitlines()[-1])
    marks = list(job.marks) + [t_end]
    step_s = [b - a for a, b in zip(marks, marks[1:])]
    record.update({
        "wall_s": t_end - t0,
        "step_s": step_s,
        "last_step_s": (step_s[job.largest] if len(step_s) > job.largest
                        else None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "steps": job.steps,
        "rows": job.rows,
        "true_residuals": watch.true_residuals,
        "failures": failures,
        "attempted": len(failures),
        "failed": sum(1 for f in failures if f),
        "error": error,
        "env": environment(),
    })
    if recorder is not None:
        layers, spans = tracing.layer_metrics(recorder, watch.true_residuals)
        record["layers"] = layers
        record["trace_covered_s"] = spans.covered()
        tracing.save_spans(recorder, spans,
                           os.path.join(args.workdir, "spans.npz"))
    return _write(args.record, record)


def _write(path, record) -> int:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
