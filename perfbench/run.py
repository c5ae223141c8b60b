"""hphex benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload run happens in a fresh
interpreter (``child.py``), one at a time, so no cache warmed by an
earlier run counts.  Runs repeat while the next one is expected to end
within ``--seconds``; there is always at least one.  An untraced run
(``--trace 0``) also starts ``SETUP_REPEATS`` set-up-only interpreters
so that ``setup_s`` is a median.

Every metric is printed as ``name value unit``; the last line of
standard output is the JSON result.  The full record (environment,
history rows, per-step failures, every sample) goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("uw_adapt_layer", "galerkin_uniform", "dpg_p_sweep")
SETUP_REPEATS = 4
RUN_LIMIT_S = 170.0         # every run, set-up included, ends before this

END_TO_END = {"wall_s": "s", "last_step_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

LAYER_UNITS = {"self_s": "s", "calls": "count",
               "shape_distinct_ratio": "ratio", "quad_distinct_ratio": "ratio",
               "points": "count", "refinements": "count",
               "closure_share": "ratio", "gram_factorizations": "count",
               "gram_n_max": "count", "gflop": "GFLOP", "gflops": "GFLOP/s",
               "builds_per_elem_step": "ratio", "ndof": "count",
               "nnz": "count", "cg_iters": "count",
               "true_residual_max": "ratio", "marked_share": "ratio",
               "bytes": "B", "mb_per_s": "MB/s", "overhead_s": "s"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failing workload step)."""


def layer_unit(name: str) -> str:
    tail = name.split(".", 1)[1]
    return LAYER_UNITS.get(tail) or ("s" if tail.endswith("_s") else "")


def run_child(args, workdir, record, setup_only, deadline):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--workdir", workdir,
           "--record", record]
    if setup_only:
        cmd.append("--setup-only")
    log = os.path.join(workdir + ".log")
    os.makedirs(workdir, exist_ok=True)
    spawned = time.time()
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchmarkError(f"{args.workload} run exceeded the "
                                 f"{RUN_LIMIT_S:.0f} s limit; see {log}")
    if code != 0 or not os.path.isfile(record):
        raise BenchmarkError(f"child exited with status {code}; see {log}")
    with open(record) as fh:
        rec = json.load(fh)
    rec["setup_s"] = rec["first_call_epoch"] - spawned
    return rec


def percentile_note(values) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    q = math.floor(100 * (1 - 10 / n))
    val = statistics.quantiles(values, n=100)[q - 1]
    return f"n={n}; p{q}={val:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hphex", "__init__.py")):
        print("error: run from a checkout that holds src/hphex",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = os.path.join(OUT, "work", tag)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    setups = []
    if not args.trace:
        for i in range(SETUP_REPEATS):
            rec = run_child(args, os.path.join(scratch, f"setup{i}"),
                            os.path.join(scratch, f"setup{i}.json"),
                            True, deadline)
            setups.append(rec["setup_s"])
    runs = []
    while True:
        t = time.monotonic()
        i = len(runs)
        rec = run_child(args, os.path.join(scratch, f"run{i}"),
                        os.path.join(scratch, f"run{i}.json"), False,
                        deadline)
        runs.append(rec)
        setups.append(rec["setup_s"])
        used, last = time.monotonic() - started, time.monotonic() - t
        if used + last > args.seconds or used + 1.2 * last > RUN_LIMIT_S:
            break

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines = []
    if args.trace:
        names = list(runs[0]["layers"])
        metrics = {n: {"value": statistics.median(r["layers"][n]
                                                  for r in runs),
                       "unit": layer_unit(n)} for n in names}
    else:
        samples = {"wall_s": [r["wall_s"] for r in runs],
                   "last_step_s": [r["last_step_s"] for r in runs
                                   if r["last_step_s"] is not None],
                   "setup_s": setups,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = samples[name]
            metrics[name] = {"value": statistics.median(vals) if vals
                             else None, "unit": unit}
            lines.append(f"# {name}: {percentile_note(vals)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds,
                   "result": result, "setup_samples": setups,
                   "runs": runs}, fh, indent=1)
    for r in runs:
        for label, fails in zip(r["steps"], r["failures"]):
            for msg in fails:
                lines.append(f"# FAIL {label}: {msg}")
    lines.append(f"fail_ratio {failed / attempted:.6g} ratio "
                 f"({failed}/{attempted} steps)")
    lines += [f"{n} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
