"""Correctness checks of one workload run, step by step.

A step fails if it did not complete or if any check on it fails; the
failed steps over the attempted ones give the fail ratio.

* Seed 0: the history rows match ``reference.json`` (nreles and ndof
  exactly, estimator and exact error to ``REL_TOL`` relative).
* Every seed: one CG solve per solving step whose true residual
  ||b - Ax|| / ||b|| is at most ``TRUE_RESIDUAL_MAX``; on the DPG
  workloads the estimator/exact-error effectivity lies in
  ``EFFECTIVITY``; on ``uw_adapt_layer`` the c09 invariants hold
  (estimator strictly decreasing, last/first exact error below
  ``C09_ERROR_RATIO``) and every step wrote its VTU into the .pvd
  series; on ``galerkin_uniform`` the exact error falls with every
  level and the exported VTU holds 27 points and 8 cells per element.
"""

from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET

REL_TOL = 1e-10
TRUE_RESIDUAL_MAX = 1e-9
EFFECTIVITY = (0.05, 20.0)
C09_ERROR_RATIO = 0.1

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def _close(a, b):
    return abs(a - b) <= REL_TOL * abs(b)


def _reference_failures(got, want):
    bad = []
    for key in ("nreles", "ndof"):
        if key in want and got.get(key) != want[key]:
            bad.append(f"{key} {got.get(key)} != reference {want[key]}")
    for key in ("estimator", "exact_error"):
        if want.get(key) is not None and not (
                got.get(key) is not None and _close(got[key], want[key])):
            bad.append(f"{key} {got.get(key)!r} != reference {want[key]!r}")
    return bad


def _vtu_counts(path):
    """(points, cells) from the Piece header of an ASCII VTU file."""
    with open(path) as fh:
        head = fh.read(4096)
    m = re.search(r'NumberOfPoints="(\d+)" NumberOfCells="(\d+)"', head)
    return (int(m.group(1)), int(m.group(2))) if m else (None, None)


def step_failures(job, seed: int, true_residuals) -> list:
    """One list of failure messages per step (empty when it passed)."""
    rows, nsteps, solve_steps = job.rows, len(job.steps), job.solving
    fail = [[] for _ in range(nsteps)]
    for i in range(len(rows), nsteps):
        fail[i].append("step did not complete")
    if seed == 0:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[job.name]
        for i, (got, want) in enumerate(zip(rows, reference)):
            fail[i] += _reference_failures(got, want)

    done = min(len(rows), solve_steps)
    if len(true_residuals) != done:
        for i in range(done):
            fail[i].append(f"{len(true_residuals)} CG solves for {done} steps")
    for i, res in enumerate(true_residuals[:done]):
        if not res <= TRUE_RESIDUAL_MAX:
            fail[i].append(f"true residual {res:.3e} > {TRUE_RESIDUAL_MAX}")

    lo, hi = EFFECTIVITY
    for i, row in enumerate(rows[:solve_steps]):
        if row.get("estimator") is None:
            continue
        eff = row["estimator"] / row["exact_error"]
        if not lo <= eff <= hi:
            fail[i].append(f"effectivity {eff:.3f} outside [{lo}, {hi}]")

    if job.name == "uw_adapt_layer":
        for i in range(1, len(rows)):
            if not rows[i]["estimator"] < rows[i - 1]["estimator"]:
                fail[i].append("estimator did not decrease")
        if len(rows) == nsteps:
            ratio = rows[-1]["exact_error"] / rows[0]["exact_error"]
            if not ratio < C09_ERROR_RATIO:
                fail[-1].append(f"exact error ratio {ratio:.3f} >= "
                                f"{C09_ERROR_RATIO}")
        written = []
        if os.path.isfile(job.files["pvd"]):
            root = ET.parse(job.files["pvd"]).getroot()
            outdir = os.path.dirname(job.files["pvd"])
            written = [os.path.isfile(os.path.join(outdir, ds.get("file")))
                       for ds in root.iter("DataSet")]
        for i in range(len(rows)):
            if i >= len(written) or not written[i]:
                fail[i].append("VTU snapshot missing from the .pvd series")

    if job.name == "galerkin_uniform":
        for i in range(1, min(len(rows), solve_steps)):
            if not rows[i]["exact_error"] < rows[i - 1]["exact_error"]:
                fail[i].append("exact error did not decrease")
        if len(rows) == nsteps:
            nel = rows[-1]["nreles"]
            counts = _vtu_counts(job.files["vtu"])
            if counts != (27 * nel, 8 * nel):
                fail[-1].append(f"VTU holds {counts} points/cells for "
                                f"{nel} elements")
    return fail
