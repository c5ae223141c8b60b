"""The three benchmark workloads, one batch run each.

``prepare`` does the set-up (input generation) and returns a ``Job``;
``Job.run`` is the timed part.  ``marks`` holds the perf_counter time at
which each step starts, so a step lasts until the next mark (the last
one until the end of the run).

* ``uw_adapt_layer`` runs the c09 scenario through the command line:
  ultraweak DPG, boundary-layer solution, p=2, dp=1, Doerfler 0.5,
  5 steps, ``-workers 2``, a VTU at ``-vlevel 1`` per step.
* ``galerkin_uniform`` calls the library: Galerkin, boundary-layer
  solution, 2x2x2 grid, p=2, four levels of uniform h-refinement, then
  one VTU export of the 4,096-element mesh.
* ``dpg_p_sweep`` calls the library on one element: ultraweak p=1..4
  with dp=1, then primal p=1..5 with dp=2, smooth solution.
"""

from __future__ import annotations

import csv
import os
import time

import numpy as np

from hphex import adapt, cli
from hphex import assembly as asm
from hphex import poisson as po
from hphex import vtu

import inputs
from tracing import rebind

SWEEP = [(po.UW, 1, p) for p in range(1, 5)] + \
        [(po.PRIMAL, 2, p) for p in range(1, 6)]

class Watch:
    """Solve start times and true CG residuals, in every run.

    ``true_residuals`` holds ||b - Ax|| / ||b|| for each ``cg_solve``,
    computed here from its arguments and result.
    """

    def __init__(self):
        self.solve_starts = []
        self.true_residuals = []

    def install(self):
        solve, cg = po.solve_problem, asm.cg_solve

        def timed_solve(*args, **kwargs):
            self.solve_starts.append(time.perf_counter())
            return solve(*args, **kwargs)

        def checked_cg(A, b, *args, **kwargs):
            out = cg(A, b, *args, **kwargs)
            bnorm = np.linalg.norm(b)
            self.true_residuals.append(
                float(np.linalg.norm(b - A @ out[0]) / bnorm) if bnorm
                else 0.0)
            return out

        rebind(solve, timed_solve)
        rebind(cg, checked_cg)


class Job:
    name = ""
    steps = []          # step labels
    solving = 0         # the first ``solving`` steps each solve once
    largest = 0         # index of the largest step

    def __init__(self, workdir, watch):
        self.workdir = workdir
        self.watch = watch
        self.marks = []
        self.rows = []
        self.files = {}

    def run(self):
        raise NotImplementedError

    def finish(self):
        """Collect rows the program wrote to files (outside the timing)."""


class UwAdaptLayer(Job):
    name = "uw_adapt_layer"
    steps = [f"step {k}" for k in range(1, 6)]
    solving = 5
    largest = 4

    def __init__(self, seed, workdir, watch):
        super().__init__(workdir, watch)
        self.paths = inputs.write_cli_inputs(workdir, seed)
        self.outdir = os.path.join(workdir, "paraview")
        self.argv = [
            "-file-control", self.paths["control"],
            "-file-phys", self.paths["physics"],
            "-file-geometry", self.paths["geometry"],
            "-prob", "uw", "-p", "2", "-dp", "1", "-exact", "boundary_layer",
            "-job", "2", "-mark", "doerfler", "-perc", "0.5",
            "-maxsteps", "5", "-workers", "2",
            "-paraview-dir", self.outdir, "-vlevel", "1"]

    def run(self):
        self.marks = self.watch.solve_starts
        rc = cli.run_main(self.argv)
        if rc != 0:
            raise RuntimeError(f"hphex -job 2 exited with status {rc}")

    def finish(self):
        self.files = {"history": os.path.join(self.outdir, "history.csv"),
                      "pvd": os.path.join(self.outdir, "adaptive.pvd")}
        if not os.path.isfile(self.files["history"]):
            return
        with open(self.files["history"], newline="") as fh:
            for rec in csv.DictReader(fh):
                self.rows.append({
                    "step": int(rec["step"]), "nreles": int(rec["nreles"]),
                    "ndof": int(rec["ndof"]),
                    "estimator": float(rec["estimator"]),
                    "exact_error": float(rec["exact_error"])})


class GalerkinUniform(Job):
    name = "galerkin_uniform"
    steps = [f"level {k}" for k in range(1, 5)] + ["export"]
    solving = 4
    largest = 3

    def __init__(self, seed, workdir, watch):
        super().__init__(workdir, watch)
        self.geometry = inputs.grid(2, 2, 2, seed)

    def run(self):
        self.marks.append(time.perf_counter())
        problem = po.make_problem(po.GALERKIN, exact="boundary_layer")
        mesh = po.make_mesh(problem, self.geometry, 2)
        for level in range(1, 5):
            if level > 1:
                self.marks.append(time.perf_counter())
                adapt.global_href(mesh)
            rep = po.solve_problem(mesh, problem, workers=1)
            h1, _, _ = po.compute_exact_error(mesh, problem)
            self.rows.append({"step": level, "nreles": mesh.NRELES,
                              "ndof": rep.ndof, "estimator": None,
                              "exact_error": h1})
        self.marks.append(time.perf_counter())
        config = vtu.ParaviewConfig(dir=self.workdir, vlevel=1)
        self.files["vtu"] = vtu.export_vtu(mesh, config, "final")
        self.rows.append({"step": 5, "nreles": mesh.NRELES})


class DpgPSweep(Job):
    name = "dpg_p_sweep"
    steps = [f"{kind} p={p}" for kind, _, p in SWEEP]
    solving = len(SWEEP)
    largest = 3

    def __init__(self, seed, workdir, watch):
        super().__init__(workdir, watch)
        self.geometry = inputs.grid(1, 1, 1, seed)

    def run(self):
        for step, (kind, dp, p) in enumerate(SWEEP, start=1):
            self.marks.append(time.perf_counter())
            problem = po.make_problem(kind, exact="smooth", dp=dp)
            mesh = po.make_mesh(problem, self.geometry, p)
            rep = po.solve_problem(mesh, problem, workers=1)
            errors = adapt.estimate(mesh, problem)
            h1, _, _ = po.compute_exact_error(mesh, problem)
            self.rows.append({"step": step, "nreles": mesh.NRELES,
                              "ndof": rep.ndof,
                              "estimator": float(np.sqrt(errors.error_glob)),
                              "exact_error": h1})


JOBS = {job.name: job for job in (UwAdaptLayer, GalerkinUniform, DpgPSweep)}


def prepare(name: str, seed: int, workdir: str, watch: Watch) -> Job:
    return JOBS[name](seed, workdir, watch)
