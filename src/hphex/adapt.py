"""Element marking and the adaptive solve-estimate-mark-refine driver.

Indicators are squared quantities (residual norms square-sum across
elements); the driver's tolerance applies to the square root of their
global sum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import poisson
from .errors import ConfigError, MeshError
from .mesh import check_one_irregularity, close_mesh, refine_element

GREEDY = "greedy"
DOERFLER = "doerfler"
STRATEGIES = (GREEDY, DOERFLER)


@dataclass
class ErrorSummary:
    """Per-element error indicators keyed by middle-node id."""

    mdles: list
    indicators: np.ndarray

    def __post_init__(self):
        self.indicators = np.asarray(self.indicators, dtype=float)
        if len(self.mdles) != self.indicators.shape[0]:
            raise ConfigError(
                f"{len(self.mdles)} elements but "
                f"{self.indicators.shape[0]} indicators"
            )

    @property
    def error_max(self) -> float:
        return float(self.indicators.max()) if len(self.mdles) else 0.0

    @property
    def error_glob(self) -> float:
        return float(self.indicators.sum())


@dataclass
class MarkingConfig:
    strategy: str = GREEDY
    perc: float = 0.5

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"unknown marking strategy {self.strategy!r}; "
                f"choose from {STRATEGIES}"
            )
        if not 0.0 < self.perc <= 1.0:
            raise ConfigError(f"marking coefficient {self.perc} outside (0,1]")


def mark_elements(errors: ErrorSummary, config: MarkingConfig) -> list:
    """Ids of the elements to refine.

    Greedy marks every element whose indicator exceeds perc*error_max.
    Doerfler sorts indicators in descending order and takes the shortest
    prefix whose sum exceeds perc*error_glob; if no prefix does (perc=1
    exactly), all elements are marked.  Only bitwise-equal indicators are
    ordered by ascending element id.  Indicators of mirror-symmetric
    elements usually differ by roundoff (on the c09 slab run, eight of
    them agree to 2e-11 relative), so among them roundoff, not the id,
    decides which are marked.
    """
    if not errors.mdles:
        raise MeshError("no active elements to mark")
    mdles = np.asarray(errors.mdles)
    ind = errors.indicators
    if config.strategy == GREEDY:
        chosen = mdles[ind > config.perc * errors.error_max]
    else:
        order = np.lexsort((mdles, -ind))
        csum = np.cumsum(ind[order])
        target = config.perc * errors.error_glob
        hits = np.flatnonzero(csum > target)
        take = hits[0] + 1 if hits.size else len(order)
        chosen = mdles[order[:take]]
    return [int(m) for m in chosen]


# ---------------------------------------------------------------------------
# driver

@dataclass
class HistoryRow:
    step: int
    nreles: int
    ndof: int
    estimator: float
    exact_error: float = None

    def as_csv(self) -> list:
        err = "" if self.exact_error is None else repr(self.exact_error)
        return [self.step, self.nreles, self.ndof, repr(self.estimator), err]


def estimate(mesh, problem, workers: int = 1) -> ErrorSummary:
    """Per-element squared indicators for the configured problem.

    DPG residuals are computed on `workers` threads, like assembly.
    """
    if problem.kind in (poisson.PRIMAL, poisson.UW):
        vals, _ = poisson.residual_summary(mesh, problem, workers)
        return ErrorSummary(list(mesh.ELEM_ORDER), vals)
    if problem.nexact:
        _, _, table = poisson.compute_exact_error(mesh, problem)
        vals = [table[m][0] for m in mesh.ELEM_ORDER]
        return ErrorSummary(list(mesh.ELEM_ORDER), np.array(vals))
    raise ConfigError(
        "no error indicator available: Galerkin without a manufactured "
        "solution has neither a residual nor an exact error"
    )


def adaptive_loop(mesh, problem, marking: MarkingConfig, tol: float,
                  max_steps: int, *, solver: str = "cg", workers: int = 1,
                  on_step=None) -> list:
    """Iterate solve, estimate, mark, refine; returns the history table.

    Stops once sqrt(error_glob) <= tol or after max_steps solves.  After
    each refinement round the mesh is closed to 1-irregularity; the
    refiner places new vertices and the next solve sets Dirichlet DOFs.
    """
    if max_steps < 1:
        raise ConfigError(f"max_steps {max_steps} must be at least 1")
    history = []
    for step in range(1, max_steps + 1):
        report = poisson.solve_problem(mesh, problem, solver=solver,
                                       workers=workers)
        errors = estimate(mesh, problem, workers)
        exact = None
        if problem.nexact:
            exact = poisson.compute_exact_error(mesh, problem)[0]
        est = float(np.sqrt(errors.error_glob))
        row = HistoryRow(step=step, nreles=mesh.NRELES, ndof=report.ndof,
                         estimator=est, exact_error=exact)
        history.append(row)
        if on_step is not None:
            on_step(mesh, problem, row, errors)
        if est <= tol or step == max_steps:
            break
        for mdle in mark_elements(errors, marking):
            refine_element(mesh, mdle)
        close_mesh(mesh)
        if not check_one_irregularity(mesh):
            raise MeshError("closure left the mesh more than 1-irregular")
    return history


def write_history(history, path):
    """CSV dump of the convergence table."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "nreles", "ndof", "estimator",
                         "exact_error"])
        for row in history:
            writer.writerow(row.as_csv())


def global_href(mesh):
    """Refine every active element once and close the mesh."""
    for mdle in list(mesh.ELEM_ORDER):
        if mesh.NODES[mdle].active:
            refine_element(mesh, mdle)
    close_mesh(mesh)
