import ctypes

import numpy as np
import pytest

from hphex import adapt, poisson
from hphex import conformity as cf
from hphex.errors import ConfigError, MeshError
from hphex.mesh import (check_one_irregularity, close_mesh, refine_element,
                        traverse_active)

from conftest import grid_geometry


def summary(vals, mdles=None):
    vals = np.asarray(vals, dtype=float)
    if mdles is None:
        mdles = list(range(1, len(vals) + 1))
    return adapt.ErrorSummary(mdles, vals)


# ---------------------------------------------------------------------------
# marking


def test_greedy_frozen_example():
    marked = adapt.mark_elements(summary([4, 3, 2, 1]),
                                 adapt.MarkingConfig("greedy", 0.6))
    assert marked == [1, 2]   # indicators 4 and 3


def test_doerfler_frozen_example():
    marked = adapt.mark_elements(summary([4, 3, 2, 1]),
                                 adapt.MarkingConfig("doerfler", 0.5))
    assert marked == [1, 2]   # 4 <= 5 < 4+3


def test_doerfler_all_equal_perc_one_marks_all():
    marked = adapt.mark_elements(summary([2, 2, 2, 2]),
                                 adapt.MarkingConfig("doerfler", 1.0))
    assert len(marked) == 4


def test_doerfler_tie_break_ascending_id():
    marked = adapt.mark_elements(summary([3, 3, 1], mdles=[9, 2, 5]),
                                 adapt.MarkingConfig("doerfler", 0.5))
    assert marked == [2, 9]


def test_marking_oracles_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        vals = rng.random(n)
        perc = float(rng.uniform(0.05, 1.0))
        s = summary(vals)
        greedy = set(adapt.mark_elements(
            s, adapt.MarkingConfig("greedy", perc)))
        assert greedy == {i + 1 for i in range(n)
                          if vals[i] > perc * vals.max()}
        marked = adapt.mark_elements(
            s, adapt.MarkingConfig("doerfler", perc))
        total = sum(vals[m - 1] for m in marked)
        if total <= perc * vals.sum():        # all-marked fallback only
            assert len(marked) == n
        elif len(marked) > 1:                 # minimality of the prefix
            assert total - vals[marked[-1] - 1] <= perc * vals.sum()


def test_marking_validation():
    with pytest.raises(ConfigError):
        adapt.MarkingConfig("newest-vertex", 0.5)
    with pytest.raises(ConfigError):
        adapt.MarkingConfig("greedy", 0.0)
    with pytest.raises(MeshError):
        adapt.mark_elements(summary([]), adapt.MarkingConfig())


def test_summary_consistency():
    s = summary([1.0, 2.0, 3.5])
    assert s.error_max == 3.5
    assert abs(s.error_glob - 6.5) < 1e-12 * 6.5


# ---------------------------------------------------------------------------
# driver


def test_loop_returns_after_one_step_for_huge_tol():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 2), 1)
    history = adapt.adaptive_loop(mesh, problem, adapt.MarkingConfig(),
                                  tol=1e9, max_steps=5)
    assert len(history) == 1
    assert mesh.NRELES == 8


def test_loop_respects_max_steps():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(1, 1, 1), 1)
    history = adapt.adaptive_loop(mesh, problem, adapt.MarkingConfig(),
                                  tol=0.0, max_steps=3)
    assert len(history) == 3
    assert history[0].nreles < history[-1].nreles


def test_loop_galerkin_without_exact_rejected():
    problem = poisson.make_problem("galerkin", exact=None)
    mesh = poisson.make_mesh(problem, grid_geometry(1, 1, 1), 1)
    with pytest.raises(ConfigError):
        adapt.adaptive_loop(mesh, problem, adapt.MarkingConfig(), 1e-6, 2)


def test_loop_keeps_mesh_consistent():
    problem = poisson.make_problem("primal", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 2, 2), 1)
    history = adapt.adaptive_loop(
        mesh, problem, adapt.MarkingConfig("doerfler", 0.3),
        tol=1e-12, max_steps=3)
    assert check_one_irregularity(mesh)
    order = traverse_active(mesh)
    assert order == mesh.ELEM_ORDER and len(order) == mesh.NRELES
    assert history[-1].estimator < history[0].estimator


def test_threaded_estimate_matches_serial():
    problem = poisson.make_problem("uw", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 1, 1), 1)
    refine_element(mesh, 1)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    poisson.solve_problem(mesh, problem)
    serial = adapt.estimate(mesh, problem, workers=1)
    threaded = adapt.estimate(mesh, problem, workers=2)
    assert threaded.mdles == serial.mdles
    assert np.array_equal(threaded.indicators, serial.indicators)


def _openblas_threads():
    """Thread count of every OpenBLAS this process has loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return []
    counts = []
    for lib in map(ctypes.CDLL, libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                counts.append(getattr(lib, sym)())
    return counts


def test_estimate_runs_blas_on_one_thread_and_restores_it(monkeypatch):
    problem = poisson.make_problem("uw", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 1, 1), 1)
    poisson.solve_problem(mesh, problem)
    before = _openblas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded")
    seen, residual = [], poisson.elem_residual

    def spy(*args):
        seen.append(_openblas_threads())
        return residual(*args)

    monkeypatch.setattr(poisson, "elem_residual", spy)
    adapt.estimate(mesh, problem, workers=2)
    assert len(seen) == 2
    assert all(counts == [1] * len(before) for counts in seen)
    assert _openblas_threads() == before


def test_history_csv_round_trip(tmp_path):
    rows = [adapt.HistoryRow(1, 8, 27, 0.25, 0.5),
            adapt.HistoryRow(2, 15, 64, 0.125, None)]
    path = tmp_path / "history.csv"
    adapt.write_history(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,nreles,ndof,estimator,exact_error"
    assert lines[1].startswith("1,8,27,0.25,")
    assert lines[2].endswith(",")


def test_global_href_quadruples_elements():
    problem = poisson.make_problem("galerkin", exact="smooth")
    mesh = poisson.make_mesh(problem, grid_geometry(1, 1, 1), 2)
    adapt.global_href(mesh)
    assert mesh.NRELES == 8
    adapt.global_href(mesh)
    assert mesh.NRELES == 64
