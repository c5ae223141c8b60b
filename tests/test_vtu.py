import numpy as np
import pytest

from hphex import poisson, vtu
from hphex.errors import ConfigError
from hphex.mesh import close_mesh, refine_element
from hphex import conformity as cf

from conftest import grid_geometry


def solved(kind="galerkin", exact="linear", grid=(1, 1, 1), order=1):
    problem = poisson.make_problem(kind, exact=exact)
    mesh = poisson.make_mesh(problem, grid_geometry(*grid), order)
    poisson.solve_problem(mesh, problem)
    return mesh, problem


def test_upscale_counts():
    for level, (npts, ncell) in enumerate(((8, 1), (27, 8), (125, 64))):
        pts, cells = vtu.upscale_samples(level)
        assert pts.shape == (npts, 3)
        assert cells.shape == (ncell, 8)
    with pytest.raises(ConfigError):
        vtu.upscale_samples(5)


def test_lattice_cells_cover_unit_cube():
    pts, cells = vtu.upscale_samples(2)
    assert np.allclose(pts.min(axis=0), 0) and np.allclose(pts.max(axis=0), 1)
    # every sub-cell is an axis-aligned cube of side 1/4 with VTK ordering
    for cell in cells:
        corners = pts[cell]
        d = corners - corners[0]
        assert np.allclose(d[1], [0.25, 0, 0])
        assert np.allclose(d[2], [0.25, 0.25, 0])
        assert np.allclose(d[3], [0, 0.25, 0])
        assert np.allclose(d[4], [0, 0, 0.25])


def test_geometry_only_export(tmp_path):
    mesh, _ = solved()
    cfg = vtu.ParaviewConfig(dir=str(tmp_path), vlevel=0)
    path = vtu.export_vtu(mesh, cfg, "geom")
    points, cells, types, _ = vtu.read_vtu(path)
    assert points.shape == (8, 3)
    assert cells.shape == (1, 8)
    assert list(types) == [12]


def test_point_data_matches_direct_evaluation(tmp_path):
    mesh, _ = solved(grid=(2, 1, 1), order=2, exact="smooth")
    for level in (0, 1, 2):
        cfg = vtu.ParaviewConfig(dir=str(tmp_path), vlevel=level)
        path = vtu.export_vtu(mesh, cfg, f"lev{level}")
        points, cells, types, data = vtu.read_vtu(path)
        pts, _ = vtu.upscale_samples(level)
        npts = pts.shape[0]
        assert points.shape[0] == npts * mesh.NRELES
        assert set(types) == {12}
        from hphex import geometry as gm
        from hphex import masterel as me
        from hphex.mesh import element_info
        for iel, mdle in enumerate(mesh.ELEM_ORDER):
            norder, xnod, _ = element_info(mesh, mdle)
            geom = gm.element_geometry(xnod, pts)
            shp = me.shape_functions_elem(me.H1, pts, norder)
            val, _ = gm.piola_transform(me.H1, shp, geom)
            direct = cf.gather_solution(mesh, mdle, 0)[:, 0] @ val
            assert np.max(np.abs(
                data["u_0"][iel * npts:(iel + 1) * npts] - direct)) < 1e-12
            assert np.max(np.abs(
                points[iel * npts:(iel + 1) * npts] - geom.x)) < 1e-12


def test_hanging_mesh_renders_every_element(tmp_path):
    problem = poisson.make_problem("galerkin", exact="linear")
    mesh = poisson.make_mesh(problem, grid_geometry(2, 1, 1), 2)
    refine_element(mesh, 1)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    poisson.solve_problem(mesh, problem)
    cfg = vtu.ParaviewConfig(dir=str(tmp_path), vlevel=1)
    points, _, _, data = vtu.read_vtu(vtu.export_vtu(mesh, cfg, "hang"))
    assert points.shape[0] == 27 * mesh.NRELES
    # the solution is u=x everywhere, duplicated points included
    assert np.max(np.abs(data["u_0"] - points[:, 0])) < 1e-10


def test_vector_attribute_written_with_three_components(tmp_path):
    mesh, _ = solved(kind="uw", order=1)
    cfg = vtu.ParaviewConfig(dir=str(tmp_path), vlevel=0)
    _, _, _, data = vtu.read_vtu(vtu.export_vtu(mesh, cfg, "uw"))
    assert data["sight_0"].shape == (8, 3)   # H(div) trace: vector values
    assert data["u_0"].shape == (8,)
    # sigma components are scalar L2 arrays; grad(x) = (1,0,0)
    assert data["sig_0"].shape == (8,)
    assert np.max(np.abs(data["sig_0"] - 1.0)) < 1e-9
    assert np.max(np.abs(data["sig_1"])) < 1e-9


def test_missing_directory_rejected(tmp_path):
    mesh, _ = solved()
    cfg = vtu.ParaviewConfig(dir=str(tmp_path / "nope"), vlevel=0)
    with pytest.raises(ConfigError):
        vtu.export_vtu(mesh, cfg, "x")
    with pytest.raises(ConfigError):
        vtu.ParaviewConfig(dir=str(tmp_path), vlevel=9)


def test_pvd_lists_snapshots_in_order(tmp_path):
    mesh, _ = solved()
    series = vtu.PvdSeries(dir=str(tmp_path), name="run")
    cfg = vtu.ParaviewConfig(dir=str(tmp_path), vlevel=0)
    series.add(mesh, cfg, "step0", time=0.0)
    series.add(mesh, cfg, "step1", time=1.0)
    entries = vtu.read_pvd(str(tmp_path / "run.pvd"))
    assert entries == [(0.0, "step0.vtu"), (1.0, "step1.vtu")]


def test_fmt_matches_per_value_format():
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e308, -1.0, 0.1, 1 / 3, np.inf, -np.inf, np.nan]
    for block in (rng.standard_normal(81) * 10.0 ** rng.integers(-300, 300, 81),
                  rng.standard_normal((27, 3)), np.array(special),
                  rng.standard_normal(1), np.zeros(0)):
        flat = np.asarray(block, dtype=float).ravel()
        assert vtu._fmt(block) == " ".join(format(v, ".17g") for v in flat)
    ints = np.arange(-5, 70).reshape(5, 15)
    assert vtu._fmt(ints, "%d") == " ".join(str(v) for v in ints.ravel())
