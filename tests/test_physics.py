import pathlib

import pytest

from hphex import physics as ph
from hphex.errors import ConfigError
from hphex.mesh import generate_initial_mesh

from conftest import galerkin_physics, grid_geometry, uw_physics

GALERKIN_FILE = """\
100000      maximum anticipated number of nodes
1           number of physics attributes
field   contin   1    H1 variable
"""

UW_FILE = """\
100000   maximum anticipated number of nodes
4        number of physics attributes
Ut   contin   1    H1 trace
St   normal   1    flux trace
u    discon   1    L2 field
s    discon   3    L2 gradient
"""


def test_read_physics_galerkin(tmp_path):
    path = tmp_path / "physics"
    path.write_text(GALERKIN_FILE)
    table = ph.read_physics(path)
    assert table.nr_physa == 1
    assert table.attrs[0].nick == "field"
    assert table.attrs[0].space == "contin"
    assert table.attrs[0].fe_space == "H1"
    assert table.nr_comp == [1]


def test_read_physics_ultraweak(tmp_path):
    path = tmp_path / "physics"
    path.write_text(UW_FILE)
    table = ph.read_physics(path)
    assert table.nr_physa == 4
    assert [a.space for a in table.attrs] == ["contin", "normal", "discon", "discon"]
    assert table.nr_comp == [1, 1, 1, 3]
    assert table.comp_offset(3) == 3
    assert table.global_comp(3, 2) == 5


def test_read_physics_out_of_order(tmp_path):
    path = tmp_path / "physics"
    path.write_text("100 x\n2 x\na discon 1\nb tangen 1\n")
    with pytest.raises(ConfigError):
        ph.read_physics(path)


@pytest.mark.parametrize("count", [0, -1])
def test_read_physics_needs_an_attribute(tmp_path, count):
    path = tmp_path / "physics"
    path.write_text(f"100 x\n{count} x\nfield contin 1\nflux normal 1\n")
    with pytest.raises(ConfigError, match=f"NR_PHYSA must be at least 1, "
                                          f"got {count}"):
        ph.read_physics(path)


def test_read_physics_malformed(tmp_path):
    path = tmp_path / "physics"
    path.write_text("100 x\n2 x\na contin 1\n")
    with pytest.raises(ConfigError):
        ph.read_physics(path)
    path.write_text("100 x\n1 x\na nowhere 1\n")
    with pytest.raises(ConfigError):
        ph.read_physics(path)


def test_read_control(tmp_path):
    path = tmp_path / "control"
    path.write_text("NEXACT 1\nEXGEOM 0\n# comment line\nISTC_FLAG 0\n")
    params = ph.read_control(path)
    assert params.nexact == 1
    assert params.istc_flag == 0
    assert params.nord_add == 1  # default when absent


def test_read_shipped_control():
    path = pathlib.Path(__file__).resolve().parents[1] / "inputs" / "control"
    params = ph.read_control(path)
    assert (params.nexact, params.nord_add, params.istc_flag) == (1, 1, 1)


def test_read_control_fixed_keys(tmp_path):
    path = tmp_path / "control"
    path.write_text("NEXACT 1\nSTORE_STC 1\nHERM_STC 0\n")
    assert ph.read_control(path).nexact == 1
    for line, key in (("STORE_STC 0", "STORE_STC"),
                      ("HERM_STC 1", "HERM_STC")):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"{key} must be .*stored"):
            ph.read_control(path)


@pytest.mark.parametrize("key, value", [("NEXACT", 7), ("ISTC_FLAG", -3)])
def test_read_control_flags_are_zero_or_one(tmp_path, key, value):
    path = tmp_path / "control"
    path.write_text(f"{key} {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be 0 or 1, got {value}"):
        ph.read_control(path)


def test_read_physics_first_line_must_be_integer(tmp_path):
    path = tmp_path / "physics"
    path.write_text(GALERKIN_FILE.replace("100000", "abc", 1))
    with pytest.raises(ConfigError, match="MAXNODS"):
        ph.read_physics(path)


def test_read_control_rejects_exact_geometry(tmp_path):
    path = tmp_path / "control"
    path.write_text("EXGEOM 1\n")
    with pytest.raises(ConfigError, match="EXGEOM must be 0: exact-geometry"):
        ph.read_control(path)


def test_read_control_unknown_key(tmp_path):
    path = tmp_path / "control"
    path.write_text("NRHS 2\n")
    with pytest.raises(ConfigError):
        ph.read_control(path)
    path.write_text("NEXACT yes\n")
    with pytest.raises(ConfigError):
        ph.read_control(path)


def test_attr_validation():
    with pytest.raises(ConfigError):
        ph.PhysicsAttr("x", "sobolev", 1)
    with pytest.raises(ConfigError):
        ph.PhysicsAttr("x", "contin", 0)
    with pytest.raises(ConfigError, match="discontinuous"):
        ph.PhysicsAttr("u", "discon", 1, is_trace=True)  # no trace
    assert ph.PhysicsAttr("Ut", "contin", 1, is_trace=True).is_trace
    assert ph.PhysicsAttr("St", "normal", 1, is_trace=True).is_trace


def test_set_bcond_dirichlet_everywhere():
    mesh = generate_initial_mesh(grid_geometry(1, 1, 1), galerkin_physics(), (2, 2, 2))
    mesh.set_boundary_flag(0, 0, 0, 1)
    mdle = mesh.ELEM_ORDER[0]
    for f in mesh.NODES[mdle].elem_nodes[20:26]:
        assert mesh.NODES[f].bcond == 1
    for nid in mesh.NODES[mdle].elem_nodes:
        assert mesh.NODES[nid].bcond & 1  # all 26 boundary entities Dirichlet


def test_set_bcond_absent_id_is_noop():
    mesh = generate_initial_mesh(grid_geometry(1, 1, 1), galerkin_physics(), (2, 2, 2))
    mesh.set_boundary_flag(7, 0, 0, 1)
    assert all(mesh.NODES[n].bcond == 0 for n in mesh.NODES[1].elem_nodes)


def test_set_bcond_rejects_custom_flag():
    mesh = generate_initial_mesh(grid_geometry(1, 1, 1), galerkin_physics(), (2, 2, 2))
    with pytest.raises(ConfigError, match="BC flag 3"):
        mesh.set_boundary_flag(0, 0, 0, 3)
    assert all(mesh.NODES[n].bcond == 0 for n in mesh.NODES[1].elem_nodes)


def test_set_bcond_flag_zero_clears_every_mask():
    mesh = generate_initial_mesh(grid_geometry(1, 1, 1), galerkin_physics(), (2, 2, 2))
    mesh.set_boundary_flag(0, 0, 0, 1)
    assert all(mesh.NODES[n].bcond == 1 for n in mesh.NODES[1].elem_nodes)
    mesh.set_boundary_flag(0, 0, 0, 0)
    assert all(mesh.NODES[n].bcond == 0 for n in mesh.NODES[1].elem_nodes)


def test_set_bcond_per_component():
    mesh = generate_initial_mesh(grid_geometry(1, 1, 1), uw_physics(), (2, 2, 2))
    mesh.set_boundary_flag(0, 0, 0, 1)  # Dirichlet for the H1 trace only
    fid = mesh.NODES[1].elem_nodes[20]
    assert mesh.NODES[fid].bcond == 1  # bit 0 only
    with pytest.raises(ConfigError):
        mesh.set_boundary_flag(0, 0, 3, 1)
    with pytest.raises(ConfigError):
        mesh.set_boundary_flag(0, 9, 0, 1)


def test_clearing_one_boundary_keeps_its_neighbours_masks():
    geo = grid_geometry(1, 1, 1)
    geo.bfaces.append((1, 1, 2))       # face 1 (z=0) gets boundary id 2
    mesh = generate_initial_mesh(geo, galerkin_physics(), (2, 2, 2))
    mesh.set_boundary_flag(0, 0, 0, 1)
    mesh.set_boundary_flag(2, 0, 0, 1)
    mesh.set_boundary_flag(2, 0, 0, 0)
    bottom = mesh.NODES[mesh.NODES[1].elem_nodes[20]]
    assert bottom.bid == 2 and bottom.bcond == 0
    # every edge and vertex of the bottom face lies on a side face too
    for nid in bottom.verts + bottom.edges:
        assert mesh.NODES[nid].bcond == 1
