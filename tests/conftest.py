import numpy as np
import pytest
from hypothesis import strategies as st

from hphex.mesh import GeometryFile, close_mesh, execute_pref, refine_element
from hphex.physics import PhysicsAttr, PhysicsTable


def grid_geometry(nx, ny, nz, lengths=(1.0, 1.0, 1.0)) -> GeometryFile:
    """Structured nx*ny*nz block of hexahedra on [0,L1]x[0,L2]x[0,L3]."""
    xs = np.linspace(0.0, lengths[0], nx + 1)
    ys = np.linspace(0.0, lengths[1], ny + 1)
    zs = np.linspace(0.0, lengths[2], nz + 1)
    points = [(x, y, z) for z in zs for y in ys for x in xs]

    def pid(i, j, k):
        return 1 + i + (nx + 1) * (j + (ny + 1) * k)

    elems = []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                elems.append([
                    pid(i, j, k), pid(i + 1, j, k),
                    pid(i + 1, j + 1, k), pid(i, j + 1, k),
                    pid(i, j, k + 1), pid(i + 1, j, k + 1),
                    pid(i + 1, j + 1, k + 1), pid(i, j + 1, k + 1),
                ])
    return GeometryFile(np.array(points, dtype=float),
                        np.array(elems, dtype=int), [])


def galerkin_physics() -> PhysicsTable:
    return PhysicsTable([PhysicsAttr("field", "contin", 1)])


def uw_physics(traces: bool = False) -> PhysicsTable:
    return PhysicsTable([
        PhysicsAttr("Ut", "contin", 1, is_trace=traces),
        PhysicsAttr("St", "normal", 1, is_trace=traces),
        PhysicsAttr("u", "discon", 1),
        PhysicsAttr("s", "discon", 3),
    ])


@pytest.fixture
def unit_cube_geo():
    return grid_geometry(1, 1, 1)


@pytest.fixture
def two_block_geo():
    return grid_geometry(2, 1, 1, lengths=(2.0, 1.0, 1.0))


def hp_ops(max_size):
    """Random refinement sequences for the hp-mesh property tests: each
    ("h" | "p", k) refines element ELEM_ORDER[k mod #elements]."""
    return st.lists(st.tuples(st.sampled_from("hp"), st.integers(0, 63)),
                    min_size=1, max_size=max_size)


def apply_hp_ops(mesh, ops):
    """h-refine (and close) or p-refine by one order, op by op."""
    for op, i in ops:
        mdle = mesh.ELEM_ORDER[i % len(mesh.ELEM_ORDER)]
        if op == "h":
            refine_element(mesh, mdle)
            close_mesh(mesh)
        else:
            execute_pref(mesh, [mdle])
