import numpy as np
import pytest

from hphex.mesh import GeometryFile
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


def uw_physics() -> PhysicsTable:
    return PhysicsTable([
        PhysicsAttr("Ut", "contin", 1),
        PhysicsAttr("St", "normal", 1),
        PhysicsAttr("u", "discon", 1),
        PhysicsAttr("s", "discon", 3),
    ])


@pytest.fixture
def unit_cube_geo():
    return grid_geometry(1, 1, 1)


@pytest.fixture
def two_block_geo():
    return grid_geometry(2, 1, 1, lengths=(2.0, 1.0, 1.0))
