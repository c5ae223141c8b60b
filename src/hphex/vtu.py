"""VTU and PVD export of the mesh and solution fields.

Each active element is sampled on a (2^L+1)^3 master lattice and written
as 8^L linear hexahedral sub-cells (VTK type 12) with ASCII Float64
payloads.  Points are duplicated between elements on purpose: a hanging
face then renders as two independent surfaces that coincide exactly
when the solution is conforming, so no stitching logic is needed.

Point-data arrays are named "<nickname>_<comp>"; scalar-valued spaces
(H1, L2) produce one-component arrays, vector-valued spaces (H(curl),
H(div)) three-component arrays per attribute component.  Geometry and
field values are evaluated per batch of elements that share one order
vector; the file lists elements in natural order.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from . import assembly as asm
from . import conformity as cf
from . import geometry as gm
from . import masterel as me
from .errors import ConfigError
from .mesh import element_vertices

MAX_VLEVEL = 4
_CELL_HEX = 12


@dataclass
class ParaviewConfig:
    dir: str
    vlevel: int = 0

    def __post_init__(self):
        if not 0 <= self.vlevel <= MAX_VLEVEL:
            raise ConfigError(
                f"vlevel {self.vlevel} outside 0..{MAX_VLEVEL}")


def upscale_samples(vlevel: int):
    """Master-cube lattice points and hexahedral sub-cell connectivity."""
    if not 0 <= vlevel <= MAX_VLEVEL:
        raise ConfigError(f"vlevel {vlevel} outside 0..{MAX_VLEVEL}")
    n = 2 ** vlevel + 1
    t = np.linspace(0.0, 1.0, n)
    Z, Y, X = np.meshgrid(t, t, t, indexing="ij")
    points = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def pid(i, j, k):
        return i + n * (j + n * k)

    cells = []
    for k in range(n - 1):
        for j in range(n - 1):
            for i in range(n - 1):
                cells.append([
                    pid(i, j, k), pid(i + 1, j, k),
                    pid(i + 1, j + 1, k), pid(i, j + 1, k),
                    pid(i, j, k + 1), pid(i + 1, j, k + 1),
                    pid(i + 1, j + 1, k + 1), pid(i, j + 1, k + 1),
                ])
    return points, np.asarray(cells, dtype=int)


def _evaluate_attr(mesh, mdles, norder, attr, pts, geom):
    """{comp: values} of one attribute on a batch: (E, n) for scalar
    spaces, (E, n, 3) for vector spaces."""
    a = mesh.physics.attrs[attr]
    space = a.fe_space
    shapes = me.shape_functions_elem(space, pts, norder)
    val = gm.piola_values(space, shapes, geom)
    vector = space in (me.HCURL, me.HDIV)
    axis = -3 if vector else -2         # the shape-function axis of val
    if a.is_trace:
        val = np.take(val, np.flatnonzero(np.asarray(shapes.slots) < 26), axis)
    table = val.reshape(val.shape[:axis] + (val.shape[axis], -1))
    coef = cf.gather_solution(mesh, mdles, attr)
    out = {}
    for c in range(a.ncomp):
        u = (coef[:, None, :, c] @ table)[:, 0]
        out[c] = u.reshape(len(mdles), 3, -1).swapaxes(1, 2) if vector else u
    return out


def _fmt(arr, spec="%.17g"):
    """Space-separated values, one `%` call for the whole block; floats
    print as format(v, ".17g") does."""
    flat = np.asarray(arr).ravel().tolist()
    return " ".join([spec] * len(flat)) % tuple(flat)


def export_vtu(mesh, config: ParaviewConfig, basename: str) -> str:
    """Write one .vtu snapshot; returns the file path."""
    if not os.path.isdir(config.dir):
        raise ConfigError(f"output directory {config.dir!r} does not exist")
    pts, cells = upscale_samples(config.vlevel)
    npts, ncell = pts.shape[0], cells.shape[0]
    physics = mesh.physics

    coords, data = {}, {}       # by element; data by (attr, comp) first
    # per element: the Jacobian tables and one vector shape table per point
    for norder, mdles in asm.element_batches(
            mesh, lambda norder: 8 * npts * (
                21 + 3 * int(me.layout_counts(me.H1, norder).sum()))):
        xnod = element_vertices(mesh, mdles)
        geom = gm.element_geometry(xnod, pts)
        coords.update(zip(mdles, geom.x))
        for attr in range(physics.nr_physa):
            values = _evaluate_attr(mesh, mdles, norder, attr, pts, geom)
            for c, vals in values.items():
                data.setdefault((attr, c), {}).update(zip(mdles, vals))

    nel = len(mesh.ELEM_ORDER)
    path = os.path.join(config.dir, basename + ".vtu")
    with open(path, "w") as fh:
        fh.write('<?xml version="1.0"?>\n')
        fh.write('<VTKFile type="UnstructuredGrid" version="0.1" '
                 'byte_order="LittleEndian">\n')
        fh.write(' <UnstructuredGrid>\n')
        fh.write(f'  <Piece NumberOfPoints="{nel * npts}" '
                 f'NumberOfCells="{nel * ncell}">\n')
        fh.write('   <Points>\n')
        fh.write('    <DataArray type="Float64" NumberOfComponents="3" '
                 'format="ascii">\n')
        for mdle in mesh.ELEM_ORDER:
            fh.write("     " + _fmt(coords[mdle]) + "\n")
        fh.write('    </DataArray>\n   </Points>\n')
        fh.write('   <Cells>\n')
        fh.write('    <DataArray type="Int64" Name="connectivity" '
                 'format="ascii">\n')
        for iel in range(nel):
            fh.write("     " + _fmt(cells + iel * npts, "%d") + "\n")
        fh.write('    </DataArray>\n')
        fh.write('    <DataArray type="Int64" Name="offsets" format="ascii">\n')
        offsets = 8 * np.arange(1, nel * ncell + 1)
        fh.write("     " + _fmt(offsets, "%d") + "\n")
        fh.write('    </DataArray>\n')
        fh.write('    <DataArray type="UInt8" Name="types" format="ascii">\n')
        fh.write("     " + " ".join([str(_CELL_HEX)] * (nel * ncell)) + "\n")
        fh.write('    </DataArray>\n   </Cells>\n')
        fh.write('   <PointData>\n')
        for (attr, c), blocks in sorted(data.items()):
            name = f"{physics.attrs[attr].nick}_{c}"
            ncomp_out = next(iter(blocks.values())).size // npts
            fh.write(f'    <DataArray type="Float64" Name="{name}" '
                     f'NumberOfComponents="{ncomp_out}" format="ascii">\n')
            for mdle in mesh.ELEM_ORDER:
                fh.write("     " + _fmt(blocks[mdle]) + "\n")
            fh.write('    </DataArray>\n')
        fh.write('   </PointData>\n')
        fh.write('  </Piece>\n </UnstructuredGrid>\n</VTKFile>\n')
    return path


@dataclass
class PvdSeries:
    """Time-series index; rewritten in full after every snapshot."""

    dir: str
    name: str = "series"
    snapshots: list = field(default_factory=list)

    def add(self, mesh, config: ParaviewConfig, basename: str,
            time: float = None) -> str:
        path = export_vtu(mesh, config, basename)
        stamp = time if time is not None else len(self.snapshots)
        self.snapshots.append((float(stamp), os.path.basename(path)))
        self._write_index()
        return path

    def _write_index(self) -> str:
        path = os.path.join(self.dir, self.name + ".pvd")
        with open(path, "w") as fh:
            fh.write('<?xml version="1.0"?>\n')
            fh.write('<VTKFile type="Collection" version="0.1" '
                     'byte_order="LittleEndian">\n <Collection>\n')
            for stamp, fname in self.snapshots:
                fh.write(f'  <DataSet timestep="{stamp}" group="" part="0" '
                         f'file="{fname}"/>\n')
            fh.write(' </Collection>\n</VTKFile>\n')
        return path


# ---------------------------------------------------------------------------
# reader (round-trip testing and post-processing)

def read_vtu(path):
    """Parse points, connectivity, and point-data arrays back from a file."""
    tree = ET.parse(path)
    piece = tree.getroot().find("UnstructuredGrid/Piece")
    npts = int(piece.get("NumberOfPoints"))
    ncell = int(piece.get("NumberOfCells"))

    def arr(xpath, dtype=float):
        node = piece.find(xpath)
        return np.fromstring(node.text.replace("\n", " "), sep=" ",
                             dtype=dtype)

    points = arr("Points/DataArray").reshape(npts, 3)
    conn = arr("Cells/DataArray[@Name='connectivity']", float).astype(int)
    cells = conn.reshape(ncell, 8)
    types = arr("Cells/DataArray[@Name='types']", float).astype(int)
    data = {}
    for da in piece.findall("PointData/DataArray"):
        ncomp = int(da.get("NumberOfComponents", "1"))
        vals = np.fromstring(da.text.replace("\n", " "), sep=" ")
        data[da.get("Name")] = vals.reshape(npts, ncomp) if ncomp > 1 else vals
    return points, cells, types, data


def read_pvd(path):
    """(timestep, file) entries of a PVD collection, in file order."""
    tree = ET.parse(path)
    return [(float(ds.get("timestep")), ds.get("file"))
            for ds in tree.getroot().find("Collection")]
