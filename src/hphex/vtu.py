"""VTU and PVD export of the mesh and solution fields.

Each active element is sampled on a (2^L+1)^3 master lattice and written
as 8^L linear hexahedral sub-cells (VTK type 12) with ASCII Float64
payloads.  Points are duplicated between elements on purpose: a hanging
face then renders as two independent surfaces that coincide exactly
when the solution is conforming, so no stitching logic is needed.

Point-data arrays are named "<nickname>_<comp>"; scalar-valued spaces
(H1, L2) produce one-component arrays, vector-valued spaces (H(curl),
H(div)) three-component arrays per attribute component.
"""

from __future__ import annotations

import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from . import conformity as cf
from . import geometry as gm
from . import masterel as me
from .errors import ConfigError
from .mesh import element_info

MAX_VLEVEL = 4
_CELL_HEX = 12


@dataclass
class ParaviewConfig:
    dir: str
    vlevel: int = 0
    dump_attr: bool = True
    time: float = None
    attr_mask: tuple = None     # attribute indices to export; None = all enabled
    comp_mask: dict = None      # attr -> component indices; None = all

    def __post_init__(self):
        if not 0 <= self.vlevel <= MAX_VLEVEL:
            raise ConfigError(
                f"vlevel {self.vlevel} outside 0..{MAX_VLEVEL}")

    def selected(self, physics):
        for attr in physics.enabled_attrs():
            if self.attr_mask is not None and attr not in self.attr_mask:
                continue
            ncomp = physics.attrs[attr].ncomp
            comps = range(ncomp)
            if self.comp_mask and attr in self.comp_mask:
                comps = [c for c in self.comp_mask[attr] if 0 <= c < ncomp]
            yield attr, list(comps)


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


def _evaluate_attr(mesh, mdle, attr, pts, geom):
    physics = mesh.physics
    a = physics.attrs[attr]
    space = a.fe_space
    norder, _, _, _ = element_info(mesh, mdle)
    shapes = me.shape_functions_elem(space, pts, norder)
    val, _ = gm.piola_transform(space, shapes, geom)
    coef = cf.gather_solution(mesh, mdle, attr)
    if a.is_trace:
        val = val[np.flatnonzero(np.asarray(shapes.slots) < 26)]
    out = {}
    for c in range(a.ncomp):
        if val.ndim == 2:            # scalar-valued space
            out[c] = coef[:, c] @ val
        else:                        # vector-valued space: (k, 3, q)
            out[c] = np.einsum("k,kiq->qi", coef[:, c], val)
    return out


def _fmt(arr):
    flat = np.asarray(arr, dtype=float).ravel()
    return " ".join(format(v, ".17g") for v in flat)


def export_vtu(mesh, config: ParaviewConfig, basename: str) -> str:
    """Write one .vtu snapshot; returns the file path."""
    if not os.path.isdir(config.dir):
        raise ConfigError(f"output directory {config.dir!r} does not exist")
    pts, cells = upscale_samples(config.vlevel)
    npts, ncell = pts.shape[0], cells.shape[0]
    physics = mesh.physics

    coords = []
    data = {}
    if config.dump_attr:
        for attr, comps in config.selected(physics):
            nick = physics.attrs[attr].nick
            for c in comps:
                data[(attr, c)] = (f"{nick}_{c}", [])
    for mdle in mesh.ELEM_ORDER:
        _, _, xnod, _ = element_info(mesh, mdle)
        geom = gm.element_geometry(xnod, pts)
        coords.append(geom.x)
        if config.dump_attr:
            cache = {}
            for attr, comps in config.selected(physics):
                if attr not in cache:
                    cache[attr] = _evaluate_attr(mesh, mdle, attr, pts, geom)
                for c in comps:
                    data[(attr, c)][1].append(cache[attr][c])

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
        for block in coords:
            fh.write("     " + _fmt(block) + "\n")
        fh.write('    </DataArray>\n   </Points>\n')
        fh.write('   <Cells>\n')
        fh.write('    <DataArray type="Int64" Name="connectivity" '
                 'format="ascii">\n')
        for iel in range(nel):
            fh.write("     " + " ".join(
                str(v) for v in (cells + iel * npts).ravel()) + "\n")
        fh.write('    </DataArray>\n')
        fh.write('    <DataArray type="Int64" Name="offsets" format="ascii">\n')
        offsets = 8 * np.arange(1, nel * ncell + 1)
        fh.write("     " + " ".join(str(v) for v in offsets) + "\n")
        fh.write('    </DataArray>\n')
        fh.write('    <DataArray type="UInt8" Name="types" format="ascii">\n')
        fh.write("     " + " ".join([str(_CELL_HEX)] * (nel * ncell)) + "\n")
        fh.write('    </DataArray>\n   </Cells>\n')
        fh.write('   <PointData>\n')
        for (attr, c), (name, blocks) in sorted(data.items()):
            ncomp_out = 1 if blocks[0].ndim == 1 else blocks[0].shape[1]
            fh.write(f'    <DataArray type="Float64" Name="{name}" '
                     f'NumberOfComponents="{ncomp_out}" format="ascii">\n')
            for block in blocks:
                fh.write("     " + _fmt(block) + "\n")
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
        stamp = time if time is not None else (
            config.time if config.time is not None else len(self.snapshots))
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
