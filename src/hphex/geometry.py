"""Trilinear element geometry: maps, Jacobians, normals, Piola transforms.

Geometry degree is fixed at 1 (straight-edged hexahedra).  All routines
are batched: a "point" argument may be a single master point or an
(n, 3) array, and the returned fields carry a point dimension.  Element
maps and Piola transforms also take a stack of E elements, (E, 8, 3)
vertices, and give (E, n, ...) fields equal bit for bit to E single calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import masterel as me
from .errors import GeometryError

__all__ = ["GeometryData", "element_geometry", "face_geometry",
           "piola_transform", "piola_values"]


@dataclass
class GeometryData:
    """Geometry of a batch of points inside (or on the boundary of) one element.

    x : (n, 3) physical points
    dxdxi : (n, 3, 3) Jacobian J
    dxidx : (n, 3, 3) inverse Jacobian, computed on first read and held
        points innermost, as dxdxi is, so an einsum over it loops over points
    rjac : (n,) det J
    rn, bjac : outward unit normal (n, 3) and surface Jacobian (n,);
        present only for face points.
    """

    x: np.ndarray
    dxdxi: np.ndarray
    rjac: np.ndarray
    rn: np.ndarray | None = None
    bjac: np.ndarray | None = None

    @cached_property
    def dxidx(self) -> np.ndarray:
        inv = np.moveaxis(np.linalg.inv(self.dxdxi), -3, -1)
        return np.moveaxis(np.ascontiguousarray(inv), -1, -3)


_NORD1 = me.uniform_norder((1, 1, 1))


def element_geometry(vertex_coords, xi) -> GeometryData:
    """Evaluate the trilinear map and its Jacobian data at master points;
    a vertex stack (E, 8, 3) adds a leading element axis to every field."""
    xnod = np.asarray(vertex_coords, dtype=float)
    xnod = xnod if xnod.ndim == 3 else xnod.reshape(8, 3)
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    shp = me.shape_functions_elem(me.H1, xi, _NORD1)
    x = np.einsum("vp,...vi->...pi", shp.values, xnod)
    dxdxi = np.einsum("vjp,...vi->...pij", shp.grad, xnod)
    rjac = np.linalg.det(dxdxi)
    if np.any(rjac <= 0.0):
        bad = np.unravel_index(np.argmin(rjac), rjac.shape)
        raise GeometryError(
            f"non-positive Jacobian {rjac[bad]:.3e} at xi={tuple(xi[bad[-1]])}"
        )
    return GeometryData(x=x, dxdxi=dxdxi, rjac=rjac)


def face_geometry(vertex_coords, face: int, t) -> GeometryData:
    """Boundary geometry at face points, with outward normal and surface Jacobian."""
    xi, dxidt = me.face_param(face, t)
    geom = element_geometry(vertex_coords, xi)
    dxdt = np.einsum("pij,jk->pik", geom.dxdxi, dxidt)
    cross = np.cross(dxdt[:, :, 0], dxdt[:, :, 1]) * me.NSIGN[face - 1]
    bjac = np.linalg.norm(cross, axis=1)
    if np.any(bjac <= 0.0):
        raise GeometryError(f"degenerate face {face}: zero surface Jacobian")
    geom.rn = cross / bjac[:, None]
    geom.bjac = bjac
    return geom


def _covariant(geom: GeometryData, a) -> np.ndarray:
    """sum_j dxidx[..., p, j, i] a[..., k, j, p] as (..., k, 3, p), stored
    components innermost: later einsums sum in that memory order."""
    out = np.empty(np.broadcast_shapes(geom.dxidx.shape[:-3], a.shape[:-3])
                   + (a.shape[-3], a.shape[-1], 3)).swapaxes(-1, -2)
    return np.einsum("...pji,...kjp->...kip", geom.dxidx, a, out=out)


def piola_values(space: str, shapes: me.ShapeSet, geom: GeometryData):
    """The value part of `piola_transform`, without the derivatives."""
    if space == me.H1:
        return shapes.values
    if space == me.HCURL:
        return _covariant(geom, shapes.values)
    if space == me.HDIV:
        return np.einsum("...pij,kjp->...kip", geom.dxdxi,
                         shapes.values) / geom.rjac[..., None, None, :]
    if space == me.L2:
        return shapes.values / geom.rjac[..., None, :]
    raise GeometryError(f"unknown space {space!r}")


def piola_transform(space: str, shapes: me.ShapeSet, geom: GeometryData):
    """Push a master shape set to physical space.

    Returns (values, derivatives); the derivative slot is the gradient for
    H1, the curl for HCURL, the divergence for HDIV, and None for L2.
    Shapes and geometry must be evaluated at the same points.  Stacked
    geometry stacks every field but the H1 values (the master table).
    """
    val = piola_values(space, shapes, geom)
    rjac = geom.rjac[..., None, :]        # broadcasts over shape functions
    if space == me.H1:
        return val, _covariant(geom, shapes.grad)
    if space == me.HCURL:
        curl = np.einsum("...pij,kjp->...kip", geom.dxdxi, shapes.curl)
        return val, curl / rjac[..., None, :]
    return val, shapes.div / rjac if space == me.HDIV else None
