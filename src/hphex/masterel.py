"""Master hexahedron: topology tables, quadrature, and shape functions.

The reference element is the unit cube [0,1]^3.  Vertices 1..8 run
counterclockwise around the bottom quad and then the top quad:

    v1=(0,0,0) v2=(1,0,0) v3=(1,1,0) v4=(0,1,0)   bottom
    v5=(0,0,1) v6=(1,0,1) v7=(1,1,1) v8=(0,1,1)   top

Edges 1-4 bound the bottom face, 5-8 the top face, 9-12 are vertical.
Every edge is directed along a positive coordinate axis, and every face
is parametrized by the two global axes that span it, taken in x,y,z
order.  With this convention a structured hex mesh (and anything
obtained from it by the isotropic refinements implemented here) has
orientation 0 on all shared entities, which is the only orientation the
library supports.

Faces: 1 z=0, 2 z=1, 3 y=0, 4 x=1, 5 y=1, 6 x=0.

Shape functions for all four spaces of the sequence

    H1 --grad--> H(curl) --curl--> H(div) --div--> L2

are hierarchical tensor products of two 1D families, "H" = {1-s, s,
integrated Legendre of degree 2..p} and "L" = shifted Legendre of degree
0..p-1; the derivative of the first spans the second, which makes the
sequence exact by construction.  One rule gives every space.  A space is
a list of families, each naming its 1D family per axis: H1 is HHH, L2 is
LLL, the H(curl) family along axis a takes L at a and H elsewhere, and
the H(div) family along a takes H at a and L elsewhere.  A node (vertex,
edge, face, middle) spans 0..3 axes.  A fixed axis takes the node's side
as its H index (0 for 1-s, 1 for s), and a node has no function of a
family with L on a fixed axis.  A spanned axis of order p runs over the
bubbles 2..p of H or over 0..p-1 of L.

Functions come node by node (8 vertices, 12 edges, 6 faces, middle),
families in axis order, and indices lexicographic over the spanned axes,
last fastest, except that a vector family's own axis runs slowest in the
middle.  A value is the product of its x, y and z factors; the derivative
along axis d differentiates the factor on d, which gives the H1
gradient, the H(div) divergence and both terms of the H(curl) curl.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np

from .errors import ConfigError, OrderError

MAXP = 9

H1 = "H1"
HCURL = "HCURL"
HDIV = "HDIV"
L2 = "L2"
SPACES = (H1, HCURL, HDIV, L2)

# ---------------------------------------------------------------------------
# topology tables (0-based vertex/edge/face indices; docs use 1-based)

VERT_COORDS = np.array(
    [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, 1.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0),
        (0.0, 1.0, 1.0),
    ]
)

# endpoints in +axis direction
EDGE_VERTS = (
    (0, 1), (1, 2), (3, 2), (0, 3),
    (4, 5), (5, 6), (7, 6), (4, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
)
EDGE_AXIS = (0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2)

# face corner vertices in tensor order over the face axes (a1,a2):
# (0,0), (1,0), (0,1), (1,1)
FACE_VERTS = (
    (0, 1, 3, 2),
    (4, 5, 7, 6),
    (0, 1, 4, 5),
    (1, 2, 5, 6),
    (3, 2, 7, 6),
    (0, 3, 4, 7),
)
FACE_AXES = ((0, 1), (0, 1), (0, 2), (1, 2), (0, 2), (1, 2))
FACE_NORMAL_AXIS = (2, 2, 1, 0, 1, 0)
FACE_SIDE = (0, 1, 0, 1, 1, 0)
# face edges ordered [a1 at a2=0, a1 at a2=1, a2 at a1=0, a2 at a1=1]
FACE_EDGES = (
    (0, 2, 3, 1),
    (4, 6, 7, 5),
    (0, 4, 8, 9),
    (1, 5, 9, 10),
    (2, 6, 11, 10),
    (3, 7, 8, 11),
)
# sign making cross(dxi/dt1, dxi/dt2) point out of the element
NSIGN = (-1.0, 1.0, 1.0, 1.0, -1.0, -1.0)

# node slots inside an element: 0-7 vertices, 8-19 edges, 20-25 faces, 26 middle
NSLOTS = 27


# ---------------------------------------------------------------------------
# order encoding

def encode_order(px: int, py: int, pz: int) -> int:
    return 100 * px + 10 * py + pz


def decode_order(nord: int) -> tuple[int, int, int]:
    return nord // 100, (nord // 10) % 10, nord % 10


def encode_face_order(p1: int, p2: int) -> int:
    return 10 * p1 + p2


def decode_face_order(nord: int) -> tuple[int, int]:
    return nord // 10, nord % 10


def check_order_triple(order) -> tuple[int, int, int]:
    """Accept an (px,py,pz) triple or its 100px+10py+pz encoding."""
    if np.isscalar(order):
        order = decode_order(int(order))
    px, py, pz = (int(p) for p in order)
    for p in (px, py, pz):
        if not 1 <= p <= MAXP:
            raise OrderError(f"order {order} outside [1,{MAXP}]")
    return px, py, pz


def uniform_norder(order) -> list[int]:
    """19-entry order vector (12 edges, 6 faces, middle) at a uniform triple."""
    px, py, pz = check_order_triple(order)
    p = (px, py, pz)
    norder = [p[EDGE_AXIS[i]] for i in range(12)]
    norder += [encode_face_order(p[a1], p[a2]) for a1, a2 in FACE_AXES]
    norder.append(encode_order(px, py, pz))
    return norder


# ---------------------------------------------------------------------------
# quadrature

class QuadratureRule3D:
    """Tensor Gauss-Legendre rule on the master cube.

    Attributes
    ----------
    points : (n, 3) array in [0,1]^3
    weights : (n,) array, positive, summing to 1
    """

    def __init__(self, points, weights):
        self.points = points
        self.weights = weights

    def __len__(self):
        return len(self.weights)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def gauss_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes/weights on [0,1] (cached, read-only)."""
    if not 1 <= n <= 16:
        raise ConfigError(f"quadrature count {n} outside [1,16]")
    t, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (t + 1.0)), _read_only(0.5 * w)


@lru_cache(maxsize=128)
def _tensor_gauss(counts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule over len(counts) axes: ((n, d) points, weights)."""
    xs, ws = zip(*(gauss_1d(c) for c in counts))
    grids = np.meshgrid(*xs, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    w = reduce(np.multiply.outer, ws).ravel()
    return _read_only(pts), _read_only(w)


def gauss_quadrature_2d(counts) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule on the unit square; returns ((n,2) points, weights)."""
    return _tensor_gauss((int(counts[0]), int(counts[1])))


def gauss_quadrature_3d(counts) -> QuadratureRule3D:
    return QuadratureRule3D(*_tensor_gauss(
        (int(counts[0]), int(counts[1]), int(counts[2]))))


# ---------------------------------------------------------------------------
# 1D bases

def legendre_shifted(nmax: int, x: np.ndarray):
    """Shifted Legendre polynomials on [0,1].

    Returns (P, dP), each of shape (nmax, len(x)), holding values and
    first derivatives of P̂_0 .. P̂_{nmax-1}.
    """
    x = np.asarray(x, dtype=float)
    P = np.zeros((max(nmax, 1), x.size))
    dP = np.zeros_like(P)
    t = 2.0 * x - 1.0
    P[0] = 1.0
    if nmax > 1:
        P[1] = t
        dP[1] = 2.0
    for k in range(1, nmax - 1):
        P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
        dP[k + 1] = ((2 * k + 1) * (2.0 * P[k] + t * dP[k]) - k * dP[k - 1]) / (k + 1)
    return P[:nmax], dP[:nmax]


def h1_basis_1d(p: int, x: np.ndarray):
    """1D hierarchical H1 basis on [0,1]: {1-x, x, L̂_2..L̂_p}.

    L̂_n is the integrated shifted Legendre polynomial, vanishing at both
    endpoints, with L̂_n' = P̂_{n-1}.  Returns (H, dH) of shape (p+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    H = np.zeros((p + 1, x.size))
    dH = np.zeros_like(H)
    H[0] = 1.0 - x
    dH[0] = -1.0
    H[1] = x
    dH[1] = 1.0
    if p >= 2:
        P, _ = legendre_shifted(p + 1, x)
        for n in range(2, p + 1):
            H[n] = (P[n] - P[n - 2]) / (2.0 * (2 * n - 1))
            dH[n] = P[n - 1]
    return H, dH


# ---------------------------------------------------------------------------
# shape sets

class ShapeSet:
    """Evaluated shape functions of one space at a batch of points.

    values are (nrdof, npts) for scalar spaces and (nrdof, 3, npts) for
    vector spaces.  The space-appropriate derivative is stored in `grad`
    (H1), `curl` (HCURL), or `div` (HDIV); L2 has none.  `slots` maps
    each function to its element node slot (0-7 vertices, 8-19 edges,
    20-25 faces, 26 interior), which is what ties the basis ordering to
    the mesh node ordering.
    """

    def __init__(self, space, values, deriv, slots):
        for a in (values, deriv):
            if a is not None:
                a.flags.writeable = False
        self.space = space
        self.values = values
        self.slots = slots
        self.nrdof = len(slots)
        self.grad = deriv if space == H1 else None
        self.curl = deriv if space == HCURL else None
        self.div = deriv if space == HDIV else None


def _norder_parts(norder):
    edges = [int(p) for p in norder[:12]]
    faces = [decode_face_order(int(q)) for q in norder[12:18]]
    middle = decode_order(int(norder[18]))
    return edges, faces, middle


def axis_orders(norder) -> tuple[int, int, int]:
    """Highest order per reference axis over the edges, faces and middle."""
    edges, fcs, middle = _norder_parts(norder)
    pmax = list(middle)
    for e in range(12):
        ax = EDGE_AXIS[e]
        pmax[ax] = max(pmax[ax], edges[e])
    for f in range(6):
        a1, a2 = FACE_AXES[f]
        pmax[a1] = max(pmax[a1], fcs[f][0])
        pmax[a2] = max(pmax[a2], fcs[f][1])
    for p in pmax:
        if not 1 <= p <= MAXP:
            raise OrderError(f"order {p} outside [1,{MAXP}]")
    return tuple(pmax)


# (slot, spanned axes, first vertex) of the 27 element nodes; the first
# vertex gives the side of each fixed axis
_ENTITIES = ([(v, (), v) for v in range(8)]
             + [(8 + e, (EDGE_AXIS[e],), EDGE_VERTS[e][0]) for e in range(12)]
             + [(20 + f, FACE_AXES[f], FACE_VERTS[f][0]) for f in range(6)]
             + [(26, (0, 1, 2), 0)])

# (family axis, 1D family per axis) of each shape family of a space
_FAMILIES = {H1: ((None, "HHH"),), L2: ((None, "LLL"),),
             HCURL: ((0, "LHH"), (1, "HLH"), (2, "HHL")),
             HDIV: ((0, "HLL"), (1, "LHL"), (2, "LLH"))}


@lru_cache(maxsize=1024)
def _recipe(space: str, norder: tuple):
    """Per-axis maximum order and read-only (slots, families, indices):
    families are None in the scalar spaces, indices are (nrdof, 3)."""
    pmax = axis_orders(norder)
    if space not in _FAMILIES:
        raise ConfigError(f"unknown space {space!r}")
    edges, faces, middle = _norder_parts(norder)
    orders = [()] * 8 + [(p,) for p in edges] + faces + [middle]
    rows = []
    for (slot, axes, v), ords in zip(_ENTITIES, orders):
        span = dict(zip(axes, ords))
        side = [int(c) for c in VERT_COORDS[v]]
        for ax, letters in _FAMILIES[space]:
            if any(letters[d] == "L" for d in range(3) if d not in span):
                continue
            # lexicographic, but a middle node's family axis runs slowest
            run = sorted(span, key=lambda d: (slot == 26 and d != ax, d))
            ranges = [range(span[d]) if letters[d] == "L"
                      else range(2, span[d] + 1) for d in run]
            for ns in itertools.product(*ranges):
                i = list(side)
                for d, n in zip(run, ns):
                    i[d] = n
                rows.append((slot, ax, *i))
    slots = np.array([r[0] for r in rows], dtype=int)
    fam = None if space in (H1, L2) else _read_only(
        np.array([r[1] for r in rows], dtype=int))
    idx = np.array([r[2:] for r in rows], dtype=int).reshape(-1, 3)
    return pmax, _read_only(slots), fam, _read_only(idx)


@lru_cache(maxsize=1024)
def _axis_bases(p: int, column: bytes):
    """Read-only (H, dH, P, dP) of order p at one float64 coordinate column.

    The bases are elementwise in x, so the rows of a column equal, bit
    for bit, those evaluated at each of its points alone.
    """
    x = np.frombuffer(column)
    H, dH = h1_basis_1d(p, x)
    P, dP = legendre_shifted(p, x)
    return tuple(_read_only(a) for a in (H, dH, P, dP))


@lru_cache(maxsize=1024)
def _groups(space: str, norder: tuple):
    """`_recipe(space, norder)` by family: pmax, slots, families, and per
    family its axis, its rows (all rows in a scalar space) and per axis
    (offset of its 1D family in (H, dH, P, dP), index column)."""
    pmax, slots, fam, idx = _recipe(space, norder)
    groups = []
    for ax, letters in _FAMILIES[space]:
        sel = (slice(None) if fam is None
               else _read_only(np.flatnonzero(fam == ax)))
        groups.append((ax, sel, tuple(
            (2 * (c == "L"), _read_only(idx[sel, d].copy()))
            for d, c in enumerate(letters))))
    return pmax, slots, fam, tuple(groups)


def shape_functions_elem(space: str, xi, norder) -> ShapeSet:
    """Variable-order shape set for one element (19-entry order vector).

    This is the engine behind `shape_functions`; element routines call it
    directly so that edge/face orders below the interior order select the
    matching hierarchical subset.  Three caches sit underneath: `_recipe`
    holds the function indices per (space, norder), `_groups` splits them
    by family, and `_axis_bases` holds the 1D bases per (order, coordinate
    column), so each point set's bases are evaluated once.  The 3D
    products are formed on every call, so no 3D table is held.  All
    returned arrays are read-only.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    npts = xi.shape[0]
    pmax, slots, fam, groups = _groups(space, tuple(int(q) for q in norder))
    bases = [_axis_bases(pmax[d], xi[:, d].tobytes()) for d in range(3)]
    nf = len(slots)
    vals = None if fam is None else np.zeros((nf, 3, npts))
    deriv = None if fam is None else np.zeros(
        (nf, 3, npts) if space == HCURL else (nf, npts))
    for ax, sel, cols in groups:
        f = [bases[d][k][r] for d, (k, r) in enumerate(cols)]

        def times(d):
            """x * y * z, left to right, with the factor on axis d
            differentiated (a product of two commutes bit for bit)."""
            k, r = cols[d]
            if d == 2:
                xy = f[0] * f[1]
                xy *= bases[2][k + 1][r]
                return xy
            t = bases[d][k + 1][r]
            t *= f[1 - d]
            t *= f[2]
            return t

        # L2 needs no factor afterwards, so its x table takes the product
        value = np.multiply(f[0], f[1], out=f[0] if space == L2 else None)
        value *= f[2]
        if fam is None:
            vals = value
            # the gradient is allocated after the value: allocated first,
            # large H1 calls took extra page faults
            if space == H1:
                deriv = np.empty((nf, 3, npts))
        else:
            vals[sel, ax] = value
        if space == H1:
            for d in range(3):
                deriv[:, d] = times(d)
        elif space == HDIV:
            deriv[sel] = times(ax)
        elif space == HCURL:  # curl(g e_ax) = d_b g e_a - d_a g e_b, cyclic
            a, b = (ax + 1) % 3, (ax + 2) % 3
            deriv[sel, a] += times(b)
            deriv[sel, b] -= times(a)
    return ShapeSet(space, vals, deriv, slots)


def shape_functions(space, xi, order) -> ShapeSet:
    """Shape set at a uniform order triple."""
    return shape_functions_elem(space, xi, uniform_norder(order))


def dof_count(space: str, order) -> int:
    px, py, pz = check_order_triple(order)
    if space == H1:
        return (px + 1) * (py + 1) * (pz + 1)
    if space == HCURL:
        return px * (py + 1) * (pz + 1) + (px + 1) * py * (pz + 1) + (px + 1) * (py + 1) * pz
    if space == HDIV:
        return (px + 1) * py * pz + px * (py + 1) * pz + px * py * (pz + 1)
    if space == L2:
        return px * py * pz
    raise ConfigError(f"unknown space {space!r}")


def layout_counts(space: str, norder, include_middle: bool = True) -> np.ndarray:
    """Per-slot dof counts (length 27) for one scalar component, counted
    from the shape recipe."""
    slots = _recipe(space, tuple(int(q) for q in norder))[1]
    counts = np.bincount(slots, minlength=NSLOTS)
    if not include_middle:
        counts[26] = 0
    return counts


def face_param(face: int, t):
    """Embed face-local coordinates into the cube.

    Parameters
    ----------
    face : 1..6
    t : (n, 2) or (2,) points on the unit square

    Returns
    -------
    xi : (n, 3) points, dxidt : (3, 2) constant tangent matrix
    """
    if not 1 <= face <= 6:
        raise ConfigError(f"face index {face} outside 1..6")
    t = np.atleast_2d(np.asarray(t, dtype=float))
    f = face - 1
    a1, a2 = FACE_AXES[f]
    xi = np.zeros((t.shape[0], 3))
    xi[:, FACE_NORMAL_AXIS[f]] = FACE_SIDE[f]
    xi[:, a1] = t[:, 0]
    xi[:, a2] = t[:, 1]
    dxidt = np.zeros((3, 2))
    dxidt[a1, 0] = 1.0
    dxidt[a2, 1] = 1.0
    return xi, dxidt
