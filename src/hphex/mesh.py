"""Hexahedral mesh data structure: node trees, traversal, h/p refinement.

Every topological entity (vertex, edge, face, middle) is a Node stored
in a growable table; a node's id is its index in that table, and the
middle-node id doubles as the element id.  The first NRELIS slots are
the initial elements' middle nodes, so initial element i has middle
node i.

h-refinement is isotropic only.  Refining an element splits
its edges into halves (with a midpoint vertex), its faces into
quadrants (with four interior edges and a center vertex), and the
interior into 8 octants (with 12 mid-plane faces, 6 axis edges through
the center, and the center vertex).  Shared entities are refined once
and reused by neighbors.  All derived coordinates are exact for the
trilinear geometry in use (midpoints and cell/face centers).

p-refinement reads and writes orders through one per-axis codec,
`Node.orders`.  Edge and face orders follow the minimum rule: per axis,
the least order of the active elements using the node, raised to the
father's order wherever the father is an edge or face in use.

The "natural order" of active elements is a depth-first pre-order over
the middle-node forest, initial elements first, sons in octant order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import masterel as me
from .errors import (
    ConfigError,
    GeometryError,
    MeshError,
    OrderError,
    OrientationError,
)
from .geometry import element_geometry

VERTEX, EDGE, FACE, MIDDLE = "VERTEX", "EDGE", "FACE", "MIDDLE"
# per kind, masterel's order encoding; an edge's order is its one axis order
_DECODE = {VERTEX: lambda order: (), EDGE: lambda order: (order,),
           FACE: me.decode_face_order, MIDDLE: me.decode_order}
_ENCODE = {VERTEX: lambda: 0, EDGE: lambda p: p,
           FACE: me.encode_face_order, MIDDLE: me.encode_order}


class Node:
    """One mesh entity.  Sons layouts by kind:

    EDGE   : [low half, high half, midpoint vertex]
    FACE   : [4 quadrants (tensor order), 4 interior edges
              (along axis1 low/high, along axis2 low/high), center vertex]
    MIDDLE : sons = 8 octant middles (vertex order); the interior
             entities live in `interior` = [12 mid-plane faces
             (x-plane 4, y-plane 4, z-plane 4, each in tensor order),
             6 axis edges (x low/high, y low/high, z low/high),
             center vertex]
    """

    __slots__ = (
        "id", "kind", "order", "active", "father", "sons", "interior",
        "bcond", "coords", "verts", "edges", "elem_nodes", "bid", "dofs",
    )

    def __init__(self, nid, kind, order=0, father=0):
        self.id = nid
        self.kind = kind
        self.order = order
        self.active = True
        self.father = father
        self.sons = []
        self.interior = []
        self.bcond = 0
        self.coords = None
        self.verts = ()
        self.edges = ()
        self.elem_nodes = ()
        self.bid = None
        self.dofs = None

    @property
    def orders(self) -> tuple:
        """Per-axis orders, decoded from `order` by kind: () for a vertex,
        (p,) for an edge, (p1, p2) over a face's two axes, (px, py, pz)
        for a middle node."""
        return _DECODE[self.kind](self.order)

    @orders.setter
    def orders(self, orders):
        """Encode per-axis orders into `order`; the dofs are dropped only
        when the order changes."""
        new = _ENCODE[self.kind](*orders)
        if new != self.order:
            self.order, self.dofs = new, None

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "act" if self.active else "ref"
        return f"<Node {self.id} {self.kind} p={self.order} {state}>"


@dataclass
class GeometryFile:
    points: np.ndarray     # (npoints, 3)
    elems: np.ndarray      # (nelems, 8) one-based point indices
    bfaces: list           # (elem, face 1..6, boundary id)


def read_geometry(path) -> GeometryFile:
    """Parse the hexahedral-mesh geometry file (see module grammar)."""
    with open(path) as fh:
        toks = fh.read().split()
    pos = 0

    def take(n=1):
        nonlocal pos
        if pos + n > len(toks):
            raise MeshError(f"{path}: truncated geometry file")
        out = toks[pos:pos + n]
        pos += n
        return out

    def ints(n, what):
        try:
            return [int(t) for t in take(n)]
        except ValueError as exc:
            raise MeshError(f"{path}: bad {what}: {exc}") from None

    def count(keyword):
        kw, tok = take(2)
        if kw != keyword:
            raise MeshError(f"{path}: expected {keyword}")
        try:
            n = int(tok)
        except ValueError:
            raise MeshError(f"{path}: {keyword} must be an integer, "
                            f"got {tok!r}") from None
        if n < 0:
            raise MeshError(f"{path}: {keyword} {n} is negative")
        return n

    kw, ver = take(2)
    if kw != "HEXMESH" or ver != "1":
        raise MeshError(f"{path}: expected 'HEXMESH 1' header, got {kw!r} {ver!r}")
    npts = count("NPOINTS")
    try:
        points = np.array([float(t) for t in take(3 * npts)]).reshape(npts, 3)
    except ValueError as exc:
        raise MeshError(f"{path}: bad coordinate: {exc}")
    nel = count("NELEMS")
    elems = np.array(ints(8 * nel, "point index"), dtype=int).reshape(nel, 8)
    if (elems < 1).any() or (elems > npts).any():
        raise MeshError(f"{path}: point index outside 1..{npts}")
    nbf = count("NBFACES")
    raw = ints(3 * nbf, "boundary face entry")
    bfaces = [(raw[3 * i], raw[3 * i + 1], raw[3 * i + 2]) for i in range(nbf)]
    for el, fc, bid in bfaces:
        if not 1 <= el <= nel:
            raise MeshError(f"{path}: boundary face references element {el}")
        if not 1 <= fc <= 6:
            raise MeshError(f"{path}: face index {fc} outside 1..6")
        if not 0 <= bid <= 9:
            raise MeshError(f"{path}: boundary id {bid} outside 0..9")
    return GeometryFile(points, elems, bfaces)


class Mesh:
    def __init__(self, physics):
        self.physics = physics
        self.NODES = [None]
        self.NRELIS = 0
        self.ELEM_ORDER = []
        self.NRELES = 0
        self.revision = 0
        self._skeleton_cache = self._hanging_cache = (-1, None)
        # ((revision, dp), problem, {mdle: (stiff_all, G)}): the DPG
        # systems of the one batch the DPG builders keep, for the estimate
        self._dpg_systems = (None, None, {})

    # -- node table ---------------------------------------------------

    def element(self, mdle: int) -> Node:
        """The active middle node `mdle`; MeshError for any other id."""
        node = self.NODES[mdle] if 0 < mdle < len(self.NODES) else None
        if node is None or node.kind != MIDDLE or not node.active:
            raise MeshError(f"node {mdle} is not an active element")
        return node

    def _new_node(self, kind, order=0, father=0) -> Node:
        node = Node(len(self.NODES), kind, order=order, father=father)
        self.NODES.append(node)
        return node

    def _touch(self):
        self.revision += 1

    # -- queries --------------------------------------------------------

    def active_middles_scan(self) -> list:
        """Brute-force scan (used by invariants checks, not the solver path)."""
        return [n.id for n in self.NODES[1:] if n is not None
                and n.kind == MIDDLE and n.active]

    def skeleton_in_use(self) -> set:
        """Ids of all nodes referenced by active elements (including middles)."""
        rev, cached = self._skeleton_cache
        if rev == self.revision:
            return cached
        used = set()
        for mdle in self.ELEM_ORDER:
            used.update(self.NODES[mdle].elem_nodes)
            used.add(mdle)
        self._skeleton_cache = (self.revision, used)
        return used

    def hanging_nodes(self) -> np.ndarray:
        """Read-only bool per node id, cached per revision: the node's father
        is an edge or face in use by an active element (it is constrained)."""
        if self._hanging_cache[0] != self.revision:
            in_use = np.zeros(len(self.NODES), dtype=bool)
            in_use[list(self.skeleton_in_use())] = True
            in_use[1:] &= [n.kind in (EDGE, FACE) for n in self.NODES[1:]]
            father = [0] + [n.father for n in self.NODES[1:]]
            self._hanging_cache = (self.revision, me._read_only(in_use[father]))
        return self._hanging_cache[1]

    def vertex_coords(self, vids) -> np.ndarray:
        return np.array([self.NODES[v].coords for v in vids])

    # -- boundary conditions ---------------------------------------------

    def set_boundary_flag(self, boundary_id: int, attr: int, comp: int, flag: int):
        """Make one component Dirichlet (flag 1) or free (flag 0) on every
        exterior face with this boundary id.

        Bit `global_comp(attr, comp)` of an exterior face's `bcond` is the
        boundary-condition record.  Vertex and edge masks are then
        rederived as the OR over the exterior faces that hold them.
        """
        if flag not in (0, 1):
            raise ConfigError(f"BC flag {flag} must be 0 (free) or 1 (Dirichlet)")
        bit = 1 << self.physics.global_comp(attr, comp)
        for node in self.NODES[1:]:
            if node.kind in (VERTEX, EDGE):
                node.bcond = 0
        for face in self.NODES[1:]:
            if face.kind != FACE or face.bid is None:
                continue
            if face.bid == boundary_id:
                face.bcond = face.bcond | bit if flag else face.bcond & ~bit
            for nid in face.verts + face.edges:
                self.NODES[nid].bcond |= face.bcond
        self._touch()


def generate_initial_mesh(geometry: GeometryFile, physics, initial_order,
                          bc_assignments=()) -> Mesh:
    """Build the initial mesh from a parsed geometry file.

    Orders are assigned per direction of each element's reference frame;
    shared entities take the order from the first element that creates
    them (all in-scope meshes are axis-aligned, so frames agree).
    bc_assignments is a sequence of (boundary_id, attr, comp, flag).
    """
    px, py, pz = me.check_order_triple(initial_order)
    p = (px, py, pz)
    mesh = Mesh(physics)
    nrelis = len(geometry.elems)
    if nrelis < 1:
        raise MeshError("geometry defines no elements")
    for iel in range(1, nrelis + 1):
        mesh._new_node(MIDDLE, order=me.encode_order(px, py, pz))

    vert_ids = []
    for xyz in geometry.points:
        v = mesh._new_node(VERTEX)
        v.coords = np.array(xyz, dtype=float)
        vert_ids.append(v.id)

    edge_map = {}   # sorted vert pair -> (ordered pair, id)
    face_map = {}   # sorted vert 4-tuple -> (ordered tuple, id, refs)
    for iel in range(1, nrelis + 1):
        gv = [vert_ids[ip - 1] for ip in geometry.elems[iel - 1]]
        if len(set(gv)) != 8:
            raise MeshError(f"element {iel}: repeated vertex")
        try:
            element_geometry(mesh.vertex_coords(gv), [(0.5, 0.5, 0.5)])
        except GeometryError:
            raise MeshError(f"element {iel}: inverted or degenerate vertex order")

        ledges = []
        for e in range(12):
            a, b = gv[me.EDGE_VERTS[e][0]], gv[me.EDGE_VERTS[e][1]]
            key = (min(a, b), max(a, b))
            hit = edge_map.get(key)
            if hit is None:
                node = mesh._new_node(EDGE, order=p[me.EDGE_AXIS[e]])
                node.verts = (a, b)
                edge_map[key] = ((a, b), node.id)
                ledges.append(node.id)
            else:
                if hit[0] != (a, b):
                    raise OrientationError(
                        f"element {iel}: edge {key} traversed in opposite "
                        "directions by neighboring elements"
                    )
                ledges.append(hit[1])

        lfaces = []
        for f in range(6):
            quad = tuple(gv[i] for i in me.FACE_VERTS[f])
            key = tuple(sorted(quad))
            a1, a2 = me.FACE_AXES[f]
            hit = face_map.get(key)
            if hit is None:
                node = mesh._new_node(FACE, order=me.encode_face_order(p[a1], p[a2]))
                node.verts = quad
                node.edges = tuple(ledges[e] for e in me.FACE_EDGES[f])
                face_map[key] = (quad, node.id, [(iel, f + 1)])
                lfaces.append(node.id)
            else:
                if hit[0] != quad:
                    raise OrientationError(
                        f"element {iel} face {f + 1}: vertex order disagrees "
                        "with the neighbor sharing it"
                    )
                if len(hit[2]) >= 2:
                    raise MeshError(f"face {key} shared by more than 2 elements")
                hit[2].append((iel, f + 1))
                lfaces.append(hit[1])

        mesh.NODES[iel].elem_nodes = tuple(gv + ledges + lfaces)

    listed = {(el, fc): bid for el, fc, bid in geometry.bfaces}
    for quad, fid, refs in face_map.values():
        if len(refs) == 2:
            (ela, fa), (elb, fb) = refs
            if (ela, fa) in listed or (elb, fb) in listed:
                raise MeshError(
                    f"interior face between elements {ela} and {elb} listed "
                    "as a boundary face"
                )
        else:
            mesh.NODES[fid].bid = listed.pop(refs[0], 0)
    if listed:
        raise MeshError(f"boundary faces not on the mesh boundary: {sorted(listed)}")

    mesh.NRELIS = nrelis
    mesh.ELEM_ORDER = list(range(1, nrelis + 1))
    mesh.NRELES = nrelis
    mesh._touch()
    for bid, attr, comp, flag in bc_assignments:
        mesh.set_boundary_flag(bid, attr, comp, flag)
    return mesh


# ---------------------------------------------------------------------------
# refinement

def _refine_edge(mesh: Mesh, eid: int):
    edge = mesh.NODES[eid]
    if edge.sons:
        return
    va, vb = edge.verts
    mid = mesh._new_node(VERTEX, father=eid)
    mid.coords = 0.5 * (mesh.NODES[va].coords + mesh.NODES[vb].coords)
    lo = mesh._new_node(EDGE, order=edge.order, father=eid)
    hi = mesh._new_node(EDGE, order=edge.order, father=eid)
    lo.verts, hi.verts = (va, mid.id), (mid.id, vb)
    for son in (lo, hi, mid):
        son.bcond = edge.bcond
    edge.sons, edge.active = [lo.id, hi.id, mid.id], False


# Face refinement pool: the 4 vertices, the (low half, high half,
# midpoint) of the bottom, top, left and right edges, then the new center
# vertex and interior edges (along axis 1 low/high, along axis 2 low/high).
_FACE_IEDGE_VERTS = ((12, 16), (16, 15), (6, 16), (16, 9))
_QUAD_VERTS = ((0, 6, 12, 16), (6, 1, 16, 15), (12, 16, 2, 9), (16, 15, 9, 3))
_QUAD_EDGES = ((4, 17, 10, 19), (5, 18, 19, 13), (17, 7, 11, 20), (18, 8, 20, 14))


def _refine_face(mesh: Mesh, fid: int):
    face = mesh.NODES[fid]
    if face.sons:
        return
    for eid in face.edges:
        if not mesh.NODES[eid].sons:
            raise MeshError(f"face {fid}: edge {eid} not refined first")
    first = len(mesh.NODES)
    pool = list(face.verts) + [s for e in face.edges for s in mesh.NODES[e].sons]
    pool += range(first, first + 5)
    p1, p2 = face.orders

    ctr = mesh._new_node(VERTEX, father=fid)
    ctr.coords = 0.25 * sum(mesh.NODES[v].coords for v in face.verts)
    for order, verts in zip((p1, p1, p2, p2), _FACE_IEDGE_VERTS):
        mesh._new_node(EDGE, order=order, father=fid).verts = tuple(
            pool[v] for v in verts)
    for verts, edges in zip(_QUAD_VERTS, _QUAD_EDGES):
        q = mesh._new_node(FACE, order=face.order, father=fid)
        q.verts, q.edges = tuple(pool[v] for v in verts), tuple(pool[e] for e in edges)
        q.bid = face.bid
    face.sons = list(range(first + 5, first + 9)) + list(range(first + 1, first + 5)) + [first]
    for nid in face.sons:
        mesh.NODES[nid].bcond = face.bcond
    face.active = False


def _others(ax):
    return tuple(a for a in range(3) if a != ax)


# Where the nodes made by refining a middle node come from.  Positions
# index a per-element pool: the 8 vertices, the 3 sons of each of the 12
# edges, the 9 sons of each of the 6 faces, then the new nodes in
# creation order (center vertex, 6 axis edges, 12 mid-plane faces).  An
# entity is named by its center d on the doubled son lattice {0..4}^3:
# its odd coordinates are its axes, and with its coordinates inside the
# father (1..3) set to 2 it names the father entity it lies in.
_POOL_EDGE, _POOL_FACE, _POOL_NEW = 8, 44, 98
_UNIT, _VC = np.eye(3, dtype=int), me.VERT_COORDS.astype(int)
_FATHER = {**{tuple(4 * _VC[v]): (v, None) for v in range(8)},
           **{tuple(2 * (_VC[a] + _VC[b])): (e, 3) for e, (a, b)
              in enumerate(me.EDGE_VERTS)},
           **{tuple(_VC[list(q)].sum(0)): (f, 9) for f, q in enumerate(me.FACE_VERTS)}}
_EDGE_SON = {1: 0, 3: 1, 2: 2}
_FACE_SON = {(1, 1): 0, (3, 1): 1, (1, 3): 2, (3, 3): 3, (1, 2): 4, (3, 2): 5,
             (2, 1): 6, (2, 3): 7, (2, 2): 8}


def _pool_index(d):
    inner = [a for a in range(3) if 0 < d[a] < 4]
    odd = [a for a in range(3) if d[a] % 2]
    if len(inner) == 3:
        if len(odd) == 1:
            return _POOL_NEW + 1 + 2 * odd[0] + d[odd[0]] // 2
        if len(odd) == 2:
            return (_POOL_NEW + 7 + 4 * (3 - sum(odd)) + d[odd[0]] // 2
                    + 2 * (d[odd[1]] // 2))
        return _POOL_NEW
    i, nsons = _FATHER[tuple(2 if a in inner else d[a] for a in range(3))]
    if nsons == 3:
        return _POOL_EDGE + 3 * i + _EDGE_SON[d[inner[0]]]
    if nsons == 9:
        return _POOL_FACE + 9 * i + _FACE_SON[tuple(d[a] for a in me.FACE_AXES[i])]
    return i


def _corners(d):
    """Centers of an entity's vertices, in tensor order over its axes."""
    out = [d]
    for a in [a for a in range(3) if d[a] % 2]:
        out = [c + s * _UNIT[a] for s in (-1, 1) for c in out]
    return out


def _lattice_tables():
    """Pool positions of the axis edges' and mid-plane faces' vertices,
    the mid-plane faces' edges, and the sons' 26 nodes."""
    center = np.array([2, 2, 2])
    iedges = [center + s * _UNIT[ax] for ax in range(3) for s in (-1, 1)]
    ifaces = [center + (2 * s1 - 1) * _UNIT[o1] + (2 * s2 - 1) * _UNIT[o2]
              for o1, o2 in (_others(m) for m in range(3))
              for s2 in (0, 1) for s1 in (0, 1)]
    iface_edges = [[d - _UNIT[a2], d + _UNIT[a2], d - _UNIT[a1], d + _UNIT[a1]]
                   for d in ifaces
                   for a1, a2 in [[a for a in range(3) if d[a] % 2]]]
    sons = [[o + 2 * v for v in _VC]
            + [o + 2 * _VC[a] + _UNIT[me.EDGE_AXIS[e]]
               for e, (a, _) in enumerate(me.EDGE_VERTS)]
            + [o + 1 + (2 * me.FACE_SIDE[f] - 1) * _UNIT[me.FACE_NORMAL_AXIS[f]]
               for f in range(6)] for o in 2 * _VC]
    return tuple(np.array([[_pool_index(d) for d in row] for row in rows])
                 for rows in ([_corners(d) for d in iedges],
                              [_corners(d) for d in ifaces], iface_edges, sons))


_IEDGE_VERTS, _IFACE_VERTS, _IFACE_EDGES, _SON_NODES = _lattice_tables()


def _refine_middle(mesh: Mesh, mdle: int):
    """Make the center vertex, the 6 axis edges, the 12 mid-plane faces
    and the 8 sons of an element whose edges and faces are refined,
    reading every son entity off the lattice tables."""
    node = mesh.NODES[mdle]
    gv = node.elem_nodes[0:8]
    p = node.orders
    first = len(mesh.NODES)
    pool = np.array(list(gv) + [s for n in node.elem_nodes[8:26] for s in
                                mesh.NODES[n].sons] + list(range(first, first + 19)))

    ctr = mesh._new_node(VERTEX, father=mdle)
    ctr.coords = 0.125 * sum(mesh.NODES[v].coords for v in gv)
    for j, verts in enumerate(pool[_IEDGE_VERTS].tolist()):
        mesh._new_node(EDGE, order=p[j // 2], father=mdle).verts = tuple(verts)
    forder = [me.encode_face_order(*(p[a] for a in _others(ax))) for ax in range(3)]
    for j, (verts, edges) in enumerate(zip(pool[_IFACE_VERTS].tolist(),
                                           pool[_IFACE_EDGES].tolist())):
        fnode = mesh._new_node(FACE, order=forder[j // 4], father=mdle)
        fnode.verts, fnode.edges = tuple(verts), tuple(edges)
    for nodes in pool[_SON_NODES].tolist():
        mesh._new_node(MIDDLE, order=node.order, father=mdle).elem_nodes = tuple(nodes)

    node.sons = list(range(first + 19, first + 27))
    node.interior = list(range(first + 7, first + 19)) + list(
        range(first + 1, first + 7)) + [first]
    node.active = False


def refine_element(mesh: Mesh, mdle: int):
    """Split the active element `mdle` into 8 octants.

    The sons take the father's place in ELEM_ORDER, which keeps the
    pre-order of `traverse_active` without walking the trees.  A new list
    is assigned because callers may hold the old one.
    """
    node = mesh.element(mdle)
    for eid in node.elem_nodes[8:20]:
        _refine_edge(mesh, eid)
    for fid in node.elem_nodes[20:26]:
        _refine_face(mesh, fid)
    _refine_middle(mesh, mdle)
    mesh._touch()
    order = mesh.ELEM_ORDER
    i = order.index(mdle)
    mesh.ELEM_ORDER = order[:i] + node.sons + order[i + 1:]
    mesh.NRELES = len(mesh.ELEM_ORDER)


def traverse_active(mesh: Mesh) -> list:
    """Natural-order element list; refreshes ELEM_ORDER and NRELES."""
    out = []
    for iel in range(1, mesh.NRELIS + 1):
        stack = [iel]
        while stack:
            m = stack.pop()
            node = mesh.NODES[m]
            if node.active:
                out.append(m)
            else:
                stack.extend(reversed(node.sons))
    mesh.ELEM_ORDER = out
    mesh.NRELES = len(out)
    return out


def _needs_closure(mesh: Mesh, mdle: int) -> bool:
    """Some face quadrant or edge half of the element is itself refined."""
    nodes, own = mesh.NODES, mesh.NODES[mdle].elem_nodes
    return any(nodes[s].sons for fid in own[20:26] for s in nodes[fid].sons[0:4]) \
        or any(nodes[s].sons for eid in own[8:20] for s in nodes[eid].sons[0:2])


def close_mesh(mesh: Mesh):
    """Restore 1-irregularity by refining elements lagging two levels behind."""
    while True:
        marked = [m for m in mesh.ELEM_ORDER if _needs_closure(mesh, m)]
        if not marked:
            return
        for m in marked:
            if mesh.NODES[m].active:
                refine_element(mesh, m)


def check_one_irregularity(mesh: Mesh) -> bool:
    return not any(_needs_closure(mesh, m) for m in mesh.ELEM_ORDER)


# ---------------------------------------------------------------------------
# p-refinement

def global_pref(mesh: Mesh):
    """Raise every edge, face and middle order by one per axis, inactive
    nodes included, and drop every node's dofs.

    OrderError, with no node changed, if an order would pass MAXP.
    """
    for node in mesh.NODES[1:]:
        if max(node.orders, default=0) >= me.MAXP:
            raise OrderError(f"{node.kind.lower()} {node.id}: order "
                             f"{max(node.orders) + 1} outside [1,{me.MAXP}]")
    for node in mesh.NODES[1:]:
        node.orders = tuple(p + 1 for p in node.orders)
        node.dofs = None
    mesh._touch()


# per father kind, the father axes that each edge or face son spans:
# edge halves; face quadrants, then interior edges along axis 1 and axis 2
_SON_AXES = {EDGE: ((0,),) * 2, FACE: ((0, 1),) * 4 + ((0,),) * 2 + ((1,),) * 2}


def adaptive_pref(mesh: Mesh, targets):
    """Set middle orders, then edge and face orders by the minimum rule.

    Every in-use edge and face takes, per axis, the least order of the
    active elements using it.  Then every son of an in-use edge or face
    is raised, per axis, to its father's order, down the tree: a hanging
    node's expansion must reproduce the father trace exactly.  A node
    whose order changes loses its dofs; a targeted middle always does.

    `targets` holds (mdle, (px, py, pz)) pairs.  Every pair is checked
    before any node changes: MeshError for an id that is not an active
    element, OrderError for an order outside [1, MAXP].
    """
    checked = [(mesh.element(mdle), me.check_order_triple(want))
               for mdle, want in targets]
    for node, want in checked:
        node.orders, node.dofs = want, None

    least = {}
    for m in mesh.ELEM_ORDER:
        node = mesh.NODES[m]
        p = node.orders
        for slot, axes, _ in me._ENTITIES[8:26]:
            nid = node.elem_nodes[slot]
            have = least.get(nid, (me.MAXP, me.MAXP))
            least[nid] = tuple(min(p[a], q) for a, q in zip(axes, have))
    for nid, orders in least.items():
        mesh.NODES[nid].orders = orders

    stack = [nid for nid in mesh.skeleton_in_use()
             if mesh.NODES[nid].kind in _SON_AXES]
    while stack:
        node = mesh.NODES[stack.pop()]
        p = node.orders
        for sid, axes in zip(node.sons, _SON_AXES[node.kind]):
            son = mesh.NODES[sid]
            son.orders = tuple(max(p[a], q) for a, q in zip(axes, son.orders))
            stack.append(sid)
    mesh._touch()


def execute_pref(mesh: Mesh, mdles):
    """Isotropic p-refinement of the listed elements by one order."""
    adaptive_pref(mesh, [(m, tuple(p + 1 for p in mesh.element(m).orders))
                         for m in mdles])


def element_vertices(mesh: Mesh, mdles) -> np.ndarray:
    """(E, 8, 3) vertex coordinates of a batch of active elements."""
    return mesh.vertex_coords([v for m in mdles for v in
                               mesh.element(m).elem_nodes[0:8]]).reshape(-1, 8, 3)


def element_info(mesh: Mesh, mdle: int):
    """Snapshot for element computation.

    Returns (norder, xnod, node_list): 19 orders (12 edge, 6 face,
    middle), the 8 vertex coordinates, and the 27 node ids.  Every
    entity has orientation 0, so none is returned.
    """
    node = mesh.element(mdle)
    norder = [mesh.NODES[eid].order for eid in node.elem_nodes[8:20]]
    norder += [mesh.NODES[fid].order for fid in node.elem_nodes[20:26]]
    norder.append(node.order)
    xnod = mesh.vertex_coords(node.elem_nodes[0:8])
    return norder, xnod, list(node.elem_nodes) + [mdle]
