"""Hexahedral mesh data structure: node trees, traversal, h/p refinement.

Every topological entity (vertex, edge, face, middle) is a Node stored
in a growable table; a node's id is its index in that table, and the
middle-node id doubles as the element id.  The first NRELIS slots are
the initial elements' middle nodes, so initial element i has middle
node i.

h-refinement is isotropic only, and one lattice rule refines edges,
faces and middle nodes alike.  A node of k axes is laid on its doubled
lattice {0..4}^k, where an entity is named by its centre and spans the
axes where that centre is odd.  `SONS` is the one son table: each son's
centre on {1,2,3}^k, in `sons` order.  From it and the centres of the
sub-entities a node stores (masterel's edge 1, face 1 and cube), the
refiner finds the vertices, edges and faces of every son; sons are made
by dimension, centre vertex first, and take the father's orders on
their axes.  An element's edges and faces are refined before it, shared
ones once.  A centre vertex is the mean of its father's vertices, exact
for the trilinear geometry.  conformity reads its hanging-node cases,
and p-refinement its son axes, off the same table.

p-refinement reads and writes orders through one per-axis codec,
`Node.orders`.  Edge and face orders follow the minimum rule: per axis,
the least order of the active elements using the node, raised to the
father's order wherever the father is an edge or face in use.

The "natural order" of active elements is a depth-first pre-order over
the middle-node forest, initial elements first, sons in octant order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

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
    """One mesh entity.  A refined node's `sons` are in `SONS` order; a
    middle node keeps its 8 octants there and the rest in `interior`."""

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

    @property
    def NRELES(self) -> int:
        return len(self.ELEM_ORDER)

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
    mesh._touch()
    for bid, attr, comp, flag in bc_assignments:
        mesh.set_boundary_flag(bid, attr, comp, flag)
    return mesh


# ---------------------------------------------------------------------------
# refinement

# Each son's centre on its father's lattice, in `sons` order (`sons +
# interior` for a middle node): an edge's two halves and midpoint vertex;
# a face's four quadrants in tensor order, its interior edges (along axis
# 1 low/high, along axis 2 low/high) and centre vertex; a middle node's
# eight octants in vertex order, then its mid-plane faces (x-, y-,
# z-plane, each in tensor order), axis edges (x, y, z, each low/high)
# and centre vertex.
SONS = {
    EDGE: ((1,), (3,), (2,)),
    FACE: ((1, 1), (3, 1), (1, 3), (3, 3), (1, 2), (3, 2), (2, 1), (2, 3), (2, 2)),
    MIDDLE: ((1, 1, 1), (3, 1, 1), (3, 3, 1), (1, 3, 1),
             (1, 1, 3), (3, 1, 3), (3, 3, 3), (1, 3, 3),
             (2, 1, 1), (2, 3, 1), (2, 1, 3), (2, 3, 3),
             (1, 2, 1), (3, 2, 1), (1, 2, 3), (3, 2, 3),
             (1, 1, 2), (3, 1, 2), (1, 3, 2), (3, 3, 2),
             (1, 2, 2), (3, 2, 2), (2, 1, 2), (2, 3, 2), (2, 2, 1), (2, 2, 3),
             (2, 2, 2)),
}
_KINDS = (VERTEX, EDGE, FACE, MIDDLE)       # by number of axes


def _axes(d):
    """The axes an entity with centre `d` spans: where `d` is odd."""
    return tuple(a for a, c in enumerate(d) if c % 2)


def _shift(d, axes, local, by):
    """The point `local - by` away from `d` along `axes`."""
    d = list(d)
    for a, c in zip(axes, local):
        d[a] += c - by
    return tuple(d)


def _reference(slots, axes):
    """Centres on the unit lattice {0,1,2}^k, over `axes`, of the element
    entities in `slots`: twice the first vertex, plus one on each axis the
    entity spans."""
    return [tuple(int(2 * me.VERT_COORDS[v][a]) + (a in span) for a in axes)
            for _, span, v in (me._ENTITIES[s] for s in slots)]


# the sub-entities a node stores, as reference edge 1, face 1 and cube:
# verts; verts + edges; elem_nodes
_STORED = {EDGE: _reference(me.EDGE_VERTS[0], (0,)),
           FACE: _reference(me.FACE_VERTS[0] + tuple(8 + e for e in me.FACE_EDGES[0]),
                            me.FACE_AXES[0]),
           MIDDLE: _reference(range(26), range(3))}


def _plan(kind):
    """The sons in creation order (by number of axes), each with its kind,
    its axes and a getter of the sub-entities it stores from the pool; and
    the creation rank of each son in SONS order.  The pool lists the points
    of the father's lattice: the father's stored sub-entities (a vertex
    stands for itself, an edge or face for its sons), then the new nodes."""
    points = []
    for r in _STORED[kind]:
        axes = _axes(r)
        points += [_shift([2 * c for c in r], axes, s, 2)
                   for s in SONS.get(_KINDS[len(axes)], [()])]
    made = sorted(range(len(SONS[kind])), key=lambda i: len(_axes(SONS[kind][i])))
    points += [SONS[kind][i] for i in made]
    pool = {d: i for i, d in enumerate(points)}
    plan = []
    for i in made:
        d = SONS[kind][i]
        axes = _axes(d)
        son = _KINDS[len(axes)]
        at = [pool[_shift(d, axes, r, 1)] for r in _STORED.get(son, ())]
        plan.append((son, axes, itemgetter(*at) if at else None))
    return plan, [made.index(i) for i in range(len(made))]


_PLAN = {kind: _plan(kind) for kind in SONS}


def _centre(mesh: Mesh, node: Node) -> np.ndarray:
    """Coordinates of the centre vertex of an edge, face or middle node:
    the mean of its vertices, exact for the trilinear geometry."""
    coords = [mesh.NODES[v].coords for v in node.verts or node.elem_nodes[:8]]
    return sum(coords[1:], coords[0]) / len(coords)


def _refine(mesh: Mesh, nid: int):
    """Refine an edge, face or middle node, its unrefined edges and faces
    first.  Each son takes the father's orders on its axes and its bcond;
    a face son also takes its bid."""
    nodes, node = mesh.NODES, mesh.NODES[nid]
    pool = []
    for sid in node.verts + node.edges or node.elem_nodes:
        sub = nodes[sid]
        if sub.kind != VERTEX and not sub.sons:
            _refine(mesh, sid)
        pool += sub.sons or (sid,)
    plan, rank = _PLAN[node.kind]
    first, p = len(nodes), node.orders
    pool += range(first, first + len(rank))
    for kind, axes, take in plan:
        son = Node(len(nodes), kind, _ENCODE[kind](*[p[a] for a in axes]), nid)
        nodes.append(son)
        son.bcond = node.bcond
        if kind == VERTEX:
            son.coords = _centre(mesh, node)
        elif kind == MIDDLE:
            son.elem_nodes = take(pool)
        else:
            sub = take(pool)
            son.verts, son.edges = sub[:4], sub[4:]
            if kind == FACE:
                son.bid = node.bid
    sons = [first + r for r in rank]
    if node.kind == MIDDLE:
        node.sons, node.interior = sons[:8], sons[8:]
    else:
        node.sons = sons
    node.active = False


def refine_element(mesh: Mesh, mdle: int):
    """Split the active element `mdle` into 8 octants.

    The sons take the father's place in ELEM_ORDER, which keeps the
    pre-order of `traverse_active` without walking the trees.  A new list
    is assigned because callers may hold the old one.
    """
    node = mesh.element(mdle)
    _refine(mesh, mdle)
    mesh._touch()
    order = mesh.ELEM_ORDER
    i = order.index(mdle)
    mesh.ELEM_ORDER = order[:i] + node.sons + order[i + 1:]


def traverse_active(mesh: Mesh) -> list:
    """Natural-order element list, walked down the refinement trees."""
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


def adaptive_pref(mesh: Mesh, targets):
    """Set middle orders, then edge and face orders by the minimum rule.

    Every in-use edge and face takes, per axis, the least order of the
    active elements using it.  Then every son of an in-use edge or face
    is raised, per axis, to its father's order, down the tree: a hanging
    node's expansion must reproduce the father trace exactly.  Each node
    is written once, with its final orders, and loses its dofs only if
    they changed; a targeted middle always loses them.

    `targets` holds (mdle, (px, py, pz)) pairs.  Every pair is checked
    before any node changes: MeshError for an id that is not an active
    element, OrderError for an order outside [1, MAXP].
    """
    checked = [(mesh.element(mdle), me.check_order_triple(want))
               for mdle, want in targets]
    for node, want in checked:
        node.orders, node.dofs = want, None

    nodes, final = mesh.NODES, {}
    for m in mesh.ELEM_ORDER:
        p = nodes[m].orders
        for slot, axes, _ in me._ENTITIES[8:26]:
            nid = nodes[m].elem_nodes[slot]
            have = final.get(nid, (me.MAXP, me.MAXP))
            final[nid] = tuple(min(p[a], q) for a, q in zip(axes, have))

    # the in-use edges and faces and every edge and face below them, each
    # after its father: a son's id is above its father's
    tree, stack = set(), list(final)
    while stack:
        nid = stack.pop()
        if nid not in tree:
            tree.add(nid)
            stack += [s for s in nodes[nid].sons if nodes[s].kind != VERTEX]
    for nid in sorted(tree):
        node = nodes[nid]
        p = final.get(nid, node.orders)
        if node.father in tree:
            father, pf = nodes[node.father], final[node.father]
            axes = _axes(SONS[father.kind][father.sons.index(nid)])
            p = tuple(max(pf[a], q) for a, q in zip(axes, p))
        final[nid] = p
    for nid, p in final.items():
        nodes[nid].orders = p
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
