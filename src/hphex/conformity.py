"""Constrained approximation on 1-irregular meshes.

A node is constrained when its father is an edge or face still in use
by some active (coarser) element: the hanging entity owns no global
DOFs, and its local coefficients are synthesized from the father's.
The coefficient matrices are computed by restricting each father trace
function to the son sub-entity and expanding it in the son's
hierarchical basis; because the restriction of a polynomial trace is a
polynomial inside the (order-dominating) son space, an L2 projection
recovers the expansion exactly.

The refinement catalogue is isotropic only, so the case list is short:
edge bisection (two halves and the midpoint vertex) and face
quadrisection (four quadrants, four interior edges, the center vertex).
H1 and H(div) carry interface DOFs; discontinuous attributes are never
constrained, and tangential-trace attributes are outside the supported
problem set.

The module also owns Dirichlet DOF interpolation (vertex values, then
edge and face H1-seminorm projections in parameter coordinates) and
the recomputation of derived geometry DOFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import masterel as me
from .errors import ConfigError, IrregularityError, MeshError, SolveError

def is_constrained(mesh, nid: int) -> bool:
    node = mesh.NODES[nid]
    fid = node.father
    if not fid:
        return False
    father = mesh.NODES[fid]
    if father.kind not in ("EDGE", "FACE"):
        return False
    return fid in mesh.skeleton_in_use()


# ---------------------------------------------------------------------------
# 1D restriction operators

@lru_cache(maxsize=None)
def _h1_restriction(p_child: int, p_parent: int, half: int) -> np.ndarray:
    """Child-basis coefficients of each parent H1 basis function restricted
    to one half of the interval: column k expands phi_k((s + half)/2).
    Cached and read-only, like every table below."""
    x, w = me.gauss_1d(p_child + 2)
    parent_at, _ = me.h1_basis_1d(p_parent, 0.5 * (x + half))
    ends, _ = me.h1_basis_1d(p_parent, np.array([0.5 * half, 0.5 * (half + 1)]))
    E = np.zeros((p_child + 1, p_parent + 1))
    E[0] = ends[:, 0]
    E[1] = ends[:, 1]
    child, _ = me.h1_basis_1d(p_child, x)
    resid = parent_at - np.outer(ends[:, 0], child[0]) - np.outer(ends[:, 1], child[1])
    if p_child >= 2:
        bub = child[2:]
        gram = (bub * w) @ bub.T
        rhs = (bub * w) @ resid.T
        E[2:] = np.linalg.solve(gram, rhs)
    return me._read_only(E)


@lru_cache(maxsize=None)
def _legendre_restriction(n_child: int, n_parent: int, half: int) -> np.ndarray:
    """Same for the L2 family: column j expands P_j((s + half)/2)."""
    x, w = me.gauss_1d(n_child + 1)
    parent_at, _ = me.legendre_shifted(n_parent, 0.5 * (x + half))
    child, _ = me.legendre_shifted(n_child, x)
    L = (child * w) @ parent_at.T
    L *= (2.0 * np.arange(n_child) + 1.0)[:, None]
    return me._read_only(L)


@lru_cache(maxsize=None)
def _h1_values_at_half(p: int) -> np.ndarray:
    vals, _ = me.h1_basis_1d(p, np.array([0.5]))
    return me._read_only(vals[:, 0])


# ---------------------------------------------------------------------------
# case catalogue

# case names in the mesh's son order: edge sons are two halves and the
# midpoint vertex; face sons four quadrants, four interior edges (two
# along a1, two along a2) and the center vertex
_EDGE_SONS = ("edge-half-1", "edge-half-2", "edge-midpoint-vertex")
_FACE_SONS = (tuple(f"face-quadrant-{q}" for q in range(1, 5))
              + tuple(f"face-interior-edge-{k}" for k in range(1, 5))
              + ("face-center-vertex",))
# per face son and face axis: the parent half it spans, None for the midline
_FACE_HALVES = ((0, 0), (1, 0), (0, 1), (1, 1),
                (0, None), (1, None), (None, 0), (None, 1), (None, None))


def _face_parent_layout(p1, p2, qb, qt, ql, qr):
    """(k1, k2) tensor indices of the parent group columns, in column order:
    4 vertices, 4 edge-bubble groups (bottom, top, left, right), face bubbles."""
    cols = [(0, 0), (1, 0), (0, 1), (1, 1)]
    cols += [(n, 0) for n in range(2, qb + 1)]
    cols += [(n, 1) for n in range(2, qt + 1)]
    cols += [(0, n) for n in range(2, ql + 1)]
    cols += [(1, n) for n in range(2, qr + 1)]
    cols += [(n1, n2) for n1 in range(2, p1 + 1) for n2 in range(2, p2 + 1)]
    return cols


def _h1_face_orders(parent_order):
    try:
        vals = tuple(int(v) for v in parent_order)
    except TypeError:
        vals = (int(parent_order),)
    if len(vals) == 2:
        p1, p2 = vals
        return p1, p2, p1, p1, p2, p2
    if len(vals) == 6:
        return vals
    raise ConfigError(f"face parent order {parent_order!r}: expected 2 or 6 entries")


def _child_orders(parent, child):
    """Child order per split axis, defaulting to the parent's; a lower one
    cannot reproduce the parent trace."""
    if child is None:
        return parent
    child = tuple(int(c) for c in np.atleast_1d(child))
    if len(child) != len(parent) or any(c < p for c, p in zip(child, parent)):
        raise ConfigError(f"child order {child} does not dominate {parent}")
    return child


def constraint_coefficients(space: str, case: str, parent_order,
                            child_order=None) -> np.ndarray:
    """Coefficient matrix (child dofs x parent-group dofs) for one hanging node.

    Edge cases take an integer parent order; face cases take (p1, p2) or
    (p1, p2, q_bottom, q_top, q_left, q_right) to give the parent face's
    edges their own orders.  The child defaults to the parent's order.
    The result is C-contiguous.
    """
    if case in _EDGE_SONS:
        face, son = False, _EDGE_SONS.index(case)
    elif case in _FACE_SONS:
        face, son = True, _FACE_SONS.index(case)
    else:
        raise ConfigError(f"unknown constraint case {case!r}")

    if space == "HDIV":
        if not face or son >= 4:
            # interior edges and vertices carry no flux dofs
            return np.zeros((0, 0))
        p1, p2 = (int(v) for v in parent_order)
        c1, c2 = _child_orders((p1, p2), child_order)
        h1, h2 = _FACE_HALVES[son]
        L1 = _legendre_restriction(c1, p1, h1)
        L2 = _legendre_restriction(c2, p2, h2)
        return np.ascontiguousarray(np.kron(0.25 * L1, L2))
    if space != "H1":
        raise ConfigError(f"no constraints defined for space {space!r}, case {case!r}")

    if not face:
        p = int(parent_order)
        if son == 2:
            return _h1_values_at_half(p)[None, :]
        (pc,) = _child_orders((p,), child_order)
        return _h1_restriction(pc, p, son)[2:]

    # every face case is an outer product of one 1D factor per face axis
    p1, p2, qb, qt, ql, qr = _h1_face_orders(parent_order)
    cols = np.array(_face_parent_layout(p1, p2, qb, qt, ql, qr)).T
    pp = (max(p1, qb, qt), max(p2, ql, qr))
    halves = _FACE_HALVES[son]
    split = [a for a in (0, 1) if halves[a] is not None]
    child = dict(zip(split, _child_orders(tuple((p1, p2)[a] for a in split),
                                          child_order)))
    f1, f2 = (_h1_values_at_half(pp[a])[None, cols[a]] if halves[a] is None
              else _h1_restriction(child[a], pp[a], halves[a])[2:, cols[a]]
              for a in (0, 1))
    return np.ascontiguousarray((f1[:, None] * f2[None]).reshape(-1, cols.shape[1]))


# ---------------------------------------------------------------------------
# modified element

@dataclass
class ModifiedElement:
    mdle: int
    C: np.ndarray               # local dofs x modified dofs
    dof_nodes: list             # per modified dof: (node id, attr, comp, k)
    dirichlet: np.ndarray       # bool mask over modified dofs
    dirichlet_values: np.ndarray
    bubble: np.ndarray          # bool mask: interior (middle-node) dofs
    conforming: bool = False    # no slot is constrained, so C = I


def _assert_unconstrained(mesh, nids, context):
    for nid in nids:
        if is_constrained(mesh, nid):
            raise IrregularityError(
                f"{context}: node {nid} is itself constrained "
                "(mesh is 2-irregular; close_mesh was skipped)"
            )


@lru_cache(maxsize=None)
def _node_count(space, kind, order):
    """Scalar dofs on one vertex, edge or face node, read off the shape
    recipe of an element whose edge 1 and face 1 carry the node's order."""
    p1, p2 = me.decode_face_order(order) if kind == "FACE" else (max(order, 1), 1)
    counts = me.layout_counts(space, me.uniform_norder((p1, p2, 1)))
    return int(counts[{"VERTEX": 0, "EDGE": 8, "FACE": 20}[kind]])


def _parent_group(mesh, space, parent):
    """Parent-group columns [(node, k), ...] plus the order bundle."""
    if parent.kind == "EDGE":
        nids, order = parent.verts + (parent.id,), parent.order
    elif space == "HDIV":
        nids, order = (parent.id,), me.decode_face_order(parent.order)
    else:
        nids = parent.verts + parent.edges + (parent.id,)
        order = me.decode_face_order(parent.order) + tuple(
            mesh.NODES[e].order for e in parent.edges)
    _assert_unconstrained(mesh, nids, f"{parent.kind.lower()} {parent.id}")
    return [(n, k) for n in nids
            for k in range(_node_count(space, mesh.NODES[n].kind,
                                       mesh.NODES[n].order))], order


def _hanging(mesh, space, nid):
    """Parent-group columns [(node, k), ...] and the coefficient matrix
    (node dofs x columns) of a constrained node."""
    node = mesh.NODES[nid]
    parent = mesh.NODES[node.father]
    sons = _EDGE_SONS if parent.kind == "EDGE" else _FACE_SONS
    case = sons[parent.sons.index(nid)]
    group, parent_order = _parent_group(mesh, space, parent)
    if node.kind == "VERTEX":
        child_order = None
    elif node.kind == "EDGE":
        child_order = node.order
    else:
        child_order = me.decode_face_order(node.order)
    return group, constraint_coefficients(space, case, parent_order, child_order)


def scalar_slot_counts(mesh, mdle, space, interface_only=False):
    """[(node id, scalar dof count)] over the element's 27 slots."""
    from .mesh import element_info
    norder, _, nodes = element_info(mesh, mdle)
    counts = me.layout_counts(space, norder,
                              include_middle=not interface_only)
    return [(nodes[s], int(counts[s])) for s in range(27)], norder


def _scalar_expansion(mesh, mdle, space, interface_only, col_index, col_meta):
    """Rows (one per local scalar dof) of (column, coefficient) pairs.

    col_index/col_meta accumulate the modified scalar columns; shared
    parent nodes coalesce across slots and across constrained children.
    """
    slots, _ = scalar_slot_counts(mesh, mdle, space, interface_only)

    def col(nid, k):
        key = (nid, k)
        hit = col_index.get(key)
        if hit is None:
            hit = len(col_meta)
            col_index[key] = hit
            col_meta.append(key)
        return hit

    rows = []
    for nid, count in slots:
        if count == 0:
            continue
        if not is_constrained(mesh, nid):
            rows.extend([(col(nid, k), 1.0)] for k in range(count))
            continue
        group, M = _hanging(mesh, space, nid)
        if M.shape[0] != count:
            raise MeshError(
                f"node {nid}: constraint rows {M.shape[0]} != dof count {count}"
            )
        gcols = [col(n, k) for n, k in group]
        for i in range(count):
            rows.append([(gcols[j], M[i, j]) for j in range(len(group))
                         if M[i, j] != 0.0])
    return rows


def modified_element(mesh, mdle: int) -> ModifiedElement:
    """Constraint expansion, Dirichlet data, and bubble partition for one element.

    The rows of C follow the local dofs attribute by attribute, in the
    order of the mesh's physics table.  When no slot is constrained the
    modified dofs are the slot dofs themselves and C = I.
    """
    physics = mesh.physics
    conforming = not any(is_constrained(mesh, nid)
                         for nid in mesh.element(mdle).elem_nodes)
    blocks = []
    dof_nodes = []
    for attr, a in enumerate(physics.attrs):
        space = a.fe_space
        nc = a.ncomp
        if conforming:
            slots, _ = scalar_slot_counts(mesh, mdle, space, a.is_trace)
            col_meta = [(nid, k) for nid, count in slots for k in range(count)]
        else:
            col_index, col_meta = {}, []
            rows = _scalar_expansion(mesh, mdle, space, a.is_trace,
                                     col_index, col_meta)
            Cs = np.zeros((len(rows), len(col_meta)))
            for i, row in enumerate(rows):
                for j, v in row:
                    Cs[i, j] = v
            blocks.append(np.kron(Cs, np.eye(nc)) if nc > 1 else Cs)
        dof_nodes += [(nid, attr, c, k) for nid, k in col_meta
                      for c in range(nc)]

    ncol = len(dof_nodes)
    C = np.eye(ncol) if conforming else scipy.linalg.block_diag(*blocks)

    dirichlet = np.zeros(ncol, dtype=bool)
    values = np.zeros(ncol)
    bubble = np.zeros(ncol, dtype=bool)
    for i, (nid, attr, comp, k) in enumerate(dof_nodes):
        node = mesh.NODES[nid]
        gcomp = physics.global_comp(attr, comp)
        if node.kind != "MIDDLE" and node.bcond >> gcomp & 1:
            dirichlet[i] = True
            if node.dofs and attr in node.dofs:
                values[i] = node.dofs[attr][k, comp]
        if nid == mdle:
            bubble[i] = True
    return ModifiedElement(
        mdle=mdle, C=C, dof_nodes=dof_nodes, dirichlet=dirichlet,
        dirichlet_values=values, bubble=bubble, conforming=conforming,
    )


def gather_solution(mesh, mdle: int, attr: int) -> np.ndarray:
    """Local conforming coefficients (nscalar, ncomp) for one attribute."""
    physics = mesh.physics
    a = physics.attrs[attr]
    space = a.fe_space
    slots, _ = scalar_slot_counts(mesh, mdle, space, a.is_trace)
    nc = a.ncomp

    def node_values(nid, count):
        node = mesh.NODES[nid]
        if node.dofs is None or attr not in node.dofs:
            masked = any(node.bcond >> physics.global_comp(attr, c) & 1
                         for c in range(nc)) if node.kind != "MIDDLE" else False
            if count and not masked:
                raise SolveError(f"node {nid} has no solution dofs for attr {attr}")
            return np.zeros((count, nc))
        vals = node.dofs[attr]
        if vals.shape[0] < count:
            out = np.zeros((count, nc))
            out[:vals.shape[0]] = vals
            return out
        return vals[:count]

    out = np.zeros((sum(c for _, c in slots), nc))
    pos = 0
    for nid, count in slots:
        if count == 0:
            continue
        if not is_constrained(mesh, nid):
            out[pos:pos + count] = node_values(nid, count)
        else:
            group, M = _hanging(mesh, space, nid)
            gvals = np.zeros((len(group), nc))
            by_node = {}
            for j, (gnid, k) in enumerate(group):
                by_node.setdefault(gnid, []).append((j, k))
            for gnid, pairs in by_node.items():
                vals = node_values(gnid, max(k for _, k in pairs) + 1)
                for j, k in pairs:
                    gvals[j] = vals[k]
            out[pos:pos + count] = M @ gvals
        pos += count
    return out


# ---------------------------------------------------------------------------
# Dirichlet DOF interpolation

def _edge_projection(mesh, node, dirichlet_fn, comp_slots, attr, nc):
    p = node.order
    xa = mesh.NODES[node.verts[0]].coords
    xb = mesh.NODES[node.verts[1]].coords
    t, w = me.gauss_1d(p + 2)
    x = xa[None, :] + np.outer(t, xb - xa)
    vals, grads = dirichlet_fn(x)
    dvals, _ = dirichlet_fn(np.array([xa, xb]))
    tang = grads @ (xb - xa)
    _, _, P, _ = me._axis_bases(p, t.tobytes())
    node.dofs = node.dofs or {}
    nbub = _node_count("H1", "EDGE", p)
    dofs = node.dofs.setdefault(attr, np.zeros((nbub, nc)))
    for comp in comp_slots:
        lift = dvals[1] - dvals[0]
        resid = tang - lift
        for n in range(2, p + 1):
            dofs[n - 2, comp] = (2 * (n - 1) + 1) * (w * resid * P[n - 1]).sum()


def _face_projection(mesh, node, dirichlet_fn, comp_slots, attr, nc):
    p1, p2 = me.decode_face_order(node.order)
    nbub = _node_count("H1", "FACE", node.order)
    node.dofs = node.dofs or {}
    dofs = node.dofs.setdefault(attr, np.zeros((nbub, nc)))
    if nbub == 0:
        return
    corners = mesh.vertex_coords(node.verts)
    t, w2 = me.gauss_quadrature_2d((p1 + 2, p2 + 2))
    t1, t2 = t[:, 0], t[:, 1]
    hat = np.stack([(1 - t1) * (1 - t2), t1 * (1 - t2), (1 - t1) * t2, t1 * t2])
    x = np.einsum("cp,ci->pi", hat, corners)
    dx1 = np.einsum("cp,ci->pi",
                    np.stack([-(1 - t2), (1 - t2), -t2, t2]), corners)
    dx2 = np.einsum("cp,ci->pi",
                    np.stack([-(1 - t1), -t1, (1 - t1), t1]), corners)
    vals, grads = dirichlet_fn(x)
    g1 = (grads * dx1).sum(axis=1)
    g2 = (grads * dx2).sum(axis=1)

    col1, col2 = t1.tobytes(), t2.tobytes()
    H1b, dH1b, _, _ = me._axis_bases(p1, col1)
    H2b, dH2b, _, _ = me._axis_bases(p2, col2)

    # lift: bilinear vertex part, then edge bubbles interpolated earlier
    cvals, _ = dirichlet_fn(corners)
    l1 = np.zeros_like(g1)
    l2 = np.zeros_like(g2)
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for cv, (k1, k2) in zip(cvals, pairs):
        l1 += cv * dH1b[k1] * H2b[k2]
        l2 += cv * H1b[k1] * dH2b[k2]
    edge_specs = [  # edge position in the face layout -> (k1,k2) index builder
        (0, lambda n: (n, 0)), (1, lambda n: (n, 1)),
        (2, lambda n: (0, n)), (3, lambda n: (1, n)),
    ]

    K = np.zeros((nbub, nbub))
    fidx = [(n1, n2) for n1 in range(2, p1 + 1) for n2 in range(2, p2 + 1)]
    F1 = [(dH1b[n1] * H2b[n2], H1b[n1] * dH2b[n2]) for n1, n2 in fidx]
    for i, (a1, a2) in enumerate(F1):
        for j, (b1, b2) in enumerate(F1):
            K[i, j] = (w2 * (a1 * b1 + a2 * b2)).sum()

    for comp in comp_slots:
        lift1 = l1.copy()
        lift2 = l2.copy()
        for pos, kmap in edge_specs:
            eid = node.edges[pos]
            en = mesh.NODES[eid]
            edofs = None if en.dofs is None else en.dofs.get(attr)
            if edofs is None:
                continue
            pe = en.order
            Hb1, dHb1, _, _ = me._axis_bases(max(p1, pe), col1)
            Hb2, dHb2, _, _ = me._axis_bases(max(p2, pe), col2)
            for n in range(2, pe + 1):
                k1, k2 = kmap(n)
                c = edofs[n - 2, comp]
                lift1 += c * dHb1[k1] * Hb2[k2]
                lift2 += c * Hb1[k1] * dHb2[k2]
        r1 = g1 - lift1
        r2 = g2 - lift2
        rhs = np.array([(w2 * (r1 * a1 + r2 * a2)).sum() for a1, a2 in F1])
        dofs[:, comp] = np.linalg.solve(K, rhs)


def update_Ddof(mesh, dirichlet_fn=None):
    """Interpolate Dirichlet data onto masked H1 DOFs.

    dirichlet_fn maps (n, 3) points to (values (n,), gradients (n, 3));
    it is required whenever some masked H1 attribute is not flagged
    homogeneous.  Vertex DOFs take point values; edge and face bubbles
    solve seminorm projections in parameter coordinates at quadrature
    order p+2.  The 1D bases at those Gauss points come from the
    per-(order, coordinate column) cache of `masterel`, shared by every
    boundary node of the same order.  Nodes no active element uses are
    skipped (a refined face an unrefined neighbour still uses stays in).
    """
    physics = mesh.physics
    used = mesh.skeleton_in_use()
    for attr, a in enumerate(physics.attrs):
        comp_slots = [c for c in range(a.ncomp)]
        gbits = [physics.global_comp(attr, c) for c in comp_slots]
        masked_nodes = []
        for node in mesh.NODES[1:]:
            if node.kind == "MIDDLE" or not node.bcond or node.id not in used:
                continue
            comps = [c for c, g in zip(comp_slots, gbits) if node.bcond >> g & 1]
            if comps:
                masked_nodes.append((node, comps))
        if not masked_nodes:
            continue
        if a.homogeneous_dirichlet:
            for node, comps in masked_nodes:
                nsc = _node_count(a.fe_space, node.kind, node.order)
                if nsc:
                    node.dofs = node.dofs or {}
                    node.dofs[attr] = np.zeros((nsc, a.ncomp))
            continue
        if a.fe_space != "H1":
            raise ConfigError(
                f"attribute {a.nick!r}: Dirichlet data interpolation is only "
                "supported for H1 attributes"
            )
        if dirichlet_fn is None:
            raise ConfigError("dirichlet_fn required for non-homogeneous data")
        for node, comps in masked_nodes:
            if node.kind == "VERTEX":
                vals, _ = dirichlet_fn(node.coords[None, :])
                node.dofs = node.dofs or {}
                dofs = node.dofs.setdefault(attr, np.zeros((1, a.ncomp)))
                for c in comps:
                    dofs[0, c] = vals[0]
        for node, comps in masked_nodes:
            if node.kind == "EDGE" and node.order >= 2:
                _edge_projection(mesh, node, dirichlet_fn, comps, attr, a.ncomp)
        for node, comps in masked_nodes:
            if node.kind == "FACE":
                _face_projection(mesh, node, dirichlet_fn, comps, attr, a.ncomp)


def update_gdof(mesh):
    """Recompute derived vertex coordinates down the refinement trees."""
    for node in mesh.NODES[1:]:
        if node.kind != "VERTEX" or not node.father:
            continue
        father = mesh.NODES[node.father]
        if father.kind == "EDGE":
            va, vb = father.verts
            node.coords = 0.5 * (mesh.NODES[va].coords + mesh.NODES[vb].coords)
        elif father.kind == "FACE":
            node.coords = 0.25 * sum(mesh.NODES[v].coords for v in father.verts)
        else:
            node.coords = 0.125 * sum(mesh.NODES[v].coords
                                      for v in father.elem_nodes[0:8])
