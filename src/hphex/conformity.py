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
Each case is a son position in the mesh's one son table, `SONS`, and
the parent half a son spans on each parent axis is read off its centre
on the parent's lattice there: 1 the low half, 3 the high, 2 the midline.
H1 and H(div) carry interface DOFs; discontinuous attributes are never
constrained, and tangential-trace attributes are outside the supported
problem set.

The module also owns Dirichlet DOF interpolation (vertex values, then
edge and face H1-seminorm projections in parameter coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import masterel as me
from .errors import ConfigError, IrregularityError, MeshError, SolveError
from .mesh import SONS, _centre, element_info

def is_constrained(mesh, nid: int) -> bool:
    return bool(mesh.hanging_nodes()[nid])


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

# case names in the mesh's son order (mesh.SONS): an edge's two halves
# and midpoint vertex; a face's four quadrants, four interior edges (two
# along a1, two along a2) and center vertex
_CASES = {"EDGE": ("edge-half-1", "edge-half-2", "edge-midpoint-vertex"),
          "FACE": (tuple(f"face-quadrant-{q}" for q in range(1, 5))
                   + tuple(f"face-interior-edge-{k}" for k in range(1, 5))
                   + ("face-center-vertex",))}
# per case and parent axis, the parent half the son spans, read off its
# centre on the parent's lattice (1: low, 3: high); None on the midline (2)
_HALVES = {case: tuple(c // 2 if c % 2 else None for c in centre)
           for kind, names in _CASES.items()
           for case, centre in zip(names, SONS[kind])}


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

    Edge cases take an integer parent order or (p,); face cases take
    (p1, p2) or (p1, p2, q_bottom, q_top, q_left, q_right) to give the
    parent face's edges their own orders.  The child defaults to the
    parent's order.
    The result is C-contiguous.
    """
    if case not in _HALVES:
        raise ConfigError(f"unknown constraint case {case!r}")
    halves = _HALVES[case]

    if space == "HDIV":
        if len(halves) < 2 or None in halves:
            # edges and vertices carry no flux dofs
            return np.zeros((0, 0))
        p1, p2 = (int(v) for v in parent_order)
        c1, c2 = _child_orders((p1, p2), child_order)
        h1, h2 = halves
        L1 = _legendre_restriction(c1, p1, h1)
        L2 = _legendre_restriction(c2, p2, h2)
        return np.ascontiguousarray(np.kron(0.25 * L1, L2))
    if space != "H1":
        raise ConfigError(f"no constraints defined for space {space!r}, case {case!r}")

    if len(halves) == 1:
        (p,) = (int(v) for v in np.atleast_1d(parent_order))
        if halves[0] is None:
            return _h1_values_at_half(p)[None, :]
        (pc,) = _child_orders((p,), child_order)
        return _h1_restriction(pc, p, halves[0])[2:]

    # every face case is an outer product of one 1D factor per face axis
    p1, p2, qb, qt, ql, qr = _h1_face_orders(parent_order)
    cols = np.array(_face_parent_layout(p1, p2, qb, qt, ql, qr)).T
    pp = (max(p1, qb, qt), max(p2, ql, qr))
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
    """Modified elements of one stack: elements of a batch that share one
    modified dof count.  Every field but `conforming` has a leading stack
    axis, which a single-element call drops."""

    mdle: np.ndarray            # (E,) element ids
    C: np.ndarray               # (E, local dofs, modified dofs)
    dof_nodes: np.ndarray       # (E, n, 4): (node id, attr, comp, k) per dof
    dirichlet: np.ndarray       # (E, n) bool
    dirichlet_values: np.ndarray
    bubble: np.ndarray          # (E, n) bool: interior (middle-node) dofs
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
    """Parent-group columns [(node, k), ...] plus the order bundle: the
    parent's per-axis orders, then its edges' orders for an H1 face."""
    if parent.kind == "EDGE":
        nids = parent.verts + (parent.id,)
    elif space == "HDIV":
        nids = (parent.id,)
    else:
        nids = parent.verts + parent.edges + (parent.id,)
    edges = () if space == "HDIV" else parent.edges
    order = sum((mesh.NODES[e].orders for e in edges), parent.orders)
    _assert_unconstrained(mesh, nids, f"{parent.kind.lower()} {parent.id}")
    return [(n, k) for n in nids
            for k in range(_node_count(space, mesh.NODES[n].kind,
                                       mesh.NODES[n].order))], order


def _hanging(mesh, space, nid):
    """Parent-group columns [(node, k), ...] and the coefficient matrix
    (node dofs x columns) of a constrained node."""
    node = mesh.NODES[nid]
    parent = mesh.NODES[node.father]
    case = _CASES[parent.kind][parent.sons.index(nid)]
    group, parent_order = _parent_group(mesh, space, parent)
    return group, constraint_coefficients(space, case, parent_order, node.orders)


def scalar_slot_counts(mesh, mdle, space, interface_only=False):
    """[(node id, scalar dof count)] over the element's 27 slots."""
    norder, _, nodes = element_info(mesh, mdle)
    counts = me.layout_counts(space, norder,
                              include_middle=not interface_only)
    return [(nodes[s], int(counts[s])) for s in range(27)], norder


def _expansion(mesh, mdle, attr):
    """C (local x modified dofs) of one attribute of an element and the
    (node, attr, comp, k) key of each modified dof; shared parent nodes
    coalesce across slots and across constrained children."""
    a = mesh.physics.attrs[attr]
    slots, _ = scalar_slot_counts(mesh, mdle, a.fe_space, a.is_trace)
    cols, blocks = {}, []
    for nid, count in slots:
        if count == 0:
            continue
        if not is_constrained(mesh, nid):
            group, M = [(nid, k) for k in range(count)], np.eye(count)
        else:
            group, M = _hanging(mesh, a.fe_space, nid)
            if M.shape[0] != count:
                raise MeshError(f"node {nid}: constraint rows {M.shape[0]} "
                                f"!= dof count {count}")
        blocks.append(([cols.setdefault(g, len(cols)) for g in group], M))
    C, row = np.zeros((sum(len(M) for _, M in blocks), len(cols))), 0
    for at, M in blocks:
        C[row:row + len(M), at] = M + 0.0   # zeros as +0.0: C is never -0.0
        row += len(M)
    keys = [(nid, attr, c, k) for nid, k in cols for c in range(a.ncomp)]
    return (np.kron(C, np.eye(a.ncomp)) if a.ncomp > 1 else C), keys


@lru_cache(maxsize=None)
def _local_layout(attrs, norder):
    """(attr, slot, comp, k) of each local dof, in the order of the rows
    of C; `attrs` holds (fe_space, ncomp, is_trace) per attribute."""
    rows = [(attr, s, c, k) for attr, (space, nc, trace) in enumerate(attrs)
            for s, count in enumerate(me.layout_counts(
                space, norder, include_middle=not trace).tolist())
            for k in range(count) for c in range(nc)]
    return me._read_only(np.array(rows, dtype=np.int64).reshape(-1, 4))


def _dirichlet(mesh, keys):
    """Dirichlet mask and values of a (..., 4) array of dof keys.  A dof is
    masked when its node, not a middle node, has the bcond bit of its
    global component; the values of each distinct masked (node, attr) are
    read once, zero where the node stores none."""
    physics, nodes, nattr = mesh.physics, mesh.NODES, mesh.physics.nr_physa
    flat = keys.reshape(-1, 4)
    nids, inv = np.unique(flat[:, 0], return_inverse=True)
    bcond = np.array([0 if nodes[n].kind == "MIDDLE" else nodes[n].bcond
                      for n in nids.tolist()], dtype=np.int64)
    offset = np.array([physics.comp_offset(a) for a in range(nattr)])
    mask = (bcond[inv] >> (offset[flat[:, 1]] + flat[:, 2]) & 1).astype(bool)
    values, rows = np.zeros(len(flat)), np.flatnonzero(mask)
    if rows.size:
        pair, where = np.unique(inv[rows] * nattr + flat[rows, 1],
                                return_inverse=True)
        stored = [nodes[n].dofs.get(a) if nodes[n].dofs else None for n, a
                  in zip(nids[pair // nattr].tolist(), (pair % nattr).tolist())]
        stored = [np.zeros(0) if d is None else d.ravel() for d in stored]
        size = np.array([d.size for d in stored])
        at = flat[rows, 3] * np.array(physics.nr_comp)[flat[rows, 1]] + flat[rows, 2]
        hit = at < size[where]      # a node storing none has size 0
        values[rows[hit]] = np.concatenate(stored)[
            (np.cumsum(size) - size)[where[hit]] + at[hit]]
    return mask.reshape(keys.shape[:-1]), values.reshape(keys.shape[:-1])


def modified_element(mesh, mdles):
    """Constraint expansion, Dirichlet data, and bubble partition of a batch
    of elements that share one order vector: a list of stacks, the
    conforming elements (C = I) first, then each constrained element
    alone.  One element id gives its own ModifiedElement, without the
    stack axis.

    The rows of C follow the local dofs attribute by attribute, in the
    order of the mesh's physics table.  When no slot is constrained the
    modified dofs are the slot dofs themselves, laid out once per batch
    from the slot counts and read off the (E, 27) node ids.
    """
    if np.isscalar(mdles):
        (mod,) = modified_element(mesh, [mdles])
        return ModifiedElement(**{k: v if k == "conforming" else v[0]
                                  for k, v in vars(mod).items()})
    ids = np.array([mesh.element(m).elem_nodes + (m,) for m in mdles])
    nids, inv = np.unique(ids[:, :26], return_inverse=True)
    hanging = mesh.hanging_nodes()[nids]
    conforming = ~hanging[inv.reshape(-1, 26)].any(axis=1)
    stacks = []                     # (element ids, C, keys, conforming)
    if conforming.any():
        layout = _local_layout(
            tuple((a.fe_space, a.ncomp, a.is_trace) for a in mesh.physics.attrs),
            tuple(element_info(mesh, mdles[0])[0]))
        attr, slot, comp, k = layout.T
        pick = np.flatnonzero(conforming)
        keys = np.stack(np.broadcast_arrays(
            ids[pick][:, slot], attr, comp, k), axis=-1)
        C = np.broadcast_to(np.eye(len(layout)), (len(pick),) + (len(layout),) * 2)
        stacks.append((ids[pick, 26], C, keys, True))
    for e in np.flatnonzero(~conforming).tolist():
        C, keys = zip(*(_expansion(mesh, mdles[e], attr)
                        for attr in range(mesh.physics.nr_physa)))
        stacks.append((ids[e:e + 1, 26], scipy.linalg.block_diag(*C)[None],
                       np.array(sum(keys, [])).reshape(1, -1, 4), False))
    return [ModifiedElement(mdle, C, keys, *_dirichlet(mesh, keys),
                            keys[..., 0] == mdle[:, None], conf)
            for mdle, C, keys, conf in stacks]


def _node_solution(mesh, nid, attr, count, hanging):
    """(count, ncomp) local coefficients of one node: its stored rows (zero
    past them; only a masked node may store none) or, for a node flagged
    in `hanging`, its parent group's values through `_hanging`."""
    node, a = mesh.NODES[nid], mesh.physics.attrs[attr]
    if hanging[nid]:
        group, M = _hanging(mesh, a.fe_space, nid)
        return M @ np.array([_node_solution(mesh, g, attr, k + 1, hanging)[k]
                             for g, k in group])
    dofs = node.dofs.get(attr) if node.dofs else None
    if dofs is not None and len(dofs) >= count:
        return dofs[:count]
    if dofs is None and count and (node.kind == "MIDDLE" or not any(
            node.bcond >> mesh.physics.global_comp(attr, c) & 1
            for c in range(a.ncomp))):
        raise SolveError(f"node {nid} has no solution dofs for attr {attr}")
    out = np.zeros((count, a.ncomp))
    if dofs is not None:
        out[:len(dofs)] = dofs
    return out


def gather_solution(mesh, mdles, attr: int) -> np.ndarray:
    """Local conforming coefficients (E, nscalar, ncomp) of one attribute
    on a batch of elements that share one order vector; one element id
    gives its (nscalar, ncomp) view of the batch of one.  Stored rows are
    read by one index into their concatenation; only constrained nodes and
    nodes storing too few rows are resolved one by one."""
    if np.isscalar(mdles):
        return gather_solution(mesh, [mdles], attr)[0]
    a = mesh.physics.attrs[attr]
    slots, _ = scalar_slot_counts(mesh, mdles[0], a.fe_space, a.is_trace)
    live = [s for s, (_, count) in enumerate(slots) if count]
    count = np.array([slots[s][1] for s in live])
    ids = np.array([mesh.element(m).elem_nodes + (m,) for m in mdles])[:, live]
    nids, first, where = np.unique(ids, return_index=True, return_inverse=True)
    ncount = count[first % len(live)]
    nodes, hanging = mesh.NODES, mesh.hanging_nodes()
    stored = [nodes[n].dofs.get(attr) if nodes[n].dofs else None
              for n in nids.tolist()]
    size = np.array([0 if d is None else len(d) for d in stored])
    slow = np.flatnonzero(hanging[nids] | (size < ncount))
    for i in slow.tolist():
        stored[i] = _node_solution(mesh, nids[i], attr, ncount[i], hanging)
    size[slow] = ncount[slow]
    table = np.concatenate(stored)
    rows = (np.cumsum(size) - size)[where.reshape(ids.shape)]
    return table[np.repeat(rows, count, axis=1)
                 + np.concatenate([np.arange(c) for c in count])]


# ---------------------------------------------------------------------------
# Dirichlet DOF interpolation

def _node_dofs(node, attr, nrow, nc):
    """The node's dof array of attr, made (zero) if it has none."""
    node.dofs = node.dofs or {}
    return node.dofs.setdefault(attr, np.zeros((nrow, nc)))


def _lift_order(mesh, face, pos, attr):
    """Bubble order of face edge `pos` in the face lift (1: no dofs yet)."""
    en = mesh.NODES[face.edges[pos]]
    return en.order if en.dofs and attr in en.dofs else 1


def _project_vertices(mesh, group, dirichlet_fn, attr, nc):
    vals, _ = dirichlet_fn(np.array([node.coords for node, _ in group]))
    for (node, comps), v in zip(group, vals):
        _node_dofs(node, attr, 1, nc)[0, comps] = v


def _project_edges(mesh, group, dirichlet_fn, attr, nc):
    """Bubbles of the edges of one order p: the tangential derivative less
    the vertex lift, expanded in P_1..P_{p-1} at p+2 Gauss points."""
    p = group[0][0].order
    t, w = me.gauss_1d(p + 2)
    ends = np.array([mesh.vertex_coords(node.verts) for node, _ in group])
    d = ends[:, 1] - ends[:, 0]
    x = ends[:, :1] + t[None, :, None] * d[:, None]
    _, grads = dirichlet_fn(x.reshape(-1, 3))
    dvals, _ = dirichlet_fn(ends.reshape(-1, 3))
    tang = np.matmul(grads.reshape(x.shape), d[:, :, None])[..., 0]
    resid = tang - (dvals[1::2] - dvals[0::2])[:, None]
    _, _, P, _ = me._axis_bases(p, t.tobytes())
    coef = np.stack([(2 * (n - 1) + 1) * (w * resid * P[n - 1]).sum(-1)
                     for n in range(2, p + 1)], axis=1)
    for (node, comps), c in zip(group, coef):
        _node_dofs(node, attr, p - 1, nc)[:, comps] = c[:, None]


@lru_cache(maxsize=None)
def _face_gram(p1, p2):
    """Face-bubble seminorm Gram K and d/dt1, d/dt2 tables A1, A2."""
    t, w2 = me.gauss_quadrature_2d((p1 + 2, p2 + 2))
    H1b, dH1b, _, _ = me._axis_bases(p1, t[:, 0].tobytes())
    H2b, dH2b, _, _ = me._axis_bases(p2, t[:, 1].tobytes())
    fidx = [(n1, n2) for n1 in range(2, p1 + 1) for n2 in range(2, p2 + 1)]
    A1 = np.array([dH1b[n1] * H2b[n2] for n1, n2 in fidx])
    A2 = np.array([H1b[n1] * dH2b[n2] for n1, n2 in fidx])
    K = np.array([[(w2 * (a1 * b1 + a2 * b2)).sum() for b1, b2 in zip(A1, A2)]
                  for a1, a2 in zip(A1, A2)])
    return tuple(me._read_only(T) for T in (K, A1, A2))


def _project_faces(mesh, group, dirichlet_fn, attr, nc):
    """Bubbles of faces of one (order, components, edge lift orders): the
    parameter gradient less the vertex and edge lift, seminorm projected."""
    face, comps = group[0]
    p1, p2 = me.decode_face_order(face.order)
    nbub = _node_count("H1", "FACE", face.order)
    dofs = [_node_dofs(node, attr, nbub, nc) for node, _ in group]
    if nbub == 0:
        return
    corners = np.array([mesh.vertex_coords(node.verts) for node, _ in group])
    t, w2 = me.gauss_quadrature_2d((p1 + 2, p2 + 2))
    t1, t2 = t[:, 0], t[:, 1]
    hats = ([(1 - t1) * (1 - t2), t1 * (1 - t2), (1 - t1) * t2, t1 * t2],
            [-(1 - t2), (1 - t2), -t2, t2], [-(1 - t1), -t1, (1 - t1), t1])
    x, dx1, dx2 = (np.einsum("cp,fci->fpi", np.stack(h), corners) for h in hats)
    _, grads = dirichlet_fn(x.reshape(-1, 3))
    g1, g2 = ((grads.reshape(x.shape) * dx).sum(-1) for dx in (dx1, dx2))
    col1, col2 = t1.tobytes(), t2.tobytes()
    H1b, dH1b, _, _ = me._axis_bases(p1, col1)
    H2b, dH2b, _, _ = me._axis_bases(p2, col2)
    # lift: bilinear vertex part, then edge bubbles interpolated earlier
    cvals = dirichlet_fn(corners.reshape(-1, 3))[0].reshape(-1, 4, 1)
    l1, l2 = np.zeros_like(g1), np.zeros_like(g2)
    for c, (k1, k2) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        l1 += cvals[:, c] * dH1b[k1] * H2b[k2]
        l2 += cvals[:, c] * H1b[k1] * dH2b[k2]
    K, A1, A2 = _face_gram(p1, p2)
    for comp in comps:
        lift1, lift2 = l1.copy(), l2.copy()
        for pos in range(4):        # bottom, top (along t1), left, right
            pe = _lift_order(mesh, face, pos, attr)
            if pe < 2:
                continue
            edofs = np.array([mesh.NODES[node.edges[pos]].dofs[attr][:, comp]
                              for node, _ in group])
            Hb1, dHb1, _, _ = me._axis_bases(max(p1, pe), col1)
            Hb2, dHb2, _, _ = me._axis_bases(max(p2, pe), col2)
            for n in range(2, pe + 1):
                k1, k2 = (n, pos) if pos < 2 else (pos - 2, n)
                lift1 += edofs[:, n - 2, None] * dHb1[k1] * Hb2[k2]
                lift2 += edofs[:, n - 2, None] * Hb1[k1] * dHb2[k2]
        r1, r2 = (g1 - lift1)[:, None], (g2 - lift2)[:, None]
        rhs = (w2 * (r1 * A1 + r2 * A2)).sum(-1)
        sol = np.linalg.solve(K, rhs[..., None])[..., 0]   # K broadcast
        for d, s in zip(dofs, sol):
            d[:, comp] = s


def _flagged_nodes(mesh) -> list:
    """Vertex, edge and face nodes in use with a Dirichlet bit, by id."""
    nodes = mesh.NODES
    return [nodes[nid] for nid in sorted(mesh.skeleton_in_use())
            if nodes[nid].kind != "MIDDLE" and nodes[nid].bcond]


def update_Ddof(mesh, dirichlet_fn=None):
    """Interpolate Dirichlet data onto masked H1 DOFs, one group at a time.

    dirichlet_fn maps (n, 3) points to (values (n,), gradients (n, 3));
    it is required whenever some masked H1 attribute is not flagged
    homogeneous.  Vertices take point values (one call for all); edge and
    face bubbles solve seminorm projections in parameter coordinates at
    quadrature order p+2, one stack per group (edges of one order; faces
    of one order, masked components and lift edge orders), each node's
    bits those of its group of one.  Nodes no active element uses are
    skipped (a refined face an unrefined neighbour still uses stays in).
    """
    physics = mesh.physics
    flagged = _flagged_nodes(mesh)
    for attr, a in enumerate(physics.attrs):
        gbits = [physics.global_comp(attr, c) for c in range(a.ncomp)]
        masked_nodes = [(node, [c for c, g in enumerate(gbits) if node.bcond >> g & 1])
                        for node in flagged]
        masked_nodes = [(node, comps) for node, comps in masked_nodes if comps]
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
                "supported for H1 attributes")
        if dirichlet_fn is None:
            raise ConfigError("dirichlet_fn required for non-homogeneous data")
        for kind, project, key in (
                ("VERTEX", _project_vertices, lambda node, comps: 0),
                ("EDGE", _project_edges, lambda node, comps: node.order),
                ("FACE", _project_faces, lambda node, comps: (
                    node.order, tuple(comps), *(_lift_order(mesh, node, pos, attr)
                                                for pos in range(4))))):
            groups = {}
            for node, comps in masked_nodes:
                if node.kind == kind and (kind != "EDGE" or node.order > 1):
                    groups.setdefault(key(node, comps), []).append((node, comps))
            for group in groups.values():
                project(mesh, group, dirichlet_fn, attr, a.ncomp)


def update_gdof(mesh):
    """Recompute derived vertex coordinates.  No library path calls it: the
    refiner's centres are final; the name stays for the benchmark tracer."""
    for node in mesh.NODES[1:]:
        if node.kind == "VERTEX" and node.father:
            node.coords = _centre(mesh, mesh.NODES[node.father])
