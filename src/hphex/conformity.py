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

One per-axis rule gives every case in both spaces.  Masterel's shape
recipe gives each parent-group column its 1D index on each parent axis,
and a son's coefficient is the product over the parent's axes of one 1D
factor at that index: on a half, the son's rows of the 1D restriction
(H1: its bubble rows; H(div): half the Legendre restriction), and on the
midline the parent's 1D H1 function at 1/2.

The module also owns Dirichlet DOF interpolation (vertex values, then
edge and face H1-seminorm projections in parameter coordinates) and the
node dof arrays: (rows, ncomp) per (node, attr), the value of key (node,
attr, comp, k) at [k, comp], read by `_stored` and written by `_write_dofs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import masterel as me
from .errors import ConfigError, IrregularityError, MeshError, SolveError
from .mesh import SONS, _centre, element_info

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


def _parent_orders(space, naxes, parent_order):
    """The parent's orders as ints: (p,) on an edge, (p1, p2) on a face,
    then on an H1 face its bottom, top, left and right edge orders, which
    default to the face's own."""
    try:
        vals = tuple(int(v) for v in np.atleast_1d(parent_order))
    except (TypeError, ValueError):
        vals = ()
    if space == "H1" and naxes == 2 and len(vals) == 2:
        vals += (vals[0], vals[0], vals[1], vals[1])
    if len(vals) != (6 if space == "H1" and naxes == 2 else naxes) or min(vals) < 1:
        raise ConfigError(f"{space} parent order {parent_order!r}: expected "
                          f"{naxes} positive entries, or 6 on an H1 face")
    return vals


@lru_cache(maxsize=None)
def _group_indices(space, orders):
    """Maximum order per parent axis and the read-only (axes, columns)
    tensor index of each parent-group column, in `_parent_group` order
    (vertices, edges, the node), read off the shape recipe of an element
    whose edge 1 or face 1 and its edges carry `_parent_orders`."""
    norder = me.uniform_norder((1, 1, 1))
    if len(orders) == 1:
        axes, nodes = (0,), (*me.EDGE_VERTS[0], 8)
        norder[0] = orders[0]
    else:
        axes, edges = me.FACE_AXES[0], me.FACE_EDGES[0]
        nodes = (*me.FACE_VERTS[0], *(8 + e for e in edges), 20)
        norder[12] = me.encode_face_order(*orders[:2])
        for e, q in zip(edges, orders[2:]):
            norder[e] = q
    pmax, slots, _, idx = me._recipe(space, tuple(norder))
    cols = np.concatenate([np.flatnonzero(slots == s) for s in nodes])
    return (tuple(pmax[a] for a in axes),
            me._read_only(np.ascontiguousarray(idx[np.ix_(cols, axes)].T)))


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
    (p1, p2), or on an H1 face (p1, p2, q_bottom, q_top, q_left, q_right)
    to give the parent face's edges their own orders.  The child defaults
    to the parent's order on each axis it spans.  The result is a
    read-only C-contiguous array, one product over the parent's axes of
    one 1D factor at each column's index on that axis.
    """
    if case not in _HALVES or space not in ("H1", "HDIV"):
        raise ConfigError(f"no constraints defined for space {space!r}, case {case!r}")
    halves = _HALVES[case]
    orders = _parent_orders(space, len(halves), parent_order)
    if space == "HDIV" and (len(halves) < 2 or None in halves):
        return np.zeros((0, 0))     # edges and vertices carry no flux dofs
    pp, idx = _group_indices(space, orders)
    split = [a for a, h in enumerate(halves) if h is not None]
    child = dict(zip(split, _child_orders(tuple(orders[a] for a in split),
                                          child_order)))
    factors = [_h1_values_at_half(pp[a])[None] if h is None
               else _h1_restriction(child[a], pp[a], h)[2:] if space == "H1"
               else 0.5 * _legendre_restriction(child[a], pp[a], h)
               for a, h in enumerate(halves)]
    C = factors[0][:, idx[0]]
    for f, i in zip(factors[1:], idx[1:]):
        C = (C[:, None] * f[None, :, i]).reshape(-1, idx.shape[1])
    return me._read_only(np.ascontiguousarray(C))


# ---------------------------------------------------------------------------
# modified element

@dataclass
class ModifiedElement:
    """Modified elements of one stack: elements of a batch that share one
    modified dof count.  Every field but `conforming` has a leading stack
    axis, which a single-element call drops.  It holds no C."""

    mdle: np.ndarray            # (E,) element ids
    dof_nodes: np.ndarray       # (E, n, 4): (node id, attr, comp, k) per dof
    dirichlet: np.ndarray       # (E, n) bool
    dirichlet_values: np.ndarray
    bubble: np.ndarray          # (E, n) bool: interior (middle-node) dofs
    conforming: bool = False    # no slot is constrained, so C = I


def _assert_unconstrained(mesh, nids, context):
    hanging = mesh.hanging_nodes()
    for nid in nids:
        if hanging[nid]:
            raise IrregularityError(f"{context}: node {nid} is itself constrained "
                                    "(mesh is 2-irregular; close_mesh was skipped)")


@lru_cache(maxsize=None)
def _node_count(space, kind, order):
    """Scalar dofs on one vertex, edge or face node, read off the shape
    recipe of an element whose edge 1 and face 1 carry the node's order."""
    p1, p2 = me.decode_face_order(order) if kind == "FACE" else (max(order, 1), 1)
    counts = me.layout_counts(space, me.uniform_norder((p1, p2, 1)))
    return int(counts[{"VERTEX": 0, "EDGE": 8, "FACE": 20}[kind]])


def _parent_group(mesh, space, nid):
    """Parent-group columns [(node, k), ...] of a constrained node plus
    `constraint_coefficients`' middle arguments: its case and the order
    bundle (the parent's orders, then its edges' orders for an H1 face)."""
    parent = mesh.NODES[mesh.NODES[nid].father]
    if parent.kind == "EDGE":
        nids = parent.verts + (parent.id,)
    elif space == "HDIV":
        nids = (parent.id,)
    else:
        nids = parent.verts + parent.edges + (parent.id,)
    edges = () if space == "HDIV" else parent.edges
    order = sum((mesh.NODES[e].orders for e in edges), parent.orders)
    _assert_unconstrained(mesh, nids, f"{parent.kind.lower()} {parent.id}")
    case = _CASES[parent.kind][parent.sons.index(nid)]
    return [(n, k) for n in nids
            for k in range(_node_count(space, mesh.NODES[n].kind,
                                       mesh.NODES[n].order))], (case, order)


def scalar_slot_counts(mesh, mdle, space, interface_only=False):
    """[(node id, scalar dof count)] over the element's 27 slots."""
    norder, _, nodes = element_info(mesh, mdle)
    counts = me.layout_counts(space, norder,
                              include_middle=not interface_only)
    return [(nodes[s], int(counts[s])) for s in range(27)], norder


def _columns(mesh, mdle, attr):
    """[(node id, dof count, modified columns, coefficient arguments or None)]
    over the live slots of one attribute of an element, and the (node, attr,
    comp, k) key of each modified dof; shared parent nodes coalesce across
    slots and across constrained children.  Reads parent groups only."""
    a = mesh.physics.attrs[attr]
    slots, _ = scalar_slot_counts(mesh, mdle, a.fe_space, a.is_trace)
    cols, live, hanging = {}, [], mesh.hanging_nodes()
    for nid, count in (slot for slot in slots if slot[1]):
        group, args = (_parent_group(mesh, a.fe_space, nid) if hanging[nid]
                       else ([(nid, k) for k in range(count)], None))
        live.append((nid, count, [cols.setdefault(g, len(cols)) for g in group], args))
    return live, [(nid, attr, c, k) for nid, k in cols for c in range(a.ncomp)]


def _expansion(mesh, mdle, attr):
    """C (local x modified dofs) of one attribute of an element, its rows
    the slots' dofs and its columns those of `_columns`."""
    a = mesh.physics.attrs[attr]
    live, keys = _columns(mesh, mdle, attr)
    C, row = np.zeros((sum(c for _, c, _, _ in live), len(keys) // a.ncomp)), 0
    for nid, count, at, args in live:
        M = np.eye(count) if args is None else constraint_coefficients(
            a.fe_space, *args, mesh.NODES[nid].orders)
        if M.shape[0] != count:
            raise MeshError(f"node {nid}: constraint rows {M.shape[0]} "
                            f"!= dof count {count}")
        C[row:row + count, at] = M + 0.0   # zeros as +0.0: C is never -0.0
        row += count
    return np.kron(C, np.eye(a.ncomp)) if a.ncomp > 1 else C


@lru_cache(maxsize=None)
def _local_layout(attrs, norder):
    """(attr, slot, comp, k) of each local dof, in the order of the rows
    of C; `attrs` holds (fe_space, ncomp, is_trace) per attribute."""
    rows = [(attr, s, c, k) for attr, (space, nc, trace) in enumerate(attrs)
            for s, count in enumerate(me.layout_counts(
                space, norder, include_middle=not trace).tolist())
            for k in range(count) for c in range(nc)]
    return me._read_only(np.array(rows, dtype=np.int64).reshape(-1, 4))


def _arrays(mesh, keys):
    """The distinct (node, attr) pairs of an (n, 4) array of dof keys: each
    key's pair, and per pair its node id, attr and stored array (None if
    none), for the node dof format's one reader and one writer."""
    nattr, nodes = mesh.physics.nr_physa, mesh.NODES
    pairs, at = np.unique(keys[:, 0] * nattr + keys[:, 1], return_inverse=True)
    nids, attrs = (pairs // nattr).tolist(), (pairs % nattr).tolist()
    return at, nids, attrs, [d.get(a) if (d := nodes[n].dofs) else None
                             for n, a in zip(nids, attrs)]


def _stored(mesh, keys):
    """Stored value of each key of an (n, 4) array (zero past its node's
    rows) and whether its (node, attr) stores an array."""
    at, _, _, arrays = _arrays(mesh, keys)
    size = np.array([-1 if d is None else d.size for d in arrays], dtype=np.int64)
    pos = keys[:, 3] * np.array(mesh.physics.nr_comp)[keys[:, 1]] + keys[:, 2]
    hit = pos < size[at]            # a pair storing nothing has size -1
    table = np.concatenate([np.zeros(0)] + [d.ravel() for d in arrays if d is not None])
    start = np.cumsum(size.clip(0)) - size.clip(0)
    values = np.zeros(len(keys))
    values[hit] = table[start[at[hit]] + pos[hit]]
    return values, size[at] >= 0


def _write_dofs(mesh, keys, vals):
    """Store vals at their (node, attr, comp, k) keys in the node dof arrays.

    Each (node, attr) written takes a fresh array, rows of one buffer,
    as long as its largest k and its old array, whose values it keeps
    where no key lands.
    """
    at, nids, attrs, olds = _arrays(mesh, keys)
    nrow = np.array([0 if d is None else len(d) for d in olds], dtype=np.int64)
    np.maximum.at(nrow, at, keys[:, 3] + 1)
    ncomp = np.array(mesh.physics.nr_comp)[attrs]
    start = np.cumsum(nrow * ncomp) - nrow * ncomp
    buf = np.zeros(int((nrow * ncomp).sum()))
    for nid, attr, old, lo, r, c in zip(nids, attrs, olds, start.tolist(),
                                        nrow.tolist(), ncomp.tolist()):
        node, new = mesh.NODES[nid], buf[lo:lo + r * c].reshape(r, c)
        node.dofs = node.dofs or {}
        node.dofs[attr] = new
        if old is not None:
            new[:len(old)] = old
    buf[start[at] + keys[:, 3] * ncomp[at] + keys[:, 2]] = vals


def _dirichlet(mesh, keys):
    """Dirichlet mask and values of a (..., 4) array of dof keys.  A dof is
    masked when its node, not a middle node, has the bcond bit of its
    global component; masked values are read through `_stored`."""
    physics, nodes = mesh.physics, mesh.NODES
    flat = keys.reshape(-1, 4)
    nids, inv = np.unique(flat[:, 0], return_inverse=True)
    bcond = np.array([0 if nodes[n].kind == "MIDDLE" else nodes[n].bcond
                      for n in nids.tolist()], dtype=np.int64)
    offset = np.array([physics.comp_offset(a) for a in range(physics.nr_physa)])
    mask = (bcond[inv] >> (offset[flat[:, 1]] + flat[:, 2]) & 1).astype(bool)
    values = np.zeros(len(flat))
    values[mask] = _stored(mesh, flat[mask])[0]
    return mask.reshape(keys.shape[:-1]), values.reshape(keys.shape[:-1])


def constraint_matrix(mesh, mdle) -> np.ndarray:
    """C (local x modified dofs) of one element, the identity if it is
    conforming: its attributes' expansions, in physics-table order."""
    return scipy.linalg.block_diag(*(_expansion(mesh, mdle, attr)
                                     for attr in range(mesh.physics.nr_physa)))


def modified_element(mesh, mdles):
    """Modified dofs, Dirichlet data, and bubble partition of a batch of
    elements that share one order vector: a list of stacks, the conforming
    elements (C = I) first, then each constrained element alone.  One
    element id gives its own ModifiedElement, without the stack axis.

    When no slot is constrained the modified dofs are the slot dofs
    themselves, laid out once per batch from the slot counts and read off
    the (E, 27) node ids; a constrained element's are the columns of its
    `constraint_matrix`, read off its parent groups: no C is formed.
    """
    if np.isscalar(mdles):
        (mod,) = modified_element(mesh, [mdles])
        return ModifiedElement(**{k: v if k == "conforming" else v[0]
                                  for k, v in vars(mod).items()})
    ids = np.array([mesh.element(m).elem_nodes + (m,) for m in mdles])
    nids, inv = np.unique(ids[:, :26], return_inverse=True)
    hanging = mesh.hanging_nodes()[nids]
    conforming = ~hanging[inv.reshape(-1, 26)].any(axis=1)
    stacks = []                     # (element ids, keys, conforming)
    if conforming.any():
        layout = _local_layout(
            tuple((a.fe_space, a.ncomp, a.is_trace) for a in mesh.physics.attrs),
            tuple(element_info(mesh, mdles[0])[0]))
        attr, slot, comp, k = layout.T
        pick = np.flatnonzero(conforming)
        keys = np.stack(np.broadcast_arrays(
            ids[pick][:, slot], attr, comp, k), axis=-1)
        stacks.append((ids[pick, 26], keys, True))
    for e in np.flatnonzero(~conforming).tolist():
        keys = sum((_columns(mesh, mdles[e], attr)[1]
                    for attr in range(mesh.physics.nr_physa)), [])
        stacks.append((ids[e:e + 1, 26], np.array(keys).reshape(1, -1, 4), False))
    return [ModifiedElement(mdle, keys, *_dirichlet(mesh, keys),
                            keys[..., 0] == mdle[:, None], conf)
            for mdle, keys, conf in stacks]


def gather_solution(mesh, mdles, attr: int) -> np.ndarray:
    """Local conforming coefficients (E, nscalar, ncomp) of one attribute
    on a batch of elements that share one order vector; one element id
    gives its (nscalar, ncomp) view of the batch of one.  The batch's local
    keys are read through `_stored`, but each distinct hanging node is
    resolved once, as M @ its parent group's stored values.  A dof that is
    neither stored nor Dirichlet-masked raises."""
    if np.isscalar(mdles):
        return gather_solution(mesh, [mdles], attr)[0]
    a = mesh.physics.attrs[attr]
    nc = a.ncomp
    _, slot, comp, k = _local_layout(((a.fe_space, nc, a.is_trace),),
                                     tuple(element_info(mesh, mdles[0])[0])).T
    ids = np.array([mesh.element(m).elem_nodes + (m,) for m in mdles])
    keys = np.stack(np.broadcast_arrays(ids[:, slot], attr, comp, k),
                    axis=-1).reshape(-1, 4)
    out, has = _stored(mesh, keys)
    hang = mesh.hanging_nodes()[keys[:, 0]]
    hanging, where = np.unique(keys[hang, 0], return_inverse=True)
    groups = [_parent_group(mesh, a.fe_space, nid) for nid in hanging.tolist()]
    read = np.array([(n, attr, c, j) for group, _ in groups for n, j in group
                     for c in range(nc)], dtype=np.int64).reshape(-1, 4)
    values, stored = _stored(mesh, read)
    missing = np.concatenate([keys[~has & ~hang], read[~stored]])
    masked, _ = _dirichlet(mesh, missing)
    if not masked.all():
        raise SolveError(f"node {missing[~masked][0, 0]} has no solution dofs "
                         f"for attr {attr}")
    tables, lo = [], 0
    for nid, (group, args) in zip(hanging.tolist(), groups):
        M = constraint_coefficients(a.fe_space, *args, mesh.NODES[nid].orders)
        tables.append((M @ values[lo:lo + len(group) * nc].reshape(-1, nc)).ravel())
        lo += len(group) * nc
    size = np.array([t.size for t in tables], dtype=np.int64)
    out[hang] = np.concatenate([np.zeros(0), *tables])[
        (np.cumsum(size) - size)[where] + keys[hang, 3] * nc + keys[hang, 2]]
    return out.reshape(len(mdles), -1, nc)


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
    fidx = _group_indices("H1", (p1, p2, 1, 1, 1, 1))[1].T[4:]   # the face's own
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
    # lift: the face group's vertex and edge columns, at the corner values
    # and the edge bubbles interpolated earlier
    lift = [_lift_order(mesh, face, pos, attr) for pos in range(4)]
    pp, idx = _group_indices("H1", (p1, p2, *lift))
    (H1b, dH1b, _, _), (H2b, dH2b, _, _) = (
        me._axis_bases(p, t[:, a].tobytes()) for a, p in enumerate(pp))
    cvals = dirichlet_fn(corners.reshape(-1, 3))[0].reshape(-1, 4)
    K, A1, A2 = _face_gram(p1, p2)
    for comp in comps:
        coef = np.concatenate([cvals] + [np.array(
            [mesh.NODES[node.edges[pos]].dofs[attr][:pe - 1, comp] for node, _ in group])
            for pos, pe in enumerate(lift) if pe > 1], axis=1)
        lift1, lift2 = np.zeros_like(g1), np.zeros_like(g2)
        for c, (k1, k2) in zip(coef.T, idx.T[:-nbub]):
            lift1 += c[:, None] * dH1b[k1] * H2b[k2]
            lift2 += c[:, None] * H1b[k1] * dH2b[k2]
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
