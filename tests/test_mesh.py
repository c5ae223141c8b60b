import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hphex import masterel as me
from hphex import mesh as ms
from hphex.errors import MeshError, OrderError, OrientationError
from hphex.geometry import element_geometry

from conftest import apply_hp_ops, galerkin_physics, grid_geometry, hp_ops


def build(nx=1, ny=1, nz=1, order=(2, 2, 2), lengths=None):
    geo = grid_geometry(nx, ny, nz, lengths or (float(nx), float(ny), float(nz)))
    return ms.generate_initial_mesh(geo, galerkin_physics(), order)


def entity_counts(geo):
    """Independent entity census by hashing vertex tuples."""
    edges, faces = set(), set()
    for el in geo.elems:
        for a, b in me.EDGE_VERTS:
            edges.add(frozenset((el[a], el[b])))
        for quad in me.FACE_VERTS:
            faces.add(frozenset(el[i] for i in quad))
    return len(geo.points), len(edges), len(faces), len(geo.elems)


def kind_counts(mesh):
    out = {k: 0 for k in ("VERTEX", "EDGE", "FACE", "MIDDLE")}
    for node in mesh.NODES[1:]:
        out[node.kind] += 1
    return out


# ---------------------------------------------------------------------------
# generation

def test_single_element_mesh():
    mesh = build()
    assert mesh.NRELIS == 1
    assert mesh.NRELES == 1
    assert len(mesh.NODES) - 1 == 27
    assert mesh.NODES[1].kind == "MIDDLE"
    assert mesh.NODES[1].order == 222
    assert mesh.ELEM_ORDER == [1]


def test_two_element_entity_sharing(two_block_geo):
    counts = entity_counts(two_block_geo)
    assert counts == (12, 20, 11, 2)
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    got = kind_counts(mesh)
    assert got["VERTEX"] == 12
    assert got["EDGE"] == 20
    assert got["FACE"] == 11
    assert got["MIDDLE"] == 2
    # middle ids coincide with element indices
    assert mesh.NODES[1].kind == "MIDDLE"
    assert mesh.NODES[2].kind == "MIDDLE"
    # the shared face is the same node in both elements
    f1 = mesh.NODES[1].elem_nodes[20 + 3]  # face 4 of element 1 (x = max)
    f2 = mesh.NODES[2].elem_nodes[20 + 5]  # face 6 of element 2 (x = min)
    assert f1 == f2
    assert mesh.NODES[f1].bid is None   # interior, not a boundary face


def test_structured_grid_counts():
    for nx, ny, nz in ((2, 2, 1), (2, 2, 2), (3, 1, 2)):
        geo = grid_geometry(nx, ny, nz)
        nv, ne, nf, nm = entity_counts(geo)
        mesh = ms.generate_initial_mesh(geo, galerkin_physics(), (1, 1, 1))
        got = kind_counts(mesh)
        assert (got["VERTEX"], got["EDGE"], got["FACE"], got["MIDDLE"]) == \
            (nv, ne, nf, nm)


def test_opposite_edge_direction_rejected(two_block_geo):
    geo = two_block_geo
    # rotate the second element a quarter turn about its local x axis: the
    # handedness stays positive but shared entities reverse direction
    el = geo.elems.copy()
    el[1] = [el[1][i] for i in (3, 2, 6, 7, 0, 1, 5, 4)]
    bad = ms.GeometryFile(geo.points, el, [])
    with pytest.raises(OrientationError):
        ms.generate_initial_mesh(bad, galerkin_physics(), (2, 2, 2))


def test_inverted_element_rejected(two_block_geo):
    geo = two_block_geo
    el = geo.elems.copy()
    el[1] = [el[1][i] for i in (4, 5, 6, 7, 0, 1, 2, 3)]  # mirrored in z
    bad = ms.GeometryFile(geo.points, el, [])
    with pytest.raises(MeshError):
        ms.generate_initial_mesh(bad, galerkin_physics(), (2, 2, 2))


def test_repeated_vertex_rejected(unit_cube_geo):
    el = unit_cube_geo.elems.copy()
    el[0][1] = el[0][0]
    bad = ms.GeometryFile(unit_cube_geo.points, el, [])
    with pytest.raises(MeshError):
        ms.generate_initial_mesh(bad, galerkin_physics(), (1, 1, 1))


def test_interior_face_listed_rejected(two_block_geo):
    bad = ms.GeometryFile(two_block_geo.points, two_block_geo.elems, [(1, 4, 2)])
    with pytest.raises(MeshError):
        ms.generate_initial_mesh(bad, galerkin_physics(), (1, 1, 1))


def test_boundary_ids_assigned(two_block_geo):
    geo = ms.GeometryFile(two_block_geo.points, two_block_geo.elems, [(1, 6, 2)])
    mesh = ms.generate_initial_mesh(geo, galerkin_physics(), (1, 1, 1))
    assert mesh.NODES[mesh.NODES[1].elem_nodes[20 + 5]].bid == 2
    bids = [n.bid for n in mesh.NODES[1:] if n.kind == ms.FACE and n.bid is not None]
    assert bids.count(2) == 1
    assert len(bids) == 10


# ---------------------------------------------------------------------------
# geometry file parsing

GEO_TEXT = """\
HEXMESH 1
NPOINTS 8
0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
NELEMS 1
1 2 3 4 5 6 7 8
NBFACES 2
1 1 1
1 2 1
"""


def test_read_geometry(tmp_path):
    path = tmp_path / "cube.geo"
    path.write_text(GEO_TEXT)
    geo = ms.read_geometry(path)
    assert geo.points.shape == (8, 3)
    assert geo.elems.shape == (1, 8)
    assert geo.bfaces == [(1, 1, 1), (1, 2, 1)]
    # vertex order in the file is the master vertex order
    assert np.allclose(geo.points, me.VERT_COORDS)


def test_read_geometry_errors(tmp_path):
    path = tmp_path / "bad.geo"
    path.write_text("TETMESH 1\n")
    with pytest.raises(MeshError):
        ms.read_geometry(path)
    path.write_text(GEO_TEXT.replace("NBFACES 2", "NBFACES 3"))
    with pytest.raises(MeshError):
        ms.read_geometry(path)
    path.write_text(GEO_TEXT.replace("1 2 3 4 5 6 7 8", "1 2 3 4 5 6 7 9"))
    with pytest.raises(MeshError):
        ms.read_geometry(path)


@pytest.mark.parametrize("old, new", [
    ("NPOINTS 8", "NPOINTS x"),
    ("NPOINTS 8", "NPOINTS -8"),
    ("NELEMS 1", "NELEMS 1.0"),
    ("NELEMS 1", "NELEMS -1"),
    ("1 2 3 4 5 6 7 8", "1 2 3 4 5 6 7 8.5"),
    ("NBFACES 2", "NBFACES -2"),
    ("1 2 1\n", "1 two 1\n"),
])
def test_read_geometry_malformed_numbers(tmp_path, old, new):
    path = tmp_path / "bad.geo"
    assert old in GEO_TEXT
    path.write_text(GEO_TEXT.replace(old, new))
    with pytest.raises(MeshError):
        ms.read_geometry(path)


# ---------------------------------------------------------------------------
# traversal and h-refinement

def test_traversal_initial(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    assert ms.traverse_active(mesh) == [1, 2]


def test_traversal_after_refinement(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    ms.refine_element(mesh, 1)
    sons = mesh.NODES[1].sons
    assert len(sons) == 8
    assert ms.traverse_active(mesh) == sons + [2]
    assert mesh.NRELES == 9
    # refine the third son: its sons replace it in place
    target = sons[2]
    ms.refine_element(mesh, target)
    expected = sons[:2] + mesh.NODES[target].sons + sons[3:] + [2]
    assert ms.traverse_active(mesh) == expected
    assert mesh.NRELES == 16


def test_refinement_node_growth():
    """Fresh refinement of one element creates 117 nodes: 19 vertices
    (12 edge midpoints, 6 face centers, 1 center), 54 edges, 36 faces,
    and 8 middles, enumerating the refined 3x3x3 lattice."""
    mesh = build()
    before = len(mesh.NODES)
    ms.refine_element(mesh, 1)
    assert len(mesh.NODES) - before == 117
    got = kind_counts(mesh)
    assert got["VERTEX"] == 8 + 19
    assert got["EDGE"] == 12 + 54
    assert got["FACE"] == 6 + 36
    assert got["MIDDLE"] == 1 + 8
    assert mesh.NRELES == 8


def test_refine_twice_counts():
    mesh = build()
    ms.refine_element(mesh, 1)
    ms.refine_element(mesh, mesh.NODES[1].sons[0])
    assert mesh.NRELES == 15


def test_refine_errors():
    mesh = build()
    ms.refine_element(mesh, 1)
    with pytest.raises(MeshError):
        ms.refine_element(mesh, 1)  # now inactive
    with pytest.raises(MeshError):
        ms.refine_element(mesh, mesh.NODES[1].elem_nodes[0])  # a vertex


def test_node_ids_and_coords_stable_under_refinement():
    mesh = build(2, 1, 1)
    coords = {n.id: n.coords.copy() for n in mesh.NODES[1:] if n.kind == "VERTEX"}
    orders = {n.id: n.order for n in mesh.NODES[1:]}
    ms.refine_element(mesh, 1)
    for nid, xyz in coords.items():
        assert np.array_equal(mesh.NODES[nid].coords, xyz)
    for nid, order in orders.items():
        assert mesh.NODES[nid].order == order


def test_son_geometry_is_trilinear_subdivision():
    mesh = build()
    ms.refine_element(mesh, 1)
    sons = mesh.NODES[1].sons
    norder, xnod, nodes = ms.element_info(mesh, sons[0])
    assert xnod.min() == 0.0 and xnod.max() == 0.5
    assert np.allclose(sorted(map(tuple, xnod)), sorted(map(tuple, 0.5 * me.VERT_COORDS)))
    # the element center vertex is a corner of every octant
    ctr = mesh.NODES[sons[0]].elem_nodes[6]
    assert np.allclose(mesh.NODES[ctr].coords, (0.5, 0.5, 0.5))
    for son in sons:
        assert ctr in mesh.NODES[son].elem_nodes[:8]
    # octant vertex coordinates cover the full lattice
    lattice = set()
    for son in sons:
        for v in mesh.NODES[son].elem_nodes[:8]:
            lattice.add(tuple(mesh.NODES[v].coords))
    assert lattice == {(i / 2, j / 2, k / 2)
                       for i in range(3) for j in range(3) for k in range(3)}


def test_shared_entities_refined_once(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    ms.refine_element(mesh, 1)
    n1 = len(mesh.NODES)
    ms.refine_element(mesh, 2)
    n2 = len(mesh.NODES)
    # the shared face (+ its 9 sons already created) saves: 9 face-tree nodes
    # and 4 edge trees of 3 nodes each = 21 nodes
    assert (n2 - n1) == 117 - 21


def test_bcond_inherited_by_sons():
    mesh = build()
    mesh.set_boundary_flag(0, 0, 0, 1)
    ms.refine_element(mesh, 1)
    son = mesh.NODES[1].sons[0]
    info = mesh.NODES[son].elem_nodes
    # the son's face on the outer boundary (local face 1, z=0) is Dirichlet
    f1 = mesh.NODES[info[20]]
    assert f1.bid == 0
    assert f1.bcond & 1
    # interior entities created by the middle are free
    for nid in mesh.NODES[1].interior:
        assert mesh.NODES[nid].bcond == 0


# ---------------------------------------------------------------------------
# closure

def test_close_mesh_two_levels(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    ms.refine_element(mesh, 1)
    # refine a son touching the shared face (octants with local x = 1)
    son = mesh.NODES[1].sons[1]
    ms.refine_element(mesh, son)
    assert not ms.check_one_irregularity(mesh)
    before = mesh.NRELES
    ms.close_mesh(mesh)
    assert ms.check_one_irregularity(mesh)
    assert mesh.NRELES == before - 1 + 8  # element 2 refined exactly once
    # idempotent
    nreles = mesh.NRELES
    ms.close_mesh(mesh)
    assert mesh.NRELES == nreles


def test_close_mesh_noop_on_uniform():
    mesh = build(2, 2, 1)
    for m in list(mesh.ELEM_ORDER):
        ms.refine_element(mesh, m)
    before = mesh.NRELES
    ms.close_mesh(mesh)
    assert mesh.NRELES == before


def _constrained_pairs(mesh):
    """Independent 1-irregularity audit via father chains.

    A node used by an active element whose father is an in-use edge or
    face is constrained; the constraining father must itself be
    unconstrained.
    """
    used = set()
    for m in mesh.ELEM_ORDER:
        used.update(mesh.NODES[m].elem_nodes)

    def constrained(nid):
        fid = mesh.NODES[nid].father
        return (fid and mesh.NODES[fid].kind in ("EDGE", "FACE")
                and fid in used)

    bad = []
    for nid in used:
        fid = mesh.NODES[nid].father
        if constrained(nid) and constrained(fid):
            bad.append((nid, fid))
    return bad


def test_random_refinement_sequences_stay_consistent():
    rng = np.random.default_rng(42)
    mesh = build(2, 2, 2, order=(2, 2, 2))
    for step in range(12):
        order = ms.traverse_active(mesh)
        pick = rng.choice(order, size=min(2, len(order)), replace=False)
        for m in pick:
            if mesh.NODES[m].active:
                ms.refine_element(mesh, int(m))
        ms.close_mesh(mesh)
        # counters
        assert mesh.NRELES == len(mesh.ELEM_ORDER)
        assert sorted(mesh.ELEM_ORDER) == sorted(mesh.active_middles_scan())
        # refinement splices sons in place: the order is the tree pre-order
        assert list(mesh.ELEM_ORDER) == ms.traverse_active(mesh)
        # tree consistency
        for node in mesh.NODES[1:]:
            if node.kind == "MIDDLE" and not node.active:
                assert len(node.sons) == 8
                for s in node.sons:
                    assert mesh.NODES[s].father == node.id
        assert ms.check_one_irregularity(mesh)
        assert _constrained_pairs(mesh) == []
        _assert_element_structure(mesh)


def _assert_element_structure(mesh):
    """Every active element's edges and faces are its own, vertex by vertex
    and edge by edge, and a son's vertices sit at its octant's lattice
    points inside the father."""
    for mdle in mesh.ELEM_ORDER:
        node = mesh.NODES[mdle]
        verts, edges = node.elem_nodes[0:8], node.elem_nodes[8:20]
        for k, (a, b) in enumerate(me.EDGE_VERTS):
            assert mesh.NODES[edges[k]].verts == (verts[a], verts[b])
        for f, fid in enumerate(node.elem_nodes[20:26]):
            face = mesh.NODES[fid]
            assert face.verts == tuple(verts[i] for i in me.FACE_VERTS[f])
            assert face.edges == tuple(edges[e] for e in me.FACE_EDGES[f])
        if node.father:
            father = mesh.NODES[node.father]
            octant = me.VERT_COORDS[father.sons.index(mdle)]
            corners = element_geometry(
                mesh.vertex_coords(father.elem_nodes[0:8]),
                0.5 * (octant + me.VERT_COORDS)).x
            assert np.allclose(mesh.vertex_coords(verts), corners,
                               rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# p-refinement

def test_global_pref_punref():
    """Every non-vertex node rises by one per axis, inactive ones included,
    and every node drops its dofs: on a uniform mesh, and on one with an
    h-refined element beside a p-refined neighbour (where p-refining every
    active element would leave the inactive nodes as they are)."""
    mesh = build(2, 1, 1)
    ms.global_pref(mesh)
    for node in mesh.NODES[1:]:
        if node.kind == "EDGE":
            assert node.order == 3
        elif node.kind == "FACE":
            assert node.order == 33
        elif node.kind == "MIDDLE":
            assert node.order == 333

    mesh = build(2, 1, 1)
    ms.refine_element(mesh, 1)
    ms.execute_pref(mesh, [2])
    assert not mesh.NODES[1].active and mesh.NODES[2].order == 333
    before = {n.id: n.order for n in mesh.NODES[1:]}
    for node in mesh.NODES[1:]:
        node.dofs = {0: np.zeros((1, 1))}
    ms.global_pref(mesh)
    step = {"VERTEX": 0, "EDGE": 1, "FACE": 11, "MIDDLE": 111}
    for node in mesh.NODES[1:]:
        assert node.order == before[node.id] + step[node.kind]
        assert node.dofs is None


def test_global_pref_at_ceiling():
    mesh = build(1, 1, 1, order=(9, 9, 9))
    with pytest.raises(OrderError):
        ms.global_pref(mesh)


def test_adaptive_pref_min_max(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(),
                                    (2, 2, 2))
    ms.adaptive_pref(mesh, [(2, (3, 3, 3))])
    assert mesh.NODES[2].order == 333
    assert mesh.NODES[1].order == 222
    shared = mesh.NODES[1].elem_nodes[20 + 3]
    assert mesh.NODES[shared].order == 22
    for eid in mesh.NODES[shared].edges:
        assert mesh.NODES[eid].order == 2
    # faces touching only the raised element follow it
    back = mesh.NODES[2].elem_nodes[20 + 3]
    assert mesh.NODES[back].order == 33


def test_adaptive_pref_noop(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    orders = {n.id: n.order for n in mesh.NODES[1:]}
    ms.adaptive_pref(mesh, [(1, (2, 2, 2))])
    assert {n.id: n.order for n in mesh.NODES[1:]} == orders


def test_adaptive_pref_keeps_constrained_sons_dominant(two_block_geo):
    """With a hanging face, lowering the fine side must not drop the son
    faces below the coarse parent's order."""
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (3, 3, 3))
    ms.refine_element(mesh, 2)
    shared = mesh.NODES[1].elem_nodes[20 + 3]
    parent = mesh.NODES[shared]
    assert parent.sons  # refined by the neighbor
    targets = [(m, (2, 2, 2)) for m in mesh.NODES[2].sons]
    ms.adaptive_pref(mesh, targets)
    assert parent.order == 33  # still driven by element 1
    for q in parent.sons[0:4]:
        assert mesh.NODES[q].order == 33
    for k, eid in enumerate(parent.sons[4:8]):
        assert mesh.NODES[eid].order == 3


def test_execute_pref(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    ms.execute_pref(mesh, [1, 2])
    assert mesh.NODES[1].order == 333
    assert mesh.NODES[2].order == 333
    shared = mesh.NODES[1].elem_nodes[20 + 3]
    assert mesh.NODES[shared].order == 33


def test_adaptive_pref_minimum_rule_property():
    """On random hp meshes, one adaptive_pref that raises and lowers orders
    leaves every in-use edge and face at, per axis, the least order of the
    active elements using it, raised to its father's order when the father
    is an in-use edge or face.  A node whose order changed has no dofs; one
    whose order stayed keeps its array, hanging nodes included.  Exempt
    from the last check are the targeted middles, which always drop their
    dofs."""
    seen = set()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(nx=st.integers(1, 2), ny=st.integers(1, 2), p=st.integers(1, 3),
           ops=hp_ops(4), picks=st.lists(st.tuples(
               st.integers(0, 63), st.tuples(*[st.integers(1, 4)] * 3)),
               min_size=1, max_size=6))
    def check(nx, ny, p, ops, picks):
        mesh = build(nx, ny, 1, order=(p, p, p))
        apply_hp_ops(mesh, ops)
        before = {n.id: n.order for n in mesh.NODES[1:]}
        for node in mesh.NODES[1:]:
            node.dofs = {0: np.full((1, 1), node.id)}
        sentinels = {n.id: n.dofs for n in mesh.NODES[1:]}
        targets = [(mesh.ELEM_ORDER[k % len(mesh.ELEM_ORDER)], want)
                   for k, want in picks]
        ms.adaptive_pref(mesh, targets)

        least = {}
        for m in mesh.ELEM_ORDER:
            p = me.decode_order(mesh.NODES[m].order)
            own = mesh.NODES[m].elem_nodes
            for e in range(12):
                least.setdefault(own[8 + e], []).append((p[me.EDGE_AXIS[e]],))
            for f, (a1, a2) in enumerate(me.FACE_AXES):
                least.setdefault(own[20 + f], []).append((p[a1], p[a2]))
        for nid, asks in least.items():
            node = mesh.NODES[nid]
            want = tuple(min(col) for col in zip(*asks))
            if node.father in least:        # an in-use edge or face
                father = mesh.NODES[node.father]
                pf = father.orders
                if node.kind == "EDGE" and father.kind == "FACE":
                    pf = (pf[(father.sons.index(nid) - 4) // 2],)
                raised = tuple(max(w, q) for w, q in zip(want, pf))
                seen.add("raised" if raised != want else "dominant")
                want = raised
            assert node.orders == want
        exempt = {m for m, _ in targets}
        for node in mesh.NODES[1:]:
            if node.order != before[node.id]:
                assert node.dofs is None
                seen.add("changed")
            elif node.id not in exempt:
                assert node.dofs is sentinels[node.id]
                seen.add("kept")

    check()
    assert seen == {"raised", "dominant", "changed", "kept"}


def _orders(mesh):
    return {n.id: n.order for n in mesh.NODES[1:]}


@pytest.mark.parametrize("targets, error", [
    ([(1, (3, 3, 3)), (99999, (2, 2, 2))], MeshError),
    ([(1, (3, 3, 3)), (0, (2, 2, 2))], MeshError),
    ([(1, (3, 3, 3)), (3, (2, 2, 2))], MeshError),      # node 3 is a vertex
    ([(1, (3, 3, 3)), (2, (12, 2, 2))], OrderError),
    ([(1, (3, 3, 3)), (2, (2, 0, 2))], OrderError),
])
def test_adaptive_pref_checks_every_target_first(two_block_geo, targets, error):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    before = _orders(mesh)
    with pytest.raises(error):
        ms.adaptive_pref(mesh, targets)
    assert _orders(mesh) == before


@pytest.mark.parametrize("mdles", [[1, 0], [1, 99999], [1, -1]])
def test_execute_pref_checks_every_id_first(two_block_geo, mdles):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    before = _orders(mesh)
    with pytest.raises(MeshError):
        ms.execute_pref(mesh, mdles)
    assert _orders(mesh) == before


def test_execute_pref_past_maxp_changes_nothing(two_block_geo):
    mesh = ms.generate_initial_mesh(two_block_geo, galerkin_physics(), (2, 2, 2))
    ms.adaptive_pref(mesh, [(2, (me.MAXP,) * 3)])
    before = _orders(mesh)
    with pytest.raises(OrderError):
        ms.execute_pref(mesh, [1, 2])
    assert _orders(mesh) == before


# ---------------------------------------------------------------------------
# element_info

def test_element_info_initial():
    mesh = build()
    norder, xnod, nodes = ms.element_info(mesh, 1)
    assert norder == [2] * 12 + [22] * 6 + [222]
    assert np.allclose(sorted(map(tuple, xnod)), sorted(map(tuple, me.VERT_COORDS)))
    assert len(nodes) == 27
    assert nodes[-1] == 1


def test_element_info_requires_active():
    mesh = build()
    ms.refine_element(mesh, 1)
    with pytest.raises(MeshError):
        ms.element_info(mesh, 1)
