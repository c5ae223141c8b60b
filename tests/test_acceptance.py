"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and enforces both the numeric tolerance and the runtime budget.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from hphex import adapt, assembly, geometry as gm, masterel as me
from hphex import conformity as cf, poisson as po, vtu
from hphex.mesh import (close_mesh, check_one_irregularity, element_info,
                        execute_pref, generate_initial_mesh, refine_element,
                        traverse_active)
from hphex.errors import HphexError
from hphex.physics import PhysicsAttr, PhysicsTable

from conftest import grid_geometry


def report(cid, label, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"\n[{cid}] {label}: {verdict} ({detail}, {elapsed:.1f}s/{budget}s)")
    assert ok, f"{cid} {label}: {detail}"
    assert elapsed < budget, f"{cid} exceeded {budget}s budget ({elapsed:.1f}s)"


# ---------------------------------------------------------------------------
# helpers shared by several criteria


def eval_h1_at(mesh, mdle, pts):
    """Values of the first H1 attribute at master points of one element."""
    norder, xnod, _ = element_info(mesh, mdle)
    geom = gm.element_geometry(xnod, pts)
    shp = me.shape_functions_elem(me.H1, pts, norder)
    val, _ = gm.piola_transform(me.H1, shp, geom)
    return geom.x, cf.gather_solution(mesh, mdle, 0)[:, 0] @ val


def eval_uw_at(mesh, mdle, pts):
    """(x, u, sigma) of the ultraweak field variables at master points."""
    norder, xnod, _ = element_info(mesh, mdle)
    geom = gm.element_geometry(xnod, pts)
    shp = me.shape_functions_elem(me.L2, pts, norder)
    val, _ = gm.piola_transform(me.L2, shp, geom)
    u = cf.gather_solution(mesh, mdle, 2)[:, 0] @ val
    sig = np.einsum("kc,kq->cq", cf.gather_solution(mesh, mdle, 3), val)
    return geom.x, u, sig


def master_lattice(n=4):
    t = np.linspace(0.0, 1.0, n)
    g = np.meshgrid(t, t, t, indexing="ij")
    return np.column_stack([a.reshape(-1) for a in g[::-1]])


def irregular_two_block(problem, order):
    """Two-element block with the left element refined once."""
    mesh = po.make_mesh(problem, grid_geometry(2, 1, 1, lengths=(2, 1, 1)),
                        order)
    refine_element(mesh, mesh.ELEM_ORDER[0])
    close_mesh(mesh)
    cf.update_gdof(mesh)
    cf.update_Ddof(mesh, problem.dirichlet_fn())
    assert check_one_irregularity(mesh)
    return mesh


def brute_saddle_reduction(stiff_all, G):
    """Trial-block Schur complement of the saddle system [[G, B], [B^T, 0]].

    stiff_all carries the load as its last column, so the reduction
    yields [K | b] in one stroke.
    """
    full = stiff_all.T @ np.linalg.solve(G, stiff_all)
    return np.column_stack([full[:-1, :-1], full[:-1, -1]])


# ---------------------------------------------------------------------------
# 1. exact-sequence suite


def test_c01_exact_sequence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pts = rng.uniform(0.1, 0.9, (100, 3))
    h = 1e-5
    shift = [pts.copy() for _ in range(6)]
    for ax in range(3):
        shift[2 * ax][:, ax] += h
        shift[2 * ax + 1][:, ax] -= h

    worst_null = 0.0
    worst_span = 0.0
    for order in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 1)):
        # curl(grad ...) = 0 by finite differences of the gradient field
        g = [me.shape_functions(me.H1, s, order).grad for s in shift]
        dg = [(g[2 * ax] - g[2 * ax + 1]) / (2 * h) for ax in range(3)]
        curl = np.stack([dg[1][:, 2] - dg[2][:, 1],
                         dg[2][:, 0] - dg[0][:, 2],
                         dg[0][:, 1] - dg[1][:, 0]])
        worst_null = max(worst_null, float(np.abs(curl).max()))
        # div(curl ...) = 0 by finite differences of the curl field
        c = [me.shape_functions(me.HCURL, s, order).curl for s in shift]
        div = sum((c[2 * ax][:, ax] - c[2 * ax + 1][:, ax]) / (2 * h)
                  for ax in range(3))
        worst_null = max(worst_null, float(np.abs(div).max()))

        # span containment at the unshifted points
        h1 = me.shape_functions(me.H1, pts, order)
        hc = me.shape_functions(me.HCURL, pts, order)
        hd = me.shape_functions(me.HDIV, pts, order)
        l2 = me.shape_functions(me.L2, pts, order)
        for target, basis in (
                (h1.grad.reshape(h1.nrdof, -1), hc.values.reshape(hc.nrdof, -1)),
                (hc.curl.reshape(hc.nrdof, -1), hd.values.reshape(hd.nrdof, -1)),
                (hd.div, l2.values)):
            coef, *_ = np.linalg.lstsq(basis.T, target.T, rcond=None)
            resid = target.T - basis.T @ coef
            worst_span = max(worst_span, float(np.abs(resid).max()))

    ok = worst_null < 1e-6 and worst_span < 1e-10
    report("c01", "exact-sequence suite", ok,
           f"null {worst_null:.2e}, span {worst_span:.2e}", t0, 10)


# ---------------------------------------------------------------------------
# 2. quadrature exactness


def test_c02_quadrature_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        pts, w = me.gauss_quadrature_3d((n, n, n))
        deg = np.arange(2 * n)
        powers = [pts[:, ax][None, :] ** deg[:, None] for ax in range(3)]
        got = np.einsum("am,bm,cm,m->abc", *powers, w)
        exact = 1.0 / np.multiply.outer(
            np.multiply.outer(deg + 1, deg + 1), deg + 1)
        worst = max(worst, float(np.abs(got - exact).max()))
    ok = worst < 1e-13
    report("c02", "quadrature exactness", ok, f"max dev {worst:.2e}", t0, 1)


# ---------------------------------------------------------------------------
# 3. patch tests


def test_c03_patch_tests():
    t0 = time.perf_counter()
    pts = master_lattice(4)
    worst = {}
    for kind in (po.GALERKIN, po.PRIMAL, po.UW):
        problem = po.make_problem(kind, exact="linear", dp=1)
        single = po.make_mesh(problem, grid_geometry(1, 1, 1), 1)
        irregular = irregular_two_block(problem, 1)
        for tag, mesh in (("single", single), ("irregular", irregular)):
            po.solve_problem(mesh, problem, solver="dense")
            err = 0.0
            for mdle in mesh.ELEM_ORDER:
                if kind == po.UW:
                    x, u, sig = eval_uw_at(mesh, mdle, pts)
                    err = max(err, float(np.abs(u - x[:, 0]).max()))
                    err = max(err, float(np.abs(sig[0] - 1.0).max()),
                              float(np.abs(sig[1:]).max()))
                else:
                    x, u = eval_h1_at(mesh, mdle, pts)
                    err = max(err, float(np.abs(u - x[:, 0]).max()))
            worst[f"{kind}/{tag}"] = err
    top = max(worst.values())
    ok = top < 1e-9
    report("c03", "patch tests", ok,
           "worst " + max(worst, key=worst.get) + f" {top:.2e}", t0, 30)


# ---------------------------------------------------------------------------
# 4. convergence rates


def test_c04_convergence_rates():
    t0 = time.perf_counter()
    failures = []

    def run(kind, p):
        problem = po.make_problem(kind, exact="smooth", dp=1)
        mesh = po.make_mesh(problem, grid_geometry(1, 1, 1), p)
        eg, el = [], []
        for step in range(3):
            if step:
                adapt.global_href(mesh)
            po.solve_problem(mesh, problem, workers=4)
            g, l, _ = po.compute_exact_error(mesh, problem)
            eg.append(g)
            el.append(l)
        return eg, el

    for kind in (po.GALERKIN, po.PRIMAL):
        for p in (1, 2):
            eg, _ = run(kind, p)
            rate = math.log(eg[1] / eg[2], 2)
            if not p - 0.2 <= rate <= p + 0.3:
                failures.append(f"{kind} p={p} rate {rate:.2f}")

    for p in (1, 2):
        _, el = run(po.UW, p)
        rate = math.log(el[1] / el[2], 2)
        if not (el[0] > el[1] > el[2]):
            failures.append(f"uw p={p} not monotone")
        if rate < p - 0.2:
            failures.append(f"uw p={p} rate {rate:.2f}")

    report("c04", "convergence rates", not failures,
           "; ".join(failures) or "all windows met", t0, 300)


# ---------------------------------------------------------------------------
# 5. condensed DPG system equals brute-force saddle reduction


def test_c05_dpg_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0

    problem = po.make_problem(po.PRIMAL, exact="smooth", dp=1)
    mesh = po.make_mesh(problem, grid_geometry(1, 1, 1), 2)
    mdle = mesh.ELEM_ORDER[0]
    brute = brute_saddle_reduction(*po._primal_system(mesh, mdle, problem))
    K, b = po.elem_primal_dpg(mesh, [mdle], problem)
    cond = np.column_stack([K[0], b[0]])
    worst = max(worst, float(np.abs(cond - brute).max()))

    problem = po.make_problem(po.UW, exact="smooth", dp=1)
    mesh = po.make_mesh(problem, grid_geometry(1, 1, 1), 2)
    mdle = mesh.ELEM_ORDER[0]
    brute = brute_saddle_reduction(*po._uw_system(mesh, mdle, problem))
    K, b = po.elem_uw_dpg(mesh, [mdle], problem)
    cond = np.column_stack([K[0], b[0]])
    worst = max(worst, float(np.abs(cond - brute).max()))

    ok = worst < 1e-10
    report("c05", "DPG oracle equivalence", ok, f"max dev {worst:.2e}", t0, 10)


# ---------------------------------------------------------------------------
# 6. static condensation equivalence


def test_c06_static_condensation_equivalence():
    t0 = time.perf_counter()
    problem = po.make_problem(po.GALERKIN, exact="smooth", dp=1)
    sols = []
    for istc in (True, False):
        mesh = po.make_mesh(problem, grid_geometry(2, 1, 1, lengths=(2, 1, 1)), 3)
        po.solve_problem(mesh, problem, solver="dense", istc=istc)
        sols.append(np.concatenate(
            [cf.gather_solution(mesh, m, 0)[:, 0] for m in mesh.ELEM_ORDER]))
    dev = float(np.abs(sols[0] - sols[1]).max())
    report("c06", "static condensation equivalence", dev < 1e-10,
           f"max dev {dev:.2e}", t0, 30)


# ---------------------------------------------------------------------------
# 7. hanging-node conformity


def test_c07_hanging_node_conformity():
    t0 = time.perf_counter()
    problem = po.make_problem(po.GALERKIN, exact="smooth", dp=1)
    mesh = irregular_two_block(problem, 2)
    po.solve_problem(mesh, problem, solver="dense")

    boxes = {}
    for m in mesh.ELEM_ORDER:
        _, xnod, _ = element_info(mesh, m)
        boxes[m] = (xnod.min(axis=0), xnod.max(axis=0))

    def value_from_side(x, side):
        for m, (lo, hi) in boxes.items():
            touch = math.isclose(hi[0], 1.0) if side == "left" \
                else math.isclose(lo[0], 1.0)
            if touch and (lo - 1e-12 <= x).all() and (x <= hi + 1e-12).all():
                norder, xnod, _ = element_info(mesh, m)
                xi = np.atleast_2d((x - lo) / (hi - lo))
                geom = gm.element_geometry(xnod, xi)
                shp = me.shape_functions_elem(me.H1, xi, norder)
                val, _ = gm.piola_transform(me.H1, shp, geom)
                return float((cf.gather_solution(mesh, m, 0)[:, 0] @ val)[0])
        raise AssertionError(f"no element on {side} side at {x}")

    rng = np.random.default_rng(77)
    worst = 0.0
    for y, z in rng.uniform(0.02, 0.98, (50, 2)):
        x = np.array([1.0, y, z])
        worst = max(worst, abs(value_from_side(x, "left")
                               - value_from_side(x, "right")))
    report("c07", "hanging-node conformity", worst < 1e-9,
           f"max jump {worst:.2e}", t0, 30)


# ---------------------------------------------------------------------------
# 8. marking oracles


def test_c08_marking_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    bad = 0
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        vals = rng.uniform(0.0, 1.0, n) ** 2
        mdles = list(rng.permutation(np.arange(1, n + 1)))
        perc = float(rng.uniform(0.05, 0.95))
        errors = adapt.ErrorSummary(mdles, vals)

        got = set(adapt.mark_elements(
            errors, adapt.MarkingConfig(adapt.GREEDY, perc)))
        want = {m for m, v in zip(mdles, vals) if v > perc * vals.max()}
        if got != want:
            bad += 1
            continue

        marked = adapt.mark_elements(
            errors, adapt.MarkingConfig(adapt.DOERFLER, perc))
        take = {m: v for m, v in zip(mdles, vals)}
        total = vals.sum()
        ssum = sum(take[m] for m in marked)
        smallest = min(take[m] for m in marked)
        minimal = ssum - smallest <= perc * total
        sufficient = ssum > perc * total or len(marked) == n
        if not (minimal and sufficient):
            bad += 1
    report("c08", "marking oracles", bad == 0, f"{bad}/1000 mismatches", t0, 10)


# ---------------------------------------------------------------------------
# 9. adaptive boundary-layer run


def test_c09_adaptive_boundary_layer():
    t0 = time.perf_counter()
    problem = po.make_problem(po.UW, exact="boundary_layer", dp=1)
    # The layer only varies through its lateral cutoff, which p=2 captures
    # on a single cell, so the slab mesh puts all resolution work at x=0.5.
    mesh = po.make_mesh(problem, grid_geometry(8, 1, 1), 2)
    marking = adapt.MarkingConfig(adapt.DOERFLER, 0.5)

    step1_boxes = []

    def on_step(mesh, problem, row, errors):
        if row.step == 1:
            for mdle in adapt.mark_elements(errors, marking):
                _, xnod, _ = element_info(mesh, mdle)
                step1_boxes.append((xnod[:, 0].min(), xnod[:, 0].max()))

    hist = adapt.adaptive_loop(mesh, problem, marking, tol=0.0, max_steps=5,
                               workers=4, on_step=on_step)
    est = [r.estimator for r in hist]
    decreasing = all(b < a for a, b in zip(est, est[1:]))
    ratio = hist[-1].exact_error / hist[0].exact_error
    in_slab = [lo <= 0.6 and hi >= 0.4 for lo, hi in step1_boxes]
    frac = sum(in_slab) / len(in_slab)
    ok = decreasing and ratio < 0.1 and frac >= 0.6
    report("c09", "adaptive boundary-layer run", ok,
           f"decreasing={decreasing}, error ratio {ratio:.3f}, "
           f"slab fraction {frac:.2f}", t0, 300)


# ---------------------------------------------------------------------------
# 10. residual effectivity


def test_c10_residual_effectivity():
    t0 = time.perf_counter()
    problem = po.make_problem(po.PRIMAL, exact="smooth", dp=1)
    mesh = po.make_mesh(problem, grid_geometry(1, 1, 1), 2)
    ratios = []
    for step in range(4):
        if step:
            adapt.global_href(mesh)
        po.solve_problem(mesh, problem, workers=4)
        _, total = po.residual_summary(mesh, problem)
        e_grad, _, _ = po.compute_exact_error(mesh, problem)
        ratios.append(math.sqrt(total) / e_grad)
    ok = all(0.05 <= r <= 20 for r in ratios)
    report("c10", "residual effectivity", ok,
           "ratios " + ", ".join(f"{r:.2f}" for r in ratios), t0, 120)


# ---------------------------------------------------------------------------
# 11. VTU round-trip


def test_c11_vtu_round_trip(tmp_path):
    t0 = time.perf_counter()
    problem = po.make_problem(po.GALERKIN, exact="smooth", dp=1)
    mesh = po.make_mesh(problem, grid_geometry(2, 1, 1), 2)
    po.solve_problem(mesh, problem, solver="dense")
    worst = 0.0
    for vlevel in (0, 1, 2):
        config = vtu.ParaviewConfig(dir=str(tmp_path), vlevel=vlevel)
        path = vtu.export_vtu(mesh, config, f"roundtrip{vlevel}")
        ET.parse(path)    # well-formed XML
        pts, _, _, data = vtu.read_vtu(path)
        lattice, _ = vtu.upscale_samples(vlevel)
        npts = len(lattice)
        for k, mdle in enumerate(mesh.ELEM_ORDER):
            x, u = eval_h1_at(mesh, mdle, lattice)
            blk = slice(k * npts, (k + 1) * npts)
            worst = max(worst, float(np.abs(pts[blk] - x).max()),
                        float(np.abs(data["u_0"][blk] - u).max()))
    report("c11", "VTU round-trip", worst < 1e-12,
           f"max dev {worst:.2e}", t0, 10)


# ---------------------------------------------------------------------------
# 12. mesh structure fuzz


def test_c12_mesh_structure_fuzz():
    t0 = time.perf_counter()
    bad = []
    for seq in range(200):
        rng = np.random.default_rng(5000 + seq)
        table = PhysicsTable([PhysicsAttr("u", "contin", 1)])
        mesh = generate_initial_mesh(grid_geometry(1, 1, 1), table, (2, 2, 2))
        nrelis = mesh.NRELIS
        for _ in range(6):
            active = mesh.ELEM_ORDER
            if rng.integers(0, 3) < 2 and mesh.NRELES < 150:
                refine_element(mesh, active[rng.integers(0, len(active))])
                close_mesh(mesh)
            else:
                picks = [active[i] for i in rng.choice(
                    len(active), size=min(3, len(active)), replace=False)]
                try:
                    execute_pref(mesh, picks)
                except HphexError:
                    continue
            order = traverse_active(mesh)
            if not (order == mesh.ELEM_ORDER
                    and len(order) == mesh.NRELES
                    and mesh.NRELIS == nrelis
                    and set(mesh.active_middles_scan()) == set(order)
                    and check_one_irregularity(mesh)):
                bad.append(seq)
                break
        cf.update_gdof(mesh)
    report("c12", "mesh structure fuzz", not bad,
           f"{len(bad)}/200 sequences failed", t0, 60)
