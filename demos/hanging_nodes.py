# Local refinement, mesh closure, and constrained approximation.
#
# Refines one corner element of a 2x2x2 mesh, closes the mesh back to
# 1-irregularity, and solves the Poisson problem.  The solution stays
# continuous across the hanging faces because constrained (slave) degrees
# of freedom are eliminated in favour of their parents during assembly.
# The script prints the mesh bookkeeping and measures the worst jump of
# the solution across the most-refined face.

import numpy as np

from hphex import conformity as cf, geometry as gm, masterel as me
from hphex import poisson as po
from hphex.mesh import GeometryFile, close_mesh, element_info, refine_element


def grid2():
    t = np.linspace(0.0, 1.0, 3)
    pts = np.array([(x, y, z) for z in t for y in t for x in t])

    def pid(i, j, k):
        return 1 + i + 3 * (j + 3 * k)

    elems = []
    for k in range(2):
        for j in range(2):
            for i in range(2):
                elems.append([pid(i, j, k), pid(i + 1, j, k),
                              pid(i + 1, j + 1, k), pid(i, j + 1, k),
                              pid(i, j, k + 1), pid(i + 1, j, k + 1),
                              pid(i + 1, j + 1, k + 1), pid(i, j + 1, k + 1)])
    return GeometryFile(pts, np.array(elems), [])


def solution_at(mesh, mdle, xi):
    norder, xnod, _ = element_info(mesh, mdle)
    geom = gm.element_geometry(xnod, xi)
    shp = me.shape_functions_elem(me.H1, xi, norder)
    val, _ = gm.piola_transform(me.H1, shp, geom)
    return geom.x, cf.gather_solution(mesh, mdle, 0)[:, 0] @ val


def main():
    problem = po.make_problem(po.GALERKIN, exact="smooth")
    mesh = po.make_mesh(problem, grid2(), 2)
    corner = mesh.ELEM_ORDER[0]
    print(f"initial mesh: NRELES={mesh.NRELES}")

    refine_element(mesh, corner)
    close_mesh(mesh)
    cf.update_gdof(mesh)
    print(f"after refining element {corner} and closing: "
          f"NRELES={mesh.NRELES}")

    po.solve_problem(mesh, problem, solver="dense")

    # Sample both sides of the face x=0.5 shared by the refined corner
    # and its untouched neighbour, along a diagonal of the face.
    worst = 0.0
    for t in np.linspace(0.05, 0.45, 9):
        target = np.array([0.5, t, t])
        vals = []
        for mdle in mesh.ELEM_ORDER:
            _, xnod, _ = element_info(mesh, mdle)
            lo, hi = xnod.min(axis=0), xnod.max(axis=0)
            if ((lo - 1e-12 <= target).all() and (target <= hi + 1e-12).all()
                    and (np.isclose(lo[0], 0.5) or np.isclose(hi[0], 0.5))):
                xi = np.atleast_2d((target - lo) / (hi - lo))
                _, u = solution_at(mesh, mdle, xi)
                vals.append(float(u[0]))
        worst = max(worst, max(vals) - min(vals))
    print(f"worst solution jump across the hanging face: {worst:.3e}")


if __name__ == "__main__":
    main()
