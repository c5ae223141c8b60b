"""Driver: flag parsing, input files, interactive menu, scripted jobs.

The command line mirrors a batch queue submission: three input files
(control, physics, geometry), a problem kind, and either ``-job 0`` for
a terminal menu session or a numbered job for unattended runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from . import adapt
from . import assembly as asm
from . import masterel as me
from . import mesh as msh
from . import physics as ph
from . import poisson as po
from . import vtu
from .errors import ConfigError, HphexError

_MENU = """\
 QUIT ....................................... 0
 ParaView export ............................ 3
 Display node table ......................... 10
 Display active elements .................... 11
 Global h-refinement ........................ 20
 Global p-refinement ........................ 21
 Refine a single element .................... 22
 Solve (built-in solver) .................... 30
 Exact error ................................ 40
 Residual estimate .......................... 41
"""

# menu ids that exist upstream but have no counterpart here
_UNAVAILABLE = {
    1: "native graphics",
    2: "native graphics",
    31: "external direct solver",
    32: "external direct solver",
    33: "external iterative solver",
}

_FILE_FLAGS = ("-file-control", "-file-phys", "-file-geometry")


@dataclass
class CliState:
    """Mutable session: the mesh plus the pieces menu actions touch."""

    config: argparse.Namespace
    params: ph.Parameters
    problem: po.Problem
    mesh: msh.Mesh
    exports: int = 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hphex", allow_abbrev=False,
                                 description=__doc__.splitlines()[0])
    ap.add_argument("-file-control", dest="file_control", metavar="PATH")
    ap.add_argument("-file-phys", dest="file_phys", metavar="PATH")
    ap.add_argument("-file-geometry", dest="file_geometry", metavar="PATH")
    ap.add_argument("-prob", dest="prob", default=po.GALERKIN,
                    choices=sorted(po.KINDS))
    ap.add_argument("-p", dest="p", type=int, default=1,
                    help="initial isotropic order, 1..%d" % me.MAXP)
    ap.add_argument("-dp", dest="dp", type=int, default=None,
                    help="test-space order increment (default: the "
                         "control file's NORD_ADD)")
    ap.add_argument("-job", dest="job", type=int, default=0)
    ap.add_argument("-mark", dest="mark", default=adapt.GREEDY,
                    choices=(adapt.GREEDY, adapt.DOERFLER))
    ap.add_argument("-perc", dest="perc", type=float, default=0.5)
    ap.add_argument("-tol", dest="tol", type=float, default=0.0,
                    help="adaptive stopping tolerance on the estimator")
    ap.add_argument("-maxsteps", dest="maxsteps", type=int, default=3,
                    help="levels of job 1, solves of job 2, at least 1")
    ap.add_argument("-paraview-dir", dest="paraview_dir", metavar="DIR")
    ap.add_argument("-vlevel", dest="vlevel", type=int, default=0)
    ap.add_argument("-solver", dest="solver", default="cg",
                    choices=("cg", "dense"))
    ap.add_argument("-workers", dest="workers", type=int, default=1,
                    help="threads for the element loops of assembly and "
                         "of the residual estimate, at least 1")
    ap.add_argument("-exact", dest="exact", default=None,
                    choices=sorted(po.SOLUTIONS),
                    help="manufactured solution when NEXACT=1 (default: "
                         "boundary_layer for job 2, smooth otherwise)")
    return ap


def parse_args(argv) -> argparse.Namespace:
    ns = build_parser().parse_args(argv)
    for flag, value in (("-workers", ns.workers), ("-maxsteps", ns.maxsteps)):
        if value < 1:
            raise ConfigError(f"{flag} {value} must be at least 1")
    return ns


def _default_exact(job: int) -> str:
    return "boundary_layer" if job == 2 else "smooth"


def _missing_file(cfg: argparse.Namespace):
    """First required file flag that is absent or unreadable, if any."""
    paths = (cfg.file_control, cfg.file_phys, cfg.file_geometry)
    for flag, path in zip(_FILE_FLAGS, paths):
        if path is None:
            return flag, None
        if not os.path.isfile(path):
            return flag, path
    return None


def build_state(cfg: argparse.Namespace) -> CliState:
    params = ph.read_control(cfg.file_control)
    table = ph.read_physics(cfg.file_phys)
    geometry = msh.read_geometry(cfg.file_geometry)
    if not 1 <= cfg.p <= me.MAXP:
        raise ConfigError(f"-p {cfg.p} outside 1..{me.MAXP}")
    dp = cfg.dp if cfg.dp is not None else max(1, params.nord_add)
    exact = cfg.exact if cfg.exact is not None else _default_exact(cfg.job)
    if params.nexact == 0:
        exact = None
    problem = po.make_problem(cfg.prob, exact=exact, dp=dp)
    if problem.istc and not params.istc_flag:
        raise ConfigError(
            f"ISTC_FLAG 0 asks for no condensation, but -prob {cfg.prob} "
            "needs its element interiors condensed")
    _adopt_nicknames(problem, table, cfg.prob)
    mesh = po.make_mesh(problem, geometry, cfg.p)
    return CliState(config=cfg, params=params, problem=problem, mesh=mesh)


def _adopt_nicknames(problem: po.Problem, table: ph.PhysicsTable, kind: str):
    """Check the physics file against the problem layout; take its nicks."""
    want = [(a.space, a.ncomp) for a in problem.physics.attrs]
    got = [(a.space, a.ncomp) for a in table.attrs]
    if want != got:
        raise ConfigError(
            f"physics file declares {got} but problem kind {kind!r} "
            f"needs {want}")
    for mine, theirs in zip(problem.physics.attrs, table.attrs):
        mine.nick = theirs.nick


def run_main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:          # argparse reports and exits
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = _missing_file(cfg)
    if missing:
        flag, path = missing
        detail = f" (got {path!r})" if path else ""
        print(f"error: {flag} must name a readable file{detail}",
              file=sys.stderr)
        return 2
    try:
        state = build_state(cfg)
    except HphexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.job == 0:
        interactive_menu(state)
        return 0
    try:
        return exec_job(cfg.job, state)
    except HphexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():  # pragma: no cover - console entry point
    sys.exit(run_main())


# ---------------------------------------------------------------------------
# interactive mode

def _read_line(inp, out, prompt):
    print(prompt, end="", file=out, flush=True)
    line = inp.readline()
    if line == "":
        return None                    # EOF behaves like QUIT
    return line.strip()


def interactive_menu(state: CliState, inp=None, out=None):
    """Loop on menu commands until 0 or end of input."""
    inp = sys.stdin if inp is None else inp
    out = sys.stdout if out is None else out
    while True:
        print(_MENU, end="", file=out)
        line = _read_line(inp, out, "select: ")
        if line is None:
            return
        try:
            choice = int(line)
        except ValueError:
            print(f"not a menu id: {line!r}", file=out)
            continue
        if choice == 0:
            return
        _dispatch(state, choice, inp, out)


def _dispatch(state: CliState, choice: int, inp, out):
    mesh = state.mesh
    try:
        if choice in _UNAVAILABLE:
            print(f"menu id {choice} ({_UNAVAILABLE[choice]}) is "
                  "unavailable in this build", file=out)
        elif choice == 3:
            _menu_export(state, out)
        elif choice == 10:
            _dump_nodes(mesh, out)
        elif choice == 11:
            _dump_elements(mesh, out)
        elif choice == 20:
            adapt.global_href(mesh)
            print(f"global h-refinement: NRELES={mesh.NRELES}", file=out)
        elif choice == 21:
            msh.global_pref(mesh)
            print("global p-refinement: all orders raised by one", file=out)
        elif choice == 22:
            _menu_refine_one(state, inp, out)
        elif choice == 30:
            rep = _solve(state)
            print(f"solved: ndof={rep.ndof} iterations={rep.iterations} "
                  f"residual={rep.residual:.3e}", file=out)
        elif choice == 40:
            _menu_exact_error(state, out)
        elif choice == 41:
            _menu_residual(state, out)
        # anything else: fall through, the loop reprints the menu
    except HphexError as exc:
        print(f"error: {exc}", file=out)


def _menu_export(state: CliState, out):
    cfg = state.config
    if cfg.paraview_dir is None:
        print("no -paraview-dir configured; export skipped", file=out)
        return
    os.makedirs(cfg.paraview_dir, exist_ok=True)
    pv = vtu.ParaviewConfig(dir=cfg.paraview_dir, vlevel=cfg.vlevel)
    path = vtu.export_vtu(state.mesh, pv, f"export{state.exports:03d}")
    state.exports += 1
    print(f"wrote {path}", file=out)


def _dump_nodes(mesh: msh.Mesh, out):
    print("  nid kind   father order  act bcond", file=out)
    for node in mesh.NODES[1:]:
        if node is None:
            continue
        print(f"{node.id:5d} {node.kind:<6} {node.father:6d} "
              f"{node.order:6d}  {int(node.active)}   {node.bcond}",
              file=out)


def _dump_elements(mesh: msh.Mesh, out):
    order = mesh.ELEM_ORDER
    print(f" {len(order)} active elements (natural order)", file=out)
    for m in order:
        node = mesh.NODES[m]
        px, py, pz = node.orders
        print(f"  mdle {m:5d}: order ({px},{py},{pz}) "
              f"verts {tuple(node.elem_nodes[:8])}", file=out)


def _menu_refine_one(state: CliState, inp, out):
    line = _read_line(inp, out, "middle node id: ")
    if line is None:
        return
    try:
        mdle = int(line)
    except ValueError:
        print(f"not a node id: {line!r}", file=out)
        return
    msh.refine_element(state.mesh, mdle)
    msh.close_mesh(state.mesh)
    print(f"refined {mdle}: NRELES={state.mesh.NRELES}", file=out)


def _menu_exact_error(state: CliState, out):
    if state.problem.nexact == 0:
        print("no exact solution configured (NEXACT=0)", file=out)
        return
    e_grad, e_l2, _ = po.compute_exact_error(state.mesh, state.problem)
    print(f"exact error: H1-seminorm {e_grad:.6e}  L2 {e_l2:.6e}", file=out)


def _menu_residual(state: CliState, out):
    if state.problem.kind == po.GALERKIN:
        print("residual estimate is not defined for the Bubnov-Galerkin "
              "discretization", file=out)
        return
    vals, total = po.residual_summary(state.mesh, state.problem,
                                      state.config.workers)
    print(f"residual estimate: {math.sqrt(total):.6e} "
          f"over {len(vals)} elements", file=out)


def _solve(state: CliState) -> asm.SolveReport:
    cfg = state.config
    return po.solve_problem(state.mesh, state.problem, solver=cfg.solver,
                            workers=cfg.workers,
                            istc=bool(state.params.istc_flag))


# ---------------------------------------------------------------------------
# scripted jobs

def exec_job(job: int, state: CliState) -> int:
    if job == 1:
        return _job_convergence(state)
    if job == 2:
        return _job_adaptive(state)
    if job == 3:
        return _job_patch(state)
    print(f"error: unknown job id {job}", file=sys.stderr)
    return 2


def _outdir(cfg: argparse.Namespace) -> str:
    out = cfg.paraview_dir if cfg.paraview_dir is not None else "."
    os.makedirs(out, exist_ok=True)
    return out


def _job_convergence(state: CliState) -> int:
    """Uniform h-refinement study; CSV with per-interval rates."""
    cfg, problem, mesh = state.config, state.problem, state.mesh
    if problem.nexact == 0:
        raise ConfigError("job 1 needs a manufactured solution (NEXACT=1)")
    rows, errs = [], []
    for step in range(1, cfg.maxsteps + 1):
        if step > 1:
            adapt.global_href(mesh)
        rep = _solve(state)
        err, e_l2, _ = po.compute_exact_error(mesh, problem)
        rate = "" if not errs else repr(math.log(errs[-1] / err) / math.log(2))
        errs.append(err)
        rows.append(f"{step},{mesh.NRELES},{rep.ndof},{err!r},{e_l2!r},{rate}")
        msg = f"step {step}: nreles={mesh.NRELES} ndof={rep.ndof} h1={err:.6e}"
        if rate:
            msg += f" rate={float(rate):.3f}"
        print(msg)
    path = os.path.join(_outdir(cfg), "convergence.csv")
    with open(path, "w") as fh:
        fh.write("step,nreles,ndof,h1_error,l2_error,rate\n")
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {path}")
    return 0


def _job_adaptive(state: CliState) -> int:
    """Adaptive loop with CSV history and optional VTU per step."""
    cfg, problem, mesh = state.config, state.problem, state.mesh
    marking = adapt.MarkingConfig(strategy=cfg.mark, perc=cfg.perc)
    series = pv = None
    if cfg.paraview_dir is not None:
        os.makedirs(cfg.paraview_dir, exist_ok=True)
        pv = vtu.ParaviewConfig(dir=cfg.paraview_dir, vlevel=cfg.vlevel)
        series = vtu.PvdSeries(cfg.paraview_dir, name="adaptive")

    def on_step(mesh, problem, row, errors):
        msg = (f"step {row.step}: nreles={row.nreles} ndof={row.ndof} "
               f"estimator={row.estimator:.6e}")
        if row.exact_error is not None:
            msg += f" exact={row.exact_error:.6e}"
        print(msg)
        if series is not None:
            series.add(mesh, pv, f"step{row.step:03d}", time=float(row.step))

    history = adapt.adaptive_loop(mesh, problem, marking, cfg.tol,
                                  cfg.maxsteps, solver=cfg.solver,
                                  workers=cfg.workers, on_step=on_step)
    path = os.path.join(_outdir(cfg), "history.csv")
    adapt.write_history(history, path)
    print(f"wrote {path}")
    return 0


def _job_patch(state: CliState) -> int:
    """Linear-field reproduction smoke for all three discretizations.

    Solved with the dense path: the check is about discretization
    exactness, so iterative-solver tolerance must stay out of it.
    """
    cfg = state.config
    geometry = msh.read_geometry(cfg.file_geometry)
    failures = 0
    for kind in (po.GALERKIN, po.PRIMAL, po.UW):
        problem = po.make_problem(kind, exact="linear",
                                  dp=cfg.dp if cfg.dp is not None else 1)
        mesh = po.make_mesh(problem, geometry, 1)
        po.solve_problem(mesh, problem, solver="dense",
                         workers=cfg.workers)
        e_grad, e_l2, _ = po.compute_exact_error(mesh, problem)
        err = math.hypot(e_grad, e_l2)
        ok = err < 1e-9
        failures += 0 if ok else 1
        print(f"patch {kind}: error {err:.3e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if failures == 0 else 1
