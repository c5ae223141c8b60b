import io
import pathlib

import pytest

from hphex import cli, masterel, vtu
from hphex.errors import ConfigError, OrderError

from conftest import grid_geometry

INPUTS = pathlib.Path(__file__).resolve().parents[1] / "inputs"


def argv(*extra, phys="physics_galerkin", control="control"):
    return ["-file-control", str(INPUTS / control),
            "-file-phys", str(INPUTS / phys),
            "-file-geometry", str(INPUTS / "cube.geometry"), *extra]


def write_geometry(path, geo):
    lines = ["HEXMESH 1", f"NPOINTS {len(geo.points)}"]
    lines += [" ".join(repr(float(c)) for c in p) for p in geo.points]
    lines.append(f"NELEMS {len(geo.elems)}")
    lines += [" ".join(str(v) for v in row) for row in geo.elems]
    lines.append(f"NBFACES {len(geo.bfaces)}")
    lines += [f"{e} {f} {b}" for e, f, b in geo.bfaces]
    path.write_text("\n".join(lines) + "\n")


def state_for(*extra, phys="physics_galerkin"):
    return cli.build_state(cli.parse_args(argv(*extra, phys=phys)))


def run_menu(state, script):
    out = io.StringIO()
    cli.interactive_menu(state, inp=io.StringIO(script), out=out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# flag handling


def test_parse_defaults():
    cfg = cli.parse_args([])
    assert cfg.job == 0
    assert cfg.prob == "galerkin"
    assert cfg.solver == "cg"
    assert cfg.p == 1 and cfg.dp is None and cfg.exact is None


def test_workers_below_one_rejected(capsys):
    for n in ("0", "-1"):
        with pytest.raises(ConfigError, match="-workers"):
            cli.parse_args(["-workers", n])
        assert cli.run_main(argv("-job", "3", "-workers", n)) == 2
        assert "-workers" in capsys.readouterr().err
    assert "residual estimate" in cli.build_parser().format_help()


def test_maxsteps_below_one_rejected(tmp_path, capsys):
    for n in ("0", "-3"):
        with pytest.raises(ConfigError, match="-maxsteps"):
            cli.parse_args(["-maxsteps", n])
        assert cli.run_main(argv("-job", "1", "-maxsteps", n,
                                 "-paraview-dir", str(tmp_path))) == 2
        assert "-maxsteps" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


def test_uw_order_at_maxp_names_the_limit(capsys):
    p = str(masterel.MAXP)
    with pytest.raises(OrderError, match=f"p={p} exceeds {masterel.MAXP - 1}"):
        state_for("-prob", "uw", "-p", p, phys="physics_uw")
    assert cli.run_main(argv("-prob", "uw", "-p", p, "-job", "1",
                             phys="physics_uw")) == 1
    assert f"p={p} exceeds" in capsys.readouterr().err


def test_missing_physics_flag_exits_2(capsys):
    rc = cli.run_main(["-file-control", str(INPUTS / "control"),
                       "-file-geometry", str(INPUTS / "cube.geometry")])
    assert rc == 2
    assert "-file-phys" in capsys.readouterr().err


def test_unreadable_control_file_named(capsys):
    rc = cli.run_main(argv(control="no_such_control"))
    assert rc == 2
    assert "-file-control" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert cli.run_main(argv("-bogus")) == 2
    capsys.readouterr()


def test_physics_file_must_match_problem_kind(capsys):
    rc = cli.run_main(argv("-prob", "uw", "-job", "3"))
    assert rc == 1
    assert "physics file" in capsys.readouterr().err


def test_malformed_geometry_exits_1(tmp_path, capsys):
    geo = tmp_path / "bad.geometry"
    text = (INPUTS / "cube.geometry").read_text()
    geo.write_text(text.replace("NPOINTS", "NPOINTS x", 1))
    rc = cli.run_main(["-file-control", str(INPUTS / "control"),
                       "-file-phys", str(INPUTS / "physics_galerkin"),
                       "-file-geometry", str(geo), "-job", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NPOINTS" in err


@pytest.mark.parametrize("kind", ["primal", "uw"])
def test_dpg_without_condensation_rejected(tmp_path, capsys, kind):
    ctl = tmp_path / "control"
    ctl.write_text("NEXACT 1\nISTC_FLAG 0\n")
    rc = cli.run_main(["-file-control", str(ctl),
                       "-file-phys", str(INPUTS / f"physics_{kind}"),
                       "-file-geometry", str(INPUTS / "cube.geometry"),
                       "-prob", kind, "-job", "3"])
    assert rc == 1
    assert "ISTC_FLAG" in capsys.readouterr().err


def test_physics_nicknames_adopted():
    st = state_for()
    assert st.problem.physics.attrs[0].nick == "temp"


# ---------------------------------------------------------------------------
# scripted jobs


def test_job1_convergence_csv(tmp_path, capsys):
    rc = cli.run_main(argv("-p", "2", "-job", "1", "-maxsteps", "3",
                           "-paraview-dir", str(tmp_path)))
    assert rc == 0
    capsys.readouterr()
    rows = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "step,nreles,ndof,h1_error,l2_error,rate"
    assert len(rows) == 4
    last_rate = float(rows[-1].split(",")[-1])
    assert 1.8 <= last_rate <= 2.2


def test_job1_reproducible_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert cli.run_main(argv("-job", "1", "-maxsteps", "2",
                                 "-paraview-dir", str(d))) == 0
    capsys.readouterr()
    assert (a / "convergence.csv").read_bytes() == \
        (b / "convergence.csv").read_bytes()


def test_job1_needs_manufactured_solution(tmp_path, capsys):
    ctl = tmp_path / "control"
    ctl.write_text("NEXACT 0\n")
    rc = cli.run_main(["-file-control", str(ctl),
                       "-file-phys", str(INPUTS / "physics_galerkin"),
                       "-file-geometry", str(INPUTS / "cube.geometry"),
                       "-job", "1"])
    assert rc == 1
    assert "NEXACT" in capsys.readouterr().err


def test_job2_adaptive_artifacts(tmp_path, capsys):
    geo = tmp_path / "grid.geometry"
    write_geometry(geo, grid_geometry(2, 2, 2))
    rc = cli.run_main(["-file-control", str(INPUTS / "control"),
                       "-file-phys", str(INPUTS / "physics_primal"),
                       "-file-geometry", str(geo),
                       "-prob", "primal", "-job", "2", "-maxsteps", "3",
                       "-mark", "doerfler", "-perc", "0.3",
                       "-exact", "smooth",
                       "-paraview-dir", str(tmp_path), "-vlevel", "1"])
    assert rc == 0
    capsys.readouterr()
    rows = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert rows[0] == "step,nreles,ndof,estimator,exact_error"
    assert len(rows) == 4
    est = [float(r.split(",")[3]) for r in rows[1:]]
    assert est[-1] < est[0]
    series = vtu.read_pvd(tmp_path / "adaptive.pvd")
    assert [name for _, name in series] == \
        ["step001.vtu", "step002.vtu", "step003.vtu"]
    for _, name in series:
        assert (tmp_path / name).exists()


def test_job3_patch_smoke(capsys):
    rc = cli.run_main(argv("-job", "3"))
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 3 and "FAIL" not in out


def test_unknown_job_id(capsys):
    rc = cli.run_main(argv("-job", "99"))
    assert rc == 2
    assert "unknown job id 99" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# interactive menu


def test_run_main_interactive_quit(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    rc = cli.run_main(argv("-job", "0"))
    assert rc == 0
    assert capsys.readouterr().out.count("QUIT") == 1


def test_menu_eof_behaves_like_quit():
    st = state_for()
    out = run_menu(st, "")
    assert out.count("QUIT") == 1


def test_menu_global_href_on_single_element():
    st = state_for()
    out = run_menu(st, "20\n0\n")
    assert st.mesh.NRELES == 8
    assert "NRELES=8" in out


def test_menu_global_pref_raises_orders():
    st = state_for("-p", "2")
    run_menu(st, "21\n0\n")
    mdle = st.mesh.ELEM_ORDER[0]
    assert masterel.decode_order(st.mesh.NODES[mdle].order) == (3, 3, 3)


def test_menu_refine_single_element():
    st = state_for()
    mdle = st.mesh.ELEM_ORDER[0]
    out = run_menu(st, f"22\n{mdle}\n0\n")
    assert st.mesh.NRELES == 8
    assert "NRELES=8" in out


def test_menu_refine_rejects_garbage_id():
    st = state_for()
    out = run_menu(st, "22\nxyz\n0\n")
    assert "not a node id" in out
    assert st.mesh.NRELES == 1


def test_menu_refine_rejects_invalid_element_ids():
    st = state_for()
    for bad in (0, 99999):
        nodes = len(st.mesh.NODES)
        out = run_menu(st, f"22\n{bad}\n0\n")
        assert f"error: node {bad} is not an active element" in out
        assert st.mesh.NRELES == 1 and len(st.mesh.NODES) == nodes
    run_menu(st, f"22\n{st.mesh.ELEM_ORDER[0]}\n0\n")
    nodes = len(st.mesh.NODES)
    out = run_menu(st, "22\n-1\n0\n")    # -1 would index the newest node
    assert "error: node -1 is not an active element" in out
    assert st.mesh.NRELES == 8 and len(st.mesh.NODES) == nodes


def test_menu_malformed_and_unknown_ids():
    st = state_for()
    out = run_menu(st, "abc\n99\n0\n")
    assert "not a menu id: 'abc'" in out
    assert out.count("QUIT") == 3    # menu reprinted after each attempt
    assert st.mesh.NRELES == 1       # unknown id mutated nothing


def test_menu_out_of_scope_ids_report_unavailable():
    st = state_for()
    out = run_menu(st, "1\n31\n0\n")
    assert out.count("unavailable in this build") == 2


def test_menu_solve_error_and_residual_galerkin():
    st = state_for("-p", "2")
    out = run_menu(st, "30\n40\n41\n0\n")
    assert "solved: ndof=" in out
    assert "exact error: H1-seminorm" in out
    assert "not defined for the Bubnov-Galerkin" in out


def test_menu_residual_for_primal():
    st = state_for("-prob", "primal", phys="physics_primal")
    out = run_menu(st, "30\n41\n0\n")
    assert "residual estimate:" in out


def test_menu_exact_error_without_nexact(tmp_path):
    ctl = tmp_path / "control"
    ctl.write_text("NEXACT 0\n")
    cfg = cli.parse_args(["-file-control", str(ctl),
                          "-file-phys", str(INPUTS / "physics_galerkin"),
                          "-file-geometry", str(INPUTS / "cube.geometry")])
    st = cli.build_state(cfg)
    out = run_menu(st, "40\n0\n")
    assert "no exact solution configured" in out


def test_menu_export_counts_up(tmp_path):
    st = state_for("-paraview-dir", str(tmp_path), "-vlevel", "1")
    run_menu(st, "3\n3\n0\n")
    assert (tmp_path / "export000.vtu").exists()
    assert (tmp_path / "export001.vtu").exists()


def test_menu_export_without_dir_is_skipped():
    st = state_for()
    out = run_menu(st, "3\n0\n")
    assert "export skipped" in out


def test_menu_data_structure_dumps():
    st = state_for()
    out = run_menu(st, "10\n11\n0\n")
    assert "nid" in out
    assert "1 active elements" in out
