"""Command-line interface: files, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslsim import cli, graphstate, lattice, mbqc
from bslsim.cli import main
from bslsim.graphstate import GraphState
from bslsim.identities import run_cases
from bslsim.lattice import LatticeConfig, build_bsl, ideal_graph, to_dot
from bslsim.nullifiers import (lattice_factors, quadrature_nullifiers,
                               sample_marginal, vacuum_variances,
                               witness_from_variances)


def test_build_bsl_writes_files(tmp_path, capsys):
    out = tmp_path / "bsl"
    code = main(["build-bsl", "--lattice", "3,3", "-r", "1.0",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    assert payload["graph"]["n"] == 36
    assert len(payload["ideal_graph"]) == 36
    assert payload["summary"]["nonlocal_edges"] == 0
    assert out.with_suffix(".dot").read_text().startswith("graph bsl {")
    assert "bulk edges" in capsys.readouterr().out


def test_build_bsl_rejects_small_lattice(tmp_path, capsys):
    assert main(["build-bsl", "--lattice", "1,3",
                 "--out", str(tmp_path / "x")]) == 2


def test_build_bsl_repeatable(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["build-bsl", "--lattice", "2,2", "--out", str(a)])
    main(["build-bsl", "--lattice", "2,2", "--out", str(b)])
    ja = a.with_suffix(".json").read_text().replace(str(a), "OUT")
    jb = b.with_suffix(".json").read_text().replace(str(b), "OUT")
    assert ja == jb


def _bsl_outputs(out, capsys):
    return (capsys.readouterr().out, out.with_suffix(".json").read_bytes(),
            out.with_suffix(".dot").read_bytes())


def test_usage_error_leaves_nothing_in_the_parser(tmp_path, capsys):
    # main builds its parser once per process and reuses it on every call
    cli.build_parser.cache_clear()
    out = tmp_path / "bsl"
    argv = ["build-bsl", "--lattice", "2,2", "-r", "0.7", "--out", str(out)]
    assert main(argv) == 0
    first = _bsl_outputs(out, capsys)
    assert json.loads(first[1])["config"] == {
        "command": "build-bsl", "lattice": [2, 2], "squeezing": 0.7,
        "out": str(out)}
    # -r is read before --lattice fails
    with pytest.raises(SystemExit) as exc:
        main(["build-bsl", "-r", "3", "--lattice", "x", "--out",
              str(tmp_path / "bad")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert _bsl_outputs(out, capsys) == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bsl.dot",
                                                          "bsl.json"]


def test_appended_squeezings_do_not_carry_over_to_the_next_call(capsys):
    assert main(["verify-nullifiers", "--squeezing", "1",
                 "--squeezing", "2"]) == 0
    assert capsys.readouterr().out.count("r = ") == 2
    assert main(["verify-nullifiers", "--squeezing", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("r = ") == 1 and out.startswith("r = 3.0: ")


def test_main_runs_the_cmd_function_the_module_holds_at_call_time(
        tmp_path, monkeypatch, capsys):
    # a tracer wraps cmd_* on the module after the parser may be built
    assert main(["verify-nullifiers", "--lattice", "2,2"]) == 0
    capsys.readouterr()
    calls = []

    def spy(args):
        calls.append(args.command)
        return 7

    monkeypatch.setattr(cli, "cmd_build_bsl", spy)
    monkeypatch.setattr(cli, "cmd_verify_nullifiers", spy)
    assert main(["build-bsl", "--out", str(tmp_path / "bsl")]) == 7
    assert main(["verify-nullifiers", "--lattice", "2,2"]) == 7
    assert calls == ["build-bsl", "verify-nullifiers"]
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def _bsl_program(n_rows, m_cols, r):
    """Every bc deletion, then a chi = 0 cubic step on the first xa site and
    a q(theta) step on the last, where the lattice has them."""
    lat = LatticeConfig(n_rows, m_cols, r)
    steps = [{"time_index": t, "detector": d,
              "basis": {"theta": lat.deletion_angle(t)}}
             for t in lat.bc_sites() for d in "bc"]
    xa = lat.xa_sites()
    if xa:
        steps.append({"time_index": xa[0], "detector": "x",
                      "basis": {"cubic": {"chi": 0.0, "sigma": 0.25}}})
    if len(xa) > 1:
        steps.append({"time_index": xa[-1], "detector": "x",
                      "basis": {"theta": 0.6}})
    return {"resource": {"kind": "bsl", "N": n_rows, "M": m_cols, "r": r},
            "steps": steps}


def _refuse_dense(*args, **kwargs):
    raise AssertionError("a product path ran the dense Mobius build")


def test_lattice_product_paths_do_not_run_the_dense_build(tmp_path,
                                                          monkeypatch):
    # build-bsl and "bsl" programs take Z from V's closed form; build_bsl,
    # schedule and apply are the dense reference only
    for module in (graphstate, lattice, mbqc, cli):
        for name in ("build_bsl", "schedule", "apply"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse_dense)
    assert main(["build-bsl", "--lattice", "3,3",
                 "--out", str(tmp_path / "b")]) == 0
    res = mbqc.run_program(_bsl_program(2, 3, 1.0), seed=5)
    assert len(res.record.events) == 14


@pytest.mark.parametrize("size", [(2, 1), (2, 3), (3, 2), (2, 2), (3, 3),
                                  (4, 4), (5, 5)])
@pytest.mark.parametrize("r", [0.3, 1.0, 4.0, 8.0])
def test_closed_form_lattice_matches_the_dense_build(tmp_path, capsys, size,
                                                     r):
    config = LatticeConfig(*size, r)
    ref = build_bsl(config)[0]
    out = tmp_path / "b"
    assert main(["build-bsl", "--lattice", f"{size[0]},{size[1]}", "-r",
                 str(r), "--out", str(out)]) == 0
    graph = json.loads(out.with_suffix(".json").read_text())["graph"]
    z = np.array(graph["Z_re"]) + 1j * np.array(graph["Z_im"])
    assert np.abs(z - ref.z).max() <= 1e-15
    assert out.with_suffix(".dot").read_text() == to_dot(ref, config)
    # a "bsl" record against the same steps run on the dense build
    program = _bsl_program(*size, r)
    _, _, steps = mbqc._parse_program(program)
    got = mbqc.run_program(program, seed=5)
    want = mbqc._run_steps(ref, steps, r, 5)
    assert got.mode_index == want.mode_index
    assert [e.mode for e in got.record.events] == \
        [e.mode for e in want.record.events]
    for a, b in ((got.record.events, want.record.events),
                 (got.state.mean, want.state.mean),
                 (got.outcome_jacobian, want.outcome_jacobian)):
        a = np.array([e.outcome for e in a] if isinstance(a, list) else a)
        b = np.array([e.outcome for e in b] if isinstance(b, list) else b)
        assert np.abs(a - b).max(initial=0.0) \
            <= 1e-12 * max(1.0, np.abs(b).max(initial=0.0))
    assert np.abs(got.state.z - want.state.z).max() <= 1e-12


def test_verify_nullifiers_passes_on_bsl(capsys):
    code = main(["verify-nullifiers", "--lattice", "2,2",
                 "--squeezing", "1.0", "--shots", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "analytic witness pass" in out
    assert "sampled witness pass" in out


@pytest.mark.parametrize("r", [1.0, 4.0, 6.0, 8.0])
def test_verify_nullifiers_passes_on_built_graphs(tmp_path, capsys, r):
    # up to R_MAX_LATTICE: the written graph is a valid state, and it is the
    # i sech(2r) I + tanh(2r) V whose (V, r) the witness reads
    out = tmp_path / "b"
    assert main(["build-bsl", "--lattice", "2,2", "-r", str(r),
                 "--out", str(out)]) == 0
    payload = json.loads(out.with_suffix(".json").read_text())
    z = GraphState.from_dict(payload["graph"]).z
    assert len(z) == 4 * np.prod(payload["config"]["lattice"])
    r = payload["config"]["squeezing"]
    want = 1j / np.cosh(2 * r) * np.eye(len(z)) \
        + np.tanh(2 * r) * np.array(payload["ideal_graph"])
    assert np.abs(z - want).max() <= 1e-15 * np.abs(want).max()
    capsys.readouterr()
    assert main(["verify-nullifiers", "--lattice", "2,2",
                 "--squeezing", str(r)]) == 0
    assert "analytic witness pass" in capsys.readouterr().out


def test_run_program_cli(tmp_path, capsys):
    prog = {
        "resource": {"kind": "wire", "macronodes": 2, "r": 4.0},
        "steps": [
            {"time_index": 0, "detector": "x", "basis": {"theta": -np.pi / 4}},
            {"time_index": 0, "detector": "a", "basis": {"theta": -3 * np.pi / 4}},
        ],
    }
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(prog))
    rpath = tmp_path / "record.json"
    code = main(["run-program", str(ppath), "--seed", "5", "--out", str(rpath)])
    assert code == 0
    rec = json.loads(rpath.read_text())
    assert len(rec["record"]["events"]) == 2
    assert rec["final_state"]["n"] == 2
    # determinism under a fixed seed
    rpath2 = tmp_path / "record2.json"
    main(["run-program", str(ppath), "--seed", "5", "--out", str(rpath2)])
    assert json.loads(rpath2.read_text())["record"] == rec["record"]
    assert main(["run-program", str(tmp_path / "missing.json")]) == 2


def test_run_program_seeded_records_are_byte_identical(tmp_path):
    prog = {
        "resource": {"kind": "wire", "macronodes": 3, "r": 3.0},
        "steps": [
            {"time_index": 0, "detector": "x", "basis": {"theta": 0.4}},
            {"time_index": 0, "detector": "a", "basis": {"theta": -1.1}},
            {"time_index": 1, "detector": "x",
             "basis": {"cubic": {"chi": 0.0, "sigma": 0.3}}},
        ],
    }
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(prog))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["run-program", str(ppath), "--seed", "7",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    rec = json.loads(outs[0].read_text())
    jac = rec["outcome_jacobian"]
    assert len(jac) == len(rec["record"]["events"]) == 5
    assert all(len(row) == 2 * rec["final_state"]["n"] for row in jac)


def test_run_program_rejects_bad_schema(tmp_path):
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps({"resource": {"kind": "wire"}, "steps":
                                 [{"detector": "x"}]}))
    assert main(["run-program", str(ppath)]) == 2


def _one_l_case(tmp_path, chi):
    """A --cases file holding one L case at chi, sigma 0.3, outcomes
    (0.1, -0.2, 0.4) and r 4."""
    path = tmp_path / "case.json"
    path.write_text(json.dumps([{"identity": "L", "chi": chi, "sigma": 0.3,
                                 "outcomes": [0.1, -0.2, 0.4], "r": 4.0}]))
    return str(path)


def test_verify_identities_single_case_out_of_range(tmp_path, capsys):
    code = main(["verify-identities", "--cases", _one_l_case(tmp_path, 5.0)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error" in out


def test_verify_identities_commutation_suite(capsys):
    code = main(["verify-identities", "commutation", "--grid", "12,256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "commutation" in out


def test_verify_identities_case_file(tmp_path, capsys):
    cases = [
        {"identity": "M", "theta": 0.3, "m": 0.2, "r": 4.0},
        {"identity": "commutation", "s": 0.2, "chi": 0.1, "sigma": 0.3,
         "outcomes": [0.1, -0.2, 0.3], "r": 4.0},
        {"identity": "L", "chi": 9.0},     # out of range: per-case error
    ]
    cpath = tmp_path / "cases.json"
    cpath.write_text(json.dumps(cases))
    rpath = tmp_path / "report.json"
    code = main(["verify-identities", "--grid", "12,256",
                 "--cases", str(cpath), "--report", str(rpath)])
    assert code == 1      # the bad case fails, the others pass
    reports = json.loads(rpath.read_text())
    assert [r.get("pass", False) for r in reports] == [True, True, False]
    assert "error" in reports[2]


@pytest.mark.parametrize("cases", [[1], {"identity": "L"}, []])
def test_verify_identities_cases_must_be_list_of_objects(tmp_path, capsys, cases):
    cpath = tmp_path / "cases.json"
    cpath.write_text(json.dumps(cases))
    rpath = tmp_path / "report.json"
    assert main(["verify-identities", "--cases", str(cpath),
                 "--report", str(rpath)]) == 2
    assert not rpath.exists()
    assert capsys.readouterr().err == (f"error: --cases file {cpath} must hold "
                                       "a non-empty JSON list of case objects\n")


def test_verify_identities_bad_outcomes_type_is_a_case_error(tmp_path, capsys):
    cpath = tmp_path / "cases.json"
    cpath.write_text(json.dumps([{"identity": "L", "outcomes": "abc"}]))
    rpath = tmp_path / "report.json"
    code = main(["verify-identities", "--grid", "12,64", "--cases", str(cpath),
                 "--report", str(rpath)])
    assert code == 1
    assert "L: error:" in capsys.readouterr().out
    (rep,) = json.loads(rpath.read_text())
    # a string is not a list, though it has three items
    assert rep["pass"] is False
    assert rep["error"] == "outcomes must list three numbers, got 'abc'"


@pytest.mark.parametrize("grid,field", [("0,64", "half extent L"),
                                        ("nan,64", "half extent L"),
                                        ("12,0", "points P"),
                                        ("12,100", "points P"),
                                        ("12", "expected L,P"),
                                        ("a,b", "expected L,P")])
def test_verify_identities_rejects_bad_grid(capsys, grid, field):
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "L", "--grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --grid" in err and field in err


@pytest.mark.parametrize("half", ["1e300", "1.0000001e100", "inf"])
def test_half_extent_above_the_bound_is_a_usage_error(capsys, half):
    # at L = 1e300 the cubic phases overflowed: numpy warned and every case
    # read fidelity 0 FAIL
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "M", "--grid", f"{half},64"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument --grid: half extent L must be in [1e-100, 1e+100], "
            f"got {float(half)}") in err


@pytest.mark.parametrize("half", ["1e-300", "1e-150", "9.9999e-101", "0"])
def test_half_extent_below_the_floor_is_a_usage_error(capsys, half):
    # at L = 1e-300 the p-shear phases overflowed and numpy warned; from
    # L = 3.9e-150 down a norm underflowed to 0 and was divided by
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "commutation", "--grid", f"{half},64"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument --grid: half extent L must be in [1e-100, 1e+100], "
            f"got {float(half)}") in err


@pytest.mark.parametrize("suite", ["M", "L"])
def test_half_extent_at_the_bound_forms_only_finite_phases(capsys, suite):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify-identities", suite, "--grid", "1e100,64"])
    assert code in (0, 1)
    assert "error" not in capsys.readouterr().out


@pytest.mark.parametrize("points", [4, 64, 4096])
def test_half_extent_at_the_floor_runs_without_warnings(capsys, points):
    # a grid this small holds no state, so the cases FAIL, but every phase
    # and norm stays finite and nonzero
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify-identities", "commutation", "--grid",
                     f"1e-100,{points}"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_sample_homodyne_cli(tmp_path):
    out = tmp_path / "shots.csv"
    code = main(["sample-homodyne", "--lattice", "2,2", "--setting", "q",
                 "--shots", "500", "--seed", "3", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == ",".join(f"mode_{k}" for k in range(16))
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (500, 16)


def test_seeded_sample_csvs_are_byte_identical_and_read_back(tmp_path):
    # 2500 shots span several of the writer's blocks of rows
    shots = 2500
    f_q, _ = lattice_factors(ideal_graph(LatticeConfig(2, 2, 1.0)), 1.0)
    want = sample_marginal(f_q, shots, 3)
    paths = [tmp_path / f"q{k}.csv" for k in range(2)]
    for path in paths:
        assert main(["sample-homodyne", "--lattice", "2,2", "--setting", "q",
                     "--phase-delayed", "--shots", str(shots), "--seed", "3",
                     "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert np.array_equal(np.loadtxt(paths[0], delimiter=",", skiprows=1),
                          want)


def test_phase_delayed_shots_have_the_lattice_marginals(tmp_path):
    # Sigma_qq = (cosh 2r I - sinh 2r V) / 2 and Sigma_pp with + sinh 2r V;
    # a sample covariance entry has standard deviation
    # sqrt((S_ij^2 + S_ii S_jj) / (shots - 1)), and each may sit 5 of them off
    r, shots = 0.7, 20000
    v = ideal_graph(LatticeConfig(2, 1, r))
    for setting, sign in (("q", -1), ("p", 1)):
        path = tmp_path / f"{setting}.csv"
        assert main(["sample-homodyne", "--lattice", "2,1", "-r", str(r),
                     "--setting", setting, "--phase-delayed", "--shots",
                     str(shots), "--seed", "3", "--out", str(path)]) == 0
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        sigma = (np.cosh(2 * r) * np.eye(8) + sign * np.sinh(2 * r) * v) / 2
        sd = np.sqrt((sigma ** 2 + np.outer(np.diag(sigma), np.diag(sigma)))
                     / (shots - 1))
        assert np.all(np.abs(np.cov(data.T) - sigma) <= 5 * sd)


def test_undelayed_draws_are_scaled_standard_normals(tmp_path):
    # the root and the Cholesky factor of cosh(2r) I / 2 are one matrix
    path = tmp_path / "q.csv"
    assert main(["sample-homodyne", "--lattice", "2,1", "-r", "1.5",
                 "--setting", "q", "--shots", "50", "--seed", "4",
                 "--out", str(path)]) == 0
    want = (np.sqrt(np.cosh(3.0) / 2)
            * np.random.default_rng(4).standard_normal((50, 8)))
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), want)


def test_lattice_paths_factor_no_matrix(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    assert main(["verify-nullifiers", "--lattice", "2,2", "--shots",
                 "100"]) == 0
    assert main(["sample-homodyne", "--setting", "q", "--phase-delayed",
                 "--shots", "100", "--out", str(tmp_path / "q.csv")]) == 0


def test_analytic_witness_is_exact_at_the_squeezing_limit(tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify-nullifiers", "--lattice", "2,2", "--squeezing", "8",
                 "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    want = np.exp(-16) * np.array(rep["vacuum_baselines"])
    assert np.abs(np.array(rep["variances"]) / want - 1).max() <= 1e-15


def test_run_program_malformed_fields_exit_2(tmp_path, capsys):
    step = {"time_index": 0, "detector": "x"}
    programs = {
        "steps[0].basis.theta": {"resource": {"kind": "wire"}, "steps": [
            {**step, "basis": {"theta": "abc"}}]},
        "steps[0].basis": {"resource": {"kind": "wire"}, "steps": [
            {**step, "basis": 5}]},
        "resource.macronodes": {"resource": {"kind": "wire",
                                             "macronodes": "two"}, "steps": []},
    }
    for field, prog in programs.items():
        ppath = tmp_path / "prog.json"
        ppath.write_text(json.dumps(prog))
        assert main(["run-program", str(ppath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


def test_build_bsl_format_flag_removed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-bsl", "--lattice", "2,2", "--format", "json",
              "--out", str(tmp_path / "bsl")])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def wire_program(r):
    """A 6-macronode wire program with theta pairs and a chi = 0 cubic step."""
    steps = []
    for k in range(5):
        if k == 2:
            steps.append({"time_index": k, "detector": "x",
                          "basis": {"cubic": {"chi": 0.0, "sigma": 0.3}}})
        else:
            steps += [{"time_index": k, "detector": d, "basis": {"theta": t}}
                      for d, t in (("x", 0.3 + 0.1 * k), ("a", -0.4))]
    return {"resource": {"kind": "wire", "macronodes": 6, "r": r},
            "steps": steps}


@pytest.mark.parametrize("r,code", [(15.0, 0), (30.0, 2)])
def test_run_program_wire_squeezing_range(tmp_path, capsys, r, code):
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(wire_program(r)))
    assert main(["run-program", str(ppath), "--out",
                 str(tmp_path / "rec.json")]) == code
    if code:
        assert "(0, 15.0] for a wire" in capsys.readouterr().err


@pytest.mark.parametrize("r,code", [(8.0, 0), (30.0, 2)])
def test_lattice_squeezing_range(tmp_path, capsys, r, code):
    assert main(["build-bsl", "--lattice", "2,2", "-r", str(r),
                 "--out", str(tmp_path / "bsl")]) == code
    assert main(["verify-nullifiers", "--lattice", "2,2",
                 "--squeezing", str(r)]) == code
    if code:
        assert "(0, 8.0] for the lattice" in capsys.readouterr().err


def test_run_program_ill_conditioned_measurement_exits_2(tmp_path, capsys):
    # at r = 15 the x mode's self-loop is i sech 30, so p-type homodyne there
    # divides by it: cond(A + B Z) is about 8e12, past COND_LIMIT
    prog = {"resource": {"kind": "wire", "macronodes": 6, "r": 15.0},
            "steps": [{"time_index": 0, "detector": "x",
                       "basis": {"theta": np.pi / 2}}]}
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(prog))
    assert main(["run-program", str(ppath)]) == 2
    assert "graph update is ill-conditioned" in capsys.readouterr().err


@pytest.mark.parametrize("prog,message", [
    ({"resource": "wire", "steps": []}, "resource must be an object"),
    ([], "program must be an object"),
    ({"steps": []}, "program is missing ['resource']"),
    ({"resource": {"r": 1.0}, "steps": []}, "resource is missing ['kind']"),
    ({"resource": {"kind": "wire"}, "steps": [{"detector": "x"}]},
     "steps[0] is missing ['time_index', 'basis']"),
    ({"resource": {"kind": "wire"}, "steps": [3]},
     "steps[0] must be an object"),
    ({"resource": {"kind": "wire"}, "steps": [], "seed": 3},
     "program has unknown fields ['seed']"),
    ({"resource": {"kind": "wire", "N": 4}, "steps": []},
     "resource has unknown fields ['N']"),
    ({"resource": {"kind": "bsl", "N": 2, "M": 2, "macronodes": 3},
      "steps": []}, "resource has unknown fields ['macronodes']"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": 0, "detector": "x", "basis": {"theta": 0.4},
         "outcomes": 0.25}]}, "steps[0] has unknown fields ['outcomes']"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": 0, "detector": "x", "basis": {"theta": 0.4,
                                                     "phi": 0.1}}]},
     "steps[0].basis has unknown fields ['phi']"),
    ({"resource": {"kind": "wire", "macronodes": 3}, "steps": [
        {"time_index": 0, "detector": "x",
         "basis": {"cubic": {"sigma": 0.3, "gamma": 1.0}}}]},
     "steps[0].basis.cubic has unknown fields ['gamma']"),
    ({"resource": {"kind": "wire", "macronodes": 3}, "steps": [
        {"time_index": 0, "detector": "x",
         "basis": {"theta": 0.4, "cubic": {"sigma": 0.3}}}]},
     "steps[0].basis must hold one of theta and cubic"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": 0, "detector": "x", "basis": {}}]},
     "steps[0].basis must hold one of theta and cubic"),
])
def test_run_program_malformed_structure_exit_2(tmp_path, capsys, prog,
                                                message):
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(prog))
    assert main(["run-program", str(ppath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed program:") and message in err


def test_build_bsl_lattice_flag_is_the_only_size(tmp_path, capsys):
    # LatticeConfig (N >= 2, M >= 1) is the one check on the lattice size
    out = tmp_path / "bsl"
    assert main(["build-bsl", "--lattice", "2,1", "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["graph"]["n"] == 8
    assert main(["build-bsl", "--lattice", "1,3", "--out", str(out)]) == 2
    assert "need N >= 2 rows" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["build-bsl", "-N", "3", "--out", str(out)])
    assert exc.value.code == 2
    assert "-N" in capsys.readouterr().err


def test_verify_nullifiers_report_takes_one_squeezing(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify-nullifiers", "--squeezing", "1", "--squeezing", "2",
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--report" in err and "--squeezing" in err
    assert not report.exists()
    assert main(["verify-nullifiers", "--lattice", "2,3", "--squeezing", "1.3",
                 "--report", str(report)]) == 0
    # the report holds the exact variances, e^{-2r} times the vacuum ones
    nulls = quadrature_nullifiers(ideal_graph(LatticeConfig(2, 3, 1.3)))
    variances = np.exp(-2 * 1.3) * vacuum_variances(nulls)
    assert report.read_text() == witness_from_variances(
        variances, vacuum_variances(nulls), 0.5).to_json()


def test_verify_nullifiers_computes_one_vacuum_baseline(monkeypatch, capsys):
    # the baselines depend on V alone: one evaluation serves every squeezing
    # and both witnesses
    from bslsim import cli, nullifiers
    calls = []

    def counted(nulls):
        calls.append(nulls.n_rows)
        return vacuum_variances(nulls)

    monkeypatch.setattr(cli, "vacuum_variances", counted)
    monkeypatch.setattr(nullifiers, "vacuum_variances", counted)
    assert main(["verify-nullifiers", "--lattice", "2,3", "--squeezing", "0.5",
                 "--squeezing", "1", "--squeezing", "2", "--shots", "100"]) == 0
    assert calls == [48]
    assert capsys.readouterr().out.count("sampled witness pass") == 3


@pytest.mark.parametrize("chi,code,line", [
    ("0.1", 0, 'L: fidelity 0.99999825 pass params {"chi": 0.1, "sigma": 0.3, '
               '"outcomes": [0.1, -0.2, 0.4]}'),
    ("5.0", 1, "L: error: parameters outside the validated grid-resident "
               "range: chi must be in [-0.3, 0.3], got 5.0"),
])
def test_verify_identities_chi_runs_one_case(tmp_path, capsys, chi, code,
                                             line):
    assert main(["verify-identities", "--cases",
                 _one_l_case(tmp_path, float(chi)), "--grid", "12,256"]) == code
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("cases,params", [
    ([{"identity": "E"}], [{"chi": 0.1, "r_env": 2.0, "m": 0.0}]),
    # two cases that differ only in chi are told apart
    ([{"identity": "E", "chi": 0.2}, {"identity": "E", "chi": -0.1}],
     [{"chi": 0.2, "r_env": 2.0, "m": 0.0},
      {"chi": -0.1, "r_env": 2.0, "m": 0.0}]),
    ([{"identity": "E", "m": 0.25, "r_env": 1.5, "chi": 0}],
     [{"chi": 0.0, "r_env": 1.5, "m": 0.25}]),
], ids=["defaults", "two-chi", "every-field"])
def test_e_case_params_echo_its_fields(tmp_path, capsys, cases, params):
    path, rpath = tmp_path / "cases.json", tmp_path / "report.json"
    path.write_text(json.dumps(cases))
    assert main(["verify-identities", "--grid", "12,256", "--cases",
                 str(path), "--report", str(rpath)]) == 0
    assert capsys.readouterr().out == "".join(
        f"E: fidelity {rep['fidelity']:.8f} pass params {json.dumps(want)}\n"
        for rep, want in zip(json.loads(rpath.read_text()), params))
    assert [rep["params"] for rep in json.loads(rpath.read_text())] == params


@pytest.mark.parametrize("case,field", [
    ({"identity": "L", "sigma": 1e300}, "sigma"),
    ({"identity": "L", "sigma": -2.5}, "sigma"),
    ({"identity": "commutation", "sigma": 1e300}, "sigma"),
    ({"identity": "commutation", "s": 1e300}, "s"),
    ({"identity": "commutation", "s": -5.5}, "s"),
    ({"identity": "commutation", "t": 1e300}, "t"),
    ({"identity": "commutation", "t": 21.0}, "t"),
    ({"identity": "commutation", "chi": 0.5}, "chi"),
    ({"identity": "commutation", "outcomes": [0.1, 5, 0.2]}, "outcomes"),
    # an E case's chi takes the device's bound
    ({"identity": "E", "chi": 1e300}, "chi"),
    ({"identity": "E", "chi": -0.5}, "chi"),
])
def test_device_parameters_outside_their_range_are_case_errors(
        tmp_path, capsys, case, field):
    path = tmp_path / "cases.json"
    path.write_text(json.dumps([case]))
    assert main(["verify-identities", "--grid", "12,256", "--cases",
                 str(path)]) == 1
    assert capsys.readouterr().out.startswith(
        f"{case['identity']}: error: parameters outside the validated "
        f"grid-resident range: {field} must be in [-")


def _run(tmp_path, prog):
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(prog))
    return main(["run-program", str(ppath), "--out", str(tmp_path / "rec.json")])


@pytest.mark.parametrize("prog,field", [
    ({"resource": {"kind": "wire", "macronodes": 2.9}, "steps": []},
     "resource.macronodes must be an integer"),
    ({"resource": {"kind": "wire", "macronodes": "3"}, "steps": []},
     "resource.macronodes must be an integer"),
    ({"resource": {"kind": "wire", "r": float("inf")}, "steps": []},
     "resource.r must be finite"),
    ({"resource": {"kind": "wire", "macronodes": float("inf")}, "steps": []},
     "resource.macronodes must be finite"),
    ({"resource": {"kind": "wire", "r": True}, "steps": []},
     "resource.r must be a number"),
    ({"resource": {"kind": "bsl", "N": 2, "M": 2.5}, "steps": []},
     "resource.M must be an integer"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": 0.7, "detector": "x", "basis": {"theta": 0.1}}]},
     "steps[0].time_index must be an integer"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": True, "detector": "x", "basis": {"theta": 0.1}}]},
     "steps[0].time_index must be an integer"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": float("inf"), "detector": "x", "basis": {"theta": 0.1}}]},
     "steps[0].time_index must be finite"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": 0, "detector": "x", "basis": {"theta": float("nan")}}]},
     "steps[0].basis.theta must be finite"),
    ({"resource": {"kind": "wire"}, "steps": [
        {"time_index": 0, "detector": "x", "basis": {"theta": 0.1},
         "outcome": float("-inf")}]},
     "steps[0].outcome must be finite"),
    ({"resource": {"kind": "wire", "macronodes": 3}, "steps": [
        {"time_index": 0, "detector": "x",
         "basis": {"cubic": {"chi": 0.0, "sigma": float("inf")}}}]},
     "steps[0].basis.cubic.sigma must be finite"),
])
def test_run_program_rejects_non_finite_and_non_integral_fields(
        tmp_path, capsys, prog, field):
    assert _run(tmp_path, prog) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


#: values that break a program leaf: non-finite, fractional, negative, a
#: string, a bool, null and the wrong container types
BAD_LEAVES = [float("inf"), float("nan"), 2.9, -1, "3", True, None, [], {}]


def _break(draw, obj):
    """obj with one or two leaves or nodes replaced by BAD_LEAVES, and the
    replacements still in it."""
    leaves, nodes = [], []

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else None)
        if items is None:
            leaves.append(path)
            return
        nodes.append(path)
        for key, child in items:
            walk(child, path + (key,))

    walk(obj, ())
    used = {}
    for _ in range(draw(st.integers(1, 2))):
        # mostly a number or string leaf, sometimes a whole object or list
        pool = nodes if draw(st.integers(0, 3)) == 0 else leaves
        path = draw(st.sampled_from(pool))
        bad = copy.deepcopy(draw(st.sampled_from(BAD_LEAVES)))
        if not path:
            obj = bad
        else:
            node = obj
            try:
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = bad
            except (KeyError, IndexError, TypeError):
                continue      # an earlier replacement removed this path
        # a replacement overwrites the earlier ones at or below its path
        used = {at: v for at, v in used.items() if at[:len(path)] != path}
        used[path] = bad
    return obj, list(used.values())


@st.composite
def broken_programs(draw):
    """A small valid wire or lattice program with some leaves replaced."""
    if draw(st.booleans()):
        resource = {"kind": "wire", "macronodes": 3, "r": 2.0}
        slots = [(k, d) for k in range(3) for d in "xa"]
    else:
        resource = {"kind": "bsl", "N": 2, "M": 1, "r": 1.0}
        slots = [(k, d) for k in range(2) for d in "bx"]
    steps = []
    for k, d in draw(st.lists(st.sampled_from(slots), max_size=3,
                              unique=True)):
        if d == "x" and draw(st.booleans()):
            basis = {"cubic": {"chi": 0.0, "sigma": 0.3}}
        else:
            basis = {"theta": 0.4}
        step = {"time_index": k, "detector": d, "basis": basis}
        if draw(st.booleans()):
            step["outcome"] = [0.1, 0.2, 0.3] if "cubic" in basis else 0.1
        steps.append(step)
    return _break(draw, {"resource": resource, "steps": steps})[0]


@settings(max_examples=200, deadline=None)
@given(program=broken_programs())
def test_run_program_bad_leaves_exit_0_or_2(tmp_path_factory, program):
    path = tmp_path_factory.mktemp("prog") / "prog.json"
    path.write_text(json.dumps(program))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run-program", str(path), "--out", os.devnull])
    assert code in (0, 2)
    assert (code == 0) == (err.getvalue() == "")
    if code:
        assert err.getvalue().startswith("error:")


#: valid graph objects of one and two modes; one mode is a wire input
GRAPHS = [{"n": 1, "Z_re": [[0.2]], "Z_im": [[0.8]], "mean": [0.1, -0.3]},
          {"n": 2, "Z_re": [[0.1, 0.2], [0.2, -0.1]],
           "Z_im": [[1.0, 0.3], [0.3, 0.9]], "mean": [0.1, 0.2, -0.3, 0.0]}]


@st.composite
def broken_graphs(draw):
    """A valid graph object with some leaves or nodes replaced, and whether
    a replacement is other than a finite number."""
    graph, used = _break(draw, copy.deepcopy(draw(st.sampled_from(GRAPHS))))
    return graph, any(type(v) not in (int, float) or not np.isfinite(v)
                      for v in used)


@settings(max_examples=200, deadline=None)
@given(case=broken_graphs())
def test_graph_bad_leaves_exit_2_unless_a_number(tmp_path_factory, case):
    graph, refused = case
    if graph is None:           # a null input is the wire's default input
        return
    path = tmp_path_factory.mktemp("graph") / "in.json"
    path.write_text(json.dumps({"resource": {"kind": "wire", "input": graph},
                                "steps": []}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run-program", str(path), "--out", os.devnull])
    assert code == 2 if refused else code in (0, 2)
    assert (code == 0) == (err.getvalue() == "")
    if code:
        assert err.getvalue().startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (["--seed", "3"], "error: --seed cannot be used without --shots\n"),
])
def test_verify_nullifiers_refuses_unused_sampling_flags(capsys, argv,
                                                         message):
    assert main(["verify-nullifiers", "--lattice", "2,2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("argv", [
    ["verify-nullifiers", "--lattice", "2,2", "--shots", "100"],
    ["sample-homodyne", "--setting", "q", "--out", "OUT"],
    ["verify-identities", "M"],
    ["run-program", "PROGRAM"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    program = tmp_path / "prog.json"
    program.write_text(json.dumps({"resource": {"kind": "wire"}, "steps": []}))
    paths = {"OUT": str(tmp_path / "q.csv"), "PROGRAM": str(program)}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(a, a) for a in argv] + ["--seed", "-1"])
    assert exc.value.code == 2
    assert ("argument --seed: seed must be an integer >= 0, got '-1'"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [program]


@pytest.mark.parametrize("argv,least", [
    (["verify-nullifiers", "--lattice", "2,2"], 2),
    (["sample-homodyne", "--setting", "q", "--out", "OUT"], 1),
], ids=["verify-nullifiers", "sample-homodyne"])
@pytest.mark.parametrize("shots", ["0", "-3", "2.5"])
def test_shots_below_one_exit_2(tmp_path, capsys, argv, least, shots):
    out = str(tmp_path / "q.csv")
    with pytest.raises(SystemExit) as exc:
        main([out if a == "OUT" else a for a in argv] + ["--shots", shots])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument --shots: shots must be an integer >= {least}, "
            f"got '{shots}'" in captured.err)
    assert list(tmp_path.iterdir()) == []


def test_verify_nullifiers_refuses_one_shot(tmp_path, capsys):
    # a sample variance of one shot is undefined: a usage error, not a FAIL
    report = tmp_path / "report.json"
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exc:
        warnings.simplefilter("error")
        main(["verify-nullifiers", "--shots", "1", "--report", str(report)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: bslsim verify-nullifiers")
    assert captured.err.endswith("argument --shots: shots must be an integer "
                                 ">= 2, got '1'\n")
    assert not report.exists()


def test_sample_homodyne_takes_one_shot(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert main(["sample-homodyne", "--setting", "q", "--shots", "1",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2   # header and one shot


@pytest.mark.parametrize("factor", ["nan", "inf", "5", "0", "-0.5", "half"])
def test_verify_nullifiers_threshold_factor_range(capsys, factor):
    with pytest.raises(SystemExit) as exc:
        main(["verify-nullifiers", "--threshold-factor", factor])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "threshold factor must be finite and in (0, 1]" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["--cases", "CASES", "--seed", "3"], "--seed"),
    (["all", "--cases", "CASES"], "suite all"),
])
def test_verify_identities_refuses_unused_flags(tmp_path, capsys, argv, flag):
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps([{"identity": "L", "chi": 0.1}]))
    argv = [str(cases) if a == "CASES" else a for a in argv]
    assert main(["verify-identities", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} cannot be used")


@pytest.mark.parametrize("argv", [["X"], ["X", "--seed", "3"],
                                  ["0.1", "--cases", "CASES"]],
                         ids=["suite", "with-seed", "with-cases"])
def test_verify_identities_unknown_suite_is_named(tmp_path, capsys, argv):
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps([{"identity": "L", "chi": 0.1}]))
    argv = [str(cases) if a == "CASES" else a for a in argv]
    assert main(["verify-identities", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown suite {argv[0]!r}: choose from "
                            "E, M, L, commutation, all\n")


@pytest.mark.parametrize("suite,code", [("M", 2), ("L", 2),
                                        ("commutation", 2), ("E", 0),
                                        ("all", 0)])
def test_verify_identities_seed_only_with_the_e_battery(capsys, suite, code):
    # run_suite draws from the seed only in the E battery
    assert main(["verify-identities", suite, "--grid", "12,256",
                 "--seed", "5"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("error: --seed cannot be used with")
        assert captured.err.count("\n") == 1
    else:
        assert captured.err == "" and "E: fidelity" in captured.out


@pytest.mark.parametrize("argv,resource", [
    (["build-bsl", "--lattice", "64,33", "--out", "OUT"], None),
    (["verify-nullifiers", "--lattice", "1000,1000"], None),
    (["sample-homodyne", "--lattice", "64,33", "--setting", "q",
      "--out", "OUT"], None),
    (["run-program", "PROGRAM"], {"kind": "wire", "macronodes": 1e300}),
    (["run-program", "PROGRAM"], {"kind": "wire", "macronodes": 4097}),
    (["run-program", "PROGRAM"], {"kind": "bsl", "N": 10 ** 6, "M": 10 ** 6}),
])
def test_resources_above_the_mode_limit_exit_2(tmp_path, capsys, argv,
                                               resource):
    # refused before any array is allocated: 8194 and more modes
    path = tmp_path / "prog.json"
    path.write_text(json.dumps({"resource": resource, "steps": []}))
    paths = {"OUT": str(tmp_path / "out"), "PROGRAM": str(path)}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "above the limit of 8192 modes" in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv,message", [
    (["verify-identities", "M", "--grid", "12,1048576"],
     "argument --grid: points P: grid points per mode must be a power of two "
     "in [4, 4096], got 1048576"),
    (["sample-homodyne", "--setting", "q", "--shots", "1000000000000",
      "--out", "OUT"], "error: 1000000000000 shots of 16 modes are above "
                       "the limit of 134217728 draws"),
    (["verify-nullifiers", "--lattice", "2,2", "--shots", "1000000000000"],
     "error: 1000000000000 shots of 16 modes are above the limit of "
     "134217728 draws"),
])
def test_grid_points_and_draws_above_their_limits_exit_2(tmp_path, capsys,
                                                         argv, message):
    # refused before anything grid- or shot-sized is allocated
    tracemalloc.start()
    try:
        try:
            code = main([str(tmp_path / "out") if a == "OUT" else a
                         for a in argv])
        except SystemExit as exc:
            code = exc.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2 ** 26
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert list(tmp_path.iterdir()) == []


def test_case_grid_points_above_the_limit_is_a_case_error(tmp_path, capsys):
    cases = tmp_path / "cases.json"
    # a case names no grid: points is not a field of any kind
    cases.write_text(json.dumps([{"identity": "E", "points": 1048576}]))
    tracemalloc.start()
    try:
        code = main(["verify-identities", "--cases", str(cases)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2 ** 26
    assert capsys.readouterr().out == (
        "E: error: case has unknown fields ['points']\n")


@pytest.mark.parametrize("argv", [["run-program", "FILE"],
                                  ["verify-identities", "--cases", "FILE"]],
                         ids=["program", "cases"])
@pytest.mark.parametrize("content", [b"\xff\xfe[]", b"{not json",
                                     b"[" * 200000 + b"]" * 200000,
                                     b"[" + b"1" * 5000 + b"]"],
                         ids=["not-utf8", "not-json", "deep",
                              "5000-digit-int"])
def test_unreadable_json_inputs_exit_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert captured.err.count("\n") == 1


_OUTPUT_FLAGS = (["verify-nullifiers", "--report"],
                 ["verify-identities", "M", "--report"],
                 ["run-program", "p.json", "--out"],
                 ["sample-homodyne", "--setting", "q", "--out"])


@pytest.mark.parametrize("argv,message", [
    (["verify-identities", "M", "--chi", "0.1"],
     "unrecognized arguments: --chi 0.1"),
    (["verify-identities", "M", "--sigma", "0.3"],
     "unrecognized arguments: --sigma 0.3"),
    (["verify-identities", "M", "--r", "4.0"],
     "unrecognized arguments: --r 4.0"),
    (["verify-identities", "M", "--outcomes", "0.1", "-0.2", "0.4"],
     "unrecognized arguments: --outcomes 0.1 -0.2 0.4"),
    # without a suite the flag's value fills it; the flag is still named
    (["verify-identities", "--chi", "0.1"], "unrecognized arguments: --chi"),
    (["build-bsl", "-r", "-1e-3"], "argument -r/--squeezing: "),
    (["build-bsl", "--squeezing", "-inf"], "argument -r/--squeezing: "),
    (["verify-nullifiers", "--threshold-factor", "-0.5"],
     "argument --threshold-factor: "),
    (["verify-nullifiers", "--shots", "100", "--seed", "-1"],
     "argument --seed: "),
    (["verify-nullifiers", "--shots", "-3"], "argument --shots: "),
    # a prefix without a name takes no suffix: refused before the build
    (["build-bsl", "--out", "."], "argument --out: "),
    (["build-bsl", "--out", ""], "argument --out: "),
    # every output path must end in a file name: refused before any work
    *[(argv + [path], f"argument {argv[-1]}: ") for argv in _OUTPUT_FLAGS
      for path in ("", ".", "/")],
    # ... and must not name a directory, which the write would refuse only
    # after the work
    *[(argv + [".."], f"argument {argv[-1]}: output path must name a file, "
       "not a directory, got '..'") for argv in _OUTPUT_FLAGS],
], ids=["chi", "sigma", "r", "outcomes", "chi-no-suite", "r-negative",
        "squeezing-inf",
        "threshold-factor-negative", "seed-negative", "shots-negative",
        "out-dot", "out-empty",
        *[f"{argv[0]}-{argv[-1][2:]}-{name}" for argv in _OUTPUT_FLAGS
          for name in ("empty", "dot", "root")],
        *[f"{argv[0]}-{argv[-1][2:]}-parent-dir" for argv in _OUTPUT_FLAGS]])
def test_retired_flags_and_negative_values_exit_2(tmp_path, monkeypatch,
                                                  capsys, argv, message):
    # --chi, --sigma, --r and --outcomes ran one L case; a --cases file
    # does that now, and --r is no abbreviation of --report.  A negative
    # value is read as a value, or the message names the flag it follows
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert list(tmp_path.iterdir()) == []


def test_build_bsl_out_prefix_may_name_a_directory(tmp_path, monkeypatch):
    # --out is a prefix: adir names adir.json and adir.dot beside it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert main(["build-bsl", "--lattice", "2,1", "--out", "adir"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "adir", "adir.dot", "adir.json"]


def test_verify_identities_non_finite_case_field_is_a_case_error(tmp_path,
                                                                 capsys):
    # json reads NaN and Infinity; the report must not write them back bare
    cpath = tmp_path / "cases.json"
    cpath.write_text('[{"identity": "M", "theta": NaN}, '
                     '{"identity": "L", "outcomes": [0.1, Infinity, 0.0]}, '
                     '{"identity": "M", "theta": 0.3, "r": 4.0}]')
    rpath = tmp_path / "report.json"
    assert main(["verify-identities", "--grid", "12,256", "--cases",
                 str(cpath), "--report", str(rpath)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["M: error: theta must be finite, got nan",
                       "L: error: outcomes must be finite, got inf"]
    assert "pass" in out[2]

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    reports = json.loads(rpath.read_text(), parse_constant=refuse)
    assert [r["pass"] for r in reports] == [False, False, True]
    assert reports[0]["params"] == {"identity": "M", "theta": "NaN"}
    assert reports[1]["params"]["outcomes"] == [0.1, "Infinity", 0.0]


@pytest.mark.parametrize("case,message", [
    ({"identity": "M", "theta": True}, "theta must be a number, got True"),
    ({"identity": "M", "m": "0.5"}, "m must be a number, got '0.5'"),
    # an E case runs at the batch's grid, so points is no E field
    ({"identity": "E", "points": 64.5}, "case has unknown fields ['points']"),
    ({"identity": "E", "points": True}, "case has unknown fields ['points']"),
    ({"identity": "E", "points": 64}, "case has unknown fields ['points']"),
    ({"identity": "L", "outcomes": [0.1, 0.2]},
     "outcomes must list three numbers, got [0.1, 0.2]"),
    ({"identity": "L", "outcomes": 0.5},
     "outcomes must list three numbers, got 0.5"),
    ({"identity": "L", "outcomes": [True, 0.0, "x"]},
     "outcomes must be a number, got True"),
    ({"identity": "commutation", "outcomes": [0.0, 0.0, "x"]},
     "outcomes must be a number, got 'x'"),
    ({"identity": "L", "chii": 0.25}, "case has unknown fields ['chii']"),
    ({"identity": "M", "points": 64, "thetaa": 0.3},
     "case has unknown fields ['points', 'thetaa']"),
    ({"identity": "L", "points": 64}, "case has unknown fields ['points']"),
    ({"identity": "E", "sigma": 0.3}, "case has unknown fields ['sigma']"),
    ({"identity": "L", "r_env": 2.0}, "case has unknown fields ['r_env']"),
    ({"identity": "L", "r": 400}, "squeezing r must be in (0, 200.0], got 400.0"),
    ({"identity": "M", "r": -1}, "squeezing r must be in (0, 200.0], got -1.0"),
    ({"identity": "E", "r_env": 400},
     "squeezing r_env must be in (0, 200.0], got 400.0"),
], ids=["bool", "string", "fractional-points", "bool-points", "points-on-E",
        "two-outcomes", "scalar-outcomes", "bool-outcome", "string-outcome",
        "misspelled-key", "points-and-misspelled-key", "points-on-L",
        "sigma-on-E", "r_env-on-L", "r-above-limit", "negative-r",
        "r_env-above-limit"])
def test_malformed_case_field_is_a_case_error_naming_the_key(case, message):
    (rep,) = run_cases([case], 64)
    assert rep["error"] == message and rep["pass"] is False
    assert rep["params"] == case


@pytest.mark.parametrize("case,kind,message", [
    (3, None, "case must be an object, got 3"),
    ([], None, "case must be an object, got []"),
    ({"theta": 0.3}, None, "unknown identity kind None"),
    ({"identity": "K"}, "K", "unknown identity kind 'K'"),
])
def test_case_that_is_not_a_known_kind_is_a_case_error(case, kind, message):
    assert run_cases([case], 64) == [{"identity": kind, "params": case,
                                      "error": message, "pass": False}]


def test_unknown_case_key_exits_1_and_the_report_names_it(tmp_path, capsys):
    cpath = tmp_path / "cases.json"
    cpath.write_text(json.dumps([{"identity": "L", "chii": 0.25},
                                 {"identity": "M", "theta": 0.3}]))
    rpath = tmp_path / "report.json"
    assert main(["verify-identities", "--grid", "12,256", "--cases",
                 str(cpath), "--report", str(rpath)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "L: error: case has unknown fields ['chii']"
    assert out[1].startswith("M: fidelity") and " pass " in out[1]
    assert [r["pass"] for r in json.loads(rpath.read_text())] == [False, True]


def test_integral_case_fields_run_as_their_floats():
    as_int, as_float = run_cases([{"identity": "M", "theta": 0, "m": 1},
                                  {"identity": "M", "theta": 0.0, "m": 1.0}],
                                 64)
    assert as_int == as_float


@pytest.mark.parametrize("graph,field", [
    ({"Z_re": [[0.1]], "Z_im": [[1, 0], [0, 1]]}, "Z_re and Z_im"),
    ({"Z_re": [0.1, 0.2], "Z_im": [1, 1]}, "Z_re and Z_im"),
    ({"n": 3, "Z_re": [[0, 0], [0, 0]], "Z_im": [[1, 0], [0, 1]]}, "n = 3"),
    ({"Z_re": [[0, 0.1], [0.3, 0]], "Z_im": [[1, 0], [0, 1]]},
     "Z_re is not symmetric"),
    ({"Z_re": [[0, 0], [0, 0]], "Z_im": [[1, 1e-9], [0, 1]]},
     "Z_im is not symmetric"),
    ({"Z_im": [[1, 0], [0, 1]]}, "graph is missing ['Z_re']"),
    ({"Z_re": [[0, 0], [0, "x"]], "Z_im": [[1, 0], [0, 1]]},
     "Z_re must be a number, got 'x'"),
    ({"Z_re": [[0, 0], [0, 0]], "Z_im": [[1, 0], [0, 1]],
      "Zim": [[1, 0], [0, 1]]}, "unknown fields ['Zim']"),
    ({"Z_re": [[0, 0], [0, 0]], "Z_im": [[1, 0], [0, 1]], "meen": [9, 9]},
     "unknown fields ['meen']"),
    ({"n": True, "Z_re": [[0.0]], "Z_im": [[1.0]], "mean": [0.0, 0.0]},
     "n must be an integer, got True"),
    ({"n": 1, "Z_re": [["0.0"]], "Z_im": [[True]], "mean": ["1e-3", False]},
     "Z_re must be a number, got '0.0'"),
    ({"n": 1, "Z_re": [["0.0"]], "Z_im": [[True]], "mean": ["0.5", False]},
     "Z_re must be a number, got '0.0'"),
    ({"n": 1, "Z_re": [[0.0]], "Z_im": [[True]], "mean": [0.0, 0.0]},
     "Z_im must be a number, got True"),
    ({"n": 1, "Z_re": [[0.0]], "Z_im": [[1.0]], "mean": ["0.5", False]},
     "mean must be a number, got '0.5'"),
    ([1, 2], "graph must be an object, got [1, 2]"),
    # nested past numpy's 32-dimension iterators and its 64-dimension arrays
    ({"Z_re": json.loads("[" * 40 + "1" + "]" * 40), "Z_im": [[1]]},
     "Z_re and Z_im must be square of one shape"),
    ({"Z_re": json.loads("[" * 100 + "1.0" + "]" * 100), "Z_im": [[1]]},
     "Z_re must be a rectangular array of numbers"),
    ({"Z_re": [[0, 0], [0]], "Z_im": [[1, 0], [0, 1]]},
     "Z_re must be a rectangular array of numbers"),
], ids=["broadcast", "vector", "n", "asym-re", "asym-im", "missing", "string",
        "extra-Zim", "extra-meen", "bool-n", "string-entries",
        "string-entries-mean-0.5", "bool-entry", "string-mean",
        "not-an-object", "deep-40", "deep-100", "ragged"])
def test_graph_json_shapes_and_symmetry_are_checked(tmp_path, capsys, graph,
                                                    field):
    # a 1x1 real part used to broadcast over the 2x2 state, an asymmetric
    # one to be symmetrized, and a bool n, string or bool entries all passed
    if isinstance(graph, dict):
        graph = {"mean": [0.0] * 4, **graph}
    program = {"resource": {"kind": "wire", "input": graph}, "steps": []}
    assert _run(tmp_path, program) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: resource.input: ") and field in err


def test_written_graphs_hold_exactly_the_keys_the_reader_reads(tmp_path):
    out = tmp_path / "bsl"
    assert main(["build-bsl", "--lattice", "2,1", "-r", "2.0",
                 "--out", str(out)]) == 0
    graph = json.loads(out.with_suffix(".json").read_text())["graph"]
    program = {"resource": {"kind": "wire", "macronodes": 3, "r": 3.0},
               "steps": [{"time_index": 0, "detector": "x",
                          "basis": {"theta": 0.4}}]}
    assert _run(tmp_path, program) == 0
    final = json.loads((tmp_path / "rec.json").read_text())["final_state"]
    for written in (graph, final):
        assert set(written) == {"n", "Z_re", "Z_im", "mean"}
        assert GraphState.from_dict(written).to_dict() == written


def test_written_graphs_load_through_the_checked_reader(tmp_path, capsys):
    out = tmp_path / "bsl"
    assert main(["build-bsl", "--lattice", "2,1", "-r", "2.0",
                 "--out", str(out)]) == 0
    graph = json.loads(out.with_suffix(".json").read_text())["graph"]
    assert GraphState.from_dict(graph).n_modes == 8
    program = {"resource": {"kind": "wire", "macronodes": 3, "r": 3.0},
               "steps": [{"time_index": 0, "detector": "x",
                          "basis": {"theta": 0.4}},
                         {"time_index": 1, "detector": "a",
                          "basis": {"theta": -1.1}}]}
    assert _run(tmp_path, program) == 0
    final = json.loads((tmp_path / "rec.json").read_text())["final_state"]
    assert GraphState.from_dict(final).n_modes == final["n"]


def test_verify_identities_help_lists_the_suites(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--help"])
    assert exc.value.code == 0
    assert "[{E,M,L,commutation,all}]" in capsys.readouterr().out


_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                            5e-324])
_NUMBER = st.one_of(st.floats(), st.integers(-2 ** 70, 2 ** 70), _SPECIAL)
_LEAF = st.one_of(_NUMBER, st.booleans(), st.none(), st.text(max_size=6),
                  st.sampled_from(["\n", "\"],\n [", "é☃", "\\"]),
                  st.builds(np.float64, st.floats()),
                  st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)))
_ROW = st.lists(_LEAF, max_size=4)
_JSONISH = st.recursive(
    st.one_of(_LEAF, _ROW, st.lists(_ROW, max_size=4),
              st.lists(st.lists(_NUMBER, min_size=1, max_size=3),
                       max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner,
                        max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(obj=_JSONISH)
def test_record_writer_is_indent_1_json(obj):
    assert cli._to_json(obj) == json.dumps(obj, indent=1, default=float)


def test_written_records_are_their_payloads_at_indent_1(tmp_path,
                                                        monkeypatch, capsys):
    # the build-bsl file, the run-program record (file and stdout) and the
    # verify-identities report, each compared with its own payload
    payloads = []
    writer = cli._to_json

    def spy(obj, depth=0):
        if depth == 0:
            payloads.append(obj)
        return writer(obj, depth)

    monkeypatch.setattr(cli, "_to_json", spy)
    monkeypatch.chdir(tmp_path)
    program = tmp_path / "prog.json"
    program.write_text(json.dumps(_bsl_program(2, 3, 1.0)))
    cases = tmp_path / "cases.json"
    cases.write_text('[{"identity": "L", "chi": 0.2, "sigma": 0.3}, '
                     '{"identity": "M", "theta": NaN}, '
                     '{"identity": "L", "chii": 0.25}]')
    assert main(["build-bsl", "--lattice", "3,3", "--out", "bsl"]) == 0
    assert main(["run-program", str(program), "--seed", "5",
                 "--out", "rec.json"]) == 0
    capsys.readouterr()
    assert main(["run-program", str(program), "--seed", "5"]) == 0
    stdout = capsys.readouterr().out
    assert main(["verify-identities", "--grid", "12,256", "--cases",
                 str(cases), "--report", "report.json"]) == 1
    texts = [(tmp_path / "bsl.json").read_text(),
             (tmp_path / "rec.json").read_text(), stdout[:-1],
             (tmp_path / "report.json").read_text()]
    assert len(payloads) == 4
    for payload, text in zip(payloads, texts):
        assert text == json.dumps(payload, indent=1, default=float)
