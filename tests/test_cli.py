"""Command-line interface: files, exit codes, determinism."""

import json

import numpy as np
import pytest

from bslsim.cli import main
from bslsim.graphstate import vacuum


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
    assert main(["build-bsl", "-N", "1", "-M", "3",
                 "--out", str(tmp_path / "x")]) == 2


def test_build_bsl_repeatable(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["build-bsl", "--lattice", "2,2", "--out", str(a)])
    main(["build-bsl", "--lattice", "2,2", "--out", str(b)])
    ja = a.with_suffix(".json").read_text().replace(str(a), "OUT")
    jb = b.with_suffix(".json").read_text().replace(str(b), "OUT")
    assert ja == jb


def test_verify_nullifiers_passes_on_bsl(capsys):
    code = main(["verify-nullifiers", "--lattice", "2,2",
                 "--squeezing", "1.0", "--shots", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "analytic witness pass" in out
    assert "sampled witness pass" in out


def test_verify_nullifiers_fails_on_vacuum_graph(tmp_path, capsys):
    # an unentangled graph passes the exact-nullifier check trivially, so
    # feed the witness path a stored vacuum graph: exact nullifiers hold
    path = tmp_path / "vac.json"
    path.write_text(vacuum(4).to_json())
    assert main(["verify-nullifiers", "--graph", str(path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify-nullifiers", "--graph", str(bad)]) == 2


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


def test_verify_identities_single_case_out_of_range(capsys):
    code = main(["verify-identities", "--chi", "5.0"])
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


@pytest.mark.parametrize("cases", [[1], {"identity": "L"}])
def test_verify_identities_cases_must_be_list_of_objects(tmp_path, capsys, cases):
    cpath = tmp_path / "cases.json"
    cpath.write_text(json.dumps(cases))
    assert main(["verify-identities", "--cases", str(cpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--cases" in err


def test_verify_identities_bad_outcomes_type_is_a_case_error(tmp_path, capsys):
    cpath = tmp_path / "cases.json"
    cpath.write_text(json.dumps([{"identity": "L", "outcomes": "abc"}]))
    rpath = tmp_path / "report.json"
    code = main(["verify-identities", "--grid", "12,64", "--cases", str(cpath),
                 "--report", str(rpath)])
    assert code == 1
    assert "L: error:" in capsys.readouterr().out
    (rep,) = json.loads(rpath.read_text())
    assert rep["pass"] is False and "abs" in rep["error"]


@pytest.mark.parametrize("grid,field", [("0,64", "half extent L"),
                                        ("nan,64", "half extent L"),
                                        ("12,0", "points P"),
                                        ("12,100", "points P")])
def test_verify_identities_rejects_bad_grid(capsys, grid, field):
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "L", "--grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --grid" in err and field in err


def test_sample_homodyne_cli(tmp_path):
    out = tmp_path / "shots.csv"
    code = main(["sample-homodyne", "--lattice", "2,2", "--setting", "q",
                 "--shots", "500", "--seed", "3", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == ",".join(f"mode_{k}" for k in range(16))
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (500, 16)


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
])
def test_run_program_malformed_structure_exit_2(tmp_path, capsys, prog,
                                                message):
    ppath = tmp_path / "prog.json"
    ppath.write_text(json.dumps(prog))
    assert main(["run-program", str(ppath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed program:") and message in err
