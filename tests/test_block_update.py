"""A run of homodyne steps as one K-mode block update, against the per-step
reference runner and against the exact cond of the run's rotation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslsim import mbqc
from bslsim.cli import main
from bslsim.graphstate import COND_LIMIT, GraphState, GraphStateError
from bslsim.lattice import LatticeConfig
from bslsim.mbqc import measure_with_response, run_program
from step_reference import rotation_cond, run_steps_reference

angle = st.sampled_from([0.0, np.pi / 2, -np.pi / 2]) | st.floats(-np.pi,
                                                                   np.pi)
outcome = st.floats(-3, 3)
WIRE_INPUT = GraphState(np.array([[0.2 + 0.8j]]), np.array([0.3, -0.2]))


@st.composite
def programs(draw, all_forced=False):
    """A wire or "bsl" program measuring any subset of its modes in any
    order: q(theta) and chi = 0 cubic steps, forced and drawn."""
    if draw(st.booleans()):
        sites = draw(st.integers(2, 5))
        resource = {"kind": "wire", "macronodes": sites,
                    "r": draw(st.floats(0.3, 3.0))}
        if draw(st.booleans()):
            resource["input"] = WIRE_INPUT.to_dict()
        slots = [(t, d) for t in range(sites) for d in "xa"]
    else:
        n, m = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (2, 3)]))
        resource = {"kind": "bsl", "N": n, "M": m,
                    "r": draw(st.floats(0.3, 2.0))}
        slots = list(LatticeConfig(n, m, 1.0).coords)
    order = draw(st.permutations(slots))
    order = order[:draw(st.integers(0, len(order)))]
    consumed, steps = set(), []
    for t, d in order:
        if (t, d) in consumed:
            continue
        consumed.add((t, d))
        step = {"time_index": t, "detector": d}
        partner = (t, "a")
        if d == "x" and partner in slots and partner not in consumed \
                and draw(st.booleans()):
            consumed.add(partner)
            step["basis"] = {"cubic": {"chi": 0.0,
                                       "sigma": draw(st.floats(-2, 2))}}
            if all_forced or draw(st.booleans()):
                step["outcome"] = draw(st.lists(outcome, min_size=3,
                                                max_size=3))
        else:
            step["basis"] = {"theta": draw(angle)}
            if all_forced or draw(st.booleans()):
                step["outcome"] = draw(outcome)
        steps.append(step)
    return {"resource": resource, "steps": steps}


def reference(program, seed):
    build, r, steps = mbqc._parse_program(program)
    return run_steps_reference(build(), steps, r, seed)


def assert_same_run(got, want, spread=1.0):
    """The block run is the per-step run: the same events, modes and
    adaptations, and every number within 1e-12 of its quantity's scale,
    its largest entry (at least 1) times spread.  A resource squeezed at r
    passes spread = cosh 2r: the read-out solve against Im Z, whose entries
    reach cosh 2r, loses that much of either run's accuracy.  At r <= 3 the
    two runs stay within 2e-14 of that scale."""
    events, ref = got.record.events, want.record.events
    assert [(e.mode, e.theta) for e in events] == \
        [(e.mode, e.theta) for e in ref]
    assert got.mode_index == want.mode_index
    assert [a["sigma"] for a in got.record.adaptations] == \
        [a["sigma"] for a in want.record.adaptations]
    pairs = [([e.outcome for e in events], [e.outcome for e in ref]),
             ([a["outcomes"] for a in got.record.adaptations],
              [a["outcomes"] for a in want.record.adaptations]),
             (got.state.z, want.state.z), (got.state.mean, want.state.mean),
             (got.outcome_jacobian, want.outcome_jacobian)]
    for a, b in pairs:
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        assert a.shape == b.shape
        scale = max(1.0, np.abs(b).max(initial=0.0)) * spread
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(programs(), st.integers(0, 2 ** 32 - 1))
def test_block_run_matches_per_step_reference(program, seed):
    assert_same_run(run_program(program, seed), reference(program, seed),
                    np.cosh(2 * program["resource"]["r"]))


@settings(max_examples=40, deadline=None)
@given(programs(all_forced=True))
def test_all_forced_block_run_matches_per_step_reference(program):
    # no outcome is drawn, so the run forms no covariance and needs no rng
    got = run_program(program, seed=object())
    want = reference(program, None)
    assert [e.outcome for e in got.record.events] == \
        [e.outcome for e in want.record.events]
    assert_same_run(got, want, np.cosh(2 * program["resource"]["r"]))


def test_empty_program_leaves_the_state():
    for resource in ({"kind": "wire", "macronodes": 3, "r": 2.0},
                     {"kind": "bsl", "N": 2, "M": 2, "r": 1.0}):
        program = {"resource": resource, "steps": []}
        build, _, _ = mbqc._parse_program(program)
        got, state = run_program(program, 1), build()
        assert_same_run(got, reference(program, 1))
        assert got.record.events == [] and got.outcome_jacobian.shape[1] == 0
        assert np.array_equal(got.state.z, state.z)
        assert np.abs(got.state.mean - state.mean).max() <= 1e-15


@pytest.mark.parametrize("forced", [None, 0.7])
def test_one_step_measure_with_response_matches_reference(forced):
    rng = np.random.default_rng(9)
    n = 4
    x, a = rng.normal(size=(2, n, n))
    state = GraphState((x + x.T) / 2 + 1j * (a @ a.T + np.eye(n)),
                       rng.normal(size=2 * n))
    jac = rng.normal(size=(2 * n, 2))
    for mode in range(n):
        theta = rng.uniform(-np.pi, np.pi)
        post, m, resp = measure_with_response(state, mode, theta, forced, 3,
                                              jac)
        want = run_steps_reference(state, [(mode, theta, forced)], None, 3,
                                   jac)
        assert post.z.shape == want.state.z.shape
        for got, ref in ((m, want.record.events[0].outcome),
                         (post.z, want.state.z), (post.mean, want.state.mean),
                         (resp, want.outcome_jacobian)):
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0,
                                                          np.abs(ref).max())


def dense_rotation(z, modes, thetas):
    """A + B Z of the rotation of every listed mode, as a dense n x n."""
    m = np.eye(len(z), dtype=complex)
    for k, theta in zip(modes, thetas):
        m[k] = -np.sin(theta) * z[k]
        m[k, k] += np.cos(theta)
    return m


def test_guard_refuses_a_near_singular_pivot():
    # a small Im Z with cot(theta) = Re Z_kk puts the pivot cos - sin Z_kk
    # near 0; a run is refused exactly when the cond(A + B Z) of its K-mode
    # rotation passes COND_LIMIT, whatever its other steps
    rng = np.random.default_rng(5)
    seen = set()
    for trial in range(300):
        n = int(rng.integers(2, 7))
        x = rng.normal(size=(n, n))
        z = (x + x.T) / 2 + 1j * 10.0 ** rng.uniform(-13.5, -11) * np.eye(n)
        state = GraphState(z, np.zeros(2 * n))
        modes = rng.permutation(n)[:int(rng.integers(1, min(3, n) + 1))]
        # q at the other modes keeps the pivot near singular in P; other
        # angles can couple it to an O(1) entry of P
        thetas = rng.uniform(-np.pi, np.pi, len(modes)) * (trial % 2)
        thetas[0] = np.arctan2(1.0, z[modes[0], modes[0]].real)
        cond = np.linalg.cond(dense_rotation(state.z, modes, thetas))
        if abs(np.log10(cond / COND_LIMIT)) < 0.01:
            continue                    # too near the limit to call
        refused = cond > COND_LIMIT
        if len(modes) == 1:     # the per-step guard's call on the same step
            assert (rotation_cond(state.z, modes[0], thetas[0])
                    > COND_LIMIT) == refused
        steps = [(int(k), float(t), 0.1) for k, t in zip(modes, thetas)]
        seen.add((len(modes) > 1, refused))
        if refused:
            with pytest.raises(GraphStateError,
                               match="graph update is ill-conditioned"):
                mbqc._run_steps(state, steps, None, 0)
        else:
            # the run may still fail a later check on such a state, but not
            # the guard
            try:
                mbqc._run_steps(state, steps, None, 0)
            except GraphStateError as exc:
                assert "ill-conditioned" not in str(exc)
    assert seen == {(False, False), (False, True), (True, False),
                    (True, True)}


def singular_readout_state():
    """A state of that family whose one accepted step leaves Im Z singular.

    Z = X + i e I with cot(pi/2) = X_00 = 0: q(pi/2) on mode 0 has the pivot
    about -i e, cond(A + B Z) about 3 / e, and adds about i / e to every
    entry of the 2 x 2 survivor, whose Im Z of e I is lost in the rounding:
    an all-equal Im Z, singular in the read-out solve.
    """
    e = 2.0 ** -30
    x = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return GraphState(x + 1j * e * np.eye(3), np.zeros(6)), np.pi / 2


@pytest.mark.parametrize("forced", [0.1, None])
def test_singular_read_out_is_a_graph_state_error(forced):
    state, theta = singular_readout_state()
    assert rotation_cond(state.z, 0, theta) < COND_LIMIT
    with pytest.raises(GraphStateError, match="Im Z must be positive definite"):
        mbqc._run_steps(state, [(0, theta, forced)], None, 0)
    # the outcome draw solves against Im Z the same way
    with pytest.raises(GraphStateError, match="Im Z must be positive definite"):
        mbqc._outcomes(np.array([[0.5 + 0j]]), np.zeros(1, dtype=complex),
                       np.array([0]), np.ones(1), np.zeros(1), [None],
                       np.random.default_rng(0))


def test_singular_read_out_exits_2_through_the_cli(tmp_path, monkeypatch,
                                                   capsys):
    state, theta = singular_readout_state()
    monkeypatch.setattr(mbqc, "_parse_program", lambda program: (
        lambda: state, None, [(0, theta, None)]))
    path = tmp_path / "prog.json"
    path.write_text(json.dumps({"resource": {}, "steps": []}))
    assert main(["run-program", str(path), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: Im Z must be positive definite")
