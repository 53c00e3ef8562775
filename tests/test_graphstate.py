"""Gaussian graph engine: gates, updates, covariance, serialization."""

import json

import numpy as np
import pytest

from bslsim.graphstate import (GraphState, GraphStateError, SymplecticGate,
                               apply, covariance, gate_beamsplitter, gate_cz,
                               gate_displacement, gate_identity, gate_rotation,
                               gate_shear, gate_squeeze, omega, squeezed_vacua,
                               vacuum)

RNG = np.random.default_rng(2024)


def random_gate(n, rng):
    kind = rng.integers(0, 6)
    i = int(rng.integers(n))
    j = int((i + 1 + rng.integers(n - 1)) % n) if n > 1 else 0
    if kind == 0:
        return gate_rotation(rng.uniform(-np.pi, np.pi), i, n)
    if kind == 1:
        return gate_squeeze(rng.uniform(-1, 1), i, n)
    if kind == 2:
        return gate_shear(rng.uniform(-2, 2), i, n)
    if kind == 3:
        return gate_displacement(rng.normal(), rng.normal(), i, n)
    if kind == 4 and n > 1:
        return gate_beamsplitter(rng.uniform(-np.pi, np.pi), i, j, n)
    if n > 1:
        return gate_cz(rng.uniform(-2, 2), i, j, n)
    return gate_rotation(rng.uniform(-np.pi, np.pi), 0, n)


def test_vacuum_graph():
    st = vacuum(1)
    assert np.allclose(st.z, 1j * np.eye(1))
    assert np.all(st.mean == 0)
    st3 = vacuum(3)
    assert np.allclose(st3.z, 1j * np.eye(3))


def test_vacuum_covariance_is_half_identity():
    assert np.allclose(covariance(vacuum(1)), 0.5 * np.eye(2))
    assert np.allclose(covariance(vacuum(2)), 0.5 * np.eye(4))


def test_squeezed_vacua_zero_squeezing():
    st = squeezed_vacua([0.0])
    assert np.allclose(st.z, 1j * np.eye(1))


def test_squeezed_vacua_heisenberg_oracle():
    # independent oracle: scale the vacuum covariance by the S(r) action
    # q -> e^r q, p -> e^-r p
    for r in (1.0, -1.0, 0.3):
        st = squeezed_vacua([r])
        s = np.diag([np.exp(r), np.exp(-r)])
        expected = s @ (0.5 * np.eye(2)) @ s.T
        assert np.allclose(covariance(st), expected, atol=1e-12)
    sigma = covariance(squeezed_vacua([1.0]))
    assert np.isclose(sigma[1, 1], np.exp(-2) / 2)
    assert np.isclose(sigma[0, 0], np.exp(2) / 2)
    assert np.isclose(covariance(squeezed_vacua([-1.0]))[0, 0], np.exp(-2) / 2)


def test_covariance_by_quadrature_integral():
    # one-mode oracle: integrate |psi(q)|^2 directly from the wavefunction
    r = 0.7
    st = squeezed_vacua([r])
    q = np.linspace(-30, 30, 200001)
    y = st.z.imag[0, 0]
    density = np.sqrt(y / np.pi) * np.exp(-y * q ** 2)
    var_q = np.trapezoid(q ** 2 * density, q)
    assert np.isclose(covariance(st)[0, 0], var_q, rtol=1e-10)
    assert np.isclose(var_q, np.exp(2 * r) / 2, rtol=1e-10)


def test_beamsplitter_balanced_blocks():
    s = gate_beamsplitter(np.pi / 4, 0, 1, 2).s
    a, b, c, d = s[:2, :2], s[:2, 2:], s[2:, :2], s[2:, 2:]
    expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    assert np.allclose(a, expected)
    assert np.allclose(d, expected)
    assert np.allclose(b, 0) and np.allclose(c, 0)


@pytest.mark.parametrize("theta", [0.1, 0.9, -1.3, np.pi / 3])
def test_beamsplitter_blocks_identical_and_orthogonal(theta):
    s = gate_beamsplitter(theta, 0, 1, 2).s
    a, b, c, d = s[:2, :2], s[:2, 2:], s[2:, :2], s[2:, 2:]
    assert np.allclose(a, d)
    assert np.allclose(a @ a.T, np.eye(2), atol=1e-14)


def test_rotation_zero_is_identity():
    assert np.allclose(gate_rotation(0.0, 0, 2).s, np.eye(4))


def test_cz_heisenberg_action():
    g = 0.75
    s = gate_cz(g, 0, 1, 2).s
    q = np.array([1.0, 2.0, 0.0, 0.0])
    out = s @ q
    assert np.allclose(out[:2], q[:2])        # q unchanged
    assert np.isclose(out[2], g * 2.0)        # p1 += g q2
    assert np.isclose(out[3], g * 1.0)        # p2 += g q1


def test_all_constructors_symplectic():
    n = 3
    gates = [gate_rotation(0.7, 1, n), gate_squeeze(-0.5, 0, n),
             gate_shear(1.3, 2, n), gate_beamsplitter(0.4, 0, 2, n),
             gate_cz(0.9, 1, 2, n), gate_displacement(0.2, -0.1, 0, n),
             gate_identity(n)]
    om = omega(n)
    for g in gates:
        assert np.abs(g.s @ om @ g.s.T - om).max() <= 1e-12
    composed = gates[0]
    for g in gates[1:]:
        composed = composed.then(g)
    assert np.abs(composed.s @ om @ composed.s.T - om).max() <= 1e-12


def test_apply_rotation_leaves_vacuum():
    st = apply(vacuum(1), gate_rotation(1.234, 0, 1))
    assert np.abs(st.z - 1j).max() < 1e-12


def test_apply_functoriality():
    rng = np.random.default_rng(5)
    st = squeezed_vacua([0.4, -0.2])
    g1 = random_gate(2, rng)
    g2 = random_gate(2, rng)
    a = apply(apply(st, g1), g2)
    b = apply(st, g1.then(g2))
    assert np.abs(a.z - b.z).max() < 1e-10
    assert np.abs(a.mean - b.mean).max() < 1e-10


def test_graph_update_matches_covariance_transport():
    # two independent code paths: Mobius update of Z versus S Sigma S^T
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        st = squeezed_vacua(rng.uniform(-0.8, 0.8, n))
        for _ in range(12):
            g = random_gate(n, rng)
            nxt = apply(st, g)
            assert np.abs(covariance(nxt)
                          - g.s @ covariance(st) @ g.s.T).max() <= 1e-10
            st = nxt


def test_purity_preserved_under_random_circuits():
    rng = np.random.default_rng(8)
    st = vacuum(2)
    om = omega(2)
    for _ in range(25):
        st = apply(st, random_gate(2, rng))
        assert np.linalg.eigvalsh(st.z.imag).min() > 0
        so = covariance(st) @ om
        assert np.abs(so @ so + 0.25 * np.eye(4)).max() <= 1e-10


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
def test_loop_weight_identity(r):
    # (1 + z_pm) / (1 - z_pm) = i e^{pm 2r} with z_pm = i sech 2r pm tanh 2r
    for sign in (1, -1):
        z = 1j / np.cosh(2 * r) + sign * np.tanh(2 * r)
        assert abs((1 + z) / (1 - z) - 1j * np.exp(sign * 2 * r)) <= 1e-12


def test_two_pairs_and_beamsplitter_make_square():
    from bslsim.lattice import _lattice_state, _pairs
    r = 1.0
    st = apply(_lattice_state(_pairs(4), r),
               gate_beamsplitter(np.pi / 4, 0, 2, 4))
    # i sech(2r) I has no real part, so Re Z = tanh(2r) V
    v = st.z.real / np.tanh(2 * r)
    cycle = {(0, 1), (1, 2), (2, 3), (0, 3)}
    for a in range(4):
        for b in range(a + 1, 4):
            if (a, b) in cycle:
                assert abs(abs(v[a, b]) - 1 / np.sqrt(2)) < 1e-10
            else:
                assert abs(v[a, b]) < 1e-10
    # fitted edge scale C tanh 2r: compare two squeezing values
    st2 = apply(_lattice_state(_pairs(4), 0.5),
                gate_beamsplitter(np.pi / 4, 0, 2, 4))
    ratio = abs(st2.z[0, 1]) / abs(st.z[0, 1])
    assert abs(ratio - np.tanh(1.0) / np.tanh(2.0)) < 1e-12


def test_json_roundtrip_bit_identical():
    rng = np.random.default_rng(3)
    st = squeezed_vacua([0.37, -0.81])
    st = apply(st, gate_beamsplitter(0.6, 0, 1, 2))
    st = apply(st, gate_displacement(0.123456789, -0.9876, 0, 2))
    text = json.dumps(st.to_dict())
    back = GraphState.from_dict(json.loads(text))
    assert np.array_equal(back.z, st.z)
    assert np.array_equal(back.mean, st.mean)
    assert json.dumps(back.to_dict()) == text


def test_from_json_rejects_wrong_schema():
    with pytest.raises(GraphStateError, match="malformed"):
        GraphState.from_dict(json.loads('{"n": 1}'))
    with pytest.raises(GraphStateError, match="malformed"):
        GraphState.from_dict(
            json.loads('{"Z_re": [[0]], "Z_im": [[1]], "mean": "x"}'))


def test_from_dict_checks_symmetry_to_roundoff():
    st = apply(squeezed_vacua([0.3, -0.2]), gate_beamsplitter(0.6, 0, 1, 2))
    data = st.to_dict()
    assert np.array_equal(GraphState.from_dict(data).z, st.z)
    del data["n"]
    data["Z_re"][0][1] += 1e-13
    back = GraphState.from_dict(data)
    assert np.array_equal(back.z, back.z.T)
    data["Z_re"][0][1] += 1e-11
    with pytest.raises(GraphStateError, match="Z_re is not symmetric"):
        GraphState.from_dict(data)
    data["Z_re"][0][1] = float("nan")
    with pytest.raises(GraphStateError, match="Z must be finite"):
        GraphState.from_dict(data)


def test_invalid_inputs_raise():
    with pytest.raises(GraphStateError):
        gate_rotation(0.3, 5, 2)
    with pytest.raises(GraphStateError):
        gate_beamsplitter(0.3, 1, 1, 2)
    with pytest.raises(GraphStateError):
        GraphState(np.array([[1.0 + 0j]]), np.zeros(2))   # Im Z not positive
    with pytest.raises(GraphStateError):
        SymplecticGate(np.eye(4) * 2)
    with pytest.raises(GraphStateError):
        apply(vacuum(2), gate_rotation(0.1, 0, 1))


def test_definiteness_threshold_and_message():
    # smallest eigenvalue of Im Z in (0, 1e-14]: positive, still rejected
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    y = q @ np.diag([2.0, 1.0, 5e-15]) @ q.T
    with pytest.raises(GraphStateError, match="positive definite") as exc:
        GraphState(0.3 + 1j * y, np.zeros(6))
    reported = float(str(exc.value).split("min eigenvalue ")[1].rstrip(")"))
    assert abs(reported - np.linalg.eigvalsh((y + y.T) / 2).min()) <= 1e-18
    assert 0 < reported <= 1e-14
    GraphState(0.3 + 1j * (y + 1e-13 * np.eye(3)), np.zeros(6))


@pytest.mark.parametrize("z,mean,field", [
    ([[np.nan + 1j]], [0.0, 0.0], "Z"),
    ([[complex(0.3, np.nan)]], [0.0, 0.0], "Z"),
    ([[np.inf + 1j]], [0.0, 0.0], "Z"),
    ([[0.3 + 1j]], [np.nan, 0.0], "mean"),
], ids=["nan-re-z", "nan-im-z", "inf-z", "nan-mean"])
def test_non_finite_state_is_rejected(z, mean, field):
    with pytest.raises(GraphStateError, match=field):
        GraphState(np.array(z), np.array(mean))


def test_ill_conditioned_update_reports_condition_number():
    st = squeezed_vacua([15.0, 0.0])
    with pytest.raises(GraphStateError, match="cond"):
        apply(st, gate_rotation(np.pi / 2, 0, 2))
