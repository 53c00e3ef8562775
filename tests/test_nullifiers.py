"""Nullifier sets, the phase-delay transformation, witnesses and sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bslsim import nullifiers
from bslsim.graphstate import (GraphState, GraphStateError, covariance,
                               omega, squeezed_vacua, vacuum)
from bslsim.lattice import LatticeConfig, build_bsl, ideal_graph
from bslsim.nullifiers import (NullifierSet, empirical_variances,
                               exact_nullifiers, ingest_samples,
                               nullifier_variances, phi_transform,
                               quadrature_nullifiers, sample_homodyne_dataset,
                               verify_quarter_delay_transform,
                               witness_from_variances)


def random_self_inverse(n, rng):
    """V = L (I (+) -I) L^T for a random orthogonal L: trace-zero, V^2 = I."""
    a = rng.normal(size=(2 * n, 2 * n))
    l, _ = np.linalg.qr(a)
    d = np.diag([1.0] * n + [-1.0] * n)
    return l @ d @ l.T


@pytest.mark.parametrize("size", [2, 4])
def test_nullifier_variances_match_einsum(size):
    config = LatticeConfig(size, size, 1.0)
    state, _ = build_bsl(config)
    phi = phi_transform(state)
    n = config.n_modes
    cases = [(phi, quadrature_nullifiers(ideal_graph(config))),
             (state, exact_nullifiers(state))]
    for st, nulls in cases:
        c = nulls.stacked()
        sigma = covariance(st) + 0.5j * omega(n)
        want = np.einsum("ri,ij,rj->r", c.conj(), sigma, c).real
        got = nullifier_variances(st, nulls)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        vac = 0.5 * np.eye(2 * n) + 0.5j * omega(n)
        want = np.einsum("ri,ij,rj->r", c.conj(), vac, c).real
        got = nullifiers.vacuum_variances(nulls)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@st.composite
def complex_rows(draw):
    """A NullifierSet of 1-4 random complex rows on 1-6 modes."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.complex_numbers(max_magnitude=10, allow_nan=False,
                               allow_infinity=False)
    block = st.lists(entry, min_size=rows * n, max_size=rows * n)
    cq, cp = (np.array(draw(block)).reshape(rows, n) for _ in range(2))
    return NullifierSet(cq, cp)


def dense_variances(state, nulls):
    """Re conj(c)^T (Sigma + i Omega / 2) c per row, from the 2n x 2n form,
    and the size of the terms it sums, sum |c|^2 max |Sigma + i Omega / 2|."""
    form = covariance(state) + 0.5j * omega(state.n_modes)
    c = nulls.stacked()
    terms = (np.abs(c) ** 2).sum(axis=1) * np.abs(form).max()
    return ((c.conj() @ form) * c).sum(axis=1).real, terms


@st.composite
def random_states(draw, n):
    """A random n-mode state: Z = X + iY, Y = A A^T + e I, e in [1e-3, 1]."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x, a = rng.normal(size=(2, n, n))
    y = a @ a.T + draw(st.floats(1e-3, 1.0)) * np.eye(n)
    return GraphState((x + x.T) / 2 + 1j * y, rng.normal(size=2 * n))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nulls=complex_rows())
def test_nullifier_variances_match_the_dense_form(data, nulls):
    state = data.draw(random_states(nulls.n_modes))
    want, terms = dense_variances(state, nulls)
    got = nullifier_variances(state, nulls)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, terms))
    # on the vacuum the form is the closed (I + i Omega) / 2
    got = nullifier_variances(vacuum(nulls.n_modes), nulls)
    scale = (np.abs(nulls.stacked()) ** 2).sum(axis=1)
    want = nullifiers.vacuum_variances(nulls)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, scale))


@settings(max_examples=100, deadline=None)
@given(nulls=complex_rows())
def test_vacuum_variances_match_the_dense_form(nulls):
    assume(not nulls.quadrature_pure())
    want, _ = dense_variances(vacuum(nulls.n_modes), nulls)
    scale = (np.abs(nulls.stacked()) ** 2).sum(axis=1)
    got = nullifiers.vacuum_variances(nulls)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, scale))


def test_vacuum_exact_nullifier_zero_variance():
    st = vacuum(1)
    nulls = exact_nullifiers(st)
    assert np.allclose(nulls.coeff_q, [[-1j]])
    var = nullifier_variances(st, nulls)
    assert np.abs(var).max() <= 1e-12


def test_squeezed_exact_nullifier():
    st = squeezed_vacua([1.0])
    nulls = exact_nullifiers(st)
    assert np.allclose(nulls.coeff_q, [[-1j * np.exp(-2)]])
    assert np.abs(nullifier_variances(st, nulls)).max() <= 1e-12


def test_bsl_exact_nullifiers():
    # the 2n x 2n form has entries near cosh 2r / 2 and cancels to about
    # 1e-10 at r = 8; the factored form reads the exact nullifiers as 0
    for r in (1.0, 4.0, 8.0):
        state, _ = build_bsl(LatticeConfig(2, 2, r))
        var = nullifier_variances(state, exact_nullifiers(state))
        assert np.array_equal(var, np.zeros(16))


def test_phi_transform_vacuum_invariant():
    st = phi_transform(vacuum(2))
    assert np.abs(st.z - 1j * np.eye(2)).max() < 1e-12


def test_phi_transform_pair_eigenvalues():
    # the quarter-delayed cluster pair has graph i L diag(e^2r, e^-2r) L^T
    r = 0.8
    z = 1j / np.cosh(2 * r) * np.eye(2) + np.tanh(2 * r) * np.array([[0., 1.], [1., 0.]])
    out = phi_transform(GraphState(z, np.zeros(4)))
    eig = np.linalg.eigvals(out.z)
    # the real parts are roundoff-sized, so sort on the imaginary parts only
    assert np.abs(eig.real).max() <= 1e-10
    expect = np.exp([-2 * r, 2 * r])
    assert np.abs(np.sort(eig.imag) - expect).max() <= 1e-10


def test_phi_transform_four_times_restores_graph():
    st = squeezed_vacua([0.4, -0.2])
    out = st
    for _ in range(4):
        out = phi_transform(out)
    assert np.abs(out.z - st.z).max() < 1e-10


def test_phi_transform_preserves_symplectic_spectrum():
    state, _ = build_bsl(LatticeConfig(2, 2, 1.0))
    from bslsim.graphstate import omega
    om = omega(state.n_modes)
    def spec(s):
        return np.sort(np.abs(np.linalg.eigvals(covariance(s) @ om).imag))
    assert np.abs(spec(state) - spec(phi_transform(state))).max() < 1e-9


def test_transform_smallest_case():
    rep = verify_quarter_delay_transform(np.diag([1.0, -1.0]), 1.0)
    assert rep["passed"]
    assert rep["max_deviation"] <= 1e-9


def test_transform_random_self_inverse_graphs():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        for _ in range(7):
            v = random_self_inverse(n, rng)
            r = float(rng.uniform(0.4, 1.5))
            rep = verify_quarter_delay_transform(v, r)
            assert rep["passed"], rep
            assert abs(rep["edge_factor"] - 1j * np.cosh(2 * r)) <= 1e-9
            if rep["selfloop_factor"] is not None:
                assert abs(rep["selfloop_factor"] - np.cosh(2 * r) ** 2) <= 1e-6


def test_transform_rejects_traceful_graph():
    with pytest.raises(GraphStateError, match="trace-zero, self-inverse"):
        verify_quarter_delay_transform(np.eye(4), 1.0)


def test_transform_on_bsl_ideal_graph():
    v = ideal_graph(LatticeConfig(2, 2, 1.0))
    assert verify_quarter_delay_transform(v, 1.0)["passed"]


@pytest.mark.parametrize("size", [2, 3])
def test_transform_tolerance_scales_with_squeezing(size, monkeypatch):
    # the self-loop ratios are cosh^2(2r), about 4e4 at r = 3, so their
    # roundoff must be judged against that scale, not an absolute 1e-9
    v = ideal_graph(LatticeConfig(size, size, 1.0))
    for r in (1.0, 3.0, 5.0):
        assert verify_quarter_delay_transform(v, r)["passed"]
    exact = nullifiers.phi_transform

    def perturbed(state):
        out = exact(state)
        return GraphState(out.z * (1 + 1e-6), out.mean)

    monkeypatch.setattr(nullifiers, "phi_transform", perturbed)
    for r in (1.0, 3.0, 5.0):
        assert not verify_quarter_delay_transform(v, r)["passed"]


def test_quadrature_nullifiers_structure():
    v = np.diag([1.0, -1.0])
    nulls = quadrature_nullifiers(v)
    assert nulls.quadrature_pure()
    # (I - V) p block: rows (0, 2 p_2); (I + V) q block: rows (2 q_1, 0)
    assert np.allclose(nulls.coeff_p[0], [0, 0])
    assert np.allclose(nulls.coeff_p[1], [0, 2])
    assert np.allclose(nulls.coeff_q[2], [2, 0])
    assert np.allclose(nulls.coeff_q[3], [0, 0])
    assert np.linalg.matrix_rank(nulls.stacked()) == 2


def test_quadrature_nullifiers_locality_and_rank():
    v = ideal_graph(LatticeConfig(3, 3, 1.0))
    n = v.shape[0]
    nulls = quadrature_nullifiers(v)
    assert np.linalg.matrix_rank(nulls.stacked()) == n
    for j in range(n):
        neighborhood = set(np.nonzero(np.abs(v[j]) > 1e-8)[0]) | {j}
        for block in (nulls.coeff_p[j], nulls.coeff_q[n + j]):
            support = set(np.nonzero(np.abs(block) > 1e-8)[0])
            assert support <= neighborhood
            assert len(support) <= 1 + np.count_nonzero(np.abs(v[j]) > 1e-8)


@pytest.mark.parametrize("size", [(2, 1), (2, 3), (3, 3)])
def test_sparse_involution_check_matches_the_dense_product(size):
    # the check reads V^2 = I from V's nonzeros; it must find the dense
    # product's deviation, for the lattice graph and with one entry moved
    rng = np.random.default_rng(5)
    v = ideal_graph(LatticeConfig(*size, 1.0))
    n = len(v)
    cases = [v, random_self_inverse(3, rng), np.roll(np.eye(5), 1, axis=0)]
    for _ in range(4):
        w = v.copy()
        i, j = rng.integers(n, size=2)
        w[i, j] += rng.normal() * 10.0 ** -rng.integers(3, 9)
        cases.append(w)
    for w in cases:
        dense = np.abs(w @ w - np.eye(len(w))).max()
        assert abs(nullifiers._involution_error(w) - dense) <= 1e-12


def test_quadrature_nullifiers_refuse_a_non_involution():
    v = ideal_graph(LatticeConfig(3, 2, 1.0))
    quadrature_nullifiers(v)
    bent = v.copy()
    i, j = np.argwhere(v != 0)[7]
    bent[i, j] += 1e-5
    cycle = np.roll(np.eye(4), 1, axis=0)       # a permutation with P^2 != I
    missing = np.diag([1.0, 0.0, 1.0])          # row 1 has no nonzero
    for w in (bent, cycle, missing, np.full((2, 2), np.nan)):
        with pytest.raises(GraphStateError, match=r"self-inverse \(V\^2 = I\)"):
            quadrature_nullifiers(w)


def test_quadrature_nullifier_variances_scale():
    v = ideal_graph(LatticeConfig(2, 2, 1.0))
    nulls = quadrature_nullifiers(v)
    var = {}
    for r in (1.0, 1.5, 2.0):
        state, _ = build_bsl(LatticeConfig(2, 2, r))
        var[r] = nullifier_variances(phi_transform(state), nulls)
        # analytic value e^{-2r} (1 pm V_jj) = e^{-2r} for a hollow graph
        assert np.abs(var[r] - np.exp(-2 * r)).max() < 1e-10 * np.exp(-2 * r) + 1e-12
    assert np.abs(var[2.0] / var[1.0] - np.exp(-2.0)).max() < 0.01 * np.exp(-2.0)


def test_witness_thresholds():
    v = ideal_graph(LatticeConfig(2, 2, 1.0))
    nulls = quadrature_nullifiers(v)
    state, _ = build_bsl(LatticeConfig(2, 2, 1.0))
    var = nullifier_variances(phi_transform(state), nulls)
    rep = witness_from_variances(var, nullifiers.vacuum_variances(nulls))
    assert rep.passed
    assert np.allclose(rep.baselines, 1.0)   # (1/2)|c|^2 = 1 for these rows
    vac_var = nullifier_variances(phi_transform(vacuum(16)), nulls)
    assert not witness_from_variances(
        vac_var, nullifiers.vacuum_variances(nulls)).passed
    assert '"passed": true' in rep.to_json()


def test_sampling_seeded_and_vacuum_variance():
    st = vacuum(3)
    a = sample_homodyne_dataset(st, "q", 5000, seed=11)
    b = sample_homodyne_dataset(st, "q", 5000, seed=11)
    assert np.array_equal(a, b)
    var = a.var(axis=0, ddof=1)
    # three-sigma statistical window around 1/2
    sig = 0.5 * np.sqrt(2 / (5000 - 1))
    assert np.abs(var - 0.5).max() < 3 * sig


def test_sample_homodyne_dataset_refuses_a_marginal_without_cholesky(
        monkeypatch):
    st = vacuum(3)

    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(GraphStateError, match="the p marginal covariance"):
        sample_homodyne_dataset(st, "p", 10, seed=1)


def test_sample_csv_round_trips_exactly(tmp_path):
    state, _ = build_bsl(LatticeConfig(2, 2, 1.0))
    path = tmp_path / "q.csv"
    data = sample_homodyne_dataset(phi_transform(state), "q", 2000, seed=4,
                                   path=path)
    assert path.read_text().splitlines()[0] == ",".join(f"mode_{k}" for k in range(16))
    assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), data)


def test_sampled_witness_and_controls(tmp_path):
    r = 1.0
    state, _ = build_bsl(LatticeConfig(2, 2, r))
    phi = phi_transform(state)
    v = ideal_graph(LatticeConfig(2, 2, r))
    nulls = quadrature_nullifiers(v)
    qp = tmp_path / "q.csv"
    pp = tmp_path / "p.csv"
    sample_homodyne_dataset(phi, "q", 100000, seed=5, path=qp)
    sample_homodyne_dataset(phi, "p", 100000, seed=6, path=pp)
    cov, rep = ingest_samples(qp, pp, nulls)
    assert rep.passed
    analytic = nullifier_variances(phi, nulls)
    assert np.abs(rep.variances - analytic).max() / analytic.max() < 0.05

    # negative control: shuffle columns independently to break correlations
    rng = np.random.default_rng(3)
    data_q = np.loadtxt(qp, delimiter=",", skiprows=1)
    for col in range(data_q.shape[1]):
        rng.shuffle(data_q[:, col])
    header = ",".join(f"mode_{k}" for k in range(16))
    np.savetxt(qp, data_q, delimiter=",", header=header, comments="")
    _, rep_bad = ingest_samples(qp, pp, nulls)
    assert not rep_bad.passed


def test_empirical_variances_pick_the_setting_per_row():
    rng = np.random.default_rng(8)
    data_q, data_p = rng.normal(size=(50, 2)), rng.normal(size=(50, 2))
    nulls = quadrature_nullifiers(np.array([[0.0, 1.0], [1.0, 0.0]]))
    expect = [np.var(data_p @ [1.0, -1.0], ddof=1),
              np.var(data_p @ [-1.0, 1.0], ddof=1),
              np.var(data_q @ [1.0, 1.0], ddof=1),
              np.var(data_q @ [1.0, 1.0], ddof=1)]
    assert np.allclose(empirical_variances(data_q, data_p, nulls), expect,
                       rtol=1e-12, atol=0)


def test_empirical_variances_match_the_row_loop():
    rng = np.random.default_rng(21)
    nulls = quadrature_nullifiers(ideal_graph(LatticeConfig(3, 2, 1.0)))
    data_q = rng.normal(size=(400, nulls.n_modes))
    data_p = rng.normal(size=(300, nulls.n_modes))
    loop = np.zeros(nulls.n_rows)
    for k in range(nulls.n_rows):
        if np.any(nulls.coeff_p[k] != 0):
            loop[k] = (data_p @ nulls.coeff_p[k].real).var(ddof=1)
        else:
            loop[k] = (data_q @ nulls.coeff_q[k].real).var(ddof=1)
    got = empirical_variances(data_q, data_p, nulls)
    assert np.all(np.abs(got - loop) <= 1e-12 * loop)


def test_ingest_error_paths(tmp_path):
    v = np.diag([1.0, -1.0])
    nulls = quadrature_nullifiers(v)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises((GraphStateError, ValueError)):
        ingest_samples(empty, empty, nulls)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b\n0.0,0.0\n")
    with pytest.raises(GraphStateError, match="malformed"):
        ingest_samples(bad_header, bad_header, nulls)
    few = tmp_path / "few.csv"
    few.write_text("mode_0,mode_1\n" + "0.1,0.2\n" * 10)
    with pytest.raises(GraphStateError, match="insufficient"):
        ingest_samples(few, few, nulls)
    mixed = NullifierSet(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    ok = tmp_path / "ok.csv"
    ok.write_text("mode_0,mode_1\n" + "0.1,0.2\n" * 200)
    with pytest.raises(GraphStateError, match="quadrature-pure"):
        ingest_samples(ok, ok, mixed)
