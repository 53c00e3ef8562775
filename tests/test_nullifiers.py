"""Nullifier sets, the phase-delay transformation, witnesses and sampling."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bslsim import nullifiers
from bslsim.graphstate import (GraphState, GraphStateError, covariance,
                               omega, squeezed_vacua, vacuum)
from bslsim.lattice import (LatticeConfig, _lattice_state, build_bsl,
                            ideal_graph)
from bslsim.nullifiers import (NullifierSet, empirical_variances,
                               exact_nullifiers, ingest_samples,
                               nullifier_variances, phi_transform,
                               quadrature_nullifiers, sample_homodyne_dataset,
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


def _closed_form_deviation(z, v, r):
    """max |Z - (i cosh 2r I + i sinh 2r V)| relative to cosh 2r: the quarter
    delay of the lattice state's closed form, edges and self-loops alike."""
    expect = 1j * np.cosh(2 * r) * np.eye(len(v)) + 1j * np.sinh(2 * r) * v
    return np.abs(z - expect).max() / np.cosh(2 * r)


def _transform_deviation(v, r):
    return _closed_form_deviation(phi_transform(_lattice_state(v, r)).z, v, r)


def test_transform_smallest_case():
    assert _transform_deviation(np.diag([1.0, -1.0]), 1.0) <= 1e-9


def test_transform_random_self_inverse_graphs():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        for _ in range(7):
            v = random_self_inverse(n, rng)
            r = float(rng.uniform(0.4, 1.5))
            assert _transform_deviation(v, r) <= 1e-9, (n, r)


def test_transform_on_bsl_ideal_graph():
    v = ideal_graph(LatticeConfig(2, 2, 1.0))
    assert _transform_deviation(v, 1.0) <= 1e-9


@pytest.mark.parametrize("size", [2, 3])
def test_transform_tolerance_scales_with_squeezing(size):
    # the entries grow as cosh(2r), about 1.1e4 at r = 5, so their roundoff
    # is judged against that scale, not an absolute 1e-9
    v = ideal_graph(LatticeConfig(size, size, 1.0))
    for r in (1.0, 3.0, 5.0):
        z = phi_transform(_lattice_state(v, r)).z
        assert _closed_form_deviation(z, v, r) <= 1e-9
        assert _closed_form_deviation(z * (1 + 1e-6), v, r) > 1e-9


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


@pytest.mark.parametrize("n_q,n_p", [(1, 50), (50, 1), (1, 1), (0, 50)])
def test_empirical_variances_need_two_shots_per_setting(n_q, n_p):
    nulls = quadrature_nullifiers(np.array([[0.0, 1.0], [1.0, 0.0]]))
    data_q, data_p = np.ones((n_q, 2)), np.ones((n_p, 2))
    with pytest.raises(GraphStateError, match="at least 2 shots in each "
                       f"setting, got {n_q} q and {n_p} p shots"):
        empirical_variances(data_q, data_p, nulls)


def _savetxt_bytes(path, data):
    header = ",".join(f"mode_{j}" for j in range(data.shape[1]))
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
               comments="")
    return path.read_bytes()


def _block_shapes():
    """Shapes on either side of one and two blocks of whole rows."""
    shapes = []
    for n in (1, 3, 16, 17):
        rows = max(1, nullifiers._CSV_BLOCK_ENTRIES // n)
        shapes += [(rows - 1, n), (rows, n), (rows + 1, n), (2 * rows + 1, n)]
    return shapes


#: every power of ten from 1e-5 to 1e17 with the doubles either side (the
#: fixed-notation range of the writer's kernel is [1e-4, 1e16)), and four
#: exact ties that %.17g rounds to even
_DECADE_EDGES = np.concatenate([
    [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    for p in (float(f"1e{e}") for e in range(-5, 18))]
    + [[1000000000000000.25, 1000000000000000.75, 100000000000000.125,
        100000000000000.375]])


@pytest.mark.parametrize("shape", list(dict.fromkeys(
    [(1, 1), (1023, 3), (1024, 16), (1025, 16), (2049, 16), (3000, 1)]
    + _block_shapes())))
def test_csv_writer_matches_savetxt_bytes(tmp_path, shape):
    # both write %.17g of the same doubles; the shapes sit on either side of
    # multiples of the writer's block, and the values cross both ends of its
    # fixed-notation range
    rng = np.random.default_rng(shape[0])
    data = rng.normal(size=shape) * 10.0 ** rng.uniform(-5, 5, size=shape)
    special = [-0.0, 5e-324, 1e308, -1e308, -1e-300, np.inf, np.nan]
    flat = data.reshape(-1)
    k = min(len(special), flat.size)
    flat[np.linspace(0, flat.size - 1, k).astype(int)] = special[:k]
    edges = rng.choice([-1.0, 1.0], _DECADE_EDGES.size) * _DECADE_EDGES
    at = rng.choice(flat.size, min(flat.size, edges.size), replace=False)
    flat[at] = edges[:at.size]
    nullifiers._write_csv(tmp_path / "blocks.csv", data)
    assert ((tmp_path / "blocks.csv").read_bytes()
            == _savetxt_bytes(tmp_path / "savetxt.csv", data))


@pytest.mark.parametrize("n", [1, 3, 16, 17])
def test_csv_writer_matches_savetxt_at_decade_edges_and_ties(tmp_path, n):
    # each edge value with either sign, in every column
    values = np.concatenate([_DECADE_EDGES, -_DECADE_EDGES])
    data = np.resize(values, (values.size // n + n, n))
    nullifiers._write_csv(tmp_path / "edges.csv", data)
    text = (tmp_path / "edges.csv").read_bytes()
    assert text == _savetxt_bytes(tmp_path / "savetxt.csv", data)
    for tie in (b"1000000000000000.2", b"1000000000000000.8",
                b"100000000000000.12", b"100000000000000.38"):
        assert tie in text


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.data())
def test_csv_writer_matches_savetxt_on_any_doubles(tmp_path_factory, rows, n,
                                                    data):
    values = data.draw(st.lists(st.floats(width=64), min_size=rows * n,
                                max_size=rows * n))
    array = np.array(values, dtype=np.float64).reshape(rows, n)
    path = tmp_path_factory.mktemp("csv")
    nullifiers._write_csv(path / "blocks.csv", array)
    assert ((path / "blocks.csv").read_bytes()
            == _savetxt_bytes(path / "savetxt.csv", array))


def test_csv_writer_memory_is_one_block(tmp_path):
    # 200000 x 16 shots are 24 MiB as doubles and 62 MiB as text; writing
    # them holds one block of 2**13 entries, about 1.7 MiB
    data = np.random.default_rng(3).normal(size=(200000, 16))
    tracemalloc.start()
    try:
        nullifiers._write_csv(tmp_path / "big.csv", data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    with open(tmp_path / "big.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 200001


def test_sample_marginal_needs_a_mode(tmp_path):
    # a row of no entries has no CSV line to format
    with pytest.raises(GraphStateError, match="need at least one mode"):
        nullifiers.sample_marginal(np.zeros((0, 0)), 3,
                                   path=tmp_path / "none.csv")
    assert list(tmp_path.iterdir()) == []


def test_sample_marginal_needs_a_shot(tmp_path):
    with pytest.raises(GraphStateError, match="need at least one shot"):
        nullifiers.sample_marginal(np.eye(2), 0, path=tmp_path / "none.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cq,cp", [(np.eye(2), np.eye(3)),
                                   (np.ones(2), np.ones(2)),
                                   (np.eye(2), np.ones((2, 2, 1)))])
def test_nullifier_set_refuses_blocks_of_another_shape(cq, cp):
    with pytest.raises(GraphStateError, match=re.escape("(rows, n) shape")):
        NullifierSet(cq, cp)


def test_ingest_error_paths(tmp_path):
    v = np.diag([1.0, -1.0])
    nulls = quadrature_nullifiers(v)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(GraphStateError, match="malformed"):
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
    good = "mode_0,mode_1\n" + "0.1,0.2\n" * 150
    # the bad row is line 152 of each file, counting the header as line 1
    malformed = {
        "abc.csv": (good + "0.3,abc\n", "line 152: 'abc' is not a number"),
        # float() reads 1_0 as 10, loadtxt refuses it
        "underscore.csv": (good + "0.3,1_0\n",
                           "line 152: '1_0' is not a number"),
        "ragged.csv": (good + "0.3\n", "line 152: expected 2 entries, got 1"),
        "extra-column.csv": (good + "0.3,0.2,0.1\n",
                             "line 152: expected 2 entries, got 3"),
        "latin1.csv": (good.encode() + b"0.3,\xe90.2\n",
                       "line 152: can't decode byte 0xe9 as UTF-8"),
        # past the text decoder's first 8 KiB chunk
        "latin1-late.csv": (good.encode() + b"0.1,0.2\n" * 2850
                            + b"0.3,\xe90.2\n",
                            "line 3002: can't decode byte 0xe9 as UTF-8"),
        "header-only.csv": ("mode_0,mode_1\n\n", "no shots in"),
        "nan.csv": (good + "nan,0.2\n" + good[14:],
                    "line 152: non-finite entry 'nan'"),
        "inf.csv": (good + "0.3,-inf\n", "line 152: non-finite entry '-inf'"),
    }
    # loadtxt warns before it returns an empty body; no warning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        for name, (body, message) in malformed.items():
            path = tmp_path / name
            if isinstance(body, bytes):
                path.write_bytes(body)
            else:
                path.write_text(body)
            with pytest.raises(GraphStateError) as err:
                ingest_samples(ok, path, nulls)
            assert str(path) in str(err.value)
            assert message in str(err.value), name
            assert "usecols" not in str(err.value), name


def test_ingest_names_the_first_faulty_line_in_file_order(tmp_path):
    # each file fits the text decoder's first 8 KiB chunk, so its bad byte
    # fails to decode before loadtxt parses the bad row
    nulls = quadrature_nullifiers(np.diag([1.0, -1.0]))
    ok = tmp_path / "ok.csv"
    ok.write_text("mode_0,mode_1\n" + "0.1,0.2\n" * 200)
    good = b"0.1,0.2\n" * 150
    row, byte = b"0.3,abc\n", b"0.3,\xe90.2\n"
    for name, body, message in (
            ("row-first.csv", row + good + byte, "line 2: 'abc' is not a number"),
            ("byte-first.csv", byte + good + row,
             "line 2: can't decode byte 0xe9 as UTF-8")):
        path = tmp_path / name
        path.write_bytes(b"mode_0,mode_1\n" + body)
        with pytest.raises(GraphStateError, match=re.escape(message)):
            ingest_samples(ok, path, nulls)


# -- the blocked CSV reader ----------------------------------------------------

def _loadtxt_bits(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).view(np.int64)


def _reader_edges(rng):
    """Values at the edges of the reader's cases: each power of ten from
    1e-5 to 1e17 with its neighbours (1e-4 and 1e16 among them) and four
    %.17g ties, doubles next to 2^53 scaled down by powers of ten, doubles
    whose %.17g drops a trailing zero, +-0 and subnormals."""
    near = np.array([2.0 ** 53 + j for j in range(-4, 5)])
    scaled = np.concatenate([near / 10.0 ** k for k in range(0, 20, 3)])
    draws = rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(-4, 12, 4000)
    stripped = [x for x in draws.tolist()
                if len(("%.17g" % x).replace(".", "").lstrip("0")) == 16][:40]
    tiny = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    return np.concatenate([_DECADE_EDGES, scaled, stripped, tiny])


@pytest.mark.parametrize("n", [1, 2, 16, 33])
def test_reader_matches_loadtxt_across_blocks(tmp_path, n):
    # shots of mixed scales with every edge value, in a body of about three
    # blocks, so rows straddle block boundaries; the kernel reads the file
    # itself, bit for bit as np.loadtxt
    rng = np.random.default_rng(n)
    rows = 3 * nullifiers._CSV_BLOCK_BYTES // (20 * n)
    data = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-3, 4, (rows, n))
    edges = _reader_edges(rng)
    flat = data.reshape(-1)
    flat[rng.choice(flat.size, edges.size, replace=False)] = (
        rng.choice([-1.0, 1.0], edges.size) * edges)
    path = tmp_path / "shots.csv"
    nullifiers._write_csv(path, data)
    rows_read = nullifiers._read_rows(path, n)
    assert rows_read is not None
    assert np.array_equal(rows_read.view(np.int64), _loadtxt_bits(path))
    assert np.array_equal(rows_read.view(np.int64), data.view(np.int64))
    assert np.array_equal(nullifiers._load_csv(path, n).view(np.int64),
                          data.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 16, 33]),
       st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(1e-7, 1e17)),
                min_size=1, max_size=60))
def test_reader_matches_loadtxt_on_drawn_doubles(tmp_path_factory, n, values):
    # drawn doubles, either sign, among MIN_SHOTS rows of shots
    rng = np.random.default_rng(len(values))
    data = rng.normal(size=(nullifiers.MIN_SHOTS, n))
    flat = data.reshape(-1)
    k = min(len(values), flat.size)
    flat[:k] = np.array(values[:k]) * rng.choice([-1.0, 1.0], k)
    path = tmp_path_factory.mktemp("csv") / "drawn.csv"
    nullifiers._write_csv(path, data)
    got = nullifiers._load_csv(path, n)
    assert np.array_equal(got.view(np.int64), _loadtxt_bits(path))
    assert np.array_equal(got.view(np.int64), data.view(np.int64))


def test_reader_rounds_hand_written_entries_as_loadtxt(tmp_path):
    # texts the writer does not make, at the edges of the kernel's cases:
    # D = 10^16 at three scales, 16 digits about 2^53, 18 digits, scales
    # past 10^22, long exponents, and entries without a point or digits on
    # one side of it
    texts = ["10000000000000000", "1.0000000000000000",
             "0.10000000000000000", "9007199254740991", "9007199254740992",
             "9007199254740993", "900719925474099.3", "0.12345678901234567",
             "123456789012345678", "12345678901234567e-30", "1.5e+16",
             "2.5e-07", "1e0001", "-0", "0.0", "-0.000", ".5", "5.", "-.5",
             "-1.7976931348623157e308", "4.9406564584124654e-324",
             "7e22", "7e-22", "0.00012345678901234567"]
    # beside a shot in each row, so that fewer than a quarter of the
    # entries take float()
    rows = [f"{text},0.25" for text in texts] * 5
    path = tmp_path / "hand.csv"
    path.write_text("mode_0,mode_1\n" + "\n".join(rows) + "\n")
    got = nullifiers._read_rows(path, 2)
    assert got is not None
    assert np.array_equal(got.view(np.int64), _loadtxt_bits(path))


def test_reader_declines_and_loadtxt_reads_as_before(tmp_path):
    # bytes a _write_csv file never holds: the kernel declines, and the file
    # reads as np.loadtxt read it
    data = np.random.default_rng(5).normal(size=(150, 2))
    data[0, 0] = 0.5
    plain = tmp_path / "plain.csv"
    nullifiers._write_csv(plain, data)
    text = plain.read_bytes()
    head, body = text.split(b"\n", 1)
    accepted = {
        "crlf": text.replace(b"\n", b"\r\n"),
        "cr": text.replace(b"\n", b"\r"),
        "no-final-newline": text[:-1],
        "spaces": head + b"\n" + body.replace(b",", b" , "),
        "plus": head + b"\n+" + body,
        "comment": head + b"\n" + body.replace(b"\n", b"\n# a note\n", 1),
    }
    for name, raw in accepted.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(raw)
        assert nullifiers._read_rows(path, 2) is None, name
        got = nullifiers._load_csv(path, 2)
        assert np.array_equal(got.view(np.int64), data.view(np.int64)), name
    good = "mode_0,mode_1\n" + "0.1,0.2\n" * 150
    refused = {
        "bom": ("﻿" + good, "header '\\ufeffmode_0,mode_1', expected "
                                 "'mode_0,mode_1'"),
        "empty-field": (good + "0.3,\n", "line 152: '' is not a number"),
        "quoted": (good + '0.3,"0.2"\n', "line 152: '\"0.2\"' is not a number"),
        "hex": (good + "0.3,0x1p-3\n", "line 152: '0x1p-3' is not a number"),
        "arabic-digit": (good + "0.3,١\n",
                         "line 152: '١' is not a number"),
        "huge": (good + "0.3,1e999\n", "line 152: non-finite entry '1e999'"),
    }
    for name, (body, message) in refused.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(GraphStateError) as err:
            nullifiers._load_csv(path, 2)
        assert str(err.value) == f"malformed CSV {path}: {message}", name


def test_reader_declines_past_its_first_block(tmp_path):
    # the first unusual byte lies blocks into the file: the whole file is
    # read again from the top, and a faulty line keeps its number
    data = np.random.default_rng(6).normal(size=(20000, 2))
    path = tmp_path / "shots.csv"
    nullifiers._write_csv(path, data)
    text = path.read_bytes()
    assert len(text) > 4 * nullifiers._CSV_BLOCK_BYTES
    late = tmp_path / "late-crlf.csv"
    late.write_bytes(text[:-1] + b"\r\n")
    assert nullifiers._read_rows(late, 2) is None
    got = nullifiers._load_csv(late, 2)
    assert np.array_equal(got.view(np.int64), data.view(np.int64))
    bad = tmp_path / "late-abc.csv"
    bad.write_bytes(text + b"0.3,abc\n")
    with pytest.raises(GraphStateError,
                       match="line 20002: 'abc' is not a number"):
        nullifiers._load_csv(bad, 2)


def test_reader_leaves_files_of_tiny_shots_to_loadtxt(tmp_path):
    # below 1e-6 an entry's scale 10^s passes 10^22 and it takes float();
    # a block where more than a quarter do is declined, as np.loadtxt reads
    # such entries faster
    data = np.random.default_rng(7).normal(size=(2000, 16)) * 1e-6
    path = tmp_path / "tiny.csv"
    nullifiers._write_csv(path, data)
    assert nullifiers._read_rows(path, 16) is None
    got = nullifiers._load_csv(path, 16)
    assert np.array_equal(got.view(np.int64), data.view(np.int64))


def test_reader_memory_is_its_output_and_one_block(tmp_path):
    # 200000 x 16 shots are 25.6 MB as doubles and 62 MiB as text; reading
    # them holds the output and one block's arrays
    data = np.random.default_rng(3).normal(size=(200000, 16))
    path = tmp_path / "big.csv"
    nullifiers._write_csv(path, data)
    tracemalloc.start()
    try:
        got = nullifiers._load_csv(path, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + 4 * 2 ** 20
    assert np.array_equal(got.view(np.int64), data.view(np.int64))
