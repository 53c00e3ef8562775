"""Grid wavefunction engine: gate unitarity, cross-engine moments, identities."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslsim.graphstate import (GraphState, apply, covariance, gate_beamsplitter,
                               gate_cz, gate_displacement, gate_rotation,
                               gate_shear, gate_squeeze, squeezed_vacua, vacuum)
from bslsim.identities import (default_input, run_suite, verify_commutation,
                               verify_teleport_identity, verify_cubic_device,
                               verify_teleport_circuit)
from bslsim.mbqc import measure_with_response
from bslsim.oracle import (GridError, WaveFunction, _bluestein, _centred_fft,
                           _p_diag, _shear_table, _two_mode_phase,
                           cubic_weights, fidelity_up_to_phase, p_axis, q_axis)

L, P1, P2 = 12.0, 1024, 512


def test_norm_and_moments_of_displaced_vacuum():
    wf = WaveFunction.vacuum(L, P1, 1.3, -0.7)
    assert abs(wf.norm() - 1) < 1e-12
    mean, cov = wf.moments()
    assert np.allclose(mean, [1.3, -0.7], atol=1e-9)
    assert np.allclose(cov, 0.5 * np.eye(2), atol=1e-9)


def test_rotate_pi_over_2_twice_is_parity():
    wf = WaveFunction.vacuum(L, P1, 1.3, -0.7)
    twice = wf.rotate(np.pi / 2).rotate(np.pi / 2)
    parity = WaveFunction(np.roll(np.flip(wf.psi), 1), L)
    assert np.abs(twice.psi - parity.psi).max() < 1e-8


def test_rotate_composition_includes_phase():
    wf = WaveFunction.vacuum(L, P1, 0.8, 0.4)
    a, b = 0.62, 1.17
    d = wf.rotate(a).rotate(b).psi - wf.rotate(a + b).psi
    assert np.abs(d).max() < 1e-12


def test_squeeze_roundtrip_identity():
    wf = WaveFunction.vacuum(L, P1, 0.4, -0.3)
    back = wf.squeeze(0.6).squeeze(-0.6)
    assert np.abs(back.psi - wf.psi).max() < 1e-7


def test_gate_unitarity():
    wf = WaveFunction.vacuum(L, P1, 0.5, -0.2)
    for out in (wf.rotate(0.9), wf.squeeze(0.5), wf.squeeze(-0.5),
                wf.shear(1.1), wf.kubic(0.2), wf.x_shift(0.7),
                wf.z_shift(-1.2)):
        assert abs(out.norm() - 1) < 1e-7


# -- p-diagonal kernel against the centred composition -------------------------


def _random_grid(rng, shape):
    return WaveFunction(rng.normal(size=shape) + 1j * rng.normal(size=shape), L)


def _along(v, ax, ndim):
    shape = [1] * ndim
    shape[ax] = v.size
    return v.reshape(shape)


def _centred(psi, ax, d):
    """Reference p-diagonal operator: the centred transform of psi times d,
    d on the centred p axis, transformed back."""
    return _centred_fft(_centred_fft(psi, L, ax) * d, L, ax, inverse=True)


def _reference_moments(wf):
    """Means and covariance from q psi and the centred p field, <a|b> = Re vdot."""
    n, psi = wf.n_modes, wf.psi
    fields = [_along(q_axis(L, psi.shape[ax]), ax, n) * psi for ax in range(n)]
    fields += [_centred(psi, ax, _along(p_axis(L, psi.shape[ax]), ax, n))
               for ax in range(n)]
    total = np.vdot(psi, psi).real
    mean = np.array([np.vdot(psi, f).real / total for f in fields])
    centred = [f - m * psi for f, m in zip(fields, mean)]
    cov = np.array([[np.vdot(a, b).real / total for b in centred] for a in centred])
    return mean, cov


def _assert_close(got, ref):
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _moments_full_grid(wf):
    """WaveFunction.moments as it was: one full-grid product per entry."""
    n = wf.n_modes
    rho = (wf.psi.conj() * wf.psi).real
    total = rho.sum()
    mean = np.zeros(2 * n)
    pfield = []
    for ax in range(n):
        mean[ax] = (rho * wf._q_of(ax)).sum() / total
        pfield.append(_p_diag(wf.psi, ax, wf._p_of(ax)))
        mean[n + ax] = (wf.psi.conj() * pfield[ax]).sum().real / total
    cov = np.zeros((2 * n, 2 * n))
    cq = [wf._q_of(ax) - mean[ax] for ax in range(n)]
    cp = [pfield[ax] - mean[n + ax] * wf.psi for ax in range(n)]
    for a in range(n):
        for b in range(n):
            cov[a, b] = (rho * cq[a] * cq[b]).sum() / total
            cov[a, n + b] = (wf.psi.conj() * cq[a] * cp[b]).sum().real / total
            cov[n + b, a] = cov[a, n + b]
            cov[n + a, n + b] = (cp[a].conj() * cp[b]).sum().real / total
    return mean, cov


def test_moments_match_the_full_grid_products():
    rng = np.random.default_rng(12)
    states = [GraphState(np.array([[0.4 + 0.9j]]), np.array([0.7, -0.3])),
              GraphState(np.array([[0.3 + 1.1j, 0.5 + 0.2j],
                                   [0.5 + 0.2j, -0.2 + 0.8j]]),
                         np.array([0.2, -0.6, 0.5, 0.1]))]
    grids = [WaveFunction.from_graphstate(s, L, 256) for s in states]
    grids += [_random_grid(rng, (64,)), _random_grid(rng, (32, 64))]
    for wf in grids:
        mean, cov = wf.moments()
        ref_mean, ref_cov = _moments_full_grid(wf)
        for got, ref in ((mean, ref_mean), (cov, ref_cov)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("points", [8, 64, 256])
def test_p_diagonal_gates_match_centred_composition(points):
    rng = np.random.default_rng(points)
    pv = p_axis(L, points)
    for ndim in (1, 2):
        wf = _random_grid(rng, (points,) * ndim)
        for ax in range(ndim):
            p = _along(pv, ax, ndim)
            _assert_close(wf.x_shift(0.83, ax).psi,
                          _centred(wf.psi, ax, np.exp(-0.83j * p)))
            _assert_close(wf._p_shear(-0.61, ax).psi,
                          _centred(wf.psi, ax, np.exp(0.5j * 0.61 * p * p)))
        mean, cov = wf.moments()
        ref_mean, ref_cov = _reference_moments(wf)
        _assert_close(mean, ref_mean)
        _assert_close(cov, ref_cov)
    qv = q_axis(L, points)
    for lam, ax in ((-0.41, 0), (0.71, 1)):    # wf is the 2-mode grid here
        d = np.exp(1j * lam * _along(pv, ax, 2) * _along(qv, 1 - ax, 2))
        _assert_close(wf._shear_between(lam, ax).psi, _centred(wf.psi, ax, d))


def _bluestein_padded_4p(x, a):
    """Chirp-z sum with the convolution zero-padded to 4P."""
    points = x.shape[-1]
    idx = np.arange(points) - points // 2
    c = np.exp(0.5j * a * idx * idx)
    k = np.arange(-points + 1, points)
    kern = np.exp(-0.5j * a * k * k)
    nfft = 4 * points
    conv = np.fft.ifft(np.fft.fft(x * c, nfft, axis=-1)
                       * np.fft.fft(kern, nfft), axis=-1)
    return c * conv[..., points - 1:2 * points - 1]


@pytest.mark.parametrize("points", [4, 8, 64, 256, 1024])
def test_bluestein_matches_4p_padding(points):
    rng = np.random.default_rng(points)
    rows = 3 if points > 64 else points
    x = rng.normal(size=(rows, points)) + 1j * rng.normal(size=(rows, points))
    for a in (0.37, -1.1, 2 * np.pi / points):
        got, want = _bluestein(x, a), _bluestein_padded_4p(x, a)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # a = 2 pi / P is the centred DFT, which the direct sum reproduces
    idx = np.arange(points) - points // 2
    dft = np.exp(2j * np.pi / points * np.outer(idx, idx))
    assert np.allclose(_bluestein(x, 2 * np.pi / points), x @ dft.T,
                       atol=1e-10 * points)


def test_cubic_weights_interpolate_cubics_exactly():
    w = np.linspace(0.0, 1.0, 7, endpoint=False)
    for coeffs in ([1.0, 0, 0, 0], [0.3, -1.2, 0.5, 2.0]):
        poly = np.polynomial.Polynomial(coeffs)
        got = sum(cf * poly(k) for k, cf in cubic_weights(w))
        assert np.abs(got - poly(w)).max() <= 1e-13


def test_cz_matches_direct_phase_on_non_square_grid():
    wf = _random_grid(np.random.default_rng(5), (64, 8))
    q0, q1 = q_axis(L, 64), q_axis(L, 8)
    ref = wf.psi * np.exp(1j * 0.7 * q0[:, None] * q1[None, :])
    _assert_close(wf.cz(0.7).psi, ref)


def test_two_mode_tables_are_cached_read_only():
    for p_ax in (0, 1):
        table = _two_mode_phase(0.37, L, (64, 32), p_ax)
        assert _two_mode_phase(0.37, L, (64, 32), p_ax) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_threads_that_miss_one_shear_table_build_it_once():
    # the run_cases pool: unlocked, each of 4 threads that miss together
    # builds its own P x P table
    key = (0.123, L, (512, 512), 1)
    barrier = threading.Barrier(4, timeout=60)
    builds = _shear_table.cache_info().misses

    def fetch(_):
        barrier.wait()
        return _two_mode_phase(*key)

    with ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(fetch, range(4)))
    assert _shear_table.cache_info().misses == builds + 1
    assert all(table is tables[0] for table in tables)


# -- unitarity on arbitrary grid vectors ---------------------------------------


@st.composite
def grid_vector(draw, modes=(1, 2)):
    n = draw(st.sampled_from(modes))
    points = draw(st.sampled_from((8, 16, 64, 256) if n == 1 else (8, 16, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    wf = _random_grid(rng, (points,) * n)
    return wf, draw(st.integers(0, n - 1))


@settings(max_examples=80, deadline=None)
@given(grid_vector(), st.floats(-5, 5), st.floats(-10, 10))
def test_single_mode_gates_preserve_norm(sample, s, theta):
    wf, mode = sample
    for out in (wf.z_shift(s, mode), wf.x_shift(s, mode), wf.shear(s, mode),
                wf._p_shear(s, mode), wf.rotate(theta, mode)):
        assert abs(out.norm() / wf.norm() - 1) <= 1e-12
    back = wf.x_shift(s, mode).x_shift(-s, mode)
    assert np.abs(back.psi - wf.psi).max() <= 1e-12 * np.abs(wf.psi).max()


@settings(max_examples=60, deadline=None)
@given(grid_vector(modes=(2,)), st.floats(-3, 3), st.floats(-10, 10))
def test_two_mode_gates_preserve_norm(sample, g, theta):
    wf, _ = sample
    for out in (wf.cz(g), wf.beamsplitter(theta)):
        assert abs(out.norm() / wf.norm() - 1) <= 1e-12


def test_commutation_surrogate_phase():
    # X(s) Z(t) = e^{-i s t} Z(t) X(s)
    wf = WaveFunction.vacuum(L, P1)
    s, t = 0.9, -1.4
    lhs = wf.z_shift(t).x_shift(s)
    rhs = wf.x_shift(s).z_shift(t)
    assert abs(fidelity_up_to_phase(lhs, rhs) - 1) < 1e-9
    phase = np.vdot(rhs.psi, lhs.psi) / np.vdot(wf.psi, wf.psi)
    assert abs(phase - np.exp(-1j * s * t)) < 1e-6


def _random_gaussian_circuit(rng, n):
    ops = []
    for _ in range(rng.integers(3, 7)):
        kind = rng.integers(0, 7 if n == 2 else 5)
        mode = int(rng.integers(n))
        if kind == 0:
            ops.append(("rotate", rng.uniform(-np.pi, np.pi), mode))
        elif kind == 1:
            ops.append(("squeeze", rng.uniform(-0.6, 0.6), mode))
        elif kind == 2:
            ops.append(("shear", rng.uniform(-0.8, 0.8), mode))
        elif kind == 3:
            ops.append(("x_shift", rng.uniform(-1, 1), mode))
        elif kind == 4:
            ops.append(("z_shift", rng.uniform(-1, 1), mode))
        elif kind == 5:
            ops.append(("beamsplitter", rng.uniform(-np.pi, np.pi), None))
        else:
            ops.append(("cz", rng.uniform(-0.8, 0.8), None))
    return ops


def _apply_both(ops, n):
    wf = WaveFunction.vacuum(L, P2 if n == 2 else P1)
    if n == 2:
        wf = wf.product(WaveFunction.vacuum(L, P2))
    gs = vacuum(n)
    for kind, val, mode in ops:
        if kind == "rotate":
            wf = wf.rotate(val, mode)
            gs = apply(gs, gate_rotation(val, mode, n))
        elif kind == "squeeze":
            wf = wf.squeeze(val, mode)
            gs = apply(gs, gate_squeeze(val, mode, n))
        elif kind == "shear":
            wf = wf.shear(val, mode)
            gs = apply(gs, gate_shear(val, mode, n))
        elif kind == "x_shift":
            wf = wf.x_shift(val, mode)
            gs = apply(gs, gate_displacement(val, 0.0, mode, n))
        elif kind == "z_shift":
            wf = wf.z_shift(val, mode)
            gs = apply(gs, gate_displacement(0.0, val, mode, n))
        elif kind == "beamsplitter":
            wf = wf.beamsplitter(val)
            gs = apply(gs, gate_beamsplitter(val, 0, 1, n))
        elif kind == "cz":
            wf = wf.cz(val)
            gs = apply(gs, gate_cz(val, 0, 1, n))
    return wf, gs


def test_cross_engine_single_gates():
    rng = np.random.default_rng(42)
    for kind in ("rotate", "squeeze", "shear", "x_shift", "z_shift"):
        ops = [(kind, float(rng.uniform(-0.8, 0.8)), 0)]
        wf, gs = _apply_both(ops, 1)
        mean, cov = wf.moments()
        assert np.abs(mean - gs.mean).max() < 1e-6
        assert np.abs(cov - covariance(gs)).max() < 1e-6
    for kind in ("beamsplitter", "cz"):
        ops = [(kind, float(rng.uniform(-0.8, 0.8)), None)]
        wf, gs = _apply_both(ops, 2)
        mean, cov = wf.moments()
        assert np.abs(mean - gs.mean).max() < 1e-6
        assert np.abs(cov - covariance(gs)).max() < 1e-6


def test_cross_engine_random_circuits():
    # 30 random Gaussian circuits, <= 6 gates, 1-2 modes
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = 1 + trial % 2
        ops = _random_gaussian_circuit(rng, n)
        wf, gs = _apply_both(ops, n)
        assert abs(wf.norm() - 1) < 1e-6
        mean, cov = wf.moments()
        assert np.abs(mean - gs.mean).max() < 1e-5
        assert np.abs(cov - covariance(gs)).max() < 1e-5


def test_from_graphstate_matches_engine():
    rng = np.random.default_rng(9)
    gs = squeezed_vacua([0.4, -0.3])
    gs = apply(gs, gate_beamsplitter(0.7, 0, 1, 2))
    gs = apply(gs, gate_displacement(0.5, -0.2, 0, 2))
    wf = WaveFunction.from_graphstate(gs, L, 256)
    mean, cov = wf.moments()
    assert np.abs(mean - gs.mean).max() < 1e-7
    assert np.abs(cov - covariance(gs)).max() < 1e-7


def test_project_q_product_state_returns_other_factor():
    a = WaveFunction.vacuum(L, P2, 0.4, 0.1)
    b = WaveFunction.vacuum(L, P2, -0.6, 0.3)
    sliced = a.product(b).project_q(0, 0.2)
    f = fidelity_up_to_phase(sliced, b)
    assert f > 1 - 1e-10


def test_project_q_norm_is_marginal_density():
    a = WaveFunction.vacuum(L, P2, 0.4, 0.1)
    b = WaveFunction.vacuum(L, P2, -0.6, 0.3)
    m = 0.9
    sliced = a.product(b).project_q(0, m)
    # marginal |psi_a(m)|^2 for a displaced vacuum
    density = np.sqrt(1 / np.pi) * np.exp(-(m - 0.4) ** 2)
    assert abs(sliced.norm() ** 2 - density) < 1e-6


def test_pair_slice_shifts_partner_like_gaussian_engine():
    # cluster pair: slicing one mode conditions the other; cross-check the
    # posterior mean against the exact Gaussian conditional update
    r, m = 1.0, 0.8
    z = 1j / np.cosh(2 * r) * np.eye(2) + np.tanh(2 * r) * np.array([[0., 1.], [1., 0.]])
    gs = GraphState(z, np.zeros(4))
    wf = WaveFunction.from_graphstate(gs, L, P2).project_q(0, m).normalized()
    mean, _ = wf.moments()
    post, _ = measure_with_response(gs, 0, 0.0, m)[:2]
    assert np.abs(mean - post.mean).max() < 1e-6
    assert abs(mean[1]) > 0.1    # the partner mean really shifted


def test_fidelity_up_to_phase_basics():
    a = WaveFunction.vacuum(L, P1, 0.3, 0.0)
    assert abs(fidelity_up_to_phase(a, a) - 1) < 1e-12
    b = WaveFunction(np.exp(1j * np.pi / 7) * a.psi, L)
    assert abs(fidelity_up_to_phase(a, b) - 1) < 1e-12
    far = WaveFunction.vacuum(L, P1, -8.0, 0.0)
    assert fidelity_up_to_phase(a, far) < 1e-6


def test_fidelity_up_to_phase_of_tiny_vectors_does_not_underflow():
    # each squared norm is below 1e-390, so unscaled it underflows to 0
    a = WaveFunction.vacuum(L, P1, 0.3, 0.0)
    b = WaveFunction.squeezed(0.4, L, P1).x_shift(0.2)
    want = fidelity_up_to_phase(a, b)
    tiny_a, tiny_b = (WaveFunction(1e-200 * w.psi, L) for w in (a, b))
    assert abs(fidelity_up_to_phase(tiny_a, tiny_b) - want) <= 1e-15
    zero = WaveFunction(np.zeros(P1, dtype=complex), L)
    assert fidelity_up_to_phase(zero, a) == fidelity_up_to_phase(a, zero) == 0.0


@pytest.mark.parametrize("make,message", [
    (lambda: WaveFunction(np.ones((4, 4, 4)), L), "only 1- or 2-mode"),
    (lambda: fidelity_up_to_phase(WaveFunction.vacuum(L, 64),
                                  WaveFunction.vacuum(L, 128)),
     "different grids"),
    (lambda: fidelity_up_to_phase(WaveFunction.vacuum(L, 64),
                                  WaveFunction.vacuum(10.0, 64)),
     "different grids"),
])
def test_grid_refusals(make, message):
    with pytest.raises(GridError, match=message):
        make()


def test_zero_norm_state_has_no_normalization_or_moments():
    zero = WaveFunction(np.zeros(64), L)
    with pytest.raises(GridError, match="zero norm"):
        zero.normalized()
    with pytest.raises(GridError, match="zero norm"):
        zero.moments()


def test_boundary_mass_checks():
    ok, wide = WaveFunction.vacuum(L, P1), WaveFunction.squeezed(3.0, L, P1)
    assert ok.boundary_mass() < 1e-8 < wide.boundary_mass()
    # the mass inside a product state's window is the product of its factors'
    inside = (1 - ok.boundary_mass()) * (1 - wide.boundary_mass())
    assert abs(1 - ok.product(wide).boundary_mass() - inside) < 1e-12
    # an underflowed state is not "fully on the grid"
    with pytest.raises(GridError, match="zero norm"):
        WaveFunction(np.zeros((64, 64)), L).boundary_mass()
    with pytest.raises(GridError, match="outside the grid"):
        WaveFunction.vacuum(L, P2).product(WaveFunction.vacuum(L, P2)).project_q(0, 20.0)


# -- identity batteries ------------------------------------------------------


def test_teleport_identity_gaussian_ancilla():
    psi = WaveFunction.vacuum(L, P1, 0.5, -0.3)
    rep = verify_teleport_identity(WaveFunction.squeezed(1.0, L, P1), psi, 0.4)
    assert rep["pass"]
    assert rep["fidelity"] >= 1 - 1e-5
    assert rep["norm_agreement"] < 1e-4


def test_teleport_identity_cubic_ancilla():
    psi = WaveFunction.vacuum(L, P1)
    rep = verify_teleport_identity(WaveFunction.cubic_phase(0.1, 2.0, L, P1), psi, -0.3)
    assert rep["pass"]


def test_teleport_identity_refuses_a_zero_ancilla():
    psi = WaveFunction.vacuum(L, P1)
    with pytest.raises(GridError, match="zero norm"):
        verify_teleport_identity(lambda s: 0.0 * s, psi, 0.1)


def test_teleport_identity_zero_outcome_closed_gaussian():
    # phi = vacuum, m = 0: the map reduces to 2^(1/4) S(ln sqrt2) applied to
    # the Gaussian-envelope product; the output of vacuum input is the
    # analytic Gaussian pi^(-1/2) exp(-q^2 / 2)
    psi = WaveFunction.vacuum(L, P1)
    from bslsim.identities import teleport_step
    lhs = teleport_step(psi, WaveFunction.vacuum(L, P1), 0.0)
    q = lhs.q()
    target = WaveFunction((1 / np.sqrt(np.pi)) * np.exp(-0.5 * q ** 2), L)
    assert np.abs(lhs.psi - target.psi).max() < 1e-6


def test_teleport_identity_random_nongaussian_ancillas():
    rng = np.random.default_rng(17)
    psi = WaveFunction.vacuum(L, P1, 0.2, 0.1)
    for _ in range(5):
        coef = rng.normal(size=3)
        width = rng.uniform(0.3, 0.6)

        def phi(s, c=coef, w=width):
            return (c[0] + c[1] * s + c[2] * s * s) * np.exp(-w * s ** 2)

        rep = verify_teleport_identity(phi, psi, float(rng.normal(0, 0.7)))
        assert rep["fidelity"] >= 1 - 1e-5
        assert rep["norm_agreement"] < 1e-4


def test_teleport_circuit_zero_angle_moments():
    # theta = 0, m = 0, vacuum input: output is R(-pi/2) S(ln 1/2) |0>;
    # oracle: transport the vacuum covariance through those gates
    rep = verify_teleport_circuit(0.0, 0.0, 4.0, WaveFunction.vacuum(L, P2))
    assert rep["pass"]
    from bslsim.identities import mb_teleport_circuit
    out = mb_teleport_circuit(WaveFunction.vacuum(L, P2), 4.0, 0.0, 0.0)
    mean, cov = out.normalized().moments()
    gs = apply(vacuum(1), gate_squeeze(np.log(0.5), 0, 1))
    gs = apply(gs, gate_rotation(-np.pi / 2, 0, 1))
    # O(e^{-2r}) finite-squeezing allowance at r = 4
    assert np.abs(cov - covariance(gs)).max() < 1e-2


def test_teleport_circuit_fidelity_and_convergence():
    psi = WaveFunction.vacuum(L, P2, 0.6, -0.4)
    eps = []
    for r in (2.0, 3.0, 4.0):
        rep = verify_teleport_circuit(np.pi / 6, 0.5, r, psi)
        eps.append(1 - rep["fidelity"])
    assert 1 - eps[-1] >= 0.999
    assert eps[0] > eps[1] > eps[2]


def test_cubic_device_chi_zero_matches_gaussian_composition():
    from bslsim.identities import cubic_gate_product
    from bslsim.mbqc import cubic_kick, cubic_shear
    sigma, m_a, m_e, m_f = 0.3, 0.1, -0.2, 0.4
    psi = WaveFunction.vacuum(L, P2, 0.3, -0.2)
    out = cubic_gate_product(psi, 6.0, 0.0, sigma, m_a, m_e, m_f)
    mean, cov = out.normalized().moments()
    gs = GraphState(np.array([[1j]]), np.array([0.3, -0.2]))
    gs = apply(gs, gate_shear(cubic_shear(sigma, 0.0, m_a, m_f), 0, 1))
    gs = apply(gs, gate_rotation(-np.pi / 2, 0, 1))
    gs = apply(gs, gate_displacement(cubic_kick(sigma, 0.0, m_a, m_e, m_f),
                                     np.sqrt(2) * m_a, 0, 1))
    assert np.abs(mean - gs.mean).max() < 1e-4
    assert np.abs(cov - covariance(gs)).max() < 1e-4


def test_cubic_device_three_way_agreement():
    psi = WaveFunction.vacuum(L, P2, 0.3, -0.2)
    eps = []
    for r in (2.0, 3.0, 4.0):
        rep = verify_cubic_device(0.2, 0.3, (0.1, -0.2, 0.4), r, psi)
        assert rep["pass"]
        assert rep["fidelities"]["exact_product_vs_closed"] >= 1 - 1e-5
        eps.append(1 - rep["fidelity"])
    assert eps[0] > eps[1] > eps[2]
    assert 1 - eps[-1] >= 0.999


def test_cubic_device_passes_at_the_case_squeezing_limit():
    # every state of the circuit is below 1e-87 in norm at r = 200
    psi = WaveFunction.vacuum(L, P2, 0.3, -0.2)
    rep = verify_cubic_device(0.2, 0.3, (0.1, -0.2, 0.4), 200.0, psi)
    assert rep["pass"] and min(rep["fidelities"].values()) >= 0.999


def test_cubic_device_zero_outcomes_parameters():
    from bslsim.mbqc import cubic_kick, cubic_shear
    assert cubic_shear(0.3, 0.2, 0.0, 0.0) == pytest.approx(4 * 0.3)
    assert cubic_kick(0.3, 0.2, 0.0, 0.0, 0.0) == 0.0
    # spec-fixture arithmetic: tau at chi=0.2, sigma=0.3, m_a=0.1, m_f=0.4
    tau = cubic_shear(0.3, 0.2, 0.1, 0.4)
    assert tau == pytest.approx(4 * 0.3 + 4 * 0.2 * (0.1 + np.sqrt(2) * 0.4))


def test_cubic_device_rejects_out_of_range():
    psi = WaveFunction.vacuum(L, P2)
    with pytest.raises(GridError, match="range"):
        verify_cubic_device(5.0, 0.3, (0.1, -0.2, 0.4), 4.0, psi)


@pytest.mark.parametrize("field,value", [
    ("s", 1e300), ("t", -1e300), ("chi", 5.0), ("sigma", 1e300),
    ("sigma", float("nan")), ("outcomes", (0.1, 5.0, 0.4))])
def test_both_device_verifiers_share_the_range_check(field, value):
    # a direct library call is refused before any grid work, naming the field
    psi = WaveFunction.vacuum(L, P2, 0.3, -0.2)
    args = {"s": 0.3, "t": -0.2, "chi": 0.15, "sigma": 0.4,
            "outcomes": (0.1, -0.2, 0.4), field: value}
    with pytest.raises(GridError, match=f"range: {field} must be in "):
        verify_commutation(*args.values(), 4.0, psi)
    if field not in ("s", "t"):
        with pytest.raises(GridError, match=f"range: {field} must be in "):
            verify_cubic_device(args["chi"], args["sigma"], args["outcomes"],
                                4.0, psi)


def test_commutation_cases():
    psi = WaveFunction.vacuum(L, P2, 0.3, -0.2)
    rep = verify_commutation(0.0, -0.4, 0.2, 0.3, (0.1, -0.2, 0.4), 4.0, psi)
    assert rep["pass"] and rep["zeta"] == 0.0
    rep = verify_commutation(0.3, 0.0, 0.0, 0.4, (0.1, -0.2, 0.4), 4.0, psi)
    assert rep["zeta"] == pytest.approx(4 * 0.3 * 0.4)
    assert rep["sigma_adapted"] == pytest.approx(0.4)
    rep = verify_commutation(0.3, -0.2, 0.15, 0.4, (0.1, -0.2, 0.4), 4.0, psi)
    assert rep["pass"]
    assert rep["fidelity"] >= 0.999
    assert abs(rep["zeta_observed"] - rep["zeta"]) < 5e-3


@pytest.mark.parametrize("suite,direct", [
    ("M", lambda psi: [verify_teleport_circuit(np.pi / 6, 0.5, r, psi)
                       for r in (2.0, 3.0, 4.0)]),
    ("L", lambda psi: [verify_cubic_device(0.2, 0.3, (0.1, -0.2, 0.4), r, psi)
                       for r in (2.0, 3.0, 4.0)]),
    ("commutation", lambda psi: [verify_commutation(
        0.3, -0.2, 0.15, 0.4, (0.1, -0.2, 0.4), 4.0, psi)]),
], ids=["M", "L", "commutation"])
def test_case_batteries_are_the_direct_verifier_calls(suite, direct):
    # the batteries run as case dicts through the case reader; every report
    # field, each fidelity bit for bit, is that of the direct call
    assert run_suite(suite, 256) == direct(default_input(256))


def test_e_battery_cubic_case_is_the_direct_call():
    psi = default_input(1024)
    want = verify_teleport_identity(WaveFunction.cubic_phase(0.1, 2.0, L, 1024),
                                    psi, -0.3)
    assert run_suite("E", 256)[5] == want


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown identity suite 'X'"):
        run_suite("X")
