"""Line-restricted teleportation steps against their full-grid references.

teleport_step computes only the 4 grid lines its final q-slice reads,
through WaveFunction.beamsplitter_slice; mb_teleport_circuit never forms the
two-mode grid, through WaveFunction.cz_slice.  The full-grid circuits below,
built from the oracle's beamsplitter, cz, rotate and project_q, are the
references they must reproduce.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bslsim import identities
from bslsim.identities import (default_input, mb_teleport_circuit, run_cases,
                               run_suite, teleport_step)
from bslsim.oracle import (GridError, WaveFunction, _p_diag, _two_mode_phase,
                           beamsplitter_plan, idft_columns, q_axis,
                           slice_window)

HALF = 12.0
POINTS = [64, 256, 1024]


def teleport_step_reference(psi, phi, m):
    """Attach phi, 50:50 beamsplitter and q-slice of mode 1 on the full grid."""
    return psi.product(phi).beamsplitter(np.pi / 4).project_q(1, m)


def mb_teleport_circuit_reference(psi, r, theta, m):
    """p-squeezed ancilla, C_Z(-tanh(2r)/2) and p(theta) slice, full grid."""
    anc = WaveFunction.squeezed(r, psi.half_extent, psi.psi.shape[0])
    big = psi.product(anc).cz(-np.tanh(2 * r) / 2)
    return big.project_p_theta(0, theta, m)


def edge_values(points):
    """The lowest and highest slice values inside the window (exact)."""
    dq = 2 * HALF / points
    return (1 - points // 2) * dq, (points // 2 - 3) * dq


@st.composite
def grid_state(draw, points):
    """A squeezed, a cubic-phase or a random smooth state on the grid."""
    kind = draw(st.sampled_from(["squeezed", "cubic", "smooth"]))
    if kind == "squeezed":
        return WaveFunction.squeezed(draw(st.floats(-1.0, 1.5)), HALF, points)
    if kind == "cubic":
        return WaveFunction.cubic_phase(draw(st.floats(-0.3, 0.3)),
                                        draw(st.floats(0.5, 2.0)), HALF, points)
    coef = draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    width = draw(st.floats(0.3, 0.6))
    shift = draw(st.floats(-1.0, 1.0))
    q = q_axis(HALF, points) - shift
    psi = (coef[0] + coef[1] * q + coef[2] * q * q) * np.exp(-width * q * q)
    return WaveFunction(psi + 1e-3 * np.exp(-q * q), HALF)


@st.composite
def slice_value(draw, points):
    """m anywhere in the window, or at one of its two edges."""
    low, high = edge_values(points)
    return draw(st.one_of(st.sampled_from([low, high]), st.floats(low, high)))


def close(got, want, *factors):
    """Agreement to 1e-12 max|Psi| for Psi the two-mode state the slice
    reads, the product of `factors`: roundoff scales with the whole grid,
    not with the slice, which is tiny near the window edges."""
    scale = np.prod([np.abs(f.psi).max() for f in factors])
    return np.abs(got.psi - want.psi).max() <= 1e-12 * scale


@st.composite
def step_case(draw):
    points = draw(st.sampled_from(POINTS))
    psi = draw(st.one_of(st.just(default_input(points)), grid_state(points)))
    return psi, draw(grid_state(points)), draw(slice_value(points))


@settings(max_examples=40, deadline=None)
@given(step_case())
def test_teleport_step_matches_full_grid(case):
    psi, phi, m = case
    assert close(teleport_step(psi, phi, m), teleport_step_reference(psi, phi, m),
                 psi, phi)


@st.composite
def circuit_case(draw):
    points = draw(st.sampled_from(POINTS))
    psi = draw(st.one_of(st.just(default_input(points)), grid_state(points)))
    # pi/2 takes no shear, and a negative angle takes the parity first
    theta = draw(st.one_of(st.sampled_from([np.pi / 2, np.arctan(-0.3), 0.0]),
                           st.floats(-np.pi, np.pi)))
    return psi, draw(st.floats(0.5, 4.0)), theta, draw(slice_value(points))


@settings(max_examples=40, deadline=None)
@given(circuit_case())
def test_mb_teleport_circuit_matches_full_grid(case):
    psi, r, theta, m = case
    anc = WaveFunction.squeezed(r, HALF, psi.psi.shape[0])
    assert close(mb_teleport_circuit(psi, r, theta, m),
                 mb_teleport_circuit_reference(psi, r, theta, m), psi, anc)


@pytest.mark.parametrize("points", [64, 256])
@pytest.mark.parametrize("theta", [0.4, -2.0, np.pi / 2, -np.pi / 2,
                                   3 * np.pi / 2, np.pi])
def test_cz_slice_matches_full_grid_on_random_vectors(points, theta):
    rng = np.random.default_rng(points)
    a, b = (WaveFunction(rng.normal(size=points) + 1j * rng.normal(size=points),
                         HALF) for _ in range(2))
    for g in (0.9, -0.35):
        for m in (*edge_values(points), 0.3):
            want = a.product(b).cz(g).project_p_theta(1, theta, m)
            assert close(a.cz_slice(b, g, theta, m), want, a, b)


def test_cz_slice_keeps_the_grid_errors():
    psi = default_input(64)
    with pytest.raises(GridError, match="1-mode"):
        psi.cz_slice(psi.product(psi), 0.5, 0.3, 0.0)
    with pytest.raises(GridError, match="half extent"):
        psi.cz_slice(default_input(64, half_extent=10.0), 0.5, 0.3, 0.0)
    with pytest.raises(GridError, match="square grid"):
        psi.cz_slice(default_input(128), 0.5, 0.3, 0.0)


@pytest.mark.parametrize("theta", [np.pi / 2, np.arctan(-0.3), np.arctan(0.3)])
def test_mb_teleport_circuit_matches_full_grid_at_2048_points(theta):
    points, r = 2048, 4.0
    psi = WaveFunction.cubic_phase(0.2, 1.5, HALF, points).x_shift(0.4)
    anc = WaveFunction.squeezed(r, HALF, points)
    rotated = psi.product(anc).cz(-np.tanh(2 * r) / 2).rotate(theta - np.pi / 2, 0)
    for m in (*edge_values(points), 0.3):
        assert close(mb_teleport_circuit(psi, r, theta, m),
                     rotated.project_q(0, m), psi, anc)


def test_mb_teleport_circuit_memory_is_linear_in_the_grid():
    # the two-mode grid of 4096^2 complex values alone takes 256 MiB
    psi = default_input(4096)
    tracemalloc.start()
    try:
        mb_teleport_circuit(psi, 4.0, np.pi / 6, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


#: a batch through every branch of the slice's angle reduction: no shear,
#: parity without and with shears, and the suites' own angles
ROUTE_CASES = [
    {"identity": "M", "theta": np.pi / 6, "m": 0.5, "r": 3.0},
    {"identity": "M", "theta": -2.0, "m": -0.4, "r": 4.0},
    {"identity": "M", "theta": np.arctan(-0.3), "m": 1.0, "r": 2.5},
    {"identity": "M", "theta": 2.5, "m": 0.2, "r": 4.0},
    {"identity": "L", "chi": 0.1, "sigma": 0.0, "outcomes": (0.2, 0.0, -0.1),
     "r": 4.0},
    {"identity": "L", "chi": -0.2, "sigma": -0.4, "outcomes": (0.3, -0.5, 0.1),
     "r": 3.0},
    {"identity": "L", "chi": 0.25, "sigma": 1.5, "outcomes": (-0.1, 0.4, 0.2),
     "r": 4.0},
    {"identity": "commutation", "s": -0.2, "t": 0.3, "chi": 0.1,
     "sigma": -0.3, "outcomes": (0.0, 0.2, -0.2), "r": 4.0},
]


def _route_reports():
    reports = [rep for suite in ("M", "L", "commutation")
               for rep in run_suite(suite, 256)]
    return reports + run_cases(ROUTE_CASES, 256)


def test_suites_and_batches_read_the_same_through_the_full_grid_step(monkeypatch):
    got = _route_reports()
    monkeypatch.setattr(identities, "mb_teleport_circuit",
                        mb_teleport_circuit_reference)
    want = _route_reports()
    assert len(got) == len(want) == 7 + len(ROUTE_CASES)
    for a, b in zip(got, want):
        assert "error" not in a and "error" not in b
        assert a["pass"] == b["pass"]
        assert abs(a["fidelity"] - b["fidelity"]) <= 1e-12
        for key, fid in b.get("fidelities", {}).items():
            assert abs(a["fidelities"][key] - fid) <= 1e-12


def test_project_p_theta_needs_two_modes():
    with pytest.raises(GridError, match="2-mode"):
        default_input(64).project_p_theta(0, 0.3, 0.0)


# quarter turns k = 0..3 of the angle reduction, each with and without shears
SPLIT_ANGLES = [k * np.pi / 2 + d for k in range(-1, 3) for d in (0.0, 0.3)]


@pytest.mark.parametrize("theta", [np.pi / 4, -3 * np.pi / 4, *SPLIT_ANGLES])
def test_beamsplitter_slice_matches_full_grid_at_any_angle(theta):
    psi = default_input(64)
    phi = WaveFunction.cubic_phase(0.2, 1.0, HALF, 64).x_shift(0.4)
    for m in (*edge_values(64), 0.3):
        got = psi.beamsplitter_slice(phi, m, theta)
        want = psi.product(phi).beamsplitter(theta).project_q(1, m)
        assert close(got, want, psi, phi)


@pytest.mark.parametrize("points", POINTS)
def test_last_shear_on_the_read_columns_is_bit_identical(points):
    # the last shear transforms each q_1 column on its own, so running it on
    # the 4 columns the slice reads changes no bit of them
    psi = default_input(points)
    phi = WaveFunction.cubic_phase(0.2, 1.5, HALF, points)
    _, (a, b) = beamsplitter_plan((points, points), np.pi / 4)
    two = psi.product(phi)._shear_between(a, 0)._shear_between(b, 1)
    full = two._shear_between(a, 0).psi
    for m in (*edge_values(points), 0.3):
        i0, _ = slice_window(points, HALF, m)
        at = np.arange(i0 - 1, i0 + 3)
        table = _two_mode_phase(a, HALF, (points, points), 0)
        assert np.array_equal(_p_diag(two.psi[:, at], 0, table[:, at]),
                              full[:, at])


@pytest.mark.parametrize("points", POINTS)
def test_idft_columns_is_the_inverse_fft_at_those_columns(points):
    rng = np.random.default_rng(points)
    work = rng.normal(size=(3, points)) + 1j * rng.normal(size=(3, points))
    at = np.array([0, 1, points // 2, points - 1])
    want = np.fft.ifft(work, axis=-1)[:, at]
    assert np.abs(work @ idft_columns(points, at) - want).max() <= 1e-14


@pytest.mark.parametrize("points", POINTS)
def test_out_of_window_slice_raises_the_projection_error(points):
    psi = default_input(points)
    low, high = edge_values(points)
    dq = 2 * HALF / points
    for m in (low - dq / 2, high + dq / 2, 40.0):
        with pytest.raises(GridError) as want:
            teleport_step_reference(psi, psi, m)
        with pytest.raises(GridError) as got:
            teleport_step(psi, psi, m)
        assert str(got.value) == str(want.value)
        with pytest.raises(GridError) as want:
            mb_teleport_circuit_reference(psi, 2.0, 0.3, m)
        with pytest.raises(GridError) as got:
            mb_teleport_circuit(psi, 2.0, 0.3, m)
        assert str(got.value) == str(want.value)


def test_teleport_step_keeps_the_grid_errors():
    psi = default_input(64)
    with pytest.raises(GridError, match="square grid"):
        teleport_step(psi, default_input(128), 0.0)
    with pytest.raises(GridError, match="half extent"):
        teleport_step(psi, default_input(64, half_extent=10.0), 0.0)
    with pytest.raises(GridError, match="1-mode"):
        teleport_step(psi.product(psi), psi, 0.0)


#: one case of each kind, each run at the batch's grid
GRID_CASES = [{"identity": "E"}, {"identity": "M"}, {"identity": "L"},
              {"identity": "commutation"}]


def test_every_report_carries_the_grid_it_ran_on():
    # E included: the batch's points are the grid of every case and draw
    reports = run_suite("all", 256) + run_cases(GRID_CASES, 256)
    assert len(reports) == 14 + len(GRID_CASES)
    assert all(rep["grid"] == [12.0, 256] for rep in reports), reports


@pytest.mark.parametrize("half", [0.0, -1.0, np.nan, np.inf, 3e-150, 1e300])
def test_every_grid_entry_refuses_a_half_extent_out_of_bounds(half):
    # unchecked, L = 0 aborted a batch with a ZeroDivisionError, and L = -1
    # and 1e300 made numpy warn
    bound = "half extent L must be in [1e-100, 1e+100]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = run_cases(GRID_CASES, 64, half)
        assert len(reports) == len(GRID_CASES)
        for rep in reports:
            assert bound in rep["error"] and rep["pass"] is False
        with pytest.raises(GridError, match=re.escape(bound)):
            run_suite("all", 64, half)
        with pytest.raises(GridError, match=re.escape(bound)):
            WaveFunction(np.ones(64), half)


def test_every_grid_entry_refuses_points_out_of_bounds():
    # the batch's points bind its E cases too
    message = "grid points per mode must be a power of two in [4, 4096], got 100"
    reports = run_cases(GRID_CASES, 100)
    assert [rep["error"] for rep in reports] == [message] * len(GRID_CASES)
    with pytest.raises(GridError, match=re.escape(message)):
        run_suite("E", 100)
