"""Grid verification of the gate-teleportation identities.

Each verifier builds the left side from circuit primitives (beamsplitters,
controlled-Z, rotated projections on the grid) and the right side from the
closed-form operator products, then reports a fidelity computed up to global
phase.  Ancilla states at finite squeezing r carry their physical Gaussian
envelopes, so the fidelity deficit eps(r) shrinks as r grows.

The circuit steps end in a slice that reads 4 grid lines of a two-mode
state.  ``teleport_step`` computes only those lines, through
``WaveFunction.beamsplitter_slice``; ``mb_teleport_circuit`` computes them
without the two-mode grid, as four length-P chirp-z transforms of psi,
through ``WaveFunction.cz_slice``.  The same circuits built from the
full-grid ``beamsplitter``, ``cz``, ``rotate`` and ``project_q`` are their
test reference.
"""

from __future__ import annotations

import json

import numpy as np

from .graphstate import ProgramError, _fields, _number, _three_numbers
from .mbqc import adapted_sigma, commutation_kick, cubic_kick, cubic_shear
from .oracle import (DEFAULT_L, DEFAULT_P1, DEFAULT_P2, GridError, WaveFunction,
                     check_half_extent, check_points, cubic_weights,
                     fidelity_up_to_phase, q_axis)

#: normalization of the ancilla-consuming map relative to its three-factor
#: closed form: the projection kernel contributes an extra 2**(1/4).
TELEPORT_MAP_NORM = 2.0 ** 0.25


def _as_callable(phi, half_extent, points):
    """Accept a wavefunction or a callable; return (callable, grid samples)."""
    if callable(phi):
        q = q_axis(half_extent, points)
        vec = WaveFunction(np.asarray(phi(q), dtype=complex), half_extent)
        return phi, vec
    if not isinstance(phi, WaveFunction):
        raise GridError("ancilla must be a WaveFunction or a callable")
    if phi.psi.shape != (points,) or phi.half_extent != half_extent:
        raise GridError("ancilla grid does not match the requested grid")

    def interp(s):
        # cubic-smooth states sampled densely: local cubic interpolation
        pts = phi.psi.shape[0]
        dq = 2 * half_extent / pts
        x = np.clip(np.asarray(s) / dq + pts // 2, 1, pts - 3)
        i0 = np.floor(x).astype(int)
        out = np.zeros(np.shape(s), dtype=complex)
        for k, cf in cubic_weights(x - i0):
            out += cf * phi.psi[i0 + k]
        return out

    return interp, phi


def teleport_step(psi: WaveFunction, phi: WaveFunction,
                  m: float) -> WaveFunction:
    """Circuit side: attach ancilla phi, 50:50 beamsplitter, q-slice at m."""
    return psi.beamsplitter_slice(phi, m, np.pi / 4)


def teleport_map(psi: WaveFunction, phi_fun, m: float) -> WaveFunction:
    """Closed form: 2^(1/4) X(-m) S(ln sqrt 2) phi(m sqrt2 - q) |psi>."""
    q = psi.q()
    out = WaveFunction(psi.psi * phi_fun(np.sqrt(2) * m - q), psi.half_extent)
    out = out.squeeze(np.log(np.sqrt(2))).x_shift(-m)
    return WaveFunction(out.psi * TELEPORT_MAP_NORM, psi.half_extent)


def mb_teleport_gate(psi: WaveFunction, theta: float, m: float) -> WaveFunction:
    """Closed form X(-2m sec th) R(-pi/2) S(ln 1/2) P(tan th)."""
    out = psi.shear(np.tan(theta)).squeeze(np.log(0.5)).rotate(-np.pi / 2)
    return out.x_shift(-2 * m / np.cos(theta))


def mb_teleport_circuit(psi: WaveFunction, r: float, theta: float,
                        m: float) -> WaveFunction:
    """Circuit side: p-squeezed ancilla, C_Z(-tanh(2r)/2), p(theta) slice."""
    anc = WaveFunction.squeezed(r, psi.half_extent, psi.psi.shape[0])
    return anc.cz_slice(psi, -np.tanh(2 * r) / 2, theta, m)


def verify_teleport_identity(phi, psi: WaveFunction, m: float) -> dict:
    """Check the single ancilla-teleportation identity for arbitrary phi."""
    points = psi.psi.shape[0]
    phi_fun, phi_vec = _as_callable(phi, psi.half_extent, points)
    norm = phi_vec.norm()
    if not norm > 0:
        raise GridError("ancilla has zero norm on the grid")
    scale = 1.0 / norm
    lhs = teleport_step(psi, phi_vec.normalized(), m)
    rhs = teleport_map(psi, lambda s: scale * phi_fun(s), m)
    fid = fidelity_up_to_phase(lhs, rhs)
    nl, nr = lhs.norm(), rhs.norm()
    return {
        "identity": "E",
        "params": {"m": m},
        "fidelity": fid,
        "norms": [nl, nr],
        "norm_agreement": abs(nl - nr) / max(nr, 1e-300),
        "grid": [psi.half_extent, points],
        "pass": bool(fid >= 1 - 1e-5 and abs(nl - nr) / max(nr, 1e-300) < 1e-4),
    }


def verify_teleport_circuit(theta: float, m: float, r: float, psi_in: WaveFunction) -> dict:
    """Measurement-based teleportation circuit against its closed form."""
    sim = mb_teleport_circuit(psi_in, r, theta, m)
    target = mb_teleport_gate(psi_in, theta, m)
    fid = fidelity_up_to_phase(sim, target)
    # the closed form is an infinite-squeezing statement: 0.999 is the r >= 4
    # claim, smaller r gets the looser finite-squeezing bound
    return {
        "identity": "M",
        "params": {"theta": theta, "m": m, "r": r},
        "fidelity": fid,
        "norms": [sim.norm(), target.norm()],
        "grid": [psi_in.half_extent, psi_in.psi.shape[0]],
        "r": r,
        "pass": bool(fid >= (0.999 if r >= 4 else 0.99)),
    }


def _flat_envelope(_s):
    return 1.0


def _gauss_envelope(r):
    def env(s):
        return (np.pi * np.exp(2 * r)) ** -0.25 * np.exp(-0.5 * np.exp(-2 * r) * s ** 2)
    return env


def _cubic_fun(chi, r):
    env = _gauss_envelope(r)

    def fun(s):
        return np.exp(1j * chi / 3 * s ** 3) * env(s)
    return fun


def cubic_gate_circuit(psi: WaveFunction, r: float, chi: float, sigma: float,
                       m_a: float, m_e: float, m_f: float) -> WaveFunction:
    """Route (i): the full gadget circuit for the cubic measurement device.

    Two ancilla-teleportation gadgets (squeezed envelope, then regularized
    cubic-phase state) followed by the shear-angle teleportation circuit and
    the residual momentum kick t_r (sqrt2 m_a - m_f)/2.
    """
    points = psi.psi.shape[0]
    out = teleport_step(psi, WaveFunction.squeezed(r, psi.half_extent, points), m_a)
    out = teleport_step(
        out, WaveFunction.cubic_phase(chi, r, psi.half_extent, points), m_f)
    out = mb_teleport_circuit(out, r, np.arctan(sigma), m_e)
    t_r = np.tanh(2 * r)
    return out.z_shift(t_r * (np.sqrt(2) * m_a - m_f) / 2)


def cubic_gate_product(psi: WaveFunction, r: float, chi: float, sigma: float,
                       m_a: float, m_e: float, m_f: float,
                       infinite: bool = False) -> WaveFunction:
    """Route (ii): operator product of the two closed-form maps and the
    teleportation gate; `infinite` drops the envelopes and sets t_r = 1."""
    if infinite:
        env = _flat_envelope
        cub = lambda s: np.exp(1j * chi / 3 * s ** 3)
        t_r = 1.0
    else:
        env = _gauss_envelope(r)
        cub = _cubic_fun(chi, r)
        t_r = np.tanh(2 * r)
    out = teleport_map(psi, env, m_a)
    out = teleport_map(out, cub, m_f)
    out = mb_teleport_gate(out, np.arctan(sigma), m_e)
    return out.z_shift(t_r * (np.sqrt(2) * m_a - m_f) / 2)


def cubic_gate_closed(psi: WaveFunction, chi: float, sigma: float,
                      m_a: float, m_e: float, m_f: float) -> WaveFunction:
    """Route (iii): Z(sqrt2 m_a) X(kappa) R(-pi/2) P(tau) K(-2 sqrt2 chi)."""
    tau = cubic_shear(sigma, chi, m_a, m_f)
    kappa = cubic_kick(sigma, chi, m_a, m_e, m_f)
    out = psi.kubic(-2 * np.sqrt(2) * chi).shear(tau).rotate(-np.pi / 2)
    return out.x_shift(kappa).z_shift(np.sqrt(2) * m_a)


#: bound on |value| of each cubic-device parameter, the validated
#: grid-resident range: with the suite's other parameters, sigma 2, s 5 and
#: t 20 pass on a grid of at most 2048 points, while sigma 5, s 10 and t 50
#: fail on every grid scanned, up to 2048 points; chi and outcomes keep the
#: bounds the device was validated at.  Inside the range a case neither
#: overflows nor is refused, but it need not pass on a given grid: at sigma
#: 0.3 and r 4, chi 0.3 with outcomes (1, 1, 1) reads 0.9664 FAIL on
#: (12, 512) and 0.99992 pass on (24, 1024), and chi -0.3 with outcomes
#: (-1, 1, -1) reads 0.9524 FAIL on (12, 512) and still FAILs on (24, 1024)
DEVICE_RANGE = {"chi": 0.3, "sigma": 2.0, "outcomes": 1.0, "s": 5.0, "t": 20.0}


def _check_device_range(**params):
    """Refuse a parameter outside DEVICE_RANGE, naming it, before any grid
    work; a NaN is refused too."""
    for key, value in params.items():
        bound = DEVICE_RANGE[key]
        if not all(abs(v) <= bound for v in np.ravel(value)):
            raise GridError("parameters outside the validated grid-resident "
                            f"range: {key} must be in [-{bound}, {bound}], "
                            f"got {value}")


def verify_cubic_device(chi: float, sigma: float, outcomes, r: float,
                        psi_in: WaveFunction) -> dict:
    """Three-way agreement of the cubic measurement device.

    Compares (i) the gadget circuit, (ii) the operator-product form, and
    (iii) the closed form, pairwise; also checks (ii) against (iii) in the
    infinite-squeezing variant where the envelopes are removed analytically.
    """
    _check_device_range(chi=chi, sigma=sigma, outcomes=outcomes)
    m_a, m_e, m_f = outcomes
    a = cubic_gate_circuit(psi_in, r, chi, sigma, m_a, m_e, m_f)
    b = cubic_gate_product(psi_in, r, chi, sigma, m_a, m_e, m_f)
    c = cubic_gate_closed(psi_in, chi, sigma, m_a, m_e, m_f)
    b_inf = cubic_gate_product(psi_in, r, chi, sigma, m_a, m_e, m_f,
                               infinite=True)
    fids = {
        "circuit_vs_product": fidelity_up_to_phase(a, b),
        "product_vs_closed": fidelity_up_to_phase(b, c),
        "circuit_vs_closed": fidelity_up_to_phase(a, c),
        "exact_product_vs_closed": fidelity_up_to_phase(b_inf, c),
    }
    return {
        "identity": "L",
        "params": {"chi": chi, "sigma": sigma, "outcomes": [m_a, m_e, m_f]},
        "fidelity": min(fids["circuit_vs_product"], fids["product_vs_closed"],
                        fids["circuit_vs_closed"]),
        "fidelities": fids,
        "norms": [a.norm(), b.norm(), c.norm()],
        "grid": [psi_in.half_extent, psi_in.psi.shape[0]],
        "r": r,
        "pass": bool(min(fids.values()) >= (0.999 if r >= 4 else 0.99)
                       and fids["exact_product_vs_closed"] >= 1 - 1e-5),
    }


def verify_commutation(s: float, t: float, chi: float, sigma: float,
                       outcomes, r: float, psi_in: WaveFunction) -> dict:
    """Displacement commutation through the cubic device.

    (a) gate after Z(t) equals X(t) after gate;
    (b) with the shear angle adapted to sigma' = sigma + sqrt2 s chi, the
        gate after X(s) equals Z(-s) X(zeta) after the unadapted gate.
    """
    _check_device_range(s=s, t=t, chi=chi, sigma=sigma, outcomes=outcomes)
    m_a, m_e, m_f = outcomes

    def gate(state, sig):
        return cubic_gate_product(state, r, chi, sig, m_a, m_e, m_f)

    ref = gate(psi_in, sigma)
    lhs_a = gate(psi_in.z_shift(t), sigma)
    fid_a = fidelity_up_to_phase(lhs_a, ref.x_shift(t))

    sig_p = adapted_sigma(sigma, s, chi)
    zeta = commutation_kick(s, sigma, chi, m_e, m_f)
    lhs_b = gate(psi_in.x_shift(s), sig_p)
    fid_b = fidelity_up_to_phase(lhs_b, ref.x_shift(zeta).z_shift(-s))

    # displacement actually produced, read from the means
    mean_ref, _ = ref.normalized().moments()
    mean_lhs, _ = lhs_b.normalized().moments()
    observed = mean_lhs - mean_ref

    return {
        "identity": "commutation",
        "params": {"s": s, "t": t, "chi": chi, "sigma": sigma,
                   "outcomes": list(outcomes)},
        "fidelity": min(fid_a, fid_b),
        "fidelities": {"z_through": fid_a, "x_through_adapted": fid_b},
        "sigma_adapted": sig_p,
        "zeta": zeta,
        "zeta_observed": float(observed[0]),
        "grid": [psi_in.half_extent, psi_in.psi.shape[0]],
        "r": r,
        "pass": bool(min(fid_a, fid_b) >= 0.999),
    }


def default_input(points: int = DEFAULT_P2,
                  half_extent: float = DEFAULT_L) -> WaveFunction:
    """The default probe state: the vacuum displaced by (0.3, -0.2)."""
    return WaveFunction.vacuum(half_extent, points, 0.3, -0.2)


#: largest squeezing r, and envelope squeezing r_env, of an identity case:
#: (pi e^{2r})^{-1/4} overflows from r = 354.9, and although every verdict
#: and fidelity is flat from r = 100 up to there, the circuit norm that an L
#: case reports underflows to 0 from r = 250
R_MAX_IDENTITY = 200.0

#: each kind's case fields and defaults, in its verifier's argument order;
#: an E case runs at its own points, the others at the batch's grid
CASE_FIELDS = {
    "E": {"points": DEFAULT_P1, "chi": 0.1, "r_env": 2.0, "m": 0.0},
    "M": {"theta": 0.0, "m": 0.0, "r": 4.0},
    "L": {"chi": 0.1, "sigma": 0.3, "outcomes": (0.0, 0.0, 0.0), "r": 4.0},
    "commutation": {"s": 0.0, "t": 0.0, "chi": 0.1, "sigma": 0.3,
                    "outcomes": (0.0, 0.0, 0.0), "r": 4.0},
}

#: the M, L and commutation batteries of run_suite, as cases
SUITE_CASES = {
    "M": [{"identity": "M", "theta": np.pi / 6, "m": 0.5, "r": r}
          for r in (2.0, 3.0, 4.0)],
    "L": [{"identity": "L", "chi": 0.2, "sigma": 0.3,
           "outcomes": (0.1, -0.2, 0.4), "r": r} for r in (2.0, 3.0, 4.0)],
    "commutation": [{"identity": "commutation", "s": 0.3, "t": -0.2,
                     "chi": 0.15, "sigma": 0.4, "outcomes": (0.1, -0.2, 0.4),
                     "r": 4.0}],
}

#: the suites run_suite runs: E, each battery of SUITE_CASES, and all
SUITES = ("E", *SUITE_CASES, "all")


def _case_report(case: dict, points: int, half_extent: float) -> dict:
    """Run one case, read by _fields against its kind's CASE_FIELDS; a grid
    outside the oracle's bounds, a key the kind does not read, a malformed
    value, an r or r_env outside (0, R_MAX_IDENTITY], or a device parameter
    outside DEVICE_RANGE (checked by its verifier) raises, naming the key."""
    check_half_extent(half_extent)
    check_points(points)
    if not isinstance(case, dict):
        raise ProgramError(f"case must be an object, got {case!r}")
    kind = case.get("identity")
    if kind not in CASE_FIELDS:
        raise ProgramError(f"unknown identity kind {kind!r}")
    table = CASE_FIELDS[kind]
    values = _fields(case, "case", ("identity",), table, prefix="")[1:]
    args = [_three_numbers(value, key) if key == "outcomes"
            else _number(value, key, type(table[key]))
            for key, value in zip(table, values)]
    for key, value in zip(table, args):
        if key in ("r", "r_env") and not 0 < value <= R_MAX_IDENTITY:
            raise ProgramError(f"squeezing {key} must be in "
                               f"(0, {R_MAX_IDENTITY}], got {value}")
    if kind == "E":
        points, chi, r_env, m = check_points(args[0]), *args[1:]
        phi = WaveFunction.cubic_phase(chi, r_env, half_extent, points)
        return verify_teleport_identity(phi, default_input(points, half_extent), m)
    verify = {"M": verify_teleport_circuit, "L": verify_cubic_device,
              "commutation": verify_commutation}[kind]
    return verify(*args, default_input(points, half_extent))


def run_cases(cases: list, points: int = DEFAULT_P2,
              half_extent: float = DEFAULT_L) -> list[dict]:
    """Batch runner: one report per case dict.

    Case schema: {"identity": "E" | "M" | "L" | "commutation", ...fields},
    the fields of CASE_FIELDS.  Cases run in parallel worker threads (the
    FFT kernels release the GIL); reports are assembled in input order, and
    a case that _case_report refuses or that fails gets an error report
    instead of aborting the batch.  An error report echoes its case with
    non-finite numbers as strings, so the report stays strict JSON.
    """
    from concurrent.futures import ThreadPoolExecutor

    def one(case):
        try:
            return _case_report(case, points, half_extent)
        except (GridError, ValueError, TypeError) as exc:
            params = json.loads(json.dumps(case, default=str),
                                parse_constant=str)
            kind = case.get("identity") if isinstance(case, dict) else None
            return {"identity": kind, "params": params, "error": str(exc),
                    "pass": False}

    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(one, cases))


def run_suite(which: str = "all", points: int = DEFAULT_P2,
              half_extent: float = DEFAULT_L, seed: int = 7) -> list[dict]:
    """Run the default verification battery; returns one report per case.

    E draws seeded ancillas, which a case cannot express; the M, L and
    commutation batteries are SUITE_CASES, run serially by _case_report."""
    if which not in SUITES:
        raise ValueError(f"unknown identity suite {which!r}")
    check_half_extent(half_extent)
    check_points(points)
    reports = []
    if which in ("E", "all"):
        rng = np.random.default_rng(seed)
        psi1 = default_input(DEFAULT_P1, half_extent)
        for k in range(5):
            coef = rng.normal(size=3)
            width = rng.uniform(0.3, 0.6)

            def phi(sv, c=coef, w=width):
                return (c[0] + c[1] * sv + c[2] * sv ** 2) * np.exp(-w * sv ** 2)

            reports.append(verify_teleport_identity(phi, psi1, rng.normal(0, 0.7)))
        reports.append(_case_report({"identity": "E", "m": -0.3}, points,
                                    half_extent))
        reports.append(verify_teleport_identity(
            WaveFunction.squeezed(1.0, half_extent, DEFAULT_P1), psi1, 0.4))
    for name, cases in SUITE_CASES.items():
        if which in (name, "all"):
            reports += [_case_report(case, points, half_extent)
                        for case in cases]
    return reports
