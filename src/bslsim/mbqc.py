"""Homodyne measurement on graph states and the macronode gate protocols.

Measuring the rotated quadrature q(theta) = q cos(theta) - p sin(theta) is
R(theta) followed by a projection onto a position eigenstate; the
momentum-type quadrature p(theta) equals q(theta - pi/2).  The rotation is
never applied as a gate: in the graphical calculus for Gaussian pure states
(Menicucci, Flammia & van Loock, PRA 83, 042335, 2011) it is a rank-1
update of the surviving graph.  Conditioning a pure Gaussian state on
q_k = m keeps the state pure: the graph loses row and column k and the
linear coefficient c = mu_p - Z mu_q gains m Z_{.,k}.

One private runner, _run_steps, carries Z and one block [c | W] through a
list of steps, W the outcome Jacobian in c-coordinates, and reads the state
with one solve and one checked GraphState at the end.  run_program,
simulate_single_mode_gate, measure_with_response and decouple_wires are all
runs of it.

The macronode protocols follow the slot convention of lattice.canonical_wire:
a site's physical modes are alpha = mode 2k, beta = 2k+1, obtained from the
symmetric/antisymmetric slots by a 50:50 beamsplitter, the logical input
rides the "+" slot, and detectors measure p(theta1) at alpha and p(theta2)
at beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphstate import (GraphState, GraphStateError, ProgramError,
                         SymplecticGate, _check_cond, _fields, _number,
                         _three_numbers, balanced_mix, gate_beamsplitter)
from .lattice import (LatticeConfig, MacronodeLattice, _lattice_state,
                      canonical_wire, ideal_graph)


@dataclass(frozen=True)
class MeasurementEvent:
    mode: int
    theta: float
    outcome: float


@dataclass
class MeasurementRecord:
    """Ordered homodyne events plus the accumulated displacement frame."""

    events: list = field(default_factory=list)
    frame: tuple = (0.0, 0.0)
    adaptations: list = field(default_factory=list)
    _measured: set = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._measured = {e.mode for e in self.events}

    def add(self, mode: int, theta: float, outcome: float):
        if mode in self._measured:
            raise ProgramError(f"mode {mode} was already measured")
        self._measured.add(mode)
        self.events.append(MeasurementEvent(mode, theta, outcome))

    def to_dict(self) -> dict:
        return {
            "events": [{"mode": e.mode, "theta": e.theta, "outcome": e.outcome}
                       for e in self.events],
            "frame": list(self.frame),
            "adaptations": self.adaptations,
        }


# -- measurement ---------------------------------------------------------------


def _rng_of(rng):
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    return rng


def _rotation_cond(z: np.ndarray, mode: int, theta: float) -> float:
    """cond(A + B Z) of R(theta) on one mode in closed form, in O(n).

    A + B Z is the identity outside row k, which holds piv = cos - sin Z_kk
    on the diagonal and -sin Z[k, rest] elsewhere.  A unitary change of the
    other modes' basis leaves [[piv, x], [0, 1]] with x = |sin| |Z[k, rest]|,
    plus singular values of 1 that cannot set the cond, as the matrix and its
    inverse both hold identity rows.  The block's singular values have
    squared sum F = |piv|^2 + x^2 + 1 and product |piv|, so the cond is
    (F + sqrt(F^2 - 4 |piv|^2)) / (2 |piv|).  F^2 - 4 |piv|^2 is taken as
    ((|piv| - 1)^2 + x^2)((|piv| + 1)^2 + x^2), which stays accurate near
    cond 1.  One mode leaves the 1 x 1 matrix [piv], of cond 1.
    """
    if len(z) == 1:
        return 1.0
    cos, sin = np.cos(theta), np.sin(theta)
    a = abs(cos - sin * z[mode, mode])
    row = z[mode].copy()
    row[mode] = 0.0
    x2 = sin * sin * np.vdot(row, row).real
    disc = np.sqrt(((a - 1) ** 2 + x2) * ((a + 1) ** 2 + x2))
    return (a * a + x2 + 1 + disc) / (2 * a)


def _to_c(z: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns (mu_q; mu_p) of a mean and its Jacobian as mu_p - Z mu_q."""
    n = len(z)
    return cols[n:] - z @ cols[:n]


def _from_c(z: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Each column c of a block as (mu_q; mu_p), with one solve against Im Z:
    mu_q = -(Im Z)^-1 Im c and mu_p = Re c + Re Z mu_q."""
    q = -np.linalg.solve(z.imag, block.imag)
    return np.concatenate([q, block.real + z.real @ q])


def _measure_step(z: np.ndarray, block: np.ndarray, mode: int, theta: float,
                  outcome, rng):
    """Measure q(theta) on one mode in c-coordinates; (z', block', outcome).

    block (n x (1 + j), complex) is [c | W]: column 0 is the state's linear
    coefficient c = mu_p - Z mu_q, each later column its sensitivity to one
    earlier outcome.  Measuring q(theta) is R(theta) on mode k, then the
    projection q_k = m.  The rotated state is never formed: with
    piv = cos - sin Z_kk the rotation's A + B Z = M is the identity outside
    row k, so the rotated Z[rest, k] is g = Z_rk / piv and the graph of the
    surviving modes is the rank-1 update Z_rr + (sin / piv) Z_rk Z_kr (node
    deletion in the graphical calculus).  Every column x maps to M^-T x,
    which adds sin g x_k to the surviving rows, and the projection adds m g
    to column 0 and appends g as a column.  A forced outcome needs no solve.
    A drawn one takes the marginal of q_k from one solve against Y' = Im Z'
    with the two columns [Im g, Im c_r], c_r the rotated c: the Schur
    complement s = Y_kk - Im g^T Y'^-1 Im g of the rotated Y = Im Z gives
    the variance 1 / (2 s) and the mean
    -(Im(c_k / piv) - Im g^T Y'^-1 Im c_r) / s, and rng, resolved once per
    run, draws it.
    """
    _check_cond(_rotation_cond(z, mode, theta))
    cos, sin = np.cos(theta), np.sin(theta)
    piv = cos - sin * z[mode, mode]
    rest = np.arange(len(z) - 1)     # every mode but `mode`
    rest[mode:] += 1
    zrk = z[rest, mode]
    # outer(v, v) may round its mirror entries differently (fused
    # multiply-add), so the update is symmetrized to keep Z' symmetric
    upd = zrk[:, None] * zrk
    zr = z.take(rest, 0).take(rest, 1) + (sin / (2 * piv)) * (upd + upd.T)
    g = zrk / piv
    cr = block[rest] + (sin * block[mode]) * g[:, None]
    if outcome is None:
        y_kk = ((sin + cos * z[mode, mode]) / piv).imag
        a, b = np.linalg.solve(zr.imag, np.stack([g, cr[:, 0]], 1).imag).T
        schur = y_kk - g.imag @ a
        mu = -((block[mode, 0] / piv).imag - g.imag @ b) / schur
        outcome = float(rng.normal(mu, np.sqrt(0.5 / schur)))
    if not np.isfinite(outcome):
        raise GraphStateError("measurement outcome must be finite")
    cr[:, 0] += outcome * g
    if not np.isfinite(cr[:, 0]).all():
        raise GraphStateError("mean must be finite")
    return zr, np.column_stack([cr, g]), float(outcome)


def measure_with_response(state: GraphState, mode: int, theta: float,
                          outcome: float | None = None, rng=None, jac=None):
    """Measure q(theta) on one mode, carrying the outcome Jacobian through.

    The outcome is drawn from the exact Gaussian marginal unless supplied.
    jac holds one column per earlier outcome, the sensitivity of state.mean
    to it (2n x j; None means no columns).  A one-step run: returns
    (posterior, outcome, jac') with jac' of shape (2n - 2) x (j + 1), the
    carried columns, then the response to the outcome.
    """
    if not 0 <= mode < state.n_modes:
        raise GraphStateError(f"mode {mode} out of range")
    run = _run_steps(state, [(mode, theta, outcome)], None, rng, jac)
    return run.state, run.record.events[0].outcome, run.outcome_jacobian


# -- wire decoupling -------------------------------------------------------------


def decouple_wires(state: GraphState, lattice: MacronodeLattice,
                   rng=None) -> ProgramResult:
    """Measure bc macronodes at q((-1)^xi pi/4) to sever the wire rows.

    Deleting every complete bc site severs all rows.  A run of _run_steps,
    b then c at each site.
    """
    steps = [(lattice.mode_at(tau, det), lattice.deletion_angle(tau), None)
             for tau in lattice.bc_sites() for det in ("b", "c")]
    return _run_steps(state, steps, None, rng)


# -- single-mode macronode gate ----------------------------------------------------


def _v_symplectic(theta1: float, theta2: float) -> np.ndarray:
    """Heisenberg matrix R(th+) diag(tan th-, cot th-) R(th+).

    Valid whenever sin(theta1 - theta2) != 0; negative tan(th-) continues the
    squeeze through a parity flip, which the two-mode gate tables require.
    """
    if abs(np.sin(theta1 - theta2)) < 1e-12:
        raise GraphStateError(
            "singular angle pair: sin(theta1 - theta2) must not vanish")
    tp, tm = (theta1 + theta2) / 2, (theta1 - theta2) / 2
    t = np.tan(tm)
    c, s = np.cos(tp), np.sin(tp)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([t, 1 / t]) @ rot


def v_gate_displacement(theta1: float, theta2: float, m1: float, m2: float):
    """(dq, dp) of D[(-i e^{i th2} m1 - i e^{i th1} m2) / sin(th1 - th2)]."""
    alpha = (-1j * np.exp(1j * theta2) * m1 - 1j * np.exp(1j * theta1) * m2) \
        / np.sin(theta1 - theta2)
    return np.sqrt(2) * alpha.real, np.sqrt(2) * alpha.imag


def v_gate(theta1: float, theta2: float, m1: float = 0.0,
           m2: float = 0.0) -> SymplecticGate:
    """Single-mode gate of one macronode step: D[..] R(th+) S(ln tan th-) R(th+).

    Restricted to tan(th-) > 0, where ln tan(th-) is real.
    """
    s = _v_symplectic(theta1, theta2)
    tm = (theta1 - theta2) / 2
    if np.tan(tm) <= 0:
        raise GraphStateError(
            f"tan(theta_minus) = {np.tan(tm):.4f} <= 0: the squeezing "
            "parameter ln tan(theta_minus) is not real on this branch")
    dq, dp = v_gate_displacement(theta1, theta2, m1, m2)
    return SymplecticGate(s, np.array([dq, dp]))


def simulate_single_mode_gate(input_state: GraphState, theta_d: float,
                              theta_a: float, r: float = 6.0,
                              outcomes=None, rng=None):
    """One macronode step on a decoupled wire at squeezing r.

    Measures p(theta_d) at the head's alpha mode and p(theta_a) at beta;
    returns (output 1-mode state, record).  The output matches
    v_gate(theta_d, theta_a, m1, m2) applied to the input up to O(e^{-2r}).
    """
    m1, m2 = (None, None) if outcomes is None else outcomes
    # p(theta) = q(theta - pi/2), at alpha (mode 0), then at beta (mode 1)
    steps = [(0, theta_d - np.pi / 2, m1), (1, theta_a - np.pi / 2, m2)]
    run = _run_steps(canonical_wire(2, r, input_state), steps, r, rng)
    # undo the site-1 slot beamsplitter B(pi/4), whose inverse mixes the
    # rows in swapped order; the "-" slot is an unentangled tail
    z, mean = run.state.z.copy(), run.state.mean.copy()
    for part in (z, z.T, mean[:2], mean[2:]):
        balanced_mix(part, 1, 0)
    if abs(z[0, 1]) > 1e-8:
        raise GraphStateError(
            f"wire tail stayed entangled (|Z_01| = {abs(z[0, 1]):.3e})")
    out = GraphState(z[:1, :1], mean[::2])
    run.record.frame = v_gate_displacement(
        theta_d, theta_a, *(e.outcome for e in run.record.events))
    return out, run.record


# -- two-mode macronode gate ---------------------------------------------------------


def cz_gate_angles(phi: float, k: int = 0):
    """Homodyne angle table implementing R (x) R followed by C_Z(2 cot phi)."""
    s = (-1) ** k
    return (-s * np.pi / 8, s * 3 * np.pi / 8,
            s * np.pi / 4 + phi, s * np.pi / 4 - phi,
            -s * np.pi / 8, s * 3 * np.pi / 8)


def two_mode_gate(angles, outcomes=None, k: int = 0) -> SymplecticGate:
    """Gate on two neighboring wires from measuring macronodes 2, 3 and 4.

    angles = (th2a, th2b, th3a, th3b, th4a, th4b); outcomes =
    (m1b, m2a, m2b, m3a, m3b, m4a, m4b, m5a) with zeros by default.  The
    composite is B . V(x)V . B . V(x)V in operator order, with the fixed
    angles (-1)^k pi/4 entering the middle factors.
    """
    th2a, th2b, th3a, th3b, th4a, th4b = angles
    if outcomes is None:
        outcomes = (0.0,) * 8
    m1b, m2a, m2b, m3a, m3b, m4a, m4b, m5a = outcomes
    fixed = ((-1) ** k) * np.pi / 4

    def vfactor(t1, t2, u1, u2, mode):
        return SymplecticGate(_v_symplectic(t1, t2),
                              v_gate_displacement(t1, t2, u1, u2),
                              modes=(mode,), n_modes=2)

    bs = gate_beamsplitter(np.pi / 4, 0, 1, 2)
    gate = vfactor(th2a, th2b, m2a, m2b, 0)
    gate = gate.then(vfactor(th4a, th4b, m4a, m4b, 1))
    gate = gate.then(bs)
    gate = gate.then(vfactor(fixed, th3a, m1b, m3a, 0))
    gate = gate.then(vfactor(th3b, fixed, m3b, m5a, 1))
    return gate.then(bs)


# -- feedforward -----------------------------------------------------------------


def adapted_sigma(sigma: float, s: float, chi: float) -> float:
    """Shear setting that pre-compensates an incoming q displacement s."""
    return sigma + np.sqrt(2) * s * chi


def cubic_shear(sigma: float, chi: float, m_a: float, m_f: float) -> float:
    """Residual shear of the cubic device: 4 sigma + 4 chi (m_a + sqrt2 m_f)."""
    return 4 * sigma + 4 * chi * (m_a + np.sqrt(2) * m_f)


def cubic_kick(sigma: float, chi: float, m_a: float, m_e: float,
               m_f: float) -> float:
    """Residual q displacement of the cubic device."""
    return (-2 * m_e * np.sqrt(1 + sigma ** 2)
            - 2 * sigma * (np.sqrt(2) * m_a + m_f)
            - np.sqrt(2) * chi * (m_a + np.sqrt(2) * m_f) ** 2)


def commutation_kick(s: float, sigma: float, chi: float, m_e: float,
                     m_f: float) -> float:
    """q displacement generated by pushing X(s) through the adapted device."""
    sp = adapted_sigma(sigma, s, chi)
    return (4 * s * sigma + 2 * np.sqrt(2) * s * chi * (m_f + s)
            - 2 * m_e * (np.sqrt(1 + sp ** 2) - np.sqrt(1 + sigma ** 2)))


def feedforward(record: MeasurementRecord, gate_kind: str, params) -> dict:
    """Push the accumulated displacement frame through one more gate.

    gate_kind "gaussian": params is a single-mode SymplecticGate; the frame
    transforms by its matrix (displacements form a normal subgroup).
    gate_kind "cubic": params = {"chi", "sigma", "outcomes": (m_a, m_e, m_f)};
    the device is run with the adapted shear sigma' and the frame picks up
    the exact kick: (s, t) -> (zeta + t, -s).
    """
    s, t = record.frame
    if gate_kind == "gaussian":
        if not isinstance(params, SymplecticGate) or params.n_modes != 1:
            raise ProgramError("gaussian feedforward needs a 1-mode gate")
        s, t = params.s @ np.array([s, t])
        record.frame = (float(s), float(t))
        return {"frame": record.frame}
    if gate_kind == "cubic":
        chi, sigma = params["chi"], params["sigma"]
        m_a, m_e, m_f = params["outcomes"]
        sp = adapted_sigma(sigma, s, chi)
        zeta = commutation_kick(s, sigma, chi, m_e, m_f)
        record.frame = (float(zeta + t), float(-s))
        record.adaptations.append({"sigma": sigma, "sigma_adapted": sp,
                                   "zeta": zeta})
        return {"frame": record.frame, "sigma_adapted": sp, "zeta": zeta}
    raise ProgramError(f"unknown gate kind {gate_kind!r}")


# -- program runner -----------------------------------------------------------------


@dataclass
class ProgramResult:
    state: GraphState
    record: MeasurementRecord
    #: (2n, j + events): the final mean's sensitivity to each of the j
    #: columns a run was given, then to each outcome
    outcome_jacobian: np.ndarray
    #: original mode id -> index in the final state
    mode_index: dict

    def predicted_mean_shift(self) -> np.ndarray:
        """J m: the outcome-dependent part of the final mean."""
        return self.outcome_jacobian @ np.array(
            [e.outcome for e in self.record.events])


def _parse_resource(desc):
    """(build, r, mode_of); mode_of(t, detector) is a mode or None, in O(1)."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if kind == "wire":
        _, sites, r, inp = _fields(desc, "resource", ("kind",), {
            "macronodes": 2, "r": 6.0, "input": None})
        sites = _number(sites, "resource.macronodes", int)
        r = _number(r, "resource.r")
        if inp is not None:
            try:
                inp = GraphState.from_dict(inp)
            except GraphStateError as exc:
                raise ProgramError(f"resource.input: {exc}") from None

        def mode_of(t, d):
            ok = 0 <= t < sites and d in ("x", "a")
            return 2 * t + (d == "a") if ok else None

        return lambda: canonical_wire(sites, r, inp), r, mode_of
    if kind == "bsl":
        _, n, m, r = _fields(desc, "resource", ("kind", "N", "M"), {"r": 1.0})
        config = LatticeConfig(_number(n, "resource.N", int),
                               _number(m, "resource.M", int),
                               _number(r, "resource.r"))
        return (lambda: _lattice_state(ideal_graph(config), config.r),
                config.r, MacronodeLattice(config).mode_at)
    if not isinstance(desc, dict) or "kind" not in desc:
        _fields(desc, "resource", ("kind",))    # raises, naming the fault
    raise ProgramError(f"unknown resource kind {kind!r}")


def _parse_program(program):
    """Check a whole program before any state is built; (build, r, steps).

    A homodyne step is (mode, theta, outcome) and a chi = 0 cubic step
    (alpha, beta, sigma, outcomes); an outcome of None is drawn.  Every
    object is read by _fields, which refuses a key that nothing reads.
    """
    resource, steps = _fields(program, "program", ("resource", "steps"))
    build, r, mode_of = _parse_resource(resource)
    if not isinstance(steps, list):
        raise ProgramError(f"steps must be a list, got {steps!r}")
    consumed, parsed = set(), []
    for i, step in enumerate(steps):
        name = f"steps[{i}]"
        time_index, detector, basis, forced = _fields(
            step, name, ("time_index", "detector", "basis"), {"outcome": None})
        key = (_number(time_index, f"{name}.time_index", int), str(detector))
        theta, cubic = _fields(basis, f"{name}.basis", (),
                               {"theta": None, "cubic": None})
        if ("theta" in basis) == ("cubic" in basis):
            raise ProgramError(f"malformed program: {name}.basis must hold "
                               f"one of theta and cubic, got {basis!r}")
        mode = mode_of(*key)
        if mode is None:
            raise ProgramError(f"no mode at {key} in this resource")
        if mode in consumed:
            raise ProgramError(f"mode at {key} was already consumed")
        consumed.add(mode)
        if "theta" in basis:
            if forced is not None:
                forced = _number(forced, f"{name}.outcome")
            theta = _number(theta, f"{name}.basis.theta")
            parsed.append((mode, theta, forced))
        else:
            sigma, chi = _fields(cubic, f"{name}.basis.cubic", ("sigma",),
                                 {"chi": 0.0})
            chi = _number(chi, f"{name}.basis.cubic.chi")
            sigma = _number(sigma, f"{name}.basis.cubic.sigma")
            if chi != 0.0:
                raise ProgramError(
                    "cubic steps with chi != 0 are not Gaussian-simulable; "
                    "use the identity verification suite for chi != 0")
            if key[1] != "x":
                raise ProgramError("cubic steps consume the x detector")
            beta = mode_of(key[0], "a")
            if beta is None or beta in consumed:
                raise ProgramError(
                    f"cubic step needs the partner mode {(key[0], 'a')}")
            consumed.add(beta)
            outcomes = (None,) * 3 if forced is None \
                else _three_numbers(forced, f"{name}.outcome")
            parsed.append((mode, beta, sigma, outcomes))
    return build, r, parsed


def run_program(program: dict, seed=None) -> ProgramResult:
    """Execute a measurement program on a wire or lattice resource.

    Program schema: {"resource": {"kind": "wire"|"bsl", ...}, "steps":
    [{"time_index": int, "detector": "x|a|b|c", "basis": {"theta": t} |
    {"cubic": {"chi": 0.0, "sigma": s}}, "outcome": optional}]}.
    The theta basis measures q(theta); cubic steps run the gate-teleportation
    macronode circuit, which is Gaussian-simulable exactly when chi = 0.
    The whole program is checked before the resource is built, and then
    run by _run_steps.
    """
    build, r, steps = _parse_program(program)
    return _run_steps(build(), steps, r, seed)


def _run_steps(state: GraphState, steps, r, rng, jac=None) -> ProgramResult:
    """Run parsed steps on a state: the one step loop of the module.

    steps are _parse_program's tuples, modes named by their index in state;
    r sets the cubic steps' ancilla squeezing, and the k-th ancilla (k from
    0) is named mode n + k, n the state's mode count.  jac holds columns the
    state's mean is already sensitive to (2n x j; None means none).  The
    mean and the Jacobian are carried as one block [c | W] in c-coordinates
    and read with one solve against Im Z and one checked GraphState at the
    end.
    """
    rng = _rng_of(rng)
    alive = list(range(state.n_modes))      # mode id per index of the state
    record = MeasurementRecord()
    z = state.z
    if jac is None:
        jac = np.zeros((2 * len(z), 0))
    block = _to_c(z, np.column_stack([state.mean, jac]))

    def do_measure(mode_id, theta, forced):
        nonlocal z, block
        idx = alive.index(mode_id)
        del alive[idx]
        z, block, m = _measure_step(z, block, idx, theta, forced, rng)
        record.add(mode_id, theta, m)
        return m

    for step in steps:
        if len(step) == 3:
            do_measure(*step)
            continue
        alpha, beta, sigma, (f_a, f_e, f_f) = step
        # inject an unentangled ancilla (a zero block row) as mode n and mix
        # it with alpha on a 50:50 beamsplitter, a real orthogonal O acting
        # alike on q and p: Z -> O Z O^T, whose Im Z stays definite, and the
        # block -> O block
        n = len(z)
        z = np.pad(z, (0, 1))
        z[n, n] = 1j / np.cosh(2 * r)
        block = np.pad(block, ((0, 1), (0, 0)))
        # one adaptation per earlier cubic step
        anc = state.n_modes + len(record.adaptations)
        i = alive.index(alpha)
        alive.append(anc)
        for part in (z, z.T, block):
            balanced_mix(part, i, n)
        z = (z + z.T) / 2
        m_a = do_measure(beta, 0.0, f_a)
        m_f = do_measure(anc, 0.0, f_f)
        m_e = do_measure(alpha, np.arctan(sigma) - np.pi / 2, f_e)
        record.adaptations.append(
            {"sigma": sigma, "outcomes": [m_a, m_e, m_f]})

    cols = _from_c(z, block)
    return ProgramResult(GraphState(z, cols[:, 0]), record, cols[:, 1:],
                         {m: i for i, m in enumerate(alive)})
