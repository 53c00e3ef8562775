"""The per-step homodyne runner, kept as the reference of the block update.

A run of K homodyne steps measures one mode at a time: each step is the
rank-1 node deletion of the graphical calculus (Menicucci, Flammia & van
Loock, PRA 83, 042335, 2011), guarded by the closed-form cond of its
one-mode rotation, and each drawn outcome takes its marginal from one solve
against the surviving Im Z.  mbqc._run_steps measures the same run as one
K-mode rotation and one projection; the tests hold the two together.
"""

import numpy as np

from bslsim.graphstate import GraphState, GraphStateError, _check_cond, \
    balanced_mix
from bslsim.mbqc import (MeasurementRecord, ProgramResult, _from_c, _rng_of,
                         _to_c)


def rotation_cond(z: np.ndarray, mode: int, theta: float) -> float:
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


def measure_step(z: np.ndarray, block: np.ndarray, mode: int, theta: float,
                 outcome, rng):
    """Measure q(theta) on one mode in c-coordinates; (z', block', outcome).

    block (n x (1 + j), complex) is [c | W]: column 0 is the state's linear
    coefficient c = mu_p - Z mu_q, each later column its sensitivity to one
    earlier outcome.  With piv = cos - sin Z_kk the rotation's A + B Z is the
    identity outside row k, so the rotated Z[rest, k] is g = Z_rk / piv and
    the graph of the surviving modes is Z_rr + (sin / piv) Z_rk Z_kr.  Every
    column x maps to M^-T x, which adds sin g x_k to the surviving rows, and
    the projection adds m g to column 0 and appends g as a column.  A drawn
    outcome takes the marginal of q_k from one solve against Y' = Im Z' with
    the two columns [Im g, Im c_r]: the Schur complement
    s = Y_kk - Im g^T Y'^-1 Im g of the rotated Y = Im Z gives the variance
    1 / (2 s) and the mean -(Im(c_k / piv) - Im g^T Y'^-1 Im c_r) / s.
    """
    _check_cond(rotation_cond(z, mode, theta))
    cos, sin = np.cos(theta), np.sin(theta)
    piv = cos - sin * z[mode, mode]
    rest = np.delete(np.arange(len(z)), mode)
    zrk = z[rest, mode]
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


def run_steps_reference(state: GraphState, steps, r, rng,
                        jac=None) -> ProgramResult:
    """mbqc._run_steps one step at a time, each ancilla injected and mixed
    at its cubic step; the same arguments, rng stream and ProgramResult."""
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
        z, block, m = measure_step(z, block, idx, theta, forced, rng)
        record.add(mode_id, theta, m)
        return m

    for step in steps:
        if len(step) == 3:
            do_measure(*step)
            continue
        alpha, beta, sigma, (f_a, f_e, f_f) = step
        n = len(z)
        z = np.pad(z, (0, 1))
        z[n, n] = 1j / np.cosh(2 * r)
        block = np.pad(block, ((0, 1), (0, 0)))
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
