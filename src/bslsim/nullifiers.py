"""Nullifier sets, the local-quadrature transformation, and witness reports.

A nullifier row is the operator sum_k (coeff_q[k] q_k + coeff_p[k] p_k).
Its variance is Var(c) = <c^dag c> - |<c>|^2 = conj(c)^T (Sigma + i Omega / 2) c
with c the stacked (q, p) coefficient vector; the commutator term i Omega / 2
is what makes the exact nullifiers (p - Z q) of a graph state have zero
variance.  For real (quadrature-pure) rows it drops out and the variance is
the classical c^T Sigma c that homodyne statistics estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphstate import (GraphState, GraphStateError, SymplecticGate, apply,
                         covariance)
from .lattice import _lattice_state


@dataclass(frozen=True)
class NullifierSet:
    """Rows of linear nullifiers: coeff_q, coeff_p with shape (rows, n)."""

    coeff_q: np.ndarray
    coeff_p: np.ndarray

    def __post_init__(self):
        cq = np.asarray(self.coeff_q)
        cp = np.asarray(self.coeff_p)
        if cq.shape != cp.shape or cq.ndim != 2:
            raise GraphStateError("coefficient blocks must share a (rows, n) shape")
        object.__setattr__(self, "coeff_q", cq)
        object.__setattr__(self, "coeff_p", cp)

    @property
    def n_rows(self) -> int:
        return self.coeff_q.shape[0]

    @property
    def n_modes(self) -> int:
        return self.coeff_q.shape[1]

    def stacked(self) -> np.ndarray:
        """(rows, 2n) coefficients in the (q..., p...) ordering."""
        return np.concatenate([self.coeff_q, self.coeff_p], axis=1)

    def quadrature_pure(self) -> bool:
        """True if every row touches only q or only p."""
        zq = np.all(self.coeff_q == 0, axis=1)
        zp = np.all(self.coeff_p == 0, axis=1)
        return bool(np.all(zq | zp))


def exact_nullifiers(state: GraphState) -> NullifierSet:
    """The defining set (p - Z q) of a graph state; zero variance in theory."""
    return NullifierSet(-state.z, np.eye(state.n_modes, dtype=complex))


def phi_transform(state: GraphState) -> GraphState:
    """Quarter phase delay on every mode: R(pi/4)^(x n).

    Applied as one gate on every mode, Z' = (s I + c Z)(c I - s Z)^-1 with
    c = cos(pi/4) and s = sin(pi/4), so the exact cond guard and the Im Z
    check of apply run once.
    """
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.kron([[c, -s], [s, c]], np.eye(state.n_modes))
    return apply(state, SymplecticGate(rot))


def quadrature_nullifiers(v: np.ndarray) -> NullifierSet:
    """Local position/momentum nullifiers of the phase-delayed state.

    Rows: the (I - V) p block followed by the (I + V) q block; each row is
    quadrature-pure and supported on node j and its V-neighborhood.  The
    stacked set has 2n rows of rank n per block (rank 2n overall).
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if not _involution_error(v) <= 1e-6:     # also refuses a NaN V
        raise GraphStateError("graph must be self-inverse (V^2 = I)")
    zeros = np.zeros((n, n))
    coeff_q = np.concatenate([zeros, np.eye(n) + v], axis=0)
    coeff_p = np.concatenate([np.eye(n) - v, zeros], axis=0)
    return NullifierSet(coeff_q, coeff_p)


def _involution_error(v: np.ndarray) -> float:
    """max |V^2 - I| of a square V, row by row from its nonzeros.

    Row i of V^2 is V[i, j] @ V[j] over the nonzero columns j of row i, so
    the check costs O(n^2 deg), the order of the scan for the nonzeros.  A
    NaN entry is a nonzero and propagates to the result.
    """
    n = len(v)
    if v.shape != (n, n):
        raise GraphStateError(f"graph must be square, got shape {v.shape}")
    dev = np.zeros(n)
    for i in range(n):
        j = np.flatnonzero(v[i])
        d = v[i, j] @ v[j]
        d[i] -= 1
        dev[i] = np.abs(d).max()
    return float(dev.max(initial=0.0))


def nullifier_variances(state: GraphState, nulls: NullifierSet) -> np.ndarray:
    """Variance of each nullifier row on the state."""
    if nulls.n_modes != state.n_modes:
        raise GraphStateError(
            f"nullifiers act on {nulls.n_modes} modes, state has {state.n_modes}")
    # a pure state has Sigma + i Omega / 2 = [I, Z]^H (Im Z)^-1 [I, Z] / 2, so
    # row (a, b) has variance |L^-1 (a + Z b)|^2 / 2 with Im Z = L L^T; the
    # 2n x 2n form is never built, as its entries grow as cosh 2r and cancel
    low = np.linalg.cholesky(state.z.imag)
    x = np.linalg.solve(low, (nulls.coeff_q + nulls.coeff_p @ state.z).T)
    return 0.5 * (np.abs(x) ** 2).sum(axis=0)


def vacuum_variances(nulls: NullifierSet) -> np.ndarray:
    """Same rows evaluated on the vacuum: the product-state baseline.

    With Sigma + i Omega / 2 = (I + i Omega) / 2 the form of row (a, b) is
    (|a|^2 + |b|^2) / 2 - Im(conj(a) . b), O(n) per row.
    """
    a, b = nulls.coeff_q, nulls.coeff_p
    return (0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2).sum(axis=1)
            - (a.conj() * b).sum(axis=1).imag)


def verify_quarter_delay_transform(v: np.ndarray, r: float, tol: float = 1e-9) -> dict:
    """Verify the local-nullifier transformation on a self-inverse graph.

    Builds Z = i sech(2r) I + tanh(2r) V, applies the quarter phase delays
    and asserts the closed form i cosh(2r) I + i sinh(2r) V, plus the uniform
    reweighting of edges (factor i cosh 2r) and self-loops (factor cosh^2 2r).
    tol is relative to each quantity's own scale: cosh 2r for the Z
    deviation and the edge ratios, cosh^2 2r for the self-loop ratios.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if v.shape != (n, n) or np.abs(v - v.T).max() > 1e-12:
        raise GraphStateError("graph must be real symmetric")
    tr = abs(np.trace(v))
    self_inv = _involution_error(v)
    if tr > 1e-8 or self_inv > 1e-6:
        raise GraphStateError(
            "graph does not meet the transformation preconditions: need a "
            f"trace-zero, self-inverse graph (|tr| = {tr:.3e}, "
            f"|V^2 - I| = {self_inv:.3e})")
    state = _lattice_state(v, r)
    z_in, z_out = state.z, phi_transform(state).z
    z_expect = 1j * np.cosh(2 * r) * np.eye(n) + 1j * np.sinh(2 * r) * v
    dev = np.abs(z_out - z_expect).max()

    off = ~np.eye(n, dtype=bool)
    edges = np.abs(v[off]) > 1e-8
    if edges.any():
        ratios = z_out[off][edges] / z_in[off][edges]
        edge_factor = complex(ratios.mean())
        edge_spread = float(np.abs(ratios - edge_factor).max())
    else:
        edge_factor, edge_spread = None, 0.0
    # the self-loop reweighting claim concerns the hollow part of the graph;
    # positions where V itself has a diagonal entry are not cluster self-loops
    hollow = np.abs(np.diag(v)) < 1e-8
    if hollow.any():
        loop_ratios = np.diag(z_out)[hollow] / np.diag(z_in)[hollow]
        loop_factor = complex(loop_ratios.mean())
        loop_spread = float(np.abs(loop_ratios - loop_factor).max())
    else:
        loop_factor, loop_spread = None, 0.0

    edge_tol, loop_tol = tol * np.cosh(2 * r), tol * np.cosh(2 * r) ** 2
    passed = (dev <= edge_tol and edge_spread <= edge_tol
              and loop_spread <= loop_tol)
    if edge_factor is not None:
        passed = passed and abs(edge_factor - 1j * np.cosh(2 * r)) <= edge_tol
    if loop_factor is not None:
        passed = passed and abs(loop_factor - np.cosh(2 * r) ** 2) <= loop_tol
    return {
        "passed": bool(passed),
        "max_deviation": float(dev),
        "edge_factor": edge_factor,
        "edge_spread": edge_spread,
        "selfloop_factor": loop_factor,
        "selfloop_spread": loop_spread,
        "r": r,
    }


def lattice_factors(v: np.ndarray, r: float, phase_delayed: bool = True):
    """Factors (F_q, F_p), Sigma = F F^T, of Z = i sech(2r) I + tanh(2r) V.

    V is real symmetric with V^2 = I.  The quarter-delayed lattice
    i cosh(2r) I + i sinh(2r) V has Sigma_qq = (cosh 2r I - sinh 2r V) / 2,
    Sigma_pp = (cosh 2r I + sinh 2r V) / 2 and a zero q-p block, and V^2 = I
    makes (cosh r I -+ sinh r V) / sqrt 2 their symmetric roots.  Without the
    delay both are cosh(2r) I / 2, with root sqrt(cosh(2r) / 2) I.  Means are 0.
    """
    eye = np.eye(len(v))
    if not phase_delayed:
        return (np.sqrt(0.5 * np.cosh(2 * r)) * eye,) * 2
    c, s = np.cosh(r) / np.sqrt(2), np.sinh(r) / np.sqrt(2)
    return c * eye - s * v, c * eye + s * v


def lattice_variances(baselines: np.ndarray, r: float) -> np.ndarray:
    """Exact variances of quadrature_nullifiers(V) on the delayed lattice:
    with V^2 = I, (I -+ V)(cosh 2r I +- sinh 2r V)(I -+ V) / 2 is
    e^{-2r} (I -+ V), so each row's variance is e^{-2r} times its vacuum
    variance, baselines = vacuum_variances(nulls).
    """
    return np.exp(-2 * r) * baselines


# -- sampling and the two-setting witness protocol ---------------------------

#: most draws (shots x modes) in one sample_marginal call: 1 GiB of float64
MAX_DRAWS = 2 ** 27


def sample_homodyne_dataset(state: GraphState, setting: str, shots: int,
                            seed=None, path=None) -> np.ndarray:
    """Draw homodyne shots with every mode measured in one common basis.

    setting "q" or "p"; rows are shots, columns are modes.  The factor is
    the Cholesky factor of that setting's block of the state's covariance.
    """
    if setting not in ("q", "p"):
        raise GraphStateError("setting must be 'q' or 'p'")
    n = state.n_modes
    sl = slice(0, n) if setting == "q" else slice(n, 2 * n)
    try:
        factor = np.linalg.cholesky(covariance(state)[sl, sl])
    except np.linalg.LinAlgError as exc:
        raise GraphStateError(f"the {setting} marginal covariance has no "
                              f"Cholesky factor ({exc})") from exc
    return sample_marginal(factor, shots, seed, path, state.mean[sl])


def sample_marginal(factor: np.ndarray, shots: int, seed=None, path=None,
                    mean=0.0) -> np.ndarray:
    """Draw shots mean + F z (z standard normal) of one homodyne setting.

    factor is F (n x n) with marginal covariance F F^T; shots x n must not
    exceed MAX_DRAWS.  With a path, the shots are also written as CSV with a
    mode_0,...,mode_{n-1} header.
    """
    n = len(factor)
    if shots < 1:
        raise GraphStateError("need at least one shot")
    if shots * n > MAX_DRAWS:
        raise GraphStateError(f"{shots} shots of {n} modes are above the "
                              f"limit of {MAX_DRAWS} draws")
    rng = np.random.default_rng(seed)
    data = mean + rng.standard_normal((shots, n)) @ factor.T
    if path is not None:
        header = ",".join(f"mode_{k}" for k in range(n))
        # 17 significant digits round-trip every double exactly
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
                   comments="")
    return data


@dataclass(frozen=True)
class WitnessReport:
    variances: np.ndarray
    baselines: np.ndarray
    thresholds: np.ndarray
    verdicts: np.ndarray
    shots: int
    threshold_factor: float

    @property
    def passed(self) -> bool:
        return bool(self.verdicts.all())

    def to_json(self) -> str:
        return json.dumps({
            "variances": self.variances.tolist(),
            "vacuum_baselines": self.baselines.tolist(),
            "thresholds": self.thresholds.tolist(),
            "verdicts": self.verdicts.tolist(),
            "passed": self.passed,
            "shots": self.shots,
            "threshold_factor": self.threshold_factor,
        })


def witness_from_variances(variances, baselines: np.ndarray,
                           threshold_factor: float = 0.5,
                           shots: int = 0) -> WitnessReport:
    """Verdict: every row variance below factor * its vacuum baseline.

    baselines are the rows' vacuum variances, vacuum_variances(nulls).
    """
    variances = np.asarray(variances, dtype=float)
    thresholds = threshold_factor * baselines
    return WitnessReport(variances, baselines, thresholds,
                         variances < thresholds, shots, threshold_factor)


def _load_csv(path, n_modes: int, min_shots: int) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
    expected = ",".join(f"mode_{k}" for k in range(n_modes))
    if header != expected:
        raise GraphStateError(
            f"malformed CSV {path}: header {header!r}, expected {expected!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < min_shots:
        raise GraphStateError(
            f"insufficient shots in {path}: {data.shape[0]} < {min_shots}")
    if data.shape[1] != n_modes:
        raise GraphStateError(f"expected {n_modes} columns in {path}")
    return data


def empirical_variances(data_q: np.ndarray, data_p: np.ndarray,
                        nulls: NullifierSet) -> np.ndarray:
    """Sample variance of each quadrature-pure nullifier row.

    data_q and data_p hold q- and p-setting shots (rows are shots, columns
    are modes); a row with p coefficients is evaluated on the p data, any
    other row on the q data.
    """
    if not nulls.quadrature_pure():
        raise GraphStateError(
            "the two settings can only evaluate quadrature-pure nullifiers")
    on_p = np.any(nulls.coeff_p != 0, axis=1)
    variances = np.empty(nulls.n_rows)
    variances[on_p] = (data_p @ nulls.coeff_p[on_p].real.T).var(0, ddof=1)
    variances[~on_p] = (data_q @ nulls.coeff_q[~on_p].real.T).var(0, ddof=1)
    return variances


def ingest_samples(q_path, p_path, nulls: NullifierSet,
                   threshold_factor: float = 0.5,
                   min_shots: int = 100):
    """Estimate quadrature-pure nullifier variances from two-setting data.

    Returns (empirical covariances dict, WitnessReport); rows built from q
    coefficients use the q-setting file and likewise for p.
    """
    n = nulls.n_modes
    data_q = _load_csv(q_path, n, min_shots)
    data_p = _load_csv(p_path, n, min_shots)
    variances = empirical_variances(data_q, data_p, nulls)
    shots = min(data_q.shape[0], data_p.shape[0])
    report = witness_from_variances(variances, vacuum_variances(nulls),
                                    threshold_factor, shots)
    cov = {"q": np.cov(data_q.T), "p": np.cov(data_p.T)}
    return cov, report
