"""Gaussian pure states as complex symmetric graphs, plus symplectic gates.

Conventions used throughout the package:

* quadratures q = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)), hbar = 1,
  so [q, p] = i and the vacuum has <q^2> = <p^2> = 1/2;
* operator vectors are ordered x = (q_1 .. q_n, p_1 .. p_n);
* a gate is described by its Heisenberg action U^dag x U = S x + d, with
  S = [[A, B], [C, D]] in the q/p block convention;
* a zero-mean pure state has position wavefunction
  psi(q) ~ exp(i q^T Z q / 2) with Z complex symmetric and Im Z positive
  definite.  Displacements live in a separate real mean vector, not in Z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: max condition number accepted for the graph-update solve
COND_LIMIT = 1e12


class GraphStateError(ValueError):
    """Raised for invalid states, gates or ill-conditioned updates."""


def omega(n: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] on n modes."""
    z = np.zeros((n, n))
    i = np.eye(n)
    return np.block([[z, i], [-i, z]])


@dataclass(frozen=True)
class GraphState:
    """Pure Gaussian state: graph matrix Z plus a real mean vector.

    Attributes:
        z: (n, n) complex symmetric matrix with Im z positive definite.
        mean: (2n,) real vector of quadrature means, ordered (q..., p...).
    """

    z: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        z = (z + z.T) / 2
        mean = np.asarray(self.mean, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise GraphStateError("graph matrix must be square")
        if mean.shape != (2 * z.shape[0],):
            raise GraphStateError(
                f"mean must have length {2 * z.shape[0]}, got {mean.shape}")
        if z.shape[0]:     # fully measured states are legal, empty leftovers
            eig_min = np.linalg.eigvalsh(z.imag).min()
            if eig_min <= 1e-14:
                raise GraphStateError(
                    f"Im Z must be positive definite (min eigenvalue {eig_min:.3e})")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "mean", mean)

    @property
    def n_modes(self) -> int:
        return self.z.shape[0]

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n_modes,
            "Z_re": self.z.real.tolist(),
            "Z_im": self.z.imag.tolist(),
            "mean": self.mean.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "GraphState":
        data = json.loads(text)
        try:
            z = np.array(data["Z_re"]) + 1j * np.array(data["Z_im"])
            mean = np.array(data["mean"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphStateError(f"malformed graph JSON: {exc}") from exc
        return cls(z, mean)


@dataclass(frozen=True)
class SymplecticGate:
    """Heisenberg-picture Gaussian gate: x -> S x + d.

    S must satisfy S Omega S^T = Omega to 1e-12.
    """

    s: np.ndarray
    d: np.ndarray = field(default=None)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        n2 = s.shape[0]
        if s.ndim != 2 or s.shape != (n2, n2) or n2 % 2:
            raise GraphStateError("S must be a 2n x 2n matrix")
        d = np.zeros(n2) if self.d is None else np.asarray(self.d, dtype=float)
        if d.shape != (n2,):
            raise GraphStateError(f"displacement must have length {n2}")
        om = omega(n2 // 2)
        dev = np.abs(s @ om @ s.T - om).max()
        if dev > 1e-12:
            raise GraphStateError(f"matrix is not symplectic (|S Om S^T - Om| = {dev:.3e})")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)

    @property
    def n_modes(self) -> int:
        return self.s.shape[0] // 2

    def blocks(self):
        n = self.n_modes
        return self.s[:n, :n], self.s[:n, n:], self.s[n:, :n], self.s[n:, n:]

    def then(self, other: "SymplecticGate") -> "SymplecticGate":
        """Gate equal to applying self first, then other."""
        return SymplecticGate(other.s @ self.s, other.s @ self.d + other.d)


def _embed(n: int, modes, block: np.ndarray, disp=None) -> SymplecticGate:
    """Embed a 2k x 2k single/two-mode symplectic into n modes."""
    for m in modes:
        if not 0 <= m < n:
            raise GraphStateError(f"mode index {m} out of range for {n} modes")
    if len(set(modes)) != len(modes):
        raise GraphStateError("mode indices must be distinct")
    k = len(modes)
    s = np.eye(2 * n)
    a, b = block[:k, :k], block[:k, k:]
    c, dd = block[k:, :k], block[k:, k:]
    for x, mx in enumerate(modes):
        for y, my in enumerate(modes):
            s[mx, my] = a[x, y]
            s[mx, n + my] = b[x, y]
            s[n + mx, my] = c[x, y]
            s[n + mx, n + my] = dd[x, y]
    d = np.zeros(2 * n)
    if disp is not None:
        for x, mx in enumerate(modes):
            d[mx] = disp[x]
            d[n + mx] = disp[k + x]
    return SymplecticGate(s, d)


def gate_identity(n: int) -> SymplecticGate:
    return SymplecticGate(np.eye(2 * n))


def gate_rotation(theta: float, i: int, n: int) -> SymplecticGate:
    """Phase delay R(theta) = exp(i theta a^dag a) on mode i."""
    c, s = np.cos(theta), np.sin(theta)
    return _embed(n, [i], np.array([[c, -s], [s, c]]))


def gate_squeeze(r: float, i: int, n: int) -> SymplecticGate:
    """Squeezer S(r): q -> e^r q, p -> e^-r p on mode i."""
    return _embed(n, [i], np.diag([np.exp(r), np.exp(-r)]))


def gate_shear(sigma: float, i: int, n: int) -> SymplecticGate:
    """Shear P(sigma) = exp(i sigma q^2 / 2): p -> p + sigma q."""
    return _embed(n, [i], np.array([[1.0, 0.0], [sigma, 1.0]]))


def gate_displacement(s: float, t: float, i: int, n: int) -> SymplecticGate:
    """Displacement by s in q and t in p on mode i."""
    return _embed(n, [i], np.eye(2), disp=[s, t])


def gate_beamsplitter(theta: float, i: int, j: int, n: int) -> SymplecticGate:
    """Beamsplitter B_ij(theta); sin(theta) is the reflectivity.

    Heisenberg action on (q_i, q_j): [[cos, -sin], [sin, cos]], identical on
    (p_i, p_j); theta = pi/4 is the balanced 50:50 convention.
    """
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    z = np.zeros((2, 2))
    return _embed(n, [i, j], np.block([[r, z], [z, r]]))


def gate_cz(g: float, i: int, j: int, n: int) -> SymplecticGate:
    """Controlled-Z exp(i g q_i q_j): p_i += g q_j, p_j += g q_i."""
    blk = np.eye(4)
    blk[2, 1] = g
    blk[3, 0] = g
    return _embed(n, [i, j], blk)


def vacuum(n: int) -> GraphState:
    """n-mode vacuum: Z = i I, zero mean."""
    if n < 1:
        raise GraphStateError("need at least one mode")
    return GraphState(1j * np.eye(n), np.zeros(2 * n))


def squeezed_vacua(r_list) -> GraphState:
    """Product of single-mode squeezed vacua S(r_k)|0>; Z_kk = i e^{-2 r_k}."""
    r = np.atleast_1d(np.asarray(r_list, dtype=float))
    if not np.all(np.isfinite(r)):
        raise GraphStateError("squeezing parameters must be finite")
    return GraphState(1j * np.diag(np.exp(-2 * r)), np.zeros(2 * len(r)))


def apply(state: GraphState, gate: SymplecticGate) -> GraphState:
    """Apply a gate: Z' = (C + D Z)(A + B Z)^-1, mean' = S mean + d."""
    if gate.n_modes != state.n_modes:
        raise GraphStateError(
            f"gate acts on {gate.n_modes} modes, state has {state.n_modes}")
    a, b, c, d = gate.blocks()
    m = a + b @ state.z
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise GraphStateError(
            f"graph update is ill-conditioned (cond(A + B Z) = {cond:.3e})")
    zp = np.linalg.solve(m.T, (c + d @ state.z).T).T
    return GraphState(zp, gate.s @ state.mean + gate.d)


def covariance(state: GraphState) -> np.ndarray:
    """Quadrature covariance matrix of the pure state.

    With Z = X + iY this is (1/2) [[Y^-1, Y^-1 X], [X Y^-1, Y + X Y^-1 X]];
    it satisfies the purity condition (Sigma Omega)^2 = -I/4.
    """
    x, y = state.z.real, state.z.imag
    yi = np.linalg.inv(y)
    sig = 0.5 * np.block([[yi, yi @ x], [x @ yi, y + x @ yi @ x]])
    return (sig + sig.T) / 2


def equal_up_to_phase(a: GraphState, b: GraphState, tol: float = 1e-9) -> bool:
    """Whether two states coincide as physical states (global phase ignored)."""
    if a.n_modes != b.n_modes:
        raise GraphStateError("states have different mode counts")
    return (np.abs(a.z - b.z).max() <= tol
            and np.abs(a.mean - b.mean).max() <= tol)
