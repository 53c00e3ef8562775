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

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: max condition number accepted for the graph-update solve
COND_LIMIT = 1e12


class GraphStateError(ValueError):
    """Raised for invalid states, gates or ill-conditioned updates."""


class ProgramError(GraphStateError):
    """Raised for malformed or non-executable programs, cases and graphs."""


def _number(value, name: str, cast=float):
    """A finite real field, integral if cast is int; cast to cast."""
    real = (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))
    # compares ints exactly, so an integer too large for a float fails too
    if real and not abs(value) <= sys.float_info.max:
        raise ProgramError(f"{name} must be finite, got {value!r}")
    if not real or (cast is int and value != int(value)):
        kind = "an integer" if cast is int else "a number"
        raise ProgramError(f"{name} must be {kind}, got {value!r}")
    return cast(value)


def _three_numbers(values, name: str) -> tuple:
    """Three finite real numbers, each checked by _number under name."""
    if not isinstance(values, (list, tuple)) or len(values) != 3:
        raise ProgramError(f"{name} must list three numbers, got {values!r}")
    return tuple(_number(v, name) for v in values)


def _number_array(values, name: str) -> np.ndarray:
    """Nested lists as a float array, each entry read as _number reads a
    scalar, save that GraphState refuses a non-finite float."""
    for value in np.array(values, dtype=object).ravel():
        if isinstance(value, list):
            raise ProgramError(f"{name} must be a rectangular array of numbers")
        if type(value) is not float:
            _number(value, name)
    return np.array(values, dtype=float)


def _fields(obj, name: str, keys, optional=None, prefix="malformed program: "):
    """An object's values at keys, then at each optional key (its default
    where absent); a ProgramError naming a missing or unknown key."""
    optional = optional or {}
    if not isinstance(obj, dict):
        raise ProgramError(f"{prefix}{name} must be an object, got {obj!r}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ProgramError(f"{prefix}{name} is missing {missing}")
    unknown = [key for key in obj if key not in keys and key not in optional]
    if unknown:
        raise ProgramError(f"{prefix}{name} has unknown fields {unknown}")
    return [obj[key] for key in keys] + [obj.get(key, default)
                                         for key, default in optional.items()]


def omega(n: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] on n modes."""
    om = np.zeros((2 * n, 2 * n))
    i = np.arange(n)
    om[i, n + i] = 1.0
    om[n + i, i] = -1.0
    return om


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
        mean = np.asarray(self.mean, dtype=float)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise GraphStateError("graph matrix must be square")
        if mean.shape != (2 * z.shape[0],):
            raise GraphStateError(
                f"mean must have length {2 * z.shape[0]}, got {mean.shape}")
        if not np.isfinite(z).all():
            raise GraphStateError("graph matrix Z must be finite")
        if not np.isfinite(mean).all():
            raise GraphStateError("mean must be finite")
        z = (z + z.T) / 2
        # the factor exists exactly when the smallest eigenvalue of Im Z is
        # above 1e-14; the eigenvalues are computed only for the message
        try:
            np.linalg.cholesky(z.imag - 1e-14 * np.eye(len(z)))
        except np.linalg.LinAlgError:
            eig_min = np.linalg.eigvalsh(z.imag).min()
            raise GraphStateError(
                f"Im Z must be positive definite (min eigenvalue {eig_min:.3e})"
            ) from None
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "mean", mean)

    @property
    def n_modes(self) -> int:
        return self.z.shape[0]

    def to_dict(self) -> dict:
        return {
            "n": self.n_modes,
            "Z_re": self.z.real.tolist(),
            "Z_im": self.z.imag.tolist(),
            "mean": self.mean.tolist(),
        }

    @classmethod
    def from_dict(cls, data) -> "GraphState":
        """State from the to_dict layout, read as a program is: no other
        key, n, where given, an integer, and every entry a JSON number.
        Z_re and Z_im must be square matrices of one shape and n their size;
        each part must be symmetric to 1e-12 max(1, |Z|)."""
        bad = "malformed graph JSON: "
        keys = ("Z_re", "Z_im", "mean")
        *parts, n = _fields(data, "graph", keys, {"n": None}, prefix=bad)
        re, im, mean = (_number_array(part, bad + key)
                        for key, part in zip(keys, parts))
        if re.ndim != 2 or re.shape[0] != re.shape[1] or im.shape != re.shape:
            raise GraphStateError(f"{bad}Z_re and Z_im must be square of one "
                                  f"shape, got {re.shape}, {im.shape}")
        if "n" in data and _number(n, bad + "n", int) != len(re):
            raise GraphStateError(
                f"{bad}n = {n!r}, but Z is {len(re)} x {len(re)}")
        # a non-finite Z passes here, unwarned, and is refused by the Z check
        with np.errstate(invalid="ignore"):
            z = re + 1j * im
            for key, part in (("Z_re", re), ("Z_im", im)):
                asym = np.abs(part - part.T).max(initial=0.0)
                if asym > 1e-12 * np.abs(z).max(initial=1.0):
                    raise GraphStateError(f"{key} is not symmetric "
                                          f"(|{key} - {key}^T| = {asym:.3e})")
        return cls(z, mean)


@dataclass(frozen=True)
class SymplecticGate:
    """Heisenberg-picture Gaussian gate: x -> S x + d.

    SymplecticGate(block, disp, modes, n_modes) holds the 2k x 2k block
    acting on the k listed modes of an n-mode system, rows and columns
    ordered (q of modes, p of modes); S is the identity elsewhere.  Empty
    `modes` (the default) means the first k modes and `n_modes` 0 means k,
    so SymplecticGate(s, d) acts with all of S.  The dense S and d are built
    on first use of `.s` and `.d`.  The block must satisfy
    block Omega block^T = Omega to 1e-12.
    """

    block: np.ndarray
    disp: np.ndarray = None
    modes: tuple = ()
    n_modes: int = 0

    def __post_init__(self):
        block = np.asarray(self.block, dtype=float)
        k2 = block.shape[0] if block.ndim else 0
        if block.ndim != 2 or block.shape != (k2, k2) or k2 % 2:
            raise GraphStateError("S must be a 2n x 2n matrix")
        k = k2 // 2
        modes = tuple(map(int, self.modes)) or tuple(range(k))
        n = self.n_modes or k
        if len(modes) != k:
            raise GraphStateError(
                f"a {k2} x {k2} block acts on {k} modes, got {len(modes)}")
        for m in modes:
            if not 0 <= m < n:
                raise GraphStateError(f"mode index {m} out of range for {n} modes")
        if len(set(modes)) != k:
            raise GraphStateError("mode indices must be distinct")
        disp = (np.zeros(k2) if self.disp is None
                else np.asarray(self.disp, dtype=float))
        if disp.shape != (k2,):
            raise GraphStateError(f"displacement must have length {k2}")
        om = omega(k)
        dev = np.abs(block @ om @ block.T - om).max()
        if not dev <= 1e-12:        # also rejects a NaN block
            raise GraphStateError(f"matrix is not symplectic (|S Om S^T - Om| = {dev:.3e})")
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "disp", disp)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "n_modes", n)

    @cached_property
    def index(self) -> np.ndarray:
        """Rows and columns of S that the block occupies."""
        m = np.array(self.modes, dtype=int)
        return np.concatenate([m, self.n_modes + m])

    @cached_property
    def s(self) -> np.ndarray:
        """Dense 2n x 2n S, built on first use."""
        s = np.eye(2 * self.n_modes)
        s[np.ix_(self.index, self.index)] = self.block
        return s

    @cached_property
    def d(self) -> np.ndarray:
        """Dense length-2n displacement, built on first use."""
        d = np.zeros(2 * self.n_modes)
        d[self.index] = self.disp
        return d

    def then(self, other: "SymplecticGate") -> "SymplecticGate":
        """Gate equal to applying self first, then other."""
        return SymplecticGate(other.s @ self.s, other.s @ self.d + other.d)


def gate_identity(n: int) -> SymplecticGate:
    return SymplecticGate(np.eye(2 * n))


def gate_rotation(theta: float, i: int, n: int) -> SymplecticGate:
    """Phase delay R(theta) = exp(i theta a^dag a) on mode i."""
    c, s = np.cos(theta), np.sin(theta)
    return SymplecticGate(np.array([[c, -s], [s, c]]), modes=(i,), n_modes=n)


def gate_squeeze(r: float, i: int, n: int) -> SymplecticGate:
    """Squeezer S(r): q -> e^r q, p -> e^-r p on mode i."""
    return SymplecticGate(np.diag([np.exp(r), np.exp(-r)]), modes=(i,),
                          n_modes=n)


def gate_shear(sigma: float, i: int, n: int) -> SymplecticGate:
    """Shear P(sigma) = exp(i sigma q^2 / 2): p -> p + sigma q."""
    return SymplecticGate(np.array([[1.0, 0.0], [sigma, 1.0]]), modes=(i,),
                          n_modes=n)


def gate_displacement(s: float, t: float, i: int, n: int) -> SymplecticGate:
    """Displacement by s in q and t in p on mode i."""
    return SymplecticGate(np.eye(2), [s, t], modes=(i,), n_modes=n)


def gate_beamsplitter(theta: float, i: int, j: int, n: int) -> SymplecticGate:
    """Beamsplitter B_ij(theta); sin(theta) is the reflectivity.

    Heisenberg action on (q_i, q_j): [[cos, -sin], [sin, cos]], identical on
    (p_i, p_j); theta = pi/4 is the balanced 50:50 convention.
    """
    c, s = np.cos(theta), np.sin(theta)
    blk = np.zeros((4, 4))
    blk[:2, :2] = blk[2:, 2:] = [[c, -s], [s, c]]
    return SymplecticGate(blk, modes=(i, j), n_modes=n)


def balanced_mix(a: np.ndarray, i, j):
    """Rows (i, j) of a -> (c a_i - s a_j, s a_i + c a_j) in place, c, s =
    cos, sin(pi/4): the 50:50 beamsplitter B(pi/4) on the q (or p) rows.

    i and j may be index arrays or slices of disjoint pairs.  On a.T it mixes columns,
    so the orthogonal congruence Z -> O Z O^T is one call on Z and one on Z.T.
    """
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    a[i], a[j] = c * a[i] - s * a[j], s * a[i] + c * a[j]


def gate_cz(g: float, i: int, j: int, n: int) -> SymplecticGate:
    """Controlled-Z exp(i g q_i q_j): p_i += g q_j, p_j += g q_i."""
    blk = np.eye(4)
    blk[2, 1] = g
    blk[3, 0] = g
    return SymplecticGate(blk, modes=(i, j), n_modes=n)


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


def _gate_rows(z: np.ndarray, gate: SymplecticGate):
    """(P, Q): the gate's rows of A + B Z.  P = A_k + B_k Z[m, m] (k x k) at
    its own columns m, and Q = B_k Z[m] (k x n) with those columns zeroed."""
    k, m = len(gate.modes), gate.index[:len(gate.modes)]
    q = gate.block[:k, k:] @ z[m]
    p = gate.block[:k, :k] + q[:, m]
    q[:, m] = 0
    return p, q


def _cond(p: np.ndarray, q: np.ndarray) -> float:
    """Exact 2-norm cond of [[P, Q], [0, I]] from a matrix of size <= 2k.

    The singular values depend on Q only through Q Q^H, so Q may give way
    to X = R^H from the k x k R factor of Q^H; the singular values of 1
    this adds or drops cannot change the cond, as the matrix and its
    inverse both contain identity rows.  With no other modes (k = n) there
    are none, and the cond is that of P.  Q = 0, as for a gate with no B
    part, needs no R.
    """
    k = len(p)
    m = np.eye(2 * k if q.shape[1] > k else k, dtype=p.dtype)
    m[:k, :k] = p
    if q.any():
        m[:k, k:] = np.linalg.qr(q.conj().T, mode="r").conj().T
    return np.linalg.cond(m)


def local_update(z: np.ndarray, gate: SymplecticGate) -> np.ndarray:
    """Z' = (C + D Z)(A + B Z)^-1 in O(n^2 k), behind the exact cond guard.

    N = C + D Z is a copy of Z with the gate's k rows m replaced by
    D_k Z[m] + C_k.  With the gate's modes first, A + B Z = [[P, Q], [0, I]],
    so the gate's columns of Z' are X = N[:, m] P^-1, one k x k solve, and
    the others N[:, rest] - X Q, a step taken only when Q is nonzero; at
    k = n this is the dense solve itself.  The result is neither
    symmetrized nor checked.
    """
    k, m = len(gate.modes), gate.index[:len(gate.modes)]
    p, q = _gate_rows(z, gate)
    _check_cond(_cond(p, q))
    rows = gate.block[k:, k:] @ z[m]
    rows[:, m] += gate.block[k:, :k]
    out = z.copy()
    out[m] = rows
    x = np.linalg.solve(p.T, out[:, m].T).T
    if q.any():
        out -= x @ q            # q is zero at the gate's own columns
    out[:, m] = x
    return out


def apply(state: GraphState, gate: SymplecticGate) -> GraphState:
    """Apply a gate: Z' = (C + D Z)(A + B Z)^-1, mean' = S mean + d."""
    if gate.n_modes != state.n_modes:
        raise GraphStateError(
            f"gate acts on {gate.n_modes} modes, state has {state.n_modes}")
    mean = state.mean.copy()
    idx = gate.index
    mean[idx] = gate.block @ mean[idx] + gate.disp
    return GraphState(local_update(state.z, gate), mean)


def _check_cond(cond: float):
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise GraphStateError(
            f"graph update is ill-conditioned (cond(A + B Z) = {cond:.3e})")


def covariance(state: GraphState) -> np.ndarray:
    """Quadrature covariance matrix of the pure state.

    With Z = X + iY this is (1/2) [[Y^-1, Y^-1 X], [X Y^-1, Y + X Y^-1 X]];
    it satisfies the purity condition (Sigma Omega)^2 = -I/4.
    """
    x, y = state.z.real, state.z.imag
    yi = np.linalg.inv(y)
    sig = 0.5 * np.block([[yi, yi @ x], [x @ yi, y + x @ yi @ x]])
    return (sig + sig.T) / 2

