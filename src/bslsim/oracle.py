"""Brute-force position-space wavefunction engine on uniform grids (1-2 modes).

This is the independent verifier for everything the Gaussian graph engine
cannot represent: cubic-phase gates, gate-teleportation gadgets and their
closed forms.  All operations are implemented with exactly unitary grid
primitives:

* rotations use the identity R(phi) = e^{-i phi/2} P(tan(phi/2))
  M(-sin(phi)) P(tan(phi/2)) (quadratic phase, momentum-space quadratic
  phase, quadratic phase), with parity handling angles beyond |phi| <= pi/2;
* squeezers evaluate the sinc (Fourier) interpolant on a rescaled grid with
  a zoom FFT, in q for r >= 0 and in p for r < 0, so the chirp rate stays
  below Nyquist in both directions;
* the two-mode beamsplitter is a coordinate-plane rotation built from three
  FFT shears (no polynomial interpolation);
* shifts and all q-diagonal gates are exact phase multiplies.

Every p-diagonal operator (X shifts, the p-quadratic step of rotations,
beamsplitter shears, the p field of ``moments``) is one FFT, one in-place
phase multiply in FFT order and one in-place inverse FFT (``_p_diag``).  The
centring signs and scale factors of ``_centred_fft`` cancel exactly around a
diagonal multiply, so only ``squeeze`` keeps the centred spectrum.  The
beamsplitter's shear tables exp(i lam p (x) q) never change for a given gain
and grid, so the last 8 are cached read-only (``_two_mode_phase``), each
built once per process even when pool threads miss it together; a table of
P^2 complex values takes 1 MiB at P = 256 and 256 MiB at 4096.

A slice reads only 4 grid lines of a two-mode state, so the steps of
``identities`` that end in one compute only those lines.
``beamsplitter_slice`` (attach a mode, beamsplitter, then slice; the
teleportation step) computes 4 q_1 columns.  ``cz_slice`` (attach a mode,
C_Z, then the p(theta) slice of the attached mode; the shear step) forms no
two-mode grid at all: each of the 4 lines is one length-P chirp-z transform
of the attached mode (``_bluestein``), the zoom FFT of ``squeeze``.  The
full-grid gates ``rotate``/``beamsplitter``/``cz`` followed by
``project_q`` are their test reference, and ``project_p_theta`` is rotate,
then ``project_q``.  Both sides share the angle reduction and shear
parameters (``rotation_plan``, ``beamsplitter_plan``) and the slice's window
check and cubic weights (``slice_window``, ``interpolate_lines``);
``idft_columns`` evaluates an inverse DFT at a few columns.

Grid: P points per mode at spacing 2L/P, q_n = (n - P/2) * 2L/P.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

SQ2PI = np.sqrt(2 * np.pi)

#: default half-extent and points per mode
DEFAULT_L = 12.0
DEFAULT_POINTS = 512
#: most points per mode: a two-mode grid of 4096^2 complex values takes 256 MiB
MAX_POINTS = 4096
#: largest half extent L: the largest phase the verifiers form is the cubic
#: gate's chi q^3 / 3 at the grid's edge |q| = L, and q^3 overflows from
#: L = 5.6e102, so every phase stays finite up to here on any grid
MAX_HALF_EXTENT = 1e100
#: smallest half extent L: the momenta reach pi P / (2 L), and a scan of the
#: suites and the device-range extremes on every allowed P first warned at
#: L = 3.9e-150 (a wave function whose norm underflowed to 0 is divided by
#: it); the floor leaves 50 decades for parameters the scan did not try
MIN_HALF_EXTENT = 1e-100


class GridError(ValueError):
    """Raised when a state does not fit its grid or grids are incompatible."""


def check_points(points: int) -> int:
    """points if it is a power of two in [4, MAX_POINTS], else a GridError.

    Called where a grid size enters, before anything is allocated on it.
    """
    if points < 4 or points & (points - 1) or points > MAX_POINTS:
        raise GridError(f"grid points per mode must be a power of two in "
                        f"[4, {MAX_POINTS}], got {points}")
    return points


def check_half_extent(half_extent: float):
    """A GridError unless half_extent is in [MIN_HALF_EXTENT,
    MAX_HALF_EXTENT]; a NaN is refused too.

    Called where a grid enters, before anything is allocated on it.
    """
    if not MIN_HALF_EXTENT <= half_extent <= MAX_HALF_EXTENT:
        raise GridError(f"half extent L must be in [{MIN_HALF_EXTENT:g}, "
                        f"{MAX_HALF_EXTENT:g}], got {half_extent}")


def q_axis(half_extent: float, points: int) -> np.ndarray:
    return (np.arange(points) - points // 2) * (2 * half_extent / points)


def squeezed_amplitude(r: float):
    """q -> <q|S(r)|0>, the Gaussian with <q^2> = e^{2r}/2."""
    def amplitude(q):
        return (np.pi * np.exp(2 * r)) ** -0.25 * np.exp(-0.5 * np.exp(-2 * r) * q ** 2)
    return amplitude


def cubic_phase_amplitude(chi: float, r_env: float):
    """q -> e^{i chi q^3 / 3} <q|S(r_env)|0>, the cubic-phase state
    regularized by a Gaussian envelope of squeezing r_env."""
    envelope = squeezed_amplitude(r_env)

    def amplitude(q):
        return np.exp(1j * chi / 3 * q ** 3) * envelope(q)
    return amplitude


def p_axis(half_extent: float, points: int) -> np.ndarray:
    dq = 2 * half_extent / points
    return (np.arange(points) - points // 2) * (2 * np.pi / (points * dq))


def _p_fft(half_extent: float, points: int) -> np.ndarray:
    """p_axis in FFT order (zero momentum first), the order of np.fft.fft."""
    return np.fft.ifftshift(p_axis(half_extent, points))


def _p_diag(psi: np.ndarray, ax: int, phase: np.ndarray) -> np.ndarray:
    """Apply the p-diagonal operator `phase`, given in FFT order, along `ax`.

    Equals the inverse _centred_fft of _centred_fft(psi) * D for D the same
    function on the centred p axis: the centring signs square to 1 and the
    scale factors multiply to 1.
    """
    work = np.fft.fft(psi, axis=ax)
    work *= phase
    return np.fft.ifft(work, axis=ax, out=work)


@functools.lru_cache(maxsize=8)
def _shear_table(g: float, half_extent: float, shape: tuple,
                 p_ax: int) -> np.ndarray:
    x = [q_axis(half_extent, points) for points in shape]
    x[p_ax] = _p_fft(half_extent, shape[p_ax])
    table = np.exp(1j * g * x[0][:, None] * x[1][None, :])
    table.flags.writeable = False
    return table


_SHEAR_TABLE_LOCK = threading.Lock()


def _two_mode_phase(g: float, half_extent: float, shape: tuple,
                    p_ax: int) -> np.ndarray:
    """Read-only exp(i g x_0 (x) x_1) on a 2-mode grid of this shape.

    x is q on each axis, except on axis `p_ax`, where it is p in FFT order.
    Cached (``_shear_table``): the beamsplitter shears only read the table.
    The lock makes threads that miss one key together wait for a single
    build instead of each building a P x P copy.
    """
    with _SHEAR_TABLE_LOCK:
        return _shear_table(g, half_extent, shape, p_ax)


def _centred_fft(psi: np.ndarray, half_extent: float, ax: int,
                 inverse: bool = False) -> np.ndarray:
    """Centred transform along ax to psi~(p) = (2pi)^{-1/2} int psi(q)
    e^{-ipq} dq, or, if inverse, from psi~(p) back to psi(q)."""
    points = psi.shape[ax]
    dq = 2 * half_extent / points
    shape = [1] * psi.ndim
    shape[ax] = points
    sg = ((-1.0) ** np.arange(points)).reshape(shape)
    ph = (-1.0) ** (points // 2)
    if inverse:
        dp = 2 * np.pi / (points * dq)
        return np.fft.ifft(psi * sg, axis=ax) * sg * (dp * points / SQ2PI) * ph
    return np.fft.fft(psi * sg, axis=ax) * sg * (dq / SQ2PI) * ph


def cubic_weights(w):
    """Cubic Lagrange weights on grid lines -1, 0, 1, 2 at offset w in [0, 1).

    Returns (line offset, weight) pairs; w may be an array.
    """
    return ((-1, -w * (w - 1) * (w - 2) / 6),
            (0, (w * w - 1) * (w - 2) / 2),
            (1, -w * (w + 1) * (w - 2) / 2),
            (2, w * (w * w - 1) / 6))


def slice_window(points: int, half_extent: float, m: float):
    """(i0, cubic weights) of the slice q = m on one axis of a grid.

    The slice reads grid lines i0 - 1 .. i0 + 2; a value whose lines leave
    the grid raises a GridError.
    """
    x = m / (2 * half_extent / points) + points // 2
    if not 1 <= x <= points - 3:
        raise GridError(f"projection value {m} outside the grid window")
    i0 = int(np.floor(x))
    return i0, cubic_weights(x - i0)


def interpolate_lines(lines: np.ndarray, weights) -> np.ndarray:
    """The slice from the 4 grid lines it reads, the rows of `lines`."""
    out = np.zeros(lines.shape[1], dtype=complex)
    for k, cf in weights:
        out += cf * lines[k + 1]
    return out


def idft_columns(points: int, at: np.ndarray) -> np.ndarray:
    """P x len(at) kernel K with work @ K = ifft(work, axis=-1)[..., at].

    The phase is taken from the integer (k l) mod P, so it keeps full
    precision at any grid size.
    """
    kl = np.outer(np.arange(points), at) % points
    return np.exp(2j * np.pi / points * kl) / points


def beamsplitter_plan(shape: tuple, theta: float):
    """(quarter turns, shear gains) of B_01(theta) on a grid of this shape.

    The angle is reduced by exact quarter turns to |phi| <= pi/4; the rest
    is the shears (a, axis 0), (b, axis 1), (a, axis 0) with gains (a, b),
    or None when phi is 0.  Raises the beamsplitter's GridErrors.
    """
    if len(shape) != 2:
        raise GridError("beamsplitter needs a 2-mode state")
    if shape[0] != shape[1]:
        raise GridError("beamsplitter needs a square grid")
    t = float(np.mod(-theta, 2 * np.pi))
    k = int(np.round(t / (np.pi / 2))) % 4
    phi = t - np.round(t / (np.pi / 2)) * (np.pi / 2)
    if abs(phi) <= 1e-13:
        return k, None
    return k, (-np.tan(phi / 2), np.sin(phi))


def rotation_plan(theta: float):
    """(parity, shears) of R(theta) = e^{-i phi/2} P(t) M(s) P(t).

    The angle is reduced to |phi| <= pi/2, with a parity first when that
    takes a half turn; shears is (t, s, phi) with t = tan(phi/2) and
    s = -sin(phi), or None when phi is 0.
    """
    phi = float(np.mod(theta, 2 * np.pi))
    parity = np.pi / 2 < phi <= 3 * np.pi / 2
    if parity:
        phi -= np.pi
    elif phi > 3 * np.pi / 2:
        phi -= 2 * np.pi
    if abs(phi) < 1e-13:
        return parity, None
    return parity, (np.tan(phi / 2), -np.sin(phi), phi)


def _bluestein(x: np.ndarray, a: float) -> np.ndarray:
    """y_m = sum_n x_n exp(i a (m - P/2)(n - P/2)) along the last axis."""
    points = x.shape[-1]
    idx = np.arange(points) - points // 2
    c = np.exp(0.5j * a * idx * idx)
    u = x * c
    k = np.arange(-points + 1, points)
    kern = np.exp(-0.5j * a * k * k)
    # a circular length of 2P >= 2P - 1 leaves the P kept outputs unaliased
    nfft = 2 * points
    conv = np.fft.ifft(np.fft.fft(u, nfft, axis=-1)
                       * np.fft.fft(kern, nfft), axis=-1)
    return c * conv[..., points - 1:2 * points - 1]


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a centered uniform grid, one or two modes.

    Immutable: every gate returns a new instance.  Norm is not implicitly
    fixed; projections return unnormalized states by design.
    """

    psi: np.ndarray
    half_extent: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.ndim not in (1, 2):
            raise GridError("only 1- or 2-mode wavefunctions are supported")
        check_half_extent(self.half_extent)
        for points in psi.shape:
            check_points(points)
        object.__setattr__(self, "psi", psi)

    # -- structure ---------------------------------------------------------

    @property
    def n_modes(self) -> int:
        return self.psi.ndim

    @property
    def dq(self) -> float:
        return 2 * self.half_extent / self.psi.shape[-1]

    def q(self, mode: int = 0) -> np.ndarray:
        return q_axis(self.half_extent, self.psi.shape[mode])

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.psi, self.psi).real
                             * self.dq ** self.n_modes))

    def normalized(self) -> "WaveFunction":
        norm = self.norm()
        if not norm > 0:
            raise GridError("cannot normalize a state of zero norm")
        return WaveFunction(self.psi / norm, self.half_extent)

    def boundary_mass(self, frac: float = 0.9) -> float:
        """Probability mass outside |q| > frac * L on any axis."""
        rho = (self.psi.conj() * self.psi).real
        total = rho.sum()
        if not total > 0:
            raise GridError("a state of zero norm has no boundary mass")
        inside = [np.abs(self.q(ax)) <= frac * self.half_extent
                  for ax in range(self.n_modes)]
        return float(1.0 - rho[np.ix_(*inside)].sum() / total)

    # -- single-mode gates ---------------------------------------------------

    def _q_of(self, mode: int) -> np.ndarray:
        shape = [1] * self.n_modes
        shape[mode] = self.psi.shape[mode]
        return q_axis(self.half_extent, self.psi.shape[mode]).reshape(shape)

    def _p_of(self, mode: int) -> np.ndarray:
        """Momenta of one mode in FFT order, shaped to broadcast (for _p_diag)."""
        shape = [1] * self.n_modes
        shape[mode] = self.psi.shape[mode]
        return _p_fft(self.half_extent, self.psi.shape[mode]).reshape(shape)

    def z_shift(self, t: float, mode: int = 0) -> "WaveFunction":
        """Z(t) = exp(i t q)."""
        return WaveFunction(self.psi * np.exp(1j * t * self._q_of(mode)),
                            self.half_extent)

    def x_shift(self, s: float, mode: int = 0) -> "WaveFunction":
        """X(s) = exp(-i s p): psi(q) -> psi(q - s)."""
        phase = np.exp(-1j * s * self._p_of(mode))
        return WaveFunction(_p_diag(self.psi, mode, phase), self.half_extent)

    def shear(self, sigma: float, mode: int = 0) -> "WaveFunction":
        """P(sigma) = exp(i sigma q^2 / 2)."""
        qv = self._q_of(mode)
        return WaveFunction(self.psi * np.exp(0.5j * sigma * qv * qv),
                            self.half_extent)

    def kubic(self, chi: float, mode: int = 0) -> "WaveFunction":
        """Cubic-phase gate K(chi) = exp(i chi q^3 / 3)."""
        qv = self._q_of(mode)
        return WaveFunction(self.psi * np.exp(1j * chi / 3 * qv ** 3),
                            self.half_extent)

    def _p_shear(self, s: float, mode: int) -> "WaveFunction":
        """exp(-i s p^2 / 2)."""
        pv = self._p_of(mode)
        phase = np.exp(-0.5j * s * pv * pv)
        return WaveFunction(_p_diag(self.psi, mode, phase), self.half_extent)

    def _parity(self, mode: int) -> "WaveFunction":
        out = np.flip(self.psi, axis=mode)
        out = np.roll(out, 1, axis=mode)  # centered grid: q_n -> -q_n
        return WaveFunction(out, self.half_extent)

    def rotate(self, theta: float, mode: int = 0) -> "WaveFunction":
        """R(theta) = exp(i theta a^dag a), exact global phase included."""
        parity, shears = rotation_plan(theta)
        out = self._parity(mode) if parity else self
        if shears is None:
            return out
        t, s, phi = shears
        out = out.shear(t, mode)._p_shear(s, mode).shear(t, mode)
        return WaveFunction(out.psi * np.exp(-0.5j * phi), self.half_extent)

    def squeeze(self, r: float, mode: int = 0) -> "WaveFunction":
        """S(r): psi(q) -> e^{-r/2} psi(e^{-r} q), exact sinc interpolation."""
        points = self.psi.shape[mode]
        dq = 2 * self.half_extent / points
        dp = 2 * np.pi / (points * dq)
        if r >= 0:
            moved = np.moveaxis(_centred_fft(self.psi, self.half_extent, mode),
                                mode, -1)
            zoom = _bluestein(moved, dp * dq * np.exp(-r))
            out = np.moveaxis(zoom, -1, mode) * (dp / SQ2PI) * np.exp(-r / 2)
            return WaveFunction(out, self.half_extent)
        # r < 0: psi~'(p) = e^{r/2} psi~(e^r p)
        moved = np.moveaxis(self.psi, mode, -1)
        zoom = _bluestein(moved, -dp * dq * np.exp(r))
        pp = np.moveaxis(zoom, -1, mode) * (dq / SQ2PI) * np.exp(r / 2)
        return WaveFunction(_centred_fft(pp, self.half_extent, mode, True),
                            self.half_extent)

    # -- two-mode gates ------------------------------------------------------

    def _shear_between(self, lam: float, shear_ax: int) -> "WaveFunction":
        """Coordinate shear q_shear -> q_shear + lam * q_other (FFT phase)."""
        table = _two_mode_phase(lam, self.half_extent, self.psi.shape, shear_ax)
        return WaveFunction(_p_diag(self.psi, shear_ax, table), self.half_extent)

    def _quarter_turn(self) -> "WaveFunction":
        """Exact grid permutation matching one +pi/2 step of the shear path."""
        points = self.psi.shape[0]
        idx = (points - np.arange(points)) % points
        return WaveFunction(self.psi[idx, :].T, self.half_extent)

    def beamsplitter(self, theta: float = np.pi / 4) -> "WaveFunction":
        """B_01(theta): coordinate rotation psi(q) -> psi(B^T q).

        Exact quarter turns reduce the angle to |phi| <= pi/4, the rest is
        three FFT shears; exactly unitary on the torus for any theta.
        """
        k, gains = beamsplitter_plan(self.psi.shape, theta)
        out = self
        for _ in range(k):
            out = out._quarter_turn()
        if gains is not None:
            a, b = gains
            out = out._shear_between(a, 0)
            out = out._shear_between(b, 1)
            out = out._shear_between(a, 0)
        return out

    def _check_factors(self, other: "WaveFunction", name: str,
                       square: bool = False):
        """Refuse factors of self (x) other that are not two 1-mode states
        on grids of one half extent, and, if square, of one size."""
        if self.n_modes != 1 or other.n_modes != 1:
            raise GridError(f"{name} takes two 1-mode states")
        if self.half_extent != other.half_extent:
            raise GridError("grids must share the half extent")
        if square and self.psi.shape != other.psi.shape:
            raise GridError(f"{name} needs a square grid")

    def beamsplitter_slice(self, other: "WaveFunction", m: float,
                           theta: float = np.pi / 4) -> "WaveFunction":
        """self (x) other through B_01(theta), then the slice q_1 = m.

        Computes only the 4 q_1 columns the slice reads.  The quarter turns
        act on the two factors (a turn maps a (x) b to b (x) parity(a)); the
        first shear starts from fft(a) (x) b, the product state's FFT along
        q_0; the second is inverted at the 4 columns alone, through a P x 4
        inverse-DFT kernel; the last transforms each q_1 column on its own,
        so it runs on the 4 columns only.  The full-grid
        self.product(other).beamsplitter(theta).project_q(1, m) is the test
        reference.
        """
        self._check_factors(other, "beamsplitter_slice")
        half, a, b = self.half_extent, self.psi, other.psi
        k, gains = beamsplitter_plan((len(a), len(b)), theta)
        i0, weights = slice_window(len(b), half, m)
        at = np.arange(i0 - 1, i0 + 3)
        for _ in range(k):
            a, b = b, WaveFunction(a, half)._parity(0).psi
        if gains is None:
            return WaveFunction(interpolate_lines(np.outer(a, b[at]).T, weights),
                                half)
        ga, gb = gains
        work = np.outer(np.fft.fft(a), b)
        shear_a = _two_mode_phase(ga, half, work.shape, 0)
        work *= shear_a
        np.fft.ifft(work, axis=0, out=work)
        np.fft.fft(work, axis=1, out=work)
        work *= _two_mode_phase(gb, half, work.shape, 1)
        lines = _p_diag(work @ idft_columns(len(b), at), 0, shear_a[:, at])
        return WaveFunction(interpolate_lines(lines.T, weights), half)

    def cz_slice(self, other: "WaveFunction", g: float, theta: float,
                 m: float) -> "WaveFunction":
        """self (x) other through C_Z(g), then the p(theta) = m slice of other.

        Returns the self mode without forming the two-mode grid.  The slice
        is project_p_theta's: rotate other by theta - pi/2 (shears t, s and
        phase phi of rotation_plan) and read 4 q lines.  The rotation is
        linear in other, so read line k, at self's q_i, is self_i
        e^{i t q_k^2/2 - i phi/2} sum_j o_j e^{i t q_j^2/2} H_jk
        e^{i g q_i q_j} for o = other.psi, where column k of
        H = fft(e^{-i s p^2/2} K) carries the momentum shear to line k (K the
        P x 4 inverse-DFT kernel; with no shear, t = s = phi = 0 and H is
        the unit columns).  A parity permutes H's rows instead of the state.  The sum
        over j is a chirp-z transform in q_i (``_bluestein``), one of
        length P per read line.  The full-grid
        self.product(other).cz(g).project_p_theta(1, theta, m) is the test
        reference.
        """
        self._check_factors(other, "cz_slice", square=True)
        half, points = self.half_extent, len(other.psi)
        i0, weights = slice_window(points, half, m)
        at = np.arange(i0 - 1, i0 + 3)
        parity, shears = rotation_plan(theta - np.pi / 2)
        t, s, phi = shears or (0.0, 0.0, 0.0)
        q, p = q_axis(half, points), _p_fft(half, points)
        kern = np.fft.fft(np.exp(-0.5j * s * p * p)[:, None]
                          * idft_columns(points, at), axis=0)
        if parity:
            kern = kern[(points - np.arange(points)) % points]
        chirped = other.psi * np.exp(0.5j * t * q * q)
        lines = _bluestein(chirped[None, :] * kern.T, g * self.dq ** 2)
        lines *= self.psi
        lines *= (np.exp(0.5j * t * q[at] ** 2) * np.exp(-0.5j * phi))[:, None]
        return WaveFunction(interpolate_lines(lines, weights), half)

    def cz(self, g: float) -> "WaveFunction":
        """C_Z(g) = exp(i g q_1 q_2) on the full grid; cz_slice's reference."""
        if self.n_modes != 2:
            raise GridError("cz needs a 2-mode state")
        q0, q1 = self.q(0), self.q(1)
        table = np.exp(1j * g * q0[:, None] * q1[None, :])
        return WaveFunction(self.psi * table, self.half_extent)

    # -- measurement ---------------------------------------------------------

    def project_q(self, mode: int, m: float) -> "WaveFunction":
        """Slice at q_mode = m (4-point interpolation); unnormalized result."""
        if self.n_modes != 2:
            raise GridError("project_q needs a 2-mode state")
        i0, weights = slice_window(self.psi.shape[mode], self.half_extent, m)
        lines = np.moveaxis(self.psi, mode, 0)[i0 - 1:i0 + 3]
        return WaveFunction(interpolate_lines(lines, weights), self.half_extent)

    def project_p_theta(self, mode: int, theta: float, m: float) -> "WaveFunction":
        """Project onto the p(theta) = m eigenstate of one mode.

        Uses p(theta) = q(theta - pi/2): rotate on the full grid, then
        slice.  With cz, it is cz_slice's two-mode reference.
        """
        if self.n_modes != 2:
            raise GridError("project_p_theta needs a 2-mode state")
        return self.rotate(theta - np.pi / 2, mode).project_q(mode, m)

    # -- moments -------------------------------------------------------------

    def moments(self):
        """Grid means and covariance in the (q..., p...) ordering.

        q-only entries come from the marginal densities; entries with a p
        are np.vdot inner products of the centred fields.
        """
        n = self.n_modes
        rho = (self.psi.conj() * self.psi).real
        total = rho.sum()
        if not total > 0:
            raise GridError("a state of zero norm has no moments")
        marg = [rho] if n == 1 else [rho.sum(axis=1), rho.sum(axis=0)]
        mean = np.zeros(2 * n)
        pfield = []
        for ax in range(n):
            mean[ax] = marg[ax] @ self.q(ax) / total
            pfield.append(_p_diag(self.psi, ax, self._p_of(ax)))
            mean[n + ax] = np.vdot(self.psi, pfield[ax]).real / total
        cq = [self._q_of(ax) - mean[ax] for ax in range(n)]
        cp = [pfield[ax] - mean[n + ax] * self.psi for ax in range(n)]
        cov = np.zeros((2 * n, 2 * n))
        for a in range(n):
            cov[a, a] = marg[a] @ cq[a].ravel() ** 2 / total
            qpsi = cq[a] * self.psi
            for b in range(n):
                cov[a, n + b] = np.vdot(qpsi, cp[b]).real / total
                cov[n + b, a] = cov[a, n + b]
                cov[n + a, n + b] = np.vdot(cp[a], cp[b]).real / total
        if n == 2:
            cov[0, 1] = cov[1, 0] = cq[0].ravel() @ rho @ cq[1].ravel() / total
        return mean, cov

    # -- constructors ----------------------------------------------------------

    @classmethod
    def vacuum(cls, half_extent: float, points: int, q0: float = 0.0,
               p0: float = 0.0) -> "WaveFunction":
        q = q_axis(half_extent, points)
        psi = np.pi ** -0.25 * np.exp(-0.5 * (q - q0) ** 2 + 1j * p0 * q)
        return cls(psi, half_extent)

    @classmethod
    def squeezed(cls, r: float, half_extent: float,
                 points: int) -> "WaveFunction":
        """S(r)|0>, squeezed_amplitude(r) on the grid."""
        return cls(squeezed_amplitude(r)(q_axis(half_extent, points)),
                   half_extent)

    @classmethod
    def cubic_phase(cls, chi: float, r_env: float, half_extent: float,
                    points: int) -> "WaveFunction":
        """Cubic-phase state regularized by a Gaussian envelope of squeezing
        r_env, cubic_phase_amplitude(chi, r_env) on the grid."""
        return cls(cubic_phase_amplitude(chi, r_env)(q_axis(half_extent, points)),
                   half_extent)

    @classmethod
    def from_graphstate(cls, state, half_extent: float,
                        points: int) -> "WaveFunction":
        """Sample a 1- or 2-mode GraphState wavefunction on the grid."""
        n = state.n_modes
        if n not in (1, 2):
            raise GridError("grids support only 1 or 2 modes")
        mq, mp = state.mean[:n], state.mean[n:]
        det = np.linalg.det(state.z.imag)
        if n == 1:
            q = q_axis(half_extent, points)[:, None] - mq
        else:
            qa = q_axis(half_extent, points)
            q = np.stack(np.meshgrid(qa - mq[0], qa - mq[1], indexing="ij"),
                         axis=-1).reshape(-1, 2)
        quad = np.einsum("ni,ij,nj->n", q, state.z, q)
        psi = (det ** 0.25 / np.pi ** (n / 4)
               * np.exp(0.5j * quad + 1j * q @ mp))
        shape = (points,) if n == 1 else (points, points)
        return cls(psi.reshape(shape), half_extent)

    def product(self, other: "WaveFunction") -> "WaveFunction":
        """Two-mode product state self (x) other."""
        self._check_factors(other, "product")
        return WaveFunction(np.outer(self.psi, other.psi), self.half_extent)


def fidelity_up_to_phase(a: WaveFunction, b: WaveFunction) -> float:
    """|<a|b>| / (|a||b|) on the common grid; 0 if either vector is zero.

    Each vector is first divided by its largest modulus, so the squared
    norms are at least 1: unscaled, an L case at r = 150 compares states of
    squared norm 3e-195 and 3.5e-130, whose product underflows to 0.
    """
    if a.psi.shape != b.psi.shape or a.half_extent != b.half_extent:
        raise GridError("wavefunctions live on different grids")
    top_a, top_b = np.abs(a.psi).max(), np.abs(b.psi).max()
    if not (top_a > 0 and top_b > 0):
        return 0.0
    u, v = a.psi / top_a, b.psi / top_b
    num = abs(np.vdot(u, v))
    return float(num / np.sqrt(np.vdot(u, u).real * np.vdot(v, v).real))
