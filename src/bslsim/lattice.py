"""Temporal-mode construction of the bilayer square lattice cluster state.

Circuit model (one time bin = four fresh modes on rails 0..3):

1. all four rails carry momentum-squeezed vacua S(r)|0>;
2. rails (0,1) and (2,3) are fused into two-mode cluster pairs
   (R(pi/2) on the first rail, 50:50 beamsplitter, R(-pi/4) on both);
3. a 50:50 beamsplitter between rails 0 and 2 turns the two pairs into a
   four-mode square;
4. rail 1 enters the one-bin delay loop and meets rail 0 of the next bin on
   a 50:50 beamsplitter; rail 3 enters the N-bin delay loop and meets rail 2
   of bin t+N the same way.

Delays are realized as static re-indexing: mode id = 4 t + rail, and the
delay beamsplitters couple existing modes of different bins.  Couplings that
would reference bins before the start of the run are skipped (open boundary).

Steps 1 and 2 act on fresh modes and give the pairs Z = i sech(2r) I +
tanh(2r) V0, V0 joining modes (2k, 2k+1); `schedule` lists the joining
beamsplitters of steps 3 and 4.  Each is a phase-free interferometer, so the
lattice is exactly Z(r) = i sech(2r) I + tanh(2r) V with V = O V0 O^T, real,
self-inverse and trace-free.  The CLI and "bsl" programs build that form
from `ideal_graph`'s V; `build_bsl`, which runs `schedule` through the
Mobius update `apply`, is the dense reference.

Detector bookkeeping follows from one table, `LatticeConfig.rails`: the
detector each rail reaches and its delay in bins, so a mode is measured at
its bin plus its rail's delay.  A macronode is rails (2k, 2k+1), the two
modes that meet on one delay-line beamsplitter and reach their detectors in
the same bin tau: "bc" (b: rail0@tau, c: rail1@tau-1) is consumed by
wire-deletion measurements; chains of "xa" (x: rail2@tau, a: rail3@tau-N)
macronodes along steps of N (fixed row = tau mod N) are the quantum wires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphstate import (GraphState, GraphStateError, apply, balanced_mix,
                         gate_beamsplitter)

#: largest supported lattice squeezing.  The CLI's lattice witness and samples
#: are closed forms in (V, r) and factor nothing; the limit that remains is
#: the dense reference they are tested against: phi_transform of a built
#: lattice (cond e^{2r}) leaves Im Z indefinite from r = 9.25 (2 x 3 to
#: 6 x 6), while the built lattice itself stays definite up to r = 16.25.
R_MAX_LATTICE = 8.0
#: largest supported wire squeezing; the wire's self-loops i sech(2r) reach
#: the 1e-14 definiteness threshold of GraphState at r = 16.45
R_MAX_WIRE = 15.0
#: largest resource, in modes: a dense complex graph of 8192 modes takes 1 GiB
MAX_MODES = 8192


def _check_modes(n_modes: int, what: str):
    """Refuse a resource too large for memory before anything is allocated."""
    if n_modes > MAX_MODES:
        raise GraphStateError(
            f"{what} is above the limit of {MAX_MODES} modes")


class LatticeCoord(NamedTuple):
    row: int
    col: int
    site: str      # "xa" | "bc"
    member: str    # "alpha" | "beta"
    mode: int


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice size and squeezing, N rows (long-delay length) and M columns,
    and the bijection between temporal modes, detectors and lattice
    coordinates that the rail table defines."""

    n_rows: int
    m_cols: int
    r: float = 1.0

    def __post_init__(self):
        if self.n_rows < 2 or self.m_cols < 1:
            raise GraphStateError("need N >= 2 rows and M >= 1 columns")
        if not 0 < self.r <= R_MAX_LATTICE:
            raise GraphStateError(
                f"squeezing r must be in (0, {R_MAX_LATTICE}] for the lattice, "
                f"got {self.r}")
        _check_modes(self.n_modes, f"the {self.n_rows} x {self.m_cols} "
                                   f"lattice ({self.n_modes} modes)")

    @property
    def bins(self) -> int:
        return self.n_rows * self.m_cols

    @property
    def n_modes(self) -> int:
        return 4 * self.bins

    @property
    def rails(self) -> tuple:
        """(detector, delay in bins) per rail of a time bin: rail 1 takes the
        one-bin loop and rail 3 the N-bin loop."""
        return (("b", 0), ("c", 1), ("x", 0), ("a", self.n_rows))

    def mode_at(self, time_index: int, detector: str):
        """Mode measured at (time_index, detector), or None where none is; in
        O(1), so checking a program costs O(steps) whatever the lattice."""
        for rail, (det, delay) in enumerate(self.rails):
            if det == detector:
                t = time_index - delay
                return 4 * t + rail if 0 <= t < self.bins else None
        return None

    def lookup(self, time_index: int, detector: str) -> LatticeCoord:
        """Lattice coordinate of the mode measured at (time_index, detector)."""
        mode = self.mode_at(time_index, detector)
        if mode is None:
            if all(det != detector for det, _ in self.rails):
                raise KeyError(f"unknown detector {detector!r}")
            raise KeyError(f"no mode is measured at bin {time_index}, "
                           f"detector {detector!r}")
        rail = mode % 4
        first = rail - rail % 2     # the macronode's rails (first, first+1)
        site = self.rails[first][0] + self.rails[first + 1][0]
        member = ("alpha", "beta")[rail % 2]
        n = self.n_rows
        return LatticeCoord(time_index % n, time_index // n, site, member, mode)

    @property
    def coords(self) -> dict:
        """(measured bin, detector) -> mode, bin by bin; a bin's rails in the
        order they reach their detectors."""
        arrival = sorted(enumerate(self.rails), key=lambda x: x[1][1])
        return {(t + delay, det): 4 * t + rail for t in range(self.bins)
                for rail, (det, delay) in arrival}

    def measured_bin(self, mode):
        """Bin at which a mode (int or array) reaches its detector."""
        t, rail = np.divmod(mode, 4)
        return t + np.array([delay for _, delay in self.rails])[rail]

    def bc_sites(self):
        """Measured bins holding a complete deletion (bc) macronode: every
        bin from the first that the delayed c mode reaches."""
        return list(range(dict(self.rails)["c"], self.bins))

    def xa_sites(self):
        return list(range(dict(self.rails)["a"], self.bins))

    def wire_sites(self, row: int):
        """Complete xa macronodes of one wire row, in propagation order."""
        return [t for t in self.xa_sites() if t % self.n_rows == row]

    def deletion_angle(self, time_index: int) -> float:
        """Quadrature angle (-1)^tau pi/4 deleting the bc macronode at bin
        tau: consecutive bins alternate, also across the wrap of odd N."""
        return ((-1) ** time_index) * np.pi / 4


def _pairs(n: int) -> np.ndarray:
    """Graph V0 of the cluster pairs on modes (0, 1), (2, 3), ..."""
    v = np.zeros((n, n))
    first = np.arange(0, n, 2)
    v[first, first + 1] = v[first + 1, first] = 1.0
    return v


def _lattice_state(v: np.ndarray, r: float) -> GraphState:
    """The zero-mean state Z = i sech(2r) I + tanh(2r) V of a real graph V."""
    z = 1j / np.cosh(2 * r) * np.eye(len(v)) + np.tanh(2 * r) * v
    return GraphState(z, np.zeros(2 * len(v)))


def _joins(config: LatticeConfig) -> list:
    """Mode pairs (a, b) of the beamsplitters joining the cluster pairs.

    In circuit order, per bin t: the in-bin (4t, 4t+2), then the delay-line
    beamsplitter of each complete macronode measured at bin t, delayed mode
    first: (c, b), then (a, x).
    """
    pairs = []
    for t in range(config.bins):
        pairs.append((4 * t, 4 * t + 2))
        for alpha, beta in ("bc", "xa"):
            pair = (config.mode_at(t, beta), config.mode_at(t, alpha))
            if None not in pair:
                pairs.append(pair)
    return pairs


def schedule(config: LatticeConfig) -> list:
    """The 50:50 beamsplitters joining the cluster pairs, in circuit order."""
    return [gate_beamsplitter(np.pi / 4, a, b, config.n_modes)
            for a, b in _joins(config)]


def build_bsl(config: LatticeConfig):
    """The dense reference: join the cluster pairs with `apply`, O(n^4) in
    all; returns (GraphState, LatticeConfig).  Each gate is an
    interferometer, so Z = i sech(2r) I + tanh(2r) V holds throughout."""
    state = _lattice_state(_pairs(config.n_modes), config.r)
    for gate in schedule(config):
        state = apply(state, gate)
    return state, config


def _givens_rows(pairs, n: int):
    """The rows of G^T, G the layer of 50:50 Givens rotations on disjoint
    mode pairs (a, b) that `balanced_mix` applies, as two (column, value)
    entries per row: (a, c), (b, s) in row a, (a, -s), (b, c) in row b and
    (i, 1), (i, 0) in a row i off the layer."""
    cols = np.repeat(np.arange(n)[:, None], 2, axis=1)
    vals = np.zeros((n, 2))
    vals[:, 0] = 1.0
    a, b = np.array(pairs, dtype=int).reshape(-1, 2).T
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    cols[a, 1], cols[b, 1] = b, a
    vals[a] = c, s
    vals[b] = c, -s
    return cols, vals


def ideal_graph(config: LatticeConfig) -> np.ndarray:
    """The r-independent graph V of Z(r) = i sech(2r) I + tanh(2r) V.

    Built exactly in real arithmetic: the joining beamsplitters, each a real
    orthogonal Givens rotation acting alike on q and p, map the pair graph
    V0 = P (the swap k <-> k^1) to V = O P O^T.  They form two layers of
    disjoint pairs, the in-bin joins (first mode on rail 0) and then the
    delay-line joins (first mode the delayed rail 1 or 3), so O = O_delay
    O_inbin has at most 4 entries per row and column.  V is the sum over k
    of the outer products of columns k^1 and k of O, scattered in O(n) work
    into an n x n array: each entry gets one product, the one the gate-by-gate
    congruence computes.
    """
    n = config.n_modes
    joins = _joins(config)
    # row k of O^T = O_inbin^T O_delay^T is column k of O
    c1, v1 = _givens_rows([p for p in joins if p[0] % 2 == 0], n)
    c2, v2 = _givens_rows([p for p in joins if p[0] % 2], n)
    cols = c2[c1].reshape(n, 4)
    vals = (v1[:, :, None] * v2[c1]).reshape(n, 4)
    swap = np.arange(n) ^ 1
    flat = cols[swap][:, :, None] * n + cols[:, None, :]
    w = vals[swap][:, :, None] * vals[:, None, :]
    return np.bincount(flat.ravel(), w.ravel(), minlength=n * n).reshape(n, n)


def bulk_modes(config: LatticeConfig):
    """Modes of the complete macronodes: their delay-line beamsplitter was
    not skipped at a boundary."""
    sites = {"bc": config.bc_sites(), "xa": config.xa_sites()}
    return sorted(config.mode_at(t, det) for site, bins in sites.items()
                  for t in bins for det in site)


def _edges(z: np.ndarray):
    """Edges (a, b, Z_ab) with a < b in row-major order.

    An off-diagonal entry is an edge when |Z_ab| > 1e-6 max |off-diagonal|.
    """
    mag = np.abs(z)
    np.fill_diagonal(mag, 0.0)
    a, b = np.nonzero(np.triu(mag > 1e-6 * mag.max(), 1))
    return a, b, z[a, b]


def edge_summary(state: GraphState, config: LatticeConfig) -> dict:
    """Uniformity report: self-loops, bulk edges, magnitude classes, locality."""
    z = state.z
    sech = 1 / np.cosh(2 * config.r)
    selfloop_dev = float(np.abs(np.diag(z) - 1j * sech).max())
    a, b, w = _edges(z)
    all_mags = np.abs(w)
    bulk = np.zeros(state.n_modes, dtype=bool)
    bulk[bulk_modes(config)] = True
    bulk_mags = all_mags[bulk[a] & bulk[b]]
    dt = np.abs(config.measured_bin(a) - config.measured_bin(b))
    local = np.isin(dt, [delay for _, delay in config.rails])
    return {
        "selfloop": sech,
        "selfloop_deviation": selfloop_dev,
        "edges": len(all_mags),
        "bulk_edges": len(bulk_mags),
        "bulk_magnitude": float(bulk_mags.mean()) if len(bulk_mags) else 0.0,
        "bulk_relative_spread": float(np.ptp(bulk_mags) / bulk_mags.mean())
        if len(bulk_mags) else 0.0,
        "magnitude_classes": sorted({round(float(m), 9) for m in all_mags}),
        "nonlocal_edges": int(np.count_nonzero(~local)),
    }


def to_dot(state: GraphState, config: LatticeConfig) -> str:
    """Graphviz rendering of the rounded adjacency, edges colored by sign."""
    modes = np.arange(state.n_modes)
    tau = config.measured_bin(modes)
    lines = ["graph bsl {", "  node [shape=circle fontsize=10];"]
    lines += [f'  m{m} [label="{m}\\nt{tau[m]} r{m % 4}"];' for m in modes]
    lines += [f'  m{a} -- m{b} [color={"blue" if w.real >= 0 else "orange"} '
              f'label="{abs(w):.3f}"];' for a, b, w in zip(*_edges(state.z))]
    lines.append("}")
    return "\n".join(lines)


# -- canonical dual-rail wire (the decoupled-resource idealization) ----------


def canonical_wire(n_sites: int, r: float,
                   input_state: GraphState | None = None) -> GraphState:
    """Dual-rail wire of n_sites macronodes in the physical mode basis.

    Built in the symmetric/antisymmetric slot picture: the head site's "+"
    slot carries the logical input (default: the wire-boundary state with
    graph i sech 2r), each "-" slot forms a cluster pair with the next
    site's "+" slot, and a 50:50 beamsplitter per site maps slots to the
    physical modes (alpha_k = mode 2k, beta_k = mode 2k+1).
    """
    if n_sites < 2:
        raise GraphStateError("a wire needs at least two macronodes")
    if not 0 < r <= R_MAX_WIRE:
        raise GraphStateError(
            f"squeezing r must be in (0, {R_MAX_WIRE}] for a wire, got {r}")
    n = 2 * n_sites
    _check_modes(n, f"a wire of {n_sites} macronodes ({n} modes)")
    sech, tanh = 1 / np.cosh(2 * r), np.tanh(2 * r)
    z = 1j * sech * np.eye(n, dtype=complex)
    mean = np.zeros(2 * n)
    if input_state is not None:
        if input_state.n_modes != 1:
            raise GraphStateError("wire input must be a single-mode state")
        z[0, 0] = input_state.z[0, 0]
        mean[0] = input_state.mean[0]
        mean[n] = input_state.mean[1]
    # pairs (-_k, +_{k+1}): slots 2k+1 and 2(k+1)
    for k in range(n_sites - 1):
        a, b = 2 * k + 1, 2 * k + 2
        z[a, b] = z[b, a] = tanh
    # the site beamsplitters on the slot pairs (2k, 2k+1) form one real
    # orthogonal O that acts alike on q and p: Z -> O Z O^T, each half of
    # the mean -> O half
    for part in (z, z.T, mean[:n], mean[n:]):
        balanced_mix(part, slice(0, n, 2), slice(1, n, 2))
    return GraphState(z, mean)
