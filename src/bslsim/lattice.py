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

Every gate in the circuit is a phase-free interferometer acting identically
on q and p, so the graph keeps the exact form
Z(r) = i sech(2r) I + tanh(2r) V with V orthogonal-conjugated along the way;
V stays self-inverse and trace-free for every lattice size.

Detector bookkeeping (measured bin tau = when a mode hits its detector):

* rails 0 and 2 of bin tau are measured at bin tau; rail 1 of bin tau-1 and
  rail 3 of bin tau-N arrive delayed at bin tau;
* the "bc" macronode of bin tau holds (b: rail0@tau, c: rail1@tau-1) and is
  consumed by wire-deletion measurements;
* the "xa" macronode holds (x: rail2@tau, a: rail3@tau-N); chains of xa
  macronodes along steps of N (fixed row = tau mod N) are the quantum wires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graphstate import (GraphState, GraphStateError, apply, gate_beamsplitter,
                         gate_rotation, gate_squeeze, local_update,
                         squeezed_vacua, vacuum)

DETECTORS = ("x", "a", "b", "c")

#: largest supported lattice squeezing; above it the schedule's roundoff
#: leaves Im Z of the built or quarter-delayed lattice indefinite (first seen
#: at r = 8.75 on 5 x 5 and at r = 9 on 2 x 2 to 4 x 4)
R_MAX_LATTICE = 8.0
#: largest supported wire squeezing; the wire's self-loops i sech(2r) reach
#: the 1e-14 definiteness threshold of GraphState at r = 16.45
R_MAX_WIRE = 15.0


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice size and squeezing: N rows (long-delay length), M columns."""

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

    @property
    def bins(self) -> int:
        return self.n_rows * self.m_cols

    @property
    def n_modes(self) -> int:
        return 4 * self.bins


class ScheduledGate(NamedTuple):
    time: int
    kind: str      # "squeeze" | "rotation" | "beamsplitter"
    modes: tuple
    param: float


class LatticeCoord(NamedTuple):
    row: int
    col: int
    site: str      # "xa" | "bc"
    member: str    # "alpha" | "beta"
    mode: int


@dataclass(frozen=True)
class MacronodeLattice:
    """Bijection between temporal modes, detectors and lattice coordinates."""

    config: LatticeConfig
    #: (measured_bin, detector) -> mode id
    coords: dict = field(repr=False)

    def lookup(self, time_index: int, detector: str) -> LatticeCoord:
        """Lattice coordinate of the mode measured at (time_index, detector)."""
        if detector not in DETECTORS:
            raise KeyError(f"unknown detector {detector!r}")
        key = (time_index, detector)
        if key not in self.coords:
            raise KeyError(f"no mode is measured at bin {time_index}, "
                           f"detector {detector!r}")
        mode = self.coords[key]
        n = self.config.n_rows
        site = "xa" if detector in ("x", "a") else "bc"
        member = "alpha" if detector in ("x", "b") else "beta"
        return LatticeCoord(time_index % n, time_index // n, site, member, mode)

    def mode_at(self, time_index: int, detector: str) -> int:
        return self.lookup(time_index, detector).mode

    def bc_sites(self):
        """Measured bins holding a complete deletion (bc) macronode."""
        return [t for t in range(self.config.bins)
                if (t, "b") in self.coords and (t, "c") in self.coords]

    def xa_sites(self):
        return [t for t in range(self.config.bins)
                if (t, "x") in self.coords and (t, "a") in self.coords]

    def wire_sites(self, row: int):
        """Complete xa macronodes of one wire row, in propagation order."""
        return [t for t in self.xa_sites() if t % self.config.n_rows == row]

    def deletion_angle(self, time_index: int) -> float:
        """Quadrature angle deleting the bc macronode at this bin."""
        return ((-1) ** (time_index % self.config.n_rows)) * np.pi / 4


def _measured_bin(mode: int, n_rows: int) -> int:
    t, rail = divmod(mode, 4)
    return t + (1 if rail == 1 else n_rows if rail == 3 else 0)


def _build_coords(config: LatticeConfig) -> dict:
    coords = {}
    for t in range(config.bins):
        coords[(t, "b")] = 4 * t + 0
        coords[(t, "x")] = 4 * t + 2
        coords[(t + 1, "c")] = 4 * t + 1
        coords[(t + config.n_rows, "a")] = 4 * t + 3
    return coords


def cvcs_pair_gates(i: int, j: int, r: float, n: int):
    """Gate sequence turning squeezed vacua on (i, j) into a cluster pair.

    The resulting two-mode graph is i sech(2r) I + tanh(2r) [[0, 1], [1, 0]].
    """
    return [
        gate_rotation(np.pi / 2, i, n),
        gate_beamsplitter(np.pi / 4, i, j, n),
        gate_rotation(-np.pi / 4, i, n),
        gate_rotation(-np.pi / 4, j, n),
    ]


def build_square(r: float) -> GraphState:
    """Four-mode square cluster state from two pairs and one beamsplitter."""
    state = squeezed_vacua([r, r, r, r])
    for g in cvcs_pair_gates(0, 1, r, 4) + cvcs_pair_gates(2, 3, r, 4):
        state = apply(state, g)
    return apply(state, gate_beamsplitter(np.pi / 4, 0, 2, 4))


def schedule(config: LatticeConfig) -> list:
    """Deterministic gate list realizing the temporal circuit."""
    n = config.n_modes
    items = []
    for t in range(config.bins):
        base = 4 * t
        for rail in range(4):
            items.append(ScheduledGate(t, "squeeze", (base + rail,), config.r))
        for i, j in ((base, base + 1), (base + 2, base + 3)):
            items.append(ScheduledGate(t, "rotation", (i,), np.pi / 2))
            items.append(ScheduledGate(t, "beamsplitter", (i, j), np.pi / 4))
            items.append(ScheduledGate(t, "rotation", (i,), -np.pi / 4))
            items.append(ScheduledGate(t, "rotation", (j,), -np.pi / 4))
        items.append(ScheduledGate(t, "beamsplitter", (base, base + 2), np.pi / 4))
        if t >= 1:
            items.append(ScheduledGate(
                t, "beamsplitter", (4 * (t - 1) + 1, base), np.pi / 4))
        if t >= config.n_rows:
            items.append(ScheduledGate(
                t, "beamsplitter", (4 * (t - config.n_rows) + 3, base + 2), np.pi / 4))
    return items


def _gate_of(item: ScheduledGate, n: int):
    if item.kind == "squeeze":
        return gate_squeeze(item.param, item.modes[0], n)
    if item.kind == "rotation":
        return gate_rotation(item.param, item.modes[0], n)
    if item.kind == "beamsplitter":
        return gate_beamsplitter(item.param, item.modes[0], item.modes[1], n)
    raise GraphStateError(f"unknown scheduled gate kind {item.kind!r}")


def build_bsl(config: LatticeConfig):
    """Run the schedule; returns (GraphState, MacronodeLattice).

    The squeezers are folded into the initial product state; every following
    gate is an interferometer, so Z = i sech(2r) I + tanh(2r) V throughout.
    """
    n = config.n_modes
    state = vacuum(n)
    for item in schedule(config):
        state = apply(state, _gate_of(item, n))
    return state, MacronodeLattice(config, _build_coords(config))


def graph_part(state: GraphState, r: float) -> np.ndarray:
    """V with Z = i sech(2r) I + tanh(2r) V (exact for interferometer outputs)."""
    n = state.n_modes
    return (state.z - 1j / np.cosh(2 * r) * np.eye(n)).real / np.tanh(2 * r)


def ideal_graph(config: LatticeConfig) -> np.ndarray:
    """The r-independent graph V of Z(r) = i sech(2r) I + tanh(2r) V.

    Built exactly in real arithmetic: every bin's rails (0, 1) and (2, 3)
    start as the cluster pair [[0, 1], [1, 0]] of cvcs_pair_gates, and each
    remaining beamsplitter of the schedule, a real orthogonal O acting alike
    on q and p, maps V to O V O^T.
    """
    n = config.n_modes
    v = np.zeros((n, n))
    first = np.arange(0, n, 2)
    v[first, first + 1] = v[first + 1, first] = 1.0
    for item in schedule(config):
        # the squeezers and pair fusions (rotations and the beamsplitters on
        # adjacent ids (i, i + 1)) act on modes no earlier gate touched, so
        # the closed-form pairs above stand for them
        if item.kind == "beamsplitter" and item.modes[1] != item.modes[0] + 1:
            v = local_update(v, _gate_of(item, n))
    return (v + v.T) / 2


def bulk_modes(config: LatticeConfig):
    """Modes whose delay-line beamsplitter was not skipped at a boundary."""
    t_max = config.bins - 1
    out = []
    for mode in range(config.n_modes):
        t, rail = divmod(mode, 4)
        ok = {0: t >= 1, 1: t + 1 <= t_max,
              2: t >= config.n_rows, 3: t + config.n_rows <= t_max}[rail]
        if ok:
            out.append(mode)
    return out


def edge_summary(state: GraphState, config: LatticeConfig) -> dict:
    """Uniformity report: self-loops, bulk edges, magnitude classes, locality."""
    n = state.n_modes
    z = state.z
    sech = 1 / np.cosh(2 * config.r)
    selfloop_dev = float(np.abs(np.diag(z) - 1j * sech).max())
    off = z - np.diag(np.diag(z))
    thresh = 1e-6 * np.abs(off).max()
    bulk = set(bulk_modes(config))
    bulk_mags, all_mags, nonlocal_edges = [], [], 0
    for a in range(n):
        for b in range(a + 1, n):
            w = abs(off[a, b])
            if w <= thresh:
                continue
            all_mags.append(w)
            if a in bulk and b in bulk:
                bulk_mags.append(w)
            dt = abs(_measured_bin(a, config.n_rows)
                     - _measured_bin(b, config.n_rows))
            if dt not in (0, 1, config.n_rows):
                nonlocal_edges += 1
    bulk_mags = np.array(bulk_mags)
    all_mags = np.array(all_mags)
    return {
        "selfloop": sech,
        "selfloop_deviation": selfloop_dev,
        "edges": len(all_mags),
        "bulk_edges": len(bulk_mags),
        "bulk_magnitude": float(bulk_mags.mean()) if len(bulk_mags) else 0.0,
        "bulk_relative_spread": float(np.ptp(bulk_mags) / bulk_mags.mean())
        if len(bulk_mags) else 0.0,
        "magnitude_classes": sorted({round(float(m), 9) for m in all_mags}),
        "nonlocal_edges": nonlocal_edges,
    }


def to_dot(state: GraphState, config: LatticeConfig,
           lattice: MacronodeLattice | None = None) -> str:
    """Graphviz rendering of the rounded adjacency, edges colored by sign."""
    n = state.n_modes
    off = state.z - np.diag(np.diag(state.z))
    thresh = 1e-6 * np.abs(off).max()
    lines = ["graph bsl {", "  node [shape=circle fontsize=10];"]
    for mode in range(n):
        t, rail = divmod(mode, 4)
        tau = _measured_bin(mode, config.n_rows)
        lines.append(
            f'  m{mode} [label="{mode}\\nt{tau} r{rail}"];')
    for a in range(n):
        for b in range(a + 1, n):
            w = off[a, b]
            if abs(w) <= thresh:
                continue
            color = "blue" if w.real >= 0 else "orange"
            lines.append(f'  m{a} -- m{b} [color={color} '
                         f'label="{abs(w):.3f}"];')
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
    state = GraphState(z, mean)
    for k in range(n_sites):
        state = apply(state, gate_beamsplitter(np.pi / 4, 2 * k, 2 * k + 1, n))
    return state
