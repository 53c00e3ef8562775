"""Temporal-mode lattice construction: squares, schedule, BSL structure."""

import numpy as np
import pytest

from bslsim.graphstate import (GraphState, GraphStateError, apply,
                               covariance, gate_beamsplitter, omega)
from bslsim.lattice import (MAX_MODES, LatticeConfig, _joins,
                            _lattice_state, _pairs, build_bsl, bulk_modes,
                            canonical_wire, edge_summary, ideal_graph,
                            schedule, to_dot)


def test_square_is_four_cycle():
    st = apply(_lattice_state(_pairs(4), 1.0),
               gate_beamsplitter(np.pi / 4, 0, 2, 4))
    v = st.z.real / np.tanh(2.0)
    cycle = {(0, 1), (1, 2), (2, 3), (0, 3)}
    signs = []
    for a in range(4):
        assert abs(v[a, a]) < 1e-12
        for b in range(a + 1, 4):
            if (a, b) in cycle:
                assert abs(abs(v[a, b]) - 1 / np.sqrt(2)) < 1e-10
                signs.append(np.sign(v[a, b]))
            else:
                assert abs(v[a, b]) < 1e-10
    # two-coloring: exactly one negative-phase edge around the cycle
    assert signs.count(-1.0) == 1


def test_square_zero_squeezing_limit():
    st = apply(_lattice_state(_pairs(4), 1e-8),
               gate_beamsplitter(np.pi / 4, 0, 2, 4))
    assert np.abs(st.z - 1j * np.eye(4)).max() < 1e-7


def test_schedule_counts_and_reproducibility():
    config = LatticeConfig(3, 3, 1.0)
    gates = schedule(config)
    assert config.n_modes == 36
    # 3 joining beamsplitters per bin minus the skipped boundary couplings
    assert len(gates) == 3 * config.bins - (1 + config.n_rows)
    bs = gate_beamsplitter(np.pi / 4, 0, 1, 2)
    assert all(np.array_equal(g.block, bs.block) for g in gates)
    assert [g.modes for g in gates] == [g.modes for g in schedule(config)]


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2), (3, 3), (5, 4)])
def test_joins_are_two_layers_of_disjoint_pairs(n, m):
    # ideal_graph builds V as O_delay O_inbin P O_inbin^T O_delay^T
    joins = _joins(LatticeConfig(n, m, 1.0))
    inbin = [p for p in joins if p[0] % 2 == 0]
    delay = [p for p in joins if p[0] % 2]
    assert inbin == [(4 * t, 4 * t + 2) for t in range(n * m)]
    assert all(a % 4 in (1, 3) and b % 4 in (0, 2) for a, b in delay)
    for layer in (inbin, delay):
        modes = [k for pair in layer for k in pair]
        assert len(modes) == len(set(modes))
    # a delay-line join meets rail 0 or 2 of bin t after bin t's in-bin join
    for k, (a, b) in enumerate(joins):
        if a % 2:
            assert joins.index((b - b % 4, b - b % 4 + 2)) < k


def test_schedule_degenerate_single_column():
    config = LatticeConfig(2, 1, 1.0)
    long_delay = [g.modes for g in schedule(config)
                  if abs(g.modes[0] - g.modes[1]) >= 4 * config.n_rows - 1]
    assert long_delay == []


def test_bsl_bulk_uniformity():
    config = LatticeConfig(3, 3, 1.0)
    state, _ = build_bsl(config)
    summary = edge_summary(state, config)
    assert summary["selfloop_deviation"] < 1e-12
    assert summary["bulk_relative_spread"] < 1e-9
    assert summary["nonlocal_edges"] == 0
    # bulk magnitude tanh(2r)/(2 sqrt 2)
    assert abs(summary["bulk_magnitude"] - np.tanh(2.0) / (2 * np.sqrt(2))) < 1e-9


def test_bsl_purity_and_form():
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for r in (0.5, 1.0):
            config = LatticeConfig(n, m, r)
            state, _ = build_bsl(config)
            nn = state.n_modes
            assert np.abs(state.z - state.z.T).max() < 1e-12
            assert np.linalg.eigvalsh(state.z.imag).min() > 0
            om = omega(nn)
            so = covariance(state) @ om
            assert np.abs(so @ so + 0.25 * np.eye(2 * nn)).max() < 1e-8


def test_bsl_edge_scaling_with_squeezing():
    c1 = LatticeConfig(3, 3, 0.5)
    c2 = LatticeConfig(3, 3, 1.0)
    s1, _ = build_bsl(c1)
    s2, _ = build_bsl(c2)
    off = ~np.eye(36, dtype=bool)
    mask = np.abs(s2.z.real) > 1e-8
    ratio = s1.z.real[off & mask] / s2.z.real[off & mask]
    assert np.abs(ratio - np.tanh(1.0) / np.tanh(2.0)).max() < 1e-9


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
def test_ideal_graph_trace_zero_self_inverse(n, m):
    v = ideal_graph(LatticeConfig(n, m, 1.0))
    size = 4 * n * m
    assert abs(np.trace(v)) <= 1e-8
    assert np.abs(v @ v - np.eye(size)).max() <= 1e-6


def test_graph_form_at_finite_squeezing():
    # Z(r) = i sech(2r) I + tanh(2r) V for the same V at every r
    config = LatticeConfig(3, 3, 1.0)
    v = ideal_graph(config)
    for r in (0.5, 1.0, 2.0):
        state, _ = build_bsl(LatticeConfig(3, 3, r))
        z_expect = 1j / np.cosh(2 * r) * np.eye(36) + np.tanh(2 * r) * v
        assert np.abs(state.z - z_expect).max() <= 1e-8


def test_ideal_graph_exact_form():
    # V is built by exact congruences; the dense-schedule build at any r must
    # equal i sech(2r) I + tanh(2r) V
    for n, m in ((2, 1), (2, 3), (3, 2), (3, 3), (4, 4)):
        v = ideal_graph(LatticeConfig(n, m, 1.0))
        size = 4 * n * m
        assert np.array_equal(v, v.T)
        assert np.abs(v @ v - np.eye(size)).max() <= 1e-12
        assert abs(np.trace(v)) <= 1e-12
        for r in (0.3, 1.0, 2.0, 4.0):
            state, _ = build_bsl(LatticeConfig(n, m, r))
            z_expect = 1j / np.cosh(2 * r) * np.eye(size) + np.tanh(2 * r) * v
            assert np.abs(state.z - z_expect).max() <= 1e-12


def test_macronode_lookup_and_partition():
    config = LatticeConfig(3, 3, 1.0)
    _, lattice = build_bsl(config)
    c = lattice.lookup(0, "x")
    assert (c.row, c.col, c.site, c.member) == (0, 0, "xa", "alpha")
    assert c.mode == 2
    # every mode appears exactly once across the detector map
    modes = sorted(lattice.coords.values())
    assert modes == list(range(36))
    # lattice sites within the runtime window: 2 N M of them
    sites = {(t, s) for (t, d) in lattice.coords if t < config.bins
             for s in (("xa",) if d in ("x", "a") else ("bc",))}
    assert len(sites) == 2 * config.bins
    with pytest.raises(KeyError):
        lattice.lookup(0, "a")     # long-delay partner not yet arrived
    with pytest.raises(KeyError):
        lattice.lookup(0, "q")


def test_detector_member_conventions():
    config = LatticeConfig(2, 2, 1.0)
    _, lattice = build_bsl(config)
    for t in lattice.xa_sites():
        assert lattice.lookup(t, "x").member == "alpha"
        assert lattice.lookup(t, "a").member == "beta"
    for t in lattice.bc_sites():
        assert lattice.lookup(t, "b").member == "alpha"
        assert lattice.lookup(t, "c").member == "beta"


def test_bulk_modes_are_interior():
    config = LatticeConfig(3, 3, 1.0)
    bulk = bulk_modes(config)
    assert 0 not in bulk        # rail 0 of bin 0 has no short-delay partner
    assert 4 * (config.bins - 1) + 1 not in bulk


def test_canonical_wire_structure():
    r = 1.0
    wire = canonical_wire(3, r)
    n = wire.n_modes
    assert n == 6
    om = omega(n)
    so = covariance(wire) @ om
    assert np.abs(so @ so + 0.25 * np.eye(2 * n)).max() < 1e-10
    # inter-site blocks have the K22 form with weight tanh(2r)/2
    v = wire.z.real / np.tanh(2 * r)
    blk = v[0:2, 2:4]
    assert np.abs(np.abs(blk) - np.tanh(2 * r) / 2 / np.tanh(2 * r)).max() < 1e-10


def wire_reference(n_sites, r, input_state=None):
    """canonical_wire as the per-site beamsplitter loop it replaces."""
    n = 2 * n_sites
    z = 1j / np.cosh(2 * r) * np.eye(n, dtype=complex)
    mean = np.zeros(2 * n)
    if input_state is not None:
        z[0, 0] = input_state.z[0, 0]
        mean[[0, n]] = input_state.mean
    for k in range(n_sites - 1):
        z[2 * k + 1, 2 * k + 2] = z[2 * k + 2, 2 * k + 1] = np.tanh(2 * r)
    state = GraphState(z, mean)
    for k in range(n_sites):
        state = apply(state, gate_beamsplitter(np.pi / 4, 2 * k, 2 * k + 1, n))
    return state


@pytest.mark.parametrize("r", [0.3, 5.0, 15.0])
def test_canonical_wire_matches_beamsplitter_loop(r):
    inp = GraphState(np.array([[0.3 + 0.9j]]), np.array([0.2, -0.5]))
    for n_sites in range(2, 7):
        for state in (None, inp):
            got, want = canonical_wire(n_sites, r, state), \
                wire_reference(n_sites, r, state)
            assert np.abs(got.z - want.z).max() <= 1e-12
            assert np.abs(got.mean - want.mean).max() <= 1e-12


def test_invalid_configs():
    with pytest.raises(GraphStateError):
        LatticeConfig(1, 3, 1.0)
    with pytest.raises(GraphStateError):
        LatticeConfig(2, 2, -1.0)
    with pytest.raises(GraphStateError):
        canonical_wire(1, 1.0)
    with pytest.raises(GraphStateError, match=r"\(0, 8.0\]"):
        LatticeConfig(2, 2, 8.01)
    with pytest.raises(GraphStateError, match=r"\(0, 15.0\]"):
        canonical_wire(2, 15.01)
    with pytest.raises(GraphStateError, match=r"\(0, 15.0\]"):
        canonical_wire(2, 0.0)
    LatticeConfig(2, 2, 8.0)
    canonical_wire(2, 15.0)


def test_resources_above_the_mode_limit_are_refused():
    # 4 N M and 2 * macronodes against MAX_MODES, before any array is made
    LatticeConfig(2, MAX_MODES // 8, 1.0)
    with pytest.raises(GraphStateError, match=f"limit of {MAX_MODES} modes"):
        LatticeConfig(2, MAX_MODES // 8 + 1, 1.0)
    with pytest.raises(GraphStateError, match=f"limit of {MAX_MODES} modes"):
        LatticeConfig(10 ** 300, 10 ** 300, 1.0)
    with pytest.raises(GraphStateError, match=f"limit of {MAX_MODES} modes"):
        canonical_wire(MAX_MODES // 2 + 1, 1.0)


def test_phase_delayed_lattice_closed_form():
    # the quarter delay ahead of every detector gives i cosh 2r I + i sinh 2r V
    from bslsim.nullifiers import phi_transform
    r = 1.0
    for size in (2, 3):
        config = LatticeConfig(size, size, r)
        z = phi_transform(build_bsl(config)[0]).z
        want = 1j * (np.cosh(2 * r) * np.eye(config.n_modes)
                     + np.sinh(2 * r) * ideal_graph(config))
        assert np.abs(z - want).max() <= 1e-12


def test_dot_export_mentions_all_modes():
    config = LatticeConfig(2, 2, 1.0)
    state, _ = build_bsl(config)
    dot = to_dot(state, config)
    assert dot.startswith("graph bsl {")
    for mode in range(16):
        assert f"m{mode} " in dot
    assert "color=orange" in dot and "color=blue" in dot


# -- edge reports against the pairwise scans they replaced -------------------


def _loop_measured_bin(mode, n_rows):
    t, rail = divmod(mode, 4)
    return t + (1 if rail == 1 else n_rows if rail == 3 else 0)


def _loop_bulk_modes(config):
    t_max = config.bins - 1
    out = []
    for mode in range(config.n_modes):
        t, rail = divmod(mode, 4)
        ok = {0: t >= 1, 1: t + 1 <= t_max,
              2: t >= config.n_rows, 3: t + config.n_rows <= t_max}[rail]
        if ok:
            out.append(mode)
    return out


def _loop_edge_summary(state, config):
    n = state.n_modes
    z = state.z
    sech = 1 / np.cosh(2 * config.r)
    selfloop_dev = float(np.abs(np.diag(z) - 1j * sech).max())
    off = z - np.diag(np.diag(z))
    thresh = 1e-6 * np.abs(off).max()
    bulk = set(_loop_bulk_modes(config))
    bulk_mags, all_mags, nonlocal_edges = [], [], 0
    for a in range(n):
        for b in range(a + 1, n):
            w = abs(off[a, b])
            if w <= thresh:
                continue
            all_mags.append(w)
            if a in bulk and b in bulk:
                bulk_mags.append(w)
            dt = abs(_loop_measured_bin(a, config.n_rows)
                     - _loop_measured_bin(b, config.n_rows))
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


def _loop_to_dot(state, config):
    n = state.n_modes
    off = state.z - np.diag(np.diag(state.z))
    thresh = 1e-6 * np.abs(off).max()
    lines = ["graph bsl {", "  node [shape=circle fontsize=10];"]
    for mode in range(n):
        t, rail = divmod(mode, 4)
        tau = _loop_measured_bin(mode, config.n_rows)
        lines.append(f'  m{mode} [label="{mode}\\nt{tau} r{rail}"];')
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


def _random_sparse_state(rng, n, density):
    """Complex symmetric Z with sparse off-diagonal support, Im Z > 0."""
    mask = np.triu(rng.random((n, n)) < density, 1)
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    # a spread of magnitudes so some entries fall under the 1e-6 cut
    w *= 10.0 ** rng.integers(-9, 1, size=(n, n))
    off = np.where(mask, w, 0)
    off = off + off.T
    z = off + 1j * (np.abs(off.imag).sum(axis=1) + 1.0) * np.eye(n)
    return GraphState(z, np.zeros(2 * n))


def _assert_reports_match(state, config):
    assert edge_summary(state, config) == _loop_edge_summary(state, config)
    assert to_dot(state, config) == _loop_to_dot(state, config)


@pytest.mark.parametrize("n,m,r", [(2, 1, 0.5), (2, 3, 1.0), (3, 2, 3.0),
                                   (4, 4, 1.0), (5, 3, 0.3)])
def test_edge_reports_match_pairwise_scan_on_lattices(n, m, r):
    config = LatticeConfig(n, m, r)
    assert bulk_modes(config) == _loop_bulk_modes(config)
    state, _ = build_bsl(config)
    _assert_reports_match(state, config)


@pytest.mark.parametrize("seed", range(6))
def test_edge_reports_match_pairwise_scan_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    config = LatticeConfig(int(rng.integers(2, 5)), int(rng.integers(1, 4)),
                           float(rng.uniform(0.1, 3.0)))
    state = _random_sparse_state(rng, config.n_modes, [0.02, 0.1, 0.5][seed % 3])
    _assert_reports_match(state, config)
    # edgeless graphs: the cut is 0 and no entry passes it
    empty = GraphState(1j * np.eye(config.n_modes), np.zeros(2 * config.n_modes))
    _assert_reports_match(empty, config)


# -- the rail table against the per-rail formulas it replaced ----------------


def _reference_coords(config):
    coords = {}
    for t in range(config.bins):
        coords[(t, "b")] = 4 * t + 0
        coords[(t, "x")] = 4 * t + 2
        coords[(t + 1, "c")] = 4 * t + 1
        coords[(t + config.n_rows, "a")] = 4 * t + 3
    return coords


def _reference_mode_at(config, time_index, detector):
    if detector not in ("b", "c", "x", "a"):
        return None
    t = time_index - {"c": 1, "a": config.n_rows}.get(detector, 0)
    return 4 * t + "bcxa".index(detector) if 0 <= t < config.bins else None


def _reference_joins(config):
    rows, pairs = config.n_rows, []
    for t in range(config.bins):
        base = 4 * t
        pairs.append((base, base + 2))
        if t >= 1:
            pairs.append((base - 3, base))
        if t >= rows:
            pairs.append((4 * (t - rows) + 3, base + 2))
    return pairs


def _reference_bulk_modes(config):
    t, rail = np.divmod(np.arange(config.n_modes), 4)
    n = config.n_rows
    partner = t + np.array([-1, 1, -n, n])[rail]
    return np.flatnonzero((partner >= 0) & (partner < config.bins)).tolist()


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2), (4, 4), (5, 3)])
def test_mode_at_inverts_the_coordinate_table(n, m):
    config = LatticeConfig(n, m, 1.0)
    coords = _reference_coords(config)
    assert list(config.coords.items()) == list(coords.items())
    for t in range(-2, config.bins + n + 2):
        for d in ("a", "b", "c", "x", "", "ab", "y"):
            mode = _reference_mode_at(config, t, d)
            assert mode == coords.get((t, d))
            assert config.mode_at(t, d) == mode
            if mode is None:
                with pytest.raises(KeyError):
                    config.lookup(t, d)
            else:
                site = "xa" if d in ("x", "a") else "bc"
                member = "alpha" if d in ("x", "b") else "beta"
                assert config.lookup(t, d) == (t % n, t // n, site, member,
                                               mode)
    complete = {s: [t for t in range(config.bins)
                    if (t, s[0]) in coords and (t, s[1]) in coords]
                for s in ("bc", "xa")}
    assert config.bc_sites() == complete["bc"]
    assert config.xa_sites() == complete["xa"]
    for row in range(n):
        assert config.wire_sites(row) == [t for t in complete["xa"]
                                          if t % n == row]
    assert _joins(config) == _reference_joins(config)
    assert bulk_modes(config) == _reference_bulk_modes(config)
