import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.ctqw import (
    Spectrum,
    _refined_maxima,
    analytic_pair_hub_state,
    detect_transfer_ct,
    evolve_ct,
    evolve_ct_many,
)
from qwalk.graphs import Complete, Cycle, Edgeless, Graph, Join, Path, build


def test_spectrum_reproduces_matrix_exponential():
    g = build(Cycle(5))
    spec = Spectrum.from_graph(g)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi /= np.linalg.norm(psi)
    t = 2.7
    # crude oracle: scaling-and-squaring via repeated small Euler steps
    # is too lossy, so compare against eigendecomposition done by scipy
    from scipy.linalg import expm

    want = expm(-1j * t * g.adjacency) @ psi
    got = spec.propagate(psi, t)
    assert np.max(np.abs(got - want)) < 1e-10


@given(st.integers(0, 300), st.floats(0.0, 20.0))
@settings(max_examples=40, deadline=None)
def test_norm_preserved(seed, t):
    g = build(Join(Edgeless(2), Cycle(4)))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    psi /= np.linalg.norm(psi)
    out = evolve_ct(g, psi, t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-10


def test_evolution_is_linear():
    g = build(Path(4))
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    t = 1.3
    lhs = evolve_ct(g, 0.3 * a + 0.6j * b, t)
    rhs = 0.3 * evolve_ct(g, a, t) + 0.6j * evolve_ct(g, b, t)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_evolve_many_matches_single_times():
    g = build(Cycle(6))
    spec = Spectrum.from_graph(g)
    psi0 = np.zeros(6, dtype=complex)
    psi0[0] = 1.0
    times = np.array([0.0, 0.5, 2.0])
    states = evolve_ct_many(spec, psi0, times)
    for i, t in enumerate(times):
        assert np.max(np.abs(states[i] - evolve_ct(g, psi0, t))) < 1e-12


# ----- closed-form hub pair -----

def test_hub_pair_matches_closed_form():
    rng = np.random.default_rng(5)
    for n in (1, 4, 9):
        g = build(Join(Edgeless(2), Edgeless(n)))
        psi0 = np.zeros(g.n, dtype=complex)
        psi0[0] = 1.0
        for t in rng.uniform(0.0, 12.0, size=20):
            got = evolve_ct(g, psi0, t)
            want = analytic_pair_hub_state(n, t)
            assert np.max(np.abs(got - want)) < 1e-9


def test_hub_pair_period_and_half_period_transfer():
    for n in (2, 8):
        g = build(Join(Edgeless(2), Edgeless(n)))
        period = 2 * np.pi / np.sqrt(2 * n)
        rep = detect_transfer_ct(g, (0, 1), t_max=3 * period, dt=0.002)
        assert rep.period == pytest.approx(period, abs=1e-6)
        assert any(abs(t - period / 2) < 1e-6 for t in rep.pst_times)


# ----- cycles -----

def test_cycle4_transfers_at_quarter_turn():
    g = build(Cycle(4))
    rep = detect_transfer_ct(g, (0, 2), t_max=10.0, dt=0.01)
    assert rep.pst_times
    assert rep.pst_times[0] == pytest.approx(np.pi / 2, abs=1e-6)


def test_transfer_maximum_is_capped_at_one():
    # |a|^2 of the spectral sum reads 1.0000000000000004 at C4's quarter turn
    rep = detect_transfer_ct(build(Cycle(4)), (0, 2))
    assert rep.max_probability == 1.0
    assert rep.max_time == pytest.approx(np.pi / 2, abs=1e-12)
    # on C8 the t = 0 grid value (1 + 2 ulps before the cap) beats every
    # refined return
    g = build(Cycle(8))
    rep = detect_transfer_ct(g, (0, 0), t_max=10.0)
    psi0 = np.eye(8, dtype=complex)[0]
    assert abs(evolve_ct_many(Spectrum.from_graph(g), psi0, rep.times)[0, 0]) ** 2 > 1.0
    assert rep.target_series[0] == 1.0
    assert (rep.max_probability, rep.max_time) == (1.0, 0.0)


def test_grid_probabilities_are_capped_at_one():
    # |psi|^2 reads 1.0000000000000004 at C8's t = 0 before the cap
    g = build(Cycle(8))
    rep = detect_transfer_ct(g, (0, 4), t_max=1.0, dt=0.5)
    psi0 = np.eye(8, dtype=complex)[0]
    raw = np.abs(evolve_ct_many(Spectrum.from_graph(g), psi0, rep.times)) ** 2
    assert raw.max() > 1.0
    assert np.array_equal(rep.vertex_series, np.minimum(raw, 1.0))


def test_cycle6_peaks_at_three_quarters():
    g = build(Cycle(6))
    rep = detect_transfer_ct(g, (0, 3), t_max=60.0, dt=0.01)
    assert rep.pst_times == ()
    assert rep.max_probability == pytest.approx(0.75, abs=1e-9)


def test_cycle8_near_miss_value():
    # the antipodal probability creeps arbitrarily close to 1 but the
    # best approach within t <= 100 stays just above 0.9996
    g = build(Cycle(8))
    rep = detect_transfer_ct(g, (0, 4), t_max=100.0, dt=0.01)
    assert rep.pst_times == ()
    assert rep.max_probability == pytest.approx(0.999633205, abs=1e-6)
    assert rep.max_time == pytest.approx(91.092643, abs=1e-3)


def test_cycle8_closed_form_series():
    g = build(Cycle(8))
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    for t in (0.7, 3.1, 14.2):
        p = abs(evolve_ct(g, psi0, t)[4]) ** 2
        want = ((1 + np.cos(2 * t) - 2 * np.cos(np.sqrt(2) * t)) / 4) ** 2
        assert p == pytest.approx(want, abs=1e-12)


# ----- hub + path fixtures -----

def test_hub_path_best_transfer_frozen():
    g = build(Join(Edgeless(2), Path(10)))
    rep = detect_transfer_ct(g, (0, 1), t_max=100.0, dt=0.01)
    assert rep.pst_times == ()
    assert rep.max_probability == pytest.approx(0.994928611, abs=1e-6)
    assert rep.max_time == pytest.approx(34.98, abs=0.02)


def test_report_vertex_series_is_the_scanned_evolution():
    g = build(Cycle(6))
    rep = detect_transfer_ct(g, (0, 3), t_max=5.0, dt=0.05)
    psi0 = np.zeros(6, dtype=complex)
    psi0[0] = 1.0
    want = np.minimum(np.abs(evolve_ct_many(Spectrum.from_graph(g), psi0, rep.times)) ** 2, 1.0)
    assert rep.vertex_series.shape == (len(rep.times), 6)
    assert np.array_equal(rep.vertex_series, want)
    assert np.array_equal(rep.target_series, rep.vertex_series[:, 3])


@pytest.mark.parametrize("graph, pair, t_max, dt", [
    (Cycle(8), (0, 4), 400.0, 0.01),
    (Cycle(8), (0, 4), 0.01, 0.01),
    (Complete(33), (0, 1), 3.0, 0.0007),
    (Join(Edgeless(2), Edgeless(200)), (0, 1), 5.0, 0.001),
    (Complete(16), (0, 1), 5.12, 0.01),  # 513 rows: one more than a block
], ids=["C8-40001-rows", "two-rows", "K33-ragged", "K2+K200", "K16-block-plus-one"])
def test_vertex_series_is_seamless_across_grid_blocks(graph, pair, t_max, dt):
    g = build(graph)
    rep = detect_transfer_ct(g, pair, t_max=t_max, dt=dt)
    psi0 = np.eye(g.n, dtype=complex)[pair[0]]
    want = np.minimum(np.abs(evolve_ct_many(Spectrum.from_graph(g), psi0, rep.times)) ** 2, 1.0)
    assert rep.vertex_series.shape == want.shape
    assert np.array_equal(rep.vertex_series, want)


def test_grid_scan_holds_only_its_probability_table():
    g = build(Cycle(8))
    tracemalloc.start()
    try:
        rep = detect_transfer_ct(g, (0, 4), t_max=400.0, dt=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * rep.vertex_series.nbytes + 2**20


@pytest.mark.parametrize("n", range(4, 13))
def test_complete_graph_period(n):
    # the source probability of K_n never drops below (1 - 2/n)^2
    rep = detect_transfer_ct(build(Complete(n)), (0, 1))
    assert abs(rep.period - 2 * math.pi / n) <= 1e-12


# ----- refinement by slope bisection -----

def _odd_multiples_table():
    """(graph, pair, period, PST spacing h or None): PST at the odd multiples of h."""
    rows = [(build(Cycle(4)), (0, 2), math.pi, math.pi / 2),
            (build(Complete(4)), (0, 1), math.pi / 2, None),
            (build(Cycle(6)), (0, 3), 2 * math.pi, None)]
    for n in (3, 9):
        w = math.sqrt(2 * n)
        rows.append((build(Join(Edgeless(2), Edgeless(n))), (0, 1), 2 * math.pi / w, math.pi / w))
    return rows


@pytest.mark.parametrize("t_max, dt", [(100.0, 0.01), (400.0, 0.05)], ids=["tmax100", "tmax400"])
@pytest.mark.parametrize("g, pair, period, h", _odd_multiples_table(),
                         ids=["C4", "K4", "C6", "K2+K3", "K2+K9"])
def test_refined_times_match_closed_forms(g, pair, period, h, t_max, dt):
    rep = detect_transfer_ct(g, pair, t_max=t_max, dt=dt)
    assert abs(rep.period - period) <= 1e-15 * max(1.0, period)
    if h is None:
        assert rep.pst_times == ()
        return
    odd = [round((t / h - 1) / 2) for t in rep.pst_times]
    assert odd == list(range(len(odd)))  # every odd multiple in turn, none skipped
    assert (2 * len(odd) + 1) * h > t_max - dt  # up to the end of the scan
    for j, t in zip(odd, rep.pst_times):
        exact = (2 * j + 1) * h
        assert abs(t - exact) <= 1e-15 * max(1.0, exact)


@pytest.mark.parametrize("g, pair, first", [
    (build(Cycle(6)), (0, 3), 2 * math.pi / 3),
    (build(Cycle(4)), (0, 1), math.pi / 4),
    (build(Complete(4)), (0, 1), math.pi / 4),
], ids=["C6", "C4", "K4"])
def test_max_time_is_the_earliest_tied_maximum(g, pair, first):
    # the walks are periodic, so every later peak ties the first one
    for t_max in (100.0, 400.0):
        rep = detect_transfer_ct(g, pair, t_max=t_max, dt=0.01)
        assert abs(rep.max_time - first) <= 1e-15
        assert rep.max_time == detect_transfer_ct(g, pair, t_max=10.0, dt=0.01).max_time


def test_transfer_maximum_without_an_interior_peak():
    # no refined maximum at all: the target is never reached
    rep = detect_transfer_ct(build(Edgeless(2)), (0, 1), t_max=5.0, dt=0.01)
    assert (rep.max_time, rep.max_probability) == (0.0, 0.0)
    # sin^4 t still rises at tmax = 1, so the grid's last point is the maximum
    rep = detect_transfer_ct(build(Cycle(4)), (0, 2), t_max=1.0, dt=0.01)
    assert (rep.max_time, rep.max_probability) == (rep.times[-1], rep.target_series[-1])
    assert rep.max_time == 1.0


@pytest.mark.parametrize("start, dt, peak", [
    (0.0, 1.7, math.pi / 2),
    (2 * math.pi * 8192 + 1.0, 0.5, (2 * 16384 + 1) * math.pi / 2),
], ids=["first-interval", "past-8192"])
def test_brackets_close_at_any_time(start, dt, peak):
    # K2 from vertex 0: the probability at vertex 1 is sin^2 t
    g = build(Complete(2))
    times = start + dt * np.arange(3.0)
    (t,), (p,) = _refined_maxima(np.sin(times) ** 2, times, Spectrum.from_graph(g),
                                 np.array([1.0, 0.0], dtype=complex), 1)
    assert abs(t - peak) <= 1e-15 * max(1.0, peak)
    assert p == pytest.approx(1.0, abs=1e-15)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(2, 8))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n))
    adj[np.triu_indices(n, 1)] = bits
    return Graph(adj + adj.T)


@given(_small_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_refined_maxima_are_local_maxima(g, data):
    source, v = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
    spec = Spectrum.from_graph(g)
    psi0 = np.zeros(g.n, dtype=complex)
    psi0[source] = 1.0
    times = np.arange(0.0, 20.0 + 0.005, 0.01)
    series = np.abs(evolve_ct_many(spec, psi0, times)[:, v]) ** 2
    peak_t, peak_p = _refined_maxima(series, times, spec, psi0, v)
    i = np.flatnonzero((series[1:-1] >= series[:-2]) & (series[1:-1] > series[2:])) + 1
    assert peak_t.shape == peak_p.shape == i.shape
    assert np.all((times[i - 1] <= peak_t) & (peak_t <= times[i + 1]))
    assert np.all(peak_p >= series[i] - 1e-15)
    for step in (-1e-7, 1e-7):
        near = np.abs(evolve_ct_many(spec, psi0, peak_t + step)[:, v]) ** 2
        assert np.all(peak_p >= near - 1e-15)
