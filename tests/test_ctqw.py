import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.ctqw import (
    Spectrum,
    analytic_pair_hub_state,
    detect_transfer_ct,
    evolve_ct,
    evolve_ct_many,
    golden_section_max,
)
from qwalk.graphs import Cycle, Edgeless, Join, Path, build


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
    want = np.abs(evolve_ct_many(Spectrum.from_graph(g), psi0, rep.times)) ** 2
    assert rep.vertex_series.shape == (len(rep.times), 6)
    assert np.array_equal(rep.vertex_series, want)
    assert np.array_equal(rep.target_series, rep.vertex_series[:, 3])


# ----- numerics -----

def test_golden_section_finds_peak():
    t, v = golden_section_max(np.sin, 1.0, 2.0, tol=1e-12)
    assert t == pytest.approx(np.pi / 2, abs=1e-6)
    assert v == pytest.approx(1.0, abs=1e-12)
