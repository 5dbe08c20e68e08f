import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwalk.ctqw import (
    _INVPHI,
    Spectrum,
    analytic_pair_hub_state,
    detect_transfer_ct,
    evolve_ct,
    evolve_ct_many,
    golden_section_max,
)
from qwalk.graphs import Complete, Cycle, Edgeless, Join, Path, build


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


def test_golden_section_closes_brackets_that_stop_shrinking():
    # from t = 8192 on, adjacent floats lie further apart than tol = 1e-12
    lo = 2 * np.pi * 8192 + 1.0
    t, v = golden_section_max(np.sin, lo, lo + 1.0)
    assert t == pytest.approx(2 * np.pi * 8192 + np.pi / 2, abs=1e-6)
    assert v == pytest.approx(1.0, abs=1e-12)


# ----- lockstep refinement against one golden-section loop per bracket -----

def _scalar_golden_section_max(f, lo, hi, tol=1e-12, max_iter=None):
    """Reference: the one-bracket loop that the lockstep search replaced.

    With max_iter, returns None once the loop has run that many times
    without closing; a bracket that stops shrinking never closes.
    """
    a, b = lo, hi
    h = b - a
    c = b - _INVPHI * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    it = 0
    while h > tol:
        it += 1
        if max_iter is not None and it > max_iter:
            return None
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def _scalar_prob_at(spec, psi0, v):
    return lambda t: float(np.abs(spec.propagate(psi0, t)[v]) ** 2)


def _grid_brackets(series, times):
    """(lo, hi) around every interior local maximum of a grid scan, one at a time."""
    return [(times[i - 1], times[i + 1]) for i in range(1, len(series) - 1)
            if series[i] >= series[i - 1] and series[i] > series[i + 1]]


def _scan(g, source, t_max, dt):
    spec = Spectrum.from_graph(g)
    psi0 = np.zeros(g.n, dtype=complex)
    psi0[source] = 1.0
    times = np.arange(0.0, t_max + dt / 2, dt)
    return spec, psi0, times, np.abs(evolve_ct_many(spec, psi0, times)) ** 2


@pytest.mark.parametrize("g, pair, t_max", [
    (build(Cycle(8)), (0, 4), 400.0),
    (build(Join(Edgeless(2), Edgeless(9))), (0, 1), 100.0),
], ids=["C8", "K2+K9"])
def test_lockstep_refinement_matches_scalar_loop_bit_for_bit(g, pair, t_max):
    spec, psi0, times, series = _scan(g, pair[0], t_max, 0.01)
    for v in pair:
        brackets = _grid_brackets(series[:, v], times)
        assert len(brackets) > 10
        lo, hi = np.array(brackets).T
        x, fx = golden_section_max(lambda t: np.abs(spec.propagate(psi0, t, vertex=v)) ** 2, lo, hi)
        want = [_scalar_golden_section_max(_scalar_prob_at(spec, psi0, v), a, b) for a, b in brackets]
        assert list(zip(x.tolist(), fx.tolist())) == want


@given(
    st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 5.0), st.floats(0.0, 6.3)),
             min_size=1, max_size=4),
    st.floats(0.0, 1e5),
    st.floats(-18.0, -10.0),
)
# a bracket here holds still for one iteration and then closes in the scalar loop
@example([(1.0677480765932599, 3.6921710738171214, 2.106088554711003)], 5268.274061647428,
         math.log10(9.61889064024553e-13))
@settings(max_examples=30, deadline=None)
def test_lockstep_refinement_matches_scalar_loop_on_sinusoids(terms, start, log_tol):
    def value(t):
        return sum(amp * math.sin(w * t + phase) for amp, w, phase in terms)

    times = start + np.arange(0.0, 10.0, 0.05)
    brackets = _grid_brackets([value(t) for t in times], times)
    lo, hi = np.array(brackets).reshape(-1, 2).T
    tol = 10.0 ** log_tol
    x, fx = golden_section_max(lambda ts: np.array([value(t) for t in ts]), lo, hi, tol)
    for j, (a, b) in enumerate(brackets):
        want = _scalar_golden_section_max(value, a, b, tol, max_iter=500)
        if want is None:  # the loop never closes this bracket: only its range is fixed
            assert a <= x[j] <= b and fx[j] == value(x[j])
        else:
            assert (x[j], fx[j]) == want


def _scalar_transfer_reference(g, pair, t_max, dt, pst_tol=1e-9):
    """pst_times, period, max_time, max_probability refined one maximum at a time."""
    source, target = pair
    spec, psi0, times, series = _scan(g, source, t_max, dt)
    maxima = [_scalar_golden_section_max(_scalar_prob_at(spec, psi0, target), a, b)
              for a, b in _grid_brackets(series[:, target], times)]
    pst_times = tuple(t for t, p in maxima if p >= 1.0 - pst_tol)
    max_time, max_p = max(maxima, key=lambda tp: tp[1]) if maxima else (0.0, series[0, target])
    best = int(np.argmax(series[:, target]))
    if series[best, target] > max_p:
        max_time, max_p = times[best], series[best, target]
    period = None
    dipped = np.nonzero(series[:, source] < 0.5)[0]
    if dipped.size:
        start = dipped[0]
        for a, b in _grid_brackets(series[start:, source], times[start:]):
            t, p = _scalar_golden_section_max(_scalar_prob_at(spec, psi0, source), a, b)
            if p >= 1.0 - pst_tol:
                period = t
                break
    return pst_times, period, max_time, max_p


@pytest.mark.parametrize("g, pair", [
    (build(Cycle(4)), (0, 2)),
    (build(Cycle(6)), (0, 3)),
    (build(Cycle(8)), (0, 4)),
    (build(Join(Edgeless(2), Edgeless(9))), (0, 1)),
    (build(Join(Edgeless(2), Cycle(7))), (0, 1)),
    (build(Path(5)), (0, 4)),
    (build(Complete(4)), (0, 1)),
], ids=["C4", "C6", "C8", "K2+K9", "K2+C7", "P5", "K4"])
def test_detect_transfer_ct_equals_scalar_refinement(g, pair):
    rep = detect_transfer_ct(g, pair, t_max=100.0, dt=0.01)
    got = (rep.pst_times, rep.period, rep.max_time, rep.max_probability)
    assert got == _scalar_transfer_reference(g, pair, 100.0, 0.01)
