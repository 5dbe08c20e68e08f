import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qwalk.arcs import ArcSpace
from qwalk.coins import parse_policy
from qwalk.ctqw import evolve_ct
from qwalk.decoherence import (
    NoiseModel,
    classical_transition_matrix,
    classical_walk,
    decohere_ct,
    density_from_state,
    density_steps,
    dephasing_mask,
    evolve_density,
    target_probability_vs_rate,
    validate_density,
    vertex_marginal,
)
from qwalk.dtqw import build_step_operator, equal_superposition, state_at_vertex
from qwalk.errors import ConfigError, ToleranceError
from qwalk.graphs import Cycle, Edgeless, Graph, Join, build


def mixed_coin_density(space: ArcSpace, v: int) -> np.ndarray:
    """Fully dephased coin at one vertex: uniform mixture of its port states."""
    rho = np.zeros((space.n_arcs, space.n_arcs), dtype=complex)
    d = space.degree(v)
    for a in space.ports(v):
        rho[a, a] = 1.0 / d
    return rho


# ----- masks and density plumbing -----

def test_masks_shapes_and_limits():
    g = build(Join(Edgeless(2), Cycle(3)))
    space = ArcSpace.from_graph(g)
    for basis in ("coin", "position", "both"):
        mask = dephasing_mask(space, basis)
        assert mask.shape == (space.n_arcs, space.n_arcs)
        assert np.all(np.diag(mask) == 1.0)
        assert set(np.unique(mask)) <= {0.0, 1.0}
    pos = dephasing_mask(space, "position")
    both = dephasing_mask(space, "both")
    assert np.array_equal(both, np.eye(space.n_arcs))
    # position dephasing keeps coherence within a vertex block
    sl = space.vertex_slice(0)
    assert np.all(pos[sl, sl] == 1.0)
    with pytest.raises(ConfigError):
        dephasing_mask(space, "flavor")


def test_vertex_marginal_sums_each_vertex_block():
    # vertex 3 is isolated and owns no arcs
    a = np.zeros((5, 5))
    for v, w in [(0, 1), (0, 2), (1, 2), (2, 4), (4, 4)]:
        a[v, w] = a[w, v] = 1.0
    space = ArcSpace.from_graph(Graph(a))
    rng = np.random.default_rng(3)
    rho = np.diag(rng.random(space.n_arcs)).astype(complex)
    got = vertex_marginal(space, rho)
    want = [np.real(np.diag(rho))[space.vertex_slice(v)].sum() for v in range(5)]
    assert got.shape == (5,) and got[3] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-15


def test_density_validation():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    rho = density_from_state(psi)
    validate_density(rho)
    assert np.trace(rho) == pytest.approx(1.0)
    with pytest.raises(Exception):
        validate_density(np.array([[0.9, 0.5], [0.1, 0.1]]))


def test_density_validation_rejects_non_finite_entries():
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(ToleranceError, match="non-finite"):
        validate_density(rho)


@given(st.integers(0, 500), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_noisy_evolution_keeps_density_well_formed(seed, rate):
    g = build(Cycle(4))
    op = build_step_operator(g, parse_policy("O2"))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(op.space.n_arcs) + 1j * rng.standard_normal(op.space.n_arcs)
    psi /= np.linalg.norm(psi)
    rho = density_from_state(psi)
    noise = NoiseModel(basis="coin", rate=rate)
    *_, rho = density_steps(rho, op, noise, 5)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10


@pytest.mark.parametrize(
    "basis, rate", [("coin", 0.3), ("position", 0.1), ("both", 1.0), ("coin", 0.0)]
)
def test_density_steps_match_per_step_loop(basis, rate):
    g = build(Join(Edgeless(2), Cycle(5)))
    op = build_step_operator(g, parse_policy("O2"))
    rho = density_from_state(equal_superposition(op.space, 0))
    mask = dephasing_mask(op.space, basis)
    steps = density_steps(rho, op, NoiseModel(basis, rate), 7)
    assert not isinstance(steps, list)
    for t, got in enumerate(steps):
        if t == 0:
            assert np.array_equal(got, rho)
        else:
            assert np.max(np.abs(got - rho)) <= 1e-12, t
        rot = op.matrix @ rho @ op.matrix.conj().T
        rho = rot if rate == 0.0 else (1.0 - rate) * rot + rate * (rot * mask)
    assert t == 7


@pytest.mark.parametrize("basis", ["coin", "position", "both"])
@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_density_steps_match_dense_steps_on_mixed_runs(basis, rate):
    # degrees 3, 3, 2, 2, 2, 4 (loops at both ends): three coin runs
    a = np.zeros((6, 6))
    for v, w in [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (0, 0), (5, 5), (1, 5)]:
        a[v, w] = a[w, v] = 1.0
    op = build_step_operator(Graph(a), parse_policy("O1"))
    u = op.matrix
    mask = dephasing_mask(op.space, basis)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((op.space.n_arcs, 3)) + 1j * rng.standard_normal((op.space.n_arcs, 3))
    rho = z @ z.conj().T / np.linalg.norm(z) ** 2
    for t, got in enumerate(density_steps(rho, op, NoiseModel(basis, rate), 12)):
        assert np.max(np.abs(got - rho)) <= 1e-12, t
        rot = u @ rho @ u.conj().T
        rho = (1.0 - rate) * rot + rate * (rot * mask)
    assert t == 12


@pytest.mark.parametrize("basis", ["coin", "position", "both"])
def test_rate_zero_steps_are_the_bare_conjugations_bit_for_bit(basis):
    op = build_step_operator(build(Join(Edgeless(2), Cycle(5))), parse_policy("O2"))
    rho = density_from_state(equal_superposition(op.space, 0))
    for t, got in enumerate(density_steps(rho, op, NoiseModel(basis, 0.0), 9)):
        assert np.array_equal(got, rho), t
        rho = op.conjugate(rho)


# ----- limits -----

def test_rate_zero_matches_unitary_walk():
    g = build(Join(Edgeless(2), Cycle(4)))
    op = build_step_operator(g, parse_policy("O2"))
    psi = equal_superposition(op.space, 0)
    rhos = evolve_density(density_from_state(psi), op, NoiseModel("both", 0.0), 8)
    cur = psi
    for t in range(1, 9):
        cur = op.matrix @ cur
        assert np.max(np.abs(rhos[t] - np.outer(cur, cur.conj()))) < 1e-10


def test_rate_one_reproduces_classical_walk_on_cycle():
    g = build(Cycle(4))
    op = build_step_operator(g, parse_policy("O1"))
    rho0 = mixed_coin_density(op.space, 0)
    rhos = evolve_density(rho0, op, NoiseModel("both", 1.0), 8)
    for t in range(9):
        got = vertex_marginal(op.space, rhos[t])
        want = classical_walk(g, 0, t)
        assert np.max(np.abs(got - want)) < 1e-10


def test_rate_one_reproduces_classical_walk_on_hub_cycle():
    g = build(Join(Edgeless(2), Cycle(5)))
    op = build_step_operator(g, parse_policy("O1"))
    rho0 = mixed_coin_density(op.space, 0)
    rhos = evolve_density(rho0, op, NoiseModel("both", 1.0), 6)
    for t in range(7):
        got = vertex_marginal(op.space, rhos[t])
        want = classical_walk(g, 0, t)
        assert np.max(np.abs(got - want)) < 1e-10


# ----- classical oracle -----

def test_transition_matrix_column_stochastic():
    g = build(Join(Edgeless(2), Cycle(3)))
    m = classical_transition_matrix(g)
    assert np.allclose(m.sum(axis=0), 1.0)
    assert np.all(m >= 0)


def test_transition_matrix_of_a_loop_and_an_isolated_vertex():
    # 0 - 1 - 2 with a loop at 1, and 3 alone
    adj = np.zeros((4, 4))
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = adj[1, 1] = 1.0
    third = 1.0 / 3.0
    want = np.array([
        [0.0, third, 0.0, 0.0],
        [1.0, third, 1.0, 0.0],
        [0.0, third, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.array_equal(classical_transition_matrix(Graph(adj)), want)


def test_cycle4_two_step_distribution():
    want = np.array([0.5, 0.0, 0.5, 0.0])
    assert np.allclose(classical_walk(build(Cycle(4)), 0, 2), want)


def test_classical_walk_accepts_distribution():
    g = build(Cycle(4))
    start = np.array([0.5, 0.0, 0.5, 0.0])
    out = classical_walk(g, start, 1)
    assert np.allclose(out, [0.0, 0.5, 0.0, 0.5])
    with pytest.raises(ConfigError):
        classical_walk(g, np.array([0.8, 0.0, 0.0, 0.1]), 1)
    with pytest.raises(ConfigError):
        classical_walk(g, np.array([0.5, 0.5]), 1)


# ----- continuous-time dephasing -----

def test_ct_rate_zero_matches_unitary():
    g = build(Cycle(4))
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    rho = decohere_ct(g, density_from_state(psi0), rate=0.0, t=3.0)
    want = evolve_ct(g, psi0, 3.0)
    assert np.max(np.abs(rho - np.outer(want, want.conj()))) < 1e-8


def test_ct_strong_dephasing_kills_coherence():
    g = build(Cycle(4))
    psi0 = np.ones(4, dtype=complex) / 2.0
    rho = decohere_ct(g, density_from_state(psi0), rate=8.0, t=4.0)
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) < 1e-2
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)


def test_ct_rejects_wrong_shape():
    g = build(Cycle(4))
    with pytest.raises(ConfigError):
        decohere_ct(g, np.eye(3, dtype=complex) / 3, rate=0.1, t=1.0)


def test_ct_rejects_negative_time():
    g = build(Cycle(4))
    with pytest.raises(ConfigError, match="non-negative"):
        decohere_ct(g, np.eye(4, dtype=complex) / 4, rate=0.1, t=-1.0)


def test_work_at_the_budget_runs_and_more_is_refused(monkeypatch):
    import qwalk.errors as errors

    g = build(Cycle(4))
    rho0 = np.eye(4, dtype=complex) / 4
    # ct: ||A||_1 = 2 cuts t = 1 into 4 pieces of 4^3 units, t = 1.25 into 5
    monkeypatch.setattr(errors, "WORK_LIMIT", 4 * 4**3)
    decohere_ct(g, rho0, rate=0.0, t=1.0)
    with pytest.raises(ConfigError, match="needs 320 work units, over the limit of 256"):
        decohere_ct(g, rho0, rate=0.0, t=1.25)
    # rate sweep: 8 arcs of degree 2 cost 8^2 x 2 units per density step
    init = equal_superposition(ArcSpace.from_graph(g), 0)
    monkeypatch.setattr(errors, "WORK_LIMIT", 2 * 3 * 8**2 * 2)
    target_probability_vs_rate(g, parse_policy("O2"), init, (0, 2), np.array([0.0, 0.5]), 3)
    with pytest.raises(ConfigError, match="needs 1,024 work units, over the limit of 768"):
        target_probability_vs_rate(g, parse_policy("O2"), init, (0, 2), np.array([0.0, 0.5]), 4)
    # one density walk: the same units per step, refused on its first draw
    op, rho0 = build_step_operator(g, parse_policy("O2")), density_from_state(init)
    monkeypatch.setattr(errors, "WORK_LIMIT", 3 * 8**2 * 2)
    evolve_density(rho0, op, NoiseModel("coin", 0.5), 3)
    with pytest.raises(ConfigError, match="density walk's .* needs 512 work units, over the limit "
                                          "of 384"):
        next(density_steps(rho0, op, NoiseModel("coin", 0.5), 4))


def test_noise_model_refuses_an_unknown_basis_and_a_rate_outside_0_1():
    with pytest.raises(ConfigError, match=r"noise basis must be one of \('position', 'coin', "
                                          r"'both'\), got 'spin'"):
        NoiseModel("spin", 0.1)
    with pytest.raises(ConfigError, match=r"noise rate must lie in \[0, 1\], got 1.5"):
        NoiseModel("coin", 1.5)


def test_ct_result_must_be_a_density():
    # trace one but a negative eigenvalue, which unitary evolution keeps
    rho0 = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ToleranceError, match="positivity"):
        decohere_ct(build(Cycle(4)), rho0, rate=0.0, t=1.0)


def _liouvillian(a: np.ndarray, rate: float) -> np.ndarray:
    """Dense generator on the row-major vec(rho); a reference for small n only."""
    n = a.shape[0]
    eye = np.eye(n)
    commutator = np.kron(a, eye) - np.kron(eye, a.T)
    return -1j * commutator - rate * np.diag(1.0 - eye.reshape(-1))


@st.composite
def ct_cases(draw):
    n = draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = bits
    a = a + np.triu(a, 1).T
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho0 = z @ z.conj().T
    rho0 /= np.trace(rho0).real
    return Graph(a), rho0, draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 20.0))


@given(ct_cases())
@settings(max_examples=25, deadline=None)
def test_ct_matches_dense_liouvillian_exponential(case):
    g, rho0, rate, t = case
    got = decohere_ct(g, rho0, rate=rate, t=t)
    want = (expm(t * _liouvillian(g.adjacency, rate)) @ rho0.reshape(-1)).reshape(g.n, g.n)
    assert np.max(np.abs(got - want)) < 1e-12


def test_ct_large_graph_without_the_dense_liouvillian():
    # the n^2 x n^2 generator of a 255-vertex graph would take 67 GB
    g = build(Cycle(255))
    psi0 = np.zeros(g.n, dtype=complex)
    psi0[0] = 1.0
    rho = decohere_ct(g, density_from_state(psi0), rate=0.0, t=0.2)
    want = evolve_ct(g, psi0, 0.2)
    assert np.max(np.abs(rho - np.outer(want, want.conj()))) < 1e-10


# ----- rate sweeps -----

def test_rate_sweep_endpoints():
    g = build(Join(Edgeless(2), Cycle(3)))
    space = ArcSpace.from_graph(g)
    init = equal_superposition(space, 0)
    sweep = target_probability_vs_rate(
        g, parse_policy("O2"), init, (0, 1), rates=np.array([0.0, 1.0]), step=6
    )
    assert sweep[0] == pytest.approx(1.0, abs=1e-9)
    assert sweep[1] == pytest.approx(0.171875, abs=1e-9)


def test_rate_sweep_monotone_near_zero():
    g = build(Join(Edgeless(2), Cycle(3)))
    space = ArcSpace.from_graph(g)
    init = equal_superposition(space, 0)
    sweep = target_probability_vs_rate(
        g, parse_policy("O2"), init, (0, 1), rates=np.array([0.0, 0.05, 0.1]), step=6
    )
    assert sweep[0] > sweep[1] > sweep[2]


def test_rate_sweep_memory_does_not_grow_with_the_step():
    g = build(Cycle(8))
    init = equal_superposition(ArcSpace.from_graph(g), 0)
    peaks = []
    for step in (50, 400):
        tracemalloc.start()
        try:
            target_probability_vs_rate(g, parse_policy("O2"), init, (0, 4), np.array([0.1]), step)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one 16 x 16 complex density is 4 KB; 351 more of them would be 1.4 MB
    assert peaks[1] <= peaks[0] + 16384


def test_rate_sweep_reads_the_last_density_step():
    g = build(Join(Edgeless(2), Cycle(4)))
    policy = parse_policy("O1")
    op = build_step_operator(g, policy)
    init = equal_superposition(op.space, 0)
    rho0 = density_from_state(init)
    sl = op.space.vertex_slice(1)
    rates = np.linspace(0.0, 1.0, 6)
    sweep = target_probability_vs_rate(g, policy, init, (0, 1), rates, step=9, basis="position")
    for rate, got in zip(rates, sweep):
        *_, rho = density_steps(rho0, op, NoiseModel("position", float(rate)), 9)
        assert got == np.real(np.trace(rho[sl, sl]))


@pytest.mark.parametrize("pair, vertex", [((0, -1), -1), ((0, 5), 5)],
                         ids=["negative", "past-n"])
def test_target_probability_vs_rate_refuses_a_vertex_outside_the_graph(pair, vertex):
    g = build(Cycle(5))
    psi0 = equal_superposition(ArcSpace.from_graph(g), 0)
    with pytest.raises(ConfigError, match=rf"^pair vertex {vertex} outside 0\.\.4$"):
        target_probability_vs_rate(g, parse_policy("O2"), psi0, pair, np.array([0.1]), step=3)


@pytest.mark.parametrize("start", [-1, 5], ids=["negative", "past-n"])
def test_classical_walk_refuses_a_start_outside_the_graph(start):
    with pytest.raises(ConfigError, match=rf"^start vertex {start} outside 0\.\.4$"):
        classical_walk(build(Cycle(5)), start, 3)

