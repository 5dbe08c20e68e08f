"""The dtype rule: real coins and real starts walk in float64, complex ones
in complex128, and both agree with a dense complex128 reference."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import dtqw
from qwalk.arcs import ArcSpace
from qwalk.coins import ExplicitMap, interp_grover, parse_policy
from qwalk.decoherence import (
    NoiseModel,
    density_from_state,
    density_steps,
    target_probability_vs_rate,
)
from qwalk.dtqw import (
    block_scan,
    build_step_operator,
    detect_transfer,
    equal_superposition,
    haar_states,
    state_at_vertex,
    target_block_powers,
    trajectory,
)
from qwalk.graphs import Cycle, Edgeless, Graph, Join, Path, build

HUB_CYCLE = build(Join(Edgeless(2), Cycle(5)))  # hubs of degree 5, cycle vertices of degree 4


def _interp_map(g: Graph, c: float) -> ExplicitMap:
    """interp_grover(d, 1, c) at every vertex of degree d >= 2; grover elsewhere."""
    return ExplicitMap({v: interp_grover(g.degree(v), 1, c) for v in range(g.n) if g.degree(v) >= 2})


REAL_POLICIES = {
    "O2": parse_policy("O2"),
    "O3": parse_policy("O3"),
    "interp": _interp_map(HUB_CYCLE, 0.4),
}


def _traced_dtypes(monkeypatch) -> list:
    """Record the dtype of every trajectory table and of every Gram a scan folds."""
    seen = []
    walk, fold = dtqw.trajectory, dtqw._sample_probabilities

    def traced_walk(op, cols, t_max):
        out = walk(op, cols, t_max)
        seen.append(out.dtype)
        return out

    def traced_fold(gram, states):
        seen.append(gram.dtype)
        return fold(gram, states)

    monkeypatch.setattr(dtqw, "trajectory", traced_walk)
    monkeypatch.setattr(dtqw, "_sample_probabilities", traced_fold)
    return seen


# ----- the dtype contract -----

@pytest.mark.parametrize("label", sorted(REAL_POLICIES))
def test_real_coins_from_real_starts_walk_in_float64(label, monkeypatch):
    op = build_step_operator(HUB_CYCLE, REAL_POLICIES[label])
    psi = equal_superposition(op.space, 0)
    rho = density_from_state(psi)
    assert op.matrix.dtype == psi.dtype == rho.dtype == np.float64
    assert trajectory(op, psi, 4).dtype == np.float64
    assert op.conjugate(rho).dtype == np.float64
    assert [r.dtype for r in density_steps(rho, op, NoiseModel("coin", 0.3), 4)] == [np.float64] * 5
    assert target_block_powers(op, (0, 1), 6).dtype == np.float64
    seen = _traced_dtypes(monkeypatch)
    detect_transfer(HUB_CYCLE, REAL_POLICIES[label], psi, (0, 1), t_max=12)
    [scan] = block_scan(op, [(0, 1)], [haar_states(5, 30, 2)], 12, 0.9)
    assert scan.top_gram.dtype == np.float64
    assert len(seen) >= 3 and all(dtype == np.float64 for dtype in seen)


def test_complex_coins_and_haar_starts_walk_in_complex128(monkeypatch):
    # O1 is the Fourier coin: complex at every degree from 3 on
    g = build(Path(3)).adjacency.copy()
    g[1, 1] = 1.0  # a loop makes the middle vertex degree 3
    o1 = build_step_operator(Graph(g), parse_policy("O1"))
    psi = equal_superposition(o1.space, 1)
    assert o1.matrix.dtype == np.complex128
    assert trajectory(o1, psi, 4).dtype == np.complex128
    # the real start enters as float64; every step after it is complex
    steps = density_steps(density_from_state(psi), o1, NoiseModel("both", 0.3), 3)
    assert [r.dtype for r in steps] == [np.float64] + [np.complex128] * 3
    # a Haar start under a real coin
    o2 = build_step_operator(HUB_CYCLE, parse_policy("O2"))
    haar = state_at_vertex(o2.space, 0, haar_states(5, 1, 3)[0])
    assert haar.dtype == np.complex128
    assert trajectory(o2, haar, 4).dtype == np.complex128
    assert o2.conjugate(density_from_state(haar)).dtype == np.complex128
    seen = _traced_dtypes(monkeypatch)
    detect_transfer(HUB_CYCLE, parse_policy("O2"), haar, (0, 1), t_max=5)
    assert seen == [np.complex128]


def test_a_complex_typed_real_start_gives_the_same_bytes_as_a_float_start():
    space = ArcSpace.from_graph(HUB_CYCLE)
    real = state_at_vertex(space, 0, [0.6, 0.0, 0.8, 0.0, 0.0])
    typed = real.astype(complex)
    assert real.dtype == np.float64
    assert state_at_vertex(space, 0, [0.6 + 0j, 0j, 0.8, 0, 0]).tobytes() == real.tobytes()
    for policy in REAL_POLICIES.values():
        a, b = (detect_transfer(HUB_CYCLE, policy, s, (0, 1), t_max=40) for s in (real, typed))
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        assert a.vertex_series.tobytes() == b.vertex_series.tobytes()
        assert a.fidelity_series.tobytes() == b.fidelity_series.tobytes()
        op = build_step_operator(HUB_CYCLE, policy)
        noise = NoiseModel("position", 0.2)
        for x, y in zip(density_steps(density_from_state(real), op, noise, 6),
                        density_steps(np.outer(typed, typed.conj()), op, noise, 6)):
            assert x.tobytes() == y.tobytes()
        rates = np.array([0.0, 0.5])
        assert target_probability_vs_rate(HUB_CYCLE, policy, real, (0, 1), rates, 5).tobytes() \
            == target_probability_vs_rate(HUB_CYCLE, policy, typed, (0, 1), rates, 5).tobytes()


# ----- agreement with a dense complex128 U -----

@st.composite
def _walks(draw):
    """A small unweighted graph with loops (an isolated vertex 0 gets one,
    any other may keep none), a coin policy, and a real unit start over all
    arcs."""
    n = draw(st.integers(1, 6))
    bits = draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    loops = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = bits
    a = a + np.triu(a, 1).T
    for v in range(n):
        if not a[v].any() and (v == 0 or loops[v]):
            a[v, v] = 1.0
    g = Graph(a)
    label = draw(st.sampled_from(["O1", "O2", "O3", "interp"]))
    policy = _interp_map(g, draw(st.floats(0.0, 1.0))) if label == "interp" else parse_policy(label)
    m = ArcSpace.from_graph(g).n_arcs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.standard_normal(m)
    return g, policy, psi / np.linalg.norm(psi)


def _dense_u(g: Graph, policy, space: ArcSpace) -> np.ndarray:
    """U = S C in complex128, from each vertex's coin block and the arc reversal."""
    m = space.n_arcs
    c = np.zeros((m, m), dtype=complex)
    for v in range(g.n):
        if space.degree(v):
            sl = space.vertex_slice(v)
            c[sl, sl] = policy.coin_for(g, v, space.degree(v))
    s = np.zeros((m, m), dtype=complex)
    s[space.reverse, np.arange(m)] = 1.0
    return s @ c


def _survivors(space: ArcSpace, basis: str) -> np.ndarray:
    """1 where an arc pair keeps its coherence under dephasing in basis."""
    ports = np.arange(space.n_arcs) - space.offsets[space.heads]
    label = {"position": space.heads, "coin": ports, "both": np.arange(space.n_arcs)}[basis]
    return (label[:, None] == label[None, :]).astype(float)


@settings(max_examples=40, deadline=None)
@given(_walks())
def test_real_arithmetic_agrees_with_a_dense_complex_step(case):
    g, policy, psi = case
    op = build_step_operator(g, policy)
    u = _dense_u(g, policy, op.space)
    states = trajectory(op, psi, 50)
    want = psi.astype(complex)
    for t in range(51):
        assert np.max(np.abs(states[t] - want)) <= 1e-12, t
        want = u @ want
    rho0 = np.outer(psi, psi).astype(complex)
    for basis in ("coin", "position", "both"):
        for p in (0.0, 0.3):
            weight = (1.0 - p) + p * _survivors(op.space, basis)
            want = rho0
            for t, got in enumerate(density_steps(density_from_state(psi), op, NoiseModel(basis, p), 20)):
                assert np.max(np.abs(got - want)) <= 1e-12, (basis, p, t)
                want = (u @ want @ u.conj().T) * weight
