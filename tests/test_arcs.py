import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import explorer
from qwalk.arcs import ArcSpace
from qwalk.coins import parse_policy
from qwalk.decoherence import vertex_marginal
from qwalk.dtqw import detect_transfer, equal_superposition, vertex_probability
from qwalk.explorer import interpolation_sweep
from qwalk.graphs import Cycle, Edgeless, Graph, Join, build


@st.composite
def _graphs_and_arc_values(draw):
    """A graph with loops and an isolated vertex, and arc values of shape
    (m,) or (T, m) spread over six decades, so that sums round."""
    n = draw(st.integers(1, 12))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2,
                                          max_size=n * (n + 1) // 2))
    a = a + np.triu(a, 1).T
    lone = draw(st.integers(0, n - 1))
    a[lone] = a[:, lone] = 0.0
    g = Graph(a)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(), (1,), (5,)])) + (ArcSpace.from_graph(g).n_arcs,)
    return g, lone, rng.random(shape) * 10.0 ** rng.integers(-3, 3, shape)


@given(_graphs_and_arc_values())
@settings(max_examples=150, deadline=None)
def test_port_sum_is_bincount_over_heads_row_by_row(case):
    g, lone, values = case
    space = ArcSpace.from_graph(g)
    got = space.port_sum(values)
    assert got.shape == values.shape[:-1] + (g.n,)
    for row, sums in zip(np.atleast_2d(values), np.atleast_2d(got)):
        assert sums.tobytes() == np.bincount(space.heads, weights=row, minlength=g.n).tobytes()
    assert not got[..., lone].any()
    psi = np.sqrt(values) * np.exp(1j * values)
    for v in range(g.n):
        want = np.minimum(space.port_sum(np.abs(psi) ** 2)[..., v], 1.0)
        assert np.asarray(vertex_probability(space, psi, v)).tobytes() == want.tobytes()
    rho = np.diag(np.atleast_2d(values)[0]).astype(complex)
    assert vertex_marginal(space, rho).tobytes() == space.port_sum(np.real(np.diag(rho))).tobytes()


def _loop_built(g: Graph) -> ArcSpace:
    """The arc space as a per-vertex loop builds it: ascending neighbours,
    then the loop, with reversed arcs paired through a dict."""
    heads: list[int] = []
    targets: list[int] = []
    offsets = np.zeros(g.n + 1, dtype=int)
    for v in range(g.n):
        offsets[v] = len(heads)
        for w in range(g.n):
            if w != v and g.adjacency[v, w] != 0:
                heads.append(v)
                targets.append(w)
        if g.adjacency[v, v] != 0:
            heads.append(v)
            targets.append(v)
    offsets[g.n] = len(heads)
    index = {(v, w): a for a, (v, w) in enumerate(zip(heads, targets))}
    reverse = [index[(w, v)] for v, w in zip(heads, targets)]
    arrays = [np.asarray(a, dtype=int) for a in (heads, targets, offsets, reverse)]
    for arr in arrays:
        arr.flags.writeable = False
    return ArcSpace(*arrays)


@st.composite
def _weighted_graphs(draw):
    """1 to 40 vertices with weighted edges, weighted loops and isolated vertices."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    a = np.triu(rng.random((n, n)) < density) * rng.choice([1.0, 0.5, 3.0], (n, n))
    a = a + np.triu(a, 1).T
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        a[v] = a[:, v] = 0.0
    return Graph(a)


@given(_weighted_graphs())
@settings(max_examples=200, deadline=None)
def test_arc_layout_equals_the_loop_builder(g):
    got, want = ArcSpace._build(g), _loop_built(g)
    for name in ("heads", "targets", "offsets", "reverse"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.flags.writeable == b.flags.writeable, name
        assert np.array_equal(a, b), name
    assert np.array_equal(got.port_index, np.arange(got.n_arcs) - got.offsets[got.heads])
    assert not got.port_index.flags.writeable


def _reversed_ports(space: ArcSpace) -> ArcSpace:
    """The same arcs with every vertex's ports listed in reverse order."""
    ends = zip(space.offsets[:-1].tolist(), space.offsets[1:].tolist())
    perm = np.concatenate([np.arange(hi - 1, lo - 1, -1) for lo, hi in ends])
    # perm is its own inverse, so arc perm[i] reverses to perm[reverse[perm[i]]]
    return ArcSpace(space.heads, space.targets[perm], space.offsets, perm[space.reverse[perm]])


@pytest.fixture
def reversed_ports(monkeypatch):
    """Build every later arc space with each vertex's ports in reverse order."""
    build_arcs = ArcSpace._build
    monkeypatch.setattr(ArcSpace, "_build", classmethod(lambda cls, g: _reversed_ports(build_arcs(g))))


def test_reversed_ports_reverse_each_vertex(reversed_ports):
    space = ArcSpace.from_graph(build(Cycle(5)))
    assert space.targets.tolist() == [4, 1, 2, 0, 3, 1, 4, 2, 3, 0]
    assert np.array_equal(space.targets[space.reverse], space.heads)


@pytest.mark.parametrize("chain", sorted(explorer.INTERP_CHAINS))
def test_interpolation_sweep_does_not_depend_on_port_order(chain, request):
    cs = np.linspace(0.0, 1.0, 11)
    want = interpolation_sweep(chain, range(3, 10), cs)
    request.getfixturevalue("reversed_ports")
    got = interpolation_sweep(chain, range(3, 10), cs)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_grover_transfer_does_not_depend_on_port_order(request):
    def walk():
        g = build(Join(Edgeless(2), Cycle(7)))
        return detect_transfer(g, parse_policy("O2"), equal_superposition(ArcSpace.from_graph(g), 0),
                               (0, 1), t_max=60)

    want = walk()
    request.getfixturevalue("reversed_ports")
    got = walk()
    assert np.max(np.abs(got.vertex_series - want.vertex_series)) <= 1e-12
    assert np.max(np.abs(got.fidelity_series - want.fidelity_series)) <= 1e-12
