import hashlib
import itertools
import json
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import explorer, graphs
from qwalk.errors import ConfigError
from qwalk.graphs import (
    Complete,
    Cycle,
    DiamondChain,
    Edgeless,
    Graph,
    Join,
    Path,
    build,
    canonical_key,
    graph_from_json,
    graph_from_key,
    graph_to_json,
)


def random_graph(seed: int, n: int, p: float = 0.4, loops: bool = False) -> Graph:
    rng = np.random.default_rng(seed)
    adj = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    adj = adj + adj.T
    if loops:
        adj[np.diag_indices(n)] = (rng.random(n) < 0.3).astype(float)
    return Graph(adj)


# ----- family builders -----

def test_complete_graph_degrees():
    g = build(Complete(5))
    assert g.n == 5
    assert all(g.degree(v) == 4 for v in range(5))


def test_cycle_structure():
    g = build(Cycle(6))
    assert np.flatnonzero(g.adjacency[0]).tolist() == [1, 5]
    assert all(g.degree(v) == 2 for v in range(6))


def test_cycle_too_small_message():
    with pytest.raises(ConfigError, match="cycle requires n ≥ 3"):
        build(Cycle(2))


def test_path_endpoints():
    g = build(Path(4))
    assert g.degree(0) == 1 and g.degree(3) == 1
    assert g.degree(1) == 2 and g.degree(2) == 2


def test_edgeless():
    g = build(Edgeless(3))
    assert g.n == 3
    assert g.edge_set() == set()


def test_join_hub_cycle_degrees():
    g = build(Join(Edgeless(2), Cycle(5)))
    assert g.n == 7
    assert sorted(g.degree(v) for v in range(7)) == [4, 4, 4, 4, 4, 5, 5]


def test_join_puts_first_part_first():
    g = build(Join(Edgeless(2), Cycle(4)))
    assert np.flatnonzero(g.adjacency[0]).tolist() == [2, 3, 4, 5]
    assert np.flatnonzero(g.adjacency[1]).tolist() == [2, 3, 4, 5]


def test_join_edge_count():
    g = build(Join(Edgeless(2), Edgeless(6)))
    assert len(g.edge_set()) == 12


def test_diamond_chain_shape():
    for n in (1, 2, 5):
        g = build(DiamondChain(n))
        assert g.n == 3 * n + 1
        degs = sorted(g.degree(v) for v in range(g.n))
        # ends have degree 2, shared corners degree 4, rest degree 2
        assert degs.count(4) == n - 1
        assert degs.count(2) == g.n - (n - 1)


def test_diamond_chain_loop_ends_degree():
    g = build(DiamondChain(3, loop_ends=True))
    assert g.adjacency[0, 0] != 0 and g.adjacency[g.n - 1, g.n - 1] != 0
    assert sum(g.adjacency[v, v] != 0 for v in range(g.n)) == 2
    assert g.degree(0) == 3 and g.degree(g.n - 1) == 3


def test_custom_family():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = Graph(adj)
    assert g.edge_set() == {(0, 1)}


def test_bad_adjacency_rejected():
    with pytest.raises(ConfigError):
        Graph(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ConfigError, match="edge weights must be finite"):
        Graph(np.array([[0.0, np.nan], [np.nan, 0.0]]))


@pytest.mark.parametrize("make, message", [
    (lambda: Graph(np.zeros((2, 3))), "adjacency must be a square matrix"),
    (lambda: Graph(np.zeros((0, 0))), "graph needs at least one vertex"),
    (lambda: Graph(np.array([[0.0, np.inf], [np.inf, 0.0]])), "edge weights must be finite"),
    (lambda: build(Complete(0)), "complete graph requires n ≥ 1"),
    (lambda: build(Edgeless(0)), "edgeless graph requires n ≥ 1"),
    (lambda: build(DiamondChain(0)), "diamond chain requires n ≥ 1"),
    (lambda: graphs.adjacency("cycle"), "unknown family spec: 'cycle'"),
    (lambda: graph_from_json("[1]"), "graph JSON must be an object"),
    (lambda: graph_from_json('{"n": 3, "edges": [[0, 1, 1], [1, 0, 2.5]], "loops": []}'),
     "graph JSON field 'edges': edge 1-0 is listed twice: [1, 0, 2.5]"),
    (lambda: graph_from_json('{"n": 3, "edges": [[0, 2, 0], [0, 2, 0]], "loops": []}'),
     "graph JSON field 'edges': edge 0-2 is listed twice: [0, 2, 0]"),
], ids=["not-square", "empty", "infinite", "complete-0", "edgeless-0", "diamond-0",
        "unknown-spec", "json-not-object", "json-edge-twice", "json-zero-edge-twice"])
def test_each_graph_refusal_names_its_rule(make, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        make()


# ----- canonical keys -----

def test_cycle5_self_complementary():
    g = build(Cycle(5))
    assert canonical_key(Graph(1.0 - g.adjacency - np.eye(5))) == canonical_key(g)


@given(st.integers(0, 500), st.integers(2, 7), st.permutations(list(range(7))))
@settings(max_examples=60, deadline=None)
def test_canonical_key_permutation_invariant(seed, n, perm):
    g = random_graph(seed, n)
    p = [x for x in perm if x < n]
    relabeled = Graph(g.adjacency[np.ix_(p, p)])
    assert canonical_key(relabeled) == canonical_key(g)


@given(st.integers(0, 500), st.integers(3, 7), st.permutations(list(range(7))))
@settings(max_examples=60, deadline=None)
def test_canonical_key_respects_marks(seed, n, perm):
    g = random_graph(seed, n)
    p = [x for x in perm if x < n]
    relabeled = Graph(g.adjacency[np.ix_(p, p)])
    marks = (0, n - 1)
    inv = {orig: new for new, orig in enumerate(p)}
    moved = tuple(inv[m] for m in marks)
    assert canonical_key(relabeled, marks=moved) == canonical_key(g, marks=marks)


def test_marks_distinguish_positions():
    g = build(Cycle(6))
    assert canonical_key(g, marks=(0, 3)) != canonical_key(g, marks=(0, 2))


def test_key_separates_cycle_from_path():
    assert canonical_key(build(Cycle(6))) != canonical_key(build(Path(6)))


def test_mark_out_of_range():
    with pytest.raises(ConfigError):
        canonical_key(build(Cycle(4)), marks=(0, 9))


def test_key_needs_fewer_than_256_vertices():
    assert canonical_key(build(Path(255)))[0] == 255
    with pytest.raises(ConfigError, match="at most 255 vertices"):
        canonical_key(build(Path(256)))


@pytest.mark.parametrize("weight", [2.0, 0.5, 1e-300])
def test_key_refuses_a_weighted_edge(weight):
    adj = build(Cycle(4)).adjacency.copy()
    adj[0, 1] = adj[1, 0] = weight
    with pytest.raises(ConfigError, match="unweighted graphs only"):
        canonical_key(Graph(adj))


# The key by its definition: refine the colouring by neighbourhood
# signatures (a copy kept apart from the library's, so that a change to
# the colour ranks shows), then try every order inside each colour class
# and keep the smallest bitstring.

def _reference_refine(adj: np.ndarray, colors: list[int]) -> list[int]:
    n = adj.shape[0]
    while True:
        signatures = []
        for v in range(n):
            nbr = tuple(sorted(colors[w] for w in np.nonzero(adj[v])[0] if w != v))
            signatures.append((colors[v], int(adj[v, v] != 0), nbr))
        ranked = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        new_colors = [ranked[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _brute_force_key(g: Graph, marks=()) -> bytes:
    adj = g.adjacency
    n = g.n
    mark_set = set(marks)
    colors = _reference_refine(adj, [1 if v in mark_set else 0 for v in range(n)])
    classes = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for combo in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        perm = list(itertools.chain.from_iterable(combo))
        rel = adj[np.ix_(perm, perm)]
        bits = bytes(1 if rel[i, j] else 0 for i in range(n) for j in range(i, n))
        key = bytes([n]) + bits
        if best is None or key < best:
            best = key
    return best


@st.composite
def marked_graphs(draw, max_n: int = 7):
    n = draw(st.integers(1, max_n))
    adj = np.zeros((n, n))
    pairs = n * (n - 1) // 2
    adj[np.triu_indices(n, 1)] = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    adj = adj + adj.T
    if draw(st.booleans()):
        adj[np.diag_indices(n)] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    marks = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    return Graph(adj), tuple(marks)


@st.composite
def regular_marked_graphs(draw):
    # Refinement leaves one colour class on a regular graph, so the key
    # search meets many tied rows, not all of them related by symmetry.
    degree = draw(st.integers(2, 4))
    n = draw(st.integers(6, 16).filter(lambda n: n * degree % 2 == 0))
    h = nx.random_regular_graph(degree, n, seed=draw(st.integers(0, 10**6)))
    adj = nx.to_numpy_array(h, nodelist=range(n))
    if draw(st.booleans()):
        adj[np.diag_indices(n)] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    marks = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    return Graph(adj), tuple(marks)


@given(marked_graphs())
@settings(max_examples=150, deadline=None)
def test_canonical_key_matches_brute_force(case):
    g, marks = case
    assert canonical_key(g, marks) == _brute_force_key(g, marks)


def _to_networkx(g: Graph, marks) -> nx.Graph:
    h = nx.Graph()
    for v in range(g.n):
        h.add_node(v, mark=v in marks, loop=g.adjacency[v, v] != 0)
    h.add_edges_from(g.edge_set())
    return h


@given(
    st.one_of(marked_graphs(max_n=8), regular_marked_graphs()),
    st.randoms(use_true_random=False),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_equal_keys_exactly_when_isomorphic_with_marks(case, rnd, perturb):
    # the second graph is a relabelled copy, and with ``perturb`` one
    # vertex pair (or one loop) is toggled, so both outcomes occur
    g, marks = case
    perm = list(range(g.n))
    rnd.shuffle(perm)
    adj = g.adjacency[np.ix_(perm, perm)].copy()
    if perturb:
        i, j = rnd.randrange(g.n), rnd.randrange(g.n)
        adj[i, j] = adj[j, i] = 1 - adj[i, j]
    h = Graph(adj)
    h_marks = tuple(perm.index(m) for m in marks)
    same_key = canonical_key(g, marks) == canonical_key(h, h_marks)
    iso = nx.is_isomorphic(
        _to_networkx(g, marks), _to_networkx(h, h_marks), node_match=lambda a, b: a == b
    )
    assert same_key == iso


def _relabeled(g: Graph, marks, seed: int):
    perm = np.random.default_rng(seed).permutation(g.n)
    inv = np.argsort(perm)
    return Graph(g.adjacency[np.ix_(perm, perm)]), tuple(int(inv[m]) for m in marks)


@pytest.mark.parametrize(
    "g, marks",
    [
        (build(Cycle(16)), ()),
        (build(Join(Edgeless(2), Edgeless(30))), (0, 1)),
        (Graph(nx.to_numpy_array(nx.petersen_graph())), ()),
        (Graph(nx.to_numpy_array(nx.hypercube_graph(4))), ()),
        (build(Complete(12)), ()),
    ],
    ids=["C16", "K2_30-marked", "Petersen", "Q4", "K12"],
)
def test_symmetric_graph_keys_survive_relabeling(g, marks):
    # Refinement leaves colour classes of up to 30 vertices here, so
    # listing every order inside each class would take up to 30! keys.
    key = canonical_key(g, marks)
    for seed in range(3):
        moved, moved_marks = _relabeled(g, marks, seed)
        assert canonical_key(moved, moved_marks) == key


def _key_from_relabelled_adjacency(g: Graph, marks=()) -> bytes:
    """The key as first defined: the upper triangle of the adjacency
    relabelled by the order search's order, one byte per entry."""
    rows = (g.adjacency != 0).tolist()
    nbrs = [[w for w, edge in enumerate(row) if edge and w != v] for v, row in enumerate(rows)]
    loops = [int(row[v]) for v, row in enumerate(rows)]
    colors = graphs._refine_colors(nbrs, loops, [1 if v in marks else 0 for v in range(g.n)])
    order = graphs._OrderSearch(nbrs, loops).minimum(graphs._color_classes(colors))
    rel = g.adjacency[np.ix_(order, order)]
    return bytes([g.n]) + bytes(rel[np.triu_indices(g.n)].astype(np.uint8))


def test_key_bytes_equal_the_relabelled_upper_triangle():
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(600):
        n = int(rng.integers(1, 19))
        adj = np.triu((rng.random((n, n)) < rng.random()).astype(float), k=1)
        adj = adj + adj.T
        adj[np.diag_indices(n)] = rng.random(n) < 0.2
        marks = tuple(rng.choice(n, size=int(rng.integers(0, min(3, n) + 1)), replace=False))
        cases.append((Graph(adj), marks))
    symmetric = [
        (build(Cycle(16)), (0, 8)),
        (build(Join(Edgeless(2), Edgeless(9))), (0, 1)),
        (Graph(nx.to_numpy_array(nx.hypercube_graph(4))), ()),
        (Graph(nx.to_numpy_array(nx.petersen_graph())), (0,)),
    ]
    for g, marks in symmetric:
        cases.extend(_relabeled(g, marks, seed) for seed in range(5))
    for g, marks in cases:
        assert canonical_key(g, marks) == _key_from_relabelled_adjacency(g, marks)


@st.composite
def _pair_marked_graphs(draw):
    """A graph of 2-8 vertices, loops allowed, with a marked pair."""
    n = draw(st.integers(2, 8))
    adj = np.zeros((n, n))
    adj[np.triu_indices(n)] = draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2,
                                            max_size=n * (n + 1) // 2))
    pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return Graph(adj + np.triu(adj, 1).T), tuple(pair)


@given(_pair_marked_graphs())
@settings(max_examples=150, deadline=None)
def test_graph_from_key_spells_its_key_with_the_pair_last(case):
    g, pair = case
    key = canonical_key(g, marks=pair)
    h = graph_from_key(key)
    n = g.n
    assert h.n == n
    assert canonical_key(h, marks=(n - 2, n - 1)) == key


@pytest.mark.parametrize("base, max_new, count, digest", [
    (4, 2, 96, "c8628bbcd350602344a17b3f34d1f0d37729ddde8ffcabf3bc073e87e306dd0b"),
    (6, 2, 1097, "fd5718d202713a89aaf04e80e7f4870a7d1ecfbf3a5432fc65a4038c98ca9fc4"),
])
def test_survey_keys_are_pinned(base, max_new, count, digest):
    keys = [key for key, _, _ in explorer._keyed_variants(base, max_new)]
    assert len(keys) == count
    assert hashlib.sha256(b"".join(keys)).hexdigest() == digest


# ----- JSON round trips -----

@given(st.integers(0, 500), st.integers(1, 7), st.booleans())
@settings(max_examples=50, deadline=None)
def test_json_round_trip(seed, n, loops):
    g = random_graph(seed, n, loops=loops)
    back = graph_from_json(graph_to_json(g))
    assert np.array_equal(back.adjacency, g.adjacency)


def test_json_schema_fields():
    data = json.loads(graph_to_json(build(DiamondChain(1, loop_ends=True))))
    assert set(data) == {"n", "edges", "loops"}
    assert data["n"] == 4
    assert data["loops"] == [0, 3]


def test_json_refuses_a_weighted_loop():
    # the schema's loops are bare vertices, so a loop of weight 2.5 would come back as 1
    adj = build(Path(3)).adjacency + np.diag([0.0, 1.0, 2.5])
    with pytest.raises(ConfigError, match="vertex 2 has loop weight 2.5; a JSON loop weighs 1"):
        graph_to_json(Graph(adj))
    assert json.loads(graph_to_json(Graph(adj - np.diag([0.0, 0.0, 2.5]))))["loops"] == [1]


def test_json_bad_inputs():
    with pytest.raises(ConfigError, match="invalid graph JSON"):
        graph_from_json("not json")
    with pytest.raises(ConfigError, match="missing field"):
        graph_from_json('{"n": 3, "edges": []}')
    with pytest.raises(ConfigError, match="out of range"):
        graph_from_json('{"n": 2, "edges": [[0, 5, 1.0]], "loops": []}')
