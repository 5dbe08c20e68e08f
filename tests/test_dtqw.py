import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.arcs import ArcSpace
from qwalk.coins import ExplicitMap, Uniform, grover, parse_policy
from qwalk.dtqw import (
    PST_SINGULAR_TOL,
    TIE_TOL,
    block_scan,
    build_step_operator,
    detect_transfer,
    equal_superposition,
    haar_states,
    max_transfer_scan,
    peak_step,
    state_at_vertex,
    target_block_powers,
    trajectory,
    vertex_probability,
)
from qwalk.errors import ConfigError, ToleranceError
from qwalk.explorer import VariantDescriptor, build_variant, enumerate_variants
from qwalk.graphs import Complete, Cycle, DiamondChain, Edgeless, Graph, Join, Path, build

POLICIES = ["O1", "O2", "O3"]
FAMILIES = [
    Cycle(4),
    Cycle(7),
    Path(5),
    Complete(4),
    Join(Edgeless(2), Cycle(5)),
    Join(Edgeless(2), Edgeless(3)),
    DiamondChain(2, loop_ends=True),
]


def shift_matrix(space: ArcSpace) -> np.ndarray:
    """Flip-flop shift S as a dense permutation matrix over arcs."""
    m = space.n_arcs
    s = np.zeros((m, m), dtype=complex)
    s[space.reverse, np.arange(m)] = 1.0
    return s


def coin_matrix(g: Graph, policy, space: ArcSpace) -> np.ndarray:
    """Dense block-diagonal coin C, one ``coin_for`` block per vertex."""
    c = np.zeros((space.n_arcs, space.n_arcs), dtype=complex)
    for v in range(g.n):
        sl = space.vertex_slice(v)
        c[sl, sl] = policy.coin_for(g, v, space.degree(v))
    return c


# ----- arc space and shift -----

def test_arc_space_ports_ascending():
    g = build(Join(Edgeless(2), Cycle(4)))
    space = ArcSpace.from_graph(g)
    # vertex 2 is a cycle vertex adjacent to both hubs and two cycle mates
    targets = [int(space.targets[a]) for a in space.ports(2)]
    assert targets == sorted(targets)


def test_loop_arc_is_last_port_and_counts_once():
    g = build(DiamondChain(1, loop_ends=True))
    space = ArcSpace.from_graph(g)
    assert space.degree(0) == 3
    last = space.ports(0)[-1]
    assert int(space.heads[last]) == 0 and int(space.targets[last]) == 0


def test_shift_is_flip_flop_involution():
    for fam in FAMILIES:
        g = build(fam)
        space = ArcSpace.from_graph(g)
        s = shift_matrix(space)
        assert np.allclose(s @ s, np.eye(space.n_arcs))
        for i in range(space.n_arcs):
            j = int(np.argmax(np.abs(s[:, i])))
            assert int(space.heads[j]) == int(space.targets[i])
            assert int(space.targets[j]) == int(space.heads[i])


# ----- step operator -----

@pytest.mark.parametrize("policy", POLICIES)
def test_step_operator_unitary(policy):
    for fam in FAMILIES:
        op = build_step_operator(build(fam), parse_policy(policy))
        m = op.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-12


@st.composite
def _graphs_and_policies(draw):
    """A graph with loops and mixed degrees (an isolated vertex gets a
    loop) and one of O1, O2, O3 or a JSON map with a real orthogonal
    coin at vertex 0 and Grover elsewhere."""
    n = draw(st.integers(1, 7))
    bits = draw(st.lists(st.booleans(), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = bits
    a = a + np.triu(a, 1).T
    for v in range(n):
        if not a[v].any():
            a[v, v] = 1.0
    g = Graph(a)
    label = draw(st.sampled_from(POLICIES + ["json"]))
    if label == "json":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((g.degree(0), g.degree(0))))
        label = json.dumps({"0": q.tolist()})
    return g, parse_policy(label)


@settings(max_examples=60, deadline=None)
@given(_graphs_and_policies())
def test_step_matrix_is_shift_times_coin(case):
    g, policy = case
    op = build_step_operator(g, policy)
    assert np.array_equal(op.matrix, shift_matrix(op.space) @ coin_matrix(g, policy, op.space))


def test_step_operator_runs_hold_the_coin_blocks():
    g = build(Join(Edgeless(2), Cycle(3)))
    op = build_step_operator(g, Uniform(grover))
    # two hubs of degree 3, then three cycle vertices of degree 4
    assert [(lo, hi, blocks.shape) for lo, hi, blocks, _ in op.runs] == [
        (0, 6, (2, 3, 3)),
        (6, 18, (3, 4, 4)),
    ]
    for _, _, blocks, adjoints in op.runs:
        d = blocks.shape[1]
        assert all(np.array_equal(b, grover(d)) for b in blocks)
        assert np.array_equal(adjoints, blocks.conj().transpose(0, 2, 1))


def test_wrong_coin_shape_is_rejected():
    g = build(Cycle(4))
    with pytest.raises(ConfigError, match=r"vertex 0: coin block is \(3, 3\), expected \(2, 2\)"):
        build_step_operator(g, ExplicitMap({0: np.eye(3)}, fallback=Uniform(grover)))


@settings(max_examples=60, deadline=None)
@given(_graphs_and_policies(), st.integers(0, 2**32 - 1))
def test_conjugate_matches_dense_product(case, seed):
    g, policy = case
    op = build_step_operator(g, policy)
    m = op.space.n_arcs
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    u = op.matrix
    for x in (z, z @ z.conj().T / np.trace(z @ z.conj().T).real):
        assert np.max(np.abs(op.conjugate(x) - u @ x @ u.conj().T)) <= 1e-12


def test_non_unitary_coin_is_rejected():
    g = build(Cycle(4))
    for scale in (0.5, 1.0 + 1e-11, float("nan")):
        policy = parse_policy(json.dumps({"0": [[scale, 0.0], [0.0, 1.0]]}))
        with pytest.raises(ToleranceError, match="unitarity defect"):
            build_step_operator(g, policy)


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_norm_conserved_over_many_steps(seed):
    g = build(Join(Edgeless(2), Cycle(4)))
    op = build_step_operator(g, parse_policy("O2"))
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(op.space.n_arcs) + 1j * rng.standard_normal(op.space.n_arcs)
    psi = psi / np.linalg.norm(psi)
    out = trajectory(op, psi, 50)[-1]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_probabilities_sum_to_one():
    g = build(Cycle(5))
    op = build_step_operator(g, parse_policy("O3"))
    psi = equal_superposition(op.space, 0)
    psi = trajectory(op, psi, 7)[-1]
    total = sum(vertex_probability(op.space, psi, v) for v in range(g.n))
    assert abs(total - 1.0) < 1e-12


def test_state_at_vertex_placement():
    g = build(Cycle(4))
    space = ArcSpace.from_graph(g)
    psi = state_at_vertex(space, 2, [1.0, 0.0])
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    assert vertex_probability(space, psi, 2) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        state_at_vertex(space, 2, [1.0, 0.0, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="unit norm"):
            state_at_vertex(space, 2, [bad, 0.0])


def test_detect_transfer_rejects_bad_init():
    g = build(Cycle(4))
    with pytest.raises(ConfigError, match="arc space"):
        detect_transfer(g, parse_policy("O2"), np.ones(3), (0, 2))
    with pytest.raises(ToleranceError, match="norm drift nan"):
        detect_transfer(g, parse_policy("O2"), np.full(8, np.nan), (0, 2), t_max=3)


# ----- transfer physics -----

def test_hub_cycle_pst_and_period():
    g = build(Join(Edgeless(2), Cycle(5)))
    space = ArcSpace.from_graph(g)
    rep = detect_transfer(g, parse_policy("O2"), equal_superposition(space, 0), (0, 1), t_max=30)
    assert 6 in rep.pst_steps and 18 in rep.pst_steps
    assert rep.strict_period == 12


def test_hub_pair_two_step_transfer_from_any_state():
    g = build(Join(Edgeless(2), Edgeless(3)))
    op = build_step_operator(g, parse_policy("O2"))
    block = None
    for t, b in enumerate(target_block_powers(op, (0, 1), 2), start=1):
        if t == 2:
            block = b
    states = haar_states(3, 50, seed=11)
    probs = np.sum(np.abs(states @ block.T) ** 2, axis=1)
    assert probs.min() >= 1.0 - 1e-9


def test_hub_arrival_independent_of_cycle_size():
    # the walker cannot resolve the cycle size from a hub start until
    # amplitude returns from the cycle, so early hub probabilities match
    series = {}
    for n in (4, 9):
        g = build(Join(Edgeless(2), Cycle(n)))
        space = ArcSpace.from_graph(g)
        rep = detect_transfer(
            g, parse_policy("O2"), equal_superposition(space, 0), (0, 1), t_max=6
        )
        series[n] = rep.target_series
    assert np.max(np.abs(series[4] - series[9])) < 1e-12


def test_report_internal_consistency():
    g = build(Join(Edgeless(2), Cycle(6)))
    space = ArcSpace.from_graph(g)
    rep = detect_transfer(g, parse_policy("O2"), equal_superposition(space, 0), (0, 1), t_max=25)
    assert rep.max_probability == pytest.approx(np.max(rep.target_series[1:]))
    assert rep.target_series[rep.max_step] == pytest.approx(rep.max_probability)
    assert all(rep.target_series[t] >= 1 - 1e-9 for t in rep.pst_steps)
    assert rep.high_amplitude is True
    data = rep.to_json_dict()
    assert data["strict_period"] == rep.strict_period
    assert len(data["target_series"]) == 26


def test_diamond_chain_equal_superposition_hits_far_end():
    for n in (2, 3):
        g = build(DiamondChain(n))
        space = ArcSpace.from_graph(g)
        rep = detect_transfer(
            g, parse_policy("O2"), equal_superposition(space, 0), (0, 3 * n), t_max=2 * n
        )
        assert rep.target_series[2 * n] >= 1.0 - 1e-9
        assert rep.pst_steps == (2 * n,)


# ----- scans -----

def test_scan_deterministic_and_seed_sensitive():
    g = build(DiamondChain(2))
    a = max_transfer_scan(g, parse_policy("O1"), (0, 6), samples=60, t_max=40, seed=3)
    b = max_transfer_scan(g, parse_policy("O1"), (0, 6), samples=60, t_max=40, seed=3)
    c = max_transfer_scan(g, parse_policy("O1"), (0, 6), samples=60, t_max=40, seed=4)
    assert a == b
    assert a.max_probability != c.max_probability


def test_scan_finds_guaranteed_transfer():
    g = build(Join(Edgeless(2), Edgeless(4)))
    scan = max_transfer_scan(g, parse_policy("O2"), (0, 1), samples=40, t_max=10, seed=0)
    assert scan.max_probability >= 1.0 - 1e-9
    assert scan.best_step == 2
    assert scan.fraction_over_lam == 1.0


def test_haar_states_normalized_and_reproducible():
    a = haar_states(5, 30, seed=2)
    b = haar_states(5, 30, seed=2)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
    with pytest.raises(ConfigError):
        haar_states(0, 3, seed=1)


# ----- propagation kernel -----

@st.composite
def _variants(draw):
    base = draw(st.sampled_from([4, 6]))
    subsets = st.lists(st.integers(0, base - 1), min_size=1, max_size=base, unique=True)
    attachments = tuple(
        tuple(sorted(sub)) for sub in draw(st.lists(subsets, min_size=1, max_size=2))
    )
    links = ((0, 1),) if len(attachments) == 2 and draw(st.booleans()) else ()
    return VariantDescriptor(base, attachments, links)


@settings(max_examples=40, deadline=None)
@given(_variants(), st.sampled_from(POLICIES))
def test_trajectory_blocks_match_matrix_powers(desc, policy):
    g = build_variant(desc)
    op = build_step_operator(g, parse_policy(policy))
    pair = (0, desc.base // 2)
    src = op.space.vertex_slice(pair[0])
    tgt = op.space.vertex_slice(pair[1])
    blocks = target_block_powers(op, pair, 30)
    states = trajectory(op, np.eye(op.space.n_arcs)[:, src], 30)
    for t in range(1, 31):
        power = np.linalg.matrix_power(op.matrix, t)
        assert np.max(np.abs(blocks[t - 1] - power[tgt, src])) <= 1e-12
        assert np.max(np.abs(states[t] - power[:, src])) <= 1e-12


def test_trajectory_of_a_state_matches_stepping():
    g = build(Join(Edgeless(2), Cycle(5)))
    op = build_step_operator(g, parse_policy("O2"))
    psi = equal_superposition(op.space, 0)
    states = trajectory(op, psi, 12)
    assert states.shape == (13, op.space.n_arcs)
    assert np.array_equal(states[0], psi)
    for t in range(12):
        psi = op.matrix @ psi
        assert np.array_equal(states[t + 1], psi)


def test_gram_certificate_matches_singular_values():
    # every C4 variant with one added node, in both directions: the top
    # Gram eigenvalue test and the top singular value test agree each step
    seen_hits = 0
    for _, g in enumerate_variants(4, 1):
        for policy in POLICIES:
            op = build_step_operator(g, parse_policy(policy))
            pairs = [(0, 2), (2, 0)]
            states = [haar_states(op.space.degree(s), 20, seed=1) for s, _ in pairs]
            scans = block_scan(op, pairs, states, 40, 0.9)
            for pair, scan in zip(pairs, scans):
                gram_hits = scan.top_gram >= (1.0 - PST_SINGULAR_TOL) ** 2
                svd_hits = np.array([
                    np.linalg.svd(block, compute_uv=False)[0] >= 1.0 - PST_SINGULAR_TOL
                    for block in target_block_powers(op, pair, 40)
                ])
                case = (g.edge_set(), policy, pair)
                assert np.array_equal(gram_hits, svd_hits), case
                assert scan.pst_steps == tuple(np.flatnonzero(svd_hits) + 1), case
                seen_hits += int(gram_hits.sum())
    assert seen_hits > 0


def test_block_scan_matches_direct_probabilities():
    g = build(Join(Edgeless(2), Cycle(6)))
    op = build_step_operator(g, parse_policy("O1"))
    states = haar_states(op.space.degree(0), 70, seed=4)
    blocks = target_block_powers(op, (0, 1), 25)
    probs = np.stack([np.sum(np.abs(states @ block.T) ** 2, axis=1) for block in blocks])
    for lam in (0.3, 0.9):
        [scan] = block_scan(op, [(0, 1)], [states], 25, lam)
        assert abs(scan.max_probability - probs.max()) <= 1e-12
        assert scan.best_step == peak_step(probs.max(axis=1))
        assert scan.fraction_over_lam == np.mean(probs.max(axis=0) > lam)
        tops = [np.linalg.svd(block, compute_uv=False)[0] ** 2 for block in blocks]
        assert np.max(np.abs(scan.top_gram - tops)) <= 1e-12
    assert 0 < np.mean(probs.max(axis=0) > 0.3) < 1


def test_tie_rule_takes_earliest_near_maximum():
    values = np.array([0.2, 1.0 - TIE_TOL / 2, 0.5, 1.0, 1.0])
    assert peak_step(values) == 2
    assert peak_step(np.array([0.2, 1.0 - 2 * TIE_TOL, 1.0])) == 3
    assert peak_step(np.zeros(4)) == 1


def test_block_scan_chunks_agree_with_one_pass(monkeypatch):
    import qwalk.dtqw as dtqw

    g = build(Join(Edgeless(2), Cycle(7)))
    op = build_step_operator(g, parse_policy("O3"))
    pairs = [(0, 1), (2, 5)]
    states = [haar_states(op.space.degree(s), 90, seed=s) for s, _ in pairs]
    whole = block_scan(op, pairs, states, 33, 0.5)
    # pieces of a few steps, and one sample row per product
    monkeypatch.setattr(dtqw, "_CHUNK_BYTES", 3000)
    chunked = block_scan(op, pairs, states, 33, 0.5)
    for a, b in zip(whole, chunked):
        assert abs(a.max_probability - b.max_probability) <= 1e-12
        assert (a.best_step, a.fraction_over_lam) == (b.best_step, b.fraction_over_lam)
        assert a.top_gram.shape == b.top_gram.shape == (33,)
        assert np.max(np.abs(a.top_gram - b.top_gram)) <= 1e-12


def _scan_with_and_without_pruning(monkeypatch, op, pairs, states, t_max, lam):
    """block_scan as is, and with every step folded (an infinite slack
    opens every step); also the number of steps each folded."""
    import qwalk.dtqw as dtqw

    folds = []
    fold = dtqw._sample_probabilities

    def counted(gram, rows):
        folds[-1] += 1
        return fold(gram, rows)

    scans = []
    for slack in (dtqw._PRUNE_SLACK, np.inf):
        with monkeypatch.context() as patch:
            patch.setattr(dtqw, "_sample_probabilities", counted)
            patch.setattr(dtqw, "_PRUNE_SLACK", slack)
            folds.append(0)
            scans.append(block_scan(op, pairs, states, t_max, lam))
    return scans, folds


def _assert_same_scans(pruned, full):
    for a, b in zip(pruned, full):
        assert (a.max_probability, a.best_step, a.fraction_over_lam) == (
            b.max_probability, b.best_step, b.fraction_over_lam
        )
        assert np.array_equal(a.top_gram, b.top_gram)


def test_pruned_scan_equals_folding_every_step(monkeypatch):
    # every variant of C4 with up to two added nodes and of C6 with one,
    # both directions, under each uniform policy
    pruned_folds = full_folds = 0
    for base, max_new in ((4, 2), (6, 1)):
        for idx, (_, g) in enumerate(enumerate_variants(base, max_new)):
            for policy in POLICIES:
                op = build_step_operator(g, parse_policy(policy))
                pairs = [(0, base // 2), (base // 2, 0)]
                states = [haar_states(op.space.degree(s), 100, seed=idx) for s, _ in pairs]
                (pruned, full), folds = _scan_with_and_without_pruning(
                    monkeypatch, op, pairs, states, 30, 0.9
                )
                _assert_same_scans(pruned, full)
                pruned_folds += folds[0]
                full_folds += folds[1]
    assert pruned_folds < full_folds / 4


def test_pruned_scan_keeps_steps_only_the_best_holds_open(monkeypatch):
    # lam = 0.999 is above every top eigenvalue, so only the best-so-far
    # rule opens steps.  ((0, 1),): the best sample arrives at step 2, not
    # at the top-eigenvalue step 21.  ((0, 2),): steps 2, 6, ... tie within
    # ulps, and the best sample beats the computed top eigenvalue by ulps.
    for desc, seed, want_step, top_step in ((((0, 1),), 2, 2, 21), (((0, 2),), 3, 2, 26)):
        op = build_step_operator(build_variant(VariantDescriptor(4, desc)), parse_policy("O1"))
        states = haar_states(op.space.degree(0), 30, seed=seed)
        ([pruned], [full]), folds = _scan_with_and_without_pruning(
            monkeypatch, op, [(0, 2)], [states], 30, 0.999
        )
        _assert_same_scans([pruned], [full])
        assert (pruned.best_step, int(np.argmax(pruned.top_gram)) + 1) == (want_step, top_step)
        assert pruned.top_gram.max() < 0.999
        assert 1 < folds[0] < folds[1]


def test_pruned_scan_counts_a_sample_just_over_lam(monkeypatch):
    # C4 with a pendant at 0 under O1: at step 22 the computed s^H G s of
    # G's top eigenvector s exceeds the computed top eigenvalue by an ulp.
    # With lam at that eigenvalue, only the rounding slack opens step 22,
    # the one step where s beats lam.
    import qwalk.dtqw as dtqw

    op = build_step_operator(build_variant(VariantDescriptor(4, ((0,),))), parse_policy("O1"))
    blocks = target_block_powers(op, (0, 2), 30)
    grams = blocks.conj().transpose(0, 2, 1) @ blocks
    top = np.linalg.eigvalsh(grams)[:, -1]
    vecs = np.linalg.eigh(grams)[1][:, :, -1]
    best = int(np.argmax(top))
    states = np.ascontiguousarray(vecs[[21, best]])
    probs = np.stack([np.sum(np.abs(states @ block.T) ** 2, axis=1) for block in blocks])
    lam = top[21]
    assert dtqw._sample_probabilities(grams[21], states[:1])[0] > lam
    assert np.all(np.delete(probs[:, 0], 21) < lam) and top[21] < top[best] - 1e-3
    ([pruned], [full]), folds = _scan_with_and_without_pruning(
        monkeypatch, op, [(0, 2)], [states], 30, lam
    )
    _assert_same_scans([pruned], [full])
    assert pruned.fraction_over_lam == 1.0
    monkeypatch.setattr(dtqw, "_PRUNE_SLACK", 0.0)
    assert block_scan(op, [(0, 2)], [states], 30, lam)[0].fraction_over_lam == 0.5


def test_detect_transfer_pieces_agree_with_one_pass(monkeypatch):
    import qwalk.dtqw as dtqw

    g = build(DiamondChain(3, loop_ends=True))
    psi = equal_superposition(ArcSpace.from_graph(g), 0)
    whole = detect_transfer(g, parse_policy("O1"), psi, (0, 9), t_max=47)
    monkeypatch.setattr(dtqw, "_CHUNK_BYTES", 2000)
    pieces = detect_transfer(g, parse_policy("O1"), psi, (0, 9), t_max=47)
    assert np.array_equal(whole.vertex_series, pieces.vertex_series)
    assert np.array_equal(whole.fidelity_series, pieces.fidelity_series)
    assert whole.to_json_dict() == pieces.to_json_dict()
