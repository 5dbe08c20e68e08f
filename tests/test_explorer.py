import concurrent.futures
import functools
import itertools
import json
import os
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.coins import Uniform, grover, interp_grover, parse_policy
from qwalk.dtqw import (
    PST_SINGULAR_TOL,
    ScanResult,
    build_step_operator,
    detect_transfer,
    equal_superposition,
    state_at_vertex,
    trajectory,
    vertex_probability,
)
from qwalk.errors import ConfigError
from qwalk.graphs import JOIN_FAMILIES, Edgeless, Graph, Join, build, canonical_key, graph_from_key
from qwalk.explorer import (
    SearchRecord,
    VariantDescriptor,
    build_variant,
    enumerate_variants,
    family_initial_state,
    interpolation_sweep,
    is_trivial_variant,
    pst_search,
    robustness_sweep,
)
from qwalk import explorer
from qwalk.arcs import ArcSpace
from qwalk.dtqw import haar_states, unit_vector


# ----- descriptors and enumeration -----

def test_descriptor_validation():
    with pytest.raises(ConfigError):
        VariantDescriptor(2, ((0,),))
    with pytest.raises(ConfigError):
        VariantDescriptor(4, ((),))
    with pytest.raises(ConfigError):
        VariantDescriptor(4, ((0, 9),))
    with pytest.raises(ConfigError):
        VariantDescriptor(4, ((1, 0),))
    with pytest.raises(ConfigError):
        VariantDescriptor(4, ((0,),), links=((0, 1),))


def test_build_variant_adjacency():
    g = build_variant(VariantDescriptor(4, ((0, 2), (1,)), links=((0, 1),)))
    assert g.n == 6
    assert np.flatnonzero(g.adjacency[4]).tolist() == [0, 2, 5]
    assert np.flatnonzero(g.adjacency[5]).tolist() == [1, 4]
    assert np.flatnonzero(g.adjacency[0]).tolist() == [1, 3, 4]


def test_trivial_variant_detection():
    assert is_trivial_variant(VariantDescriptor(4, ((2,), (2,))), target=2)
    assert not is_trivial_variant(VariantDescriptor(4, ((2,), (0, 2))), target=2)


def test_single_pendant_classes_collapse_to_two():
    # a lone added node wired to exactly one cycle vertex is either at
    # an antipode or at a side vertex; mirrors and pair swaps collapse
    # the four positions into those two classes
    found = [
        desc
        for desc, _ in enumerate_variants(4, 1)
        if len(desc.attachments) == 1 and len(desc.attachments[0]) == 1
    ]
    assert len(found) == 2


def test_enumeration_count_base4():
    one = list(enumerate_variants(4, 1))
    two = list(enumerate_variants(4, 2))
    assert len(one) == 8
    assert len(two) == 96
    keys = set()
    for desc, g in two:
        from qwalk.graphs import canonical_key

        keys.add(canonical_key(g, marks=(0, 2)))
    assert len(keys) == 96


def test_enumeration_count_base6():
    assert sum(1 for _ in enumerate_variants(6, 2)) == 1097


def _exhaustive_keyed_variants(base, max_new):
    """Reference enumeration: build and key every candidate in order."""
    from qwalk.graphs import canonical_key

    subsets = [
        tuple(sorted(s))
        for r in range(1, base + 1)
        for s in itertools.combinations(range(base), r)
    ]
    seen = set()
    for k in range(1, max_new + 1):
        link_choices = list(itertools.combinations(range(k), 2))
        for attachments in itertools.combinations_with_replacement(subsets, k):
            for link_count in range(len(link_choices) + 1):
                for links in itertools.combinations(link_choices, link_count):
                    desc = VariantDescriptor(base, attachments, links)
                    key = canonical_key(build_variant(desc), marks=(0, base // 2))
                    if key not in seen:
                        seen.add(key)
                        yield key, desc


@pytest.mark.parametrize("base,max_new", [(4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (8, 1)])
def test_orderly_enumeration_matches_keying_every_candidate(base, max_new):
    orderly = [(key, desc) for key, desc, _ in explorer._keyed_variants(base, max_new)]
    assert orderly == list(_exhaustive_keyed_variants(base, max_new))


def test_orderly_enumeration_skips_symmetric_images(monkeypatch):
    calls = []
    real_key = explorer.canonical_key

    def counted(*args, **kwargs):
        calls.append(1)
        return real_key(*args, **kwargs)

    monkeypatch.setattr(explorer, "canonical_key", counted)
    assert len(list(enumerate_variants(6, 2))) == 1097
    # 1,159 of the 4,095 candidates survive the symmetry check
    assert len(calls) <= 1200


def test_enumeration_rejects_odd_base():
    with pytest.raises(ConfigError):
        list(enumerate_variants(5, 1))


def _marked_isomorphic(g, h, marks) -> bool:
    if g.n != h.n:
        return False
    mark_set = set(marks)
    for perm in itertools.permutations(range(g.n)):
        if {perm[m] for m in mark_set} != mark_set:
            continue
        p = list(perm)
        if np.array_equal(g.adjacency[np.ix_(p, p)], h.adjacency):
            return True
    return False


def test_dedup_emits_pairwise_nonisomorphic_variants():
    variants = [g for _, g in enumerate_variants(4, 1)]
    for a, b in itertools.combinations(variants, 2):
        assert not _marked_isomorphic(a, b, (0, 2))


def test_dedup_collapses_known_mirror_pair():
    # tails on vertex 1 and tails on vertex 3 are reflections of each
    # other across the marked axis, so only one may survive
    keys = set()
    from qwalk.graphs import canonical_key

    for spot in (1, 3):
        g = build_variant(VariantDescriptor(4, ((spot,),)))
        keys.add(canonical_key(g, marks=(0, 2)))
    assert len(keys) == 1


# ----- search -----

def test_search_records_schema_and_determinism(tmp_path):
    a = pst_search(4, 1, samples=120, t_max=20, seed=5)
    b = pst_search(4, 1, samples=120, t_max=20, seed=5)
    assert a == b
    assert len(a) == 24
    rec = a[0]
    assert set(rec.to_json().count(k) for k in ("key", "descriptor")) == {1}
    assert rec.max_probability >= a[-1].max_probability


def test_search_record_json_is_the_dataclass_dict():
    for rec in pst_search(4, 1, samples=40, t_max=12, seed=3):
        assert rec.to_json() == json.dumps(asdict(rec))
        assert SearchRecord.from_json(rec.to_json()) == rec


def test_a_record_field_whose_annotation_has_no_json_type_fails_to_read():
    # every field's JSON check comes from its annotation, so a field typed
    # outside that table is caught when a sink is read, never misread
    @dataclass(frozen=True)
    class Extended(SearchRecord):
        phase: "complex" = 0j

    rec = pst_search(4, 1, samples=5, t_max=4)[0]
    line = json.dumps(asdict(rec) | {"phase": 0})
    with pytest.raises(KeyError, match="complex"):
        Extended.from_json(line)


def test_search_worker_count_does_not_change_results():
    # six tasks of C4 variants, so that a pool of workers runs them
    serial = pst_search(4, 2, samples=80, t_max=16, seed=2, workers=1)
    parallel = pst_search(4, 2, samples=80, t_max=16, seed=2, workers=3)
    assert serial == parallel


def test_a_task_gives_the_records_of_each_variant_scanned_alone(monkeypatch):
    # no record depends on the cells scanned with it: one task of all 96
    # variants, each variant alone, shuffled tasks of 7 and block_scan
    # batches of 3 cells give the same bytes
    policies = [(name, parse_policy(name)) for name in ("O1", "O2", "O3")]
    variants = [(key.hex(), desc, policies) for key, desc, _ in explorer._keyed_variants(4, 2)]
    scan = functools.partial(explorer._scan_task, samples=200, t_max=30, lam=0.9, seed=5)
    whole = [rec.to_json() for rec in scan(variants)]
    assert [json.loads(line)["policy"] for line in whole] == ["O1", "O2", "O3"] * 96
    assert [rec.to_json() for v in variants for rec in scan([v])] == whole
    order = np.random.default_rng(2).permutation(len(variants))
    shuffled = [variants[i] for i in order]
    tasks = [shuffled[i : i + 7] for i in range(0, len(shuffled), 7)]
    assert sorted(rec.to_json() for task in tasks for rec in scan(task)) == sorted(whole)
    monkeypatch.setattr(explorer, "_BATCH_STEPS", 3 * 30)
    assert [rec.to_json() for rec in scan(variants)] == whole


@pytest.mark.parametrize("base, counts", [
    (4, {"O1": 3, "O2": 38, "O3": 1}),
    (6, {"O1": 0, "O2": 141, "O3": 0}),
], ids=["C4", "C6"])
def test_search_finds_the_pst_records_readme_counts(base, counts):
    # README's counts at --samples 1500 --steps 60 --seed 0 --max-new 2; a
    # change to the walk or the fold must keep them
    records = pst_search(base, 2, samples=1500, t_max=60, seed=0)
    assert {name: sum(r.pst for r in records if r.policy == name) for name in counts} == counts


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("workers, cpus, sizes", [
    (100_000, 64, [6]),  # the 96 variants of C4 with up to two added nodes, 16 a task
    (100_000, 3, [3]),
    (4, 64, [4]),
    (100_000, 1, []),  # one process walks in the caller, with no pool
], ids=["tasks", "cpus", "workers", "one-cpu"])
def test_search_pool_is_sized_by_workers_tasks_and_cpus(monkeypatch, workers, cpus, sizes):
    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(started, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    serial = pst_search(4, 2, samples=20, t_max=8, seed=0, workers=1)
    assert pst_search(4, 2, samples=20, t_max=8, seed=0, workers=workers) == serial
    assert started == sizes


@pytest.mark.parametrize("kept", [12, 13], ids=["between-variants", "inside-variant"])
def test_search_sink_resumes(tmp_path, kept):
    sink = tmp_path / "records.jsonl"
    full = pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    lines = sink.read_text().strip().splitlines()
    assert len(lines) == 24
    # keep a prefix and resume; the rerun must only add the missing cells
    sink.write_text("\n".join(lines[:kept]) + "\n")
    resumed = pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    assert sorted(r.to_json() for r in resumed) == sorted(r.to_json() for r in full)
    assert sorted(sink.read_text().splitlines()) == sorted(lines)


def test_search_sink_cuts_torn_last_line(tmp_path):
    sink = tmp_path / "records.jsonl"
    full = pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    lines = sink.read_text().splitlines()
    # a kill in the middle of a write leaves half a record without its newline
    sink.write_text("\n".join(lines[:12]) + "\n" + lines[12][:40])
    resumed = pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    assert sorted(r.to_json() for r in resumed) == sorted(r.to_json() for r in full)
    assert sorted(sink.read_text().splitlines()) == sorted(lines)


@pytest.mark.parametrize("foreign", ['{"a":1}', "notjson", "[1, 2]"])
def test_search_sink_refuses_a_foreign_line_and_keeps_its_bytes(tmp_path, foreign):
    sink = tmp_path / "records.jsonl"
    pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    lines = sink.read_text().splitlines()
    # the torn last line must survive the refusal too
    data = ("\n".join(lines[:3] + [foreign] + lines[3:12]) + "\n" + lines[12][:40]).encode()
    sink.write_bytes(data)
    with pytest.raises(ConfigError, match=f"search sink {sink}: line 4 is no search record"):
        pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    assert sink.read_bytes() == data


@pytest.mark.parametrize("field, value", [
    ("max_probability", "high"), ("max_step", True), ("pst_steps", [2.0]),
    ("fraction_over_lam", float("nan")), ("descriptor", []),
])
def test_search_sink_refuses_a_field_of_the_wrong_type_and_keeps_its_bytes(tmp_path, field, value):
    sink = tmp_path / "records.jsonl"
    pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    lines = sink.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    data = ("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n").encode()
    sink.write_bytes(data)
    with pytest.raises(ConfigError, match=f"line 2 is no search record: .*{field}"):
        pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    assert sink.read_bytes() == data


@pytest.mark.parametrize("side_text, message", [
    (None, "holds records; cannot read {side}: [Errno 2]"),
    ("{", "holds records; cannot read {side}: Expecting property name"),
    ("[1]", "search sink config {side} must hold a JSON object"),
    ('{"format": 1}', "format 1 in the file, 4 in this run; base null in the file, 4 in this run"),
], ids=["missing", "not-json", "not-object", "first-format"])
def test_search_sink_without_its_config_is_refused_and_keeps_its_bytes(tmp_path, side_text, message):
    sink, side = tmp_path / "records.jsonl", tmp_path / "records.jsonl.config.json"
    pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    side.unlink()
    if side_text is not None:
        side.write_text(side_text)
    data = sink.read_bytes()[:-40]  # the torn last line must survive the refusal too
    sink.write_bytes(data)
    with pytest.raises(ConfigError) as info:
        pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    assert message.format(side=side) in str(info.value)
    assert sink.read_bytes() == data
    assert (side.read_text() if side.exists() else None) == side_text


def test_search_sink_with_no_complete_line_gets_a_fresh_config(tmp_path):
    sink, side = tmp_path / "records.jsonl", tmp_path / "records.jsonl.config.json"
    pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    assert json.loads(side.read_text()) == {
        "format": 4, "base": 4, "max_new": 1, "policies": ["O1", "O2", "O3"], "samples": 60,
        "steps": 12, "lam": 0.9, "seed": 1,
    }
    full, fresh = sink.read_bytes(), side.read_bytes()
    # a kill before the first newline leaves a torn line and maybe a stale side file
    sink.write_bytes(full[:40])
    side.write_text('{"steps": 99}')
    pst_search(4, 1, samples=60, t_max=12, seed=1, sink_path=str(sink))
    assert (sink.read_bytes(), side.read_bytes()) == (full, fresh)


def test_search_sink_streams_finished_cells(tmp_path, monkeypatch):
    # the 96 variants of C4 with up to two added nodes make six tasks
    sink = tmp_path / "records.jsonl"
    scan_task = explorer._scan_task
    done = []

    def failing_on_third(task, **kwargs):
        if len(done) == 2:
            raise RuntimeError("killed")
        done.append(task)
        return scan_task(task, **kwargs)

    monkeypatch.setattr(explorer, "_scan_task", failing_on_third)
    with pytest.raises(RuntimeError):
        pst_search(4, 2, samples=60, t_max=12, seed=1, sink_path=str(sink))
    records = [explorer.SearchRecord.from_json(l) for l in sink.read_text().splitlines()]
    assert [r.policy for r in records] == ["O1", "O2", "O3"] * 2 * explorer._TASK_VARIANTS
    assert len({r.key for r in records}) == 2 * explorer._TASK_VARIANTS


def test_search_builds_each_keyed_graph_once(monkeypatch):
    calls = {"build_variant": 0, "canonical_key": 0}

    def counted(name):
        fn = getattr(explorer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(explorer, name, counted(name))
    records = pst_search(4, 2, samples=5, t_max=4, seed=0)
    assert len(records) == 3 * 96
    assert calls["build_variant"] == calls["canonical_key"] == 106


@pytest.mark.parametrize("base", [4, 6])
def test_search_walks_the_graph_its_key_spells_with_the_pair_last(monkeypatch, base):
    walked = []

    def recording(cells, t_max, lam):
        out = []
        for op, pairs, _ in cells:
            walked.append((op.space, pairs[0]))
            # the record's max_step tells which walk it came from
            out.append([ScanResult(0.5, len(walked), 0.0, (), top_gram=np.zeros(t_max))] * 2)
        return out

    monkeypatch.setattr(explorer, "block_scan", recording)
    records = pst_search(base, 2, policies=("O2",), samples=5, t_max=4)
    assert len(walked) == len(records) == {4: 96, 6: 1097}[base]
    for rec in records:
        space, pair = walked[rec.max_step - 1]
        n = len(space.offsets) - 1
        adj = np.zeros((n, n))
        adj[space.heads, space.targets] = 1.0
        assert pair == (n - 2, n - 1)
        assert canonical_key(Graph(adj), marks=pair).hex() == rec.key


def test_search_draws_one_haar_set_per_source_degree(monkeypatch):
    drawn = []

    def recording(d, count, seed):
        drawn.append(d)
        return haar_states(d, count, seed)

    monkeypatch.setattr(explorer, "haar_states", recording)
    serial = pst_search(4, 2, samples=20, t_max=8, seed=3)
    degrees = {g.degree(v) for _, _, g in explorer._keyed_variants(4, 2) for v in (0, 2)}
    assert sorted(drawn) == sorted(degrees)
    # a rerun draws its sets again, from the same (seed, degree)
    assert pst_search(4, 2, samples=20, t_max=8, seed=3) == serial
    assert sorted(drawn) == sorted(list(degrees) * 2)


@pytest.mark.parametrize("policy", ["O1", "O2", "O3"])
def test_a_relabelled_variant_gives_the_record_of_the_survey(policy):
    # the O1 and O3 coins give each port its own role, and ports follow the
    # numbering; a record walks the numbering its key spells, so it does not
    # depend on the labels a variant arrives with, nor on its survey position
    survey = {r.key: r.to_json()
              for r in pst_search(4, 2, policies=(policy,), samples=200, t_max=30, seed=4)}
    rng = np.random.default_rng(9)
    for _, desc, g in explorer._keyed_variants(4, 2):
        perm = rng.permutation(g.n)  # vertex v becomes perm[v], and the pair follows
        adj = np.empty_like(g.adjacency)
        adj[np.ix_(perm, perm)] = g.adjacency
        key = canonical_key(Graph(adj), marks=(perm[0], perm[2])).hex()
        task = (key, desc, [(policy, parse_policy(policy))])
        (rec,) = explorer._scan_task([task], samples=200, t_max=30, lam=0.9, seed=4)
        assert rec.to_json() == survey[key], desc


def _old_search_cell(g, policy, pair, t_max, states, lam):
    """The per-step search kernel as it was before the Gram form: one m x m
    power, one |B s|^2 reduction and one SVD per step and direction, from
    the given states of each direction's source.  Its best step follows
    the tie rule, so that it can be compared exactly."""
    op = build_step_operator(g, policy)
    directions = (pair, (pair[1], pair[0]))
    samples = len(states[0])
    slices = [
        (op.space.vertex_slice(src), op.space.vertex_slice(tgt))
        for src, tgt in directions
    ]
    per_sample_max = [np.zeros(samples), np.zeros(samples)]
    step_best = [np.empty(t_max), np.empty(t_max)]
    hits = [[], []]
    power = np.eye(op.space.n_arcs, dtype=complex)
    for t in range(1, t_max + 1):
        power = op.matrix @ power
        for i, (src_sl, tgt_sl) in enumerate(slices):
            block = power[tgt_sl, src_sl]
            probs = np.sum(np.abs(states[i] @ block.T) ** 2, axis=1)
            np.maximum(per_sample_max[i], probs, out=per_sample_max[i])
            step_best[i][t - 1] = probs.max()
            if np.linalg.svd(block, compute_uv=False)[0] >= 1.0 - PST_SINGULAR_TOL:
                hits[i].append(t)
    outcomes = []
    for i in range(2):
        best = float(step_best[i].max())
        first = int(np.argmax(step_best[i] >= best - 1e-12)) + 1
        frac = float(np.mean(per_sample_max[i] > lam))
        outcomes.append((bool(hits[i]), best, frac, -i, first, tuple(hits[i])))
    pst, best_p, frac, _, best_step, pst_steps = max(outcomes, key=lambda o: o[:4])
    return best_p, best_step, pst, pst_steps, frac


def test_search_cell_matches_per_step_reference():
    checked = 0
    policies = [(name, parse_policy(name)) for name in ("O1", "O2", "O3")]
    for seed, (key, desc, _) in enumerate(explorer._keyed_variants(4, 1)):
        # a record walks the graph its key spells, with the pair last
        g = graph_from_key(key)
        pair = (g.n - 2, g.n - 1)
        # a source of degree d starts from the states of (seed, d) alone
        states = [haar_states(g.degree(v), 300, np.random.SeedSequence([seed, g.degree(v)]))
                  for v in pair]
        task = [(key.hex(), desc, policies)]
        records = explorer._scan_task(task, samples=300, t_max=40, lam=0.9, seed=seed)
        for (policy_name, policy), new in zip(policies, records):
            old = _old_search_cell(g, policy, pair, 40, states, 0.9)
            assert abs(new.max_probability - old[0]) <= 1e-12, (desc, policy_name)
            assert (
                new.max_step, bool(new.pst_steps), new.pst_steps, new.fraction_over_lam
            ) == old[1:], (desc, policy_name)
            checked += 1
    assert checked == 24


def test_search_finds_two_step_transfer_under_grover():
    records = pst_search(4, 1, policies=("O2",), samples=100, t_max=8, seed=0)
    bridge = [r for r in records if r.descriptor["attachments"] == [[0, 2]]]
    assert bridge and bridge[0].pst and 2 in bridge[0].pst_steps


# ----- initial-state family -----

def test_family_state_normalized():
    v = family_initial_state(0.3, -1.2j)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        family_initial_state(0.0, 0.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_family_state_transfers_on_bridged_cycles(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    m = int(rng.choice([4, 6, 8]))
    g = build_variant(VariantDescriptor(m, ((0, m // 2),)))
    space = ArcSpace.from_graph(g)
    psi0 = state_at_vertex(space, 0, family_initial_state(x, y))
    rep = detect_transfer(g, parse_policy("O2"), psi0, (0, m // 2), t_max=m // 2)
    assert rep.target_series[m // 2] >= 1.0 - 1e-9


def test_tails_variant_ten_step_map():
    # starting from the plain antipode of the double-tailed cycle, the
    # 10-step state at the tailed vertex is a fixed linear map of the
    # two source port amplitudes: ((b-a)/2, (a-b)/2, (a+b)/2, (a+b)/2)
    g = build_variant(VariantDescriptor(4, ((0,), (0,))))
    op = build_step_operator(g, parse_policy("O2"))
    u10 = np.linalg.matrix_power(op.matrix, 10)
    cols = []
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0
        psi = state_at_vertex(op.space, 2, e)
        cols.append((u10 @ psi)[op.space.vertex_slice(0)])
    m = np.stack(cols, axis=1)
    want = np.array([[-0.5, 0.5], [0.5, -0.5], [0.5, 0.5], [0.5, 0.5]])
    assert np.max(np.abs(m - want)) < 1e-9


# ----- robustness sweeps -----

def test_defect_sweep_zero_magnitude_is_perfect():
    res = robustness_sweep("defect", [3, 7], magnitudes=[0.0, 0.4])
    assert np.allclose(res[:, 0], 1.0, atol=1e-9)
    assert np.all(res[:, 1] < 1.0)


def test_defect_sweep_normalises_huge_magnitudes():
    # 1 - 1e300 leaves the state on the last port; its squared norm overflows
    res = robustness_sweep("defect", [3], magnitudes=[1e300])
    last = np.zeros(3)
    last[-1] = 1.0
    want = np.sum(np.abs(explorer._hub_cycle_block(3, 6) @ last) ** 2)
    assert abs(res[0, 0] - want) <= 1e-12


@pytest.mark.parametrize("kind", ["defect", "phase"])
def test_sweep_equals_one_product_per_start_state(kind):
    mags = np.linspace(-1.0, 3.0, 9)
    res = robustness_sweep(kind, [3, 8], magnitudes=mags)
    for i, n in enumerate([3, 8]):
        block = explorer._hub_cycle_block(n, 6)
        for j, mag in enumerate(mags):
            # the same amplitudes the sweep walks: real for a defect, complex for a phase
            amps = np.ones(n, dtype=float if kind == "defect" else complex)
            amps[-1] = 1.0 - mag if kind == "defect" else np.exp(1j * mag)
            assert res[i, j] == min(float(np.sum(np.abs(block @ unit_vector(amps)) ** 2)), 1.0)


def test_random_sweep_is_the_mean_of_one_product_per_draw():
    res = robustness_sweep("random", [3, 8], runs=200, seed=4)
    for i, n in enumerate([3, 8]):
        block = explorer._hub_cycle_block(n, 6)
        rng = np.random.default_rng(np.random.SeedSequence([4, n]))
        states = 1.0 - rng.uniform(0.0, 1.0, size=(200, n))
        states = states / np.linalg.norm(states, axis=1, keepdims=True)
        probs = [min(float(np.sum(np.abs(block @ s) ** 2)), 1.0) for s in states]
        assert res[i] == np.mean(probs)


def test_phase_sweep_worst_case_at_pi():
    res = robustness_sweep("phase", [3], magnitudes=[np.pi / 2, np.pi])
    assert res[0, 1] < res[0, 0]
    assert res[0, 1] == pytest.approx(0.181424, abs=1e-6)


def test_phase_sweep_large_cycle_frozen_value():
    res = robustness_sweep("phase", [36], magnitudes=[np.pi])
    assert res[0, 0] == pytest.approx(0.899571, abs=1e-6)


def test_random_sweep_frozen_and_seeded():
    res = robustness_sweep("random", [3], runs=1000, seed=0)
    assert res[0] == pytest.approx(0.813989, abs=1e-6)
    again = robustness_sweep("random", [3], runs=1000, seed=0)
    assert np.array_equal(res, again)


def test_random_sweep_refuses_zero_runs():
    # the mean of no draws would be NaN
    with pytest.raises(ConfigError, match="^runs must be positive, got 0$"):
        robustness_sweep("random", [3], runs=0)


@pytest.mark.parametrize("kind", ["defect", "phase", "random"])
def test_robustness_sweep_refuses_step_zero_before_any_walk(kind, monkeypatch):
    monkeypatch.setattr(explorer, "build_step_operator", lambda *a: pytest.fail("walked"))
    with pytest.raises(ConfigError, match="^step must be positive, got 0$"):
        robustness_sweep(kind, [3], magnitudes=[0.5], runs=5, step=0)


def test_interpolation_sweep_refuses_step_zero_before_any_walk(monkeypatch):
    monkeypatch.setattr(explorer, "build_step_operator", lambda *a: pytest.fail("walked"))
    with pytest.raises(ConfigError, match="^step must be positive, got 0$"):
        interpolation_sweep("k2kn-k2cn", [3], [0.0, 1.0], step=0)


def test_random_sweep_value_independent_of_listing():
    alone = robustness_sweep("random", [8], runs=200, seed=3)
    grouped = robustness_sweep("random", [3, 8], runs=200, seed=3)
    assert alone[0] == grouped[1]


def test_robustness_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        robustness_sweep("typo", [3], magnitudes=[0.1])
    with pytest.raises(ConfigError):
        robustness_sweep("defect", [3])


# ----- interpolation -----

def test_interpolation_endpoints_and_dip():
    res = interpolation_sweep("k2kn-k2cn", [3], [0.0, 0.5, 1.0], step=6)
    assert res[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert res[0, 2] == pytest.approx(1.0, abs=1e-9)
    assert res[0, 1] == pytest.approx(0.344944365, abs=1e-6)


def test_interpolation_curves_match_across_sizes():
    grid = np.linspace(0.0, 1.0, 9)
    res = interpolation_sweep("k2kn-k2cn", [3, 6], grid, step=6)
    assert np.max(np.abs(res[0] - res[1])) < 1e-6


def test_interpolation_chain_endpoints_agree():
    # the path endpoint of one chain is the path start of the next
    a = interpolation_sweep("k2kn-k2pn", [4], [1.0], step=6)
    b = interpolation_sweep("k2pn-k2cn", [4], [0.0], step=6)
    assert a[0, 0] == pytest.approx(b[0, 0], abs=1e-9)


class _PerVertexInterpPolicy:
    """The coin policy interpolation_sweep walked before it built an
    ExplicitMap: Grover everywhere except vertices with turned-on edges,
    which get interp_grover with its tunnel ports masked in arc order."""

    def __init__(self, turned_on, c):
        self.turned_on = turned_on
        self.c = c
        self._blocks = {}

    def coin_for(self, g, v, d):
        extra = self.turned_on.get(v, ())
        space = ArcSpace.from_graph(g)
        tunnel = tuple(i for i, a in enumerate(space.ports(v)) if space.targets[a] in extra)
        block = self._blocks.get((d, tunnel))
        if block is None:
            if tunnel:
                order = [i for i in range(d) if i not in tunnel] + list(tunnel)
                inv = np.argsort(order)
                block = interp_grover(d, len(tunnel), self.c)[np.ix_(inv, inv)]
            else:
                block = grover(d)
            self._blocks[d, tunnel] = block
        return block


def _per_vertex_interpolation_sweep(chain, n_values, cs, step=6):
    out = np.empty((len(n_values), len(cs)))
    for i, n in enumerate(n_values):
        sparse, dense = (
            build(Join(Edgeless(2), JOIN_FAMILIES[f](n))) for f in explorer.INTERP_CHAINS[chain]
        )
        turned_on = {}
        for u, v in dense.edge_set() - sparse.edge_set():
            turned_on.setdefault(u, set()).add(v)
            turned_on.setdefault(v, set()).add(u)
        for j, c in enumerate(cs):
            if c == 0.0:
                op = build_step_operator(sparse, Uniform(grover))
            else:
                op = build_step_operator(dense, _PerVertexInterpPolicy(turned_on, float(c)))
            psi = trajectory(op, equal_superposition(op.space, 0), step)[-1]
            out[i, j] = vertex_probability(op.space, psi, 1)
    return out


@pytest.mark.parametrize("chain", sorted(explorer.INTERP_CHAINS))
def test_interpolation_sweep_equals_the_per_vertex_policy_bit_for_bit(chain):
    cs = np.linspace(0.0, 1.0, 11)
    res = interpolation_sweep(chain, range(3, 9), cs)
    want = _per_vertex_interpolation_sweep(chain, range(3, 9), cs)
    assert res.tobytes() == want.tobytes()


def test_interpolation_rejects_unknown_chain():
    with pytest.raises(ConfigError):
        interpolation_sweep("k2kn-k2xn", [3], [0.5])
