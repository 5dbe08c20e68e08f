"""Search harness: cycle variants, transfer surveys, parameter sweeps.

Variants of a base cycle are built by adding up to a handful of new
nodes, each wired to a nonempty subset of cycle vertices, with every
edge pattern among the new nodes.  Duplicates are removed with a
canonical key that marks the antipodal transfer pair, so two variants
count as the same when an isomorphism maps the pair onto itself.
Generation is orderly (after Read 1978 and McKay 1998): a candidate is
keyed only when none of the three cycle symmetries that keep the pair
(the two reflections and the half turn) maps it to a candidate earlier
in iteration order.  A skipped candidate shares its key with that
earlier image, and the first candidate of each key class has no earlier
image, so the emitted representatives are exactly those of keying every
candidate, at about one key per variant instead of four.

For each variant and coin policy the harness records the best Haar
sampled transfer and the exact PST certificate of ``dtqw.block_scan``,
which decides both from the Gram matrices of the source-to-target
blocks of U^t.  A record walks the graph its key spells, from Haar
states that depend on the seed and the source degree alone, so it is a
function of its key, policy and scan settings.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from qwalk.arcs import ArcSpace
from qwalk.coins import CoinPolicy, ExplicitMap, Uniform, grover, interp_grover, parse_policy
from qwalk.dtqw import (
    _JSON_TYPES,
    _Verdict,
    block_scan,
    build_step_operator,
    equal_superposition,
    haar_states,
    target_block_powers,
    trajectory,
    unit_vector,
    vertex_probability,
)
from qwalk.errors import ConfigError, check_count, check_table
from qwalk.graphs import (
    JOIN_FAMILIES,
    Cycle,
    Edgeless,
    Graph,
    Join,
    adjacency,
    build,
    canonical_key,
    graph_from_key,
)

__all__ = [
    "VariantDescriptor",
    "build_variant",
    "enumerate_variants",
    "is_trivial_variant",
    "SearchRecord",
    "pst_search",
    "family_initial_state",
    "robustness_sweep",
    "interpolation_sweep",
    "INTERP_CHAINS",
]


# ===== Variant descriptors =====


@dataclass(frozen=True)
class VariantDescriptor:
    """A base cycle plus added nodes.

    attachments[i] is the set of cycle vertices node i wires into, and
    links lists index pairs of added nodes joined to each other.  Added
    nodes take indices base, base + 1, ... in the built graph.
    """

    base: int
    attachments: tuple[tuple[int, ...], ...]
    links: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.base < 3:
            raise ConfigError("variant base cycle needs at least 3 vertices")
        for sub in self.attachments:
            if not sub:
                raise ConfigError("each added node must attach to the cycle")
            if any(not 0 <= v < self.base for v in sub):
                raise ConfigError(f"attachment out of range: {sub}")
            if tuple(sorted(set(sub))) != sub:
                raise ConfigError(f"attachments must be sorted unique tuples: {sub}")
        k = len(self.attachments)
        for i, j in self.links:
            if not (0 <= i < j < k):
                raise ConfigError(f"bad link ({i}, {j}) for {k} added nodes")

    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "attachments": [list(s) for s in self.attachments],
            "links": [list(l) for l in self.links],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VariantDescriptor":
        return cls(
            base=data["base"],
            attachments=tuple(tuple(s) for s in data["attachments"]),
            links=tuple(tuple(l) for l in data["links"]),
        )


def build_variant(desc: VariantDescriptor) -> Graph:
    m = desc.base
    k = len(desc.attachments)
    adj = np.zeros((m + k, m + k))
    adj[:m, :m] = adjacency(Cycle(m))
    for i, subset in enumerate(desc.attachments):
        for v in subset:
            adj[m + i, v] = adj[v, m + i] = 1
    for i, j in desc.links:
        adj[m + i, m + j] = adj[m + j, m + i] = 1
    return Graph(adj)


def is_trivial_variant(desc: VariantDescriptor, target: int) -> bool:
    """True when every added node touches the cycle only at the target."""
    return all(set(sub) == {target} for sub in desc.attachments)


def enumerate_variants(
    base: int, max_new: int
) -> Iterator[tuple[VariantDescriptor, Graph]]:
    """Deduplicated variants of an even cycle with up to max_new added nodes.

    The canonical key marks the antipodal pair {0, base/2} as a set, so
    mirror-image variants and source/target swaps collapse together.
    """
    for _, desc, g in _keyed_variants(base, max_new):
        yield desc, g


def _keyed_variants(
    base: int, max_new: int
) -> Iterator[tuple[bytes, VariantDescriptor, Graph]]:
    """``enumerate_variants`` with each variant's canonical key in front.

    Candidates run in a fixed order: by added-node count, then by the
    nondecreasing tuple of attachment indices into ``subsets``, then by
    link count, then by link tuple.  Within one node count this is the
    order of the tuple (attachment indices, links).  A candidate is
    skipped before it is built or keyed when a cycle symmetry that keeps
    {0, base/2} (v -> -v, v -> v + base/2, v -> base/2 - v) maps it to
    an earlier candidate: the added nodes are stably sorted by their
    image's attachment index and the links relabelled to match.  The
    attachment part is compared once per attachment tuple: an earlier
    image tuple skips every link set on it, and only the symmetries that
    fix the tuple are compared link set by link set.  The rule is exact.
    A skipped candidate has an earlier image with the same key, and the
    first candidate of a key class has no earlier image, so it is always
    keyed and the ``seen`` check yields the same sequence as keying every
    candidate would.
    """
    _check_variant_args(base, max_new)
    half = base // 2
    subsets = [
        tuple(sorted(s))
        for r in range(1, base + 1)
        for s in itertools.combinations(range(base), r)
    ]
    index = {s: i for i, s in enumerate(subsets)}
    images = [
        [index[tuple(sorted(sym(v) % base for v in s))] for s in subsets]
        for sym in (lambda v: -v, lambda v: v + half, lambda v: half - v)
    ]
    seen: set[bytes] = set()
    for k in range(1, max_new + 1):
        link_choices = list(itertools.combinations(range(k), 2))
        for idxs in itertools.combinations_with_replacement(range(len(subsets)), k):
            relabels = _fixing_relabels(idxs, images)
            if relabels is None:
                continue
            attachments = tuple(subsets[i] for i in idxs)
            for link_count in range(len(link_choices) + 1):
                for links in itertools.combinations(link_choices, link_count):
                    if any(_relabel_links(links, pos) < links for pos in relabels):
                        continue
                    desc = VariantDescriptor(base, attachments, links)
                    g = build_variant(desc)
                    key = canonical_key(g, marks=(0, half))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield key, desc, g


# The attachment subsets of a base cycle are listed up front: 2**16 - 1 = 65,535
_MAX_BASE = 16


def _check_variant_args(base: int, max_new: int) -> None:
    if base < 4 or base % 2 or base > _MAX_BASE:
        raise ConfigError(
            f"variant enumeration expects an even base cycle of 4 to {_MAX_BASE} vertices "
            f"(at most {2**_MAX_BASE - 1:,} attachment subsets), got {base}"
        )
    if max_new < 1:
        raise ConfigError(f"max_new must be at least 1, got {max_new}")


def _fixing_relabels(
    idxs: tuple[int, ...], images: list[list[int]]
) -> list[list[int]] | None:
    """Added-node relabellings of the symmetries that keep idxs in place.

    None when some symmetry maps idxs to an earlier index tuple, which
    makes every candidate on these attachments redundant.  Otherwise
    one relabelling (old node -> new position, by a stable sort on the
    image index) for each symmetry whose image tuple equals idxs.
    """
    out = []
    for table in images:
        mapped = [table[i] for i in idxs]
        order = sorted(range(len(idxs)), key=mapped.__getitem__)
        mapped_idxs = tuple(mapped[i] for i in order)
        if mapped_idxs < idxs:
            return None
        if mapped_idxs == idxs:
            pos = [0] * len(idxs)
            for new, old in enumerate(order):
                pos[old] = new
            out.append(pos)
    return out


def _relabel_links(
    links: tuple[tuple[int, int], ...], pos: list[int]
) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(pos[i], pos[j]), max(pos[i], pos[j])) for i, j in links))


# ===== Search =====


@dataclass(frozen=True)
class _Cell:
    key: str
    descriptor: dict
    policy: str


@dataclass(frozen=True)
class SearchRecord(_Verdict, _Cell):
    """One (variant, policy) survey result.

    Transfer metrics cover the better of the two directions across the
    marked pair, since one representative stands for a variant and its
    mirror image.  After ``_Cell``'s fields (a dataclass collects them in
    reverse MRO order) come that direction's ``dtqw.ScanResult`` verdict.
    ``pst`` says whether any step is certified: an exact-transfer initial
    state exists even when no Haar sample comes close.
    """

    @property
    def pst(self) -> bool:
        return bool(self.pst_steps)

    def to_json(self) -> str:
        # the instance dict holds exactly the fields, in order; asdict
        # would deep-copy the descriptor for the same text
        return json.dumps(vars(self))

    @classmethod
    def from_json(cls, line: str) -> "SearchRecord":
        """Parse one sink line, each JSON list back into a tuple; ValueError
        names a field of the wrong type."""
        types = {f.name: _JSON_TYPES[f.type] for f in fields(cls)}
        data = json.loads(line)
        if not isinstance(data, dict) or data.keys() != types.keys():
            raise ValueError(f"a search record has exactly the fields {', '.join(types)}")
        bad = [name for name, ok in types.items() if not ok(data[name])]
        if bad:
            raise ValueError(f"search record fields of the wrong type: {', '.join(bad)}")
        return cls(**{k: tuple(v) if type(v) is list else v for k, v in data.items()})


# Consecutive variants per search task: their cells are scanned together,
# and a kill loses at most one task's records
_TASK_VARIANTS = 16
# Cells x steps per block_scan call, which holds its cells' tables at once
_BATCH_STEPS = 1 << 16


@functools.lru_cache(maxsize=None)
def _haar_set(d: int, samples: int, seed: int) -> np.ndarray:
    """The Haar states of every source of degree d, read-only: they depend
    on (seed, d) alone and are drawn once per degree in each process, so
    workers share nothing and agree (``pst_search`` clears the cache)."""
    states = haar_states(d, samples, np.random.SeedSequence([seed, d]))
    states.flags.writeable = False
    return states


def pst_search(
    base: int,
    max_new: int,
    policies: Sequence[str] = ("O1", "O2", "O3"),
    samples: int = 1500,
    t_max: int = 100,
    lam: float = 0.9,
    seed: int = 0,
    sink_path: str | None = None,
    workers: int = 1,
) -> list[SearchRecord]:
    """Survey every variant under every policy and sort by best transfer.

    Policy names and the enumeration arguments are checked first, so a
    bad or repeated name, a policy other than the coin families O1, O2
    and O3 (a preset row or coin map does not fit every variant), an odd
    base, a base outside 4..16, a ``max_new`` below 1 or a table of Haar
    samples or steps over the limit raises ``ConfigError`` before the
    sink is touched.  A variant is carried as its key: the graph the key
    spells, in the canonical numbering, is walked under every policy still
    missing from the sink.  One task is ``_TASK_VARIANTS`` consecutive
    such variants, whose cells are scanned together (``_scan_task``).
    With a sink path, each task's records are appended to a JSON-lines
    file and flushed as soon as its cells finish, in variant order, then
    policy order, so a kill loses at most the finished cells of one task
    and a rerun skips every cell already present.  A torn
    last line, left by a kill in the middle of a write, is cut from the
    file and its cell runs again.  The sink's configuration is kept
    beside it (see ``_read_sink``), so a rerun under another one is
    refused.  A source of degree d starts from
    ``haar_states(d, samples, SeedSequence([seed, d]))`` in every cell, and
    no cell's result depends on the cells scanned with it, so a record
    depends only on its key, policy and scan settings, and results are
    identical however many workers run; the pool has min(workers,
    tasks, CPU count) processes.  Records of equal ``max_probability``
    sort by key, then policy, so a resumed run returns the same order.
    """
    parsed: dict[str, CoinPolicy] = {}
    for name in policies:
        if name in parsed:
            raise ConfigError(f"policy {name!r} listed twice")
        parsed[name] = parse_policy(name)
        if not isinstance(parsed[name], Uniform):
            raise ConfigError(f"policy {name!r} is no coin family; search takes O1, O2 or O3")
    _check_variant_args(base, max_new)
    # a source port count of 2 + max_new occurs: every new node on vertex 0
    check_table("Haar states", samples, 2 + max_new)
    check_table("scan steps", t_max, 2)
    # format 4: the real-feature fold; 3: key numbering, one Haar set per degree;
    # 2: ScanResult's names; 1: no side file
    config = {"format": 4, "base": base, "max_new": max_new, "policies": list(policies),
              "samples": samples, "steps": t_max, "lam": lam, "seed": seed}
    records = _read_sink(sink_path, config) if sink_path else []
    done = {(rec.key, rec.policy) for rec in records}

    variants = []
    for raw_key, desc, _ in _keyed_variants(base, max_new):
        key = raw_key.hex()
        missing = [(name, pol) for name, pol in parsed.items() if (key, name) not in done]
        if missing:
            variants.append((key, desc, missing))
    tasks = [variants[i : i + _TASK_VARIANTS] for i in range(0, len(variants), _TASK_VARIANTS)]
    run = functools.partial(_scan_task, samples=samples, t_max=t_max, lam=lam, seed=seed)
    _haar_set.cache_clear()

    workers = min(workers, len(tasks), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(sink_path, "a")) if sink_path else None
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            fresh = pool.map(run, tasks)
        else:
            fresh = map(run, tasks)
        for task_records in fresh:
            if sink:
                sink.writelines(rec.to_json() + "\n" for rec in task_records)
                sink.flush()
            records.extend(task_records)
    records.sort(key=lambda r: (-r.max_probability, r.key, r.policy))
    return records


def _read_sink(path: str, config: dict) -> list[SearchRecord]:
    """Records of a sink file, created if absent, whose torn last line is
    then cut off.

    The side file ``<path>.config.json`` holds the ``config`` that the
    sink's records were made under; a sink with no complete line gets a
    fresh one.  ConfigError is raised before either file is touched when
    the sink has a complete line and the side file is unreadable, is no
    JSON object or differs from ``config`` (naming every differing key),
    or when a complete line is no record.
    """
    side = path + ".config.json"
    with open(path, "ab+") as fh:
        fh.seek(0)
        data = fh.read()
        end = data.rfind(b"\n") + 1
        lines = data[:end].split(b"\n")
        if any(line.strip() for line in lines):
            _check_sink_config(path, side, config)
        else:
            with open(side, "w") as out:
                out.write(json.dumps(config, indent=2, sort_keys=True) + "\n")
        records = []
        for num, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                records.append(SearchRecord.from_json(line.decode()))
            except ValueError as exc:
                raise ConfigError(
                    f"search sink {path}: line {num} is no search record: {exc}"
                ) from exc
        if end < len(data):
            fh.truncate(end)
    return records


def _check_sink_config(path: str, side: str, config: dict) -> None:
    try:
        with open(side, encoding="utf-8") as fh:
            found = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSON or UTF-8 error is a ValueError
        raise ConfigError(f"search sink {path} holds records; cannot read {side}: {exc}") from exc
    if not isinstance(found, dict):
        raise ConfigError(f"search sink config {side} must hold a JSON object")
    differ = [
        f"{k} {json.dumps(found.get(k))} in the file, {json.dumps(config.get(k))} in this run"
        for k in {**config, **found} if found.get(k) != config.get(k)
    ]
    if differ:
        raise ConfigError(
            f"search sink {path} was made under another configuration ({side}): "
            + "; ".join(differ)
        )


def _scan_task(task, samples, t_max, lam, seed) -> list[SearchRecord]:
    """Records of a task's (key, descriptor, policies) variants, in
    variant order, then policy order, scanned in ``block_scan`` batches
    of at most ``_BATCH_STEPS`` cells x steps (one batch at 60 steps).

    A variant walks the graph its key spells, whose pair sits at
    (n - 2, n - 1).  Deduplication treats the marked pair as unordered,
    so one representative stands for a variant and its mirror image.
    Those two differ dynamically (walking toward a modified vertex is not
    the same as walking away from it), so each cell scans the transfer
    both ways across the pair and keeps the direction that does better,
    preferring exact PST, then best probability, then sample fraction.
    """
    cells, heads = [], []
    for key, desc, policies in task:
        g = graph_from_key(bytes.fromhex(key))
        directions = ((g.n - 2, g.n - 1), (g.n - 1, g.n - 2))
        for name, policy in policies:
            op = build_step_operator(g, policy)
            states = [_haar_set(op.space.degree(src), samples, seed) for src, _ in directions]
            cells.append((op, directions, states))
            heads.append((key, desc.to_json_dict(), name))
    records = []
    # cells per block_scan: a batch's (pairs, t_max) tables stay small at any t_max
    per_batch = max(1, _BATCH_STEPS // t_max)
    for lo in range(0, len(cells), per_batch):
        scanned = block_scan(cells[lo : lo + per_batch], t_max, lam)
        for head, scans in zip(heads[lo : lo + per_batch], scanned):
            # max keeps the first of equal keys, so a tie goes to the first direction
            scan = max(scans, key=lambda s: (bool(s.pst_steps), s.max_probability, s.fraction_over_lam))
            records.append(SearchRecord(*head, **scan.to_json_dict()))
    return records


# ===== Initial-state family for tailed cycles =====


def family_initial_state(x: complex, y: complex) -> np.ndarray:
    """Three-port source state that hides the pendant port from the coin.

    For a cycle vertex carrying one pendant neighbor (ports ordered
    cycle, cycle, pendant), the Grover coin maps this state to (x, y, 0),
    so the walker runs around the cycle as if the pendant were absent
    and transfers perfectly to the antipodal vertex in half a lap.
    Any nonzero (x, y) works; the pair is scaled to unit length first.
    """
    scale = math.hypot(abs(x), abs(y))
    if scale < 1e-12:
        raise ConfigError("family_initial_state needs a nonzero (x, y)")
    x, y = x / scale, y / scale
    first = (2.0 * y - x) / 3.0
    second = (2.0 * x - y) / 3.0
    return np.asarray([first, second, 2.0 * (first + second)], dtype=complex)


# ===== Robustness sweep =====


def _hub_cycle_block(n: int, step: int) -> np.ndarray:
    op = build_step_operator(build(Join(Edgeless(2), Cycle(n))), Uniform(grover))
    return target_block_powers(op, (0, 1), step)[-1]


def robustness_sweep(
    kind: str,
    n_values: Sequence[int],
    magnitudes: Sequence[float] | None = None,
    runs: int = 1000,
    seed: int = 0,
    step: int = 6,
) -> np.ndarray:
    """Transfer at the perfect-transfer step under perturbed initial states.

    The reference walk is the hub pair joined to a cycle with Grover
    coins, which transfers perfectly at step 6 from the equal
    superposition.  Three perturbation kinds are supported.  "defect"
    scales one port amplitude by 1 - delta before renormalizing,
    "phase" multiplies one port by exp(i theta), and "random" draws an
    independent uniform delta in [0, 1] for every port, averaging the
    resulting transfer over the requested number of runs.

    Returns the (len(n_values), len(magnitudes)) table of target
    probabilities, or for "random" the (len(n_values),) mean transfers.
    """
    if kind not in ("defect", "phase", "random"):
        raise ConfigError(f"unknown robustness kind {kind!r}")
    n_values = tuple(int(n) for n in n_values)
    mags = np.asarray(list(magnitudes if magnitudes is not None else []), dtype=float)
    if kind != "random" and mags.size == 0:
        raise ConfigError(f"robustness kind {kind!r} needs a magnitude grid")
    if kind == "random":
        check_count("runs", runs)
    check_count("step", step)
    last = 1.0 - mags if kind == "defect" else np.exp(1j * mags)
    rows = runs if kind == "random" else mags.size
    out = np.empty((len(n_values), 1 if kind == "random" else rows))
    for i, n in enumerate(n_values):
        check_table(f"{kind} robustness {'runs' if kind == 'random' else 'start states'}", rows, n)
        block = _hub_cycle_block(n, step)
        if kind == "random":
            rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
            states = 1.0 - rng.uniform(0.0, 1.0, size=(runs, n))
            states = states / np.linalg.norm(states, axis=1, keepdims=True)
        else:
            states = np.array([unit_vector(s) for s in np.c_[np.ones((rows, n - 1)), last]])
        # a stacked product gives each row the bits of block @ row; states @ block.T does not
        amps = np.matmul(block, states[..., None])[..., 0]
        probs = np.minimum(np.sum(np.abs(amps) ** 2, axis=1), 1.0)
        out[i] = probs.mean() if kind == "random" else probs
    return out[:, 0] if kind == "random" else out


# ===== Interpolation sweep =====


def _interp_block(d: int, tunnel: tuple[int, ...], c: float) -> np.ndarray:
    """interp_grover(d, len(tunnel), c) with its extra (last) ports moved to ``tunnel``."""
    order = [i for i in range(d) if i not in tunnel] + list(tunnel)
    inv = np.argsort(order)
    return interp_grover(d, len(tunnel), c)[np.ix_(inv, inv)]


# Each interpolation chain's (sparse, dense) endpoints, as JOIN_FAMILIES names
INTERP_CHAINS = {
    "k2kn-k2cn": ("k2k", "k2c"),
    "k2kn-k2pn": ("k2k", "k2p"),
    "k2pn-k2cn": ("k2p", "k2c"),
}


def interpolation_sweep(
    chain: str,
    n_values: Sequence[int],
    c_grid: Sequence[float],
    step: int = 6,
) -> np.ndarray:
    """Transfer vs coupling as one graph's extra edges turn on.

    Walks run on the larger endpoint graph for c > 0, with the
    interpolating coin at every vertex that gains edges; c = 0 falls
    back to the plain Grover walk on the smaller endpoint.  The initial
    state is the equal superposition at hub 0 and the probability is
    read at hub 1 after the given step count.  Returns the
    (len(n_values), len(c_grid)) table of those probabilities.
    """
    if chain not in INTERP_CHAINS:
        raise ConfigError(
            f"interpolation chain must be one of {tuple(INTERP_CHAINS)}, got {chain!r}"
        )
    check_count("step", step)
    n_values = tuple(int(n) for n in n_values)
    cs = np.asarray(list(c_grid), dtype=float)
    out = np.empty((len(n_values), cs.size))
    for i, n in enumerate(n_values):
        sparse, dense = (
            build(Join(Edgeless(2), JOIN_FAMILIES[f](n))) for f in INTERP_CHAINS[chain]
        )
        # (degree, tunnel ports) of each vertex with arcs the sparse graph lacks
        space = ArcSpace.from_graph(dense)
        keys = {}
        for v in range(dense.n):
            ends = space.targets[space.vertex_slice(v)]
            tunnel = tuple(p for p, w in enumerate(ends) if not sparse.adjacency[v, w])
            if tunnel:
                keys[v] = (len(ends), tunnel)
        for j, c in enumerate(cs):
            if c == 0.0:
                op = build_step_operator(sparse, Uniform(grover))
            else:
                blocks = {key: _interp_block(*key, float(c)) for key in set(keys.values())}
                coins = {v: blocks[key] for v, key in keys.items()}
                op = build_step_operator(dense, ExplicitMap(coins))
            psi = trajectory(op, equal_superposition(op.space, 0), step)[-1]
            out[i, j] = vertex_probability(op.space, psi, 1)
    return out
