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
blocks of U^t.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from qwalk.coins import CoinPolicy, ExplicitMap, Uniform, grover, interp_grover, parse_policy
from qwalk.dtqw import (
    ScanResult,
    block_scan,
    build_step_operator,
    equal_superposition,
    haar_states,
    target_block_powers,
    trajectory,
    unit_vector,
    vertex_probability,
)
from qwalk.errors import ConfigError, check_table
from qwalk.graphs import JOIN_FAMILIES, Cycle, Edgeless, Graph, Join, build, canonical_key

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
    for v in range(m):
        adj[v, (v + 1) % m] = adj[(v + 1) % m, v] = 1
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
class SearchRecord:
    """One (variant, policy) survey result.

    Transfer metrics cover the better of the two directions across the
    marked pair, since one representative stands for a variant and its
    mirror image.  The fields after ``policy`` come from that
    direction's ``dtqw.ScanResult``: ``best_p`` is its
    ``max_probability``, ``best_step`` its ``best_step``, ``pst_steps``
    the steps ``block_scan`` certified, ``pst`` whether there are any
    (an exact-transfer initial state exists even when no Haar sample
    comes close), and ``frac_over_lambda`` its ``fraction_over_lam``.
    """

    key: str
    descriptor: dict
    policy: str
    best_p: float
    best_step: int
    pst: bool
    pst_steps: tuple[int, ...]
    frac_over_lambda: float

    def to_json(self) -> str:
        # the instance dict holds exactly the fields, in order; asdict
        # would deep-copy the descriptor for the same text
        return json.dumps(vars(self))

    @classmethod
    def from_json(cls, line: str) -> "SearchRecord":
        """Parse one sink line; ValueError names a field of the wrong type."""
        data = json.loads(line)
        if not isinstance(data, dict) or data.keys() != _RECORD_FIELDS.keys():
            raise ValueError(f"a search record has exactly the fields {', '.join(_RECORD_FIELDS)}")
        bad = [name for name, ok in _RECORD_FIELDS.items() if not ok(data[name])]
        if bad:
            raise ValueError(f"search record fields of the wrong type: {', '.join(bad)}")
        data["pst_steps"] = tuple(data["pst_steps"])
        return cls(**data)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x: object) -> bool:
    return _is_int(x) or isinstance(x, float) and math.isfinite(x)


# The JSON type each SearchRecord field must have; a bool is no number
_RECORD_FIELDS = {
    "key": lambda x: isinstance(x, str),
    "descriptor": lambda x: isinstance(x, dict),
    "policy": lambda x: isinstance(x, str),
    "best_p": _is_finite,
    "best_step": _is_int,
    "pst": lambda x: isinstance(x, bool),
    "pst_steps": lambda x: isinstance(x, list) and all(map(_is_int, x)),
    "frac_over_lambda": _is_finite,
}


def _search_cell(
    g: Graph,
    policy: CoinPolicy,
    pair: tuple[int, int],
    samples: int,
    t_max: int,
    seeds: tuple[int, int],
    lam: float,
) -> ScanResult:
    """Scan one variant under one policy and keep the stronger direction.

    Deduplication treats the marked pair as unordered, so one emitted
    representative can stand for a variant and its mirror image.  Those
    two differ dynamically (walking toward a modified vertex is not the
    same as walking away from it), so the scan runs the transfer both
    ways across the pair and reports whichever direction does better,
    preferring exact PST, then best probability, then sample fraction.
    One ``block_scan`` trajectory serves both directions.
    """
    op = build_step_operator(g, policy)
    directions = (pair, (pair[1], pair[0]))
    states = [
        haar_states(op.space.degree(src), samples, sd)
        for (src, _), sd in zip(directions, seeds)
    ]
    scans = block_scan(op, directions, states, t_max, lam)
    # max keeps the first of equal keys, so a tie goes to the given direction
    return max(scans, key=lambda s: (bool(s.pst_steps), s.max_probability, s.fraction_over_lam))


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
    bad or repeated name, an odd base, a base outside 4..16, a
    ``max_new`` below 1 or a table of Haar samples or steps over the
    limit raises ``ConfigError`` before the sink is touched.  One task is one variant:
    the graph built while keying it is walked under every policy still
    missing from the sink.  With a sink path, each variant's records are
    appended to a JSON-lines file and flushed as soon as its cells
    finish, in variant order, so a kill loses at most the finished cells
    of one variant and a rerun skips every cell already present.  A torn
    last line, left by a kill in the middle of a write, is cut from the
    file and its cell runs again.  Per-cell seeds derive from the master
    seed, the variant's position and the policy, which keeps results
    identical however many workers run; the pool has min(workers, tasks,
    CPU count) processes.  Records of equal ``best_p``
    sort by key, then policy, so a resumed run returns the same order.
    """
    parsed: dict[str, CoinPolicy] = {}
    for name in policies:
        if name in parsed:
            raise ConfigError(f"policy {name!r} listed twice")
        parsed[name] = parse_policy(name)
    _check_variant_args(base, max_new)
    # a source port count of 2 + max_new occurs: every new node on vertex 0
    check_table("Haar states", samples, 2 + max_new)
    check_table("scan steps", t_max, 2)
    records = _read_sink(sink_path) if sink_path and os.path.exists(sink_path) else []
    done = {(rec.key, rec.policy) for rec in records}

    tasks = []
    for idx, (raw_key, desc, g) in enumerate(_keyed_variants(base, max_new)):
        key = raw_key.hex()
        missing = [(name, pol) for name, pol in parsed.items() if (key, name) not in done]
        if missing:
            tasks.append((idx, key, desc, g, missing))
    run = functools.partial(
        _run_variant, pair=(0, base // 2), samples=samples, t_max=t_max, lam=lam, seed=seed
    )

    workers = min(workers, len(tasks), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(sink_path, "a")) if sink_path else None
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            fresh = pool.map(run, tasks, chunksize=max(1, round(8 / len(parsed))))
        else:
            fresh = map(run, tasks)
        for variant_records in fresh:
            if sink:
                sink.writelines(rec.to_json() + "\n" for rec in variant_records)
                sink.flush()
            records.extend(variant_records)
    records.sort(key=lambda r: (-r.best_p, r.key, r.policy))
    return records


def _read_sink(path: str) -> list[SearchRecord]:
    """Records of a sink file, whose torn last line is then cut off.

    A complete line that is no record raises ConfigError before the
    file is touched.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        end = data.rfind(b"\n") + 1
        records = []
        for num, line in enumerate(data[:end].split(b"\n"), 1):
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


def _policy_index(name: str) -> int:
    """Seed index of a policy: 1-3 for O1-O3, else a CRC-32 of its name."""
    return {"O1": 1, "O2": 2, "O3": 3}.get(name) or zlib.crc32(name.encode())


def _run_variant(task, pair, samples, t_max, lam, seed) -> list[SearchRecord]:
    """Records of one (index, key, descriptor, graph, policies) task, in policy order."""
    idx, key, desc, g, policies = task
    out = []
    for name, policy in policies:
        cell_seed = np.random.SeedSequence([seed, idx, _policy_index(name)])
        seeds = tuple(int(child.generate_state(1)[0]) for child in cell_seed.spawn(2))
        scan = _search_cell(g, policy, pair, samples, t_max, seeds, lam)
        out.append(SearchRecord(
            key=key,
            descriptor=desc.to_json_dict(),
            policy=name,
            best_p=scan.max_probability,
            best_step=scan.best_step,
            pst=bool(scan.pst_steps),
            pst_steps=scan.pst_steps,
            frac_over_lambda=scan.fraction_over_lam,
        ))
    return out


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
    if kind == "random":
        means = np.empty(len(n_values))
        for i, n in enumerate(n_values):
            check_table("random robustness runs", runs, n)
            rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
            block = _hub_cycle_block(n, step)
            deltas = rng.uniform(0.0, 1.0, size=(runs, n))
            states = 1.0 - deltas
            states = states / np.linalg.norm(states, axis=1, keepdims=True)
            probs = np.minimum(np.sum(np.abs(states @ block.T) ** 2, axis=1), 1.0)
            means[i] = probs.mean()
        return means

    mags = np.asarray(list(magnitudes if magnitudes is not None else []), dtype=float)
    if mags.size == 0:
        raise ConfigError(f"robustness kind {kind!r} needs a magnitude grid")
    out = np.empty((len(n_values), mags.size))
    for i, n in enumerate(n_values):
        block = _hub_cycle_block(n, step)
        for j, mag in enumerate(mags):
            amps = np.ones(n, dtype=complex)
            if kind == "defect":
                amps[-1] = 1.0 - mag
            else:
                amps[-1] = np.exp(1j * mag)
            amps = unit_vector(amps)
            out[i, j] = min(float(np.sum(np.abs(block @ amps) ** 2)), 1.0)
    return out


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
    n_values = tuple(int(n) for n in n_values)
    cs = np.asarray(list(c_grid), dtype=float)
    out = np.empty((len(n_values), cs.size))
    for i, n in enumerate(n_values):
        sparse, dense = (
            build(Join(Edgeless(2), JOIN_FAMILIES[f](n))) for f in INTERP_CHAINS[chain]
        )
        # (degree, tunnel ports) of each vertex with edges the sparse graph lacks
        keys = {}
        for v in range(dense.n):
            nbrs = dense.neighbors(v)
            tunnel = tuple(p for p, w in enumerate(nbrs) if not sparse.adjacency[v, w])
            if tunnel:
                keys[v] = (len(nbrs), tunnel)
        for j, c in enumerate(cs):
            if c == 0.0:
                op = build_step_operator(sparse, Uniform(grover))
            else:
                blocks = {key: _interp_block(*key, float(c)) for key in set(keys.values())}
                coins = {v: blocks[key] for v, key in keys.items()}
                op = build_step_operator(dense, ExplicitMap(coins, fallback=Uniform(grover)))
            psi = trajectory(op, equal_superposition(op.space, 0), step)[-1]
            out[i, j] = vertex_probability(op.space, psi, 1)
    return out
