"""Coined discrete-time walk engine.

One step is coin then shift: psi' = S C psi, with C block diagonal over
vertices and S the flip-flop shift.  Transfer is judged on vertex
probability, the sum of squared amplitude moduli over a vertex's ports
(``ArcSpace.port_sum``), so a perfect transfer claim is independent of
the coin state in which the walker arrives.  A sum of squared moduli can
round a few ulps above one, so every probability the engine reports is
capped at one.
Periodicity comes in two strengths: strict means the full state returns
(fidelity with the start state reaches one), positional means all
probability returns to the start vertex whatever the coin configuration.

The per-vertex coin blocks and the arc reversal are the operator:
``StepOperator`` stores nothing else, not even the blocks' adjoints.
A density matrix is stepped by ``StepOperator.conjugate``, which forms
U rho U^H from the blocks and never multiplies by a dense U.  Every
state-vector walk is stepped by one kernel, ``trajectory``, which
applies the dense U, built from the blocks on first use, to a block of
columns and never forms a power of U.  A step picked from a series is
the earliest within ``TIE_TOL`` of the series maximum.

Values decide the arithmetic, with no switch, by one rule
(``_real_if_real``): a coin run or a start with no imaginary part is
float64, whatever its dtype, and U is float64 when every run is.  A real
walk, such as a Grover-family coin from the equal superposition, is then
stepped in real arithmetic, a quarter of the flops of the complex
product; each product takes the ``np.result_type`` of its operands, so a
complex coin or a Haar start walks in complex128 through the same code.

A Haar scan (``block_scan``) walks the source ports' identity columns,
not the samples, and bounds every sample's arrival probability at step t
by the top eigenvalue of that step's Gram matrix, which it computes
anyway for the PST certificate.  It evaluates the samples only at the
steps where that bound can still beat ``lam`` or the best sample found
so far, and there in real arithmetic: a sample's probability is
one real dot product of the Gram's coordinates with the sample's
features (``_features``), so a Haar state meets no complex product.  A
batch of scan cells, such as a survey task, walks as stacked products,
and no result depends on the cells it is batched with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from qwalk.arcs import ArcSpace
from qwalk.coins import CoinPolicy, ExplicitMap
from qwalk.errors import ConfigError, ToleranceError, check_count, check_table, check_vertices
from qwalk.graphs import Graph

__all__ = [
    "StepOperator",
    "build_step_operator",
    "state_at_vertex",
    "equal_superposition",
    "unit_vector",
    "vertex_probability",
    "trajectory",
    "peak_step",
    "haar_states",
    "detect_transfer",
    "block_scan",
    "max_transfer_scan",
    "target_block_powers",
    "TransferReport",
    "ScanResult",
    "report_json",
]

UNITARITY_TOL = 1e-12
TIE_TOL = 1e-12
PST_TOL = 1e-9
PST_SINGULAR_TOL = 1e-9
_MIN_NORM = 2.0 ** -511  # smallest norm whose square, 2**-1022, is a normal float
_CHUNK_BYTES = 1 << 21  # bound on a trajectory piece
_PRUNE_SLACK = 1e-9  # rounding margin of the sample pruning in block_scan


@dataclass(frozen=True)
class StepOperator:
    """A single-step walk operator U = S C over the arc space of a graph.

    C is block diagonal with one contiguous block per vertex, and S is
    the arc reversal ``space.reverse``, an involution.  ``runs`` holds
    the coin blocks, the one stored form of the operator: (first arc,
    end arc, blocks) per run of consecutive vertices of equal degree,
    the blocks stacked (k, d, d).  ``conjugate`` steps a density matrix
    from the runs; ``matrix`` is the dense U, built on first use for
    state-vector steps.
    """

    space: ArcSpace
    runs: tuple[tuple[int, int, np.ndarray], ...]

    @cached_property
    def dtype(self) -> np.dtype:
        """float64 when every run is real (or there are none), else complex128."""
        return np.result_type(float, *(blocks for _, _, blocks in self.runs))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense U: each block scattered into U[reverse[arcs], arcs]."""
        m = self.space.n_arcs
        u = np.zeros((m, m), dtype=self.dtype)
        arcs = np.arange(m)
        for lo, hi, blocks in self.runs:
            k, d, _ = blocks.shape
            u[self.space.reverse[lo:hi].reshape(k, d, 1), arcs[lo:hi].reshape(k, 1, d)] = blocks
        return u

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        """U rho U^H for any m x m matrix rho, Hermitian or not.

        U rho U^H = S (C rho C^H) S: one batched product per coin run on
        each side, each followed by a gather along ``space.reverse``.
        Each run is cast to the step's dtype, and its adjoints formed
        from the cast, so a real run of a complex U gives complex bits.
        """
        m = self.space.n_arcs
        rho = np.asarray(rho)
        # both products write into one buffer, so that the step's working
        # set stays at four m x m arrays
        work = np.empty((m, m), dtype=np.result_type(self.dtype, rho))
        runs = [(lo, hi, blocks.astype(work.dtype, copy=False)) for lo, hi, blocks in self.runs]
        for lo, hi, blocks in runs:
            k, d, _ = blocks.shape
            np.matmul(blocks, rho[lo:hi].reshape(k, d, m), out=work[lo:hi].reshape(k, d, m))
        left = work.take(self.space.reverse, axis=0)
        for lo, hi, blocks in runs:
            k, d, _ = blocks.shape
            np.matmul(
                left[:, lo:hi].reshape(m, k, d).transpose(1, 0, 2),
                np.ascontiguousarray(blocks.conj().transpose(0, 2, 1)),
                out=work[:, lo:hi].reshape(m, k, d).transpose(1, 0, 2),
            )
        # take keeps C order, so the next step's reshapes are views, not
        # copies; work[:, reverse] would not
        return work.take(self.space.reverse, axis=1)


def build_step_operator(g: Graph, policy: CoinPolicy) -> StepOperator:
    """U = S C from one coin block per vertex, in arc order.

    Since S is a permutation, U^H U = C^H C, so unitarity is checked on
    the blocks: max |B^H B - I| per run, and a NaN fails the check.  A
    run is stored by ``_real_if_real``, so U is float64 when every run
    is.  The graph is first checked: the arcs read only which edges
    exist, so a weighted graph raises rather than walk as if unweighted.
    So does an explicit coin map key that names no vertex, or a vertex
    without ports, whose coin no walk reads.  No coin is asked for a
    block of degree 0.
    """
    if not g.is_unweighted():
        raise ConfigError("coined walks need an unweighted graph: every edge and loop weight 1")
    space = ArcSpace.from_graph(g)
    degrees = np.diff(space.offsets).tolist()
    if isinstance(policy, ExplicitMap):
        stray = ", ".join(str(v) for v in sorted(policy.coins) if not 0 <= v < g.n)
        if stray:
            raise ConfigError(f"coin map keys {stray} name no vertex in 0..{g.n - 1}")
        portless = ", ".join(str(v) for v in sorted(policy.coins) if not degrees[v])
        if portless:
            raise ConfigError(f"coin map keys {portless} name vertices without ports")
    blocks = []
    for v, d in enumerate(degrees):
        if not d:
            continue  # a vertex of degree 0 owns no arcs, so it has no block
        block = np.asarray(policy.coin_for(g, v, d))
        if block.shape != (d, d):
            raise ConfigError(f"vertex {v}: coin block is {block.shape}, expected ({d}, {d})")
        blocks.append(block)
    runs, hi = [], 0
    for _, group in itertools.groupby(blocks, key=len):
        stack = _real_if_real(np.array(list(group)))
        d = stack.shape[1]
        defect = np.abs(stack.conj().transpose(0, 2, 1).copy() @ stack - np.eye(d)).max()
        if not defect <= UNITARITY_TOL:
            raise ToleranceError(f"step operator unitarity defect {defect:.3e}")
        lo, hi = hi, hi + len(stack) * d
        runs.append((lo, hi, stack))
    return StepOperator(space, tuple(runs))


def state_at_vertex(space: ArcSpace, v: int, amplitudes: Sequence[complex]) -> np.ndarray:
    """State with the given port amplitudes at v and zero elsewhere."""
    d = space.degree(v)
    amps = _real_if_real(list(amplitudes))
    if amps.shape != (d,):
        raise ConfigError(f"vertex {v} has {d} ports, got {amps.shape[0]} amplitudes")
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= 1e-9:
        raise ConfigError(f"initial amplitudes must be unit norm, got {norm}")
    psi = np.zeros(space.n_arcs, dtype=amps.dtype)
    psi[space.vertex_slice(v)] = amps
    return psi


def _real_if_real(x) -> np.ndarray:
    """x as float64 when none of its values has an imaginary part (of any
    dtype), else as complex128: the dtype rule of every start and coin run."""
    x = np.asarray(x)
    if x.dtype.kind == "c" and np.count_nonzero(x.imag):
        return x.astype(complex, copy=False)
    return np.ascontiguousarray(x.real, dtype=float)


def equal_superposition(space: ArcSpace, v: int) -> np.ndarray:
    d = space.degree(v)
    return state_at_vertex(space, v, np.ones(d) / np.sqrt(d))


def unit_vector(amps: np.ndarray) -> np.ndarray:
    """Nonzero amps over their norm, without overflow or underflow.

    The norm sums squares, so when its square leaves the normal float range
    the amplitudes are first divided by their largest modulus.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if not _MIN_NORM <= norm < np.inf:
        amps = amps / np.abs(amps).max()
        norm = np.linalg.norm(amps)
    return amps / norm


def vertex_probability(space: ArcSpace, psi: np.ndarray, v: int) -> float | np.ndarray:
    """Probability at v of a state, or of each state along leading axes."""
    return np.minimum(space.port_sum(np.abs(psi) ** 2)[..., v], 1.0)


def trajectory(
    op: StepOperator | Sequence[StepOperator], cols: np.ndarray, t_max: int
) -> np.ndarray:
    """U^t @ cols for t = 0..t_max, shape (t_max + 1,) + cols.shape.

    ``cols`` is an (m, k) block, such as the identity columns of a
    vertex's ports, or a single state of shape (m,).  Each step is one
    product with U, so no m x m power is ever formed.  The table takes
    the ``np.result_type`` of U and ``cols``, and U is cast to it once.
    A sequence of c operators on equal arc counts steps a (c, m, k)
    stack of blocks, block i under operator i: one stacked product a
    step, whose items get the bits of each walk stepped alone.
    """
    cols = np.asarray(cols)
    ops = [op] if isinstance(op, StepOperator) else op
    dtype = np.result_type(*(o.dtype for o in ops), cols)
    mats = [o.matrix.astype(dtype, copy=False) for o in ops]
    u = mats[0] if len(mats) == 1 else np.array(mats)
    check_table("trajectory", t_max + 1, cols.size)
    out = np.empty((t_max + 1,) + cols.shape, dtype=dtype)
    out[0] = cols
    for t in range(t_max):
        np.matmul(u, out[t], out=out[t + 1])
    return out


def _trajectory_pieces(
    op: StepOperator | Sequence[StepOperator], cols: np.ndarray, t_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """``trajectory(op, cols, t_max)`` in (first step, piece) pairs; each
    piece starts at its predecessor's end.  The piece being made and the
    one its caller still holds take at most ``_CHUNK_BYTES`` together."""
    per_piece = max(1, _CHUNK_BYTES // (32 * np.size(cols)))
    for lo in range(0, max(t_max, 1), per_piece):
        piece = trajectory(op, cols, min(per_piece, t_max - lo))
        cols = piece[-1]
        yield lo, piece


def peak_step(values: np.ndarray) -> int:
    """The tie rule: the earliest step within TIE_TOL of the maximum.

    ``values[i]`` belongs to step i + 1; an all-zero series peaks at 1.
    """
    return int(np.argmax(values >= values.max() - TIE_TOL)) + 1


def haar_states(d: int, count: int, seed: int) -> np.ndarray:
    """(count, d) array of Haar-uniform unit vectors on C^d."""
    if d < 1 or count < 1:
        raise ConfigError("haar_states requires d >= 1 and count >= 1")
    check_table("Haar states", count, d)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@dataclass(frozen=True)
class TransferReport:
    """Per-step transfer diagnostics between a source and target vertex."""

    source: int
    target: int
    target_series: np.ndarray       # probability at target, index = step
    source_series: np.ndarray       # probability back at source
    fidelity_series: np.ndarray     # |<psi0|psi_t>|^2
    vertex_series: np.ndarray       # (steps + 1, n) probability at every vertex
    pst_steps: tuple[int, ...]      # steps with target probability >= 1 - PST_TOL
    strict_period: int | None       # first full-state return
    positional_period: int | None   # first all-probability return to source
    max_probability: float
    max_step: int
    high_amplitude: bool
    lam: float

    def to_json_dict(self) -> dict:
        return report_json(self, ("fidelity_series", "vertex_series")) | {"pst_tol": PST_TOL}


def report_json(report, tables: Sequence[str]) -> dict:
    """The dataclass fields of a report, except the named tables, with
    arrays as lists, ready for ``json.dumps``."""
    out = {f.name: getattr(report, f.name) for f in fields(report) if f.name not in tables}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def detect_transfer(
    g: Graph,
    policy: CoinPolicy,
    init: np.ndarray,
    pair: tuple[int, int],
    t_max: int = 100,
    lam: float = 0.9,
) -> TransferReport:
    """Evolve for t_max steps and summarize transfer between the pair.

    ``max_step`` is the earliest step whose target probability is within
    ``TIE_TOL`` of ``max_probability``.  An initial state whose norm is
    off 1 by more than 1e-9 raises ConfigError before the first step; one
    holding NaN walks on and fails the norm drift check (ToleranceError).
    """
    check_count("t_max", t_max)
    check_vertices(g.n, pair)
    op = build_step_operator(g, policy)
    source, target = pair
    psi0 = _real_if_real(init)
    if psi0.shape != (op.space.n_arcs,):
        raise ConfigError(
            f"initial state has {psi0.shape} entries, arc space has {op.space.n_arcs}"
        )
    norm = np.linalg.norm(psi0)
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError(f"initial state must be unit norm, got {norm}")
    check_table("dtqw step table", t_max + 1, g.n)
    probs = np.empty((t_max + 1, g.n))
    fidelity_series = np.empty(t_max + 1)
    for lo, piece in _trajectory_pieces(op, psi0, t_max):
        probs[lo : lo + len(piece)] = np.minimum(op.space.port_sum(np.abs(piece) ** 2), 1.0)
        fidelity_series[lo : lo + len(piece)] = np.minimum(np.abs(piece @ psi0.conj()) ** 2, 1.0)
    drift = abs(np.linalg.norm(piece[-1]) - 1.0)
    if not drift <= 1e-9:
        raise ToleranceError(f"norm drift {drift:.3e} after {t_max} steps")
    steps = np.arange(1, t_max + 1)
    pst_steps = steps[probs[1:, target] >= 1.0 - PST_TOL]
    strict = steps[fidelity_series[1:] >= 1.0 - PST_TOL]
    positional = steps[probs[1:, source] >= 1.0 - PST_TOL]
    max_probability = float(probs[1:, target].max())
    return TransferReport(
        source=source,
        target=target,
        target_series=probs[:, target],
        source_series=probs[:, source],
        fidelity_series=fidelity_series,
        vertex_series=probs,
        pst_steps=tuple(int(t) for t in pst_steps),
        strict_period=int(strict[0]) if strict.size else None,
        positional_period=int(positional[0]) if positional.size else None,
        max_probability=max_probability,
        max_step=peak_step(probs[1:, target]),
        high_amplitude=max_probability > lam,
        lam=lam,
    )


def _port_columns(space: ArcSpace, vertices: Sequence[int]) -> np.ndarray:
    """Identity columns of the ports of the given vertices, in that order."""
    arcs = [a for v in vertices for a in space.ports(v)]
    cols = np.zeros((space.n_arcs, len(arcs)))
    cols[arcs, range(len(arcs))] = 1.0
    return cols


def target_block_powers(
    op: StepOperator, pair: tuple[int, int], t_max: int
) -> np.ndarray:
    """Source-to-target blocks of U^t for t = 1..t_max, shape (t_max, d_t, d_s).

    The block at step t maps port amplitudes at the source to port
    amplitudes at the target; its largest singular value reaching one
    certifies a perfectly transferring initial coin state at that step.
    """
    check_vertices(len(op.space.offsets) - 1, pair)
    source, target = pair
    cols = _port_columns(op.space, [source])
    return trajectory(op, cols, t_max)[1:, op.space.vertex_slice(target)]


# The JSON type a reported field must have, by its annotation; a bool is no number
_JSON_TYPES = {
    "str": lambda x: type(x) is str,
    "dict": lambda x: type(x) is dict,
    "int": lambda x: type(x) is int,
    "float": lambda x: type(x) is int or type(x) is float and np.isfinite(x),
    "tuple[int, ...]": lambda x: type(x) is list and all(type(i) is int for i in x),
}


@dataclass(frozen=True)
class _Verdict:
    """The fields a scan verdict reports, in order, typed for ``_JSON_TYPES``."""

    max_probability: float          # best sampled probability over steps 1..t_max
    max_step: int                   # earliest step within TIE_TOL of max_probability
    fraction_over_lam: float        # share of samples whose best step beats lam
    pst_steps: tuple[int, ...]      # steps with top_gram >= (1 - PST_SINGULAR_TOL)^2


@dataclass(frozen=True)
class ScanResult(_Verdict):
    """``block_scan``'s verdict for one pair, and the table it was read from."""

    top_gram: np.ndarray = field(compare=False, repr=False, kw_only=True)  # top eigenvalue of G_t

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(_Verdict)}


# A scan cell: an operator, the (source, target) pairs scanned on it, and
# the Haar rows of each pair's source
ScanCell = tuple[StepOperator, Sequence[tuple[int, int]], Sequence[np.ndarray]]


def block_scan(cells: Sequence[ScanCell], t_max: int, lam: float) -> list[list[ScanResult]]:
    """Haar-sampled and exact transfer across each pair of each cell: one
    list per cell, one ``ScanResult`` per pair, in order.

    With B_t the source-to-target block of U^t and G_t = B_t^H B_t, a
    source coin state s arrives at step t with probability s^H G_t s,
    and no unit s does better than top_t, the top eigenvalue of G_t (the
    square of B_t's top singular value).  One trajectory of a cell's
    source ports gives every G_t and top_t of its pairs
    (``_gram_spans``), and blocks of equal shape get their Grams and
    eigenvalues in stacked calls.  A stacked item gets the bits of
    its own 2-D call, so no result depends on the other cells scanned
    with it.

    The certificate: step t admits perfect transfer from some source
    coin state if and only if B_t has a unit singular value, so
    ``pst_steps`` lists the steps whose top_t reaches
    (1 - PST_SINGULAR_TOL)^2.  It catches the measure-zero families of
    initial states that sampling always misses.

    A pair's Haar rows are folded (``_fold``) only into the steps whose
    top_t leaves the result open.  The steps come in spans, all t_max of
    them in one span unless their blocks and Gram coordinates would take
    more than ``_CHUNK_BYTES``, and a span is folded in two rounds, with B
    the best sampled probability so far and slack the margin
    ``_prune_slack(d)`` at source degree d:

        1. every step with top_t > lam - slack, and the span's top step
           if top_t >= B - TIE_TOL - slack;
        2. every other step with top_t >= B - TIE_TOL - slack.

    Round 1 holds every step where a sample can beat lam, and B is never
    above the final best, so no step left out can hold a sample over lam
    or a probability within TIE_TOL of the best: the result equals
    folding every step.

    The slack bounds the rounding gap between a computed s^H G s and
    the computed top_t.  ``_fold`` forms s^H G s as a real dot product
    of d^2 terms, whose error is below about (d^2 + 2) u sum_ij
    |G_ij| |s_i| |s_j| <= (d^2 + 2) u ||G||_F <= (d^2 + 2) sqrt(d) u
    (u = 2**-53, ||G||_F <= sqrt(d) since B_t is a block of a unitary);
    eigvalsh adds an error of order d u.  2**-52 d**2.5 covers both, and
    reaches 1e-9 at d = 458.

    The (pairs, t_max) tables of every cell, ``top_gram`` among them,
    are held at once, so a caller bounds its batch by t_max.
    """
    check_count("t_max", t_max)
    for op, pairs, _ in cells:
        check_vertices(len(op.space.offsets) - 1, [v for pair in pairs for v in pair])
        check_table("scan steps", t_max, len(pairs))
    n = sum(len(pairs) for _, pairs, _ in cells)
    states = [np.ascontiguousarray(s, dtype=complex) for _, _, sets in cells for s in sets]
    slack = np.array([[_prune_slack(s.shape[1])] for s in states])
    tops = np.empty((n, t_max))
    # a step never folded keeps -inf: it cannot be the best or tie with it
    step_best = np.full((n, t_max), -np.inf)
    over = [np.zeros(len(s), dtype=bool) for s in states]

    def fold(opened: np.ndarray, coords: list[np.ndarray], best: np.ndarray) -> None:
        steps = [np.flatnonzero(row) for row in opened]
        folding = [i for i in range(n) if steps[i].size]
        # one fold per Haar set and coordinate width
        for members in _groups(folding, lambda i: (id(states[i]), coords[i].shape[1])):
            folds = _fold(states[members[0]], [coords[i][steps[i]] for i in members], lam)
            for i, (step_max, hits) in zip(members, folds):
                best[i, steps[i]] = step_max
                over[i] |= hits

    for lo, top, coords in _gram_spans(cells, t_max):
        hi = lo + top.shape[1]
        tops[:, lo:hi] = top
        best = step_best[:, lo:hi]
        peak = np.arange(hi - lo) == top.argmax(axis=1)[:, None]
        so_far = step_best[:, :lo].max(axis=1, keepdims=True, initial=-np.inf)
        fold((top > lam - slack) | peak & (top >= so_far - TIE_TOL - slack), coords, best)
        so_far = step_best[:, :hi].max(axis=1, keepdims=True)
        fold((best == -np.inf) & (top >= so_far - TIE_TOL - slack), coords, best)
    certified = tops >= (1.0 - PST_SINGULAR_TOL) ** 2
    results = iter([
        ScanResult(
            float(sb.max()),
            peak_step(sb),
            float(np.mean(ov)),
            tuple((np.flatnonzero(cert) + 1).tolist()),
            top_gram=tg,
        )
        for sb, ov, cert, tg in zip(step_best, over, certified, tops)
    ])
    return [[next(results) for _ in pairs] for _, pairs, _ in cells]


def _groups(indices: Iterable[int], key) -> list[list[int]]:
    """``indices`` split by the value of ``key(i)``, each group in order."""
    out: dict = {}
    for i in indices:
        out.setdefault(key(i), []).append(i)
    return list(out.values())


def _gram_spans(
    cells: Sequence[ScanCell], t_max: int
) -> Iterator[tuple[int, np.ndarray, list[np.ndarray]]]:
    """The Gram spectra of every pair of every cell, the pairs numbered
    cell by cell, in spans of steps lo + 1..hi: (lo, the top eigenvalue of
    each pair's G_t, shape (pairs, hi - lo), and each pair's
    ``_gram_coordinates`` at those steps).

    A cell walks the identity columns of its sources' ports, one source
    after another.  Cells of equal arc count, column count and dtype
    walk as one stack, in pieces, of which only the target blocks are
    kept.  Blocks of equal shape and dtype are stacked, and a span's
    blocks and the Gram coordinates kept from them take at most
    ``_CHUNK_BYTES``, unless one step alone takes more.
    """
    shapes = [
        (op.space.degree(tgt), op.space.degree(src), op.dtype)
        for op, pairs, _ in cells
        for src, tgt in pairs
    ]
    groups = _groups(range(len(shapes)), shapes.__getitem__)
    slot = {i: (g, k) for g, members in enumerate(groups) for k, i in enumerate(members)}
    first = np.cumsum([0] + [len(pairs) for _, pairs, _ in cells]).tolist()
    cols = [_port_columns(op.space, [src for src, _ in pairs]) for op, pairs, _ in cells]
    walks = []  # (operators, columns at the span's start, kept blocks) of each stack
    for members in _groups(range(len(cells)), lambda c: cols[c].shape + (cells[c][0].dtype,)):
        kept = []  # (shape group, slot, walk in the stack, target rows, source columns)
        for item, c in enumerate(members):
            op, pairs, _ = cells[c]
            lo = 0
            for i, (src, tgt) in enumerate(pairs, first[c]):
                hi = lo + op.space.degree(src)
                kept.append(slot[i] + (item, op.space.vertex_slice(tgt), slice(lo, hi)))
                lo = hi
        walks.append([[cells[c][0] for c in members], np.array([cols[c] for c in members]), kept])
    # a step keeps each pair's block and its float64 Gram coordinates
    per_step = sum(d_t * d_s * t.itemsize + 8 * _width(d_s, t) for d_t, d_s, t in shapes)
    span = max(1, _CHUNK_BYTES // per_step)
    for lo in range(0, t_max, span):
        steps = min(span, t_max - lo)
        stacks = [np.empty((len(g), steps) + shapes[g[0]][:2], shapes[g[0]][2]) for g in groups]
        for walk in walks:
            walk[1] = _walk_blocks(*walk, stacks, steps)
        top, coords = np.empty((len(shapes), steps)), [None] * len(shapes)
        for g, members in enumerate(groups):
            group_top, group_coords = _gram_spectra(stacks[g])
            stacks[g] = None  # a group's blocks go once its spectra are taken
            top[members] = group_top
            for i, c in zip(members, group_coords):
                coords[i] = c
        yield lo, top, coords


def _walk_blocks(ops, start, kept, stacks, steps) -> np.ndarray:
    """Walk a stack ``steps`` further from the columns ``start``, copying
    each kept target block into its slot of ``stacks``; the columns it
    ends at."""
    for at, piece in _trajectory_pieces(ops, start, steps):
        for g, k, item, rows, ports in kept:
            stacks[g][k, at : at + len(piece) - 1] = piece[1:, item, rows, ports]
    return piece[-1].copy()


def _gram_spectra(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The top eigenvalue and the ``_gram_coordinates`` of G = B^H B for
    each block B of a (..., d_t, d_s) stack, with the Grams formed in
    pieces of at most 1/4 of ``_CHUNK_BYTES``."""
    flat = blocks.reshape((-1,) + blocks.shape[-2:])
    d = blocks.shape[-1]
    per = max(1, _CHUNK_BYTES // (4 * d * d * blocks.itemsize))
    tops, coords = np.empty(len(flat)), np.empty((len(flat), _width(d, blocks.dtype)))
    for lo in range(0, len(flat), per):
        piece = flat[lo : lo + per]
        grams = piece.conj().transpose(0, 2, 1) @ piece
        tops[lo : lo + per] = np.linalg.eigvalsh(grams)[:, -1]
        coords[lo : lo + per] = _gram_coordinates(grams)
    lead = blocks.shape[:-2]
    return tops.reshape(lead), coords.reshape(lead + (-1,))


def _width(d: int, dtype: np.dtype) -> int:
    """How many ``_gram_coordinates`` a d x d Gram of this dtype has."""
    return d * d if dtype.kind == "c" else d * (d + 1) // 2


def _prune_slack(d: int) -> float:
    """The pruning margin of ``block_scan`` at source degree d:
    ``_PRUNE_SLACK`` up to d = 458, and 2**-52 d**2.5 past it."""
    return _PRUNE_SLACK * max(1.0, d / 458) ** 2.5


@lru_cache(maxsize=None)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries above the diagonal of a d x d
    matrix, row by row; read-only, as they are shared."""
    pairs = np.triu_indices(d, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _gram_coordinates(grams: np.ndarray) -> np.ndarray:
    """(..., d, d) Hermitian Grams -> (..., F) real coordinates: the
    diagonal, then 2 Re and, for a complex stack, -2 Im of the entries
    above it.  F is ``_width(d, dtype)``; each pairs with the first F
    rows of ``_features``."""
    upper = grams[(...,) + _upper_pairs(grams.shape[-1])]
    parts = [np.diagonal(grams, axis1=-2, axis2=-1).real, 2 * upper.real]
    if np.iscomplexobj(grams):
        parts.append(-2 * upper.imag)
    return np.concatenate(parts, axis=-1)


def _features(states: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` of the d^2 real features of each row s of
    ``states``, one column per row: |s_i|^2, then Re and Im of
    conj(s_i) s_j for i < j.

    For Hermitian G, s^H G s = sum_i G_ii |s_i|^2 + 2 sum_{i<j}
    (Re G_ij Re(conj(s_i) s_j) - Im G_ij Im(conj(s_i) s_j)), the dot
    product of G's ``_gram_coordinates`` with s's features.
    """
    re, im = np.ascontiguousarray(states.real.T), np.ascontiguousarray(states.imag.T)
    iu, ju = _upper_pairs(len(re))
    parts = [re * re + im * im, re[iu] * re[ju] + im[iu] * im[ju]]
    if width > len(re) + len(iu):
        parts.append(re[iu] * im[ju] - im[iu] * re[ju])
    return np.concatenate(parts)


def _fold(
    states: np.ndarray, coords: Sequence[np.ndarray], lam: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fold the sample rows ``states`` into each (J, F) table of Gram
    coordinates: per table, the best probability (capped at one) at each
    of its J steps, and which samples beat lam at any of them.

    A step's probabilities are one (1, F) @ (F, rows) product per piece
    of rows, stacked over steps: each step gets the same gemv whatever
    else is folded with it, and the pieces depend on F alone.  A piece
    of the feature table takes at most 1/8 of ``_CHUNK_BYTES``, so that
    it stays in cache while every step reads it, and a piece of the
    products at most ``_CHUNK_BYTES``.
    """
    width = coords[0].shape[1]
    rows = max(1, _CHUNK_BYTES // (64 * width))
    steps = max(1, _CHUNK_BYTES // (8 * min(rows, len(states))))
    out = [(np.full(len(c), -np.inf), np.zeros(len(states), dtype=bool)) for c in coords]
    for lo in range(0, len(states), rows):
        feats = _features(states[lo : lo + rows], width)
        for c, (best, hits) in zip(coords, out):
            for j in range(0, len(c), steps):
                probs = np.minimum(np.matmul(c[j : j + steps, None], feats)[:, 0], 1.0)
                np.maximum(best[j : j + steps], probs.max(axis=1), out=best[j : j + steps])
                hits[lo : lo + rows] |= (probs > lam).any(axis=0)
    return out


def max_transfer_scan(
    g: Graph,
    policy: CoinPolicy,
    pair: tuple[int, int],
    samples: int = 1500,
    t_max: int = 100,
    seed: int = 0,
    lam: float = 0.9,
) -> ScanResult:
    """Haar-sample source coin states and track the target probability.

    Works on the Gram matrices of the source-to-target blocks through
    ``block_scan``.  ``max_step`` is the earliest step whose best
    probability is within ``TIE_TOL`` of ``max_probability``.
    """
    check_count("samples", samples)
    check_count("t_max", t_max)
    check_vertices(g.n, pair)
    op = build_step_operator(g, policy)
    states = haar_states(op.space.degree(pair[0]), samples, seed)
    return block_scan([(op, [pair], [states])], t_max, lam)[0][0]
