"""Coined discrete-time walk engine.

One step is coin then shift: psi' = S C psi, with C block diagonal over
vertices and S the flip-flop shift.  Transfer is judged on vertex
probability, the sum of squared amplitude moduli over a vertex's ports,
so a perfect transfer claim is independent of the coin state in which
the walker arrives.  A sum of squared moduli can round a few ulps above
one, so every probability the engine reports is capped at one.
Periodicity comes in two strengths: strict means the full state returns
(fidelity with the start state reaches one), positional means all
probability returns to the start vertex whatever the coin configuration.

The per-vertex coin blocks and the arc reversal are the operator:
``StepOperator`` stores nothing else.  A density matrix is stepped by
``StepOperator.conjugate``, which forms U rho U^H from the blocks and
never multiplies by a dense U.  Every state-vector walk is stepped by
one kernel, ``trajectory``, which applies the dense U, built from the
blocks on first use, to a block of columns and never forms a power of
U.  A step picked from a series is the earliest within ``TIE_TOL`` of
the series maximum.

A Haar scan (``block_scan``) bounds every sample's arrival probability
at step t by the top eigenvalue of that step's Gram matrix, which it
computes anyway for the PST certificate, and evaluates the samples only
at the steps where that bound can still beat ``lam`` or the best sample
so far.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from qwalk.arcs import ArcSpace
from qwalk.coins import CoinPolicy, ExplicitMap
from qwalk.errors import ConfigError, ToleranceError, check_table
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
    end arc, blocks, their adjoints) per run of consecutive vertices of
    equal degree, the blocks stacked (k, d, d).  ``conjugate`` steps a
    density matrix from the runs; ``matrix`` is the dense U, built on
    first use for state-vector steps.
    """

    space: ArcSpace
    runs: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense U: each block scattered into U[reverse[arcs], arcs]."""
        m = self.space.n_arcs
        u = np.zeros((m, m), dtype=complex)
        arcs = np.arange(m)
        for lo, hi, blocks, _ in self.runs:
            k, d, _ = blocks.shape
            u[self.space.reverse[lo:hi].reshape(k, d, 1), arcs[lo:hi].reshape(k, 1, d)] = blocks
        return u

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        """U rho U^H for any m x m matrix rho, Hermitian or not.

        U rho U^H = S (C rho C^H) S: one batched product per coin run on
        each side, each followed by a gather along ``space.reverse``.
        """
        m = self.space.n_arcs
        rho = np.asarray(rho, dtype=complex)
        # both products write into one buffer, so that the step's working
        # set stays at four m x m arrays
        work = np.empty((m, m), dtype=complex)
        for lo, hi, blocks, _ in self.runs:
            k, d, _ = blocks.shape
            np.matmul(blocks, rho[lo:hi].reshape(k, d, m), out=work[lo:hi].reshape(k, d, m))
        left = work.take(self.space.reverse, axis=0)
        for lo, hi, _, adjoints in self.runs:
            k, d, _ = adjoints.shape
            np.matmul(
                left[:, lo:hi].reshape(m, k, d).transpose(1, 0, 2),
                adjoints,
                out=work[:, lo:hi].reshape(m, k, d).transpose(1, 0, 2),
            )
        # take keeps C order, so the next step's reshapes are views, not
        # copies; work[:, reverse] would not
        return work.take(self.space.reverse, axis=1)


def build_step_operator(g: Graph, policy: CoinPolicy) -> StepOperator:
    """U = S C from one coin block per vertex, in arc order.

    Since S is a permutation, U^H U = C^H C, so unitarity is checked on
    the blocks: max |B^H B - I| per run, and a NaN fails the check.  An
    explicit coin map is first checked against the graph: a key that
    names no vertex raises, since no walk would ever read its coin.
    """
    if isinstance(policy, ExplicitMap):
        stray = sorted(v for v in policy.coins if not 0 <= v < g.n)
        if stray:
            raise ConfigError(
                f"coin map keys {', '.join(map(str, stray))} name no vertex in 0..{g.n - 1}"
            )
    space = ArcSpace.from_graph(g)
    blocks = []
    for v, d in enumerate(np.diff(space.offsets).tolist()):
        block = np.asarray(policy.coin_for(g, v, d), dtype=complex)
        if block.shape != (d, d):
            raise ConfigError(f"vertex {v}: coin block is {block.shape}, expected ({d}, {d})")
        blocks.append(block)
    runs = []
    lo = 0
    # a vertex of degree 0 owns no arcs, so its empty block joins no run
    for d, group in itertools.groupby((b for b in blocks if b.size), key=len):
        stack = np.array(list(group))
        adjoints = np.ascontiguousarray(stack.conj().transpose(0, 2, 1))
        defect = np.abs(adjoints @ stack - np.eye(d)).max()
        if not defect <= UNITARITY_TOL:
            raise ToleranceError(f"step operator unitarity defect {defect:.3e}")
        hi = lo + len(stack) * d
        runs.append((lo, hi, stack, adjoints))
        lo = hi
    return StepOperator(space, tuple(runs))


def state_at_vertex(space: ArcSpace, v: int, amplitudes: Sequence[complex]) -> np.ndarray:
    """State with the given port amplitudes at v and zero elsewhere."""
    d = space.degree(v)
    amps = np.asarray(list(amplitudes), dtype=complex)
    if amps.shape != (d,):
        raise ConfigError(f"vertex {v} has {d} ports, got {amps.shape[0]} amplitudes")
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= 1e-9:
        raise ConfigError(f"initial amplitudes must be unit norm, got {norm}")
    psi = np.zeros(space.n_arcs, dtype=complex)
    psi[space.vertex_slice(v)] = amps
    return psi


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
    block = np.asarray(psi)[..., space.vertex_slice(v)]
    return np.minimum(np.sum(np.abs(block) ** 2, axis=-1), 1.0)


def trajectory(op: StepOperator, cols: np.ndarray, t_max: int) -> np.ndarray:
    """U^t @ cols for t = 0..t_max, shape (t_max + 1,) + cols.shape.

    ``cols`` is an (m, k) block, such as the identity columns of a
    vertex's ports, or a single state of shape (m,).  Each step is one
    product with U, so no m x m power is ever formed.
    """
    u = op.matrix
    cols = np.asarray(cols, dtype=complex)
    check_table("trajectory", t_max + 1, cols.size)
    out = np.empty((t_max + 1,) + cols.shape, dtype=complex)
    out[0] = cols
    for t in range(t_max):
        np.matmul(u, out[t], out=out[t + 1])
    return out


def _trajectory_pieces(
    op: StepOperator, cols: np.ndarray, t_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """``trajectory(op, cols, t_max)`` in (first step, piece) pairs of at
    most ``_CHUNK_BYTES``; each piece starts at its predecessor's end."""
    per_piece = max(1, _CHUNK_BYTES // (16 * np.size(cols)))
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
        return {
            "source": self.source,
            "target": self.target,
            "target_series": [float(p) for p in self.target_series],
            "source_series": [float(p) for p in self.source_series],
            "pst_steps": list(self.pst_steps),
            "strict_period": self.strict_period,
            "positional_period": self.positional_period,
            "max_probability": self.max_probability,
            "max_step": self.max_step,
            "high_amplitude": self.high_amplitude,
            "lam": self.lam,
            "pst_tol": PST_TOL,
        }


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
    ``TIE_TOL`` of ``max_probability``.
    """
    op = build_step_operator(g, policy)
    source, target = pair
    psi0 = np.asarray(init, dtype=complex)
    if psi0.shape != (op.space.n_arcs,):
        raise ConfigError(
            f"initial state has {psi0.shape} entries, arc space has {op.space.n_arcs}"
        )
    check_table("dtqw step table", t_max + 1, g.n)
    probs = np.empty((t_max + 1, g.n))
    fidelity_series = np.empty(t_max + 1)
    for lo, piece in _trajectory_pieces(op, psi0, t_max):
        for v in range(g.n):
            probs[lo : lo + len(piece), v] = vertex_probability(op.space, piece, v)
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
    cols = np.zeros((space.n_arcs, len(arcs)), dtype=complex)
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
    source, target = pair
    cols = _port_columns(op.space, [source])
    return trajectory(op, cols, t_max)[1:, op.space.vertex_slice(target)]


@dataclass(frozen=True)
class ScanResult:
    """``block_scan``'s best sampled transfer and exact certificate for one pair."""

    max_probability: float          # best sampled probability over steps 1..t_max
    best_step: int                  # earliest step within TIE_TOL of max_probability
    fraction_over_lam: float        # share of samples whose best step beats lam
    pst_steps: tuple[int, ...]      # steps with top_gram >= (1 - PST_SINGULAR_TOL)^2
    top_gram: np.ndarray = field(compare=False, repr=False)  # top eigenvalue of G_t


def block_scan(
    op: StepOperator,
    pairs: Sequence[tuple[int, int]],
    states: Sequence[np.ndarray],
    t_max: int,
    lam: float,
) -> list[ScanResult]:
    """Haar-sampled and exact transfer across each (source, target) pair.

    With B_t the source-to-target block of U^t and G_t = B_t^H B_t, a
    source coin state s arrives at step t with probability s^H G_t s,
    and no unit s does better than top_t, the top eigenvalue of G_t (the
    square of B_t's top singular value).  One trajectory of all source
    ports, taken in pieces, gives every G_t and top_t.

    The certificate: step t admits perfect transfer from some source
    coin state if and only if B_t has a unit singular value, so
    ``pst_steps`` lists the steps whose top_t reaches
    (1 - PST_SINGULAR_TOL)^2.  It catches the measure-zero families of
    initial states that sampling always misses.

    The rows of ``states[i]`` are folded only into the steps whose top_t
    leaves the result open, with B the best sampled probability so far:

        top_t > lam - _PRUNE_SLACK  or  top_t >= B - TIE_TOL - _PRUNE_SLACK

    A piece's steps are taken in decreasing order of top_t, so its top
    step sets B first, and the first step that fails both tests ends the
    piece.  No other step can hold a sample over lam or a probability
    within TIE_TOL of the best, so the result equals folding every step.

    _PRUNE_SLACK bounds the rounding gap between a computed s^H G s and
    the computed top_t.  For unit s the error of s^H G s is below
    (2d + 4) u sum_ij |s_i G_ij s_j| <= (2d + 4) u tr G <= (2d + 4) d u
    (u = 2**-53, tr G <= d since B_t is a block of a unitary), which is
    1.5e-11 at d = 255 and stays under 1e-9 up to d of about 2000;
    eigvalsh adds an error of order d u.
    """
    space = op.space
    check_table("scan steps", t_max, len(pairs))
    offsets = np.cumsum([0] + [space.degree(src) for src, _ in pairs])
    # a step never folded keeps -inf: it cannot be the best or tie with it
    step_best = [np.full(t_max, -np.inf) for _ in pairs]
    over = [np.zeros(len(s), dtype=bool) for s in states]
    top_gram = [np.empty(t_max) for _ in pairs]
    states = [np.ascontiguousarray(s, dtype=complex) for s in states]
    cols = _port_columns(space, [src for src, _ in pairs])
    for lo, piece in _trajectory_pieces(op, cols, t_max):
        for i, (_, tgt) in enumerate(pairs):
            blocks = piece[1:, space.vertex_slice(tgt), offsets[i] : offsets[i + 1]]
            grams = blocks.conj().transpose(0, 2, 1) @ blocks
            top = np.linalg.eigvalsh(grams)[:, -1]
            top_gram[i][lo : lo + len(top)] = top
            best = step_best[i].max()
            for j in np.argsort(-top, kind="stable").tolist():
                if top[j] <= lam - _PRUNE_SLACK and top[j] < best - TIE_TOL - _PRUNE_SLACK:
                    break
                probs = np.minimum(_sample_probabilities(grams[j], states[i]), 1.0)
                step_best[i][lo + j] = probs.max()
                over[i] |= probs > lam
                best = max(best, step_best[i][lo + j])
    return [
        ScanResult(
            float(sb.max()),
            peak_step(sb),
            float(np.mean(ov)),
            tuple((np.flatnonzero(tg >= (1.0 - PST_SINGULAR_TOL) ** 2) + 1).tolist()),
            tg,
        )
        for sb, ov, tg in zip(step_best, over, top_gram)
    ]


def _sample_probabilities(gram: np.ndarray, states: np.ndarray) -> np.ndarray:
    """s^H G s for every row s of ``states``.

    Per chunk of rows, S G^T holds G s in each row, and s^H G s is the
    real dot product of the (Re, Im) pairs of s with those of G s.  A
    chunk's G s takes at most 1/16 of ``_CHUNK_BYTES``.
    """
    d = len(gram)
    rows = max(1, _CHUNK_BYTES // (256 * d))
    pairs = states.view(np.float64)
    out = np.empty(len(states))
    for lo in range(0, len(states), rows):
        gs = states[lo : lo + rows] @ gram.T
        out[lo : lo + rows] = np.einsum("ij,ij->i", pairs[lo : lo + rows], gs.view(np.float64))
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
    ``block_scan``.  ``best_step`` is the earliest step whose best
    probability is within ``TIE_TOL`` of ``max_probability``.
    """
    op = build_step_operator(g, policy)
    states = haar_states(op.space.degree(pair[0]), samples, seed)
    return block_scan(op, [pair], [states], t_max, lam)[0]
