"""Dephasing noise for discrete and continuous walks.

Density matrices evolve one step as

    rho' = (1 - p) W rho W* + p sum_j P_j W rho W* P_j

with W the unitary step and the P_j an orthogonal projector family.
Because every family used here projects onto coordinate subspaces of
the arc basis, the projected sum is an elementwise mask: entries whose
row and column fall in the same subspace survive, the rest are zeroed.
The whole step is therefore rho' = (W rho W*) * w with the weight
matrix w = (1 - p) + p mask.  ``density_steps`` is the only code that
steps a density matrix: it builds the weight once per walk, forms
W rho W* with ``StepOperator.conjugate`` (batched coin blocks and the
arc reversal, never the dense W) and yields one matrix at a time, so a
caller that keeps only what it reads needs memory independent of the
number of steps.

Three families are offered for the discrete walk.  Position dephasing
projects onto vertex blocks, killing coherence between vertices while
leaving each vertex's port coherences alone.  Coin dephasing projects
onto port-index classes across vertices, killing coherence between
different port indices.  Port indices follow ascending neighbor order,
so the coin classes depend on how the vertices are numbered: on a
cycle, the two vertices at the wrap-around hold their clockwise and
counter-clockwise ports in the opposite order to all the others, and
relabelling a graph can change coin-basis results.  Position and both
dephasing do not depend on the numbering.  Dephasing in both erases
everything off the arc diagonal; with coins whose entries all share
one magnitude this reproduces the classical random walk exactly.

The continuous version solves

    drho/dt = L(rho) = -i [A, rho] - p rho + p sum_j P_j rho P_j

with the P_j the vertex basis (Kendon, quant-ph/0606016), so the last
two terms damp the off-diagonal entries at rate p.  ``decohere_ct``
computes rho(t) = exp(tL) rho(0) to working precision by a Taylor
series of L applied to the n x n density itself, on time pieces short
enough that every series converges fast; the n^2 x n^2 Liouvillian is
never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from qwalk.arcs import ArcSpace
from qwalk.dtqw import StepOperator, _real_if_real, build_step_operator
from qwalk.errors import ConfigError, ToleranceError, check_table, check_vertices, check_work
from qwalk.graphs import Graph

__all__ = [
    "NoiseModel",
    "dephasing_mask",
    "density_steps",
    "evolve_density",
    "decohere_ct",
    "density_from_state",
    "validate_density",
    "classical_transition_matrix",
    "classical_walk",
    "vertex_marginal",
    "target_probability_vs_rate",
]

DENSITY_TOL = 1e-8  # trace, Hermiticity and positivity slack of a density matrix
_BASES = ("position", "coin", "both")


@dataclass(frozen=True)
class NoiseModel:
    basis: str
    rate: float

    def __post_init__(self) -> None:
        if self.basis not in _BASES:
            raise ConfigError(f"noise basis must be one of {_BASES}, got {self.basis!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"noise rate must lie in [0, 1], got {self.rate}")


def dephasing_mask(space: ArcSpace, basis: str) -> np.ndarray:
    """0/1 matrix marking arc pairs that survive the projector sum."""
    m = space.n_arcs
    if basis == "both":
        return np.eye(m)
    if basis == "position":
        labels = space.heads
    elif basis == "coin":
        labels = np.arange(m) - space.offsets[space.heads]
    else:
        raise ConfigError(f"unknown dephasing basis {basis!r}")
    return (labels[:, None] == labels[None, :]).astype(float)


def density_from_state(psi: np.ndarray) -> np.ndarray:
    """|psi><psi|, float64 when psi's values are real (``dtqw._real_if_real``).
    An m x m density over ``TABLE_LIMIT`` raises ConfigError before it is built."""
    psi = _real_if_real(psi)
    check_table("density matrix", psi.size, psi.size)
    return np.outer(psi, psi.conj())


def validate_density(rho: np.ndarray) -> None:
    if not np.all(np.isfinite(rho)):
        raise ToleranceError("density matrix has non-finite entries")
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL or abs(np.trace(rho).imag) > DENSITY_TOL:
        raise ToleranceError(f"density trace {np.trace(rho)!r} drifted from 1")
    if np.abs(rho - rho.conj().T).max() > DENSITY_TOL:
        raise ToleranceError("density matrix lost Hermiticity")
    lo = np.linalg.eigvalsh(rho).min()
    if lo < -DENSITY_TOL:
        raise ToleranceError(f"density matrix lost positivity (min eigenvalue {lo:.3e})")


def _step_work(op: StepOperator) -> int:
    """Work units of one density step, m^2 d for m arcs and largest degree d."""
    return op.space.n_arcs**2 * int(np.diff(op.space.offsets).max())


def density_steps(
    rho0: np.ndarray, op: StepOperator, noise: NoiseModel, steps: int
) -> Iterator[np.ndarray]:
    """Yield the density matrices rho_0 ... rho_steps of a noisy walk.

    Each step is ``op.conjugate`` followed by an in-place product with
    the dephasing weight (1 - p) + p mask, which is exactly 1 at p = 0.
    Each matrix is yielded as soon as it is computed and not kept; the
    last one is first checked with ``validate_density``.  Before the
    first step, a walk of more than ``check_work``'s limit in steps x
    m^2 d (see ``target_probability_vs_rate``) raises ConfigError.  A real
    rho0 under a real U is stepped in float64, whatever dtype it arrives in.
    """
    check_work("the density walk's steps x arcs^2 x degree", steps * _step_work(op))
    p = noise.rate
    weight = (1.0 - p) + p * dephasing_mask(op.space, noise.basis)
    rho = _real_if_real(rho0)
    for _ in range(steps):
        yield rho
        rho = op.conjugate(rho)
        rho *= weight
    validate_density(rho)
    yield rho


def evolve_density(
    rho0: np.ndarray, op: StepOperator, noise: NoiseModel, steps: int
) -> list[np.ndarray]:
    """Density matrices after each step, starting list with the input."""
    return list(density_steps(rho0, op, noise, steps))


def decohere_ct(g: Graph, rho0: np.ndarray, rate: float, t: float) -> np.ndarray:
    """Density matrix at time t under continuous-time vertex dephasing.

    Returns exp(tL) rho0 for L(rho) = -i[A, rho] - rate (rho - diag rho).
    The interval [0, t] is cut into s equal pieces of length h with
    h (2 ||A||_1 + 2 rate) <= 1, which bounds the norm of hL by one.  On
    each piece the Taylor series of exp(hL) is summed, term by term,
    until a term's largest entry falls below 2**-53 times the partial
    sum's (after Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).  L
    acts on the n x n matrix directly, so memory stays O(n^2), and the
    work is about s n^3.

    Raises ConfigError for a negative or non-finite t, a density of the
    wrong shape or work over ``check_work``'s limit, and ToleranceError
    when the result is not a density matrix (see ``validate_density``).
    """
    a = g.adjacency.astype(complex)
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (g.n, g.n):
        raise ConfigError(f"density is {rho.shape}, graph has {g.n} vertices")
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"time must be finite and non-negative, got {t}")

    def lindblad(x: np.ndarray) -> np.ndarray:
        off = x.copy()
        np.fill_diagonal(off, 0.0)
        return -1j * (a @ x - x @ a) - rate * off

    norm = 2.0 * float(np.abs(a).sum(axis=0).max()) + 2.0 * abs(rate)
    check_work("decohere_ct's Taylor pieces x n^3", max(1.0, t * norm) * g.n**3)
    pieces = max(1, math.ceil(t * norm))
    h = t / pieces
    for _ in range(pieces):
        term = rho
        k = 0
        while np.abs(term).max() > 2.0**-53 * np.abs(rho).max():
            k += 1
            term = (h / k) * lindblad(term)
            rho = rho + term
    validate_density(rho)
    return rho


# ===== Classical reference walk =====


def classical_transition_matrix(g: Graph) -> np.ndarray:
    """Column-stochastic matrix of the uniform random walk on g.

    From vertex v the walker moves along each incident edge with
    probability 1/degree(v); a self loop counts as an edge back to v.  An
    isolated vertex keeps the walker.
    """
    edges = (g.adjacency != 0).astype(float)  # a loop is its diagonal entry
    degree = edges.sum(axis=0)
    return edges / np.maximum(degree, 1.0) + np.eye(g.n) * (degree == 0)


def classical_walk(g: Graph, start, steps: int) -> np.ndarray:
    """Distribution over vertices after the given number of steps.

    ``start`` is either a vertex index or a probability distribution over
    the vertices (non-negative, summing to one).
    """
    if np.isscalar(start):
        check_vertices(g.n, [start], "start vertex")
        dist = np.zeros(g.n)
        dist[int(start)] = 1.0
    else:
        dist = np.asarray(start, dtype=float).copy()
        if dist.shape != (g.n,):
            raise ConfigError(f"start distribution has shape {dist.shape}, expected ({g.n},)")
        if np.any(dist < 0) or abs(dist.sum() - 1.0) > 1e-9:
            raise ConfigError("start distribution must be non-negative and sum to 1")
    t = classical_transition_matrix(g)
    for _ in range(steps):
        dist = t @ dist
    return dist


def vertex_marginal(space: ArcSpace, rho: np.ndarray) -> np.ndarray:
    """Probability per vertex from an arc-basis density matrix."""
    return space.port_sum(np.real(np.diag(rho)))


# ===== Rate sweeps =====


def target_probability_vs_rate(
    g: Graph,
    policy,
    init: np.ndarray,
    pair: tuple[int, int],
    rates: np.ndarray,
    step: int,
    basis: str = "coin",
) -> np.ndarray:
    """Target marginal, capped at 1, at a fixed step, one value per rate, in rate order.

    The work is rates x step x m^2 d for m arcs and largest degree d: a
    density step is a product of d x d coin blocks with m x m matrices.
    """
    check_vertices(g.n, pair)
    op = build_step_operator(g, policy)
    check_work("the rate sweep's rates x steps x arcs^2 x degree", len(rates) * step * _step_work(op))
    rho0 = density_from_state(init)
    probs = np.empty(len(rates))
    for i, p in enumerate(np.asarray(rates, dtype=float)):
        for rho in density_steps(rho0, op, NoiseModel(basis, float(p)), step):
            pass  # keep only the last density, so memory does not grow with step
        probs[i] = min(vertex_marginal(op.space, rho)[pair[1]], 1.0)
    return probs
