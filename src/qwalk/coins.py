"""Coin operators and per-vertex coin policies.

All coins act on the ports of a single vertex.  The discrete Fourier
coin uses the kernel omega = exp(-2*pi*i/d), so dft(2) is the Hadamard
matrix.  grover(d) is the reflection 2/d * J - I.  hadamard_columns_swapped
is the Hadamard with its columns exchanged, which shows up in the
periodic coin assignments on joined edgeless graphs.

interp_grover(d, t, c) is a one-parameter family bridging the Grover
coin of dimension d - t (plus an inert block on the t extra ports) at
c = 0 and the full Grover coin of dimension d at c = 1.  The matrix is
real symmetric with constant diagonal a on the d - t ordinary ports,
off-diagonal b among them, diagonal e and off-diagonal f among the t
extra ports, and coupling c * 2/d between the groups.  Unitarity pins
the entries once the coupling is fixed; the branch chosen here is the
one that is continuous for c in (0, 1] and lands exactly on grover(d)
at c = 1.  As c -> 0 that branch tends to grover(d - t) plus minus one
on each extra port; at exactly c = 0 the extra ports are decoupled, so
their phase is conventional and the inert block is returned as plus
identity to match the stated endpoint.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from qwalk.errors import ConfigError
from qwalk.graphs import Graph

__all__ = [
    "grover",
    "dft",
    "hadamard",
    "hadamard_columns_swapped",
    "interp_grover",
    "hadamard_or_grover",
    "Uniform",
    "PresetRow",
    "ExplicitMap",
    "CoinPolicy",
    "parse_policy",
]


def grover(d: int) -> np.ndarray:
    """Grover coin of dimension d: 2/d everywhere, minus one on the diagonal."""
    if d < 1:
        raise ConfigError("grover coin requires d >= 1")
    return (2.0 / d) * np.ones((d, d), dtype=complex) - np.eye(d, dtype=complex)


def dft(d: int) -> np.ndarray:
    """Discrete Fourier coin with kernel exp(-2*pi*i/d), unitary for all d."""
    if d < 1:
        raise ConfigError("dft coin requires d >= 1")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(-2j * np.pi * j * k / d) / math.sqrt(d)


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def hadamard_columns_swapped() -> np.ndarray:
    """Hadamard with its columns exchanged: rows (1, 1) and (-1, 1) over sqrt(2)."""
    return np.array([[1, 1], [-1, 1]], dtype=complex) / math.sqrt(2)


def interp_grover(d: int, t: int, c: float) -> np.ndarray:
    """Interpolating coin between grover(d - t) (+ inert ports) and grover(d).

    The first d - t ports are the ordinary ones, the last t are the
    ports whose edges are being turned on.  Raises if no real branch
    reaches the c = 1 endpoint, which happens when t > d - t.
    """
    if not 1 <= t < d:
        raise ConfigError("interp_grover requires 1 <= t < d")
    if not 0.0 <= c <= 1.0:
        raise ConfigError("interp_grover requires 0 <= c <= 1")
    m = d - t
    if t > m:
        raise ConfigError(
            f"interp_grover has no real branch reaching grover({d}) for t={t} > d-t={m}"
        )
    if c == 0.0:
        out = np.zeros((d, d), dtype=complex)
        out[:m, :m] = grover(m)
        out[m:, m:] = np.eye(t)
        return out
    gamma = 2.0 * c / d
    s = math.sqrt(max(1.0 - m * t * gamma * gamma, 0.0))
    b = (1.0 + s) / m
    a = b - 1.0
    f = (1.0 - s) / t
    e = f - 1.0
    out = np.full((d, d), gamma, dtype=complex)
    out[:m, :m] = b
    out[m:, m:] = f
    idx = np.arange(d)
    out[idx[:m], idx[:m]] = a
    out[idx[m:], idx[m:]] = e
    return out


# ===== Policies =====


def hadamard_or_grover(d: int) -> np.ndarray:
    """Hadamard at degree 2, grover(d) at every other degree (the O3 family)."""
    return hadamard() if d == 2 else grover(d)


@dataclass(frozen=True)
class Uniform:
    """One coin family at every vertex: coin(d) wherever the degree is d.

    Policies O1, O2 and O3 are Uniform(dft), Uniform(grover) and
    Uniform(hadamard_or_grover).
    """

    coin: Callable[[int], np.ndarray]

    def coin_for(self, g: Graph, v: int, d: int) -> np.ndarray:
        return _shared(self.coin, d)


@functools.lru_cache(maxsize=64)
def _shared(coin, d: int) -> np.ndarray:
    """coin(d) built once per (coin, d) and read-only, so that every
    vertex of degree d under a uniform policy shares one block."""
    block = coin(d)
    block.flags.writeable = False
    return block


@dataclass(frozen=True)
class PresetRow:
    """Named coin assignments for the join of two hubs with an edgeless set.

    These presets target graphs of the form Join(Edgeless(2), Edgeless(n)):
    hub vertices 0 and 1 of degree n, plus n degree-2 vertices.

    Row 1: Fourier coin everywhere.
    Row 2: a fixed Haar-random unitary at each hub, grover(2) elsewhere.
    Row 3: Grover at the hubs, Hadamard at the degree-2 vertices.
    Row 4: Fourier coin at the hubs; the first half of the degree-2 vertices
        get the Hadamard, the second half its column-swapped twin (n even).
        Started from an equal superposition at a hub, the walk revisits that
        hub with certainty halfway through its period-8 cycle.
    """

    row: int

    def coin_for(self, g: Graph, v: int, d: int) -> np.ndarray:
        if self.row == 1:
            return dft(d)
        hubs = {0, 1}
        if self.row == 2:
            if v in hubs:
                return _haar_unitary(d, v)
            if d != 2:
                raise ConfigError(f"vertex {v}: preset row 2 expects degree 2, got {d}")
            return grover(2)
        if self.row == 3:
            return grover(d) if v in hubs else hadamard()
        if self.row == 4:
            if v in hubs:
                return dft(d)
            if d != 2:
                raise ConfigError(f"vertex {v}: preset row 4 expects degree 2, got {d}")
            others = [w for w in range(g.n) if w not in hubs]
            if len(others) % 2 != 0:
                raise ConfigError("preset row 4 needs an even number of degree-2 vertices")
            half = len(others) // 2
            return hadamard() if others.index(v) < half else hadamard_columns_swapped()
        raise ConfigError(f"unknown preset row {self.row}")


def _haar_unitary(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@dataclass(frozen=True, eq=False)
class ExplicitMap:
    """Explicit vertex -> unitary assignment; unmapped vertices take grover(d)."""

    coins: dict[int, np.ndarray]

    def coin_for(self, g: Graph, v: int, d: int) -> np.ndarray:
        if v in self.coins:
            return np.asarray(self.coins[v], dtype=complex)
        return _shared(grover, d)


CoinPolicy = Union[Uniform, PresetRow, ExplicitMap]


def parse_policy(text: str) -> CoinPolicy:
    """Parse a policy string: O1, O2, O3, table1:<row>, or inline JSON map."""
    label = text.strip()
    # looked up per call, so that functions rebound by a profiler are used
    uniform = {"O1": dft, "O2": grover, "O3": hadamard_or_grover}
    if label in uniform:
        return Uniform(uniform[label])
    if label.startswith("table1:"):
        try:
            row = int(label.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad preset row in policy {text!r}") from exc
        if row not in (1, 2, 3, 4):
            raise ConfigError(f"preset row must be 1..4, got {row}")
        return PresetRow(row)
    if label.startswith("{"):
        try:
            raw = json.loads(label)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON coin map: {exc}") from exc
        coins = {}
        for key, mat in raw.items():
            try:
                coins[int(key)] = np.asarray(mat, dtype=complex)
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"coin map key {key!r} must be a vertex index holding a matrix of numbers"
                ) from exc
        return ExplicitMap(coins)
    raise ConfigError(f"unknown coin policy {text!r}")

