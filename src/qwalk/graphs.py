"""Undirected graphs with optional edge weights and self loops.

A graph is stored as a symmetric non-negative adjacency matrix.  A self
loop is a single unit on the diagonal and contributes one to the degree
of its vertex.  Vertex indices are dense integers starting at zero, and
every construction helper documents where its pieces land so that walk
sources and targets can be addressed deterministically.

The join of two graphs keeps the left operand's vertices first, so for
example ``build(Join(Edgeless(2), Cycle(5)))`` places the two hub
vertices at indices 0 and 1 and the cycle at indices 2..6.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from qwalk.errors import TABLE_LIMIT, ConfigError

__all__ = [
    "Graph",
    "Complete",
    "Cycle",
    "Path",
    "Edgeless",
    "Join",
    "DiamondChain",
    "JOIN_FAMILIES",
    "build",
    "complement",
    "canonical_key",
    "graph_to_json",
    "graph_from_json",
]


# ===== Core container =====


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph backed by an adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ConfigError("adjacency must be a square matrix")
        if adj.shape[0] == 0:
            raise ConfigError("graph needs at least one vertex")
        if not np.array_equal(adj, adj.T):
            raise ConfigError("adjacency must be symmetric")
        if np.any(adj < 0):
            raise ConfigError("edge weights must be non-negative")
        if not np.all(np.isfinite(adj)):
            raise ConfigError("edge weights must be finite")
        adj = adj.copy()
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def _neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        rows, cols = np.nonzero(self.adjacency)
        out: list[list[int]] = [[] for _ in range(self.n)]
        for v, w in zip(rows.tolist(), cols.tolist()):
            if v != w:
                out[v].append(w)
        return tuple(map(tuple, out))

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v in ascending index order, excluding v itself."""
        return list(self._neighbor_lists[v])

    def has_loop(self, v: int) -> bool:
        return self.adjacency[v, v] != 0

    def degree(self, v: int) -> int:
        """Number of incident edge ends at v; a self loop counts once."""
        return len(self.neighbors(v)) + (1 if self.has_loop(v) else 0)

    def is_unweighted(self) -> bool:
        adj = self.adjacency
        return bool(np.all((adj == 0) | (adj == 1)))

    def edge_set(self) -> set[tuple[int, int]]:
        """Off-diagonal edges as (i, j) pairs with i < j."""
        out = set()
        rows, cols = np.nonzero(self.adjacency)
        for i, j in zip(rows, cols):
            if i < j:
                out.add((int(i), int(j)))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash(self.adjacency.tobytes())


# ===== Graph families =====


@dataclass(frozen=True)
class Complete:
    n: int


@dataclass(frozen=True)
class Cycle:
    n: int


@dataclass(frozen=True)
class Path:
    n: int


@dataclass(frozen=True)
class Edgeless:
    """n vertices, no edges (the complement of the complete graph)."""

    n: int


@dataclass(frozen=True)
class Join:
    """Join of two graphs: every left vertex joined to every right vertex.

    Left vertices come first in the result.
    """

    left: "FamilySpec"
    right: "FamilySpec"


@dataclass(frozen=True)
class DiamondChain:
    """Chain of n four-cycles glued at opposite corners.

    Vertices are ordered corner-first along the chain: corner 0, the two
    middle vertices of diamond 0, corner 1, the two middles of diamond 1,
    and so on, ending at corner n (index 3n).  The chain ends are the
    natural transfer pair.  With ``loop_ends`` a single self loop is added
    at each end vertex, raising its degree from 2 to 3.
    """

    n: int
    loop_ends: bool = False


FamilySpec = Union[Complete, Cycle, Path, Edgeless, Join, DiamondChain]

# The right operand X of each hub-pair join K2 + X, by its spec-string name
JOIN_FAMILIES = {"k2c": Cycle, "k2k": Edgeless, "k2p": Path}


_MAX_VERTICES = math.isqrt(TABLE_LIMIT)  # 4096: a 128 MiB dense float adjacency


def _zeros(n: int) -> np.ndarray:
    """Zero n x n adjacency, refused before allocation above _MAX_VERTICES."""
    if n > _MAX_VERTICES:
        raise ConfigError(
            f"graph of {n} vertices exceeds the limit of {_MAX_VERTICES} (128 MiB adjacency)"
        )
    return np.zeros((n, n))


def build(spec: FamilySpec) -> Graph:
    """Construct the graph a family dataclass describes."""
    if isinstance(spec, Complete):
        if spec.n < 1:
            raise ConfigError("complete graph requires n ≥ 1")
        adj = _zeros(spec.n) + 1.0
        np.fill_diagonal(adj, 0.0)
        return Graph(adj)
    if isinstance(spec, Cycle):
        if spec.n < 3:
            raise ConfigError("cycle requires n ≥ 3")
        adj = _zeros(spec.n)
        for v in range(spec.n):
            adj[v, (v + 1) % spec.n] = 1
            adj[(v + 1) % spec.n, v] = 1
        return Graph(adj)
    if isinstance(spec, Path):
        if spec.n < 2:
            raise ConfigError("path requires n ≥ 2")
        adj = _zeros(spec.n)
        for v in range(spec.n - 1):
            adj[v, v + 1] = 1
            adj[v + 1, v] = 1
        return Graph(adj)
    if isinstance(spec, Edgeless):
        if spec.n < 1:
            raise ConfigError("edgeless graph requires n ≥ 1")
        return Graph(_zeros(spec.n))
    if isinstance(spec, Join):
        return _join(build(spec.left), build(spec.right))
    if isinstance(spec, DiamondChain):
        return _diamond_chain(spec.n, spec.loop_ends)
    raise ConfigError(f"unknown family spec: {spec!r}")


def _join(g: Graph, h: Graph) -> Graph:
    ng, nh = g.n, h.n
    adj = _zeros(ng + nh)
    adj[:ng, :ng] = g.adjacency
    adj[ng:, ng:] = h.adjacency
    adj[:ng, ng:] = 1.0
    adj[ng:, :ng] = 1.0
    return Graph(adj)


def _diamond_chain(n: int, loop_ends: bool) -> Graph:
    if n < 1:
        raise ConfigError("diamond chain requires n ≥ 1")
    size = 3 * n + 1
    adj = _zeros(size)
    for i in range(n):
        left = 3 * i
        top, bottom = 3 * i + 1, 3 * i + 2
        right = 3 * i + 3
        for mid in (top, bottom):
            adj[left, mid] = adj[mid, left] = 1
            adj[right, mid] = adj[mid, right] = 1
    if loop_ends:
        adj[0, 0] = 1
        adj[size - 1, size - 1] = 1
    return Graph(adj)


def complement(g: Graph) -> Graph:
    """Complement of an unweighted, loop-free graph."""
    if not g.is_unweighted():
        raise ConfigError("complement is defined for unweighted graphs only")
    if any(g.has_loop(v) for v in range(g.n)):
        raise ConfigError("complement is defined for loop-free graphs only")
    adj = 1.0 - g.adjacency - np.eye(g.n)
    return Graph(adj)


# ===== Canonical keys =====


def _refine_colors(
    nbrs: list[list[int]], loops: list[int], colors: list[int]
) -> list[int]:
    """Stabilize a vertex coloring under neighborhood signatures.

    Classic 1-dimensional refinement: a vertex's new color is its old
    color and loop bit together with the sorted multiset of neighbor
    colors, renamed to dense integers in a vertex-order-independent way.
    A coloring with n colors is stable, so it is returned at once.
    """
    n = len(nbrs)
    while True:
        signatures = [
            (c, loop, tuple(sorted(map(colors.__getitem__, ws))))
            for c, loop, ws in zip(colors, loops, nbrs)
        ]
        ranked = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        new_colors = list(map(ranked.__getitem__, signatures))
        if new_colors == colors or len(ranked) == n:
            return new_colors
        colors = new_colors


def _color_classes(colors: list[int]) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_key(g: Graph, marks: Sequence[int] = ()) -> bytes:
    """Relabeling-invariant key for an unweighted graph.

    ``marks`` singles out a set of vertices (for instance a transfer
    pair); two marked graphs get equal keys exactly when some
    isomorphism maps marks onto marks.  The key is ``bytes([n])``
    followed by the upper triangle (diagonal included) of the relabeled
    adjacency, read row by row, minimized over every vertex order that
    lists the classes of a structure-refined coloring in color order.

    The minimum is found row by row rather than by listing orders.  Row
    k holds the loop bit of the vertex at position k and its adjacency
    to the later positions, so once the vertex is chosen, splitting
    every later cell into its non-neighbors followed by its neighbors
    fixes row k whatever order the cells later take, and keeps it the
    smallest possible.  The search therefore places, at each depth, a
    vertex of the first cell whose row is smallest, branches only on
    ties, and cuts a branch as soon as its rows exceed the best key's.
    A leaf that ties the best key yields an automorphism (the map
    between the two orders); the search then returns to the depth where
    the two orders diverged, and skips any tied candidate in the orbit
    of an explored sibling under the automorphisms found so far that fix
    the current prefix pointwise, because its subtree is an image of
    one already searched (McKay & Piperno, "Practical graph isomorphism,
    II", J. Symb. Comput. 60, 2014).

    The search keeps the best order's rows as integers, row k holding
    n - k bits with the first bit leftmost, so the key's triangle is
    those rows written out in binary, one byte per bit.  The adjacency
    is read once, as nested lists; no array is built after that.
    """
    rows = g.adjacency.tolist()
    if not set().union(*rows) <= {0.0, 1.0}:
        raise ConfigError("canonical_key supports unweighted graphs only")
    n = g.n
    if n > 255:
        raise ConfigError(
            f"canonical_key supports at most 255 vertices (the key stores n in one byte), got {n}"
        )
    mark_set = set(marks)
    if any(not 0 <= v < n for v in mark_set):
        raise ConfigError("mark vertex out of range")
    nbrs = [[w for w, edge in enumerate(row) if edge and w != v] for v, row in enumerate(rows)]
    loops = [int(row[v]) for v, row in enumerate(rows)]
    colors = _refine_colors(nbrs, loops, [1 if v in mark_set else 0 for v in range(n)])
    search = _OrderSearch(nbrs, loops)
    search.minimum(_color_classes(colors))
    bits = "".join([format(row, f"0{n - k}b") for k, row in enumerate(search.best_rows)])
    return bytes([n]) + bits.encode().translate(_BIT_BYTES)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # a binary digit to its bit value


class _OrderSearch:
    """Depth-first search for the vertex order with the smallest key.

    Cells are vertex bitmasks, and a node is the ordered list of cells
    covering the positions not yet filled.  Rows are integers whose bits
    read in key order, so rows of one depth compare as integers.
    """

    def __init__(self, nbrs: list[list[int]], loops: list[int]) -> None:
        self.nbrs = [sum(1 << w for w in ws) for ws in nbrs]  # neighbor masks
        self.loops = loops
        self.best: list[int] | None = None  # order of the best leaf so far
        self.best_rows: list[int] = []
        self.autos: list[tuple[list[int], int]] = []  # (map, mask of its fixed points)

    def minimum(self, classes: list[list[int]]) -> list[int]:
        self._node([sum(1 << v for v in cls) for cls in classes], [], [], 0, False)
        assert self.best is not None
        return self.best

    def _node(
        self, cells: list[int], prefix: list[int], rows: list[int], fixed: int, equal: bool
    ) -> int | None:
        """Search below ``prefix``; return a depth to jump back to, or None.

        ``fixed`` is the mask of the prefix vertices and ``equal`` says
        the prefix's rows equal the best key's.  A returned depth d means
        the rest of the subtree below the first d + 1 positions is an
        image of one already searched.  A singleton first cell offers
        one candidate, so such cells are placed in a loop, and only a
        leaf or a cell with a choice ends it.
        """
        top = len(prefix)
        back = None
        while cells and not cells[0] & (cells[0] - 1):
            first = cells[0]
            v = first.bit_length() - 1
            nbr = self.nbrs[v]
            row = self.loops[v]
            for cell in cells[1:]:
                row = (row << cell.bit_count()) | ((1 << (nbr & cell).bit_count()) - 1)
            if equal:
                if row > self.best_rows[len(rows)]:
                    break
                equal = row == self.best_rows[len(rows)]
            rows.append(row)
            prefix.append(v)
            fixed |= first
            cells = [part for cell in cells[1:] for part in (cell & ~nbr, cell & nbr) if part]
        else:
            if cells:
                back = self._branch(cells, prefix, rows, fixed, equal)
            else:
                back = self._leaf(prefix, rows, equal)
        del prefix[top:], rows[top:]
        return back if back is not None and back < top else None

    def _branch(
        self, cells: list[int], prefix: list[int], rows: list[int], fixed: int, equal: bool
    ) -> int | None:
        """``_node`` at a first cell of two or more candidates."""
        depth = len(prefix)
        sizes = [cell.bit_count() for cell in cells]
        sizes[0] -= 1  # the candidate leaves the first cell
        scored = []
        for v in _members(cells[0]):
            nbr = self.nbrs[v]
            row = self.loops[v]
            for cell, size in zip(cells, sizes):
                row = (row << size) | ((1 << (nbr & cell).bit_count()) - 1)
            scored.append((row, v))
        low = min(scored)[0]
        if equal:
            if low > self.best_rows[depth]:
                return None
            equal = low == self.best_rows[depth]
        rows.append(low)
        explored: list[int] = []
        reached = 0  # the explored candidates' orbits under the stored automorphisms
        autos_seen = 0
        for row, v in scored:
            if row != low:
                continue
            if explored:
                if autos_seen != len(self.autos):
                    autos_seen = len(self.autos)
                    reached = self._orbit(explored, fixed)
                if reached >> v & 1:
                    continue
            explored.append(v)
            reached |= 1 << v
            nbr = self.nbrs[v]
            split = []
            for cell in [cells[0] & ~(1 << v)] + cells[1:]:
                for part in (cell & ~nbr, cell & nbr):
                    if part:
                        split.append(part)
            best = self.best
            prefix.append(v)
            back = self._node(split, prefix, rows, fixed | 1 << v, equal)
            prefix.pop()
            if self.best is not best:
                equal = True  # the new best lies below this node
            if back is not None and back < depth:
                break
        else:
            back = None
        rows.pop()
        return back

    def _leaf(self, order: list[int], rows: list[int], equal: bool) -> int | None:
        if not equal:
            self.best, self.best_rows = list(order), list(rows)
            return None
        auto = list(range(len(order)))
        fixed = 0
        for a, b in zip(self.best, order):
            auto[a] = b
            if a == b:
                fixed |= 1 << a
        self.autos.append((auto, fixed))
        return next(i for i, (a, b) in enumerate(zip(self.best, order)) if a != b)

    def _orbit(self, seeds: list[int], fixed: int) -> int:
        """Mask of the orbits of ``seeds`` under the automorphisms fixing ``fixed``."""
        gens = [auto for auto, keeps in self.autos if keeps & fixed == fixed]
        reached = sum(1 << v for v in seeds)
        stack = list(seeds)
        while stack:
            v = stack.pop()
            for auto in gens:
                w = auto[v]
                if not reached >> w & 1:
                    reached |= 1 << w
                    stack.append(w)
        return reached


def _members(mask: int) -> list[int]:
    """Set bits of ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ===== Serialization =====


def graph_to_json(g: Graph) -> str:
    """Serialize to the {"n", "edges", "loops"} JSON schema."""
    edges = [[i, j, float(g.adjacency[i, j])] for i, j in sorted(g.edge_set())]
    loops = [int(v) for v in range(g.n) if g.has_loop(v)]
    return json.dumps({"n": g.n, "edges": edges, "loops": loops})


def graph_from_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("graph JSON must be an object")
    for key in ("n", "edges", "loops"):
        if key not in data:
            raise ConfigError(f"graph JSON missing field {key!r}")
    n, edges, loops = data["n"], data["edges"], data["loops"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError("graph JSON field 'n' must be a positive integer")

    def vertex(v: object) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n

    if not isinstance(edges, list):
        raise ConfigError(f"graph JSON field 'edges' must be a list, got {edges!r}")
    if not isinstance(loops, list):
        raise ConfigError(f"graph JSON field 'loops' must be a list, got {loops!r}")
    adj = _zeros(n)
    for entry in edges:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ConfigError(f"graph JSON field 'edges': entry must be [i, j, weight]: {entry!r}")
        i, j, w = entry
        if not (vertex(i) and vertex(j)) or i == j:
            raise ConfigError(
                f"graph JSON field 'edges': endpoints out of range 0..{n - 1}, "
                f"equal or not integers: {entry!r}"
            )
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise ConfigError(f"graph JSON field 'edges': weight must be a number: {entry!r}")
        adj[i, j] = adj[j, i] = float(w)
    for v in loops:
        if not vertex(v):
            raise ConfigError(f"graph JSON field 'loops': {v!r} is no vertex in 0..{n - 1}")
        adj[v, v] = 1.0
    return Graph(adj)
