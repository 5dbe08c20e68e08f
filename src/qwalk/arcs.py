"""Arc space of a graph: port order, the arc layout and the sum over ports.

A coined walk lives on directed arcs.  Vertex v with degree d owns d
arcs, one per port.  Ports are ordered by ascending neighbor index, and
when v carries a self loop the loop arc sits last.  This module alone
holds that rule, as one sort in ``_build``; a ``Graph`` keeps no
neighbour order, and every other module asks the arc space which port
points where (``targets`` over ``ports(v)``) or which port an arc is
(``port_index``).  Arcs are laid out vertex by vertex, so any per-vertex
coin becomes a block-diagonal matrix in this basis, and ``port_sum`` is
the one sum of arc values over each vertex's ports.

The flip-flop shift sends the arc (v -> w) to (w -> v) and leaves loop
arcs fixed, which makes it an involution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from qwalk.graphs import Graph

__all__ = ["ArcSpace"]


@dataclass(frozen=True)
class ArcSpace:
    heads: np.ndarray        # arc index -> vertex the arc leaves
    targets: np.ndarray      # arc index -> vertex the arc points at
    offsets: np.ndarray      # vertex -> index of its first arc
    reverse: np.ndarray      # arc index -> arc index under flip-flop

    @classmethod
    def from_graph(cls, g: Graph) -> "ArcSpace":
        """The arc space of g, built on the first call and kept on g,
        which is immutable; later calls return the same object."""
        space = vars(g).get("_arc_space")
        if space is None:
            space = vars(g)["_arc_space"] = cls._build(g)
        return space

    @classmethod
    def _build(cls, g: Graph) -> "ArcSpace":
        n = g.n
        heads, targets = np.nonzero(g.adjacency)  # row by row, so head * n + target ascends
        key = heads * n + targets
        # the port rule: by head, neighbours in ascending order, the loop last
        order = np.lexsort((heads == targets, heads))
        heads, targets = heads[order], targets[order]
        offsets = np.searchsorted(heads, np.arange(n + 1))
        rank = np.empty_like(order)  # arc in row order -> its index in port order
        rank[order] = np.arange(len(order))
        reverse = rank[np.searchsorted(key, targets * n + heads)]
        for arr in (heads, targets, reverse, offsets):
            arr.flags.writeable = False
        return cls(heads, targets, offsets, reverse)

    @property
    def n_arcs(self) -> int:
        return len(self.heads)

    @cached_property
    def port_index(self) -> np.ndarray:
        """Arc index -> its port number at its head, read-only."""
        index = np.arange(self.n_arcs) - self.offsets[self.heads]
        index.flags.writeable = False
        return index

    def ports(self, v: int) -> range:
        """Arc indices owned by vertex v, in port order."""
        return range(int(self.offsets[v]), int(self.offsets[v + 1]))

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def vertex_slice(self, v: int) -> slice:
        return slice(int(self.offsets[v]), int(self.offsets[v + 1]))

    def port_sum(self, values: np.ndarray) -> np.ndarray:
        """(..., n_arcs) real values -> (..., n) sums over each vertex's
        ports, added one by one in arc order from 0.0: each row gets the
        bits of ``np.bincount(heads, weights=row)``, and a vertex without
        ports reads 0."""
        values = np.asarray(values)
        n = len(self.offsets) - 1
        lead = values.shape[:-1]
        rows = math.prod(lead)
        bins = (np.arange(rows)[:, None] * n + self.heads).ravel()
        return np.bincount(bins, weights=values.ravel(), minlength=rows * n).reshape(lead + (n,))

