"""Arc space of a graph and the flip-flop shift.

A coined walk lives on directed arcs.  Vertex v with degree d owns d
arcs, one per port.  Ports are ordered by ascending neighbor index, and
when v carries a self loop the loop arc sits last.  Arcs are laid out
vertex by vertex, so any per-vertex coin becomes a block-diagonal
matrix in this basis.

The flip-flop shift sends the arc (v -> w) to (w -> v) and leaves loop
arcs fixed, which makes it an involution.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        heads: list[int] = []
        targets: list[int] = []
        offsets = np.zeros(g.n + 1, dtype=int)
        for v in range(g.n):
            offsets[v] = len(heads)
            for w in g.neighbors(v):
                heads.append(v)
                targets.append(w)
            if g.has_loop(v):
                heads.append(v)
                targets.append(v)
        offsets[g.n] = len(heads)
        heads_a = np.asarray(heads, dtype=int)
        targets_a = np.asarray(targets, dtype=int)
        index = {(v, w): a for a, (v, w) in enumerate(zip(heads, targets))}
        reverse = np.asarray([index[(w, v)] for v, w in zip(heads, targets)], dtype=int)
        for arr in (heads_a, targets_a, reverse, offsets):
            arr.flags.writeable = False
        return cls(heads_a, targets_a, offsets, reverse)

    @property
    def n_arcs(self) -> int:
        return len(self.heads)

    def ports(self, v: int) -> range:
        """Arc indices owned by vertex v, in port order."""
        return range(int(self.offsets[v]), int(self.offsets[v + 1]))

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def vertex_slice(self, v: int) -> slice:
        return slice(int(self.offsets[v]), int(self.offsets[v + 1]))

