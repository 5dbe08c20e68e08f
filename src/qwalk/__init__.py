"""Quantum walk simulation toolkit.

Coined discrete-time walks on the arc space of a small undirected graph,
continuous-time walks generated by the adjacency matrix, dephasing noise
for both, and a search harness for cycle variants with perfect or
high-amplitude state transfer.

Every name is imported from its module, for example
``from qwalk.graphs import Cycle, build``; importing the package alone
loads none of them.
"""

__version__ = "0.1.0"
