"""Quantum walk simulation toolkit.

Coined discrete-time walks on the arc space of a small undirected graph,
continuous-time walks generated by the adjacency matrix, dephasing noise
for both, and a search harness for cycle variants with perfect or
high-amplitude state transfer.
"""

from qwalk.graphs import (
    Graph,
    Complete,
    Cycle,
    Path,
    Edgeless,
    Join,
    DiamondChain,
    Custom,
    build,
    complement,
    canonical_key,
    graph_to_json,
    graph_from_json,
)
from qwalk.arcs import ArcSpace
from qwalk.coins import (
    grover,
    dft,
    hadamard,
    hadamard_columns_swapped,
    interp_grover,
    CoinPolicy,
    parse_policy,
)
from qwalk.dtqw import (
    StepOperator,
    build_step_operator,
    equal_superposition,
    state_at_vertex,
    vertex_probability,
    haar_states,
    detect_transfer,
    max_transfer_scan,
    TransferReport,
    ScanResult,
)
from qwalk.ctqw import (
    Spectrum,
    evolve_ct,
    detect_transfer_ct,
    analytic_pair_hub_state,
    CtTransferReport,
)
from qwalk.decoherence import (
    NoiseModel,
    decohere_ct,
    classical_transition_matrix,
    classical_walk,
    target_probability_vs_rate,
)
from qwalk.explorer import (
    VariantDescriptor,
    build_variant,
    enumerate_variants,
    pst_search,
    SearchRecord,
    family_initial_state,
    robustness_sweep,
    interpolation_sweep,
)

__version__ = "0.1.0"
