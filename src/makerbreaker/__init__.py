"""Maker-Breaker odd-cycle games: engine, strategies, decompositions, solver."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph,
    OddCycleWitness,
    cut_edges,
    find_odd_cycle,
    format_graph,
    induced_subgraph,
    min_degree,
    parse_graph,
    verify_odd_cycle,
)
from .coloring import chromatic_number, is_k_colorable, k_coloring  # noqa: F401
from .connectivity import (  # noqa: F401
    edge_connectivity,
    mader_subgraph,
    unfriendly_partition,
    vertex_connectivity,
)
from .decompose import (  # noqa: F401
    BipartiteCore,
    Partition,
    RobustPartition,
    extract_bipartite_core,
    extract_chromatic_core,
    highly_connected_partition,
    robust_partition,
)
from .engine import (  # noqa: F401
    BREAKER,
    EDGES,
    MAKER,
    VERTICES,
    GameResult,
    GameSpec,
    Position,
    Strategy,
    WinPredicate,
    apply_moves,
    format_transcript,
    legal_moves,
    play,
    replay_transcript,
)
from .solver import solve, solve_reference, verify_maker_strategy  # noqa: F401
from .strategies import (  # noqa: F401
    BoundReport,
    ConnectedEdgeMaker,
    ConnectivityMaker,
    DenseEdgeMaker,
    DenseVertexMaker,
    bound_report,
)
from .errors import (  # noqa: F401
    DomainError,
    IllegalMoveError,
    PreconditionError,
    ResourceLimitError,
)
