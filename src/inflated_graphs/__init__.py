"""Graph-state measurement scenarios that defeat communication-assisted
classical models, with exact verification of every claim."""

from .graph import (
    Graph,
    InflatedGraph,
    build_graph,
    ball,
    edge_key,
    graph_from_json,
    graph_to_json,
    inflate,
    to_dot,
)
from .pauli import (
    expectation,
    multiply,
    subset_to_pauli,
)
from .paradox import (
    MeasurementPair,
    MeasurementSet,
    ParadoxCertificate,
    load_measurement_set,
    save_measurement_set,
    set_from_json,
    set_to_json,
    verify_paradox,
)
from .inflate import (
    BuildResult,
    DecoySpec,
    build_inflated_set,
    find_base_set,
)
from .lhv import (
    BarrettModel,
    BellReport,
    BinaryGame,
    FlipRule,
    StrategySystem,
    bell_report,
    binary_game_bound,
    build_system,
    chsh_game,
    feasible,
    game_bound,
    load_flip_rules,
    min_violations,
    search_flip_rules,
    verify_small_graphs,
)
from .statevector import (
    StateVector,
    chsh_operator,
    expect,
    graph_state,
    pauli_expectation,
)

# Importing the .inflate submodule above rebinds the package attribute
# "inflate" to the module object; restore the construction function.
from .graph import inflate  # noqa: E402,F811

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "InflatedGraph",
    "build_graph",
    "ball",
    "edge_key",
    "graph_from_json",
    "graph_to_json",
    "inflate",
    "to_dot",
    "expectation",
    "multiply",
    "subset_to_pauli",
    "MeasurementPair",
    "MeasurementSet",
    "ParadoxCertificate",
    "load_measurement_set",
    "save_measurement_set",
    "set_from_json",
    "set_to_json",
    "verify_paradox",
    "BuildResult",
    "DecoySpec",
    "build_inflated_set",
    "find_base_set",
    "BarrettModel",
    "BellReport",
    "BinaryGame",
    "FlipRule",
    "StrategySystem",
    "bell_report",
    "binary_game_bound",
    "build_system",
    "chsh_game",
    "feasible",
    "game_bound",
    "load_flip_rules",
    "min_violations",
    "search_flip_rules",
    "verify_small_graphs",
    "StateVector",
    "chsh_operator",
    "expect",
    "graph_state",
    "pauli_expectation",
]
