"""Deterministic simulator of message dissemination under the flood and
squelch relay policies on XRPL-style peer networks, with the linear capacity
models used to extrapolate CPU savings and freed peer slots."""

__version__ = "0.1.0"

from .engine import (
    Disconnect,
    RelayPolicy,
    ScenarioConfig,
    ScenarioSetupError,
    TxBurst,
    run_scenario,
)
from .messages import MessageKind
from .metrics import (
    MetricsLog,
    RunSummary,
    SavingsReport,
    export_csv,
    import_csv,
    savings,
    summarize,
)
from .regression import (
    GainReport,
    LinearModel,
    compute_gain,
    fit_linear,
    invert,
    predict,
)
from .squelch import ControlMessage, ProtocolConfig, Slot
from .topology import (
    GraphStats,
    TopologyGraph,
    generate_topology,
    graph_stats,
    load_topology,
)

__all__ = [
    "__version__",
    "ControlMessage",
    "Disconnect",
    "GainReport",
    "GraphStats",
    "LinearModel",
    "MessageKind",
    "MetricsLog",
    "ProtocolConfig",
    "RelayPolicy",
    "RunSummary",
    "SavingsReport",
    "ScenarioConfig",
    "ScenarioSetupError",
    "Slot",
    "TopologyGraph",
    "TxBurst",
    "compute_gain",
    "export_csv",
    "fit_linear",
    "generate_topology",
    "graph_stats",
    "import_csv",
    "invert",
    "load_topology",
    "predict",
    "run_scenario",
    "savings",
    "summarize",
]
