"""Bank leverage-dependence networks.

Builds Pearson-correlation networks over banks' leverage ratio series,
decomposes them into clusters across thresholds, and simulates a corporate
plus interbank lending system whose balance-sheet panel feeds the same
pipeline.
"""

from .balance_sheet import (
    CensusReport,
    DegenerateEquityError,
    DomainError,
    EmptyPanelWarning,
    Panel,
    census,
    central_leverage,
    filter_complete,
)
from .growth import (
    GrowthRecord,
    NoDefinedPairsError,
    ReplicationStudy,
    RunRecord,
    ZeroInitialLeverageError,
    growth_records,
    most_correlated_pair,
    replication_study,
    run_record,
)
from .network import (
    ClusterCurve,
    ComponentPartition,
    CorrelationMatrix,
    InsufficientPairsError,
    LeverageNetwork,
    LinkMode,
    cluster_curve,
    components,
    leverage_correlation,
    pearson,
    threshold_network,
    top_m_network,
)
from .sim import (
    EVENT_KINDS,
    ConfigError,
    EventLog,
    LinkLog,
    SimConfig,
    SimOutput,
    run,
)

__version__ = "0.1.0"
