"""Single-gateway LoRaWAN capacity toolkit.

Closed-form ring-based coverage probabilities, a Monte Carlo estimator that
cross-validates them, LoRa time-on-air and ALOHA baselines, and an
event-driven cell simulator with three collision models and capture effect.
"""

from .airtime import lora_airtime, per_node_rate, pure_aloha_throughput
from .coverage import (
    CoverageBreakdown,
    CoverageSweep,
    TypicalNode,
    coverage_probability,
    coverage_sweep,
    noise_power_dbm,
    path_gain,
    typical_at,
)
from .hypergeom import UnsupportedDomainError, hyp2f1, hyp2f1_oracle
from .montecarlo import MCEstimate, estimate_coverage, estimate_sir_ring
from .scenario import (
    ConfigurationError,
    NodePlacement,
    RadioConfig,
    RingTopology,
    Scenario,
    ThresholdSet,
    default_scenario,
    equal_area_rings,
    load_scenario,
    load_thresholds,
    sample_placement,
    validate,
)
from .simulator import (
    Calendar,
    PacketEvent,
    ReplicationResult,
    SimOutcome,
    draw_calendar,
    hata_rural_loss,
    multichannel_projection,
    resolve_reception,
    run_replication,
    sensitivity_dbm,
    sweep,
    sweep_models,
)

__version__ = "0.1.0"
