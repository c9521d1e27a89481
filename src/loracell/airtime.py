"""LoRa time-on-air and the pure-ALOHA closed-form throughput baseline.

The symbol-count formula is the standard LoRa PHY computation: a payload of
PL bytes at spreading factor SF, bandwidth BW and coding-rate index CR
(1 -> 4/5 .. 4 -> 4/8) occupies

    n_payload = 8 + max(ceil((8 PL - 4 SF + 28 + 16 CRC - 20 H)
                             / (4 (SF - 2 DE))) * (CR + 4), 0)

symbols plus a (preamble + 4.25)-symbol preamble, each symbol lasting
2^SF / BW seconds. CRC=1 for uplink, H=0 when the explicit header is sent,
DE=1 when low-data-rate optimization is on (SF11/12 at 125 kHz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import ConfigurationError

#: MAC-layer bytes wrapped around the application payload (MHDR 1, DevAddr 4,
#: FCtrl 1, FCnt 2, FPort 1, MIC 4).
MAC_OVERHEAD_BYTES = 13

VALID_BANDWIDTHS_HZ = (125e3, 250e3, 500e3)


@dataclass(frozen=True)
class AirtimeParams:
    sf: int
    phy_payload_bytes: int
    bandwidth_hz: float = 125e3
    coding_rate_index: int = 1            # 4/5
    preamble_symbols: int = 8
    explicit_header: bool = True
    low_data_rate_optimization: bool | None = None   # None: auto for SF11/12 @ 125 kHz


def _lowdr_auto(sf: int, bandwidth_hz: float) -> bool:
    return sf >= 11 and bandwidth_hz <= 125e3


def time_on_air(params: AirtimeParams) -> float:
    """Packet duration in seconds."""
    if params.sf not in range(7, 13):
        raise ConfigurationError(f"airtime.sf: {params.sf} not in 7..12")
    if params.bandwidth_hz not in VALID_BANDWIDTHS_HZ:
        raise ConfigurationError(
            f"airtime.bandwidth_hz: {params.bandwidth_hz} not one of {VALID_BANDWIDTHS_HZ}"
        )
    if params.phy_payload_bytes < 1:
        raise ConfigurationError("airtime.phy_payload_bytes: must be at least 1")
    if params.coding_rate_index not in (1, 2, 3, 4):
        raise ConfigurationError("airtime.coding_rate_index: must be in 1..4")
    de = params.low_data_rate_optimization
    if de is None:
        de = _lowdr_auto(params.sf, params.bandwidth_hz)
    h = 0 if params.explicit_header else 1
    bits = (8 * params.phy_payload_bytes - 4 * params.sf + 28 + 16 - 20 * h)
    n_payload = 8 + max(
        math.ceil(bits / (4 * (params.sf - 2 * int(de)))) * (params.coding_rate_index + 4),
        0,
    )
    t_symbol = 2.0 ** params.sf / params.bandwidth_hz
    return (params.preamble_symbols + 4.25 + n_payload) * t_symbol


def lora_airtime(sf: int, app_payload_bytes: int = 1, bandwidth_hz: float = 125e3,
                 coding_rate_index: int = 1) -> float:
    """Time on air for an application payload plus LoRaWAN MAC overhead."""
    return time_on_air(AirtimeParams(
        sf=sf,
        phy_payload_bytes=app_payload_bytes + MAC_OVERHEAD_BYTES,
        bandwidth_hz=bandwidth_hz,
        coding_rate_index=coding_rate_index,
    ))


def pure_aloha_throughput(offered_load: float) -> float:
    """S = G exp(-2G), the pure-ALOHA channel utilization at offered load G."""
    if offered_load < 0:
        raise ConfigurationError("offered_load must be non-negative")
    return offered_load * math.exp(-2.0 * offered_load)


def per_node_rate(offered_load: float, node_count: int, mean_toa_s: float) -> float:
    """Packet generation rate (packets/s) per node so that the aggregate
    attempted utilization equals the offered load."""
    if offered_load <= 0 or node_count <= 0 or mean_toa_s <= 0:
        raise ConfigurationError("offered_load, node_count and mean_toa_s must be positive")
    if not (math.isfinite(offered_load) and math.isfinite(mean_toa_s)):
        raise ConfigurationError("offered_load and mean_toa_s must be finite")
    return offered_load / (node_count * mean_toa_s)
