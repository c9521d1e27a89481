"""LoRa time-on-air and the pure-ALOHA closed-form throughput baseline.

Every uplink here has LoRaWAN's fixed framing: explicit header, CRC, an
8-symbol preamble, and low-data-rate optimization (DE=1) on SF11/12 at
125 kHz. A PHY payload of PL bytes at spreading factor SF, bandwidth BW and
coding-rate index CR (1 -> 4/5 .. 4 -> 4/8) then occupies the standard LoRa
PHY symbol count

    n_payload = 8 + max(ceil((8 PL - 4 SF + 28 + 16) / (4 (SF - 2 DE))) * (CR + 4), 0)

plus an (8 + 4.25)-symbol preamble, each symbol lasting 2^SF / BW seconds.
"""

from __future__ import annotations

import math

from .scenario import ConfigurationError

#: MAC-layer bytes wrapped around the application payload (MHDR 1, DevAddr 4,
#: FCtrl 1, FCnt 2, FPort 1, MIC 4).
MAC_OVERHEAD_BYTES = 13

VALID_BANDWIDTHS_HZ = (125e3, 250e3, 500e3)


def lora_airtime(sf: int, app_payload_bytes: int = 1, bandwidth_hz: float = 125e3,
                 coding_rate_index: int = 1) -> float:
    """Time on air in seconds for an application payload plus LoRaWAN MAC overhead."""
    if sf not in range(7, 13):
        raise ConfigurationError(f"airtime.sf: {sf} not in 7..12")
    if bandwidth_hz not in VALID_BANDWIDTHS_HZ:
        raise ConfigurationError(
            f"airtime.bandwidth_hz: {bandwidth_hz} not one of {VALID_BANDWIDTHS_HZ}"
        )
    if app_payload_bytes < 1:
        raise ConfigurationError("airtime.app_payload_bytes: must be at least 1")
    if coding_rate_index not in (1, 2, 3, 4):
        raise ConfigurationError("airtime.coding_rate_index: must be in 1..4")
    de = sf >= 11 and bandwidth_hz == 125e3
    bits = 8 * (app_payload_bytes + MAC_OVERHEAD_BYTES) - 4 * sf + 28 + 16
    n_payload = 8 + max(math.ceil(bits / (4 * (sf - 2 * de))) * (coding_rate_index + 4), 0)
    t_symbol = 2.0 ** sf / bandwidth_hz
    return (8 + 4.25 + n_payload) * t_symbol


def pure_aloha_throughput(offered_load: float) -> float:
    """S = G exp(-2G), the pure-ALOHA channel utilization at offered load G."""
    if not 0 <= offered_load < math.inf:
        raise ConfigurationError("offered_load must be finite and non-negative")
    return offered_load * math.exp(-2.0 * offered_load)


def per_node_rate(offered_load: float, node_count: int, mean_toa_s: float) -> float:
    """Packet generation rate (packets/s) per node so that the aggregate
    attempted utilization equals the offered load."""
    if offered_load <= 0 or node_count <= 0 or mean_toa_s <= 0:
        raise ConfigurationError("offered_load, node_count and mean_toa_s must be positive")
    if not (math.isfinite(offered_load) and math.isfinite(mean_toa_s)):
        raise ConfigurationError("offered_load and mean_toa_s must be finite")
    return offered_load / (node_count * mean_toa_s)
