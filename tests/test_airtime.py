import math

import numpy as np
import pytest

from loracell import ConfigurationError, lora_airtime, per_node_rate, pure_aloha_throughput
from loracell.airtime import MAC_OVERHEAD_BYTES

SF_TOAS_PL14 = {7: 0.046336, 8: 0.082432, 9: 0.164864,
                10: 0.288768, 11: 0.659456, 12: 1.155072}


def test_sf7_reference_duration():
    toa = lora_airtime(7, app_payload_bytes=1)       # 14-byte PHY payload
    assert toa == pytest.approx(0.046336, abs=1e-9)
    assert abs(toa * 1000 - 46.3) < 0.1


def test_sf12_duration_with_low_data_rate_opt():
    # hand count: 12.25 preamble symbols + 8 + ceil(108/40)*5 payload symbols
    # at 32.768 ms per symbol
    toa = lora_airtime(12, app_payload_bytes=1)
    assert toa == pytest.approx((12.25 + 8 + 15) * 2**12 / 125e3, abs=1e-12)
    assert toa == pytest.approx(1.155072, abs=1e-9)


@pytest.mark.parametrize("sf,expected", sorted(SF_TOAS_PL14.items()))
def test_per_sf_durations(sf, expected):
    assert lora_airtime(sf, app_payload_bytes=1) == pytest.approx(expected, abs=1e-9)


def test_mean_duration_across_sfs():
    mean = np.mean([lora_airtime(sf) for sf in range(7, 13)])
    assert abs(mean * 1000 - 399.5) < 5.0
    assert mean == pytest.approx(0.399488, abs=1e-9)


def test_one_byte_payload_plus_overhead_is_14():
    assert 1 + MAC_OVERHEAD_BYTES == 14


def test_toa_monotone_in_sf_and_payload():
    durations = [lora_airtime(sf) for sf in range(7, 13)]
    assert all(b > a for a, b in zip(durations, durations[1:]))
    by_payload = [lora_airtime(9, app_payload_bytes=p) for p in (1, 10, 30, 70, 150)]
    assert all(b > a for a, b in zip(by_payload, by_payload[1:]))


def test_invalid_configurations_raise():
    with pytest.raises(ConfigurationError, match="airtime.sf"):
        lora_airtime(6)
    with pytest.raises(ConfigurationError, match="airtime.bandwidth_hz"):
        lora_airtime(7, bandwidth_hz=200e3)
    with pytest.raises(ConfigurationError, match="airtime.app_payload_bytes"):
        lora_airtime(7, app_payload_bytes=0)
    with pytest.raises(ConfigurationError, match="airtime.coding_rate_index"):
        lora_airtime(7, coding_rate_index=5)


def test_pure_aloha_closed_form():
    assert pure_aloha_throughput(0.0) == 0.0
    assert pure_aloha_throughput(0.5) == pytest.approx(1 / (2 * math.e), rel=1e-14)
    assert pure_aloha_throughput(0.5) == pytest.approx(0.18394, abs=1e-4)
    assert pure_aloha_throughput(1.0) == pytest.approx(math.exp(-2), rel=1e-14)


@pytest.mark.parametrize("load", [-0.1, math.nan, math.inf])
def test_pure_aloha_rejects_negative_or_non_finite_load(load):
    with pytest.raises(ConfigurationError, match="offered_load"):
        pure_aloha_throughput(load)


def test_pure_aloha_unique_maximum_at_half():
    g = np.linspace(0.01, 2.0, 400)
    s = np.array([pure_aloha_throughput(float(v)) for v in g])
    assert g[np.argmax(s)] == pytest.approx(0.5, abs=0.01)
    # derivative e^{-2G}(1-2G) changes sign exactly once, at G=0.5
    deriv_sign = np.sign(1.0 - 2.0 * g)
    assert np.all(deriv_sign[g < 0.499] > 0)
    assert np.all(deriv_sign[g > 0.501] < 0)


def test_per_node_rate_reference_values():
    rate = per_node_rate(1.0, 300, 0.0463)
    assert rate == pytest.approx(0.07199, abs=5e-6)
    assert rate * 0.0463 == pytest.approx(1 / 300, rel=1e-12)     # 0.333% << 1%
    rate_n2 = per_node_rate(1.0, 300, 0.3995)
    assert rate_n2 == pytest.approx(0.00834, abs=5e-6)
    assert per_node_rate(0.1, 300, 0.0463) == pytest.approx(rate / 10, rel=1e-12)


def test_per_node_rate_utilization_identity():
    for g, n, toa in ((0.3, 120, 0.05), (1.0, 300, 0.399488), (0.7, 17, 1.2)):
        rate = per_node_rate(g, n, toa)
        assert rate * n * toa == pytest.approx(g, rel=1e-12)


@pytest.mark.parametrize("load,toa", [(math.nan, 0.0463), (math.inf, 0.0463),
                                      (1.0, math.nan), (1.0, math.inf)])
def test_per_node_rate_rejects_non_finite(load, toa):
    with pytest.raises(ConfigurationError, match="finite"):
        per_node_rate(load, 300, toa)


@pytest.mark.parametrize("load, nodes, toa", [(0.0, 300, 0.0463), (1.0, 0, 0.0463),
                                              (1.0, 300, 0.0)])
def test_per_node_rate_rejects_zero_inputs(load, nodes, toa):
    with pytest.raises(ConfigurationError, match="must be positive"):
        per_node_rate(load, nodes, toa)

