"""Output pins: exact values of outputs at fixed seeds, compared across commits.

Unlike the determinism tests, which compare two runs of one commit, these
fail when a change moves an output by one ulp. A deliberate output change
regenerates the affected pins, and CHANGES.md says which ones and why. The
pins were made with the library versions in `PINNED_WITH`; a mismatch on
another numpy or scipy reads as a stack difference to report, not as a fault.
"""

import hashlib

import numpy as np
import pytest
import scipy

from loracell import (
    MCEstimate,
    default_scenario,
    estimate_coverage,
    estimate_sir_ring,
    typical_at,
)
from loracell.cli import EXIT_OK, main

PINNED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}
STACK = f"pinned with {PINNED_WITH}, running numpy {np.__version__}, scipy {scipy.__version__}"

COV = default_scenario("coverage_eu868")
TRIALS = 20_000
SEED = 611


def est(mean, standard_error):
    return MCEstimate(mean, standard_error, TRIALS)


# (node count, distance in m, shared_fading) -> (H1, Q1, C1)
MC_COVERAGE = {
    (250, 300.0, False): (
        est(0.9974818412800541, 0.0),
        est(0.8881052648073368, 0.0015234500530830455),
        est(0.8858688747905323, 0.0015196137640474724),
    ),
    (250, 300.0, True): (
        est(0.9974818412800541, 0.0),
        est(0.8888384904014338, 0.0017006927517391498),
        est(0.8872970445544117, 0.0016956732018878111),
    ),
    (250, 1500.0, False): (
        est(0.8997551511544079, 0.0),
        est(0.6929864583227012, 0.00277993813871917),
        est(0.6235181355560998, 0.00250126366020317),
    ),
    (250, 1500.0, True): (
        est(0.8997551511544079, 0.0),
        est(0.6954264136394027, 0.002957245753731712),
        est(0.6384780686283488, 0.0026744226646996387),
    ),
    (250, 2900.0, False): (
        est(0.9498785736429707, 0.0),
        est(0.7018763213036914, 0.002801377086538526),
        est(0.6666972789537258, 0.002660968071197316),
    ),
    (250, 2900.0, True): (
        est(0.9498785736429707, 0.0),
        est(0.7017099743188744, 0.002984439119929707),
        est(0.6726280961217552, 0.002841457905059052),
    ),
    (2500, 300.0, False): (
        est(0.9974818412800541, 0.0),
        est(0.3137271308445724, 0.0019024713666754669),
        est(0.31293711613435254, 0.0018976806418140257),
    ),
    (2500, 300.0, True): (
        est(0.9974818412800541, 0.0),
        est(0.3155332933718104, 0.0022085211196756958),
        est(0.31551290593747106, 0.002208205952144302),
    ),
    (2500, 1500.0, False): (
        est(0.8997551511544079, 0.0),
        est(0.025402862879254893, 0.0006927536496121182),
        est(0.022856356729678683, 0.0006233086647195191),
    ),
    (2500, 1500.0, True): (
        est(0.8997551511544079, 0.0),
        est(0.029908497348920406, 0.0009080750227148339),
        est(0.029550392214506564, 0.0008901167023799413),
    ),
    (2500, 2900.0, False): (
        est(0.9498785736429707, 0.0),
        est(0.030358018296080955, 0.0008170370661659549),
        est(0.028836431117708585, 0.0007760860030231547),
    ),
    (2500, 2900.0, True): (
        est(0.9498785736429707, 0.0),
        est(0.0329001308633602, 0.0009993971486468947),
        est(0.03268458987824287, 0.000989273532121945),
    ),
}
# N=2500, 1500 m, the typical node's own ring
MC_SIR_RING = est(0.03570838952403376, 0.0009380209491677817)
# `loracell mc --distances 300,1500,2900 --trials 20000` on coverage_eu868.ini
MC_CSV_SHA256 = {
    False: "48cf8f300ce1f89e906f945fc45d23e7226bc67ddc5c39a1188af1692d65e329",
    True: "ea1ea828fa68c0111ee6d8f25e4718af042c7d364f13cc75ff646be849259eab",
}


@pytest.mark.parametrize("count, distance, shared_fading", sorted(MC_COVERAGE))
def test_monte_carlo_coverage_pinned(count, distance, shared_fading):
    scn = COV.with_node_count(count)
    got = estimate_coverage(typical_at(scn.topology, distance), scn, TRIALS, SEED,
                            shared_fading=shared_fading)
    assert repr(got) == repr(MC_COVERAGE[count, distance, shared_fading]), STACK


def test_monte_carlo_sir_ring_pinned():
    scn = COV.with_node_count(2500)
    typical = typical_at(scn.topology, 1500.0)
    got = estimate_sir_ring(typical, typical.sf, scn, TRIALS, SEED)
    assert repr(got) == repr(MC_SIR_RING), STACK


@pytest.mark.parametrize("shared_fading", [False, True])
def test_mc_csv_pinned(shared_fading, tmp_path, capsys):
    out = tmp_path / "mc.csv"
    argv = ["mc", "--scenario", "coverage_eu868.ini", "--out", str(out),
            "--distances", "300,1500,2900", "--trials", str(TRIALS)]
    assert main(argv + ["--shared-fading"] * shared_fading) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MC_CSV_SHA256[shared_fading], STACK
