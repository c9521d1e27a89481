"""Output pins: exact values of outputs at fixed seeds, compared across commits.

Unlike the determinism tests, which compare two runs of one commit, these
fail when a change moves an output by one ulp. A deliberate output change
regenerates the affected pins, and CHANGES.md says which ones and why. The
pins were made with the library versions in `PINNED_WITH`; a mismatch on
another numpy or scipy reads as a stack difference to report, not as a fault.

Run as a script, `PYTHONPATH=src python tests/test_output_pins.py`, it
prints every pin's current value in this module's literal layout, ready to
paste over the literals it replaces.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from loracell import (
    MCEstimate,
    PacketEvent,
    default_scenario,
    estimate_coverage,
    estimate_sir_ring,
    lora_airtime,
    resolve_reception,
    typical_at,
)
from loracell.airtime import VALID_BANDWIDTHS_HZ
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
        est(0.890051477066815, 0.0007790575803041007),
        est(0.8878101861786385, 0.000777095789664918),
    ),
    (250, 300.0, True): (
        est(0.9974818412800541, 0.0),
        est(0.89136527888731, 0.0016643662762664774),
        est(0.8898262004649896, 0.0016593619796623454),
    ),
    (250, 1500.0, False): (
        est(0.8997551511544079, 0.0),
        est(0.6936755614607613, 0.0011020238223698896),
        est(0.624138159654246, 0.0009915516108721784),
    ),
    (250, 1500.0, True): (
        est(0.8997551511544079, 0.0),
        est(0.6952424946640486, 0.002960264582342955),
        est(0.6381271952746309, 0.0026766803702486953),
    ),
    (250, 2900.0, False): (
        est(0.9498785736429707, 0.0),
        est(0.7046752792228388, 0.0010333757975714663),
        est(0.6693559491096522, 0.0009815815286343516),
    ),
    (250, 2900.0, True): (
        est(0.9498785736429707, 0.0),
        est(0.7039772405956343, 0.0029780636263589417),
        est(0.6746804269322136, 0.0028348040833983167),
    ),
    (2500, 300.0, False): (
        est(0.9974818412800541, 0.0),
        est(0.31440884047582857, 0.0012472378226787307),
        est(0.3136171091125563, 0.001244097079879706),
    ),
    (2500, 300.0, True): (
        est(0.9974818412800541, 0.0),
        est(0.3191370983749372, 0.002200713727734444),
        est(0.319118368483864, 0.0022004247002682656),
    ),
    (2500, 1500.0, False): (
        est(0.8997551511544079, 0.0),
        est(0.0251397452612444, 0.0006209598446081869),
        est(0.022619615297514262, 0.0005587118188462568),
    ),
    (2500, 1500.0, True): (
        est(0.8997551511544079, 0.0),
        est(0.029320300393292753, 0.000894842732122144),
        est(0.028948201923156613, 0.0008758739979981689),
    ),
    (2500, 2900.0, False): (
        est(0.9498785736429707, 0.0),
        est(0.03081475786392806, 0.0007453002526543632),
        est(0.0292702782469415, 0.0007079447409270721),
    ),
    (2500, 2900.0, True): (
        est(0.9498785736429707, 0.0),
        est(0.03294643210227905, 0.001006725613911501),
        est(0.03269441580622033, 0.0009949712984892382),
    ),
}
# N=2500, 1500 m, the typical node's own ring
MC_SIR_RING = est(0.034800282871826314, 0.0009085470815183997)
# `loracell mc --distances 300,1500,2900 --trials 20000` on coverage_eu868.ini
MC_CSV_SHA256 = {
    False: "8b50017c4a68f263b726a29ac841efad170c130592148c6dd15d1c40dddba561",
    True: "590dbf59a30247e65f1b7efcc5f062c3e983ef7fed759f67348672a3b6b49c93",
}


# `loracell <argv>` into an empty directory -> SHA-256 of each file it writes.
# A manifest is hashed without its timestamp and with its output path reduced
# to the file name, so the pin covers every other field.
CLI_RUNS = {
    "reproduce_fig2": ["reproduce", "fig2"],
    "reproduce_fig3": ["reproduce", "fig3", "--replications", "1", "--seed", "3"],
    "reproduce_fig4": ["reproduce", "fig4", "--replications", "1", "--seed", "3"],
    "coverage_counts": ["coverage", "--scenario", "coverage_eu868.ini", "--grid-step", "100",
                        "--node-counts", "250,2500"],
    "coverage_validate": ["coverage", "--scenario", "coverage_eu868.ini", "--grid-step", "500",
                          "--validate", "--trials", str(TRIALS)],
    "simulate_n2_iic": ["simulate", "--scenario", "sim_n2.ini", "--model", "IIC",
                        "--loads", "0.3,1.0", "--replications", "2"],
}
CLI_SHA256 = {
    "reproduce_fig2": {
        "fig2_coverage.csv": "984a68ffdf89432b34edc3471eaa67a7c1546690af6158c164bd9b59bf67ed1d",
        "fig2_coverage.csv.manifest.json": "451ab960a7ded35a7ca09b6de63def9e82c45c39e9d2ec8fbda911b39cfbb42b",
        "fig2_coverage.dat": "316899844a1a139d9a9ddd9d4e5b78b3b8e7ea241febe8883ecb35147b6868a4",
    },
    "reproduce_fig3": {
        "fig3_throughput.csv": "ef629edcde290d933d5894c4bcc3c3b3fc5a836d90b3cf12a4e4054993409725",
        "fig3_throughput.csv.manifest.json": "d985750c7f91ae648636d57e2ed96f43dd99173bd25d4351346401d8c64db348",
        "fig3_throughput.dat": "94c94cff5c012ec915323f372eba9ab0631f20edd59ded9bf68736e93bfd5e63",
    },
    "reproduce_fig4": {
        "fig4_pdr.csv": "8bde6c0d298688c56320f321e8f655755d5abf24432055fc3a1d666c4663a584",
        "fig4_pdr.csv.manifest.json": "ba89b81f996d58f7c4b9e8ab067430e60a30fdad152642d13d3fe12b97a5ba34",
        "fig4_pdr.dat": "55b5743f85e2bf45576613effa95a1f8181f3c8bd363649d3d0e2fabe622d5b7",
    },
    "coverage_counts": {
        "out_N250.csv": "71b34fb5388158329dad72713cab7241d9a14c814ca93e7cbefd3277a97fe208",
        "out_N250.csv.manifest.json": "d01901dd52afa924baa0c24ba9b73a1bc61211082db176dbda2d4d0a77997bf3",
        "out_N2500.csv": "8e419c510414813856a8f98b873b69544c808c6d865f354c2b6db0038d8b1b51",
        "out_N2500.csv.manifest.json": "b6861e5a31abc919e50a586f6e28dd92904b6fdb5e8372bc6295af354ee48261",
    },
    "coverage_validate": {
        "out.csv": "0c07c57b96aba67344da7f23c56f75433f6e490892505cd35342783e4e753582",
        "out.csv.manifest.json": "4e7ef843b5ac445fbd5d4c25eb7b2a5847032671b239dfafa41631bc3c8b444f",
    },
    "simulate_n2_iic": {
        "out.csv": "3f3d42ad8b072e6b6972a97fb686d1a6eb0fcd5c19ec006ed07b3957636bb56d",
        "out.csv.manifest.json": "be62c4b00ef79f434ab6b9e3d776a15fddb82fe61c4b038619ed15f8c598833a",
    },
}
# model -> SHA-256 of the `resolve_reception` flags over `reception_packets()`
RECEPTION_SHA256 = {
    "BP": "a032f8c8e1d62ba9d9707ba6384acdcbbc68c6660631c759fd4a33f35b2fb0b1",
    "IC": "ce4fcac7313b4b1503035327dd4516a9c6de5a7adba3d89d261efbabeac2e42c",
    "IIC": "dca5ee63f2b2212d07460835db836d26be1416e89eb8ba100b9faf8edb1210fc",
}
# SHA-256 of the repr of the `lora_airtime` durations over SF 7..12 x payload
# 1..255 B x every bandwidth x code rate 1..4: 18,360 cases
AIRTIME_GRID_SHA256 = "77d228072641a0108a92f26ef10877a3d2fac385f4efd80a6cc59925e0dc8b9c"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def airtime_grid_sha256() -> str:
    return sha256(repr([lora_airtime(sf, payload, bandwidth, cr) for sf in range(7, 13)
                        for payload in range(1, 256) for bandwidth in VALID_BANDWIDTHS_HZ
                        for cr in range(1, 5)]).encode())


def mc_coverage(count: int, distance: float, shared_fading: bool):
    scn = COV.with_node_count(count)
    return estimate_coverage(typical_at(scn.topology, distance), scn, TRIALS, SEED,
                             shared_fading=shared_fading)


def mc_sir_ring() -> MCEstimate:
    scn = COV.with_node_count(2500)
    typical = typical_at(scn.topology, 1500.0)
    return estimate_sir_ring(typical, typical.sf, scn, TRIALS, SEED)


def mc_csv_sha256(shared_fading: bool, outdir: Path) -> str:
    out = outdir / "mc.csv"
    argv = ["mc", "--scenario", "coverage_eu868.ini", "--out", str(out),
            "--distances", "300,1500,2900", "--trials", str(TRIALS)]
    assert main(argv + ["--shared-fading"] * shared_fading) == EXIT_OK
    return sha256(out.read_bytes())


def cli_sha256(run: str, outdir: Path) -> dict[str, str]:
    argv = CLI_RUNS[run]
    out = ["--outdir", str(outdir)] if argv[0] == "reproduce" else ["--out", str(outdir / "out.csv")]
    assert main(argv + out) == EXIT_OK
    pins = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            del manifest["timestamp"]
            manifest["output_path"] = Path(manifest["output_path"]).name
            data = json.dumps(manifest, indent=2).encode("utf-8")
        pins[path.name] = sha256(data)
    return pins


def reception_packets() -> list[PacketEvent]:
    """Unsorted packets of every SF on four oddly labelled channels. Starts and
    airtimes are multiples of 1/8 s, so sums are exact: many starts tie, and
    the second half each start exactly where a packet of the first half ends."""
    rng = np.random.default_rng(SEED)
    n = 300
    starts = rng.integers(0, 480, n) / 8.0
    durs = rng.integers(1, 9, n) / 8.0
    starts[n // 2:] = starts[:n // 2] + durs[:n // 2]
    sfs = rng.integers(7, 13, n)
    dbm = np.round(rng.uniform(-135.0, -80.0, n))
    channels = rng.choice([-3, 0, 7, 868_100_000], n)
    return [PacketEvent(node=k, sf=int(sfs[k]), start_s=float(starts[k]),
                        duration_s=float(durs[k]), rx_power_dbm=float(dbm[k]),
                        channel=int(channels[k])) for k in range(n)]


def reception_flags(model: str) -> list[bool]:
    n2 = default_scenario("sim_n2")
    return resolve_reception(reception_packets(), model, n2.thresholds, n2.radio)


@pytest.mark.parametrize("count, distance, shared_fading", sorted(MC_COVERAGE))
def test_monte_carlo_coverage_pinned(count, distance, shared_fading):
    got = mc_coverage(count, distance, shared_fading)
    assert repr(got) == repr(MC_COVERAGE[count, distance, shared_fading]), STACK


def test_monte_carlo_sir_ring_pinned():
    assert repr(mc_sir_ring()) == repr(MC_SIR_RING), STACK


@pytest.mark.parametrize("shared_fading", [False, True])
def test_mc_csv_pinned(shared_fading, tmp_path, capsys):
    assert mc_csv_sha256(shared_fading, tmp_path) == MC_CSV_SHA256[shared_fading], STACK


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_cli_outputs_pinned(run, tmp_path, capsys):
    assert cli_sha256(run, tmp_path) == CLI_SHA256[run], STACK


@pytest.mark.parametrize("model", sorted(RECEPTION_SHA256))
def test_resolve_reception_pinned(model):
    flags = reception_flags(model)
    # the set must exercise both outcomes, or the pin shows little
    assert 0 < sum(flags) < len(flags)
    assert sha256(bytes(flags)) == RECEPTION_SHA256[model], STACK


def test_airtime_grid_pinned():
    assert airtime_grid_sha256() == AIRTIME_GRID_SHA256


def _q(value) -> str:
    return json.dumps(value) if isinstance(value, str) else repr(value)


def _literal(name: str, pins: dict) -> str:
    """`name = {...}` with one key per line, as the literals above are laid out."""
    lines = [f"{name} = {{"]
    for key, pin in pins.items():
        if isinstance(pin, dict):
            lines.append(f"    {_q(key)}: {{")
            lines += [f"        {_q(k)}: {_q(v)}," for k, v in pin.items()]
            lines.append("    },")
        else:
            lines.append(f"    {_q(key)}: {_q(pin)},")
    return "\n".join(lines + ["}"])


def _est(estimate: MCEstimate) -> str:
    return f"est({estimate.mean!r}, {estimate.standard_error!r})"


def regenerate() -> None:
    """Print every pin's current value in this module's literal layout."""
    print(f"PINNED_WITH = {json.dumps({'numpy': np.__version__, 'scipy': scipy.__version__})}")
    print("MC_COVERAGE = {")
    for key in MC_COVERAGE:
        print(f"    {key!r}: (")
        print("".join(f"        {_est(e)},\n" for e in mc_coverage(*key)) + "    ),")
    print("}")
    print(f"MC_SIR_RING = {_est(mc_sir_ring())}")
    # the CLI's report lines would interleave with the literals
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        mc = {}
        for shared_fading in (False, True):
            (Path(tmp) / str(shared_fading)).mkdir()
            mc[shared_fading] = mc_csv_sha256(shared_fading, Path(tmp) / str(shared_fading))
        cli = {}
        for run in CLI_RUNS:
            (Path(tmp) / run).mkdir()
            cli[run] = cli_sha256(run, Path(tmp) / run)
    print(_literal("MC_CSV_SHA256", mc))
    print(_literal("CLI_SHA256", cli))
    print(_literal("RECEPTION_SHA256",
                   {model: sha256(bytes(reception_flags(model))) for model in ("BP", "IC", "IIC")}))
    print(f"AIRTIME_GRID_SHA256 = {json.dumps(airtime_grid_sha256())}")


if __name__ == "__main__":
    regenerate()
