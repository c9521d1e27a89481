import json
import re

import numpy as np
import pytest

from loracell.cli import EXIT_CONFIG, EXIT_OK, main


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_validate_config_ok(capsys):
    assert main(["validate-config", "--scenario", "coverage_eu868.ini"]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_validate_config_bad_file(tmp_path, capsys):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[radio]\nbogus = 1\n")
    assert main(["validate-config", "--scenario", str(cfg)]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err


def test_missing_scenario_exits_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["coverage", "--scenario", "missing.ini", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_coverage_csv_identity_and_manifest(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--scenario", "coverage_eu868.ini",
                 "--out", str(out), "--grid-step", "250"])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[:5] == ["distance_m", "sf", "h1", "q1", "c1"]
    assert len(rows) == 12          # 250..3000 m in 250 m steps
    for row in rows:
        h1, q1, c1 = float(row[2]), float(row[3]), float(row[4])
        assert c1 == pytest.approx(h1 * q1, rel=1e-10)
    manifest = json.loads((tmp_path / "cov.csv.manifest.json").read_text())
    assert manifest["command"] == "coverage"
    assert list(manifest["config_digests"]) == ["coverage_eu868"]
    assert len(manifest["config_digests"]["coverage_eu868"]) == 64


def test_coverage_multiple_node_counts(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--scenario", "coverage_eu868.ini", "--out", str(out),
                 "--grid-step", "300", "--node-counts", "500,2500"])
    assert code == EXIT_OK
    _, rows_500 = read_csv(tmp_path / "cov_N500.csv")
    _, rows_2500 = read_csv(tmp_path / "cov_N2500.csv")
    c500 = np.array([float(r[4]) for r in rows_500])
    c2500 = np.array([float(r[4]) for r in rows_2500])
    assert np.all(c2500 <= c500)


def test_coverage_validate_appends_mc_columns(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--scenario", "coverage_eu868.ini", "--out", str(out),
                 "--grid-step", "600", "--validate", "--trials", "150000",
                 "--seed", "404"])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[-2:] == ["mc_c1", "mc_se"]
    for row in rows:
        c1, mc, se = float(row[4]), float(row[-2]), float(row[-1])
        assert abs(c1 - mc) <= 3 * se


def test_coverage_rejects_jobs_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--scenario", "coverage_eu868.ini",
              "--out", str(tmp_path / "cov.csv"), "--jobs", "2"])
    assert exc.value.code == 2


def test_mc_command(tmp_path):
    out = tmp_path / "mc.csv"
    code = main(["mc", "--scenario", "coverage_eu868.ini", "--out", str(out),
                 "--distances", "800,1500", "--trials", "50000", "--seed", "7"])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[0] == "distance_m" and len(rows) == 2
    assert all(0.0 <= float(r[7]) <= 1.0 for r in rows)


def test_simulate_rejects_redundant_iic_n1(capsys):
    code = main(["simulate", "--case", "N1", "--model", "IIC",
                 "--out", "/tmp/never.csv"])
    assert code == EXIT_CONFIG
    assert "redundant" in capsys.readouterr().err


def test_simulate_n1_with_force_runs(tmp_path):
    out = tmp_path / "iic.csv"
    code = main(["simulate", "--case", "N1", "--model", "IIC", "--force",
                 "--loads", "0.2", "--replications", "1", "--out", str(out)])
    assert code == EXIT_OK


def test_simulate_theory_column_and_rerun_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--case", "N1", "--model", "BP", "--loads", "0.2,0.4",
            "--replications", "2", "--seed", "99"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert len(rows) == 2
    g = float(rows[0][header.index("measured_g")])
    theory = float(rows[0][header.index("aloha_theory")])
    assert theory == pytest.approx(g * np.exp(-2 * g), rel=1e-10)
    m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert m1["config_digests"] == m2["config_digests"]


@pytest.mark.parametrize("flag,value", [("--replications", "0"), ("--jobs", "-3")])
def test_simulate_bad_count_exits_config_error(flag, value, tmp_path, capsys):
    code = main(["simulate", "--case", "N2", "--loads", "0.2", flag, value,
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_requires_case_or_scenario(capsys):
    code = main(["simulate", "--model", "BP", "--out", "/tmp/never.csv"])
    assert code == EXIT_CONFIG
    assert "provide --scenario or --case" in capsys.readouterr().err


def test_reproduce_unknown_figure_lists_valid_ids(tmp_path, capsys):
    code = main(["reproduce", "fig9", "--outdir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "fig2" in err and "fig3" in err and "fig4" in err


def test_reproduce_fig2_outputs(tmp_path):
    code = main(["reproduce", "fig2", "--outdir", str(tmp_path)])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "fig2_coverage.csv")
    assert header == ["distance_m", "sf", "c1_N250", "c1_N500", "c1_N2500"]
    assert len(rows) == 300
    c250 = np.array([float(r[2]) for r in rows])
    c2500 = np.array([float(r[4]) for r in rows])
    assert np.all(c2500 <= c250)
    dat = (tmp_path / "fig2_coverage.dat").read_text().splitlines()
    assert dat[0].startswith("# distance_m")
    assert len(dat) == 301


def test_reproduce_fig3_emits_all_curves(tmp_path):
    code = main(["reproduce", "fig3", "--outdir", str(tmp_path),
                 "--replications", "1", "--seed", "3"])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "fig3_throughput.csv")
    assert header == ["offered_g", "aloha_theory", "s_n1_bp", "s_n1_ic",
                      "s_n2_bp", "s_n2_ic", "s_n2_iic", "s_n1_ic_x5"]
    assert len(rows) == 10
    k = header.index("s_n1_ic_x5")
    for row in rows:
        assert float(row[k]) == pytest.approx(5 * float(row[3]), rel=1e-10)
    manifest = json.loads((tmp_path / "fig3_throughput.csv.manifest.json").read_text())
    digests = manifest["config_digests"]
    assert list(digests) == ["n1_bp", "n1_ic", "n2_bp", "n2_ic", "n2_iic"]
    assert len(set(digests.values())) == 5
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())


def test_reproduce_fig4_pdr_decreases(tmp_path):
    code = main(["reproduce", "fig4", "--outdir", str(tmp_path),
                 "--replications", "2", "--seed", "5"])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "fig4_pdr.csv")
    assert header[0] == "offered_g"
    for col in range(1, len(header)):
        series = np.array([float(r[col]) for r in rows])
        assert series[0] > series[-1]
