import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import loracell
from loracell import load_scenario, sweep_models
from loracell.cli import EXIT_CONFIG, EXIT_OK, main


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(loracell.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "loracell", "--version"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"loracell {loracell.__version__}"


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


@pytest.mark.parametrize("extra", [[], ["--node-counts", "500"]], ids=["default", "500"])
def test_coverage_manifest_digest_is_the_validated_scenario_digest(extra, tmp_path, capsys):
    assert main(["validate-config", "--scenario", "coverage_eu868.ini"]) == EXIT_OK
    printed = re.search(r"digest ([0-9a-f]{16})\)", capsys.readouterr().out).group(1)
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--scenario", "coverage_eu868.ini", "--grid-step", "1000",
                 "--out", str(out), *extra]) == EXIT_OK
    manifest = json.loads((tmp_path / "cov.csv.manifest.json").read_text())
    digest = manifest["config_digests"]["coverage_eu868"]
    loaded = repr(load_scenario("coverage_eu868.ini")).encode("utf-8")
    assert digest == hashlib.sha256(loaded).hexdigest()
    assert digest[:16] == printed


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


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-5", "3500"])
def test_coverage_bad_grid_step_exits_config_error(step, tmp_path, capsys):
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--scenario", "coverage_eu868.ini", f"--grid-step={step}",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "--grid-step must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_coverage_grid_stops_at_cell_radius(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--scenario", "coverage_eu868.ini", "--grid-step", "800",
                 "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [800.0, 1600.0, 2400.0]


@pytest.mark.parametrize("counts", ["-5", "0", "250,0", "500,500"])
def test_coverage_bad_node_counts_exits_config_error(counts, tmp_path, capsys):
    out = tmp_path / "cov.csv"
    code = main(["coverage", "--scenario", "coverage_eu868.ini", f"--node-counts={counts}",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "--node-counts" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mc_command(tmp_path):
    out = tmp_path / "mc.csv"
    code = main(["mc", "--scenario", "coverage_eu868.ini", "--out", str(out),
                 "--distances", "800,1500", "--trials", "50000", "--seed", "7"])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[0] == "distance_m" and len(rows) == 2
    assert all(0.0 <= float(r[7]) <= 1.0 for r in rows)


@pytest.mark.parametrize("argv", [
    ["mc", "--scenario", "coverage_eu868.ini", "--distances", "800"],
    ["coverage", "--scenario", "coverage_eu868.ini", "--grid-step", "1500", "--validate"],
])
def test_zero_trials_exits_config_error(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(argv + ["--trials", "0", "--out", str(out)]) == EXIT_CONFIG
    assert "trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("argv", [
    ["coverage", "--scenario", "coverage_eu868.ini", "--grid-step", "1500"],
    ["mc", "--scenario", "coverage_eu868.ini", "--distances", "500", "--trials", "1000"],
    ["simulate", "--scenario", "sim_n2.ini", "--loads", "0.5", "--replications", "1"],
    ["reproduce", "fig3", "--replications", "1"],
], ids=lambda argv: argv[0])
def test_negative_seed_exits_config_error(argv, tmp_path, capsys):
    flag = "--outdir" if argv[0] == "reproduce" else "--out"
    assert main(argv + [flag, str(tmp_path / "out"), "--seed", "-3"]) == EXIT_CONFIG
    assert "rng_seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

def test_simulate_iic_on_n1_runs(tmp_path):
    # IIC on the single-SF N1 case runs as it is; there is no --force flag
    out = tmp_path / "iic.csv"
    code = main(["simulate", "--scenario", "sim_n1.ini", "--model", "IIC",
                 "--loads", "0.2", "--replications", "1", "--out", str(out)])
    assert code == EXIT_OK


def test_simulate_has_no_force_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", "sim_n1.ini", "--force", "--out", str(tmp_path / "x")])


def test_simulate_theory_column_and_rerun_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--scenario", "sim_n1.ini", "--model", "BP", "--loads", "0.2,0.4",
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
    code = main(["simulate", "--scenario", "sim_n2.ini", "--loads", "0.2", flag, value,
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("load", ["nan", "inf"])
def test_simulate_non_finite_load_exits_config_error(load, tmp_path, capsys):
    code = main(["simulate", "--scenario", "sim_n2.ini", f"--loads={load}",
                 "--replications", "1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "offered_loads" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("load", ["1.5", "0", "-0.2"])
def test_simulate_load_outside_unit_interval_exits_config_error(load, tmp_path, capsys):
    code = main(["simulate", "--scenario", "sim_n2.ini", f"--loads=0.2,{load}",
                 "--replications", "1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "offered_loads" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("loads,message", [("0.1,x", "'x'"), ("", "must not be empty"),
                                           ("0.2,,0.4", "''")])
def test_simulate_bad_loads_exits_config_error(loads, message, tmp_path, capsys):
    code = main(["simulate", "--scenario", "sim_n1.ini", f"--loads={loads}",
                 "--replications", "1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--loads" in err and message in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_huge_duration_exits_config_error(tmp_path, capsys):
    text = (resources.files("loracell.data") / "sim_n2.ini").read_text()
    cfg = tmp_path / "long.ini"
    cfg.write_text(text.replace("sim_duration_s = 7200", "sim_duration_s = 1e30"))
    code = main(["simulate", "--scenario", str(cfg), "--loads", "0.5", "--replications", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "sim_duration_s: 1e+30 s expects" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_requires_case_or_scenario(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "BP", "--out", "/tmp/never.csv"])
    assert exc.value.code == 2
    assert "--scenario" in capsys.readouterr().err


def test_reproduce_unknown_figure_lists_valid_ids(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig9", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
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
    csv = (tmp_path / "fig2_coverage.csv").read_text().replace(",", " ")
    assert (tmp_path / "fig2_coverage.dat").read_text() == "# " + csv


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


def test_reproduce_fig4_is_the_same_for_any_job_count(tmp_path):
    for jobs in ("1", "2"):
        assert main(["reproduce", "fig4", "--outdir", str(tmp_path / jobs), "--jobs", jobs,
                     "--replications", "1", "--seed", "3"]) == EXIT_OK
    assert (tmp_path / "1" / "fig4_pdr.csv").read_bytes() == \
        (tmp_path / "2" / "fig4_pdr.csv").read_bytes()


def outputs_sha256(outdir):
    """SHA-256 of each file, with the manifest timestamp dropped and the output
    path cut to its file name, as the output pins hash them."""
    pins = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            del manifest["timestamp"]
            manifest["output_path"] = Path(manifest["output_path"]).name
            data = json.dumps(manifest, indent=2).encode("utf-8")
        pins[path.name] = hashlib.sha256(data).hexdigest()
    return pins


@pytest.mark.parametrize("figures", [["fig2", "fig3", "fig4"], ["fig4", "fig2", "fig4"]])
def test_reproduce_several_figures_writes_what_separate_runs_write(figures, tmp_path,
                                                                   monkeypatch, capsys):
    flags = ["--replications", "1", "--seed", "3"]
    calls = []

    def spy(scenario, models, **kwargs):
        calls.append(models)
        return sweep_models(scenario, models, **kwargs)

    monkeypatch.setattr("loracell.cli.sweep_models", spy)
    assert main(["reproduce", *figures, "--outdir", str(tmp_path / "all"), *flags]) == EXIT_OK
    # fig3 and fig4 share one sweep per case
    assert calls == [("BP", "IC"), ("BP", "IC", "IIC")]
    together = capsys.readouterr().out.replace(str(tmp_path / "all"), "OUT")
    alone = ""
    for figure in dict.fromkeys(figures):
        assert main(["reproduce", figure, "--outdir", str(tmp_path / "one"), *flags]) == EXIT_OK
        alone += capsys.readouterr().out.replace(str(tmp_path / "one"), "OUT")
    assert together == alone
    assert together.count("wrote") == len(set(figures))
    assert outputs_sha256(tmp_path / "all") == outputs_sha256(tmp_path / "one")
    assert len(outputs_sha256(tmp_path / "all")) == 3 * len(set(figures))


def test_reproduce_fig4_pdr_decreases(tmp_path):
    code = main(["reproduce", "fig4", "--outdir", str(tmp_path),
                 "--replications", "2", "--seed", "5"])
    assert code == EXIT_OK
    header, rows = read_csv(tmp_path / "fig4_pdr.csv")
    assert header[0] == "offered_g"
    for col in range(1, len(header)):
        series = np.array([float(r[col]) for r in rows])
        assert series[0] > series[-1]
