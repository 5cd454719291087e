import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from layerwaves import cli, steady

SQRT5 = float(np.sqrt(5.0))


def run_cli(args, tmp_path):
    return cli.main(args + ["--out", str(tmp_path)])


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in fh if not r.startswith("#")]
    reader = csv.DictReader(rows)
    return list(reader)


def test_speeds_symmetric(tmp_path):
    assert run_cli(["speeds", "--a", "-1,1,-1,1", "--m", "1"], tmp_path) == 0
    data = json.loads((tmp_path / "speeds.json").read_text())
    assert data["regime"] == "symmetric"
    byval = {round(s["c"], 6): s["admissible"] for s in data["speeds"]}
    assert byval[round(SQRT5, 6)] and byval[round(-SQRT5, 6)]
    assert not byval[1.0] and not byval[-1.0]
    assert data["config"]["m"] == 1  # provenance embedded


def test_parse_defaults_and_overrides(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("a = -1,1,-1,1\nm = 2\nn = 16\n# comment\nsigma = 0.2\n")
    run = cli.parse(["speeds", "--config", str(conf), "--m", "3"])
    assert run.m == 3          # flag wins over file
    assert run.n == 16         # file wins over default
    assert run.sigma == 0.2
    assert run.tol == 1e-11    # default


def test_bad_widths_exits_2_and_names_constraint(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("a = 0,1,2,4\n")
    code = cli.main(["speeds", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 2
    assert "widths must be equal" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["continue", "--h-min", "0"], "must be positive"),
    (["continue", "--h-max", "-1"], "must be positive"),
    (["continue", "--h-min", "0.5", "--h-max", "0.1"], "exceeds h_max"),
    (["continue", "--max-points", "0"], "max_points must be at least 1"),
    (["continue", "--snapshot-every", "-1"], "snapshot_every must be"),
    (["evolve", "--periods", "-1"], "periods must be positive"),
    (["evolve", "--dt", "-0.1"], "dt must be nonnegative"),
    (["evolve", "--steps", "-3"], "steps must be nonnegative"),
    (["evolve", "--store-every", "-2"], "store_every must be nonnegative"),
    (["evolve", "--periods", "inf"], "periods must be finite"),
    (["continue", "--sigma", "-0.1"], "must be nonnegative"),
    (["speeds", "--config", "missing.conf"], "cannot read config file"),
    (["speeds", "--n", str(cli.MAX_N + 1)], f"at most {cli.MAX_N}"),
])
def test_out_of_range_option_exits_2(args, message, tmp_path, capsys):
    code = run_cli(args + ["--a", "-1,1,-1,1", "--m", "1"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert not (tmp_path / "error.json").exists()


def test_n_at_bound_accepted(tmp_path):
    assert run_cli(["speeds", "--a", "-1,1,-1,1", "--n", str(cli.MAX_N)],
                   tmp_path) == 0


def _wave_with_mismatched_counts():
    tone = {"fold": 1, "cos": [0.01], "sin": [0.0], "parity": "even-cosine"}
    series = {name: dict(tone) for name in steady.COMPONENT_NAMES}
    series["plus1"] = dict(tone, cos=[0.01, 0.0], sin=[0.0, 0.0])
    return json.dumps({"a": [-1, 1, -1, 1], "c": 2.2, "series": series})


@pytest.mark.parametrize("command", ["evolve", "ep"])
@pytest.mark.parametrize("text, reason", [
    (None, "No such file"),
    ("not json {", "Expecting value"),
    ('{"a": [-1, 1, -1, 1], "c": 2.2}', "lacks key 'series'"),
    (_wave_with_mismatched_counts(),
     "components must share fold and truncation"),
])
def test_bad_wave_file_exits_1_with_error_json(command, text, reason,
                                               tmp_path, capsys):
    wave = tmp_path / "wave.json"
    if text is not None:
        wave.write_text(text)
    code = run_cli([command, "--a", "-1,1,-1,1", "--from-wave", str(wave)],
                   tmp_path)
    assert code == 1
    error = json.loads((tmp_path / "error.json").read_text())
    assert error["error"] == "WaveFileError"
    assert str(wave) in error["message"] and reason in error["message"]
    assert capsys.readouterr().err.startswith("error:")


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("a = -1,1,-1,1\nmax_point = 3\n")
    code = cli.main(["continue", "--config", str(conf),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "unknown option 'max_point'" in capsys.readouterr().err
    assert not (tmp_path / "diagram.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("n = abc", "n must be an integer"),
    ("sigma = wide", "sigma must be a number"),
    ("a = -1,1,x,1", "a must be a number"),
    ("arm = up", "arm must be both, + or -"),
])
def test_config_file_unparsable_value_exits_2(line, message, tmp_path,
                                              capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"a = -1,1,-1,1\n{line}\n")
    code = cli.main(["speeds", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_missing_subcommand_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_malformed_flag_exits_2(capsys):
    assert cli.main(["speeds", "--a"]) == 2
    capsys.readouterr()


def test_local_successive_consistent_with_sign_rule(tmp_path):
    assert run_cli(["local", "--a", "0,1,1,2", "--m", "1",
                    "--speed-index", "+"], tmp_path) == 0
    data = json.loads((tmp_path / "local.json").read_text())
    assert data["c_star"] == pytest.approx(1.0 + np.sqrt(3.0))
    assert data["nearest_component"] == "minus2"
    assert data["pitchfork"] == "supercritical"  # speed above the level


def test_continue_writes_branch_and_diagram(tmp_path):
    assert run_cli(["continue", "--a", "-1,1,-1,1", "--m", "1",
                    "--speed-index", "+", "--n", "24",
                    "--max-points", "10", "--snapshot-every", "5"],
                   tmp_path) == 0
    rows = read_csv(tmp_path / "branch_plus.csv")
    assert len(rows) == 10
    # small-amplitude rows follow the pitchfork parabola
    tail = (tmp_path / "branch_plus.csv").read_text().strip().splitlines()[-1]
    assert tail.startswith("# termination:")
    amps = np.array([float(r["amp"]) for r in rows])
    speeds = np.array([float(r["c"]) for r in rows])
    v0 = -(SQRT5 - 1.0) / 4.0
    fit = 2.0 * np.polyfit((amps / v0) ** 2, speeds - SQRT5, 1)[0]
    assert fit == pytest.approx(0.153730, rel=0.05)
    diagram = read_csv(tmp_path / "diagram.csv")
    assert {r["arm"] for r in diagram} == {"plus", "minus"}
    snaps = sorted(tmp_path.glob("wave_plus_*.json"))
    assert len(snaps) == 2
    wave = json.loads(snaps[0].read_text())
    assert wave["m"] == 1 and wave["N"] == 24


def test_evolve_from_snapshot(tmp_path):
    run_cli(["continue", "--a", "-1,1,-1,1", "--m", "1", "--n", "24",
             "--max-points", "8", "--snapshot-every", "7"], tmp_path)
    snap = tmp_path / "wave_plus_0007.json"
    assert run_cli(["evolve", "--a", "-1,1,-1,1", "--m", "1",
                    "--from-wave", str(snap), "--periods", "0.05"],
                   tmp_path) == 0
    rows = read_csv(tmp_path / "trajectory.csv")
    assert len(rows) >= 2
    e0 = float(rows[0]["e_total"])
    e1 = float(rows[-1]["e_total"])
    assert e1 == pytest.approx(e0, rel=1e-8)


def read_config_header(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


@pytest.mark.parametrize("command, extra, outputs", [
    ("evolve", ["--periods", "0.1"], ["trajectory.csv"]),
    ("ep", [], ["ep_residual.csv", "ep.json"]),
])
def test_from_wave_outputs_record_the_wave_configuration(command, extra,
                                                         outputs, tmp_path):
    # the run computes on the file's velocities, fold and truncation, so
    # those are what every output records, not --a, --m and --n
    tone = {"fold": 1, "cos": [0.01] + [0.0] * 7, "sin": [0.0] * 8,
            "parity": "even-cosine"}
    wave = tmp_path / "wave.json"
    wave.write_text(json.dumps({"a": [-1, 1, -1, 1], "c": 2.2, "series": {
        name: tone for name in steady.COMPONENT_NAMES}}))
    assert run_cli([command, "--a", "0,1,1,2", "--m", "3", "--n", "64",
                    "--from-wave", str(wave)] + extra, tmp_path) == 0
    for name in outputs:
        path = tmp_path / name
        config = (json.loads(path.read_text())["config"]
                  if name.endswith(".json") else read_config_header(path))
        assert config["a"] == [-1.0, 1.0, -1.0, 1.0], name
        assert (config["m"], config["n"]) == (1, 8), name
        assert config["from_wave"] == str(wave)
    if command == "ep":  # the Euler-Poisson speeds are the wave's mode's
        report = json.loads((tmp_path / "ep.json").read_text())
        assert report["speeds_report"]["m"] == 1


def test_evolve_kernel_mode_start(tmp_path):
    assert run_cli(["evolve", "--a", "-1,1,-1,1", "--m", "1", "--n", "12",
                    "--amp", "0.005", "--steps", "40"], tmp_path) == 0
    rows = read_csv(tmp_path / "trajectory.csv")
    assert float(rows[0]["sup_plus2"]) > 0.0


def test_ep_outputs(tmp_path):
    run_cli(["continue", "--a", "-1,1,-1,1", "--m", "1", "--n", "24",
             "--max-points", "8", "--snapshot-every", "7"], tmp_path)
    snap = tmp_path / "wave_plus_0007.json"
    assert run_cli(["ep", "--a", "-1,1,-1,1", "--m", "1",
                    "--from-wave", str(snap)], tmp_path) == 0
    data = json.loads((tmp_path / "ep.json").read_text())
    assert data["speeds_report"]["matched_form"] == "sqrt(1 + 4/(a m^2))"
    assert data["min_density"] > 0.9
    rows = read_csv(tmp_path / "ep_residual.csv")
    assert len(rows) == 4
    assert max(float(r["sup"]) for r in rows) < 1e-10


def test_solver_failure_maps_to_exit_1(tmp_path):
    code = run_cli(["local", "--a", "-1,1,-1,1", "--m", "1",
                    "--speed-index", "7"], tmp_path)
    assert code == 2  # out-of-range index is a usage error
    code = run_cli(["local", "--a", "-1,1,-1,1", "--m", "1",
                    "--speed-index", "up"], tmp_path)
    assert code == 2  # garbage index is a usage error too

    conf = tmp_path / "run.conf"
    conf.write_text("a = -1,1,-1,1\nm = 1\nn = 4\n")
    code = cli.main(["speeds", "--config", str(conf), "--out", str(tmp_path)])
    assert code == 2  # n below the floor


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "layerwaves.cli", "speeds",
         "--a", "0,1,2.5,3.5", "--m", "4", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads((tmp_path / "speeds.json").read_text())
    assert data["regime"] == "generic"
