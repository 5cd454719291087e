import csv
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st_

from layerwaves import (cli, continuation, localbranch, pencil, spectral,
                        steady)
from layerwaves.errors import ConfigError

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
    (["speeds", "--n=--"], "'n' needs a value"),
    (["continue", "--s", "100"], "overflows below harmonic 256"),
    (["continue", "--sigma", "0.5", "--n", "1024"],
     "overflows below harmonic 1024"),
])
def test_out_of_range_option_exits_2(args, message, tmp_path, capsys):
    code = run_cli(args + ["--a", "-1,1,-1,1", "--m", "1"], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert not (tmp_path / "error.json").exists()


@pytest.mark.parametrize("args", [["speeds", "--s", "100"],
                                  ["local", "--sigma", "0.5", "--n", "1024"]])
def test_norm_indices_only_bound_continue(args, tmp_path):
    # s and sigma weigh harmonics only in continuation
    assert run_cli(args + ["--a", "-1,1,-1,1"], tmp_path) == 0


@pytest.mark.parametrize("args", [
    ["speeds", "--a=-1e200,1e200,-1e200,1e200"],
    ["speeds", "--a", "0,1,2,3", "--m", str(10 ** 41)],
    ["local", "--a", "-1,1,-1,1", "--m", str(10 ** 400)],
])
def test_overflowing_pencil_exits_2(args, tmp_path, capsys):
    # the speeds would read inf, or the determinant quartic would overflow
    assert run_cli(args, tmp_path) == 2
    assert "overflow the pencil" in capsys.readouterr().err
    assert not (tmp_path / "speeds.json").exists()


def test_unusable_paths_exit_2(tmp_path, capsys):
    # an output path that is a file, and a config file that is not text
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["speeds", "--a", "-1,1,-1,1", "--out", str(blocker)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err
    conf = tmp_path / "binary.conf"
    conf.write_bytes(b"\xff\xfe")
    assert run_cli(["speeds", "--config", str(conf)], tmp_path) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_n_at_bound_accepted(tmp_path):
    assert run_cli(["speeds", "--a", "-1,1,-1,1", "--n", str(cli.MAX_N)],
                   tmp_path) == 0


def _wave_with_mismatched_counts():
    tone = {"fold": 1, "cos": [0.01], "sin": [0.0], "parity": "even-cosine"}
    series = {name: dict(tone) for name in steady.COMPONENT_NAMES}
    series["plus1"] = dict(tone, cos=[0.01, 0.0], sin=[0.0, 0.0])
    return json.dumps({"a": [-1, 1, -1, 1], "c": 2.2, "series": series})


def _wave_with_huge_velocities():
    tone = {"fold": 1, "cos": [0.01], "sin": [0.0], "parity": "even-cosine"}
    return json.dumps({"a": [-1e200, 1e200, -1e200, 1e200], "c": 2.2,
                       "series": {name: tone
                                  for name in steady.COMPONENT_NAMES}})


def _wave_with_fold(fold):
    tone = {"fold": fold, "cos": [0.01], "sin": [0.0],
            "parity": "even-cosine"}
    return json.dumps({"a": [-1, 1, -1, 1], "c": 2.2, "series": {
        name: tone for name in steady.COMPONENT_NAMES}})


def _wave_with_count(count):
    tone = {"fold": 1, "cos": [0.01] + [0.0] * (count - 1),
            "sin": [0.0] * count, "parity": "even-cosine"}
    return json.dumps({"a": [-1, 1, -1, 1], "c": 2.2, "series": {
        name: tone for name in steady.COMPONENT_NAMES}})


@pytest.mark.parametrize("command", ["evolve", "ep"])
@pytest.mark.parametrize("text, reason", [
    (None, "No such file"),
    ("not json {", "Expecting value"),
    ('{"a": [-1, 1, -1, 1], "c": 2.2}', "lacks key 'series'"),
    (_wave_with_mismatched_counts(),
     "components must share fold and truncation"),
    (_wave_with_huge_velocities(), "overflow the pencil"),
    (_wave_with_fold(float("inf")), "fold must be a positive integer"),
    (_wave_with_fold(1.5), "fold must be a positive integer"),
    pytest.param(_wave_with_count(cli.MAX_N + 1),
                 f"N={cli.MAX_N + 1} exceeds the bound {cli.MAX_N}",
                 id="too-many-harmonics"),
    # integers beyond the float range, as a coefficient, a speed, a velocity
    pytest.param(_wave_with_fold(1).replace("0.01", "1" + "0" * 400),
                 "too large", id="huge-int-coefficient"),
    pytest.param(_wave_with_fold(1).replace("2.2", "1" + "0" * 400),
                 "too large", id="huge-int-speed"),
    pytest.param(_wave_with_fold(1).replace("-1,", "-1" + "0" * 400 + ",", 1),
                 "too large", id="huge-int-velocity"),
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
    # speeds takes no --arm
    command = "continue" if line.startswith("arm") else "speeds"
    conf = tmp_path / "run.conf"
    conf.write_text(f"a = -1,1,-1,1\n{line}\n")
    code = cli.main([command, "--config", str(conf), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err


# One valid value of every option but --config, none of them the default.
OPTION_VALUES = {
    "a": "0,1,2.5,3.5", "m": "2", "n": "16", "s": "1.5", "sigma": "0.2",
    "tol": "1e-10", "out": "elsewhere", "speed_index": "-", "arm": "+",
    "s0": "0.002", "h_min": "1e-6", "h_max": "0.05", "max_points": "5",
    "snapshot_every": "2", "from_wave": "wave.json", "amp": "0.02",
    "dt": "0.001", "steps": "7", "periods": "0.5", "store_every": "3"}


def _options_of(command):
    return [name for name in cli.COMMON_OPTIONS + cli.COMMANDS[command][1]
            if name != "config"]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_flags_and_config_file_give_the_same_run(command, tmp_path):
    names = _options_of(command)
    argv = [command]
    for name in names:
        argv += [cli.flag(name), OPTION_VALUES[name]]
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{name} = {OPTION_VALUES[name]}\n"
                            for name in names))
    by_flags = cli.parse(argv)
    assert by_flags == cli.parse([command, "--config", str(conf)])
    default = cli.RunConfig(command=command, a=())
    for name in names:  # every value took effect
        assert getattr(by_flags, name) != getattr(default, name), name


@pytest.mark.parametrize("name, value, message", [
    ("m", "1.5", "m must be an integer, got '1.5'"),
    ("n", "1e3", "n must be an integer, got '1e3'"),
    ("periods", "inf", "periods must be finite, got 'inf'"),
    ("sigma", "-0.1", "sigma must be nonnegative"),
    ("arm", "up", "arm must be both, + or -, got 'up'"),
])
def test_flags_and_config_file_fail_alike(name, value, message, tmp_path):
    command = next(c for c in sorted(cli.COMMANDS) if name in _options_of(c))
    conf = tmp_path / "run.conf"
    conf.write_text(f"a = -1,1,-1,1\n{name} = {value}\n")
    for argv in ([command, "--a", "-1,1,-1,1", cli.flag(name), value],
                 [command, "--config", str(conf)]):
        with pytest.raises(ConfigError) as exc:
            cli.parse(argv)
        assert str(exc.value) == message, argv


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_config_file_takes_only_the_command_table(command, tmp_path, capsys):
    # a file key outside the command's flags (speeds with max_points or
    # from_wave, say) is refused by name before anything is written; the
    # run would otherwise record a value it never used
    conf = tmp_path / "run.conf"
    for name in sorted(set(OPTION_VALUES) - set(_options_of(command))):
        conf.write_text(f"a = -1,1,-1,1\n{name} = {OPTION_VALUES[name]}\n")
        code = cli.main([command, "--config", str(conf),
                         "--out", str(tmp_path / "out")])
        assert code == 2, name
        err = capsys.readouterr().err
        assert err == f"usage error: {command} takes no option {name!r}\n"
    assert list(tmp_path.iterdir()) == [conf]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_lists_the_table_flags(command, capsys):
    assert cli.main([command, "--help"]) == 0
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out,
                        re.MULTILINE)
    assert listed == ["--help"] + [
        cli.flag(name)
        for name in cli.COMMON_OPTIONS + cli.COMMANDS[command][1]]


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


@pytest.mark.parametrize("n, krylov", [("16", False), ("64", True)])
def test_continue_reports_solver_work_per_point(n, krylov, tmp_path):
    # N >= 64 solves each Newton step by GMRES, smaller N densely
    assert run_cli(["continue", "--a", "-1,1,-1,1", "--arm", "+", "--n", n,
                    "--max-points", "3", "--snapshot-every", "1"],
                   tmp_path) == 0
    rows = read_csv(tmp_path / "branch_plus.csv")
    assert list(rows[0])[-2:] == ["krylov_iters", "dense_solves"]
    for i, row in enumerate(rows):
        wave = json.loads((tmp_path / f"wave_plus_{i:04d}.json").read_text())
        used = (int(row["krylov_iters"]), int(row["dense_solves"]))
        assert used == (wave["krylov_iters"], wave["dense_solves"])
        assert (used[0] > 0, used[1] > 0) == (krylov, not krylov)


@pytest.mark.parametrize("n", ["16", "64"])
def test_continue_minus_arm_is_the_image_of_the_plus_arm(n, tmp_path):
    # dense (N = 16) and GMRES (N = 64) arms: the - arm of --arm both is
    # the + arm shifted by pi/m, whose monitors it leaves unchanged
    assert run_cli(["continue", "--a", "-1,1,-1,1", "--n", n,
                    "--max-points", "6", "--snapshot-every", "2"],
                   tmp_path) == 0
    plus = read_csv(tmp_path / "branch_plus.csv")
    minus = read_csv(tmp_path / "branch_minus.csv")
    assert len(minus) == len(plus) == 6
    for p, q in zip(plus, minus):
        assert float(q.pop("amp")) == -float(p.pop("amp"))
        assert q == p
    footers = {(tmp_path / f"branch_{tag}.csv").read_text().splitlines()[-1]
               for tag in ("plus", "minus")}
    assert len(footers) == 1
    snaps = sorted(tmp_path.glob("wave_plus_*.json"))
    assert len(snaps) == 3
    for path in snaps:
        _, c, state = cli._load_wave(path)
        _, c_minus, state_minus = cli._load_wave(
            path.with_name(path.name.replace("plus", "minus")))
        assert c_minus == c
        assert np.array_equal(state_minus.cos,
                              state.shifted(np.pi / state.fold).cos)


def test_continue_minus_arm_alone_is_traced(tmp_path):
    # --arm - traces the arm: its rows are those of continuation.trace_arm
    # without a + arm, bit for bit
    args = ["continue", "--a", "-1,1,-1,1", "--n", "16", "--arm", "-",
            "--max-points", "6"]
    assert run_cli(args, tmp_path) == 0
    assert not (tmp_path / "branch_plus.csv").exists()
    run = cli.parse(args)
    layer = pencil.classify_config(run.a)
    origin = localbranch.local_expansion(run.m, layer,
                                         cli._pick_speed(run, layer))
    traced = continuation.trace_arm(origin, -1, cli._make_options(run))
    want = [{k: str(v) for k, v in row.items()} for row in traced.csv_rows()]
    assert read_csv(tmp_path / "branch_minus.csv") == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s0", ["1e-300", "1e-170"])
def test_continue_refuses_a_zero_length_first_secant(s0, tmp_path, capsys):
    # the norm of a first step this small underflows to 0, so its secant
    # would be 0/0: the arm cannot start
    code = run_cli(["continue", "--a", "-1,1,-1,1", "--n", "8",
                    "--max-points", "4", "--s0", s0], tmp_path)
    assert code == 1
    error = json.loads((tmp_path / "error.json").read_text())
    assert error["error"] == "CannotStartError"
    assert error["message"] == ("cannot-start: correction-failed: secant of "
                                "length 0.0")
    assert capsys.readouterr().err.startswith("error: cannot-start")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_continue_refuses_a_zero_length_later_secant(tmp_path):
    # the second step grows to h_max = 1e-300, whose secant has length 0:
    # that correction fails, and its halved step is below h_min
    assert run_cli(["continue", "--a", "-1,1,-1,1", "--n", "8",
                    "--max-points", "4", "--h-min", "1e-300",
                    "--h-max", "1e-300"], tmp_path) == 0
    for tag in ("plus", "minus"):
        path = tmp_path / f"branch_{tag}.csv"
        rows = read_csv(path)
        assert len(rows) == 2
        assert all(np.isfinite(float(v)) for row in rows
                   for v in row.values())
        assert path.read_text().splitlines()[-1] == (
            "# termination: step_limit")


def test_continue_one_point_budget(tmp_path):
    assert run_cli(["continue", "--a", "-1,1,-1,1", "--n", "16",
                    "--max-points", "1"], tmp_path) == 0
    for tag in ("plus", "minus"):
        path = tmp_path / f"branch_{tag}.csv"
        assert len(read_csv(path)) == 1
        last = path.read_text().splitlines()[-1]
        assert last == "# termination: step_limit"
    assert len(read_csv(tmp_path / "diagram.csv")) == 2


def _wave_file(path, a, c=2.2):
    tone = {"fold": 1, "cos": [0.01] + [0.0] * 7, "sin": [0.0] * 8,
            "parity": "even-cosine"}
    path.write_text(json.dumps({"a": a, "c": c, "series": {
        name: tone for name in steady.COMPONENT_NAMES}}))
    return str(path)


@pytest.mark.parametrize("a, extra", [
    # a = +-1e10 gives dt ~ 3e-12 against a horizon of 2.9: ~9e11 steps
    ([-1e10, 1e10, -1e10, 1e10], []),
    ([-1, 1, -1, 1], ["--steps", str(cli.MAX_STEPS + 1)]),
])
def test_evolve_refuses_too_many_steps(a, extra, tmp_path, capsys):
    wave = _wave_file(tmp_path / "wave.json", a)
    code = run_cli(["evolve", "--a", "-1,1,-1,1", "--from-wave", wave]
                   + extra, tmp_path)
    assert code == 2
    found = re.search(r"evolve needs (\d+) time steps, more than the "
                      r"(\d+) allowed", capsys.readouterr().err)
    assert int(found[2]) == cli.MAX_STEPS
    want = int(extra[1]) if extra else 9e11
    assert int(found[1]) == pytest.approx(want, rel=0.1)
    assert not (tmp_path / "trajectory.csv").exists()


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


def test_wave_file_rewrites_to_the_same_bytes(tmp_path):
    # write -> read -> write: the snapshot read back and written in the
    # same way (cli._write_json) gives the file's bytes
    assert run_cli(["continue", "--a", "-1,1,-1,1", "--n", "16", "--arm",
                    "+", "--max-points", "2", "--snapshot-every", "1"],
                   tmp_path) == 0
    path = tmp_path / "wave_plus_0001.json"
    text = path.read_text()
    obj = json.loads(text)
    layer, c, state = cli._load_wave(path)
    sol = steady.WaveSolution(layer, c, state, obj["residual_norm"],
                              (obj["m1"], obj["m2"]), obj["krylov_iters"],
                              obj["dense_solves"])
    payload = dict(sol.to_json(), config=obj["config"])
    assert json.dumps(payload) == text


def test_program_path_builds_no_series(tmp_path, monkeypatch):
    # continuation, wave snapshots and both --from-wave commands work on
    # coefficient arrays alone: a TrigSeries built anywhere would fail
    def refuse(*args, **kwargs):
        raise AssertionError("a TrigSeries was built")

    monkeypatch.setattr(spectral.TrigSeries, "__init__", refuse)
    assert run_cli(["continue", "--a", "-1,1,-1,1", "--n", "16",
                    "--max-points", "3", "--snapshot-every", "1"],
                   tmp_path) == 0
    wave = str(tmp_path / "wave_plus_0002.json")
    assert run_cli(["evolve", "--a", "-1,1,-1,1", "--from-wave", wave,
                    "--periods", "0.05"], tmp_path) == 0
    assert run_cli(["ep", "--a", "-1,1,-1,1", "--from-wave", wave],
                   tmp_path) == 0
    assert not (tmp_path / "error.json").exists()
    with pytest.raises(AssertionError, match="TrigSeries"):
        spectral.TrigSeries.from_cos(1, [1.0])


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


def test_large_symmetric_modes_exit_by_admissibility(tmp_path, capsys):
    # m = 1000: the doubled mode is regular and the expansion is written;
    # m = 10^6: both speeds lie within round-off of an interface, which
    # is a usage error
    argv = ["local", "--a", "-1,1,-1,1", "--speed-index", "-"]
    assert run_cli(argv + ["--m", "1000"], tmp_path) == 0
    assert json.loads((tmp_path / "local.json").read_text())["m"] == 1000
    capsys.readouterr()
    assert run_cli(argv + ["--m", "1000000"], tmp_path / "far") == 2
    assert "no admissible speed" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["evolve", "ep"])
def test_diverging_wave_error_records_the_wave_configuration(command,
                                                             tmp_path):
    # the run fails after the wave is loaded: error.json names the wave's
    # velocities, fold and truncation, not --a, --m and --n
    tone = {"fold": 1, "cos": [1e200] + [0.0] * 7, "sin": [0.0] * 8,
            "parity": "even-cosine"}
    wave = tmp_path / "wave.json"
    wave.write_text(json.dumps({"a": [-1, 1, -1, 1], "c": 2.2, "series": {
        name: tone for name in steady.COMPONENT_NAMES}}))
    assert run_cli([command, "--a", "0,1,1,2", "--m", "3",
                    "--from-wave", str(wave)], tmp_path) == 1
    report = json.loads((tmp_path / "error.json").read_text())
    assert report["error"] == "DivergedError"
    config = report["config"]
    assert config["a"] == [-1.0, 1.0, -1.0, 1.0]
    assert (config["m"], config["n"]) == (1, 8)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json",
                                                         "wave.json"]


# Vocabulary of the CLI fuzz test: every option with typical, boundary
# and malformed values.  The cost bounds (n <= 16, max_points <= 4,
# periods <= 0.05, few steps) are appended after the drawn tokens, so
# they win over drawn values of the same options.
FUZZ_VALUES = {
    "--a": ["-1,1,-1,1", "0,1,2.5,3.5", "0,1,1,2", "1.83,3.552,0.108,1.83",
            "-1,1,-1", "0,1,2,4", "a,b,c,d", "nan,1,2,3", "1e999,1,1,1",
            "-1e200,1e200,-1e200,1e200"],
    "--m": ["1", "2", "3", "0", "-1", "7", "x", str(10 ** 41)],
    "--n": ["8", "12", "16", "7", "0", "-3", "1e3", "x"],
    "--s": ["2", "0", "-1", "1e3", "nan"],
    "--sigma": ["0.1", "0", "-0.1", "50", "inf"],
    "--tol": ["1e-11", "1e-3", "0", "-1", "1e-300"],
    "--speed-index": ["+", "-", "0", "1", "3", "9", "-1", "up"],
    "--arm": ["both", "+", "-", "up"],
    "--s0": ["1e-3", "0.1", "0", "-1", "1e10"],
    "--h-min": ["1e-7", "1e-3", "0", "0.5"],
    "--h-max": ["0.1", "1e-4", "0", "-1"],
    "--max-points": ["1", "3", "0", "x"],
    "--snapshot-every": ["0", "1", "2", "-1"],
    "--amp": ["0.01", "0", "-0.5", "1", "x"],
    "--dt": ["0", "1e-3", "0.5", "-0.1", "x"],
    "--steps": ["0", "1", "5", "-2", "x"],
    "--periods": ["0.05", "0.01", "0", "-1", "x"],
    "--store-every": ["0", "1", "3", "-1"],
}
FUZZ_OPTIONS = {  # options of each command besides the common ones
    command: [cli.flag(name) for name in own]
    for command, (_, own) in cli.COMMANDS.items()}
FUZZ_COMMON = [cli.flag(name) for name in cli.COMMON_OPTIONS]
FUZZ_JUNK = ["", "-", "--", "--bogus", "--help", "-h", "x", "=", "--a=",
             "--n=", "é", "1,2", "None", "\x00"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths the fuzz test draws --config, --from-wave and --out from."""
    root = tmp_path_factory.mktemp("fuzz")
    tone = {"fold": 1, "cos": [0.01] + [0.0] * 7, "sin": [0.0] * 8,
            "parity": "even-cosine"}
    huge = dict(tone, cos=[1e200] + [0.0] * 7)
    for name, series in (("wave.json", tone), ("diverging.json", huge)):
        (root / name).write_text(json.dumps({
            "a": [-1, 1, -1, 1], "c": 2.2,
            "series": {k: series for k in steady.COMPONENT_NAMES}}))
    (root / "good.conf").write_text("a = -1,1,-1,1\nn = 8\n")
    (root / "typo.conf").write_text("a = -1,1,-1,1\nmax_point = 3\n")
    (root / "junk.txt").write_bytes(b"\xff\xfe{not json")
    paths = [str(root / p) for p in ("wave.json", "diverging.json",
                                     "good.conf", "typo.conf", "junk.txt",
                                     "missing")]
    return root, paths


@st_.composite
def fuzz_argv(draw, paths):
    """[command, tokens..., cost bounds]; mostly a real command and
    option-value pairs, sometimes junk in any place."""
    junk = st_.sampled_from(FUZZ_JUNK) | st_.text(max_size=4).filter(
        lambda t: not t.startswith("--"))
    if draw(st_.integers(0, 9)) == 0:
        command = draw(junk)
    else:
        command = draw(st_.sampled_from(sorted(FUZZ_OPTIONS)))
    own = st_.sampled_from(FUZZ_COMMON + FUZZ_OPTIONS.get(command, []))
    anywhere = st_.sampled_from(FUZZ_COMMON + sorted(FUZZ_VALUES)
                                + ["--from-wave"])
    tokens = []
    for _ in range(draw(st_.integers(0, 5))):
        kind = draw(st_.integers(0, 9))
        if kind <= 7:
            flag = draw(own if kind <= 6 else anywhere)
            tokens.append(flag)
            if kind <= 5:  # a flag and one of its values
                tokens.append(draw(st_.sampled_from(
                    FUZZ_VALUES.get(flag, paths))))
        else:
            tokens.append(draw(junk))
    bounds = {"continue": ["--n", draw(st_.sampled_from(["8", "16"])),
                           "--max-points", draw(st_.sampled_from(["1", "4"]))],
              "evolve": ["--n", draw(st_.sampled_from(["8", "16"])),
                         "--periods", draw(st_.sampled_from(["0.01", "0.05"])),
                         "--steps", draw(st_.sampled_from(["0", "3"])),
                         "--amp", "0.01"]}
    return [command] + tokens + bounds.get(command, [])


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st_.data())
def test_cli_fuzz_exit_codes(fuzz_files, data, capsys):
    # any argv: exit 0, 1 or 2 and never an uncaught exception; the draws
    # are derandomized so that the suite's outcome is reproducible
    root, paths = fuzz_files
    argv = data.draw(fuzz_argv(paths))
    # drawn tokens come after a default output directory and layer
    code = cli.main(argv[:1] + ["--out", str(root / "out"),
                                "--a", "-1,1,-1,1"] + argv[1:])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err
