"""The command lines that guard the paper's claims, each run in process
by cli.main and its outputs checked at a stated bound."""

import json
import math

import pytest

from test_cli import read_csv, run_cli

SYM = ["--a", "-1,1,-1,1"]
GENERIC = ["--a", "0.281,1.714,-0.635,0.798"]


def arm(args, out):
    """The + arm's rows and termination line of a continue run."""
    assert run_cli(["continue"] + args, out) == 0
    path = out / "branch_plus.csv"
    return read_csv(path), path.read_text().splitlines()[-1]


def drift(rows, bound, mirror=False):
    """An evolve trajectory of more than one row whose relative e_total
    drift from first to last row is at most bound; with mirror, every
    row also has sup_minus_i = sup_plus_i to 1e-12 relative."""
    e0, e1 = float(rows[0]["e_total"]), float(rows[-1]["e_total"])
    assert len(rows) > 1 and abs(e1 - e0) / abs(e0) <= bound
    for row in rows if mirror else ():
        for i in (1, 2):
            plus = float(row[f"sup_plus{i}"])
            assert abs(float(row[f"sup_minus{i}"]) - plus) / plus <= 1e-12


@pytest.fixture(scope="module")
def snap64(tmp_path_factory):
    """A snapshot of the default + arm at N = 64."""
    out = tmp_path_factory.mktemp("snap64")
    arm(SYM + ["--n", "64", "--max-points", "20", "--snapshot-every", "19",
               "--arm", "+"], out)
    return str(out / "wave_plus_0019.json")


def test_local_expansions(tmp_path):
    assert run_cli(["local"] + SYM, tmp_path / "sym") == 0
    assert (tmp_path / "sym" / "local.json").exists()
    # a narrow strip (width 1e-8) has a regular doubled mode: its secular
    # value is 3/4 at every speed of mode m, so the local expansion
    # exists, with a second harmonic of about -1.77e11
    assert run_cli(["local", "--a", "0,1e-8,0,1e-8"], tmp_path) == 0
    amp = json.loads((tmp_path / "local.json").read_text())[
        "second_harmonic_amp"]
    assert len(amp) == 4 and all(-1.78e11 < t < -1.76e11 for t in amp)


def test_ep_speeds_report_reads_the_determinant_roots(tmp_path):
    # at (-1, 1, -1, 1), m = 1 the + root is sqrt(5), and it matches the
    # closed form sqrt(1 + 4/(a m^2)), computed apart from it
    assert run_cli(["ep"] + SYM + ["--n", "16"], tmp_path) == 0
    assert (tmp_path / "ep_residual.csv").exists()
    report = json.loads((tmp_path / "ep.json").read_text())["speeds_report"]
    assert abs(report["quartic"][1] - math.sqrt(5.0)) <= 1e-12
    assert report["matched_form"] == "sqrt(1 + 4/(a m^2))"


def test_snapshot_maps_to_euler_poisson(snap64, tmp_path):
    # four residual rows, each sup <= 1e-8, and a positive density
    assert run_cli(["ep"] + SYM + ["--from-wave", snap64], tmp_path) == 0
    sups = [float(row["sup"])
            for row in read_csv(tmp_path / "ep_residual.csv")]
    assert len(sups) == 4 and max(sups) <= 1e-8
    assert json.loads((tmp_path / "ep.json").read_text())["min_density"] > 0.0


def test_period_from_a_snapshot_keeps_its_energy(snap64, tmp_path):
    # the snapshot lies on the symmetric fixed space r_minus_i = T r_plus_i,
    # whose two plus rows evolve steps
    assert run_cli(["evolve"] + SYM + ["--from-wave", snap64,
                                       "--periods", "1"], tmp_path) == 0
    drift(read_csv(tmp_path / "trajectory.csv"), 1e-8, mirror=True)


@pytest.mark.parametrize("args, bound, mirror", [
    pytest.param(SYM + ["--n", "16", "--periods", "0.1"], 1e-8, True,
                 id="kernel-mode"),
    # a generic layer evolves on all four rows
    pytest.param(["--a", "-1.65,-0.448,-2.846,-1.644", "--m", "1", "--n",
                  "32", "--periods", "1"], 1e-8, False, id="generic"),
    # fold 3 on a table grid, on the two plus rows: the RK4 stage's
    # derivative output is scaled by (dt/2)(-3/2), not a power of two;
    # the drift read 3.0e-13, and 5.5e-5 with the fold left out
    pytest.param(SYM + ["--m", "3", "--n", "16"], 1e-11, True, id="fold3"),
    # at N = 128 the RK4 stage's squares go through real FFTs (4N^2 is
    # above spectral.TABLE_MAX_SIZE)
    pytest.param(GENERIC + ["--n", "128", "--periods", "0.05"], 1e-10, False,
                 id="fft"),
])
def test_evolve_keeps_its_energy(args, bound, mirror, tmp_path):
    assert run_cli(["evolve"] + args, tmp_path) == 0
    drift(read_csv(tmp_path / "trajectory.csv"), bound, mirror)


def test_snapshot_evolves_on_the_fft_side(tmp_path):
    # an N = 128 snapshot (4N^2 above spectral.TABLE_MAX_SIZE), on its
    # two plus rows, with the drift bound of the N = 64 period
    arm(SYM + ["--n", "128", "--max-points", "3", "--snapshot-every", "1"],
        tmp_path)
    wave = str(tmp_path / "wave_plus_0002.json")
    assert run_cli(["evolve"] + SYM + ["--from-wave", wave,
                                       "--periods", "0.1"],
                   tmp_path / "evolve") == 0
    drift(read_csv(tmp_path / "evolve" / "trajectory.csv"), 1e-8)


def test_headline_arms_end_in_blow_up(tmp_path):
    arm(SYM + ["--m", "1"], tmp_path)
    for tag in ("plus", "minus"):
        path = tmp_path / f"branch_{tag}.csv"
        rows = read_csv(path)
        assert len(rows) == 29
        assert path.read_text().splitlines()[-1] == "# termination: blow_up"
        assert abs(float(rows[-1]["c"]) - 2.3514121888586477) <= 1e-9


# Below N = 64 every Newton step is a dense solve into one bordered
# matrix, from there on a GMRES solve (continuation.KRYLOV_MIN_COUNT).
@pytest.mark.parametrize("args, count, c, krylov", [
    # the + arm of the symmetric fixed space, on its two plus rows
    pytest.param(SYM + ["--n", "16", "--max-points", "6"], 6,
                 2.236075730461238, False, id="dense-fixed-space"),
    # a generic layer's arm, on all four rows
    pytest.param(GENERIC + ["--m", "1", "--n", "16", "--max-points", "12",
                            "--arm", "+"], 12, 2.5593335423877046, False,
                 id="dense-generic"),
    # the default N = 64, each Newton step linearized at the grid values
    # its accepted residual wrote
    pytest.param(SYM + ["--max-points", "8", "--arm", "+"], 8,
                 2.2360945215257435, True, id="krylov"),
    # four-row flexible GMRES on the FFT side (4N^2 above
    # spectral.TABLE_MAX_SIZE)
    pytest.param(GENERIC + ["--n", "128", "--max-points", "4", "--arm", "+"],
                 4, None, True, id="krylov-fft"),
])
def test_continue_arm_solves_by_its_truncation(args, count, c, krylov,
                                               tmp_path):
    rows, end = arm(args, tmp_path)
    assert len(rows) == count and end == "# termination: step_limit"
    assert c is None or abs(float(rows[-1]["c"]) - c) <= 1e-9
    for row in rows:
        used = int(row["krylov_iters"]), int(row["dense_solves"])
        assert (used[0] >= 1, used[1] >= 1) == (krylov, not krylov)


def test_m3_arm_stalls_toward_a_degenerate_state(tmp_path):
    # its last corrections stall in GMRES and fail: no point comes from a
    # dense solve, and the arm stops at its step budget with m2 near 1e-2
    rows, end = arm(SYM + ["--m", "3", "--n", "64", "--max-points", "11"],
                    tmp_path)
    assert len(rows) == 11 and end == "# termination: step_limit"
    assert not any(int(row["dense_solves"]) for row in rows)
    assert 5e-3 < float(rows[-1]["m2"]) < 2e-2


def test_inner_m3_speed_cannot_start(tmp_path):
    # a generic m = 3 inner speed: its first correction's GMRES stalls
    assert run_cli(["continue", "--a=-1.65,-0.448,-2.846,-1.644", "--m", "3",
                    "--speed-index", "1"], tmp_path) == 1
    message = json.loads((tmp_path / "error.json").read_text())["message"]
    assert "cannot-start: correction-failed: GMRES stalled" in message
