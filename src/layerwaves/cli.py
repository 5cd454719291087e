"""Command-line front end.

Subcommands: speeds | local | continue | evolve | ep.  Outputs are JSON
for structured state and CSV for anything plotted; every file embeds the
resolved run configuration.  Exit codes: 0 success, 1 solver failure
(with a machine-readable error file), 2 usage.
"""

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import continuation as ct
from . import dynamics as dy
from . import eulerpoisson as ep
from . import localbranch as lb
from . import pencil as pc
from . import steady as st
from .errors import ConfigError, DivergedError, LayerError, WaveFileError
from .spectral import NormParams, norm_weight

# Largest accepted truncation, --n or a wave file's N.  From N = 64 on,
# Newton forms no matrix: a GMRES basis takes 1.3 MB at this bound.
MAX_N = 1024
# Largest number of RK4 steps `evolve` takes, given or computed from the
# horizon.
MAX_STEPS = 10 ** 7


@dataclass
class RunConfig:
    command: str
    a: tuple
    m: int = 1
    n: int = ct.ContinuationOptions.count
    s: float = NormParams.s
    sigma: float = NormParams.sigma
    tol: float = ct.ContinuationOptions.newton_tol
    out: str = "out"
    speed_index: str = "+"
    arm: str = "both"
    s0: float = ct.ContinuationOptions.s0
    h_min: float = ct.ContinuationOptions.h_min
    h_max: float = ct.ContinuationOptions.h_max
    max_points: int = ct.ContinuationOptions.max_points
    snapshot_every: int = 10
    from_wave: str = ""
    amp: float = 0.01
    dt: float = 0.0
    steps: int = 0
    periods: float = 1.0
    store_every: int = 0


# The flags of every command (each command's own are in COMMANDS).
# A flag --x-y sets the RunConfig field x_y; --config names a flat
# key = value file of the command's own fields, which flags override.
COMMON_OPTIONS = ("a", "m", "n", "s", "sigma", "tol", "config", "out")
HELP = {
    "a": "four interface velocities w,x,y,z",
    "m": "fold symmetry",
    "n": f"harmonic truncation (8 to {MAX_N})",
    "s": "regularity index of the coefficient norm",
    "sigma": "analyticity width of the coefficient norm",
    "tol": "Newton residual tolerance",
    "config": "flat key=value file; command-line flags override it",
    "out": "output directory",
    "speed_index": "admissible speed: +, -, or 0-based index (ascending)",
    "arm": "pitchfork arm: both, + or -",
    "s0": "kernel amplitude of the first point",
    "h_min": "smallest arclength step",
    "h_max": "largest arclength step",
    "max_points": "branch points per arm",
    "snapshot_every": "write every k-th point as a wave file (0: none)",
    "from_wave": "wave snapshot JSON to start from",
    "amp": "kernel-mode amplitude when no snapshot is given",
    "dt": "time step (default: half the stability limit)",
    "steps": "time steps (default: from the horizon)",
    "periods": "horizon in spatial periods (used without --steps)",
    "store_every": "store every k-th step (default: about 200 stored)",
}
# Simple bounds; the checks between fields are in _check_ranges.
AT_LEAST = {"m": 1, "n": 8, "max_points": 1}
POSITIVE = ("tol", "s0", "h_min", "h_max", "periods")
NONNEGATIVE = ("s", "sigma", "dt", "steps", "store_every", "snapshot_every")


def flag(name):
    return "--" + name.replace("_", "-")


def _read_config_file(path):
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not text
        raise ConfigError(f"cannot read config file: {exc}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _parse_velocities(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 4:
        raise ConfigError("expected four interface velocities w,x,y,z")
    return tuple(_convert("a", p, float) for p in parts)


def _convert(key, val, kind):
    """Typed value (str, int or finite float) of one option given on the
    command line or in a file."""
    if kind is str:
        return str(val)
    try:
        out = kind(val)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {noun}, got {val!r}") from None
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {val!r}")
    return out


def _check_ranges(cfg):
    layer = pc.classify_config(cfg.a)  # ConfigError names the widths
    for key, low in AT_LEAST.items():
        if getattr(cfg, key) < low:
            raise ConfigError(f"{key} must be at least {low}")
    if cfg.n > MAX_N:
        raise ConfigError(f"n must be at most {MAX_N}")
    for key in POSITIVE:
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    for key in NONNEGATIVE:
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be nonnegative")
    if not pc.pencil_is_finite(cfg.m, layer):
        raise ConfigError(f"fold m and velocities overflow the pencil: "
                          f"20 m^2 (1 + max|a|) must stay below "
                          f"{pc.MAX_PENCIL_ENTRY:.3g}")
    if cfg.command == "continue":  # the one command that weighs harmonics
        top = max(cfg.n, ct.ContinuationOptions.max_count)
        with np.errstate(over="ignore"):
            weight = norm_weight(top, NormParams(cfg.s, cfg.sigma))
        if not np.all(np.isfinite(weight)):
            raise ConfigError(f"norm weight j^(2s) e^(2 sigma j) overflows "
                              f"below harmonic {top}")
    if cfg.h_min > cfg.h_max:
        raise ConfigError(f"h_min={cfg.h_min:g} exceeds h_max={cfg.h_max:g}")
    if cfg.arm not in ("both", "+", "-"):
        raise ConfigError(f"arm must be both, + or -, got {cfg.arm!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="layerwaves",
        description="Traveling waves and bifurcation branches of "
                    "two-species plasma interface layers")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, own, _) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in COMMON_OPTIONS + own:
            p.add_argument(flag(name), action="append", help=HELP[name])
    return parser


def _merge_value_flags(argv):
    """Join '--a -1,1,-1,1' into '--a=-1,1,-1,1' so negative velocity
    lists are not mistaken for options."""
    out, skip = [], False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--a" and i + 1 < len(argv):
            out.append(f"--a={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def parse(argv):
    ns = build_parser().parse_args(_merge_value_flags(argv))
    flags = {}  # every value given to each flag, in order
    for key, given in vars(ns).items():
        if key == "command" or given is None:
            continue
        if any(isinstance(val, list) for val in given):  # "--key=--"
            raise ConfigError(f"option {key!r} needs a value")
        flags[key] = given
    config = flags.pop("config", [""])[-1]
    values = {key: [val] for key, val in
              (_read_config_file(config) if config else {}).items()}
    values.update(flags)  # a flag overrides the file

    if "a" not in values:
        raise ConfigError("missing interface velocities (--a w,x,y,z)")
    cfg = RunConfig(command=ns.command,
                    a=_parse_velocities(values.pop("a")[-1]))
    kinds = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)
             if f.name not in ("a", "command")}
    for key, given in values.items():
        if key not in kinds:
            raise ConfigError(f"unknown option {key!r}")
        if key not in COMMANDS[ns.command][1] + COMMON_OPTIONS:
            raise ConfigError(f"{ns.command} takes no option {key!r}")
        for val in given:  # every value is checked; the last one counts
            setattr(cfg, key, _convert(key, val, kinds[key]))
    _check_ranges(cfg)
    return cfg


def _pick_speed(run, layer):
    speeds = pc.bifurcation_speeds(run.m, layer).admissible()
    if not speeds:
        raise ConfigError(f"mode m={run.m} has no admissible speed")
    token = run.speed_index
    if token == "+":
        return speeds[-1]
    if token == "-":
        return speeds[0]
    try:
        idx = int(token)
    except ValueError:
        raise ConfigError(f"speed index must be +, - or an integer, "
                          f"got {token!r}") from None
    if not 0 <= idx < len(speeds):
        raise ConfigError(f"speed index {idx} out of range "
                          f"(have {len(speeds)} admissible)")
    return speeds[idx]


def _write_json(path, payload, run):
    payload = dict(payload)
    payload["config"] = asdict(run)
    path.write_text(json.dumps(payload))


def _write_csv(path, rows, run, footer=None):
    """Rows keyed by column name, under one header of the first row's keys."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(asdict(run))}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        if footer:
            fh.write(footer + "\n")


def _cmd_speeds(run, layer, outdir):
    speed_set = pc.bifurcation_speeds(run.m, layer)
    _write_json(outdir / "speeds.json", speed_set.to_json(), run)


def _cmd_local(run, layer, outdir):
    c_star = _pick_speed(run, layer)
    expansion = lb.local_expansion(run.m, layer, c_star)
    _write_json(outdir / "local.json", expansion.to_json(), run)


def _make_options(run):
    return ct.ContinuationOptions(
        count=run.n, s0=run.s0, h_min=run.h_min, h_max=run.h_max,
        newton_tol=run.tol, max_points=run.max_points,
        norm_params=NormParams(run.s, run.sigma))


def _write_branch(branch, tag, run, outdir):
    rows = branch.csv_rows()
    footer = f"# termination: {branch.termination.label()}"
    _write_csv(outdir / f"branch_{tag}.csv", rows, run, footer)
    for i, point in enumerate(branch.points):
        if run.snapshot_every and i % run.snapshot_every == 0:
            _write_json(outdir / f"wave_{tag}_{i:04d}.json",
                        point.solution.to_json(), run)
    return rows


def _cmd_continue(run, layer, outdir):
    c_star = _pick_speed(run, layer)
    expansion = lb.local_expansion(run.m, layer, c_star)
    opts = _make_options(run)
    arms = {}
    if run.arm in ("both", "+"):
        arms["plus"] = ct.trace_arm(expansion, +1, opts)
    if run.arm in ("both", "-"):  # with both, the image of the + arm
        arms["minus"] = ct.trace_arm(expansion, -1, opts,
                                     plus=arms.get("plus"))
    diagram = []
    for tag, branch in arms.items():
        rows = _write_branch(branch, tag, run, outdir)
        diagram += [{"arm": tag, "s": r["s"], "c": r["c"], "amp": r["amp"]}
                    for r in rows]
    _write_csv(outdir / "diagram.csv", diagram, run)


def _load_wave(path):
    """Layer, speed and state stored in a wave snapshot JSON file."""
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not text or JSON
        raise WaveFileError(f"cannot read wave file {path}: {exc}") from None
    try:
        layer = pc.classify_config(obj["a"])
        c = float(obj["c"])
        state = st.InterfaceState.from_json(
            [obj["series"][name] for name in st.COMPONENT_NAMES])
    except KeyError as exc:
        raise WaveFileError(f"wave file {path} lacks key {exc}") from None
    except (ConfigError, OverflowError, TypeError, ValueError) as exc:
        raise WaveFileError(f"invalid wave file {path}: {exc}") from None
    if not np.isfinite(c):
        raise WaveFileError(f"invalid wave file {path}: c={c} is not finite")
    if state.count > MAX_N:
        raise WaveFileError(f"invalid wave file {path}: N={state.count} "
                            f"exceeds the bound {MAX_N}")
    if not pc.pencil_is_finite(state.fold, layer):
        raise WaveFileError(f"invalid wave file {path}: fold and "
                            f"velocities overflow the pencil")
    return layer, c, state


def _wave_run(run, layer, state):
    """The run configuration with the velocities, fold and truncation of a
    loaded wave, which the computation uses in place of --a, --m and --n."""
    return replace(run, a=tuple(layer.as_array().tolist()), m=state.fold,
                   n=state.count)


def _cmd_evolve(run, layer, outdir, wave=None):
    if wave:
        c, state = wave
    else:
        c = _pick_speed(run, layer)
        expansion = lb.local_expansion(run.m, layer, c)
        _, state = lb.predictor(expansion, run.amp, count=run.n)
    phase = dy.PhaseState.from_interface(state)
    # a start of infinite energy has diverged, whatever its step count
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(dy.energy(layer, phase).e_total):
            raise DivergedError("evolution diverged at step 0: "
                                "non-finite start energy")
    horizon = run.periods * 2.0 * np.pi / (state.fold * max(abs(c), 1e-12))
    limit = dy.cfl_limit(layer, phase)
    dt = run.dt or 0.5 * limit
    if dt > limit:
        raise ConfigError(f"dt={dt:g} exceeds the stability limit {limit:g}")
    # an explicit step count ignores the horizon
    wanted = run.steps or np.ceil(horizon / dt)
    if not wanted <= MAX_STEPS:
        raise ConfigError(f"evolve needs {wanted:.0f} time steps, more "
                          f"than the {MAX_STEPS} allowed")
    steps = max(int(wanted), 1)
    if not run.steps:
        dt = horizon / steps
    store = run.store_every or max(steps // 200, 1)
    trajectory = dy.evolve(layer, phase, dt, steps, store_every=store)
    _write_csv(outdir / "trajectory.csv", trajectory.csv_rows(), run)


@np.errstate(over="ignore", invalid="ignore")  # overflow is diagnosed
def _cmd_ep(run, layer, outdir, wave=None):
    if wave:
        sol = st.solution_at(layer, *wave)
    else:
        sol = st.solution_at(layer, 0.0, st.InterfaceState.zero(run.m, run.n))
    mapped = ep.map_to_ep(layer, sol)
    _, sups = ep.ep_residual(mapped)
    _, report = ep.ep_speeds(mapped.base_a, run.m)
    payload = mapped.to_json()
    payload["speeds_report"] = report
    payload["min_density"] = mapped.min_density()
    _write_json(outdir / "ep.json", payload, run)
    _write_csv(outdir / "ep_residual.csv",
               [{"component": k, "sup": v} for k, v in sorted(sups.items())],
               run)


# Each command's help, its own flags and its handler, which writes the
# command's output files.
COMMANDS = {
    "speeds": ("bifurcation speeds of one mode", (), _cmd_speeds),
    "local": ("local pitchfork data at one speed", ("speed_index",),
              _cmd_local),
    "continue": ("continue a branch to large amplitude",
                 ("speed_index", "arm", "s0", "h_min", "h_max",
                  "max_points", "snapshot_every"), _cmd_continue),
    "evolve": ("Hamiltonian time evolution",
               ("from_wave", "speed_index", "amp", "dt", "steps", "periods",
                "store_every"), _cmd_evolve),
    "ep": ("two-fluid correspondence and residuals", ("from_wave",), _cmd_ep),
}


def execute(run):
    layer = pc.classify_config(run.a)
    outdir = Path(run.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    _, own, handler = COMMANDS[run.command]
    try:
        if run.from_wave and "from_wave" in own:
            # from here on, outputs and error.json record the wave's run
            layer, c, state = _load_wave(run.from_wave)
            run = _wave_run(run, layer, state)
            handler(run, layer, outdir, (c, state))
        else:
            handler(run, layer, outdir)
    except ConfigError:
        raise
    except LayerError as exc:
        _write_json(outdir / "error.json",
                    {"error": type(exc).__name__, "message": str(exc)}, run)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    try:
        return execute(parse(sys.argv[1:] if argv is None else argv))
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse: --help, or a malformed command
        return exc.code if exc.code is not None else 2


if __name__ == "__main__":
    sys.exit(main())
