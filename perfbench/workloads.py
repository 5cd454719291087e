"""The three benchmark workloads.

Each workload makes its inputs from the seed in `setup`, runs one pass
of work in `run_pass` (the timed unit), and checks a pass in `check`,
which returns the pass's fingerprint, its problems and the number of
failed operations.  A reference of None skips the fingerprint
comparison; make_reference.py uses that to record the references.

* continue-sym: `layerwaves continue --a -1,1,-1,1 --m 1` with default
  options, both arms.  N doubles from 64 to 256, so large-N layers
  (dense solve, monitors, Jacobian) do most of the work.  The seed is
  recorded and has no effect.
* evolve-period: one spatial period of RK4 from a moderate-amplitude
  "+"-arm snapshot at N=64, translated by a seeded phase.  Per-step
  series overhead does the work; steady-state layers do none, so a
  continuation optimisation must leave it unchanged.
* scan-small: a seeded sample of configurations across the symmetric,
  successive and generic regimes, m = 1..3, every admissible speed.
  Each case runs the speeds, the local expansion, a short arm at a fixed
  N=16 and, on symmetric cases, the Euler-Poisson residual.  Many calls
  at small N, where per-call overhead dominates; the only workload that
  runs pencil, localbranch and eulerpoisson.
"""

import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-11        # default Newton tolerance of the CLI
MIRROR_TOL = 1e-9           # acceptance criterion 7
PROFILE_TOL = 1e-6          # acceptance criterion 9
DRIFT_TOL = 1e-8            # acceptance criterion 9
EP_TOL = 1e-8               # acceptance criterion 10
FINGERPRINT_RTOL = 1e-9     # "to round-off" for reals in fingerprints

SYMMETRIC_A = (-1.0, 1.0, -1.0, 1.0)


@dataclass
class Pass:
    start: float                # perf_counter bounds of the timed unit
    end: float
    work: int                   # accepted points or RK4 steps
    intervals: list = field(default_factory=list)  # (start, end) per op
    data: dict = field(default_factory=dict)


def compare(got, want, path=""):
    """Problems where a fingerprint differs from its reference."""
    if want is None:
        return [f"{path}: no reference"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [p for k in want for p in compare(got[k], want[k],
                                                 f"{path}/{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if abs(got - want) <= FINGERPRINT_RTOL * max(abs(want), 1e-3):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]


def _arm_fingerprint(branch):
    last = branch.points[-1].solution
    return {"c": float(last.c), "points": len(branch.points),
            "N": int(last.state.count), "label": branch.termination.label()}


def _residual_problems(lw, cfg, branch, tag):
    st = lw["steady"]
    problems = []
    for i, point in enumerate(branch.points):
        sol = point.solution
        sup = float(np.max(np.abs(st.residual_vector(cfg, sol.c, sol.state))))
        if not sup <= RESIDUAL_TOL:
            problems.append(f"{tag} point {i}: residual {sup:.3e} > tol")
    return problems


class ContinueSym:
    """The CLI's default symmetric continuation, both arms."""

    name = "continue-sym"

    def __init__(self, lw, tiny, workdir):
        self.lw = lw
        self.tiny = tiny
        self.workdir = Path(workdir)
        # the tiny size only serves the harness self-check
        self.extra = ["--n", "16", "--max-points", "6"] if tiny else []

    def setup(self, seed):
        command = ["continue", "--a", "-1,1,-1,1", "--m", "1"]
        warm = self.workdir / "warm"
        shutil.rmtree(warm, ignore_errors=True)
        self.lw["cli"].main(command + ["--n", "8", "--max-points", "3",
                                       "--out", str(warm)])
        out = self.workdir / "out"
        return {"seed": seed, "out": out,
                "argv": command + ["--out", str(out)] + self.extra}

    def run_pass(self, inputs):
        cli, ct = self.lw["cli"], self.lw["continuation"]
        shutil.rmtree(inputs["out"], ignore_errors=True)
        captured = []
        trace_arm = ct.trace_arm

        def capture(*args, **kwargs):
            branch = trace_arm(*args, **kwargs)
            captured.append(branch)
            return branch

        ct.trace_arm = capture
        start = time.perf_counter()
        try:
            code = cli.main(inputs["argv"])
        except Exception:  # undiagnosed: counted as a failed operation
            code = traceback.format_exc()
        finally:
            ct.trace_arm = trace_arm
        end = time.perf_counter()
        out_bytes = sum(f.stat().st_size for f in inputs["out"].glob("*"))
        return Pass(start, end, work=sum(len(b.points) for b in captured),
                    intervals=[(start, end)],
                    data={"code": code, "branches": captured,
                          "out_bytes": out_bytes})

    def check(self, inputs, p, reference):
        """(fingerprint, problems, failed operations) of one pass."""
        code, branches = p.data["code"], p.data["branches"]
        if code != 0 or len(branches) != 2:
            fp = {"exit_code": code, "arms": len(branches)}
            return fp, [f"continue exited {code} with {len(branches)} arms"], 1
        plus, minus = branches
        fp = {"plus": _arm_fingerprint(plus), "minus": _arm_fingerprint(minus),
              "diagnosed_failures": 0}
        problems = []
        cfg = plus.origin.cfg
        for tag, branch in (("plus", plus), ("minus", minus)):
            lines = (inputs["out"] / f"branch_{tag}.csv").read_text().splitlines()
            if len(lines) - 3 != len(branch.points):
                problems.append(f"branch_{tag}.csv has {len(lines) - 3} rows")
            if lines[-1] != f"# termination: {branch.termination.label()}":
                problems.append(f"branch_{tag}.csv footer {lines[-1]!r}")
            problems += _residual_problems(self.lw, cfg, branch, tag)
        if len(plus.points) != len(minus.points):
            problems.append("arms have different lengths")
        for i, (a, b) in enumerate(zip(plus.points, minus.points)):
            moved = a.solution.state.shifted(math.pi / plus.origin.m)
            dev = max(float(np.max(np.abs(moved.as_vector()
                                          - b.solution.state.as_vector()))),
                      abs(a.solution.c - b.solution.c))
            if not dev <= MIRROR_TOL:
                problems.append(f"arms do not mirror at point {i}: {dev:.3e}")
        if reference is not None:
            problems += compare(fp, reference, self.name)
        return fp, problems, int(bool(problems))


class EvolvePeriod:
    """One spatial period of RK4 from a translated branch snapshot."""

    name = "evolve-period"

    def __init__(self, lw, tiny, workdir):
        self.lw = lw
        self.tiny = tiny
        self.count, self.max_points = (16, 10) if tiny else (64, 20)

    def snapshot(self):
        pc, lb, ct = (self.lw[k] for k in ("pencil", "localbranch",
                                           "continuation"))
        cfg = pc.classify_config(SYMMETRIC_A)
        c_star = pc.bifurcation_speeds(1, cfg).admissible()[-1]
        origin = lb.local_expansion(1, cfg, c_star)
        opts = ct.ContinuationOptions(count=self.count,
                                      max_points=self.max_points)
        return cfg, ct.trace_arm(origin, +1, opts)

    def setup(self, seed):
        sp, dy = self.lw["spectral"], self.lw["dynamics"]
        cfg, branch = self.snapshot()
        sol = branch.points[-1].solution
        fold = sol.state.fold
        phase = float(np.random.default_rng(seed).uniform(0.0,
                                                           2 * math.pi / fold))
        start = dy.PhaseState([sp.shift(s, phase) for s in sol.state.series])
        # steps, dt and storage follow the CLI's `evolve --periods 1`
        horizon = 2.0 * math.pi / (fold * max(abs(sol.c), 1e-12))
        dt = 0.5 * dy.cfl_limit(cfg, start)
        steps = max(int(math.ceil(horizon / dt)), 1)
        dt = horizon / steps
        store = max(steps // 200, 1)
        dy.evolve(cfg, start, dt, 2)
        return {"seed": seed, "phase": phase, "cfg": cfg, "branch": branch,
                "c": float(sol.c), "start": start, "dt": dt, "steps": steps,
                "store": store, "horizon": horizon}

    def run_pass(self, inputs):
        dy = self.lw["dynamics"]
        start = time.perf_counter()
        try:
            traj = dy.evolve(inputs["cfg"], inputs["start"], inputs["dt"],
                             inputs["steps"], store_every=inputs["store"])
        except Exception:  # diagnosed or not, a lost period is a failure
            traj = traceback.format_exc()
        end = time.perf_counter()
        return Pass(start, end, work=inputs["steps"],
                    intervals=[(start, end)], data={"trajectory": traj})

    def check(self, inputs, p, reference):
        sp = self.lw["spectral"]
        traj = p.data["trajectory"]
        if isinstance(traj, str):
            return {"error": traj}, [traj], 1
        moved = [sp.shift(s, -inputs["c"] * inputs["horizon"])
                 for s in inputs["start"].series]
        x = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        sup = max(float(np.max(np.abs(got.eval(x) - want.eval(x))))
                  for got, want in zip(traj.states[-1].series, moved))
        e0, e1 = traj.energies[0].e_total, traj.energies[-1].e_total
        drift = abs(e1 - e0) / abs(e0)
        fp = {"snapshot": _arm_fingerprint(inputs["branch"]),
              "energy": float(e0)}
        problems = []
        if not sup <= PROFILE_TOL:
            problems.append(f"profile after one period off by {sup:.3e}")
        if not drift <= DRIFT_TOL:
            problems.append(f"energy drift {drift:.3e}")
        info = {"steps": inputs["steps"], "phase": inputs["phase"],
                "profile_error": sup, "energy_drift": drift}
        if reference is not None:
            problems += compare(fp, reference, self.name)
        return dict(fp, info=info), problems, int(bool(problems))


# Configurations of scan-small, in slots of two.  The seed picks one
# configuration per slot.  The two in a slot share regime and outcome
# mix and cost within about 10%, so every seed runs the same kind of
# work (64 cases, 8 configurations) while the inputs differ and
# the timings stay comparable across seeds.  The last slot is nearly
# successive (a_+^1 within 0.006 of a_-^2), so its branches start near
# resonance: six of its cases are diagnosed with CannotStartError.
SCAN_SLOTS = (
    ("symmetric", (-1.741, 1.741, -1.741, 1.741),
                  (-1.467, 1.467, -1.467, 1.467)),
    ("symmetric", (-0.524, 0.524, -0.524, 0.524),
                  (-0.592, 0.592, -0.592, 0.592)),
    ("symmetric", (-0.634, 0.634, -0.634, 0.634),
                  (-1.183, 1.183, -1.183, 1.183)),
    ("successive", (1.83, 3.552, 0.108, 1.83),
                   (1.853, 3.851, -0.145, 1.853)),
    ("successive", (0.71, 2.438, 2.438, 4.166),
                   (-0.583, 0.64, 0.64, 1.863)),
    ("generic", (0.281, 1.714, -0.635, 0.798),
                (0.108, 1.781, 1.241, 2.914)),
    ("generic", (1.52, 2.037, 2.911, 3.428),
                (1.472, 2.312, -1.171, -0.331)),
    ("generic", (-1.001, -0.016, -1.982, -0.997),
                (-1.65, -0.448, -2.846, -1.644)),
)
TINY_SLOTS = (("symmetric", (-1.0, 1.0, -1.0, 1.0), (-1.5, 1.5, -1.5, 1.5)),)


def case_key(a, m, k):
    return f"a={','.join(repr(x) for x in a)}|m={m}|k={k}"


class ScanSmall:
    """Many short cases at a fixed small truncation."""

    name = "scan-small"

    def __init__(self, lw, tiny, workdir):
        self.lw = lw
        self.tiny = tiny
        self.slots = TINY_SLOTS if tiny else SCAN_SLOTS
        self.ms = (1,) if tiny else (1, 2, 3)
        self.opts = lw["continuation"].ContinuationOptions(
            count=16, max_count=16, max_points=4 if tiny else 12)

    def cases(self, configs):
        pc = self.lw["pencil"]
        out = []
        for a in configs:
            cfg = pc.classify_config(a)
            for m in self.ms:
                for k in range(len(pc.bifurcation_speeds(m, cfg).admissible())):
                    out.append((a, m, k))
        return out

    def all_cases(self):
        return self.cases([a for _, *pair in self.slots for a in pair])

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        configs = [pair[int(rng.integers(2))] for _, *pair in self.slots]
        cases = self.cases(configs)
        self.run_case(cases[0], max_points=2)
        return {"seed": seed, "configs": configs, "cases": cases}

    def run_case(self, case, max_points=None):
        pc, lb, ct, ep = (self.lw[k] for k in ("pencil", "localbranch",
                                               "continuation", "eulerpoisson"))
        a, m, k = case
        opts = self.opts
        if max_points is not None:
            opts = ct.ContinuationOptions(count=16, max_count=16,
                                          max_points=max_points)
        try:
            cfg = pc.classify_config(a)
            c_star = pc.bifurcation_speeds(m, cfg).admissible()[k]
            origin = lb.local_expansion(m, cfg, c_star)
            branch = ct.trace_arm(origin, +1, opts)
            ep_sup = None
            if cfg.regime == "symmetric":
                mid = branch.points[len(branch.points) // 2].solution
                _, sups = ep.ep_residual(ep.map_to_ep(cfg, mid))
                ep_sup = max(sups.values())
        except self.lw["errors"].LayerError as exc:
            return {"outcome": type(exc).__name__}
        except Exception:  # undiagnosed: counted as a failed operation
            return {"outcome": "undiagnosed", "error": traceback.format_exc()}
        return {"outcome": branch.termination.label(), "cfg": cfg,
                "branch": branch, "ep_sup": ep_sup}

    def run_pass(self, inputs):
        results, intervals = [], []
        for case in inputs["cases"]:
            t0 = time.perf_counter()
            results.append(self.run_case(case))
            intervals.append((t0, time.perf_counter()))
        work = sum(len(r["branch"].points) for r in results if "branch" in r)
        return Pass(intervals[0][0], intervals[-1][1], work=work,
                    intervals=intervals, data={"results": results})

    @staticmethod
    def case_fingerprint(result):
        if "branch" not in result:
            return {"outcome": result["outcome"]}
        return dict(_arm_fingerprint(result["branch"]),
                    outcome=result["outcome"])

    def check(self, inputs, p, reference):
        """Each case with a problem is one failed operation."""
        problems, failed = [], 0
        diagnosed = {}
        for case, result in zip(inputs["cases"], p.data["results"]):
            key = case_key(*case)
            fp = self.case_fingerprint(result)
            found = ([] if reference is None
                     else compare(fp, reference.get(key), f"{self.name}/{key}"))
            if result["outcome"] == "undiagnosed":
                found.append(result["error"])
            elif "branch" not in result:
                diagnosed[result["outcome"]] = diagnosed.get(result["outcome"],
                                                             0) + 1
            else:
                found += _residual_problems(self.lw, result["cfg"],
                                            result["branch"], key)
                if result["ep_sup"] is not None and not result["ep_sup"] <= EP_TOL:
                    found.append(f"{key}: Euler-Poisson residual "
                                 f"{result['ep_sup']:.3e}")
            if found:
                problems += found
                failed += 1
        fps = [self.case_fingerprint(r) for r in p.data["results"]]
        summary = {"cases": len(fps), "points": p.work,
                   "diagnosed_failures": diagnosed,
                   "sum_final_c": float(sum(f.get("c", 0.0) for f in fps)),
                   "labels": sorted({f["outcome"] for f in fps})}
        return summary, problems, failed


WORKLOADS = {w.name: w for w in (ContinueSym, EvolvePeriod, ScanSmall)}
