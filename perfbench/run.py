"""Benchmark of the layerwaves solver, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload continue-sym --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads: continue-sym, evolve-period, scan-small (see workloads.py),
or `all` to run the three in one process.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it reports per-layer
metrics from spans around calls into the layers, plus the layer-size
sweep.  Every pass is checked for correctness and its fingerprint is
compared with reference.json.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread (at most nproc), set before numpy is first imported: the
# dense solve then does not compete with other processes for the second
# core, which keeps timings steady.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import speed  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
MODULES = ("cli", "continuation", "dynamics", "errors", "eulerpoisson",
           "kernels", "localbranch", "pencil", "spectral", "steady")
SETUP_REPEATS = 5

# Metric name -> unit.  These lists match BENCHMARK.json.
END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(
    [(f"{name}.calls", "count") for name in tracing.SPAN_NAMES]
    + [("spectral.multiply.self_s", "s"), ("kernels.trig_product.self_s", "s"),
       ("kernels.trig_product.ops", "count"),
       ("spectral.TrigSeries.constructed", "count"),
       ("continuation.newton_correct.iterations", "count"),
       ("continuation.newton_correct.failures", "count"),
       ("continuation.truncation_doublings", "count"),
       ("cli.out_bytes", "bytes"), ("trace.overhead_s", "s")]
    + [(f"{layer}.N{n}_us", "us") for n in sweep.SIZES
       for layer in sweep.LAYERS])
# Also printed by the traced run, but not in BENCHMARK.json: a layer
# that a workload never calls has a self time of exactly zero.
TRACE_REPORT = dict(
    [(f"{name}.self_s", "s") for name in tracing.SPAN_NAMES]
    + [("continuation.accept_ratio", "1"), ("trace.wall_s", "s"),
       ("trace.untraced_wall_s", "s")])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes (harness self-check only)")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference fingerprints (default: %(default)s)")
    return parser.parse_args(argv)


def load_program():
    """Import the layerwaves modules from this checkout's src/."""
    if not (SRC / "layerwaves" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no layerwaves sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib
    lw = {name: importlib.import_module(f"layerwaves.{name}")
          for name in MODULES}
    if Path(lw["cli"].__file__).resolve().parent != SRC / "layerwaves":
        raise SystemExit("perfbench: layerwaves imported from outside src/")
    return lw


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, %r); "
            "t = time.perf_counter(); import layerwaves.cli; "
            "print(time.perf_counter() - t)" % str(SRC))
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def environment(lw):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "layerwaves").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "nproc": nproc(),
            "backend": lw["kernels"].backend(), "commit": commit(),
            "src_sha256": digest.hexdigest()[:16]}


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def commit():
    """HEAD of the checkout's git metadata, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Passes of one workload with their checks and fingerprints."""

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprint = None

    def check(self, p):
        if self.reference is None:
            problems = [f"{self.workload.name}: no reference"]
            failed = len(p.intervals)
            fp = None
        else:
            fp, problems, failed = self.workload.check(self.inputs, p,
                                                       self.reference)
        if self.fingerprint is None:
            self.fingerprint = fp
        elif fp != self.fingerprint:
            problems.append("fingerprint differs between passes")
            failed = max(failed, 1)
        p.data = None  # keep memory flat across passes
        self.passes.append(p)
        self.attempted += len(p.intervals)
        self.failed += failed
        self.problems += problems

    def pass_once(self):
        p = self.workload.run_pass(self.inputs)
        self.check(p)
        return p

    def fits(self, deadline):
        """True while another pass of median length fits before deadline."""
        walls = [p.end - p.start for p in self.passes]
        return time.perf_counter() + statistics.median(walls) <= deadline


def setup(workload, seed, probe):
    """Median of SETUP_REPEATS set-ups (import in a fresh interpreter plus
    input generation and warm-up), in reference and in raw seconds."""
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        probe.block()
        start = time.perf_counter()
        imported = import_seconds()
        end = time.perf_counter()
        probe.block()
        with probe.sampling():
            begin = time.perf_counter()
            inputs = workload.setup(seed)
            done = time.perf_counter()
        raw.append(imported + probe.busy(begin, done))
        ref.append(imported * probe.factor(start, end)
                   + probe.reference_seconds(begin, done))
    return statistics.median(ref), statistics.median(raw), inputs


def end_to_end(run, probe, setup_s, setup_raw):
    walls = [probe.reference_seconds(p.start, p.end) for p in run.passes]
    latencies = [probe.busy(s, e) * probe.factor(p.start, p.end)
                 for p in run.passes for s, e in p.intervals]
    work = sum(p.work for p in run.passes)
    metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s,
               "work_per_s": work / sum(walls), "peak_rss_mb": peak_rss_mb()}
    alias = "rk4_steps_per_s" if run.workload.name == "evolve-period" \
        else "points_per_s"
    raw_walls = [p.end - p.start for p in run.passes]
    extra = {alias: (metrics["work_per_s"], "1/s"),
             "passes": (len(walls), "count"),
             "failed_frac": (run.failed / max(run.attempted, 1), "1"),
             "raw.wall_s": (statistics.median(raw_walls), "s"),
             "raw.setup_s": (setup_raw, "s"),
             "raw.work_per_s": (work / sum(raw_walls), "1/s"),
             "speed.factor": (statistics.median(
                 probe.factor(p.start, p.end) for p in run.passes), "1")}
    if run.workload.name == "scan-small":
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        extra.update({
            "cases": (len(latencies), "count"),
            "cases_per_s": (len(latencies) / sum(walls), "1/s"),
            "case_p50_ms": (1e3 * deciles[4], "ms"),
            "case_p80_ms": (1e3 * deciles[7], "ms")})
    return metrics, extra


def traced(run, lw, seed, deadline, probe):
    """Untraced reference pass, layer sweep, then traced passes, all in
    reference seconds."""
    with probe.sampling():
        p = run.pass_once()
    untraced = probe.reference_seconds(p.start, p.end)
    metrics = sweep.run(lw, seed, probe, min_reps=1 if run.workload.tiny
                        else 3)
    tracer = tracing.Tracer(probe)
    per_pass = []
    while True:
        tracer.reset_stats(f"pass-{len(per_pass)}")
        with probe.sampling(), tracing.Installed(tracer, lw):
            p = run.workload.run_pass(run.inputs)
        factor = probe.factor(p.start, p.end)
        self_s = {k: v * factor for k, v in tracer.self_s.items()}
        out_bytes = (p.data or {}).get("out_bytes", 0)
        run.check(p)
        per_pass.append((dict(tracer.counts), self_s,
                         probe.reference_seconds(p.start, p.end), p.work,
                         out_bytes))
        if not run.fits(deadline):
            break
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{run.workload.name}.jsonl")

    med = statistics.median
    names = set(tracing.SPAN_NAMES) | {k for c, *_ in per_pass for k in c}
    for name in names:
        metrics[f"{name}.calls" if name in tracing.SPAN_NAMES else name] = \
            med([c.get(name, 0) for c, *_ in per_pass])
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.self_s"] = med([s.get(name, 0.0)
                                         for _, s, *_ in per_pass])
    for key in PER_LAYER:
        metrics.setdefault(key, 0)
    wall = med([w for _, _, w, _, _ in per_pass])
    corrections = metrics["continuation.newton_correct.calls"]
    points = med([work for *_, work, _ in per_pass])
    metrics.update({
        "cli.out_bytes": med([b for *_, b in per_pass]),
        "continuation.accept_ratio": (points / corrections if corrections
                                      else None),
        "trace.wall_s": wall, "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced})
    return metrics


def run_workload(name, lw, args, reference):
    tiny_or_full = "tiny" if args.tiny else "full"
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](lw, args.tiny, OUT / name)
    probe = speed.Probe()
    setup_s, setup_raw, inputs = setup(workload, args.seed, probe)
    run = Run(workload, inputs,
              reference.get(name, {}).get(tiny_or_full))
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        values = traced(run, lw, args.seed, deadline, probe)
        units = dict(PER_LAYER, **TRACE_REPORT)
        listed = {k: values[k] for k in PER_LAYER}
        report = {k: (values[k], units[k]) for k in units}
    else:
        with probe.sampling():
            while True:
                run.pass_once()
                if not run.fits(deadline):
                    break
        listed, extra = end_to_end(run, probe, setup_s, setup_raw)
        report = {k: (v, END_TO_END[k]) for k, v in listed.items()}
        report.update(extra)
    return run, listed, report


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    lw = load_program()
    reference = json.loads(Path(args.reference).read_text())
    env = environment(lw)
    print(json.dumps({"env": env}))
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    units = PER_LAYER if args.trace else END_TO_END
    attempted = failed = 0
    metrics = {}
    for name in names:
        run, listed, report = run_workload(name, lw, args, reference)
        attempted += run.attempted
        failed += run.failed
        print(f"# {name} seed={args.seed} trace={args.trace} "
              f"attempted={run.attempted} failed={run.failed}")
        for key, (value, unit) in sorted(report.items()):
            print(f"  {name}  {key} = {value} {unit}")
        print(json.dumps({"workload": name, "fingerprint": run.fingerprint}))
        for problem in run.problems[:20]:
            print(f"  FAILED {name}: {problem}", file=sys.stderr)
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in listed.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
