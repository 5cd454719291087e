"""Self-check of the benchmark harness (under a minute).

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. The metric lists in run.py match BENCHMARK.json.
2. A tiny-size smoke run of every workload, untraced and traced, exits 0,
   reports correct, and emits exactly the named metrics with their units.
3. A deliberately perturbed reference fingerprint makes every workload's
   check fail with a nonzero exit.
Exits nonzero if any of this does not hold.
"""

import json
import math
import subprocess
import sys

import run
import workloads


def bench(*args):
    """Run the benchmark; return (exit code, parsed last stdout line)."""
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                           "--seed", "1", "--seconds", "1", "--tiny", *args],
                          capture_output=True, text=True, timeout=600,
                          cwd=run.ROOT)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode, None


def check_lists(spec):
    problems = []
    for key, ours in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(theirs) ^ set(ours))}")
    return problems


def check_smoke(name, trace, units):
    code, result = bench("--workload", name, "--trace", str(trace))
    where = f"{name} trace={trace}"
    if code != 0 or result is None or result.get("correct") is not True:
        return [f"{where}: exit {code}, result {result}"]
    metrics = result["metrics"]
    problems = []
    if set(metrics) != set(units):
        problems.append(f"{where}: metric names differ: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for key, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != units.get(key) or not (
                isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: bad metric {key} = {entry}")
    return problems


def perturbed(reference, name):
    """A copy of the reference with one fingerprint of `name` changed."""
    ref = json.loads(json.dumps(reference))
    tiny = ref[name]["tiny"]
    if name == "continue-sym":
        tiny["plus"]["c"] *= 1.0 + 1e-6
    elif name == "evolve-period":
        tiny["energy"] *= 1.0 + 1e-6
    else:
        case = tiny[sorted(tiny)[0]]
        case["points"] = case.get("points", 0) + 1
    return ref


def check_perturbed(name, reference):
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"perturbed-{name}.json"
    path.write_text(json.dumps(perturbed(reference, name)))
    code, result = bench("--workload", name, "--reference", str(path))
    if code == 0 or result is None or result.get("correct") is not False:
        return [f"{name}: perturbed fingerprint not caught "
                f"(exit {code}, result {result})"]
    return []


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(run.REFERENCE.read_text())
    problems = check_lists(spec)
    for name in workloads.WORKLOADS:
        problems += check_smoke(name, 0, run.END_TO_END)
        problems += check_smoke(name, 1, run.PER_LAYER)
        problems += check_perturbed(name, reference)
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print("selfcheck: " + ("ok" if not problems else
                           f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
