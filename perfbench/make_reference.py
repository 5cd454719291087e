"""Record the reference fingerprints in reference.json.

Run from the root of a checkout after a change that is meant to alter
results (not after an optimisation, which must reproduce them):

    python3 perfbench/make_reference.py

It runs every workload once at both sizes (for scan-small, every case of
every slot), refuses to write if any correctness check fails, and
records the final c, point count, final N, termination label or
diagnosed error of each branch, and the energy of the evolved state.
"""

import json
import sys

import run
import workloads


def fingerprints(lw, name, tiny):
    workload = workloads.WORKLOADS[name](lw, tiny, run.OUT / name)
    if name == "scan-small":
        reference = {}
        inputs = {"cases": workload.all_cases()}
        p = workload.run_pass(inputs)
        _, problems, _ = workload.check(inputs, p, None)
        for case, result in zip(inputs["cases"], p.data["results"]):
            reference[workloads.case_key(*case)] = \
                workload.case_fingerprint(result)
    else:
        inputs = workload.setup(seed=0)
        fp, problems, _ = workload.check(inputs, workload.run_pass(inputs),
                                         None)
        reference = {k: v for k, v in fp.items() if k != "info"}
    if problems:
        raise SystemExit(f"{name}: checks failed:\n" + "\n".join(problems))
    return reference


def main():
    lw = run.load_program()
    run.OUT.mkdir(exist_ok=True)
    reference = {name: {size: fingerprints(lw, name, size == "tiny")
                        for size in ("full", "tiny")}
                 for name in workloads.WORKLOADS}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
