"""Survey of the + arms of the benchmark's scan layers at default options.

Traces the + arm of every admissible speed of the 16 layers of
`perfbench.workloads.SCAN_SLOTS` at m = 1..3, 128 arms, with
`ContinuationOptions(max_points=40)`: N doubles from 64 up to 256.  It
prints one line per arm: the layer, m and the speed index k, then the
termination label, the point count, the last point's N, repr(c) and a
SHA-256 prefix of its coefficient bytes, or the message of the error
that kept the arm from starting.  Two trees that print the same lines
trace the same arm ends bit for bit.  Run from the repository root with
one BLAS thread, on each tree, and diff the outputs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/survey.py > survey.txt

With --digest it prints instead one SHA-256 per arm set (digests), taken
over every accepted point of every arm and each arm's termination label.
Two trees that print the same four digests trace those arms bit for bit,
point by point:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/survey.py --digest

pytest does not collect this file; `test_continuation.py` runs it on
one layer.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layerwaves import continuation as ct  # noqa: E402
from layerwaves import localbranch as lb  # noqa: E402
from layerwaves import pencil as pc  # noqa: E402
from layerwaves.errors import LayerError  # noqa: E402
from perfbench.workloads import SCAN_SLOTS, SYMMETRIC_A  # noqa: E402

LAYERS = tuple(a for _, *pair in SCAN_SLOTS for a in pair)
MODES = (1, 2, 3)
OPTIONS = ct.ContinuationOptions(max_points=40)
# the arms of perfbench's scan-small (ScanSmall.all_cases) and the
# snapshot arm of its evolve-period
SCAN_OPTIONS = ct.ContinuationOptions(count=16, max_count=16, max_points=12)
SNAPSHOT_OPTIONS = ct.ContinuationOptions(count=64, max_points=20)


def cases(layers=LAYERS):
    """(a, m, k) of every admissible speed k of the layers at m = 1..3."""
    for a in layers:
        cfg = pc.classify_config(a)
        for m in MODES:
            for k in range(len(pc.bifurcation_speeds(m, cfg).admissible())):
                yield a, m, k


def plus_arm(a, m, k, opts):
    """The + arm at admissible speed index k, or the LayerError that kept
    it from starting."""
    try:
        cfg = pc.classify_config(a)
        c_star = pc.bifurcation_speeds(m, cfg).admissible()[k]
        return ct.trace_arm(lb.local_expansion(m, cfg, c_star), +1, opts)
    except LayerError as exc:
        return exc


def arm_line(a, m, k):
    """The survey line of the + arm at admissible speed index k."""
    head = f"a={','.join(map(repr, a))} m={m} k={k}"
    branch = plus_arm(a, m, k, OPTIONS)
    if isinstance(branch, LayerError):
        return f"{head} {branch}"
    sol = branch.points[-1].solution
    digest = hashlib.sha256(sol.state.cos.tobytes()).hexdigest()[:16]
    return (f"{head} {branch.termination.label()} points={len(branch.points)}"
            f" N={sol.state.count} c={sol.c!r} coef={digest}")


def survey(layers=LAYERS):
    """Yield the line of every arm of the layers, in order."""
    for case in cases(layers):
        yield arm_line(*case)


def arms_digest(arms):
    """SHA-256 over each arm's accepted points, field by field, and its
    termination label, or the message of the error that kept it from
    starting."""
    h = hashlib.sha256()
    for arm in arms:
        if isinstance(arm, LayerError):
            h.update(f"{type(arm).__name__}: {arm}\n".encode())
            continue
        for p in arm.points:
            sol = p.solution
            h.update(np.array([p.s, sol.c, p.next_step, p.newton_iters,
                               p.norm, sol.residual_norm, *sol.monitors,
                               sol.krylov_iters, sol.dense_solves]).tobytes())
            h.update(sol.state.cos.tobytes())
            h.update(p.tangent.tobytes())
        h.update(f"{arm.termination.label()}\n".encode())
    return h.hexdigest()


def digests(layers=LAYERS):
    """Yield 'name digest' for four arm sets: the survey's arms and
    scan-small's arms of the layers, the default + arm of `layerwaves
    continue` and evolve-period's snapshot arm."""
    top = len(pc.bifurcation_speeds(1, pc.classify_config(
        SYMMETRIC_A)).admissible()) - 1
    sets = (
        ("survey", (plus_arm(*case, OPTIONS) for case in cases(layers))),
        ("scan-small", (plus_arm(*case, SCAN_OPTIONS)
                        for case in cases(layers))),
        ("default", [plus_arm(SYMMETRIC_A, 1, top,
                              ct.ContinuationOptions())]),
        ("evolve-period", [plus_arm(SYMMETRIC_A, 1, top, SNAPSHOT_OPTIONS)]),
    )
    for name, arms in sets:
        yield f"{name} {arms_digest(arms)}"


if __name__ == "__main__":
    for line in digests() if "--digest" in sys.argv[1:] else survey():
        print(line, flush=True)
