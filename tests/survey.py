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

pytest does not collect this file; `test_continuation.py` runs it on
one layer.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layerwaves import continuation as ct  # noqa: E402
from layerwaves import localbranch as lb  # noqa: E402
from layerwaves import pencil as pc  # noqa: E402
from layerwaves.errors import LayerError  # noqa: E402
from perfbench.workloads import SCAN_SLOTS  # noqa: E402

LAYERS = tuple(a for _, *pair in SCAN_SLOTS for a in pair)
MODES = (1, 2, 3)
OPTIONS = ct.ContinuationOptions(max_points=40)


def arm_line(a, m, k):
    """The survey line of the + arm at admissible speed index k."""
    head = f"a={','.join(map(repr, a))} m={m} k={k}"
    try:
        cfg = pc.classify_config(a)
        c_star = pc.bifurcation_speeds(m, cfg).admissible()[k]
        branch = ct.trace_arm(lb.local_expansion(m, cfg, c_star), +1,
                              OPTIONS)
    except LayerError as exc:
        return f"{head} {exc}"
    sol = branch.points[-1].solution
    digest = hashlib.sha256(sol.state.cos.tobytes()).hexdigest()[:16]
    return (f"{head} {branch.termination.label()} points={len(branch.points)}"
            f" N={sol.state.count} c={sol.c!r} coef={digest}")


def survey(layers=LAYERS):
    """Yield the line of every arm of the layers, in order."""
    for a in layers:
        cfg = pc.classify_config(a)
        for m in MODES:
            for k in range(len(pc.bifurcation_speeds(m, cfg).admissible())):
                yield arm_line(a, m, k)


if __name__ == "__main__":
    for line in survey():
        print(line, flush=True)
