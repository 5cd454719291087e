"""Spans and counters around calls into the layerwaves layers.

The tracer wraps module attributes from the outside: the program's
source is not touched, and every wrapper is removed again when the
traced section ends.  Spans are kept in memory as
(name, start, end, parent index, run id) and written out at the end.
A layer's self time is its span's duration minus the time covered by
its direct child spans.
"""

import json
import time
from collections import Counter

# Traced layers: (module name, attribute path, span name).  Each of these
# is called through a module attribute by the code above it, so replacing
# the attribute puts a span around every call.
SPANS = (
    ("steady", "monitors", "steady.monitors"),
    ("steady", "jacobian", "steady.jacobian"),
    ("steady", "residual", "steady.residual"),
    ("spectral", "multiply", "spectral.multiply"),
    ("dynamics", "rhs", "dynamics.rhs"),
    ("dynamics", "energy", "dynamics.energy"),
    ("dynamics", "PhaseState.combine", "dynamics.PhaseState.combine"),
    ("pencil", "bifurcation_speeds", "pencil.bifurcation_speeds"),
    ("localbranch", "local_expansion", "localbranch.local_expansion"),
    ("eulerpoisson", "ep_residual", "eulerpoisson.ep_residual"),
    ("cli", "execute", "cli.execute"),
)
SOLVE = "numpy.linalg.solve"
PRODUCT = "kernels.trig_product"
NEWTON = "continuation.newton_correct"
CONSTRUCTED = "spectral.TrigSeries.constructed"
SPAN_NAMES = tuple(name for _, _, name in SPANS) + (SOLVE, PRODUCT, NEWTON)


class Tracer:
    """In-memory span recorder with per-name call counts and self time.

    `probe.spent` is the running total of speed-probe time; the probe time
    inside a span is left out of its duration.
    """

    def __init__(self, probe):
        self.probe = probe
        self.spans = []
        self.run_id = None
        self.counts = Counter()
        self.self_s = Counter()
        self._stack = []      # indices of open spans
        self._child = []      # child time accumulated per open span

    def reset_stats(self, run_id):
        """Start a new run: keep the spans, zero the aggregates."""
        self.run_id = run_id
        self.counts = Counter()
        self.self_s = Counter()

    def wrap(self, name, fn):
        spans, stack, child = self.spans, self._stack, self._child
        clock, probe = time.perf_counter, self.probe

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child.append(0.0)
            probed = probe.spent
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                duration = end - start - (probe.spent - probed)
                if child:
                    child[-1] += duration
                spans[index] = (name, start, end, parent, self.run_id)
                self.counts[name] += 1
                self.self_s[name] += duration - inner

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end",
                                            "parent", "run"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Forward:
    """Attribute proxy: overrides first, everything else from `base`."""

    def __init__(self, base, **overrides):
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


class Installed:
    """Context manager that puts the tracer's wrappers on the layers.

    `modules` maps short module names to the imported layerwaves modules.
    """

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        tr, mods = self.tracer, self.modules
        for module, path, name in SPANS:
            owner = mods[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._set(owner, attr, tr.wrap(name, getattr(owner, attr)))

        # The product kernel also reports the complex multiply-adds of the
        # full convolution it computes: (2 nf + 1) (2 ng + 1).
        kernels = mods["kernels"]
        product = tr.wrap(PRODUCT, kernels.trig_product)

        def trig_product(fc, fs, f0, gc, gs, g0, nout):
            tr.counts[PRODUCT + ".ops"] += ((2 * len(fc) + 1)
                                            * (2 * len(gc) + 1))
            return product(fc, fs, f0, gc, gs, g0, nout)

        self._set(kernels, "trig_product", trig_product)

        # Newton reports its iterations and failures.  A truncation
        # doubling shows as a correction asked for at a larger count than
        # the previous one on the same arm (arms restart at the base count).
        cont = mods["continuation"]
        newton = tr.wrap(NEWTON, cont.newton_correct)
        failure = mods["errors"].CorrectionFailedError
        last_count = [None]

        def newton_correct(cfg, guess, constraint, fold, count, *rest, **kw):
            if last_count[0] is not None and count > last_count[0]:
                tr.counts["continuation.truncation_doublings"] += 1
            last_count[0] = count
            try:
                sol, iters = newton(cfg, guess, constraint, fold, count,
                                    *rest, **kw)
            except failure:
                tr.counts[NEWTON + ".failures"] += 1
                raise
            tr.counts[NEWTON + ".iterations"] += iters
            return sol, iters

        self._set(cont, "newton_correct", newton_correct)

        # The dense solve is traced only where continuation calls it.
        np = cont.np
        solve = tr.wrap(SOLVE, np.linalg.solve)
        self._set(cont, "np", _Forward(np, linalg=_Forward(np.linalg,
                                                           solve=solve)))

        # Series construction is counted, not timed: it is too frequent
        # for a span per call.
        series = mods["spectral"].TrigSeries
        init = series.__init__

        def counted_init(obj, *args, **kwargs):
            tr.counts[CONSTRUCTED] += 1
            init(obj, *args, **kwargs)

        self._set(series, "__init__", counted_init)
        return tr

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False
