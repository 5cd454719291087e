import functools

import numpy as np
import pytest

from layerwaves import continuation as ct
from layerwaves import localbranch as lb
from layerwaves import pencil as pc
from layerwaves import steady as st


@pytest.fixture(scope="session")
def sym_cfg():
    return pc.classify_config([-1.0, 1.0, -1.0, 1.0])


@pytest.fixture(scope="session")
def suc_cfg():
    return pc.classify_config([0.0, 1.0, 1.0, 2.0])


@pytest.fixture(scope="session")
def gen_cfg():
    return pc.classify_config([0.0, 1.0, 2.5, 3.5])


@pytest.fixture(scope="session")
def sym_expansion(sym_cfg):
    return lb.local_expansion(1, sym_cfg, float(np.sqrt(5.0)))


@pytest.fixture(scope="session")
def branch_options():
    return ct.ContinuationOptions(count=48, max_points=34)


@pytest.fixture(scope="session")
def sym_branch_pair(sym_expansion, branch_options):
    """One moderate continuation run shared by the branch-dependent tests.

    Both arms are traced, neither is the image of the other, so the
    tests that compare them check that the solver is shift-equivariant.
    """
    return (ct.trace_arm(sym_expansion, +1, branch_options),
            ct.trace_arm(sym_expansion, -1, branch_options))


@pytest.fixture
def jacobian_index_makers(monkeypatch):
    """The layouts that make Layout.jacobian's index tables, in order,
    under a fresh Layout.shared cache, so that no earlier test has made
    them."""
    made = []
    make = st.Layout._jacobian_index

    def spy(layout):
        made.append(layout)
        return make(layout)

    monkeypatch.setattr(st.Layout, "_jacobian_index", spy)
    monkeypatch.setattr(st, "_shared_layout",
                        functools.lru_cache(maxsize=16)(st.Layout))
    return made


def wave_at_amplitude(branch, target):
    """First stored point whose state sup-norm reaches the target."""
    for point in branch.points:
        if point.solution.state.max_abs() >= target:
            return point.solution
    raise AssertionError(f"branch never reached amplitude {target}")
