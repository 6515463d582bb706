"""Property tests of the solver's restart contract over drawn instances."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from smf import Orientation, SolverConfig, factorize, generate  # noqa: E402
from smf.solver import EXACT_FIT_TOL  # noqa: E402
from smf.linalg import frobenius_norm  # noqa: E402


@st.composite
def instances(draw):
    rank = draw(st.integers(1, 3))
    n_rows = draw(st.integers(rank + 2, 30))
    n_cols = draw(st.integers(rank + 2, 10))
    orientation = draw(st.sampled_from(list(Orientation)))
    noise_sigma = draw(st.sampled_from([0.0, 0.03]))
    x, _ = generate(n_rows, n_cols, rank, noise_sigma=noise_sigma,
                    orientation=orientation, seed=draw(st.integers(0, 10_000)))
    config = dict(rank=rank, orientation=orientation,
                  restarts=draw(st.integers(2, 4)), seed=draw(st.integers(0, 100)))
    return x, config


# derandomize: tier-1 runs the same examples every time.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances())
def test_restarts_stop_at_an_exact_fit_and_never_lose_to_restart_0(instance):
    x, config = instance
    k = config["restarts"]
    res = factorize(x, SolverConfig(**config))
    one = factorize(x, SolverConfig(**{**config, "restarts": 1}))
    exact = EXACT_FIT_TOL * frobenius_norm(x)
    objs = res.restart_objectives
    # Restart 0 alone when it is an exact fit, every restart otherwise.
    if objs[0] <= exact:
        assert len(objs) == 1
    else:
        assert len(objs) == k
    # Restart 0 is the 1-restart fit, so k restarts never do worse.
    assert objs[0] == one.objective
    assert res.objective <= one.objective
    # The factors are feasible on every draw.
    assert res.feasible
    assert one.feasible
    if len(objs) == 1:
        assert res.factors.w.tobytes() == one.factors.w.tobytes()
        assert res.factors.h.tobytes() == one.factors.h.tobytes()
        assert res.objective_trace == one.objective_trace
    again = factorize(x, SolverConfig(**config))
    assert again.factors.w.tobytes() == res.factors.w.tobytes()
    assert again.factors.h.tobytes() == res.factors.h.tobytes()
    assert again.objective_trace == res.objective_trace
    assert again.restart_objectives == objs
