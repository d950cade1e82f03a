"""Property tests: the Newton-in-time network forward against the step loop
over random parameter scales, grid lengths, substep counts and depths."""

import hypothesis
import numpy as np
from hypothesis import strategies as st

from qude import dynamics, models, train

import loop_oracle
from conftest import DEV1, make_twin_dataset
from test_engine import TOL, loop_samples, relative


@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    scale=st.floats(0.5, 100.0),
    n_samples=st.integers(1, 150),
    n_sub=st.sampled_from([1, 2, 5]),
    hidden_layers=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_network_engine_matches_loop(scale, n_samples, n_sub, hidden_layers, seed):
    sample_dt = 4.0 * n_sub
    ds = make_twin_dataset(seed=seed, n_experiments=2, duration_us=n_samples * sample_dt * 1e-3,
                           sample_dt_ns=sample_dt)
    compiled = train._compile(ds, DEV1, 4.0)
    (group,) = compiled.groups
    tmpl = models.make_source("nonlinear", hidden_layers=hidden_layers, seed=seed)
    src = tmpl.with_params(scale * tmpl.pack())
    ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
        group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, compiled.weights
    )
    assert relative(train.loss(src.pack(), ds, DEV1, src, 4.0), ref_loss) <= TOL
    assert relative(train.gradient(src.pack(), ds, DEV1, src, 4.0), ref_grad) <= TOL
    assert relative(dynamics.group_samples(group, src), loop_samples(group, src)) <= TOL
