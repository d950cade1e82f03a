"""Property tests: the Newton-in-time network forward against the step loop
over random parameter scales, grid lengths, substep counts and depths, and
the exact round trips of the coefficient expansion, the parameter packing
and the record files."""

import tempfile
from pathlib import Path

import hypothesis
import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import strategies as st

from qude import cli, dynamics, models, qcore, tomography, train

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


ROUND_TRIP = hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("dim", [2, 3])
@ROUND_TRIP
@hypothesis.given(data=st.data())
def test_expand_reconstruct_round_trip(dim, data):
    m = data.draw(st.integers(1, 8))
    g = data.draw(hnp.arrays(np.float64, (m, 2, dim, dim), elements=st.floats(-5.0, 5.0)))
    h = qcore.hermitize(g[:, 0] + 1j * g[:, 1])
    hb = qcore.hermitian_basis(dim)
    back = qcore.reconstruct_many(qcore.expand_many(h, hb), hb)
    assert np.max(np.abs(back - h)) < 1e-12


@pytest.mark.parametrize("kind", ["sp", "affine", "nonlinear"])
@ROUND_TRIP
@hypothesis.given(data=st.data())
def test_pack_round_trip(kind, data):
    template = models.make_source(kind, seed=1)
    theta = data.draw(hnp.arrays(np.float64, template.pack().shape,
                                 elements=st.floats(allow_nan=False, allow_infinity=False)))
    np.testing.assert_array_equal(template.with_params(theta).pack(), theta)


@ROUND_TRIP
@hypothesis.given(data=st.data())
def test_record_write_load_round_trip(data):
    """write_dataset -> load_dataset returns times, shots and counts bit for bit,
    on counted rows and on noiseless (shots == 0) rows of exact probabilities."""
    n = data.draw(st.integers(1, 30))
    times = np.sort(data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e3),
                                         unique=True)))
    shots = data.draw(hnp.arrays(np.int64, n,
                                 elements=st.one_of(st.just(0), st.integers(1, 10**6))))
    fractions = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(0.0, 1.0)))
    counts = np.where(shots[:, None] > 0, np.floor(fractions * shots[:, None]), fractions)
    block = tomography.RecordBlock.from_counts(times, shots, counts)
    exp = dynamics.Experiment(id="exp-000", amplitude_p_MHz=data.draw(st.floats(0.0, 10.0)),
                              duration_us=1e3, sample_dt_ns=4.0)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = cli.write_dataset(Path(tmp), DEV1, [(exp, block)], seed=0, config_sha="",
                                     shots=0, shot_mode="per-axis", dt_internal_ns=4.0,
                                     latent_info={"ansatz": "none"})
        dataset, _, _ = cli.load_dataset(manifest)
    ((_, loaded),) = dataset.experiments
    for column in ("times_us", "shots", "counts"):
        original, back = getattr(block, column), getattr(loaded, column)
        assert back.dtype == original.dtype and back.tobytes() == original.tobytes(), column
