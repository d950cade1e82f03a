"""Property tests: the Newton-in-time network forward, its gradient and its
step Jacobians against the loop oracle over random parameter scales, grid
lengths, substep counts and depths, the exact round trips of the
coefficient expansion, the parameter packing and the record files, one
verdict from the in-memory record gate and the record-file check, the
line-by-line decode of odd number texts in a record file, clean exits on
corrupted input files, and a data error for a value of another JSON type at
any node of a manifest or a model."""

import contextlib
import io
import json
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
from test_acceptance import DETERMINISM_CONFIG
from test_cli import PAST_FLOATS, per_line_parse
from test_engine import TOL, loop_samples, relative, step_jacobian_error


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
    problem = train.Problem(ds, DEV1, 4.0)
    (group,) = problem.groups
    tmpl = models.make_source("nonlinear", hidden_layers=hidden_layers, seed=seed)
    src = tmpl.with_params(scale * tmpl.pack())
    ref_loss, ref_grad = loop_oracle.network_group_loss_grad(
        group.a_base, group.x0, group.targets, group.n_sub, group.h_us, src, problem.weights
    )
    assert relative(problem.evaluate(src.pack(), src, want_grad=False)[0], ref_loss) <= TOL
    assert relative(problem.evaluate(src.pack(), src)[1], ref_grad) <= TOL
    assert relative(dynamics.group_samples(group, src), loop_samples(group, src)) <= TOL
    assert step_jacobian_error(group, src) <= TOL


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
    on counted rows and on noiseless (shots == 0) rows of exact probabilities,
    and the line-by-line decode gives the same block as the record table.
    The times are the first n points of a grid of arbitrary spacing, so each
    is an arbitrary double that the load check accepts."""
    n = data.draw(st.integers(1, 30))
    sample_dt_ns = data.draw(st.floats(1e-300, 1e300))
    exp = dynamics.Experiment(id="exp-000", amplitude_p_MHz=data.draw(st.floats(0.0, 10.0)),
                              duration_us=data.draw(st.integers(n, 2 * n)) * sample_dt_ns * 1e-3,
                              sample_dt_ns=sample_dt_ns)
    times = exp.times_us()[:n]
    shots = data.draw(hnp.arrays(np.int64, n,
                                 elements=st.one_of(st.just(0), st.integers(1, 10**6))))
    fractions = data.draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(0.0, 1.0)))
    counts = np.where(shots[:, None] > 0, np.floor(fractions * shots[:, None]), fractions)
    block = tomography.RecordBlock.from_counts(times, shots, counts)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = cli.write_dataset(Path(tmp), DEV1, [(exp, block)], seed=0, config_sha="",
                                     shots=0, shot_mode="per-axis", dt_internal_ns=4.0,
                                     latent_info={"ansatz": "none"})
        dataset, _, _ = cli.load_dataset(manifest)
        with per_line_parse():
            per_line, _, _ = cli.load_dataset(manifest)
    ((_, loaded),), ((_, slow),) = dataset.experiments, per_line.experiments
    for column in ("times_us", "shots", "counts"):
        original, back = getattr(block, column), getattr(loaded, column)
        assert back.dtype == original.dtype and back.tobytes() == original.tobytes(), column
    for column in ("times_us", "shots", "counts", "probs", "rho_hat"):
        assert getattr(slow, column).tobytes() == getattr(loaded, column).tobytes(), column


# number texts that JSON reads otherwise than float() does or not at all, past every
# float, or signed
ODD_TEXTS = [str(PAST_FLOATS), "1e400", "-0", "-1.5", "01", "00", ".5", "1.", "+1", "1e", "NaN",
             "Infinity", "1_0", "1\u0661", "0x1"]


@pytest.mark.parametrize("text", ODD_TEXTS)
@pytest.mark.parametrize("field", cli.RECORD_FIELDS)
def test_column_decode_declines_odd_number_texts(text, field, tmp_path):
    """Each odd text in any field of a record file without a record table loads,
    line by line, to the float of what JSON reads, or fails naming the line."""
    exp = dynamics.Experiment(id="exp-000", amplitude_p_MHz=1.0, duration_us=1.0,
                              sample_dt_ns=4.0)
    block = tomography.RecordBlock.from_counts([0.004], [5000], [[2, 3, 4]])
    manifest = cli.write_dataset(tmp_path, DEV1, [(exp, block)], seed=0, config_sha="", shots=0,
                                 shot_mode="per-axis", dt_internal_ns=4.0,
                                 latent_info={"ansatz": "none"})
    (tmp_path / cli.RECORD_TABLE).unlink()
    values = dict(zip(cli.RECORD_FIELDS, ["0.004", "5000", "2", "3", "4"]), **{field: text})
    (tmp_path / "exp-000.jsonl").write_text(
        cli._row_prefix(exp) + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}\n")
    try:
        ((_, loaded),) = cli.load_dataset(manifest)[0].experiments
    except cli.ConfigError as err:
        assert str(err).startswith(f"{tmp_path / 'exp-000.jsonl'}:1: "), err
        return
    column = np.column_stack([loaded.times_us, loaded.shots, loaded.counts])[0]
    value = column[cli.RECORD_FIELDS.index(field)]
    assert np.float64(value).tobytes() == np.float64(float(json.loads(text))).tobytes()


def accepts(check) -> bool:
    try:
        check()
    except (ValueError, cli.ConfigError):
        return False
    return True


@ROUND_TRIP
@hypothesis.given(data=st.data())
def test_record_gate_and_load_check_agree(data):
    """One row of a valid block repeated, shifted or dropped: train.Dataset, with
    the duration as total horizon, and cli._read_records on the written file,
    decoded from its text or taken from the record table, accept or reject it
    together."""
    n_samples = data.draw(st.integers(1, 12))
    sample_dt_ns = data.draw(st.floats(1e-3, 1e3))
    exp = dynamics.Experiment(id="exp-000", amplitude_p_MHz=1.0,
                              duration_us=n_samples * sample_dt_ns * 1e-3,
                              sample_dt_ns=sample_dt_ns)
    n = data.draw(st.one_of(st.just(n_samples), st.integers(1, n_samples)))  # often up to the end
    row = data.draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))  # often the last
    times, rows = exp.times_us()[:n], np.arange(n)

    def gate_accepts(block) -> bool:
        return accepts(lambda: train.Dataset([(exp, block)], exp.duration_us, exp.duration_us))

    def block_of(times, rows):
        return tomography.RecordBlock.from_counts(times[rows], np.zeros(len(rows)),
                                                  np.full((len(rows), 3), 0.5))

    assert gate_accepts(block_of(times, rows))
    edit = data.draw(st.sampled_from(["repeat", "shift", "drop"]))
    if edit == "repeat":
        rows = np.insert(rows, row, data.draw(st.integers(0, n - 1)))
    elif edit == "drop":
        rows = np.delete(rows, row)
    else:
        times = times.copy()
        times[row] *= 1.0 + data.draw(st.floats(-2.0, 2.0)) * data.draw(
            st.sampled_from([1.0, 1e-6, 1e-9, 1e-11, 1e-13]))
    block = block_of(times, rows)
    with tempfile.TemporaryDirectory() as tmp:
        cli.write_dataset(Path(tmp), DEV1, [(exp, block)], seed=0, config_sha="", shots=0,
                          shot_mode="per-axis", dt_internal_ns=4.0,
                          latent_info={"ansatz": "none"})
        loaded = {accepts(lambda: cli._read_records(Path(tmp) / "exp-000.jsonl", exp, vouched))
                  for vouched in ({}, cli._read_record_table(Path(tmp) / cli.RECORD_TABLE))}
    assert loaded == {gate_accepts(block)}, (edit, row, block.times_us)


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory) -> dict[str, bytes]:
    """The criterion-10 (chain-tiny) config, its dataset (record table included)
    and its trained model, as bytes."""
    root = tmp_path_factory.mktemp("chain")
    config = root / "run.cfg"
    config.write_text(DETERMINISM_CONFIG)
    assert cli.main(["generate", "--config", str(config), "--out", str(root / "data")]) == 0
    assert cli.main(["train", "--config", str(config), "--out", str(root / "fit"),
                     "--dataset", str(root / "data" / "manifest.json")]) == 0
    return {name: (root / name).read_bytes() for name in (
        "run.cfg", "data/manifest.json", "data/exp-000.jsonl", "data/exp-001.jsonl",
        f"data/{cli.RECORD_TABLE}", "fit/model.json")}


def edit_bytes(data, raw: bytes) -> bytes:
    """``raw`` with one byte flipped, deleted or inserted, cut short, or with a
    span of up to 80 bytes repeated."""
    edit = data.draw(st.sampled_from(["flip", "delete", "insert", "truncate", "duplicate"]))
    at = data.draw(st.integers(0, len(raw) - 1))
    if edit == "flip":
        return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    if edit == "delete":
        return raw[:at] + raw[at + 1:]
    if edit == "insert":
        return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at:]
    if edit == "truncate":
        return raw[:at]
    end = data.draw(st.integers(at + 1, min(at + 80, len(raw))))
    return raw[:end] + raw[at:end] + raw[end:]


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_corrupt_input_exits_cleanly(chain_files, data):
    """One edit (``edit_bytes``) of any input of the chain exits 0 (the edit left
    valid data), 2, 3 or 4, with no traceback: every byte is checked at the boundary.
    An edited record table is ignored, so evaluate exits 0."""
    name = data.draw(st.sampled_from(sorted(chain_files)))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for other, raw in chain_files.items():
            (root / other).parent.mkdir(parents=True, exist_ok=True)
            (root / other).write_bytes(edit_bytes(data, raw) if other == name else raw)
        if name == "run.cfg":
            argv = ["generate", "--config", str(root / name), "--out", str(root / "out")]
        else:
            argv = ["evaluate", "--model", str(root / "fit" / "model.json"),
                    "--dataset", str(root / "data" / "manifest.json"), "--out", str(root / "out")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
    assert code in ((0,) if name.endswith(cli.RECORD_TABLE) else (0, 2, 3, 4)), (
        name, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# the JSON type of each node that evaluate reads: "name" is a string from a fixed set
DEVICE_NODES = {"omega01_GHz": "number", "omega_rot_GHz": "number", "T1_us": "number",
                "T2_us": "number", "base_model": "name", "dim": "integer"}
ENTRY_NODES = {"id": "string", "amplitude_p_MHz": "number", "amplitude_q_MHz": "number",
               "duration_us": "number", "sample_dt_ns": "number", "file": "string",
               "n_records": "integer"}
MODEL_NODES = {"schema": "name", "ansatz": "name", "dim": "integer", "params": "array",
               "train_horizon_us": "number", "dt_internal_ns": "number", "device": "object",
               "signed_gamma": "bool", "n_layers": "integer", "activation": "name"}
IS_OF_TYPE = {"number": lambda v: type(v) in (int, float), "integer": lambda v: type(v) is int,
              "string": lambda v: isinstance(v, str), "name": lambda v: False,
              "object": lambda v: isinstance(v, dict), "array": lambda v: isinstance(v, list),
              "bool": lambda v: isinstance(v, bool)}


@pytest.fixture(scope="module")
def net_model(chain_files, tmp_path_factory) -> bytes:
    """A nonlinear model.json trained for one iteration on the chain's dataset."""
    root = tmp_path_factory.mktemp("net")
    (root / "data").mkdir()
    for name in ("data/manifest.json", "data/exp-000.jsonl", "data/exp-001.jsonl"):
        (root / name).write_bytes(chain_files[name])
    config = root / "net.cfg"
    config.write_text(DETERMINISM_CONFIG.replace("adam_epochs = 10", "adam_epochs = 1")
                      .replace("lbfgs_max_iters = 50", "lbfgs_max_iters = 1"))
    assert cli.main(["train", "--config", str(config), "--ansatz", "nonlinear", "--out",
                     str(root / "net"), "--dataset", str(root / "data" / "manifest.json")]) == 0
    return (root / "net" / "model.json").read_bytes()


def key_path(keys: tuple) -> str:
    """The quoted key path a message names, such as 'experiments[1].id'."""
    return repr("".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:])


def read_nodes(files: dict[str, bytes]) -> list[tuple[str, tuple, str, tuple]]:
    """(file, keys to the node, its JSON type, texts the message must hold) of every
    node that ``evaluate`` reads from the chain's manifest and the two models."""
    manifest, models_ = "data/manifest.json", ("fit/model.json", "net/model.json")
    nodes = [(manifest, (key,), kind) for key, kind in (
        ("schema", "name"), ("dt_internal_ns", "number"), ("device", "object"),
        ("experiments", "array"))]
    nodes += [(name, ("device", key), kind) for name in (manifest, *models_)
              for key, kind in DEVICE_NODES.items()]
    for n in range(len(json.loads(files[manifest])["experiments"])):
        nodes += [(manifest, ("experiments", n, key), kind) for key, kind in ENTRY_NODES.items()]
    for model in models_:
        nodes += [(model, (key,), kind) for key, kind in MODEL_NODES.items()
                  if key in json.loads(files[model])]
    nodes = [(*node, (key_path(node[1]),)) for node in nodes]
    # an entry of an array is named by the array and its index
    for n in range(len(json.loads(files[manifest])["experiments"])):
        nodes += [(manifest, ("experiments", n), "object", ("'experiments'", f"entry {n} is"))]
    for model in models_:
        nodes += [(model, ("params", i), "number", ("'params'", f"(entry {i}, "))
                  for i in range(len(json.loads(files[model])["params"]))]
    return nodes


@pytest.mark.parametrize("value", [False, True, "3.448", pytest.param(3.448, id="number"),
                                   pytest.param(None, id="null"),
                                   pytest.param([1, 2], id="array"),
                                   pytest.param({"a": 1}, id="object")])
def test_json_number_of_another_type_exits_2(chain_files, net_model, value, tmp_path):
    """A value of another JSON type at any node of the manifest or a model that
    evaluate reads is a data error naming the file and the key path, not a value
    read through float() or str(); a number node's message says so."""
    files = {**chain_files, "net/model.json": net_model}
    for name in ("data", "fit", "net"):
        (tmp_path / name).mkdir()
    for name, keys, kind, texts in read_nodes(files):
        if IS_OF_TYPE[kind](value):
            continue
        for other, raw in files.items():
            (tmp_path / other).write_bytes(raw)
        data = json.loads(files[name])
        *parents, last = keys
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        (tmp_path / name).write_text(json.dumps(data, indent=2) + "\n")
        model = tmp_path / ("net" if name == "net/model.json" else "fit") / "model.json"
        argv = ["evaluate", "--model", str(model), "--dataset",
                str(tmp_path / "data" / "manifest.json"), "--out", str(tmp_path / "out")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        message = err.getvalue()
        assert code == 2, (name, keys, message)
        assert all(text in message for text in (Path(name).name, *texts)), (keys, message)
        if kind == "number":
            assert "not a JSON number" in message, message
