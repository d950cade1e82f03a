"""Command-line entry point, configuration, and file formats.

Verbs: ``generate`` (synthetic twin datasets), ``train``, ``evaluate``,
``characterize`` (structure-preserving readout), and ``report`` (evaluate
plus characterize into one directory).

Formats are diff-able and locale-free, every text file UTF-8: INI-style run
configs, JSON for models and dataset manifests, JSON Lines for records with fields
{exp_id, amplitude_MHz, time_us, shots, kx, ky, kz} (``shots == 0`` marks a
noiseless record whose counts hold exact probabilities), and RFC-4180 CSV
with '.' decimals for tables. Beside the record files ``generate`` writes one
binary record table (``RECORD_TABLE``): their values as float64, keyed by the
SHA-256 of each file's bytes, which loaders take in place of decoding a file
it vouches for and otherwise ignore; every other record file is decoded line
by line. Everything is deterministic under a fixed seed; manifests record the
seed, the config hash, and the toolkit version.

Exit codes: 0 success, 2 configuration or data error (a malformed or
inconsistent config, manifest, model or record file; faults found while
reading name the file, the line and the field), 3 numerical failure
(divergence, a non-finite gradient, a degenerate spectrum, an unphysical
rate), 4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import reprlib
import struct
import sys
from dataclasses import fields
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__, dynamics, metrics, models, tomography, train
from .dynamics import DeviceModel, Experiment
from .models import UnphysicalRateError
from .qcore import DegenerateSpectrumError
from .tomography import SHOT_MODE_PER_AXIS, SHOT_MODE_SPLIT, RecordBlock
from .train import Dataset, TrainConfig

TWO_PI = 2.0 * np.pi

DATASET_SCHEMA = "qude-dataset-v1"
MODEL_SCHEMA = "qude-model-v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

REQUIRED = object()  # the schema default of a key that must be set
_SHOWN = reprlib.Repr()  # a bad value as a message shows it: long arrays and strings cut
_SHOWN.maxlevel = 1  # and nested objects and arrays as {...} and [...]


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


# -- configuration ----------------------------------------------------------------


def _json_number(value) -> float:
    """A JSON number as a float; a boolean, a string or any other type is a ValueError."""
    if type(value) not in (int, float):
        raise ValueError("not a JSON number")
    return float(value)


def _field(data, key: str, path: Path, cast=_json_number, where: str = "", default=REQUIRED):
    """``cast(data[key])`` of a config section or a JSON object, ``default`` if absent;
    a missing required key or a bad value is a data error naming file and key."""
    if key not in data:
        if default is REQUIRED:
            raise ConfigError(f"{path}: missing key {where + key!r}")
        return default
    try:
        return cast(data[key])
    except (TypeError, ValueError, OverflowError) as err:  # OverflowError: an int past floats
        raise ConfigError(f"{path}: bad value for {where + key!r}: {_SHOWN.repr(data[key])} "
                          f"({err})") from None


def _choices(*values: str) -> tuple:
    """The SCHEMA row of a key that takes one of ``values``, the first by default
    (a JSON value of another type is none of them)."""

    def cast(raw: str) -> str:
        if raw not in values:
            raise ValueError(f"not one of {', '.join(values)}")
        return raw

    return cast, values[0]


def _floats(raw: str) -> list[float]:
    return [float(part) for part in raw.replace(",", " ").split()]


def _json_positive(value) -> float:
    return _positive(_json_number(value))


def _json_numbers(value) -> np.ndarray:
    """A JSON array of numbers as floats; ValueError naming the first entry that is not one."""
    if not isinstance(value, list):
        raise ValueError("not a JSON array")
    for i, entry in enumerate(value):
        if type(entry) not in (int, float):
            raise ValueError(f"entry {i}, {entry!r}, is not a JSON number")
    return np.array(value, dtype=float)


def _json_is(kind: type, name: str):
    """The cast of a JSON value of Python type ``kind``, kept as it is."""

    def cast(value):
        if not isinstance(value, kind):
            raise ValueError(f"not a JSON {name}")
        return value

    return cast


_json_bool, _json_object, _json_string = (_json_is(bool, "boolean"), _json_is(dict, "object"),
                                          _json_is(str, "string"))


def _json_objects(value) -> list:
    """A JSON array of objects; ValueError naming the first entry that is not one."""
    if not isinstance(value, list):
        raise ValueError("not a JSON array of objects")
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ValueError(f"not a JSON array of objects: entry {i} is {_SHOWN.repr(entry)}")
    return value


def _integral(value) -> int:
    """A JSON integer, or a float with an integral value, as an int."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError("not an integral number")


def _positive(value) -> float:
    """``value`` as a positive finite float; ValueError otherwise."""
    value = float(value)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{value!r} is not a positive finite number")
    return value


def _int_in(least: int, most: float = np.inf, parse=int):
    """The cast of an int in [least, most], read by ``parse`` (``_integral`` for JSON)."""

    def cast(raw) -> int:
        value = parse(raw)
        if not least <= value <= most:
            raise ValueError(f"{value} is not in [{least}, {most}]")
        return value

    return cast


# generate draws, integrates and holds every experiment in memory and writes one
# record file each. The paper's protocols use tens of experiments, so 10**4 leaves
# a hundredfold margin; a count past it is a typo, and one of hundreds of digits
# would never finish drawing its amplitudes.
MAX_EXPERIMENTS = 10**4
MAX_SHOTS = 2**53  # counts are held as floats, which are integers exactly up to here
# generate holds about 100 B per sample, summed over experiments, at its peak: a
# (2, 2) complex state of 64 B, past the 32 B coefficients of its group it is formed
# from. Each experiment's states are freed once its records are drawn, which hold
# 56 B (shots, counts, probs) and the time. Drawing takes about 100 B per sample of
# one experiment more; the record files and table are written CHUNK_ROWS rows at a
# time. So 10**7 samples take about 1 GB, 2 GB in one experiment (10**6 samples raised
# ru_maxrss by 100 and 180 MB), and 160 times the largest benchmark dataset (5 x 12,500).
MAX_SAMPLES = 10**7
# A nonlinear latent source is integrated one step at a time, 1-3 us per step and
# experiment on a 2-core host, so samples x substeps bounds generate's time: 10**8
# steps take a few minutes.
MAX_NETWORK_STEPS = 10**8
# The paper's networks and every test have at most 3 hidden layers, so 100 leaves a
# thirtyfold margin; train builds every layer's weights before its first step, and
# 10**9 layers would never finish allocating them.
MAX_HIDDEN_LAYERS = 100


class RunConfig:
    """Typed view over the INI run configuration.

    SCHEMA maps each section and key to its cast and default (REQUIRED keys
    must be set where read; ``TrainConfig``'s fields give theirs). ``load``
    rejects any other section or key and casts every key that is set.
    """

    SCHEMA = {
        "device": {"base_model": _choices(*dynamics.BASE_KINDS), "omega01_GHz": (float, REQUIRED),
                   "omega_rot_GHz": (float, None), "T1_us": (float, REQUIRED),
                   "T2_us": (float, REQUIRED), "dim": (int, 2)},
        "latent": {"ansatz": (str, "none"), "model_file": (str, None),
                   "alpha_kHz": (_floats, ()), "gamma_inv_us": (_floats, ())},  # (): zeros
        "experiments": {"seed": (_int_in(0), 0), "n_experiments": (_int_in(1, MAX_EXPERIMENTS), 5),
                        "p_max_MHz": (_positive, REQUIRED), "duration_us": (_positive, REQUIRED),
                        "sample_dt_ns": (_positive, 4.0), "shots": (_int_in(0, MAX_SHOTS), 5000),
                        "shot_mode": _choices(SHOT_MODE_PER_AXIS, SHOT_MODE_SPLIT)},
        "training": {
            "ansatz": _choices(*models.KINDS),
            "train_horizon_us": (_positive, None),
            "hidden_layers": (_int_in(0, MAX_HIDDEN_LAYERS), 2),
            "gamma_mode": _choices("squared", "signed"),
            **{f.name: (type(f.default) if isinstance(f.default, (int, float)) else str, f.default)
               for f in fields(TrainConfig)},
            "dt_internal_ns": (_positive, TrainConfig.dt_internal_ns),  # generate reads it too
        },
        "output": {"directory": (str, "out")},
    }

    def __init__(self, parser: configparser.ConfigParser, path: Path, sha256: str):
        self.path, self._sha256 = path, sha256
        self._raw = {}  # section -> {declared key: text}
        for section in parser.sections():
            if section not in self.SCHEMA:
                raise ConfigError(f"unknown section [{section}] in {path}")
            declared = {parser.optionxform(key): key for key in self.SCHEMA[section]}
            raw = self._raw[section] = {}
            for key, text in parser.items(section):
                if key not in declared:
                    raise ConfigError(f"unknown key [{section}] {key} in {path}")
                key = declared[key]
                raw[key] = text
                _field(raw, key, path, self.SCHEMA[section][key][0], f"[{section}] ")
        self._check_work()

    def _check_work(self) -> None:
        """The cross-field bounds on the samples generate allocates, and on the
        steps it integrates for a nonlinear latent, checked once every key is cast."""
        if "duration_us" not in self._raw.get("experiments", {}):
            return  # no grid: generate exits 2 on the missing key
        keys = ("n_experiments", "duration_us", "sample_dt_ns")
        n_exp, duration, sample_dt = (self.get("experiments", key) for key in keys)
        named = "', '".join(f"[experiments] {key}" for key in keys)
        samples = n_exp * duration / (sample_dt * 1e-3)  # inf past the floats
        if not samples <= MAX_SAMPLES:
            raise ConfigError(f"{self.path}: '{named}' ask for {samples:.4g} samples, more "
                              f"than cli.MAX_SAMPLES = {MAX_SAMPLES:,}")
        if self.get("latent", "ansatz") != models.KIND_NONLINEAR:
            return
        steps = samples * sample_dt / self.get("training", "dt_internal_ns")
        if not steps <= MAX_NETWORK_STEPS:
            raise ConfigError(f"{self.path}: '{named}', '[training] dt_internal_ns' ask for "
                              f"{steps:.4g} steps of the nonlinear latent source, more than "
                              f"cli.MAX_NETWORK_STEPS = {MAX_NETWORK_STEPS:,}")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        raw = _read_bytes(path, "config file")
        text = _decode_utf8(raw, path)
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            # the lines of a text-mode read (universal newlines), named as the file
            parser.read_file(io.StringIO(text, newline=None), source=str(path))
            # reading a value can raise an interpolation error
            return cls(parser, path, hashlib.sha256(raw).hexdigest())
        except configparser.Error as err:
            raise ConfigError(f"cannot parse {path}: {err}") from err

    def sha256(self) -> str:
        return self._sha256

    def get(self, section: str, key: str, override=None):
        """``[section] key`` cast by its SCHEMA row, or the row's default when
        unset; an ``override`` that is not None (a command-line flag) wins."""
        if override is not None:
            return override
        cast, default = self.SCHEMA[section][key]
        return _field(self._raw.get(section, {}), key, self.path, cast, f"[{section}] ", default)

    def device(self) -> DeviceModel:
        return _device({key: self.get("device", key) for key in self.SCHEMA["device"]},
                       self.path, "[device]")

    def latent_source(self):
        kind = self.get("latent", "ansatz")
        if kind in ("none", ""):
            return None
        model_file = self.get("latent", "model_file")
        if model_file is not None:
            path = Path(self.path).parent / model_file
            source, _ = load_model(path)
            for key, wanted, found in (("[latent] ansatz", kind, source.kind),
                                       ("[device] dim", self.get("device", "dim"), source.dim)):
                if found != wanted:
                    raise ConfigError(f"{self.path}: {key!r} is {wanted!r}, but the model "
                                      f"{path} ('[latent] model_file') has {found!r}")
            return source
        if kind != models.KIND_SP:
            raise ConfigError(
                f"latent ansatz {kind!r} needs a model_file with its parameters"
            )
        dim = self.get("device", "dim")
        n = dim * dim - 1
        alpha_khz = self.get("latent", "alpha_kHz")
        gamma_inv = self.get("latent", "gamma_inv_us")
        if alpha_khz and len(alpha_khz) != n:
            raise ConfigError(f"{self.path}: '[latent] alpha_kHz' needs {n} entries")
        if not np.isfinite(alpha_khz).all():
            raise ConfigError(f"{self.path}: '[latent] alpha_kHz' needs finite entries")
        if gamma_inv and len(gamma_inv) != n:
            raise ConfigError(f"{self.path}: '[latent] gamma_inv_us' needs {n} entries")
        if not all(g >= 0 for g in gamma_inv):
            raise ConfigError(f"{self.path}: '[latent] gamma_inv_us' needs entries >= 0")
        alpha = TWO_PI * 1e-3 * np.asarray(alpha_khz) if alpha_khz else np.zeros(n)
        gammas = np.array([1.0 / g if g > 0 else 0.0 for g in gamma_inv] or [0.0] * n)
        return models.StructurePreservingSource(dim=dim, alpha=alpha, gamma_raw=np.sqrt(gammas))

    def train_config(self, args) -> TrainConfig:
        """The ``[training]`` values of ``TrainConfig``'s fields; a flag of the
        same name (``--mode``, ``--seed``) overrides."""
        try:
            return TrainConfig(**{f.name: self.get("training", f.name, getattr(args, f.name, None))
                                  for f in fields(TrainConfig)})
        except ValueError as err:
            raise ConfigError(f"{self.path}: bad [training]: {err}") from None


# -- helpers ------------------------------------------------------------------------


def _read_bytes(path: Path, what: str) -> bytes:
    """The bytes of the input file ``path`` (a config, manifest, model or record
    file, or the record table), read once; a missing file is a data error."""
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path.read_bytes()


def _decode_utf8(raw: bytes, path: Path) -> str:
    """The text of the bytes ``raw`` of the file ``path``, decoded as strict UTF-8
    whatever the locale; a byte that is not UTF-8 is a data error naming its line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as err:
        number = len((raw[:err.start] + b".").splitlines())  # '\n', '\r\n', '\r' end lines
        raise ConfigError(f"{path}:{number}: not UTF-8 text") from None


def _decode_json(text: str, path: Path, line: int | None = None) -> dict:
    """The JSON object ``text`` holds, the whole file ``path`` or its ``line``;
    malformed JSON (nesting past the decoder's depth included) or another JSON
    value is a data error naming the file and the line."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        fault = f"malformed JSON: {err}"
    else:
        if isinstance(data, dict):
            return data
        fault = "expected a JSON object"
    where = path if line is None else f"{path}:{line}"
    raise ConfigError(f"{where}: {fault}")


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


CHUNK_ROWS = 1024  # rows formed, hashed and written at a time, so no file's rows are held whole
INT_TEXTS = 10**4  # ints in [0, INT_TEXTS) take their text from one table, formed once


@cache
def _int_table() -> np.ndarray:
    return np.array([repr(i) for i in range(INT_TEXTS)], dtype=object)  # about 0.6 MB


def _joined(seps: list[str], cells: list[list[str]]) -> str:
    """The rows of field texts ``cells[j]``, seps[j] before field j and seps[-1] last."""
    parts = [""] * (len(seps) + len(cells))
    parts[::2] = seps
    parts *= len(cells[0])
    for j, texts in enumerate(cells):
        parts[2 * j + 1 :: len(seps) + len(cells)] = texts
    return "".join(parts)


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Columns (sequences or numpy arrays) as the bytes csv.writer gives for their
    rows, numbers as their repr and each distinct string quoted once, CHUNK_ROWS rows
    at a time; unequal lengths raise ValueError before the file is created."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"{path}: columns of unequal lengths {[len(c) for c in columns]}")

    @cache
    def quote(value: str) -> str:  # as csv.writer writes it in a row of several fields
        buf = io.StringIO()
        csv.writer(buf).writerow([value, ""])
        return buf.getvalue()[: -len(",\r\n")]

    def texts(values) -> list[str]:
        values = values.tolist() if isinstance(values, np.ndarray) else values
        return list(map(quote if values and isinstance(values[0], str) else repr, values))

    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(texts(header)) + "\r\n")
        for start in range(0, len(columns[0]) if columns else 0, CHUNK_ROWS):
            fh.write(_joined(["", *[","] * (len(columns) - 1), "\r\n"],
                             [texts(column[start : start + CHUNK_ROWS]) for column in columns]))


# The keys read from the JSON files, in RunConfig.SCHEMA's (cast, default) rows: a
# nested table is a JSON object and [table] an array of such objects. Keys that no
# table declares (toolkit_version, units, latent, final_*_loss, ...) are not read.
DEVICE_KEYS = {"omega01_GHz": (_json_number, REQUIRED), "omega_rot_GHz": (_json_number, REQUIRED),
               "T1_us": (_json_number, REQUIRED), "T2_us": (_json_number, REQUIRED),
               "base_model": (_choices(*dynamics.BASE_KINDS)[0], REQUIRED),
               "dim": (_int_in(2, parse=_integral), REQUIRED)}
EXPERIMENT_FIELDS = {"id": (_json_string, REQUIRED), "amplitude_p_MHz": (_json_number, REQUIRED),
                     "amplitude_q_MHz": (_json_number, 0.0),
                     "duration_us": (_json_number, REQUIRED),
                     "sample_dt_ns": (_json_number, REQUIRED)}  # the Experiment of an entry
EXPERIMENT_KEYS = {**EXPERIMENT_FIELDS, "file": (_json_string, REQUIRED),
                   "n_records": (_int_in(0, parse=_integral), REQUIRED)}
MANIFEST_KEYS = {"schema": (_choices(DATASET_SCHEMA)[0], REQUIRED), "device": DEVICE_KEYS,
                 "dt_internal_ns": (_json_positive, dynamics.DEFAULT_DT_INTERNAL_NS),
                 "experiments": [EXPERIMENT_KEYS]}
MODEL_KEYS = {"schema": (_choices(MODEL_SCHEMA)[0], REQUIRED),
              "ansatz": (_choices(*models.KINDS)[0], REQUIRED), "dim": DEVICE_KEYS["dim"],
              "params": (_json_numbers, REQUIRED), "train_horizon_us": (_json_positive, REQUIRED),
              "dt_internal_ns": (_json_positive, REQUIRED), "signed_gamma": (_json_bool, False),
              "n_layers": (_int_in(1, parse=_integral), None),  # None: the ansatz's own
              "activation": (_choices(models.ACTIVATION_IDENTITY, models.ACTIVATION_TANH)[0], None),
              "device": DEVICE_KEYS}


def _device_to_json(dev: DeviceModel) -> dict:
    return {key: getattr(dev, "base_kind" if key == "base_model" else key) for key in DEVICE_KEYS}


def _read_table(data: dict, table: dict, path: Path, where: str = "") -> dict:
    """The JSON object ``data`` with every key of ``table`` read by its row and
    every other key kept as it is; a fault names the file and the key path."""
    read = dict(data)
    for key, row in table.items():
        if isinstance(row, dict):
            read[key] = _read_table(_field(data, key, path, _json_object, where), row, path,
                                    f"{where}{key}.")
        elif isinstance(row, list):
            read[key] = [_read_table(entry, row[0], path, f"{where}{key}[{n}].")
                         for n, entry in enumerate(_field(data, key, path, _json_objects, where))]
        else:
            read[key] = _field(data, key, path, row[0], where, row[1])
    return read


def _read_json(path: Path, table: dict, what: str) -> dict:
    """The JSON object in the file ``path`` with the keys of ``table`` read; a
    missing file, bytes not UTF-8, malformed JSON or a key that does not read is
    a data error."""
    return _read_table(_decode_json(_decode_utf8(_read_bytes(path, what), path), path), table,
                       path)


def _device(values: dict, path: Path, block: str, base_override: str | None = None) -> DeviceModel:
    """The DeviceModel of a device block read by its table; a value DeviceModel
    rejects is a data error naming the file and the block."""
    try:
        return DeviceModel(**{key: values[key] for key in DEVICE_KEYS if key != "base_model"},
                           base_kind=base_override or values["base_model"])
    except ValueError as err:
        raise ConfigError(f"{path}: bad {block}: {err}") from None


def _check_internal_step(dt_internal_ns: float, experiments, path: Path, key: str) -> None:
    """A data error naming the file and the key that set ``dt_internal_ns``
    unless it divides every experiment's sample step within MAX_SUBSTEPS."""
    for exp in experiments:
        try:
            dynamics.integration_steps(exp, dt_internal_ns)
        except ValueError as err:
            raise ConfigError(f"{path}: {key!r} does not fit the sample step of experiment "
                              f"{exp.id}: {err}") from None


def save_model(
    path: Path,
    source,
    dev: DeviceModel,
    mode: str,
    train_horizon_us: float,
    dt_internal_ns: float,
    seed: int,
    extra: dict | None = None,
) -> None:
    payload = {
        "schema": MODEL_SCHEMA,
        "toolkit_version": __version__,
        "ansatz": source.kind,
        "dim": source.dim,
        "mode": mode,
        "train_horizon_us": train_horizon_us,
        "dt_internal_ns": dt_internal_ns,
        "basis_convention": "gell-mann-standard+elementary-hermitian",
        "units": {"alpha": "rad/us", "gamma": "1/us", "time": "us"},
        "params": [float(v) for v in source.pack()],
        "seed": seed,
        "device": _device_to_json(dev),
    }
    if source.kind == models.KIND_SP:
        payload["signed_gamma"] = source.signed
    else:
        payload["n_layers"] = source.n_layers
        payload["activation"] = source.activation
    if extra:
        payload.update(extra)
    _json_dump(payload, path)


def load_model(path: str | Path):
    path = Path(path)
    data = _read_json(path, MODEL_KEYS, "model file")
    kind, dim, theta, layers = data["ansatz"], data["dim"], data["params"], data["n_layers"]
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ConfigError(f"{path}: bad value for 'params[{bad[0]}]': {theta.flat[bad[0]]} "
                          "(not finite)")
    # a source of dimension d has at least d * d - 1 parameters and one per layer,
    # so neither integer can ask for more memory than the params already hold
    for key, least in (("dim", dim * dim - 1), ("n_layers", layers or 1)):
        if least > theta.size:
            raise ConfigError(f"{path}: {key!r} is {data[key]!r}, too large for "
                              f"{theta.size} params")
    if data["device"]["dim"] != dim:
        raise ConfigError(f"{path}: 'dim' is {dim}, but 'device.dim' is {data['device']['dim']}")
    template = models.make_source(kind, dim=dim, hidden_layers=(layers or 1) - 1,
                                  signed=data["signed_gamma"])
    for key in ("n_layers", "activation"):  # what save_model writes for a network
        expected = getattr(template, key, None)
        if data[key] not in (None, expected):
            raise ConfigError(f"{path}: {key!r} is {data[key]!r}, not {kind}'s {expected!r}")
    if theta.size != template.pack().size:
        shape = "" if kind == models.KIND_SP else f" and 'n_layers' {template.n_layers}"
        raise ConfigError(f"{path}: 'params' has {theta.size} entries, but 'ansatz' {kind!r} "
                          f"of 'dim' {dim}{shape} has {template.pack().size}")
    return template.with_params(theta), data


RECORD_FIELDS = ("time_us", "shots", "kx", "ky", "kz")  # after the exp_id and amplitude


def _row_prefix(exp: Experiment) -> str:
    """The exp_id and amplitude that begin each record row of ``exp``."""
    return '{"exp_id": %s, "amplitude_MHz": %s, ' % (json.dumps(exp.id),
                                                      json.dumps(exp.amplitude_p_MHz))


# The record table write_dataset writes beside the record files: the RECORD_FIELDS
# columns of each file as float64, keyed by the SHA-256 of the file's bytes, so that
# a loader takes them in place of decoding that text. Little-endian, 40 B per row:
#   RECORD_TABLE_MAGIC (8 B) | version (u64) | file count F (u64)
#   F x [SHA-256 of a record file's bytes (32 B) | its row count (u64)]
#   the F files' (rows, 5) float64 blocks, row-major, in index order
#   the SHA-256 of every byte above (32 B)
# It is never the data, only a copy of what the record files decode to: a table that
# is missing, of another magic or version, of another length or digest is ignored.
RECORD_TABLE = "records.bin"
RECORD_TABLE_MAGIC, RECORD_TABLE_VERSION = b"qude-col", 1


def _write_record_table(path: Path, index: list[bytes], blocks: list[RecordBlock]) -> None:
    """The record table of the record files with the packed (SHA-256, row count)
    entries ``index`` and the record blocks ``blocks``, formed CHUNK_ROWS rows at
    a time and hashed as it is written."""
    chunks = (block.take(slice(start, start + CHUNK_ROWS))
              for block in blocks for start in range(0, len(block), CHUNK_ROWS))
    # the values of the rows as their text decodes: counts of rows with shots are
    # written as integers, exact probabilities as floats
    columns = (np.column_stack([rows.times_us, rows.shots,
                                np.where((rows.shots == 0)[:, None], rows.counts,
                                         rows.counts.astype(np.int64))]).astype("<f8", copy=False)
               for rows in chunks)
    sha256 = hashlib.sha256()
    with path.open("wb") as fh:
        for part in (RECORD_TABLE_MAGIC, struct.pack("<QQ", RECORD_TABLE_VERSION, len(index)),
                     *index, *columns):
            sha256.update(part)
            fh.write(part)
        fh.write(sha256.digest())


def _read_record_table(path: Path) -> dict[bytes, np.ndarray]:
    """The (rows, 5) blocks of the record table ``path``, views of its bytes, by
    the SHA-256 of the record file each stands for; no blocks for a table that is
    missing, of another magic or version, or whose length or digest does not check."""
    if not path.is_file():
        return {}
    raw = _read_bytes(path, "record table")
    start = len(RECORD_TABLE_MAGIC) + 16
    if len(raw) < start + 32 or not raw.startswith(RECORD_TABLE_MAGIC):
        return {}
    version, n_files = struct.unpack_from("<QQ", raw, len(RECORD_TABLE_MAGIC))
    end = start + 40 * n_files
    if version != RECORD_TABLE_VERSION or end + 32 > len(raw):
        return {}
    index = list(struct.iter_unpack("<32sQ", raw[start:end]))
    if (len(raw) != end + 40 * sum(rows for _, rows in index) + 32
            or hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]):
        return {}
    blocks = {}
    for key, rows in index:
        blocks[key] = np.frombuffer(raw, "<f8", 5 * rows, end).reshape(rows, 5)
        end += 40 * rows
    return blocks


def _write_records(path: Path, exp: Experiment, block: RecordBlock) -> bytes:
    """Write the record file of ``exp`` CHUNK_ROWS rows at a time; its record
    table entry, (SHA-256, row count), packed."""
    # The bytes json.dumps gives for each row's dict: Python ints and floats
    # written by repr, the exp_id and amplitude prefix encoded once per file.
    seps = [_row_prefix(exp) + '"time_us": ',
            *(f', "{field}": ' for field in RECORD_FIELDS[1:]), "}\n"]
    sha256 = hashlib.sha256()
    with path.open("wb") as fh:
        for start in range(0, len(block), CHUNK_ROWS):
            rows = block.take(slice(start, start + CHUNK_ROWS))
            ints = np.column_stack([rows.shots, rows.counts.astype(np.int64)]).T
            texts = (_int_table()[ints].tolist() if 0 <= ints.min() and ints.max() < INT_TEXTS
                     else [list(map(repr, column)) for column in ints.tolist()])
            for i in np.flatnonzero(rows.shots == 0).tolist():  # exact probabilities stay floats
                texts[1][i], texts[2][i], texts[3][i] = map(repr, rows.counts[i].tolist())
            chunk = _joined(seps, [list(map(repr, rows.times_us.tolist())), *texts]).encode()
            sha256.update(chunk)
            fh.write(chunk)
    return sha256.digest() + struct.pack("<Q", len(block))


def write_dataset(
    out_dir: Path,
    dev: DeviceModel,
    experiments: list[tuple[Experiment, RecordBlock]],
    seed: int,
    config_sha: str,
    shots: int,
    shot_mode: str,
    dt_internal_ns: float,
    latent_info: dict,
) -> Path:
    for exp, block in experiments:
        partial = (block.shots != 0) & np.any(block.counts != np.floor(block.counts), axis=1)
        if partial.any():
            row = int(np.argmax(partial))
            raise ValueError(f"experiment {exp.id} row {row}: counts {block.counts[row]} "
                             f"of {block.shots[row]} shots are not integers")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_entries, index = [], []
    for exp, block in experiments:
        fname = f"{exp.id}.jsonl"
        index.append(_write_records(out_dir / fname, exp, block))
        manifest_entries.append({**{key: getattr(exp, key) for key in EXPERIMENT_FIELDS},
                                 "file": fname, "n_records": len(block)})
    _write_record_table(out_dir / RECORD_TABLE, index, [block for _, block in experiments])
    manifest = {
        "schema": DATASET_SCHEMA,
        "toolkit_version": __version__,
        "seed": seed,
        "config_sha256": config_sha,
        "shots": shots,
        "shot_mode": shot_mode,
        "dt_internal_ns": dt_internal_ns,
        "device": _device_to_json(dev),
        "latent": latent_info,
        "experiments": manifest_entries,
    }
    manifest_path = out_dir / "manifest.json"
    _json_dump(manifest, manifest_path)
    return manifest_path


def _prefixed_rows(text: str, exp: Experiment) -> int | None:
    """The line count of a record file's text that ends in '\n' and holds
    ``_row_prefix(exp)`` as often as it has lines, else None. A row write_dataset
    wrote holds '"exp_id": "' once, after its opening '{' (JSON escapes each quote
    in a string), so there the count holds exactly when every row begins with the
    manifest entry's exp_id and amplitude."""
    n = text.count("\n")
    return n if text.endswith("\n") and text.count(_row_prefix(exp)) == n else None


def _overflows(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _reject(path: Path, line_numbers, bad, field: str, problem: str) -> None:
    bad = np.asarray(bad, dtype=bool)
    if bad.any():
        number = line_numbers[int(np.argmax(bad))]
        raise ConfigError(f"{path}:{number}: field {field!r} {problem}")


def _line_table(path: Path, text: str, exp: Experiment) -> tuple[np.ndarray, list[int]]:
    """The (n, 5) RECORD_FIELDS columns and line numbers of the text of the record
    file ``path``, in any JSON Lines layout: each non-blank line decoded on its
    own, every fault a data error naming its line (and field). The checks run on
    whole columns; the row comprehensions run only to locate a bad row."""
    # the lines text-mode iteration gives: universal newlines, then split after each
    # '\n' (str.splitlines would also split on '\x0c', '\x85', '\u2028' and others)
    lines = io.StringIO(text, newline=None).readlines()
    line_numbers = [number for number, line in enumerate(lines, 1) if line.strip()]
    if not line_numbers:
        raise ConfigError(f"{path}: no records")
    # each line decoded without its '\n', so that the decoder's positions lie on it
    rows = [_decode_json(lines[number - 1].removesuffix("\n"), path, number)
            for number in line_numbers]
    reject = partial(_reject, path, line_numbers)
    for field, expected in (("exp_id", exp.id), ("amplitude_MHz", exp.amplitude_p_MHz)):
        values = [row.get(field) for row in rows]
        # list.count matches an object to itself first, so a shared NaN would count as
        # equal; Experiment rejects a non-finite amplitude
        if values.count(expected) != len(values):
            reject([v != expected for v in values], field,
                   f"does not match the manifest entry ({expected!r})")
    columns = []
    for field in RECORD_FIELDS:
        values = [row.get(field) for row in rows]
        if not set(map(type, values)) <= {int, float}:
            reject([type(v) not in (int, float) for v in values], field,
                   "is missing or not a number")
        try:
            columns.append(np.array(values, dtype=float))
        except OverflowError:  # an int too large for a float
            reject([_overflows(v) for v in values], field, "is too large for a float")
        reject(~np.isfinite(columns[-1]), field, "is not finite")
    return np.stack(columns, axis=1), line_numbers


def _read_records(path: Path, exp: Experiment, vouched: dict[bytes, np.ndarray]) -> RecordBlock:
    """The record block of one JSON Lines file, every row checked against
    itself and against the manifest entry ``exp``: taken from ``vouched`` (the
    record table's blocks) when it holds finite columns for the file's bytes and
    every row begins with the entry's exp_id and amplitude, else decoded from its
    text line by line (``_line_table``); then checked on whole columns against the
    sample grid, the shot range and the counts."""
    raw = _read_bytes(path, "record file")
    text = _decode_utf8(raw, path)
    block = vouched.get(hashlib.sha256(raw).digest()) if vouched else None
    if block is not None and len(block) == _prefixed_rows(text, exp) and np.isfinite(block).all():
        table, line_numbers = block, range(1, len(block) + 1)
    else:
        table, line_numbers = _line_table(path, text, exp)
    reject = partial(_reject, path, line_numbers)
    # copies (RecordBlock casts the shots), so that the block holds no view of the
    # table, nor of the record table's bytes
    times, shots, counts = table[:, 0].copy(), table[:, 1], table[:, 2:].copy()
    # tested as train.Dataset tests it, with total = duration
    reject(exp.off_grid(times) | ~train.in_train_split(times, exp.duration_us), "time_us",
           f"is off the {exp.sample_dt_ns} ns sample grid, repeated, after a gap or past "
           f"{exp.duration_us} us")
    reject((shots < 0) | (shots > MAX_SHOTS) | (shots != np.floor(shots)), "shots",
           "is not an integer in [0, 2**53]")
    limit = np.where(shots > 0, shots, 1.0)
    for field, count in zip(("kx", "ky", "kz"), counts.T):
        problem = "is not an integer in [0, shots] (a number in [0, 1] when shots is 0)"
        reject((count < 0) | (count > limit) | ((shots > 0) & (count != np.floor(count))), field,
               problem)
    return RecordBlock.from_counts(times, shots, counts)


def load_dataset(manifest_path: str | Path, train_horizon_us: float | None = None,
                 base_override: str | None = None) -> tuple[Dataset, DeviceModel, dict]:
    manifest_path = Path(manifest_path)
    manifest = _read_json(manifest_path, MANIFEST_KEYS, "dataset manifest")
    if manifest["device"]["dim"] != 2:  # kx, ky, kz: every record is a qubit's tomography
        raise ConfigError(f"{manifest_path}: 'device.dim' is {manifest['device']['dim']}, "
                          "not a qubit's 2")
    dev = _device(manifest["device"], manifest_path, "device", base_override)
    vouched = _read_record_table(manifest_path.parent / RECORD_TABLE)
    experiments, first_of = [], {}
    total = 0.0
    for n, entry in enumerate(manifest["experiments"]):
        try:
            exp = Experiment(**{key: entry[key] for key in EXPERIMENT_FIELDS})
        except ValueError as err:
            raise ConfigError(f"{manifest_path}: bad experiments[{n}]: {err}") from None
        first = first_of.setdefault(exp.id, n)
        if first != n:
            raise ConfigError(f"{manifest_path}: experiments[{n}].id {exp.id!r} repeats "
                              f"experiments[{first}].id")
        data_file = manifest_path.parent / entry["file"]
        if not data_file.is_file():
            raise ConfigError(f"{manifest_path}: bad value for 'experiments[{n}].file': "
                              f"{_SHOWN.repr(entry['file'])} (no such file: {data_file})")
        block = _read_records(data_file, exp, vouched)
        if len(block) != entry["n_records"]:
            raise ConfigError(f"{data_file}: {len(block)} rows, not experiments[{n}].n_records = "
                              f"{entry['n_records']}")
        experiments.append((exp, block))
        total = max(total, exp.duration_us)
    horizon = train_horizon_us if train_horizon_us is not None else total
    try:
        dataset = Dataset(experiments, train_horizon_us=horizon, total_horizon_us=total)
    except ValueError as err:  # the record gate: every rejection there is a data error
        raise ConfigError(f"{manifest_path}: {err}") from None
    return dataset, dev, manifest


# -- commands -----------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = RunConfig.load(args.config)
    # nothing is trained, but [training] is checked as train checks it; generate's
    # --seed is the experiments' seed, so no flag reaches the TrainConfig
    dt_internal = cfg.train_config(argparse.Namespace()).dt_internal_ns
    dev = cfg.device()
    if dev.dim != 2:  # kx, ky, kz: every record is a qubit's tomography
        raise ConfigError(f"{cfg.path}: '[device] dim' = {dev.dim}: tomography measures "
                          f"qubits (dim 2), not dim {dev.dim}")
    latent = cfg.latent_source()
    seed = cfg.get("experiments", "seed", args.seed)
    n_exp = cfg.get("experiments", "n_experiments")
    p_max = cfg.get("experiments", "p_max_MHz")
    duration = cfg.get("experiments", "duration_us")
    sample_dt = cfg.get("experiments", "sample_dt_ns")
    shots = cfg.get("experiments", "shots")
    shot_mode = cfg.get("experiments", "shot_mode")
    if shots and tomography.axis_shot_budget(shots, shot_mode) < 1:
        raise ConfigError(f"{cfg.path}: '[experiments] shots' = {shots} is too few for "
                          f"shot_mode {shot_mode!r}")
    out_dir = Path(cfg.get("output", "directory", args.out))

    amp_rng = np.random.default_rng([seed, 0])
    amplitudes = [p_max * (1.0 - amp_rng.random()) for _ in range(n_exp)]
    try:
        exps = [Experiment(id=f"exp-{i:03d}", amplitude_p_MHz=float(a), duration_us=duration,
                           sample_dt_ns=sample_dt) for i, a in enumerate(amplitudes)]
    except ValueError as err:  # each value is checked on load, so only the grid can be off
        raise ConfigError(f"{cfg.path}: '[experiments] sample_dt_ns' does not fit "
                          f"'[experiments] duration_us': {err}") from None
    _check_internal_step(dt_internal, exps, cfg.path, "[training] dt_internal_ns")

    # popped in experiment order, so each trajectory is freed once its records are drawn
    trajectories = dynamics.integrate_many(dev, exps, latent, dt_internal)[::-1]
    results = [
        (exp, tomography.simulate_records(trajectories.pop(), shots,
                                          np.random.default_rng([seed, 1 + i]), shot_mode))
        for i, exp in enumerate(exps)
    ]

    if latent is None:
        latent_info = {"ansatz": "none"}
    elif latent.kind == models.KIND_SP:
        latent_info = {"ansatz": latent.kind, "alpha_rad_per_us": latent.alpha.tolist(),
                       "gamma_per_us": latent.gammas.tolist()}
    else:
        latent_info = {"ansatz": latent.kind, "params": latent.pack().tolist()}

    manifest_path = write_dataset(out_dir, dev, results, seed=seed, config_sha=cfg.sha256(),
                                  shots=shots, shot_mode=shot_mode, dt_internal_ns=dt_internal,
                                  latent_info=latent_info)
    n_records = sum(len(records) for _, records in results)
    print(f"wrote {len(results)} experiments, {n_records} records -> {manifest_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    ansatz_kind = cfg.get("training", "ansatz", args.ansatz)
    horizon = cfg.get("training", "train_horizon_us", args.train_horizon_us)
    dataset, dev, _ = load_dataset(args.dataset, train_horizon_us=horizon, base_override=args.base)
    config = cfg.train_config(args)
    _check_internal_step(config.dt_internal_ns, [exp for exp, _ in dataset.experiments],
                         cfg.path, "[training] dt_internal_ns")
    template = models.make_source(
        ansatz_kind,
        dim=dev.dim,
        hidden_layers=cfg.get("training", "hidden_layers"),
        seed=config.seed,
        signed=cfg.get("training", "gamma_mode") == "signed",
    )

    if config.mode == train.MODE_EXP_SPEC:
        dataset = dataset.restrict(config.experiment_id)

    result = train.fit(dataset, dev, template, config)
    fitted = template.with_params(result.theta_star)

    out_dir = Path(cfg.get("output", "directory", args.out))
    out_dir.mkdir(parents=True, exist_ok=True)
    train_loss, val_loss = train.split_losses(dataset, dev, fitted, config.dt_internal_ns)

    model_path = out_dir / "model.json"
    save_model(
        model_path,
        fitted,
        dev,
        mode=config.mode,
        train_horizon_us=dataset.train_horizon_us,
        dt_internal_ns=config.dt_internal_ns,
        seed=config.seed,
        extra={
            "final_train_loss": train_loss,
            "final_validation_loss": val_loss,
            "stalled": result.stalled,
        },
    )
    _write_csv(out_dir / "training_log.csv", ["iteration", *train.FitRow._fields],
               [range(len(result.rows)), *zip(*result.rows)])
    print(f"final train loss: {train_loss!r}")
    print(f"final validation loss: {val_loss!r}")
    print(f"model -> {model_path}")
    return EXIT_OK


def _load_model_or_base(args, manifest: dict):
    """(source, device, model data, the file they were read from) of ``--model``,
    with ``--base`` applied; 'base' is the manifest's device with no source."""
    if args.model == "base":
        path, source = Path(args.dataset), None
        data = {"ansatz": "base", "train_horizon_us": None, "device": manifest["device"],
                "dt_internal_ns": manifest["dt_internal_ns"]}
    else:
        path = Path(args.model)
        source, data = load_model(path)
    return source, _device(data["device"], path, "device", args.base), data, path


def cmd_evaluate(args) -> int:
    _evaluate(args)
    return EXIT_OK


def _evaluate(args) -> tuple:
    """evaluate's reports; returns the model as loaded, (source, data), with
    source None for 'base'."""
    dataset, manifest_dev, manifest = load_dataset(args.dataset)
    source, dev, model_data, model_path = _load_model_or_base(args, manifest)
    if dev.dim != manifest_dev.dim:
        raise ConfigError(f"{args.model}: model dimension {dev.dim} ('dim') does not match "
                          f"dataset dimension {manifest_dev.dim} ('device.dim' of {args.dataset})")
    horizon = args.train_horizon_us
    if horizon is None:
        horizon = model_data["train_horizon_us"] or dataset.total_horizon_us
    dt_internal = model_data["dt_internal_ns"]
    _check_internal_step(dt_internal, [exp for exp, _ in dataset.experiments], model_path,
                         "dt_internal_ns")
    model_name = model_data["ansatz"]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report, predictions = metrics.evaluate_model(
        model_name, dev, source, dataset.experiments, horizon, dt_internal
    )

    moments = [(r.model, r.split, r.mean, r.stddev, r.count) for r in report.moments]
    _write_csv(out_dir / "moments.csv", ["model", "split", "mean", "stddev", "count"],
               list(zip(*moments)))
    histogram = [
        (model_name, split_tag, lo, hi, density)
        for split_tag, (edges, densities) in report.histogram.items()
        for lo, hi, density in zip(edges[:-1].tolist(), edges[1:].tolist(), densities.tolist())
    ]
    _write_csv(out_dir / "histogram.csv", ["model", "split", "bin_lo", "bin_hi", "density"],
               list(zip(*histogram)))
    experiments = dataset.experiments
    energy = [
        np.repeat(np.array([exp.id for exp, _ in experiments], dtype=object),
                  [len(block) for _, block in experiments]),
        np.concatenate([block.times_us for _, block in experiments]),
        np.concatenate([tomography.expected_energy_many(predictions[exp.id].states)
                        for exp, _ in experiments]),
        np.concatenate([tomography.expected_energy_many(block.rho_hat)
                        for _, block in experiments]),
    ]
    _write_csv(out_dir / "energy.csv", ["exp_id", "time_us", "energy_pred", "energy_target"], energy)
    etd = [(model_name, split_tag, mean, se, n)
           for split_tag, (mean, se, n) in report.expected_trace_distance.items()]
    _write_csv(out_dir / "expected_trace_distance.csv",
               ["model", "split", "mean", "stderr", "n_experiments"], list(zip(*etd)))
    for row in report.moments:
        print(f"{row.model} {row.split}: mean={row.mean:.6g} stddev={row.stddev:.6g}")
    print(f"reports -> {out_dir}")
    return source, model_data


def cmd_characterize(args, model: tuple | None = None) -> int:
    """characterize ``model``, (source, data) as ``load_model`` gives it, or else
    the model file ``args.model``."""
    source, data = model or load_model(args.model)
    if source.kind != models.KIND_SP:
        raise ConfigError(f"characterize needs a structure-preserving model, got {source.kind!r}")
    if args.config:
        dev = RunConfig.load(args.config).device()
        if dev.dim != source.dim:
            raise ConfigError(f"{args.config}: '[device] dim' is {dev.dim}, but the model "
                              f"{args.model} has dimension {source.dim}")
    else:
        dev = _device(data["device"], Path(args.model), "device")

    s_h = models.sp_hermitian(source)
    to_khz = 1e3 / TWO_PI
    s_h_khz = s_h * to_khz
    times = models.effective_times(dev, source)
    gammas = source.gammas

    text = "\n".join([
        "Hermitian perturbation (kHz):",
        *("  [ " + "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row) + " ]"
          for row in s_h_khz),
        f"detuning perturbation: {s_h_khz[1, 1].real:.4f} kHz",
        "inverse channel rates (us): " + ", ".join(f"{t:.4g}" for t in times.per_channel_us),
        f"T1_eff = {times.T1_eff_us:.4g} us (bare {dev.T1_us:.4g} us)",
        f"T2_eff = {times.T2_eff_us:.4g} us (bare {dev.T2_us:.4g} us)",
    ])
    print(text)

    payload = {
        "model_file": str(args.model),
        "toolkit_version": __version__,
        "alpha_kHz": [float(a * to_khz) for a in source.alpha],
        "hermitian_perturbation_kHz": {
            "re": [[float(z.real) for z in row] for row in s_h_khz],
            "im": [[float(z.imag) for z in row] for row in s_h_khz],
        },
        "detuning_kHz": float(s_h_khz[1, 1].real),
        "gamma_per_us": [float(g) for g in gammas],
        "inverse_channel_rates_us": [float(t) for t in times.per_channel_us],
        "T1_eff_us": float(times.T1_eff_us),
        "T2_eff_us": float(times.T2_eff_us),
        "T1_bare_us": dev.T1_us,
        "T2_bare_us": dev.T2_us,
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _json_dump(payload, out_dir / "characterization.json")
        (out_dir / "characterization.txt").write_text(text + "\n", encoding="utf-8")
        print(f"characterization -> {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    source, data = _evaluate(args)  # the model file read once, for both halves
    if source is not None and source.kind == models.KIND_SP:
        cmd_characterize(args, (source, data))
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------------


@cache  # built on first use, then reused by every main call in the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qude",
        description="Twin-data generation, training, and evaluation of augmented qubit models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="simulate a twin dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="fit a source term to a dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--dataset", required=True, help="dataset manifest path")
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--ansatz", choices=models.KINDS, default=None)
    p_train.add_argument("--base", choices=dynamics.BASE_KINDS, default=None)
    p_train.add_argument("--mode", choices=train.MODES, default=None)
    p_train.add_argument("--train-horizon-us", type=float, default=None)
    p_train.add_argument("--seed", type=int, default=None)

    scoring = argparse.ArgumentParser(add_help=False)  # what evaluate and report share
    scoring.add_argument("--model", required=True, help="model file or 'base'")
    scoring.add_argument("--dataset", required=True)
    scoring.add_argument("--out", required=True)
    scoring.add_argument("--base", choices=dynamics.BASE_KINDS, default=None)
    scoring.add_argument("--train-horizon-us", type=float, default=None)
    sub.add_parser("evaluate", parents=[scoring], help="evaluate a model against a dataset")

    p_char = sub.add_parser("characterize", help="interpret a structure-preserving model")
    p_char.add_argument("--model", required=True)
    p_char.add_argument("--config", default=None, help="optional device config override")
    p_char.add_argument("--out", default=None)

    p_rep = sub.add_parser("report", parents=[scoring],
                           help="evaluate and characterize into one directory")
    p_rep.add_argument("--config", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        horizon = getattr(args, "train_horizon_us", None)
        if horizon is not None and not 0.0 < horizon < np.inf:
            raise ConfigError(f"--train-horizon-us must be positive and finite, got {horizon!r}")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, so a replaced verb runs
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        dynamics.DivergenceError,
        train.GradientFailureError,
        DegenerateSpectrumError,  # a ValueError, so caught before the next clause
        UnphysicalRateError,  # likewise
    ) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:  # inconsistent config or data found past the loaders
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
