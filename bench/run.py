"""qude benchmark: one workload per run, end-to-end metrics or a layer trace.

    python3 bench/run.py --workload chain-twin50 --seed 42 --seconds 30 --trace 0

Run it from the repository root (or any checkout holding ``src/qude`` and
``BENCHMARK.json``). With ``--trace 0`` it sets up the workload several
times, then repeats passes for ``--seconds`` seconds and reports medians of
the end-to-end metrics. With ``--trace 1`` it times the per-ansatz probes,
runs one untraced and one traced unit of the workload, checks that both
produced identical outputs, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
(``record {...}``) holds the environment, the workload definition and every
metric's median, minimum and sample count. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One process, one BLAS thread: set before numpy is first imported, just below.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
PROBE_REPEATS = 3

# ROADMAP.md's baseline table (2-core host, numpy 2.4.6, best of 3), in seconds.
ROADMAP_BASELINE = {
    "train.loss.sp.s": 0.0107,
    "train.loss.affine.s": 0.0884,
    "train.loss.nonlinear.s": 0.141,
    "train.gradient.sp.s": 0.0202,
    "train.gradient.affine.s": 0.263,
    "train.gradient.nonlinear.s": 0.547,
    "dynamics.integrate_rk4.sp_50us.s": 0.0171,
    "dynamics.integrate_rk4.nonlinear_50us.s": 0.422,
}
# CLI end to end, 5 x 50 us, SP (the chain-twin50 verbs).
ROADMAP_CLI = {"generate_s": 1.15, "train_s": 2.94, "evaluate_s": 1.15}


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


def import_qude():
    """A fresh import of the qude package (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "qude" or m.startswith("qude.")]:
        del sys.modules[name]
    return importlib.import_module("qude")


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qude").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(workload, clock, seed: int, seconds: float, workdir: Path, ops) -> dict[str, list[float]]:
    """Set up SETUP_REPEATS times, then run passes for ``seconds``; per-metric samples."""
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        with clock.timed() as span:
            qude = import_qude()
            timed_parts = workload.setup(qude, clock, ops, workdir, seed)
        samples["setup_s"].append(span.seconds)
        samples["raw.setup_s"].append(span.raw_s)
        for part, raw_s in timed_parts.items():
            samples[f"{part}_s"].append(raw_s * span.seconds / span.raw_s)
            samples[f"raw.{part}_s"].append(raw_s)

    begin = time.perf_counter()
    last = 0.0
    # Start another pass only if it is expected to end inside the budget.
    while not samples["wall_s"] or time.perf_counter() - begin + last <= seconds:
        start = time.perf_counter()
        result = workload.run_pass()
        last = time.perf_counter() - start
        samples["wall_s"].append(result.wall_s)
        samples["raw.wall_s"].append(result.raw_wall_s)
        for stage in result.times:
            samples[f"{stage}_s"].append(result.times[stage])
            samples[f"raw.{stage}_s"].append(result.raw[stage])
        for name, value in {**result.quality, **result.extra}.items():
            samples[name].append(value)
    samples["peak_rss_mb"].append(peak_rss_mb())
    samples["calibration_s"] = clock.calibrations
    return samples


def trace(workload, clock, seed: int, workdir: Path, ops, wanted: list[str]):
    """Probes, one untraced and one traced unit; per-layer values and absences."""
    qude = import_qude()
    workload.setup(qude, clock, ops, workdir, seed)
    values, probes_raw = workloads.probes(qude, clock, seed, PROBE_REPEATS)

    reference = workload.traced_unit()
    tracer = layers.Tracer()
    with tracer.installed(qude):
        traced = workload.traced_unit()
    values["trace.overhead_s"] = traced.wall_s - reference.wall_s

    differing = sorted(
        name for name in reference.outputs.keys() | traced.outputs.keys()
        if reference.outputs.get(name) != traced.outputs.get(name)
    )
    ops.record(
        "trace fidelity",
        [f"traced outputs differ from untraced ones: {differing}"] if differing else [],
    )
    layer_values, absent = layers.layer_metrics(
        tracer, [name for name in wanted if name not in values]
    )
    values.update(layer_values)
    trace_file = ROOT / ".bench_work" / "traces" / f"{workload.name}-seed{seed}.json"
    tracer.write(trace_file)
    return values, probes_raw, absent, reference, trace_file


def baseline_rows(calibrated: dict[str, float], raw: dict[str, float],
                  table: dict[str, float]) -> list[str]:
    return [
        f"baseline-check {name}: roadmap {table[name]:.4g} s, measured {calibrated[name]:.4g} s "
        f"calibrated (x{calibrated[name] / table[name]:.2f}), {raw[name]:.4g} s raw"
        for name in table
        if name in calibrated and name in raw
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default per workload)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qude" / "__init__.py").is_file() or not spec_path.is_file():
        log(f"needs {ROOT / 'src' / 'qude'} and {spec_path}; nothing to benchmark")
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    seed = workload.default_seed if args.seed is None else args.seed
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name)

    ops = workloads.Ops(log)
    clock = Clock()
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    record = {
        "env": environment(),
        "workload": {"name": workload.name, "why": why, **workload.definition(seed)},
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        if args.trace:
            values, probes_raw, absent, reference, trace_file = trace(
                workload, clock, seed, workdir, ops, list(units)
            )
            record["probes_raw_s"] = probes_raw
            record["calibration_s"] = statistics.median(clock.calibrations)
            record["absent"] = absent
            record["trace_file"] = str(trace_file.relative_to(ROOT))
            for name, reason in absent.items():
                log(f"metric {name} absent ({reason}); reported as 0")
            rows = baseline_rows(values, probes_raw, ROADMAP_BASELINE)
            if workload.name == "chain-twin50":
                rows += baseline_rows(
                    {f"{stage}_s": s for stage, s in reference.times.items()},
                    {f"{stage}_s": s for stage, s in reference.raw.items()},
                    ROADMAP_CLI,
                )
        else:
            samples = measure(workload, clock, seed, args.seconds, workdir, ops)
            record["samples"] = {
                name: {"median": statistics.median(v), "min": min(v), "n": len(v)}
                for name, v in sorted(samples.items())
            }
            missing = [name for name in units if not samples.get(name)]
            if missing and not ops.failed:
                raise RuntimeError(f"declared metrics not measured: {missing}")
            values = {name: statistics.median(samples[name]) if samples.get(name) else 0.0
                      for name in units}
            raw = {name: statistics.median(samples[f"raw.{name}"]) for name in ROADMAP_CLI
                   if samples.get(f"raw.{name}")}
            rows = baseline_rows(values, raw, ROADMAP_CLI) if workload.name == "chain-twin50" else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for row in rows:
        print(row)
    record["attempted"], record["failed"] = ops.attempted, ops.failed
    print("record " + json.dumps(record, sort_keys=True), flush=True)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
