"""Layer trace taken from outside the program.

``Tracer.installed(qude)`` replaces the public functions named in
``TARGETS`` with pass-through wrappers for the length of a ``with`` block and
restores the originals afterwards. Each wrapper records one span (name,
start, end, parent span id) and, where the target has a counter, the work
it did. Spans and counts stay in memory; ``layer_metrics`` turns them into
the ``<module>.<function>.<quantity>`` metrics of the traced run.

A target that no longer exists, or a counter that can no longer read its
inputs, is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _manifest_bytes(manifest_path) -> int:
    """Size of a dataset manifest plus every record file it lists."""
    manifest_path = Path(manifest_path)
    total = manifest_path.stat().st_size
    for entry in json.loads(manifest_path.read_text())["experiments"]:
        total += (manifest_path.parent / entry["file"]).stat().st_size
    return total


def _count_rk4_steps(args) -> dict:
    """Internal RK4 steps of one integrate_rk4 call, from its inputs."""
    exp = args["exp"]
    substeps = round(exp.sample_dt_ns / args["dt_internal_ns"])
    return {"steps": exp.n_samples * substeps}


def _count_fit(args, result, duration) -> dict:
    phases = list(result.phases)
    return {
        "adam_iters": phases.count("adam"),
        "lbfgs_iters": phases.count("lbfgs"),
        f"{args['ansatz'].kind}.s": duration,
    }


# target -> counter(bound arguments, result, span duration) -> {quantity: amount}
TARGETS = {
    "cli.cmd_generate": None,
    "cli.cmd_train": None,
    "cli.cmd_evaluate": None,
    "cli.load_dataset": lambda a, r, d: {"bytes": _manifest_bytes(a["manifest_path"])},
    "cli.write_dataset": lambda a, r, d: {"bytes": _manifest_bytes(r)},
    "cli.save_model": None,
    "cli.load_model": None,
    "tomography.simulate_records": lambda a, r, d: {"records": len(r)},
    "tomography.lie_reconstruct_many": lambda a, r, d: {"rows": len(r)},
    "tomography.measurement_probs_many": None,
    "qcore.spectral_filter_many": lambda a, r, d: {"matrices": len(r)},
    "qcore.trace_distance_many": lambda a, r, d: {"matrices": len(r)},
    "qcore.expand_many": None,
    "dynamics.integrate_rk4": lambda a, r, d: _count_rk4_steps(a),
    "dynamics.base_generator": None,
    "dynamics.rk4_step_matrix": None,
    "metrics.evaluate_model": None,
    "metrics.trace_distance_series": None,
    "metrics.expected_trace_distance": None,
    "train.fit": _count_fit,
}

# Each call is one engine evaluation; counted (without a span) inside train.fit.
EVAL_TARGETS = (
    "models.StructurePreservingSource.with_params",
    "models.NetworkSource.with_params",
)


def _resolve(qude, dotted: str):
    """(owner, attribute name, current value) for a dotted target, or None."""
    owner = qude
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if not callable(value):
        return None
    return owner, parts[-1], value


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = {}
        self.absent: dict[str, str] = {}  # target -> reason
        self._open: list[tuple[int, str]] = []  # (span id, name) of running spans
        self._next_id = 0

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _span_wrapper(self, name: str, fn, counter):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            self._open.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append((sid, name, start, end, parent))
            if counter is not None and name not in self.absent:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    amounts = counter(bound.arguments, result, end - start)
                except (AttributeError, KeyError, TypeError, ValueError, OSError) as exc:
                    self.absent[name] = f"counter failed: {type(exc).__name__}: {exc}"
                else:
                    for quantity, amount in amounts.items():
                        self._add(f"{name}.{quantity}", amount)
            return result

        return wrapper

    def _eval_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(name == "train.fit" for _, name in self._open):
                self._add("train.fit.evals", 1)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, qude):
        """Wrap every target on the given ``qude`` package; restore on exit."""
        wrappers = [(name, lambda fn, n=name, c=counter: self._span_wrapper(n, fn, c))
                    for name, counter in TARGETS.items()]
        wrappers += [(name, self._eval_wrapper) for name in EVAL_TARGETS]
        saved = []
        try:
            for name, wrap in wrappers:
                found = _resolve(qude, name)
                if found is None:
                    self.absent[name] = "wrap target not found"
                    continue
                owner, attr, fn = found
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrap(fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def aggregate(self) -> dict[str, float]:
        """Per-target ``s``, ``calls`` and ``self_s`` plus the counted quantities."""
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = dict(self.counts)
        for sid, name, start, end, _ in self.spans:
            duration = end - start
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + duration - child_time.get(sid, 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write every span and count once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                for sid, name, start, end, parent in self.spans
            ],
            "counts": self.counts,
            "absent": self.absent,
        }
        path.write_text(json.dumps(payload) + "\n")


def layer_metrics(tracer: Tracer, wanted: list[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Values for the wanted traced metric names, and the ones that are absent.

    A wanted metric whose target was never called reads 0; one whose target
    (or counter) is missing reads 0 and is listed as absent with the reason.
    """
    agg = tracer.aggregate()
    rk4_s = agg.get("dynamics.integrate_rk4.s", 0.0)
    if rk4_s > 0:
        agg["dynamics.integrate_rk4.steps_per_s"] = agg.get("dynamics.integrate_rk4.steps", 0.0) / rk4_s
    evals = agg.get("train.fit.evals", 0.0)
    if evals > 0:
        iters = agg.get("train.fit.adam_iters", 0.0) + agg.get("train.fit.lbfgs_iters", 0.0)
        agg["train.fit.accept_ratio"] = iters / evals
    values = {}
    absent = {}
    for metric in wanted:
        reasons = [
            f"{target}: {reason}"
            for target, reason in tracer.absent.items()
            if metric.startswith(target + ".")
            or (target in EVAL_TARGETS and metric in ("train.fit.evals", "train.fit.accept_ratio"))
        ]
        if reasons:
            absent[metric] = "; ".join(reasons)
        values[metric] = 0.0 if reasons else float(agg.get(metric, 0.0))
    return values, absent
