"""Spans around the library's layer boundaries, recorded from outside the library.

``Tracer.install`` replaces every ``lln_energy`` module attribute bound to
a traced function (``explorer.segment_model``, ``pathmodel.hop_model``,
``cli.sweep`` ...) with a wrapper, because callers resolve those names at
call time. Each call becomes a span (name, start, end, parent); spans stay
in memory and are written to one ``.npz`` file when the pass ends.
``summarize`` turns that file into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter

import numpy as np

#: (module, function) in call order: cli -> config -> explorer / simulator
#: -> pathmodel -> hopmodel -> framing
TRACED = (
    ("cli", "main"),
    ("config", "load_config"),
    ("config", "validate_config"),
    ("explorer", "frontier"),
    ("explorer", "crossover_ber"),
    ("explorer", "sweep"),
    ("simulator", "simulate"),
    ("pathmodel", "segment_model"),
    ("hopmodel", "hop_model"),
    ("hopmodel", "attempt_probs"),
    ("hopmodel", "frame_error_prob"),
    ("hopmodel", "expected_success_bits"),
    ("framing", "resolve_frames"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
_MODULES = ("", ".cli", ".config", ".explorer", ".simulator", ".pathmodel",
            ".hopmodel", ".framing")


class Tracer:
    def __init__(self):
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self.hop_model_args: set = set()
        self.sweep_rows = 0
        self.sweep_flagged = 0
        self.simulations: list[dict] = []

    def install(self) -> None:
        modules = [importlib.import_module("lln_energy" + suffix) for suffix in _MODULES]
        observers = {
            "hopmodel.hop_model": self._observe_hop_model,
            "explorer.sweep": self._observe_sweep,
            "simulator.simulate": self._observe_simulate,
        }
        for name_id, (mod, fn_name) in enumerate(TRACED):
            fn = getattr(importlib.import_module(f"lln_energy.{mod}"), fn_name)
            name = SPAN_NAMES[name_id]
            wrapper = self._wrap(name_id, fn, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _wrap(self, name_id, fn, observe):
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, ends[idx] - t0)
            return result

        return traced

    def _observe_hop_model(self, args, kwargs, result, dt):
        self.hop_model_args.add(args + tuple(sorted(kwargs.items())))

    def _observe_sweep(self, args, kwargs, rows, dt):
        self.sweep_rows += len(rows)
        self.sweep_flagged += sum(1 for row in rows if row.get("flags"))

    def _observe_simulate(self, args, kwargs, report, dt):
        self.simulations.append({
            "seconds": dt,
            "replications": report.replications,
            "method": report.method,
            "fidelity": report.fidelity,
            "segment_sends": report.counters.segment_sends,
        })

    def write(self, path) -> None:
        """Write every span and the observations to ``path`` (.npz)."""
        extra = {
            "span_names": SPAN_NAMES,
            "hop_model_distinct": len(self.hop_model_args),
            "sweep_rows": self.sweep_rows,
            "sweep_flagged": self.sweep_flagged,
            "simulations": self.simulations,
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name=np.asarray(self.name, dtype=np.int16),
                parent=np.asarray(self.parent, dtype=np.int64),
                start=np.asarray(self.start),
                end=np.asarray(self.end),
                extra=np.asarray(json.dumps(extra)),
            )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def summarize(path) -> dict[str, float]:
    """Per-layer metrics from a span file written by :meth:`Tracer.write`.

    Self time is a span's duration minus the durations of its child spans.
    """
    with np.load(path) as data:
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
        extra = json.loads(str(data["extra"]))
    names = extra["span_names"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time
    out: dict[str, float] = {"trace.spans": int(len(dur))}
    for i, span in enumerate(names):
        mask = name == i
        out[f"{span}.calls"] = int(mask.sum())
        out[f"{span}.self_s"] = float(self_time[mask].sum())

    cx = names.index("explorer.crossover_ber")
    seg = names.index("pathmodel.segment_model")
    under_crossover = []
    for n, p in zip(name.tolist(), parent.tolist()):
        under_crossover.append(n == cx or (p >= 0 and under_crossover[p]))
    crossovers = out["explorer.crossover_ber.calls"]
    out["explorer.segment_models_per_crossover"] = _ratio(
        int(((name == seg) & np.asarray(under_crossover, dtype=bool)).sum()), crossovers)
    out["explorer.crossover_ms_p50"] = (
        1e3 * float(np.median(dur[name == cx])) if crossovers else 0.0)
    out["hopmodel.hop_model.distinct_ratio"] = _ratio(
        extra["hop_model_distinct"], out["hopmodel.hop_model.calls"])
    out["explorer.sweep.rows"] = extra["sweep_rows"]
    out["explorer.sweep.flagged_ratio"] = _ratio(extra["sweep_flagged"], extra["sweep_rows"])

    sims = extra["simulations"]
    for kind in ("direct", "batched", "bit"):
        picked = [s for s in sims if _sim_kind(s) == kind]
        out[f"simulator.replications_per_s.{kind}"] = _ratio(
            sum(s["replications"] for s in picked), sum(s["seconds"] for s in picked))
    replayed = [s for s in sims if s["method"] == "direct"]
    out["simulator.rounds_per_replication"] = _ratio(
        sum(s["segment_sends"] * s["replications"] for s in replayed),
        sum(s["replications"] for s in replayed))
    out["simulator.batched_share"] = _ratio(
        sum(1 for s in sims if s["method"] == "batched"), len(sims))
    return out


def _sim_kind(sim: dict) -> str:
    return "bit" if sim["fidelity"] == "bit" else sim["method"]


def median_iqr(samples: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q2, q3 - q1
