"""One benchmark child: a fresh interpreter that runs a single job and exits.

Usage: ``python3 bench/child.py JOB.json`` (started by ``bench/run.py``).
The job names the ``src`` directory to import ``lln_energy`` from and a
``mode``:

* ``setup``: import the CLI and build the inputs, then stop;
* ``pass``: the same, then drive every argument list through
  ``lln_energy.cli.main`` in-process, optionally under the tracer;
* ``micro``: per-layer microbenchmarks of the public model functions;
* ``pool``: ``simulate`` with ``workers=2`` against ``workers=1``.

The last line of stdout is one JSON object. ``ready`` is the
``time.monotonic()`` reading once imports and inputs are done; the parent
subtracts its own reading taken just before the spawn.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _per_call(fn, batches: int = 15, target_s: float = 0.02) -> list[float]:
    """Seconds per call of ``fn`` in each of ``batches`` timed batches.

    The calibration calls that size a batch to about ``target_s`` double
    as the warm-up.
    """
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= target_s / 2:
            break
        n *= 2
    n = max(1, round(n * target_s / dt))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return samples


def _micro() -> dict[str, list[float]]:
    from lln_energy import frame_error_prob, hop_model, segment_model
    from lln_energy.config import RunConfig
    from lln_energy.explorer import frontier
    from lln_energy.hopmodel import HopParams

    base = RunConfig()
    hop = HopParams(ber=3e-4, r=3)
    # MSS 64 data frame: 952 bits with c=0; with alpha=0.1 FEC, 1048 bits, c=48
    return {
        "frame_error_prob.c0": _per_call(lambda: frame_error_prob(952, 0, 3e-4)),
        "frame_error_prob.fec": _per_call(lambda: frame_error_prob(1048, 48, 3e-4)),
        "hop_model": _per_call(lambda: hop_model(952, 0, 40, hop)),
        "segment_model.mss64": _per_call(
            lambda: segment_model(RunConfig(mss_bytes=64).scenario())),
        "segment_model.mss512": _per_call(
            lambda: segment_model(RunConfig(mss_bytes=512).scenario())),
        "frontier_r_family": _per_call(
            lambda: frontier(base.scenario(), "r", (1, 2, 3, 4, 5, 7), range(1, 10)),
            batches=3, target_s=0.0),
    }


def _pool() -> dict[str, list[float]]:
    from lln_energy.config import RunConfig
    from lln_energy.simulator import SimConfig, simulate

    scenario = RunConfig(ber=3e-4, retries=3, mss_bytes=512).scenario()
    times: dict[str, list[float]] = {"workers1": [], "workers2": []}
    for _ in range(3):
        for workers in (1, 2):
            config = SimConfig(scenario=scenario, replications=200, master_seed=1,
                               round_cap=10**15, workers=workers)
            t0 = time.perf_counter()
            simulate(config)
            times[f"workers{workers}"].append(time.perf_counter() - t0)
    return times


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from lln_energy import cli

    if job.get("ini_path"):
        Path(job["ini_path"]).write_text(job["ini_text"])
    argvs = [list(a) + ["--output", out] for a, out in zip(job["argvs"], job["outputs"])]
    result: dict = {"ready": time.monotonic()}

    if job["mode"] == "micro":
        result["micro"] = _micro()
    elif job["mode"] == "pool":
        result["pool"] = _pool()
    elif job["mode"] == "pass":
        tracer = None
        if job.get("spans_path"):
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        call_s, rcs = [], []
        t0 = time.perf_counter()
        for argv in argvs:
            t = time.perf_counter()
            rcs.append(cli.main(argv))
            call_s.append(time.perf_counter() - t)
        result["wall_s"] = time.perf_counter() - t0
        result["call_s"] = call_s
        result["exit_codes"] = rcs
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.write(job["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
