"""Layered benchmark of lln-energy: end-to-end passes and a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload {frontier,sweep,validate} --seed N \
        --seconds S --trace {0,1}

The seed generates the workload's ``lln_energy.cli.main`` argument lists
(``workloads.py``). Every pass runs in a fresh child interpreter
(``child.py``) that imports the package from ``src/`` and drives the lists
in-process with ``--output`` files; every output is then checked op by op
(``check.py``).

``--trace 0`` starts passes until ``--seconds`` have gone by (at least
three) and reports the medians of the end-to-end metrics: ``setup_s``
(child start until imports and inputs are done, in set-up-only children
spread over the run), ``wall_s`` (first ``cli.main`` call until the last
returns) and ``peak_rss_mb`` of the passes. ``--trace 1`` makes one untraced and one traced pass, then
microbenchmarks and a worker-pool timing, and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from check import make_checker  # noqa: E402
from workloads import WORKLOAD_NAMES, make_workload  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 24  # set-up-only children per untraced run
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def environment(args) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lln_energy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Spawns children for one workload and checks what each pass wrote."""

    def __init__(self, workload, workdir: Path, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.checker = make_checker(workload.name, workload.argvs)
        self.outputs = [str(workdir / f"out-{i}.csv") for i in range(len(workload.argvs))]
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._jobs = 0

    def spawn(self, mode: str, spans_path: Path | None = None) -> dict:
        self._jobs += 1
        job_path = self.workdir / f"job-{self._jobs}.json"
        job_path.write_text(json.dumps({
            "src": str(SRC),
            "mode": mode,
            "argvs": self.workload.argvs,
            "outputs": self.outputs,
            "ini_path": self.workload.ini_path,
            "ini_text": self.workload.ini_text,
            "spans_path": str(spans_path) if spans_path else None,
        }))
        env = dict(os.environ)
        env.pop("LLN_ENERGY_CONFIG", None)  # the workload alone sets the config
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(job_path)], cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child did not finish in time") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} child failed (exit {proc.returncode}):\n"
                             + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t_spawn
        return result

    def run_pass(self, spans_path: Path | None = None) -> dict:
        for out in self.outputs:
            Path(out).unlink(missing_ok=True)
        result = self.spawn("pass", spans_path)
        result["output_bytes"] = sum(Path(o).stat().st_size for o in self.outputs
                                     if Path(o).exists())
        ops, failed, notes = self.checker(self.workload.argvs, self.outputs)
        for argv, rc in zip(self.workload.argvs, result["exit_codes"]):
            if rc != 0:
                notes.append(f"exit code {rc}: {' '.join(argv)}")
        result["ops"], result["ops_failed"] = ops, failed
        self.attempted += ops
        self.failed += failed
        self.notes.extend(notes)
        return result


def untraced(runner: Runner, seconds: int) -> dict[str, float]:
    runner.spawn("setup")  # warm-up: byte-compiles src/ and fills the file cache
    passes, setups = [], []
    t0 = time.monotonic()
    while True:
        t_pass = time.monotonic()
        p = runner.run_pass()
        passes.append(p)
        # set-up-only children keep pace with the run, so their samples
        # spread over it; their number does not depend on the pass count
        elapsed = time.monotonic() - t0
        while len(setups) < min(SETUP_SAMPLES, SETUP_SAMPLES * elapsed / seconds):
            setups.append(runner.spawn("setup")["setup_s"])
        print(f"pass {len(passes)}: setup_s={p['setup_s']:.4f} wall_s={p['wall_s']:.4f} "
              f"peak_rss_mb={p['peak_rss_mb']:.2f} ops={p['ops']} "
              f"ops_failed={p['ops_failed']}", flush=True)
        pass_s = time.monotonic() - t_pass
        if len(passes) >= MIN_PASSES and time.monotonic() - t0 + pass_s > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("setup")["setup_s"])
    samples = {
        "setup_s": setups,
        "wall_s": [p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        metrics[name] = med
        print(f"{name}: median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g}, "
              f"min {min(values):.6g}, {len(values)} samples", flush=True)
    return metrics


def traced(runner: Runner) -> dict[str, float]:
    from tracing import median_iqr, summarize

    runner.spawn("setup")
    plain = runner.run_pass()
    spans_path = runner.workdir / "spans.npz"
    tracing_pass = runner.run_pass(spans_path)
    metrics = summarize(spans_path)
    metrics["trace.overhead_s"] = tracing_pass["wall_s"] - plain["wall_s"]
    metrics["cli.output_bytes"] = tracing_pass["output_bytes"]
    print(f"untraced wall_s={plain['wall_s']:.4f} traced wall_s={tracing_pass['wall_s']:.4f} "
          f"spans={metrics['trace.spans']}", flush=True)

    for case, samples in runner.spawn("micro")["micro"].items():
        med, iqr = median_iqr(samples)
        if case == "frontier_r_family":
            metrics["micro.frontier_r_family_s"] = med
            metrics["micro.frontier_r_family_iqr_s"] = iqr
        else:
            metrics[f"micro.{case}_us"] = med * 1e6
            metrics[f"micro.{case}_iqr_us"] = iqr * 1e6
    pool = runner.spawn("pool")["pool"]
    metrics["simulator.pool_speedup"] = (
        statistics.median(pool["workers1"]) / statistics.median(pool["workers2"]))
    print(f"pool_speedup measured with workers=2 vs 1 on {os.cpu_count()} cores "
          f"shared with other processes", flush=True)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "lln_energy" / "cli.py").is_file():
        print(f"error: no lln_energy package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print("env " + json.dumps(environment(args)), flush=True)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        runner = Runner(workload, workdir, deadline)
        measured = traced(runner) if args.trace else untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    for note in runner.notes[:20]:
        print(f"check: {note}")
    if len(runner.notes) > 20:
        print(f"check: ... {len(runner.notes) - 20} more")
    print(runner.checker.summary())
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
