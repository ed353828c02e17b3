"""Workload inputs: CLI argument lists generated from the benchmark seed.

Each workload is a list of ``lln_energy.cli.main`` argument lists (the
child appends ``--output``) plus, for ``validate``, the INI file it
needs. The same seed always gives the same lists; see README.md for why
each workload exists and which layer it isolates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOAD_NAMES = ("frontier", "sweep", "validate")

#: criterion 4 runs the simulator with this cap; the CLI has no flag for it
VALIDATE_ROUND_CAP = 10**15
VALIDATE_INI = f"[sim]\nround_cap = {VALIDATE_ROUND_CAP}\n"
VALIDATE_REPS = 200

FRONTIER_R_VALUES = "1,2,3,4,5,7"
FRONTIER_ALPHA_VALUES = "1e-3,1e-2,1e-1"
FRONTIER_H_RANGE = "1:9"


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: tuple[tuple[str, ...], ...]
    ini_path: str | None = None
    ini_text: str | None = None


def _frontier(rng: random.Random, workdir: Path) -> Workload:
    # +-0.049 decade keeps the default 10-per-decade scan at 61 points, so
    # the bracket grid moves with the seed while the call counts do not
    lo = 1e-7 * 10 ** rng.uniform(-0.049, 0.049)
    ber_range = f"{lo!r}:0.1"
    return Workload("frontier", (
        ("frontier", "--family", "r", "--values", FRONTIER_R_VALUES,
         "--h-range", FRONTIER_H_RANGE, "--ber-range", ber_range),
        ("frontier", "--family", "alpha", "--values", FRONTIER_ALPHA_VALUES,
         "--retries", "1", "--fragments", "fit",
         "--h-range", FRONTIER_H_RANGE, "--ber-range", ber_range),
    ))


def _sweep(rng: random.Random, workdir: Path) -> Workload:
    ber_grid = f"{1e-7 * 10 ** rng.uniform(0, 0.05)!r}:{0.1 * 10 ** rng.uniform(-0.02, 0)!r}:log:200"
    argvs = [
        ("sweep", "--axis", "ber", "--grid", ber_grid, "--mss-list", "64,128,256,512",
         "--hops", str(h), "-r", str(r))
        for h in (1, 5, 9) for r in (1, 3, 7)
    ]
    alpha_grid = f"{1e-3 * 10 ** rng.uniform(0, 0.05)!r}:{10 ** rng.uniform(-0.02, 0)!r}:log:200"
    argvs.append(("sweep", "--axis", "alpha", "--grid", alpha_grid,
                  "--fragments", "fit", "-r", "1"))
    mss_grid = f"{rng.uniform(16, 20)!r}:{rng.uniform(1000, 1024)!r}:lin:200"
    argvs.append(("sweep", "--axis", "mss", "--grid", mss_grid))
    return Workload("sweep", tuple(argvs))


def _validate(rng: random.Random, workdir: Path) -> Workload:
    ini_path = str(workdir / "validate.ini")
    configs = [(ber, r, mss, "frame") for ber in ("1e-5", "3e-4", "8e-4")
               for r in ("1", "3") for mss in ("64", "512")]
    configs.append(("3e-4", "3", "512", "bit"))
    argvs = tuple(
        ("validate", "--ber", ber, "-r", r, "--mss", mss, "--fidelity", fidelity,
         "--reps", str(VALIDATE_REPS), "--seed", str(rng.randrange(2**31)),
         "--workers", "1", "--config", ini_path)
        for ber, r, mss, fidelity in configs
    )
    return Workload("validate", argvs, ini_path, VALIDATE_INI)


_GENERATORS = {"frontier": _frontier, "sweep": _sweep, "validate": _validate}


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's argument lists for this seed; files go under ``workdir``."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), Path(workdir))
