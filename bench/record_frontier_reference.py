"""Record ``frontier_reference.json``: every ``frontier`` workload crossover to 1e-9.

Usage, from the repository root: ``python3 bench/record_frontier_reference.py``

The ``frontier`` check compares the CLI's crossovers with this file, so it
is recorded once, at the commit that introduced the benchmark, and kept.
The scenarios are the ones ``lln-energy frontier`` builds for the
workload's r and alpha families, on the CLI's default BER range.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from check import FRONTIER_REFERENCE, frontier_key  # noqa: E402
from lln_energy.config import RunConfig  # noqa: E402
from lln_energy.explorer import crossover_ber  # noqa: E402
from workloads import FRONTIER_ALPHA_VALUES, FRONTIER_R_VALUES  # noqa: E402


def main() -> None:
    families = {
        "r": [(float(v), {"retries": int(v)}) for v in FRONTIER_R_VALUES.split(",")],
        "alpha": [(float(v), {"alpha": float(v), "retries": 1, "fragments": "fit"})
                  for v in FRONTIER_ALPHA_VALUES.split(",")],
    }
    crossovers = {}
    for family, members in families.items():
        for value, settings in members:
            for h in range(1, 10):
                point = crossover_ber(RunConfig(hops=h, **settings).scenario(), rel_tol=1e-9)
                crossovers[frontier_key(family, value, h)] = point.crossover_ber
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=HERE).stdout.strip()
    FRONTIER_REFERENCE.write_text(json.dumps(
        {"recorded_at_commit": commit, "rel_tol": 1e-9, "crossovers": crossovers},
        indent=1) + "\n")


if __name__ == "__main__":
    main()
