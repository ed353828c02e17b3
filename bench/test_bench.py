"""Self-tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

They check that a seed fixes the generated inputs, that each correctness
checker flags a perturbed copy of a real output file, and that the
``validate`` INI file really sets ``round_cap``.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from check import (  # noqa: E402
    FrontierChecker,
    SweepChecker,
    ValidateChecker,
    read_rows,
    z_threshold,
)
from lln_energy import cli  # noqa: E402
from lln_energy.config import load_config  # noqa: E402
from workloads import VALIDATE_ROUND_CAP, WORKLOAD_NAMES, make_workload  # noqa: E402


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_seed_fixes_the_argument_lists(name, tmp_path):
    assert make_workload(name, 7, tmp_path) == make_workload(name, 7, tmp_path)
    assert make_workload(name, 7, tmp_path).argvs != make_workload(name, 8, tmp_path).argvs


def test_validate_ini_sets_round_cap(tmp_path):
    workload = make_workload("validate", 3, tmp_path)
    Path(workload.ini_path).write_text(workload.ini_text)
    assert load_config(workload.ini_path).round_cap == VALIDATE_ROUND_CAP
    assert all(argv[argv.index("--config") + 1] == workload.ini_path
               for argv in workload.argvs)


def test_family_wise_threshold():
    assert z_threshold(13) == pytest.approx(3.954, abs=1e-3)


def _run(argvs, tmp_path) -> list[str]:
    outputs = [str(tmp_path / f"out-{i}.csv") for i in range(len(argvs))]
    for argv, out in zip(argvs, outputs):
        assert cli.main(list(argv) + ["--output", out]) == 0
    return outputs


def _perturbed_copy(path: str, row: int, column: str, change) -> str:
    """Copy of an output file with one cell replaced by ``change(cell)``."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = read_rows(path)
    rows[row][column] = change(rows[row][column])
    copy = path + ".perturbed"
    with open(copy, "w", newline="") as fh:
        fh.writelines(meta)
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return copy


def test_frontier_checker_flags_a_moved_crossover(tmp_path):
    argv = list(make_workload("frontier", 5, tmp_path).argvs[0])
    argv[argv.index("--values") + 1] = "3"
    argv[argv.index("--h-range") + 1] = "4:5"
    [out] = _run([argv], tmp_path)
    checker = FrontierChecker()
    assert checker([argv], [out])[:2] == (2, 0)
    moved = _perturbed_copy(out, 1, "crossover_ber", lambda x: repr(float(x) * 1.01))
    assert checker([argv], [moved])[:2] == (2, 1)


def test_sweep_checker_flags_a_changed_value(tmp_path):
    argv = make_workload("sweep", 5, tmp_path).argvs[0]
    [out] = _run([argv], tmp_path)
    checker = SweepChecker([argv])
    assert checker([argv], [out])[:2] == (800, 0)
    row = next(i for i, r in enumerate(checker.reference[0]) if r["checked"])
    changed = _perturbed_copy(out, row, "total_bits", lambda x: repr(float(x) * (1 + 1e-9)))
    assert checker([argv], [changed])[:2] == (800, 1)


def test_validate_checker_flags_a_large_z(tmp_path):
    workload = make_workload("validate", 5, tmp_path)
    Path(workload.ini_path).write_text(workload.ini_text)
    argv = workload.argvs[3]  # B=1e-5, r=3, MSS 512: direct and fast
    [out] = _run([argv], tmp_path)
    checker = ValidateChecker([argv])
    assert checker([argv], [out])[:2] == (1, 0)
    verdict = next(i for i, r in enumerate(read_rows(out)) if r["source"] == "verdict")
    shifted = _perturbed_copy(out, verdict, "z", lambda z: repr(2 * checker.threshold))
    assert checker([argv], [shifted])[:2] == (1, 1)
