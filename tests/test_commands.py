"""The README's command lines and the refusals of oversized inputs: output
checks in-process, time and memory checks in a child (``cli_child``)."""

import csv
import io
import json
import subprocess

import pytest

from lln_energy.pathmodel import FIELDS
from test_cli import HETERO_INI, body, cli_child, csv_body, run_cli

#: The address-space cap of the memory-capped lines, KiB
ADDRESS_KIB = 4_000_000


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """A fresh working directory holding ``hetero.ini`` and ``ack_huge.ini``."""
    (tmp_path / "hetero.ini").write_text(HETERO_INI)
    (tmp_path / "ack_huge.ini").write_text("[frames]\nll_ack_bits = 100000000000000000000\n")
    monkeypatch.chdir(tmp_path)


def rows_of(out: str) -> list[dict]:
    return [json.loads(l) for l in body(out).splitlines()]


@pytest.mark.parametrize("line", [
    "model --mss 64",
    "model --mss 512 --ber 4e-4 --format jsonl",
    "simulate --mss 512 --reps 1000 --seed 7",
    "validate --mss 512 --ber 3e-4 --reps 1000 --seed 7",
    "sweep --axis ber --grid 1e-6:1e-3:log:25",
    "sweep --axis r --grid 1,2,3,4,5,6,7 --ber 3e-4",
    "sweep --axis alpha --grid 1e-3:1:log:40 -r 1 --fragments fit",
    "sweep --config hetero.ini --axis alpha --grid 1e-3:1:log:200 --fragments fit",
    "sweep --config hetero.ini --axis mss --grid 16:1024:lin:200",
    # --strict: a published frontier point without a crossover, or with an
    # unresolved bracket, exits 2
    "frontier --family r --values 1,2,3,4,5,7 --strict",
    "frontier --family alpha --values 1e-3,1e-2,1e-1 -r 1 --fragments fit --strict",
    *(f"validate --mss {mss} --ber {ber} --reps 300 --format jsonl"
      for mss in (64, 512) for ber in ("1e-6", "1e-5", "1e-4", "3e-4", "1e-3")),
])
def test_command_line_exits_0(in_tmp, capsys, line):
    assert run_cli(capsys, *line.split())[0] == 0


def test_h_sweep_rows_are_the_model_at_each_h(capsys):
    # an h sweep shares each (ber, r, alpha, mss) stem between its hop
    # counts; each (h, mss) row equals the model run at that h and MSS
    code, out, _ = run_cli(capsys, *"sweep --axis h --grid 1,2,3,4,5,6,7,8,9 --ber 3e-4 "
                                   "--format jsonl".split())
    rows = rows_of(out)
    assert code == 0 and len(rows) == 18
    for row in rows:
        code, out, _ = run_cli(capsys, *f"model --hops {row['h']} --mss {row['mss_bytes']} "
                                        "--ber 3e-4 --format jsonl".split())
        (model,) = rows_of(out)
        assert code == 0 and {k: row[k] for k in FIELDS} == {k: model[k] for k in FIELDS}


def test_600_row_fit_sweep_has_the_same_layout_errors_in_csv_and_json_lines(capsys):
    # 600 rows written in blocks of at most 256; the grid crosses the fit
    # limit (alpha about 1.32), so its last 82 rows are layout errors, a
    # run that starts inside a model call
    argv = ("sweep", "--axis", "alpha", "--grid", "1e-3:4:log:300", "--fragments", "fit")
    (code_csv, out_csv, _), (code_json, out_json, _) = (
        run_cli(capsys, *argv, "--format", fmt) for fmt in ("csv", "jsonl"))
    rows = rows_of(out_json)
    cells = list(csv.DictReader(io.StringIO(csv_body(out_csv), newline="")))
    assert code_csv == code_json == 0 and len(rows) == len(cells) == 600
    json_errors = [repr(r["value"]) for r in rows if r["flags"] == "layout_error"]
    csv_errors = [r["value"] for r in cells if r["flags"] == "layout_error"]
    assert json_errors == csv_errors and len(json_errors) == 82


@pytest.mark.parametrize("argv", [
    ("--mss", "512", "--fidelity", "frame", "--reps", "631"),
    ("--mss", "512", "--fidelity", "bit", "--reps", "37"),
    ("--config", "hetero.ini", "--fidelity", "bit", "--reps", "37"),
], ids=["frame", "bit", "bit-hetero"])
def test_two_workers_give_the_serial_rows(in_tmp, capsys, argv):
    # each block draws from (seed, block) and workers run whole blocks: at
    # MSS 512 a frame block holds 210 replications and a bit block 16, so
    # 631 and 37 replications span three blocks and a partial one
    serial, pooled = (run_cli(capsys, "simulate", *argv, "--seed", "7", "--workers", workers)
                      for workers in ("1", "2"))
    assert serial[0] == pooled[0] == 0
    assert csv_body(serial[1]) == csv_body(pooled[1])


@pytest.mark.parametrize("seconds, line", [
    # the largest attempt limit accepted; its ARQ sum is one pass over r,
    # and so is the simulator's draw of a hop traversal's shape
    (10, "model -r 1029"),
    (10, "simulate -r 1029 --reps 16"),
    # a lower binomial tail of 4.8 million terms, whose running sum is
    # rescaled past 1e250 every few hundred terms
    (20, "model --alpha=1e4 --ber 0.6 -r 1 --hops 1"),
])
def test_long_line_ends_in_time(seconds, line):
    assert subprocess.run(**cli_child(*line.split()), timeout=seconds).returncode == 0


@pytest.mark.parametrize("line, says", [
    # refused before the bit replay's index arrays or the aggregate draw's
    # 16 x 3e9 first-drop counts are allocated
    ("simulate --fidelity bit --transfer-bytes 1000000000000 --reps 16",
     "error: 15625000000 segments"),
    ("simulate --fragments 3000000000 --reps 2", "error: 3000000000 fragments per segment"),
    # a link ACK past the model's 2**53-bit frame bound is a layout error
    ("model --config ack_huge.ini", "error: ll_ack_bits must be in"),
    # a range is bounded before it is listed
    ("frontier --family r --values 3 --h-range 1:1000000000000",
     "error: a path has at most 1024 hops, got 1025"),
    ("frontier --family r --values 3 --mss-pair 64:1000000000",
     "error: --mss-pair must be a comma list of integers"),
    # and so are a grid, a sweep's points and a frontier's BER scan
    ("sweep --axis ber --grid 1e-4 --mss-list 64:1000000000",
     "error: a sweep (grid x sizes): at most 1000000 points, got 999999937"),
    ("sweep --axis ber --grid 1e-6:1e-2:log:1000000000",
     "error: --grid: at most 1000000 points, got 1000000000"),
    ("frontier --family r --values 1:3:lin:100000000 --h-range 1:9",
     "error: --values: at most 1000000 points, got 100000000"),
    ("frontier --family r --values 1 --h-range 1:2 --points-per-decade 1000000000",
     "error: the BER scan: at most 1000000 points, got 6000000001"),
])
def test_input_too_large_is_refused_under_the_cap(in_tmp, line, says):
    done = subprocess.run(**cli_child(*line.split(), address_kib=ADDRESS_KIB), timeout=1)
    assert done.returncode == 1 and done.stdout == b"" and b"Traceback" not in done.stderr
    assert done.stderr.startswith(says.encode()) and len(done.stderr) < 200


@pytest.mark.parametrize("line, says", [
    # validate keeps the model row and skips a sim the sampler refuses
    ("validate --fidelity bit --transfer-bytes 1000000000000 --reps 16 --format jsonl",
     '"verdict": "SKIP"'),
    ("validate --fragments 3000000000 --ber 1e-12 --reps 2 --format jsonl",
     '"verdict": "SKIP", "note": "3000000000 fragments per segment'),
    # 16 replications of 10**6 fragments, and of 1.5625e10 segments, whose
    # rounds a replication draws in one call
    ("simulate --fragments 1000000 --ber 1e-5 --reps 16", ""),
    ("validate --transfer-bytes 1000000000000 --reps 16", ""),
])
def test_large_input_runs_under_the_cap(line, says):
    done = subprocess.run(**cli_child(*line.split(), address_kib=ADDRESS_KIB), timeout=60)
    assert done.returncode == 0 and b"Traceback" not in done.stderr
    assert says.encode() in done.stdout
