"""Correctness checks of the CLI output files, one op at a time.

An op is one crossover (``frontier``), one sweep row (``sweep``) or one
validate configuration (``validate``). Every checker returns
``(ops, ops_failed, notes)`` for one pass's output files, where the files
follow the argument lists of ``workloads.make_workload``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from statistics import NormalDist

HERE = Path(__file__).resolve().parent
FRONTIER_REFERENCE = HERE / "frontier_reference.json"

#: crossovers may move by the bisection tolerance (explorer's rel_tol)
#: from the reference; bracket grids differ between seeds
FRONTIER_REL_TOL = 2 * 1e-3
SWEEP_REL_TOL = 1e-12
SWEEP_COLUMNS = ("total_bits", "total_joules", "p_s", "q_s")
FAMILY_WISE_ALPHA = 1e-3


def read_rows(path) -> list[dict] | None:
    """CSV rows after the ``#`` metadata lines; None if the file is missing."""
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))
    except OSError:
        return None


def _float(text: str | None) -> float | None:
    return None if text in (None, "") else float(text)


def _close(got: float | None, want: float | None, rel: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= rel * abs(want)


def _opt(argv, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


# -- frontier ---------------------------------------------------------------

def _parse_list(text: str, conv) -> list:
    if ":" in text:
        lo, hi = (int(x) for x in text.split(":"))
        return list(range(lo, hi + 1))
    return [conv(x) for x in text.split(",")]


def frontier_key(family: str, value: float, h: int) -> str:
    return f"{family}:{float(value)!r}:{int(h)}"


class FrontierChecker:
    """Each crossover present and within 2 x rel_tol of the recorded reference.

    Flags are not compared: their spelling is expected to change when
    bracket detection is fixed.
    """

    def __init__(self):
        self.reference = json.loads(FRONTIER_REFERENCE.read_text())["crossovers"]

    def __call__(self, argvs, outputs):
        ops = failed = 0
        notes = []
        for argv, out in zip(argvs, outputs):
            family = _opt(argv, "--family", "")
            try:
                got = {frontier_key(r["family"], r["family_value"], r["h"]):
                       _float(r["crossover_ber"]) for r in read_rows(out) or []}
            except (KeyError, ValueError) as exc:
                got = {}
                notes.append(f"{out}: unreadable ({exc!r})")
            for value in _parse_list(_opt(argv, "--values", ""), float):
                for h in _parse_list(_opt(argv, "--h-range", "1:9"), int):
                    key = frontier_key(family, value, h)
                    ops += 1
                    x, want = got.get(key), self.reference[key]
                    if x is None or not _close(x, want, FRONTIER_REL_TOL):
                        failed += 1
                        notes.append(f"crossover {key}: got {x}, reference {want}")
        return ops, failed, notes

    def summary(self) -> str:
        return (f"frontier: crossovers compared with {FRONTIER_REFERENCE.name} "
                f"to {FRONTIER_REL_TOL:g} relative")


# -- sweep ------------------------------------------------------------------

def mp_attempt_probs(d: int, c: int, a: int, ber: float):
    """(p_fail, p_partial, p_succ) of one attempt, by an mpmath binomial tail.

    The smaller tail is summed term by term at 50 digits, so neither tail
    suffers cancellation.
    """
    import mpmath

    with mpmath.workdps(50):
        p = mpmath.mpf(ber)
        q = 1 - p
        if ber == 0.0:
            return mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)

        def tail(lo, hi):  # sum_{i=lo}^{hi} C(d,i) p^i q^(d-i)
            t = mpmath.binomial(d, lo) * p**lo * q ** (d - lo)
            acc = t
            for i in range(lo, hi):
                t = t * (d - i) / (i + 1) * p / q
                acc += t
                if i > d * ber and t < acc * mpmath.mpf(10) ** -60:
                    break
            return acc

        if c < d * ber:
            ok = tail(0, c)
            fail = 1 - ok
        else:
            fail = tail(c + 1, d) if c < d else mpmath.mpf(0)
            ok = 1 - fail
        ack_ok = q**a
        return fail, ok * (1 - ack_ok), ok * ack_ok


class SweepChecker:
    """Rows present with their keys; model columns equal to 1e-12 relative.

    The reference is ``seedmodel`` (the baseline's arithmetic). Columns are
    compared only on rows whose baseline per-attempt probabilities agree
    with an mpmath binomial tail to 1e-12 and whose reference values are
    finite; the other rows carry known float error (or overflow), so a
    numerics fix may change them and they are checked for presence only. Columns are found by name; added columns are
    ignored.
    """

    def __init__(self, argvs):
        import seedmodel

        self._attempt_ok: dict = {}
        self.reference = [seedmodel.sweep_rows(list(argv)) for argv in argvs]
        for rows in self.reference:
            for row in rows:
                row["checked"] = (
                    "layout_error" not in row
                    and all(row[col] is not None and math.isfinite(row[col])
                            for col in SWEEP_COLUMNS)
                    and all(self._accurate(key, seedmodel.attempt_probs(*key))
                            for key in row["attempts"]))
        rows = [r for rs in self.reference for r in rs]
        self.checked_share = sum(r["checked"] for r in rows) / len(rows)

    def _accurate(self, key, probs) -> bool:
        if key not in self._attempt_ok:
            exact = mp_attempt_probs(*key)
            self._attempt_ok[key] = all(
                (x == 0 and e == 0) or (e != 0 and abs(x - e) <= SWEEP_REL_TOL * abs(e))
                for x, e in zip(probs, exact))
        return self._attempt_ok[key]

    def __call__(self, argvs, outputs):
        ops = failed = 0
        notes = []
        for i, (reference, out) in enumerate(zip(self.reference, outputs)):
            rows = read_rows(out) or []
            ops += len(reference)
            if len(rows) != len(reference):
                failed += len(reference)
                notes.append(f"call {i}: {len(rows)} rows, expected {len(reference)}")
                continue
            for j, (got, want) in enumerate(zip(rows, reference)):
                problem = self._row_problem(got, want)
                if problem:
                    failed += 1
                    notes.append(f"call {i} row {j}: {problem}")
        return ops, failed, notes

    def summary(self) -> str:
        return (f"sweep: {self.checked_share:.1%} of rows compared to {SWEEP_REL_TOL:g}, "
                "the rest checked for presence")

    @staticmethod
    def _row_problem(got: dict, want: dict) -> str | None:
        try:
            if (int(got["mss_bytes"]) != want["mss_bytes"]
                    or not _close(float(got["value"]), want["value"], SWEEP_REL_TOL)):
                return f"key ({got['value']}, {got['mss_bytes']}) out of order"
            if not want["checked"]:
                return None
            for col in SWEEP_COLUMNS:
                if not _close(_float(got[col]), want[col], SWEEP_REL_TOL):
                    return f"{col} = {got[col]!r}, reference {want[col]!r}"
        except (KeyError, ValueError) as exc:
            return f"unreadable row ({exc!r})"
        return None


# -- validate ---------------------------------------------------------------

def z_threshold(configs: int) -> float:
    """Two-sided |z| bound giving family-wise error ``FAMILY_WISE_ALPHA`` over ``configs`` tests."""
    per_test = 1.0 - (1.0 - FAMILY_WISE_ALPHA) ** (1.0 / configs)
    return NormalDist().inv_cdf(1.0 - per_test / 2.0)


class ValidateChecker:
    """|z| of every configuration within the family-wise 1e-3 threshold.

    The CLI's own 3-sigma verdicts are counted but do not fail an op.
    """

    def __init__(self, argvs):
        self.threshold = z_threshold(len(argvs))
        self.verdicts = {"PASS": 0, "FAIL": 0, "other": 0}

    def __call__(self, argvs, outputs):
        failed = 0
        notes = []
        for argv, out in zip(argvs, outputs):
            verdict = next((r for r in read_rows(out) or [] if r.get("source") == "verdict"), None)
            label = verdict.get("verdict") if verdict else None
            self.verdicts[label if label in ("PASS", "FAIL") else "other"] += 1
            z = None
            try:
                z = _float(verdict.get("z")) if verdict else None
                if z is None:  # zero spread: only an exact match passes
                    ok = verdict is not None and _float(verdict.get("delta")) == 0.0
                else:
                    ok = math.isfinite(z) and abs(z) <= self.threshold
            except ValueError:
                ok = False
            if not ok:
                failed += 1
                notes.append(f"{' '.join(argv[1:7])}: z = {z}, threshold {self.threshold:.3f}")
        return len(argvs), failed, notes

    def summary(self) -> str:
        return (f"validate: CLI 3-sigma verdicts {self.verdicts}; family-wise |z| "
                f"threshold {self.threshold:.4f} over the configurations of a pass")


def make_checker(name: str, argvs):
    if name == "frontier":
        return FrontierChecker()
    if name == "sweep":
        return SweepChecker(argvs)
    return ValidateChecker(argvs)
