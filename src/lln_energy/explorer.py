"""Parameter sweeps and MSS-preference frontiers.

A sweep walks one axis (BER, attempt limit, redundancy ratio, hop count,
or the MSS itself) and emits one model row per grid point and compared
MSS. A frontier locates, for each hop count, the crossover BER at which
the long-MSS transfer stops being cheaper than the short-MSS one: below
the curve long segments win (header overhead dominates), above it short
segments win (end-to-end retransmissions dominate). Energy is
piecewise-smooth in BER, so a geometric bracket scan plus bisection is
enough; points where one side diverges still carry a definite sign (the
divergent side loses). A midpoint where neither side can be evaluated
ends that bisection where it stands, flagged ``bracket_unresolved``.

Both run on ``pathmodel.segment_models``, passing the base scenario and
a column per quantity that varies (a sweep's axis and MSS; a frontier's
family value, hop count, BER and MSS), not a scenario per point. A pass
pays a fixed ~0.3 ms of numpy calls whatever its size, and its memory
grows with its points, so every call takes up to ``BATCH_POINTS`` points.
A frontier streams the BER scans of all its (family value, hop count)
searches through such calls grid-major, every search at one BER before
the next BER, two points (long and short MSS) per search and BER, then
bisects all of its brackets in lockstep, one step at a time. A scan call
so holds every hop count of nine or more BERs, and the core resolves,
keys and walks each of their (BER, family value, MSS) stems once for all
of those hop counts.
``sweep_columns`` hands over each call's rows as blocks of at most
``BLOCK_ROWS`` rows, each a run of consecutive rows with the same fields,
held as a row count and a column per field: a run of points whose frames
resolved, or a run of layout errors. A block's lists are built from the
call's arrays only when it is due, so a sweep's memory follows the block,
not the call. The CLI writes CSV and JSON lines from them without
building a row; ``sweep`` is their rows, a dict each.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import groupby, islice

import numpy as np

from .pathmodel import EnergyParams, PathScenario, check_hop_count, segment_models

__all__ = [
    "SweepSpec",
    "FrontierPoint",
    "sweep",
    "sweep_columns",
    "crossover_ber",
    "frontier",
]

SWEEP_AXES = ("ber", "r", "alpha", "h", "mss")
FRONTIER_FAMILIES = ("r", "alpha")

#: Defaults of the sweeps, crossovers and frontiers, shared with the CLI:
#: the short and long MSS compared, and the geometric BER scan.
MSS_PAIR = (64, 512)
BER_RANGE = (1e-7, 1e-1)
POINTS_PER_DECADE = 10
#: Bisection stops once the bracket's relative width is at most this.
REL_TOL = 1e-3
#: The most points per model call of a sweep, a scan or a bisection step:
#: a call's arrays take about 0.6 KiB a point, and past this many points
#: its fixed cost of numpy calls is a small part of its time (4 096 were
#: no faster)
BATCH_POINTS = 1024
#: The most rows per block of a sweep: a block's lists and formatted cells
#: take about 3 KiB a row, so they are built a window of this many rows at
#: a time, not a call at a time
BLOCK_ROWS = 256
#: The fields of a sweep row whose point's frames cannot be laid out
_ERROR_FIELDS = ("axis", "value", "mss_bytes", "flags", "error")


@dataclass(frozen=True)
class SweepSpec:
    """One axis, its grid, and the MSS values compared at every point."""

    scenario: PathScenario
    axis: str
    grid: tuple
    mss_list: tuple[int, ...] = MSS_PAIR
    energy: EnergyParams = field(default_factory=EnergyParams)

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "mss_list", tuple(self.mss_list))
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
        if any(d <= 0 for d in diffs) and any(d >= 0 for d in diffs) and diffs:
            raise ValueError("grid must be strictly monotone")
        if not self.mss_list and self.axis != "mss":
            raise ValueError("mss_list must be non-empty")


def _axis_column(axis: str, values) -> list:
    """``values`` as the core's ``axis`` column: ``r`` and ``h`` whole only
    (3.0 counts as 3), ``h`` a hop count a path may have, checked before a
    search or a call reaches it, ``mss`` finite and floored (a linear grid
    over it may be fractional), ``ber`` and ``alpha`` floats."""
    for value in values:
        if axis in ("r", "h") and not float(value).is_integer():
            raise ValueError(f"{axis} must be a whole number, got {value!r}")
        if axis == "h":
            check_hop_count(int(value))
        if axis == "mss" and not math.isfinite(value):
            raise ValueError(f"mss must be finite, got {value!r}")
    return [(int if axis in ("r", "h", "mss") else float)(value) for value in values]


def sweep_columns(spec: SweepSpec) -> Iterator[tuple[int, dict[str, list]]]:
    """``sweep(spec)``'s rows as blocks (see the module docstring), in
    grid-then-MSS order, one model call of at most ``BATCH_POINTS`` points
    at a time, each call's rows in blocks of at most ``BLOCK_ROWS``; no row
    is built. A run of points whose frames resolved has ``axis``,
    ``value``, then the model record's fields (``pathmodel.FIELDS``); a run
    of layout-error points has only ``_ERROR_FIELDS``.
    """
    mss_list = (None,) if spec.axis == "mss" else spec.mss_list
    labels = [value for value in spec.grid for _ in mss_list]
    columns = {spec.axis: [v for v in _axis_column(spec.axis, spec.grid) for _ in mss_list]}
    if spec.axis != "mss":
        columns["mss"] = list(mss_list) * len(spec.grid)
    for start in range(0, len(labels), BATCH_POINTS):
        chunk = {name: col[start:start + BATCH_POINTS] for name, col in columns.items()}
        labelled = labels[start:start + BATCH_POINTS]
        batch = segment_models(spec.scenario, spec.energy, **chunk)
        # a window of the call's rows at a time: only its lists are built
        for lo in range(0, len(labelled), BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            errors, values, mss = batch.errors[rows], labelled[rows], chunk["mss"][rows]
            if not all(errors):
                records = batch.record_columns(rows=rows, axis=[spec.axis] * len(values),
                                               value=values)
            i = 0
            for failed, run in groupby(errors, key=bool):
                n = len(list(run))
                if failed:
                    cells = ([spec.axis] * n, values[i:i + n], mss[i:i + n],
                             ["layout_error"] * n, list(map(str, errors[i:i + n])))
                    block = dict(zip(_ERROR_FIELDS, cells))
                else:
                    block = {name: col[i:i + n] for name, col in records.items()}
                yield n, block
                i += n


def sweep(spec: SweepSpec) -> list[dict]:
    """Model rows for every (grid point x MSS), in grid-then-MSS order: the
    rows of ``sweep_columns``' blocks.

    Degenerate or divergent points keep their flags; a layout that cannot
    be realized at a point (e.g. alpha too large to fit the MTU) yields a
    row of ``_ERROR_FIELDS``, flagged ``layout_error``, instead of
    aborting the sweep.
    """
    return [dict(zip(columns, row)) for _, columns in sweep_columns(spec)
            for row in zip(*columns.values())]


@dataclass(frozen=True)
class FrontierPoint:
    """One crossover: at ``crossover_ber`` the two MSS choices cost the same.

    ``ber_lo``/``ber_hi`` bracket the sign change: the long MSS is cheaper
    at ber_lo and dearer at ber_hi. ``crossover_ber`` is None when the
    scan saw no such change (``no_crossover`` flag); ``multiple_crossovers``
    flags a scan with more than one sign change either way (the smallest
    cheaper-to-dearer one is returned).
    """

    family: str | None
    family_value: float | None
    h: int
    crossover_ber: float | None
    ber_lo: float | None
    ber_hi: float | None
    flags: tuple[str, ...] = ()

    def to_record(self) -> dict:
        """The fields in order (``vars`` of a frozen dataclass holds just them)."""
        return {**vars(self), "flags": ";".join(self.flags)}


def _energy_gaps(base, points, mss_pair, energy) -> Iterator[float | None]:
    """energy(long) - energy(short) at each (search, BER) point; sign only.

    A search maps core columns to its values (a frontier's family value
    and h); every hop takes the BER. A diverging side counts as infinitely
    expensive; None when neither side is finite or a layout cannot be
    realized. Points are drawn as needed, two model points each, in calls
    of ``BATCH_POINTS`` model points."""
    both = (max(mss_pair), min(mss_pair))
    points = iter(points)
    while chunk := list(islice(points, BATCH_POINTS // 2)):
        columns = {name: [search[name] for search, _ in chunk for _ in both]
                   for name in chunk[0][0]}
        batch = segment_models(base, energy, ber=[ber for _, ber in chunk for _ in both],
                               mss=list(both) * len(chunk), **columns)
        joules = batch.columns["total_joules"]  # NaN where undefined or errored
        e_long, e_short = joules[::2], joules[1::2]
        lost_long, lost_short = np.isnan(e_long), np.isnan(e_short)
        gaps = np.where(lost_long, math.inf, np.where(lost_short, -math.inf, e_long - e_short))
        errored = batch.columns["flags"] < 0  # frames that did not resolve
        unknown = (lost_long & lost_short) | errored[::2] | errored[1::2]
        yield from np.where(unknown, None, gaps).tolist()


@dataclass
class _Bracket:
    """One crossover search: its bracket (None without a crossover) and flags."""

    lo: float | None
    hi: float | None
    flags: list[str]

    def point(self, h, family=None, family_value=None) -> FrontierPoint:
        mid = None if self.lo is None else math.sqrt(self.lo * self.hi)
        return FrontierPoint(family, family_value, h, mid, self.lo, self.hi, tuple(self.flags))


def _crossovers(
    base, searches, mss_pair, energy, ber_range, points_per_decade, rel_tol=REL_TOL
) -> list[_Bracket]:
    """Each search's crossover (see ``_energy_gaps`` for a search): the
    scans of all of them, streamed through the core grid-major, then one
    lockstep bisection of every bracket found, one step at a time."""
    lo, hi = ber_range
    if not 0 < lo < hi < 1:
        raise ValueError(f"ber_range must satisfy 0 < lo < hi < 1, got {ber_range}")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be >= 1, got {points_per_decade}")
    if len(mss_pair) != 2 or mss_pair[0] == mss_pair[1]:
        raise ValueError(f"mss_pair needs two different sizes, got {tuple(mss_pair)}")
    n = max(2, int(round(points_per_decade * math.log10(hi / lo))) + 1)
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]

    # grid-major: every search at one BER, then the next, so that a call
    # holds every hop count of a few BERs. A search keeps only its last
    # evaluable (BER, gap) and each sign change found between neighbouring
    # evaluable points, with whether the long MSS goes from cheaper to
    # dearer there.
    gaps = _energy_gaps(base, ((search, b) for b in grid for search in searches),
                        mss_pair, energy)
    last = [None] * len(searches)
    changes = [[] for _ in searches]
    for b in grid:
        # zip takes the range first, so it stops at this BER's gaps
        for i, g in zip(range(len(searches)), gaps):
            if g is not None:
                if last[i] is not None and (last[i][1] < 0) != (g < 0):
                    changes[i].append((last[i][0], b, last[i][1] < 0))
                last[i] = (b, g)
    brackets = []
    for found in changes:
        rising = [(a, b) for a, b, to_dearer in found if to_dearer]
        if rising:
            flags = ["multiple_crossovers"] if len(found) > 1 else []
            brackets.append(_Bracket(*rising[0], flags))
        else:
            brackets.append(_Bracket(None, None, ["no_crossover"]))

    active = [(search, br) for search, br in zip(searches, brackets) if br.lo is not None]
    while active := [(search, br) for search, br in active
                     if "bracket_unresolved" not in br.flags
                     and (br.hi - br.lo) / br.lo > rel_tol]:
        mids = [math.sqrt(br.lo * br.hi) for _, br in active]
        step = _energy_gaps(base, [(search, mid) for (search, _), mid in zip(active, mids)],
                            mss_pair, energy)
        for (_, br), mid, g in zip(active, mids, step):
            if g is None:
                br.flags.append("bracket_unresolved")
            elif g >= 0:
                br.hi = mid
            else:
                br.lo = mid
    return brackets


def crossover_ber(
    scenario: PathScenario,
    mss_pair: tuple[int, int] = MSS_PAIR,
    energy: EnergyParams = EnergyParams(),
    ber_range: tuple[float, float] = BER_RANGE,
    points_per_decade: int = POINTS_PER_DECADE,
    rel_tol: float = REL_TOL,
) -> FrontierPoint:
    """Locate the BER where the long and short MSS cost the same energy.

    Scans a geometric BER grid for sign changes of the energy gap, then
    bisects (in log space) the first bracket down to the relative BER
    tolerance ``rel_tol`` (``REL_TOL`` unless set). A midpoint where the
    gap cannot be evaluated stops the bisection there: the bracket reached
    is returned, flagged ``bracket_unresolved``. The scenario's own hops
    fix h and r; its layout fixes alpha and the fragment mode.
    """
    (br,) = _crossovers(scenario, [{}], mss_pair, energy, ber_range, points_per_decade, rel_tol)
    return br.point(len(scenario.hops))


def frontier(
    scenario: PathScenario,
    family: str,
    family_values,
    h_values,
    mss_pair: tuple[int, int] = MSS_PAIR,
    energy: EnergyParams = EnergyParams(),
    ber_range: tuple[float, float] = BER_RANGE,
    points_per_decade: int = POINTS_PER_DECADE,
) -> list[FrontierPoint]:
    """One crossover curve per family member (family is ``r`` or ``alpha``).

    Points where the search fails are emitted with their flags so curves
    keep their gaps; ordering is (family value, h). All the crossovers
    are searched together (see the module docstring).
    """
    if family not in FRONTIER_FAMILIES:
        raise ValueError(f"family must be one of {FRONTIER_FAMILIES}, got {family!r}")
    # each hop count is checked before the next is listed, so a long range
    # is refused at its first hop count past MAX_HOPS
    values, hs = list(family_values), _axis_column("h", h_values)
    if not values or not hs:
        raise ValueError("a frontier needs at least one family value and one hop count")
    searches = [{family: v, "h": h} for v in _axis_column(family, values) for h in hs]
    brackets = _crossovers(scenario, searches, mss_pair, energy, ber_range, points_per_decade)
    return [br.point(s["h"], family, float(s[family])) for s, br in zip(searches, brackets)]
