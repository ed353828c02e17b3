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

Both run on ``pathmodel.segment_models``, whose numpy pass costs more
than a scalar evaluation for one point but little more for hundreds,
so neither evaluates points one at a time. Each also bounds the points
per call, since a call's memory grows with them. A sweep evaluates its
grid in calls of ``BATCH_POINTS`` points and builds its rows from the
result records. A frontier scans each (family value, hop count)'s BER
grid (the long and short MSS are two points per BER: one call of 122
points for the default 61-point scan), then bisects all of the
frontier's brackets in lockstep, one step at a time. Its calls, too,
take ``BATCH_POINTS`` points at most. Family values are scanned in
turn, so the hop models of one value's BER grid are shared across its
hop counts within the hop-model cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .framing import LayoutError
from .hopmodel import HopParams
from .pathmodel import EnergyParams, PathScenario, segment_models

__all__ = [
    "SweepSpec",
    "FrontierPoint",
    "sweep",
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
#: The most points per model call of a sweep, a scan or a bisection step
BATCH_POINTS = 256


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


def _at_ber(hops: tuple[HopParams, ...], ber: float) -> tuple[HopParams, ...]:
    """The hops with their BER set to ``ber``: one HopParams per attempt limit,
    so a homogeneous path stays one repeated hop."""
    made = {r: HopParams(ber, r) for r in {hp.r for hp in hops}}
    return tuple(made[hp.r] for hp in hops)


def _variant(scenario: PathScenario, axis: str, value, mss: int) -> PathScenario:
    """Base scenario with one axis changed; hop axes apply to every hop.

    ``r`` and ``h`` take whole values only (3.0 counts as 3); ``mss`` floors,
    so a linear grid over it may be fractional.
    """
    hops = scenario.hops
    layout = scenario.layout
    if axis in ("r", "h"):
        if not float(value).is_integer():
            raise ValueError(f"{axis} must be a whole number, got {value!r}")
        value = int(value)
    if axis == "ber":
        hops = _at_ber(hops, float(value))
    elif axis == "r":
        hops = tuple(replace(hp, r=value) for hp in hops)
    elif axis == "alpha":
        layout = replace(layout, alpha=float(value))
    elif axis == "h":
        if len(set(hops)) > 1:
            raise ValueError("the h axis needs a homogeneous path; its hops differ")
        hops = tuple(hops[0] for _ in range(value))
    elif axis == "mss":
        mss = int(value)
    return PathScenario(
        hops=hops, layout=layout, mss_bytes=mss, transfer_bytes=scenario.transfer_bytes
    )


def sweep(spec: SweepSpec) -> list[dict]:
    """Model rows for every (grid point x MSS), in grid-then-MSS order.

    Degenerate or divergent points keep their flags; a layout that cannot
    be realized at a point (e.g. alpha too large to fit the MTU) yields a
    row flagged ``layout_error`` instead of aborting the sweep.
    """
    mss_values = (None,) if spec.axis == "mss" else spec.mss_list
    points = [(value, mss) for value in spec.grid for mss in mss_values]
    rows = []
    for start in range(0, len(points), BATCH_POINTS):
        chunk = points[start:start + BATCH_POINTS]
        scenarios = [
            _variant(spec.scenario, spec.axis, value, mss or spec.scenario.mss_bytes)
            for value, mss in chunk
        ]
        records = segment_models(scenarios, spec.energy).records()
        for (value, _), scenario, rec in zip(chunk, scenarios, records):
            if isinstance(rec, LayoutError):
                rows.append({"axis": spec.axis, "value": value,
                             "mss_bytes": scenario.mss_bytes,
                             "flags": "layout_error", "error": str(rec)})
            else:
                rows.append({"axis": spec.axis, "value": value, **rec})
    return rows


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


def _energy_gaps(scenarios, bers, mss_pair, energy) -> list[float | None]:
    """energy(long) - energy(short) of each scenario at its BER; sign only.

    Every hop takes that BER. A diverging side counts as infinitely
    expensive; None when neither side is finite (or a layout cannot be
    realized); no comparison there. Model calls of ``BATCH_POINTS``
    points at most.
    """
    points = []
    for scenario, ber in zip(scenarios, bers):
        hops = _at_ber(scenario.hops, ber)
        points += [
            PathScenario(hops, scenario.layout, mss, scenario.transfer_bytes)
            for mss in (max(mss_pair), min(mss_pair))
        ]
    joules, errors = [], []
    for start in range(0, len(points), BATCH_POINTS):
        batch = segment_models(points[start:start + BATCH_POINTS], energy)
        joules += batch.column("total_joules")
        errors += batch.errors
    gaps = []
    for i in range(0, len(points), 2):
        e_long, e_short = joules[i], joules[i + 1]
        unevaluable = errors[i] is not None or errors[i + 1] is not None
        if unevaluable or (e_long is None and e_short is None):
            gaps.append(None)
        elif e_long is None:
            gaps.append(math.inf)
        elif e_short is None:
            gaps.append(-math.inf)
        else:
            gaps.append(e_long - e_short)
    return gaps


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
    scenarios, mss_pair, energy, ber_range, points_per_decade, rel_tol=REL_TOL
) -> list[_Bracket]:
    """Each scenario's crossover search: a scan each, then one lockstep
    bisection of every bracket found, one step at a time."""
    lo, hi = ber_range
    if not 0 < lo < hi < 1:
        raise ValueError(f"ber_range must satisfy 0 < lo < hi < 1, got {ber_range}")
    if points_per_decade < 1:
        raise ValueError(f"points_per_decade must be >= 1, got {points_per_decade}")
    n = max(2, int(round(points_per_decade * math.log10(hi / lo))) + 1)
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]

    searches = []
    for sc in scenarios:  # one scan call per scenario bounds a call to 2n points
        gaps = _energy_gaps([sc] * n, grid, mss_pair, energy)
        scan = [(b, g) for b, g in zip(grid, gaps) if g is not None]
        # each sign change between neighbouring evaluable points, and whether
        # the long MSS goes from cheaper to dearer there
        changes = [(a, b, ga < 0) for (a, ga), (b, gb) in zip(scan, scan[1:])
                   if (ga < 0) != (gb < 0)]
        rising = [(a, b) for a, b, to_dearer in changes if to_dearer]
        if rising:
            flags = ["multiple_crossovers"] if len(changes) > 1 else []
            searches.append(_Bracket(*rising[0], flags))
        else:
            searches.append(_Bracket(None, None, ["no_crossover"]))

    active = [(sc, br) for sc, br in zip(scenarios, searches) if br.lo is not None]
    while active := [(sc, br) for sc, br in active
                     if "bracket_unresolved" not in br.flags
                     and (br.hi - br.lo) / br.lo > rel_tol]:
        mids = [math.sqrt(br.lo * br.hi) for _, br in active]
        step = _energy_gaps([sc for sc, _ in active], mids, mss_pair, energy)
        for (_, br), mid, g in zip(active, mids, step):
            if g is None:
                br.flags.append("bracket_unresolved")
            elif g >= 0:
                br.hi = mid
            else:
                br.lo = mid
    return searches


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
    (search,) = _crossovers([scenario], mss_pair, energy, ber_range, points_per_decade, rel_tol)
    return search.point(len(scenario.hops))


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
    keys = [(float(v), h) for v in family_values for h in h_values]
    if not keys:
        raise ValueError("a frontier needs at least one family value and one hop count")
    mss = scenario.mss_bytes
    variants = [_variant(_variant(scenario, family, v, mss), "h", h, mss) for v, h in keys]
    searches = _crossovers(variants, mss_pair, energy, ber_range, points_per_decade)
    return [search.point(len(sc.hops), family, v)
            for (v, _), sc, search in zip(keys, variants, searches)]
