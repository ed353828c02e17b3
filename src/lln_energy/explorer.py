"""Parameter sweeps and MSS-preference frontiers.

A sweep walks one axis (BER, attempt limit, redundancy ratio, hop count,
or the MSS itself) and emits one model row per grid point and compared
MSS. A frontier locates, for each hop count, the crossover BER at which
the long-MSS transfer stops being cheaper than the short-MSS one: below
the curve long segments win (header overhead dominates), above it short
segments win (end-to-end retransmissions dominate). Energy is
piecewise-smooth in BER, so a geometric bracket scan plus bisection is
enough; points where one side diverges still carry a definite sign (the
divergent side loses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .framing import LayoutError
from .pathmodel import EnergyParams, PathScenario, segment_model

__all__ = [
    "SweepSpec",
    "FrontierPoint",
    "sweep",
    "crossover_ber",
    "frontier",
]

SWEEP_AXES = ("ber", "r", "alpha", "h", "mss")

#: Defaults of the sweeps, crossovers and frontiers, shared with the CLI:
#: the short and long MSS compared, and the geometric BER scan.
MSS_PAIR = (64, 512)
BER_RANGE = (1e-7, 1e-1)
POINTS_PER_DECADE = 10


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
        hops = tuple(replace(hp, ber=float(value)) for hp in hops)
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
    rows = []
    mss_values = (None,) if spec.axis == "mss" else spec.mss_list
    for value in spec.grid:
        for mss in mss_values:
            scenario = _variant(
                spec.scenario, spec.axis, value, mss or spec.scenario.mss_bytes
            )
            row = {"axis": spec.axis, "value": value, "mss_bytes": scenario.mss_bytes}
            try:
                report = segment_model(scenario, energy=spec.energy)
            except LayoutError as exc:
                row.update({"flags": "layout_error", "error": str(exc)})
            else:
                row.update(report.to_record())  # mss_bytes keeps its place
            rows.append(row)
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


def _energy_gap(scenario: PathScenario, ber: float, mss_pair, energy) -> float | None:
    """energy(long) - energy(short) at this BER; sign only.

    A diverging side counts as infinitely expensive; None when neither
    side is finite (or a layout cannot be realized); no comparison there.
    """
    values = []
    for mss in (max(mss_pair), min(mss_pair)):
        try:
            report = segment_model(
                _variant(scenario, "ber", ber, mss), energy=energy
            )
        except LayoutError:
            return None
        values.append(report.total_joules)
    e_long, e_short = values
    if e_long is None and e_short is None:
        return None
    if e_long is None:
        return math.inf
    if e_short is None:
        return -math.inf
    return e_long - e_short


def crossover_ber(
    scenario: PathScenario,
    mss_pair: tuple[int, int] = MSS_PAIR,
    energy: EnergyParams = EnergyParams(),
    ber_range: tuple[float, float] = BER_RANGE,
    points_per_decade: int = POINTS_PER_DECADE,
    rel_tol: float = 1e-3,
) -> FrontierPoint:
    """Locate the BER where the long and short MSS cost the same energy.

    Scans a geometric BER grid for sign changes of the energy gap, then
    bisects (in log space) the first bracket down to the relative BER
    tolerance. The scenario's own hops fix h and r; its layout fixes
    alpha and the fragment mode.
    """
    lo, hi = ber_range
    if not 0 < lo < hi < 1:
        raise ValueError(f"ber_range must satisfy 0 < lo < hi < 1, got {ber_range}")
    n = max(2, int(round(points_per_decade * math.log10(hi / lo))) + 1)
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]

    gap = lambda b: _energy_gap(scenario, b, mss_pair, energy)
    h = len(scenario.hops)
    brackets = []
    sign_changes = 0
    prev = None
    for b in grid:
        g = gap(b)
        if g is None:
            continue
        if prev is not None and (prev[1] < 0) != (g < 0):
            sign_changes += 1
            if prev[1] < 0:
                brackets.append((prev[0], b))
        prev = (b, g)
    flags = []
    if not brackets:
        return FrontierPoint(
            h=h, family=None, family_value=None, crossover_ber=None,
            ber_lo=None, ber_hi=None, flags=("no_crossover",),
        )
    if sign_changes > 1:
        flags.append("multiple_crossovers")

    b_lo, b_hi = brackets[0]
    while (b_hi - b_lo) / b_lo > rel_tol:
        mid = math.sqrt(b_lo * b_hi)
        g = gap(mid)
        if g is None or g >= 0:
            b_hi = mid
        else:
            b_lo = mid
    return FrontierPoint(
        h=h, family=None, family_value=None,
        crossover_ber=math.sqrt(b_lo * b_hi),
        ber_lo=b_lo, ber_hi=b_hi, flags=tuple(flags),
    )


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
    keep their gaps; ordering is (family value, h).
    """
    if family not in ("r", "alpha"):
        raise ValueError(f'family must be "r" or "alpha", got {family!r}')
    points = []
    for value in family_values:
        base = _variant(scenario, family, value, scenario.mss_bytes)
        for h in h_values:
            variant = _variant(base, "h", h, base.mss_bytes)
            point = crossover_ber(
                variant, mss_pair=mss_pair, energy=energy,
                ber_range=ber_range, points_per_decade=points_per_decade,
            )
            points.append(
                replace(point, family=family, family_value=float(value))
            )
    return points
