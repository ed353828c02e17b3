"""Sweep and frontier tests: row shape, bracket validity, orderings, and the
batched frontier against a scalar scan-plus-bisection oracle."""

import math
from dataclasses import replace

import pytest

from lln_energy import cli, explorer, pathmodel
from lln_energy.cli import _blocks, _strict_trips, main
from lln_energy.config import RunConfig
from lln_energy.explorer import (MAX_POINTS, FrontierPoint, SweepSpec, crossover_ber, frontier,
                                 spaced, sweep)
from lln_energy.framing import FrameLayout, LayoutError
from lln_energy.hopmodel import HopParams
from lln_energy.pathmodel import FIELDS, EnergyParams, PathScenario, segment_models

import scalar_oracle

LAYOUT = FrameLayout(frag_header_bits=136)


def base_scenario(r=3, h=5, **layout_kw):
    lay = FrameLayout(frag_header_bits=136, **layout_kw) if layout_kw else LAYOUT
    hops = RunConfig(hops=h, ber=3e-4, retries=r).path()
    return PathScenario(hops=hops, layout=lay, mss_bytes=64)


def energy_at(ber, mss, scenario):
    return segment_models(scenario, ber=[ber], mss=[mss]).column("total_joules")[0]


def oracle_row(scenario) -> dict:
    """The scalar oracle's record of the scenario, less its per-hop lists:
    the model fields of a sweep row."""
    record = scalar_oracle.segment_model(scenario)
    return {name: record[name] for name in FIELDS}


def core_points(columns) -> int:
    """The points of a ``segment_models`` call, from its columns."""
    return len(next(iter(columns.values())))


class TestSweep:
    def test_row_per_grid_point_and_mss(self):
        spec = SweepSpec(
            scenario=base_scenario(), axis="ber", grid=(1e-5, 1e-4, 4e-4),
            mss_list=(64, 512),
        )
        rows = sweep(spec)
        assert len(rows) == 6
        assert [(r["value"], r["mss_bytes"]) for r in rows[:2]] == [
            (1e-5, 64), (1e-5, 512),
        ]
        assert all(r["total_joules"] > 0 for r in rows)

    def test_divergent_points_flagged_not_fatal(self):
        spec = SweepSpec(
            scenario=base_scenario(r=1), axis="ber", grid=(1e-5, 0.05),
            mss_list=(512,),
        )
        rows = sweep(spec)
        assert rows[0]["total_joules"] is not None
        bad = rows[1]
        assert bad["total_joules"] is None or bad["total_joules"] > 0
        if bad["total_joules"] is None:
            assert "diverges" in bad["flags"]

    @pytest.mark.parametrize("axis", ["r", "h"])
    def test_hop_axes_take_whole_values_only(self, axis):
        with pytest.raises(ValueError, match="whole number"):
            sweep(SweepSpec(scenario=base_scenario(), axis=axis, grid=(1.5, 2.5)))
        # a float grid, as the CLI parses it, still runs at its integral points
        (row,) = sweep(SweepSpec(
            scenario=base_scenario(), axis=axis, grid=(2.0,), mss_list=(64,)
        ))
        assert row[axis] == 2

    def test_layout_error_row(self):
        spec = SweepSpec(
            scenario=base_scenario(fragments="fit"), axis="alpha",
            grid=(0.01, 5.0), mss_list=(64,),
        )
        rows = sweep(spec)
        assert rows[0]["total_joules"] is not None
        assert rows[1]["flags"] == "layout_error"

    def test_calls_are_bounded_and_rows_keep_order(self, monkeypatch):
        spec = SweepSpec(
            scenario=base_scenario(fragments="fit"), axis="alpha",
            grid=(0.0, 0.01, 0.1, 0.2, 5.0),
            mss_list=(64, 128, 512),
        )
        whole = sweep(spec)
        sizes = []
        real = explorer.segment_models

        def counted(base, energy, **columns):
            sizes.append(core_points(columns))
            return real(base, energy, **columns)

        monkeypatch.setattr(explorer, "BATCH_POINTS", 4)
        monkeypatch.setattr(explorer, "segment_models", counted)
        assert sweep(spec) == whole
        assert sizes == [4, 4, 4, 3]
        assert [r["flags"] for r in whole[-3:]] == ["layout_error"] * 3

    def test_blocks_hold_at_most_block_rows_and_the_output_stays_the_same(
            self, monkeypatch, tmp_path):
        # 600 rows whose layout errors run from row 478 to the end, so that
        # they start inside a call of 256 or 1024 points and cross the block
        # boundary at row 512; CSV and JSON lines are byte-identical at every
        # call size, and no block holds more than BLOCK_ROWS rows
        argv = ["sweep", "--axis", "alpha", "--grid", "1e-3:8:log:300", "--fragments", "fit"]
        blocks = []
        real = cli.sweep_columns

        def recorded(spec):
            for n, columns in real(spec):
                assert all(len(column) == n for column in columns.values())
                blocks.append((n, columns["flags"][0] == "layout_error"))
                yield n, columns

        monkeypatch.setattr(cli, "sweep_columns", recorded)

        def run(batch_points, fmt):
            monkeypatch.setattr(explorer, "BATCH_POINTS", batch_points)
            blocks.clear()
            out = tmp_path / f"{batch_points}.{fmt}"
            assert main([*argv, "--format", fmt, "--output", str(out)]) == 0
            return [l for l in out.read_text().splitlines() if not l.startswith("#")]

        for fmt in ("csv", "jsonl"):
            outputs = {}
            for batch_points in (4, 256, 1024):
                outputs[batch_points] = run(batch_points, fmt)
                assert max(n for n, _ in blocks) <= explorer.BLOCK_ROWS
                starts = [sum(n for n, _ in blocks[:i]) for i in range(len(blocks))]
                errored = [start for start, (_, failed) in zip(starts, blocks) if failed]
                assert errored[0] == 478 and 512 in errored  # a run split at 512
            assert outputs[4] == outputs[256] == outputs[1024]
        assert len(outputs[1024]) == 600
        assert sum('"layout_error"' in line for line in outputs[1024]) == 122

    def test_ber_axis_keeps_each_hops_attempt_limit(self):
        rs = (1, 3, 7, 3)
        sc = PathScenario(hops=tuple(HopParams(1e-5, r) for r in rs), layout=LAYOUT,
                          mss_bytes=64)
        rows = sweep(SweepSpec(scenario=sc, axis="ber", grid=(1e-4, 1e-3), mss_list=(512,)))
        for row, ber in zip(rows, (1e-4, 1e-3)):
            want = oracle_row(
                replace(sc, hops=tuple(HopParams(ber, r) for r in rs), mss_bytes=512)
            )
            assert row == {"axis": "ber", "value": ber, **want}

    @pytest.mark.parametrize("axis, grid", [
        ("alpha", [10 ** (-3 + 3.5 * i / 39) for i in range(40)]),  # up to 3.2: layout errors
        ("mss", [16 + 1008 * i / 39 for i in range(40)]),
        ("r", [1, 2, 3, 4, 5, 6, 7]),
    ])
    def test_heterogeneous_path_equals_the_scalar_oracle(self, axis, grid):
        # the 9-hop hop_bers path of the CI's README step; the core keys its
        # per-hop rows once per call, and every row equals the oracle's
        hop_bers = (1e-5, 3e-5, 1e-4, 2e-4, 3e-4, 5e-4, 1e-4, 3e-5, 1e-5)
        base = RunConfig(hops=9, hop_bers=hop_bers, fragments="fit").scenario()
        rows = sweep(SweepSpec(scenario=base, axis=axis, grid=grid))
        mss_list = (None,) if axis == "mss" else (64, 512)
        points = [(value, mss) for value in grid for mss in mss_list]
        assert len(rows) == len(points)
        errors = 0
        for row, (value, mss) in zip(rows, points):
            if axis == "alpha":
                sc = replace(base, layout=replace(base.layout, alpha=value), mss_bytes=mss)
            elif axis == "mss":
                sc = replace(base, mss_bytes=int(value))
            else:
                sc = replace(base, hops=tuple(HopParams(hp.ber, value) for hp in base.hops),
                             mss_bytes=mss)
            try:
                want = {"axis": axis, "value": value, **oracle_row(sc)}
            except LayoutError as exc:
                errors += 1
                want = {"axis": axis, "value": value, "mss_bytes": sc.mss_bytes,
                        "flags": "layout_error", "error": str(exc)}
            assert row == want
        assert (errors > 0) == (axis == "alpha")

    def test_r_axis_and_h_axis(self):
        rows = sweep(SweepSpec(scenario=base_scenario(), axis="r", grid=(1, 3),
                               mss_list=(64,)))
        assert [r["r"] for r in rows] == [1, 3]
        rows = sweep(SweepSpec(scenario=base_scenario(), axis="h", grid=(1, 4),
                               mss_list=(64,)))
        assert [r["h"] for r in rows] == [1, 4]

    def test_h_axis_rejects_heterogeneous_path(self):
        hops = tuple(HopParams(ber=b, r=3) for b in (1e-5, 1e-3, 1e-3))
        sc = PathScenario(hops=hops, layout=LAYOUT, mss_bytes=64)
        with pytest.raises(ValueError, match="homogeneous"):
            sweep(SweepSpec(scenario=sc, axis="h", grid=(3,), mss_list=(64,)))

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            SweepSpec(scenario=base_scenario(), axis="mtu", grid=(1,))
        with pytest.raises(ValueError):
            SweepSpec(scenario=base_scenario(), axis="ber", grid=())
        with pytest.raises(ValueError):
            SweepSpec(scenario=base_scenario(), axis="ber", grid=(1e-4, 1e-4))

    def test_points_are_bounded_before_the_sizes_are_listed(self):
        # a grid point per size, up to MAX_POINTS rows; an mss axis has a
        # row per grid point, and lists no more sizes either
        half = range(1, MAX_POINTS // 2 + 1)
        assert len(SweepSpec(base_scenario(), "ber", (1e-4, 2e-4), half).mss_list) == len(half)
        with pytest.raises(ValueError, match=r"a sweep \(grid x sizes\): at most 1000000 "
                                             r"points, got 1000002$"):
            SweepSpec(base_scenario(), "ber", (1e-4, 2e-4), range(1, MAX_POINTS // 2 + 2))
        with pytest.raises(ValueError, match="a sweep .* got 999999937$"):
            SweepSpec(base_scenario(), "r", (3,), range(64, 10**9 + 1))
        with pytest.raises(ValueError, match="mss_list: at most 1000000 points, got 10000000$"):
            SweepSpec(base_scenario(), "mss", (64, 128), range(10**7))


class TestCrossover:
    def test_bracket_validity(self):
        sc = base_scenario()
        pt = crossover_ber(sc)
        assert pt.crossover_ber is not None
        assert pt.ber_lo < pt.crossover_ber < pt.ber_hi
        # re-evaluate the sign change through the model itself
        assert energy_at(pt.ber_lo, 512, sc) < energy_at(pt.ber_lo, 64, sc)
        assert energy_at(pt.ber_hi, 512, sc) > energy_at(pt.ber_hi, 64, sc)
        assert (pt.ber_hi - pt.ber_lo) / pt.ber_lo <= 1e-3 + 1e-9

    def test_no_crossover_in_tiny_range(self):
        pt = crossover_ber(base_scenario(), ber_range=(1e-7, 1e-6))
        assert pt.crossover_ber is None
        assert "no_crossover" in pt.flags

    def test_multiple_crossovers_counts_both_directions(self, monkeypatch):
        # a one-point-per-decade scan of 1e-7..1e-4; the fake gap has the
        # sign listed for the nearest grid point, so the first cheaper-to-
        # dearer change is always the 1e-7..1e-6 bracket, and any later
        # change, either way, flags the scan
        for signs, multiple in (("-+-+", True), ("-+--", True), ("-+++", False)):
            def gaps(base, points, mss_pair, energy, signs=signs):
                return (1.0 if signs[round(math.log10(b / 1e-7))] == "+" else -1.0
                        for _, b in points)

            monkeypatch.setattr(explorer, "_energy_gaps", gaps)
            pt = crossover_ber(base_scenario(), ber_range=(1e-7, 1e-4),
                               points_per_decade=1)
            assert 1e-7 <= pt.ber_lo < pt.crossover_ber < pt.ber_hi <= 1.000001e-6
            assert ("multiple_crossovers" in pt.flags) == multiple, signs

    def test_same_point_cold_and_after_a_frontier(self):
        # a frontier shares hop keys with this search; nothing it computes
        # outlives its own calls
        cold = crossover_ber(base_scenario(h=3))
        frontier(base_scenario(), "r", [3], range(1, 10))
        assert crossover_ber(base_scenario(h=3)) == cold

    def test_unevaluable_midpoint_stops_only_its_bisection(self, monkeypatch):
        # At the third bisection step the r=3, h=3 search finds neither MSS
        # evaluable (alpha 1e308 codes frames past 2**53 bits); its bracket
        # stays where the first two steps left it, flagged, while every
        # other search of the frontier, r=5's h=3 among them, bisects on in
        # lockstep.
        want = frontier(base_scenario(), "r", [3, 5], range(1, 6))
        real = explorer.segment_models
        steps = []

        def core(base, energy, **columns):
            n = core_points(columns)
            if n <= 2 * 10:  # a bisection step: two points per bracket
                steps.append(n)
                if len(steps) == 3:
                    columns["alpha"] = [
                        1e308 if (h, r) == (3, 3) else base.layout.alpha
                        for h, r in zip(columns["h"], columns["r"])
                    ]
            return real(base, energy, **columns)

        monkeypatch.setattr(explorer, "segment_models", core)
        got = frontier(base_scenario(), "r", [3, 5], range(1, 6))
        assert got[:2] + got[3:] == want[:2] + want[3:]
        stuck, full = got[2], want[2]
        assert (stuck.family_value, stuck.h) == (3.0, 3)
        assert stuck.flags == ("bracket_unresolved",)
        assert stuck.ber_lo <= full.ber_lo < full.ber_hi <= stuck.ber_hi
        # two halvings of the log-width of one 10-per-decade scan step
        assert math.log10(stuck.ber_hi / stuck.ber_lo) == pytest.approx(0.1 / 4)
        monkeypatch.undo()
        sc = base_scenario(h=3)
        assert energy_at(stuck.ber_lo, 512, sc) < energy_at(stuck.ber_lo, 64, sc)
        assert energy_at(stuck.ber_hi, 512, sc) > energy_at(stuck.ber_hi, 64, sc)
        assert any(map(_strict_trips, _blocks([stuck.to_record()])))

    def test_more_attempts_push_crossover_up(self):
        lo = crossover_ber(base_scenario(r=1)).crossover_ber
        hi = crossover_ber(base_scenario(r=7)).crossover_ber
        assert lo < hi  # more link retries favor the long MSS


class TestFrontier:
    def test_curves_ordered_and_monotone(self):
        pts = frontier(base_scenario(), "r", [1, 3], range(1, 6))
        assert len(pts) == 10
        by_r = {}
        for p in pts:
            assert isinstance(p, FrontierPoint) and p.crossover_ber is not None
            by_r.setdefault(p.family_value, []).append(p)
        for r_val, curve in by_r.items():
            bers = [p.crossover_ber for p in curve]
            assert all(a >= b for a, b in zip(bers, bers[1:]))  # h-monotone
        for h_idx in range(5):
            assert (
                by_r[1.0][h_idx].crossover_ber <= by_r[3.0][h_idx].crossover_ber
            )

    def test_alpha_family(self):
        sc = PathScenario(
            hops=RunConfig(hops=3, ber=3e-4, retries=1).path(),
            layout=FrameLayout(frag_header_bits=136, fragments="fit"),
            mss_bytes=64,
        )
        pts = frontier(sc, "alpha", [1e-3, 1e-2], [3, 5])
        vals = {(p.family_value, p.h): p.crossover_ber for p in pts}
        assert vals[(1e-3, 3)] < vals[(1e-2, 3)]
        assert vals[(1e-2, 5)] <= vals[(1e-2, 3)]

    def test_r_family_equals_the_scalar_oracle(self):
        # the CLI's `frontier --family r --values 1,2,3,4,5,7` over h=1..9
        base = RunConfig().scenario()
        got = frontier(base, "r", [1, 2, 3, 4, 5, 7], range(1, 10))
        want = [
            replace(
                scalar_oracle.crossover_ber(
                    PathScenario(RunConfig(hops=h, ber=base.hops[0].ber, retries=r).path(),
                                 base.layout, base.mss_bytes, base.transfer_bytes)),
                family="r", family_value=float(r),
            )
            for r in (1, 2, 3, 4, 5, 7)
            for h in range(1, 10)
        ]
        assert got == want

    def test_alpha_family_equals_the_scalar_oracle(self):
        # the CLI's `frontier --family alpha --values 1e-3,1e-2,1e-1,2.0 -r 1
        # --fragments fit` over h=1..9; alpha 2.0 cannot be laid out at all
        base = RunConfig(retries=1, fragments="fit").scenario()
        got = frontier(base, "alpha", [1e-3, 1e-2, 1e-1, 2.0], range(1, 10))
        want = [
            replace(
                scalar_oracle.crossover_ber(
                    PathScenario(RunConfig(hops=h, ber=base.hops[0].ber, retries=1).path(),
                                 replace(base.layout, alpha=alpha),
                                 base.mss_bytes, base.transfer_bytes)),
                family="alpha", family_value=alpha,
            )
            for alpha in (1e-3, 1e-2, 1e-1, 2.0)
            for h in range(1, 10)
        ]
        assert got == want
        assert all(p.flags == ("no_crossover",) for p in got[-9:])

    @pytest.mark.parametrize("config, family, values, most", [
        (RunConfig(), "r", [1, 2, 3, 4, 5, 7], 2400),
        (RunConfig(retries=1, fragments="fit"), "alpha", [1e-3, 1e-2, 1e-1], 1200),
    ])
    def test_scan_calls_share_hop_keys_across_hop_counts(self, monkeypatch, config, family,
                                                         values, most):
        # the scan runs grid-major, so a call holds every h of a few BERs and
        # the hop layer sees each (frame, BER, r) of those BERs once per call:
        # 2 331 keys for the r family and 1 116 for alpha, against 6 477 and
        # 3 186 when each search scanned its BERs in turn
        keys = []
        real = pathmodel.hop_model_array

        def counted(d, *rest):
            keys.append(len(d))
            return real(d, *rest)

        monkeypatch.setattr(pathmodel, "hop_model_array", counted)
        points = frontier(config.scenario(), family, values, range(1, 10))
        assert len(points) == 9 * len(values)
        assert 0 < sum(keys) <= most

    def test_scan_streams_in_full_calls_then_one_call_per_step(self, monkeypatch):
        # the scans of all the frontier's searches stream through calls of
        # BATCH_POINTS points, and their bisection steps share their calls:
        # two values take as many steps as one, not twice as many
        sizes = []
        real = explorer.segment_models

        def counted(base, energy, **columns):
            sizes.append(core_points(columns))
            return real(base, energy, **columns)

        monkeypatch.setattr(explorer, "segment_models", counted)

        def calls(values):
            sizes.clear()
            points = frontier(base_scenario(), "r", values, range(1, 6))
            return points, list(sizes)

        def scan_calls(searches):
            points = 2 * 61 * searches  # the default scan: 61 BERs, two MSS each
            full, rest = divmod(points, explorer.BATCH_POINTS)
            return [explorer.BATCH_POINTS] * full + [rest] * (rest > 0)

        points, both = calls([1, 3])
        scan = scan_calls(10)
        assert both[:len(scan)] == scan == [1024, 196]
        steps = both[len(scan):]
        assert steps[0] == 2 * sum(p.crossover_ber is not None for p in points) == 20
        assert all(a >= b for a, b in zip(steps, steps[1:]))
        alone = [len(calls([value])[1]) - len(scan_calls(5)) for value in (1, 3)]
        assert len(steps) == max(alone) > 0

    def test_bisection_steps_split_at_batch_points(self, monkeypatch, tmp_path):
        # a step sends two points per bracket of the whole frontier (720 for
        # `--values 1,...,40`); past BATCH_POINTS it splits into calls of at
        # most that many, and the output stays byte-identical
        argv = ["frontier", "--family", "r", "--values", "1,2,3,4,5,6,7,8",
                "--h-range", "1:3"]
        sizes = []
        real = explorer.segment_models

        def counted(base, energy, **columns):
            sizes.append(core_points(columns))
            return real(base, energy, **columns)

        monkeypatch.setattr(explorer, "segment_models", counted)

        def run(batch_points):
            monkeypatch.setattr(explorer, "BATCH_POINTS", batch_points)
            sizes.clear()
            out = tmp_path / f"{batch_points}.csv"
            assert main([*argv, "--output", str(out)]) == 0
            rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            return rows, list(sizes)

        whole, sizes_whole = run(10**6)
        searches = 8 * 3
        assert sizes_whole[0] == 2 * 61 * searches  # the whole scan in one call
        assert sizes_whole[1] == 2 * searches  # each search has a bracket
        chunked, sizes_chunked = run(20)
        assert chunked == whole and max(sizes_chunked) == 20

    def test_a_dense_scan_streams_in_bounded_calls(self, monkeypatch):
        # 500 points per decade scan 3001 BERs, 6002 model points per search;
        # they stream through the core BATCH_POINTS at a time, so a call's
        # memory does not grow with the density, and the output equals that
        # of one unchunked scan call
        sizes = []
        real = explorer.segment_models

        def counted(base, energy, **columns):
            sizes.append(core_points(columns))
            return real(base, energy, **columns)

        monkeypatch.setattr(explorer, "segment_models", counted)

        def run(batch_points):
            monkeypatch.setattr(explorer, "BATCH_POINTS", batch_points)
            sizes.clear()
            points = frontier(base_scenario(), "r", [3], [2, 5], points_per_decade=500)
            return points, list(sizes)

        whole, sizes_whole = run(10**6)
        assert sizes_whole[0] == 2 * 3001 * 2
        chunked, sizes_chunked = run(256)
        assert chunked == whole
        assert max(sizes_chunked) == 256

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            frontier(base_scenario(), "mtu", [1], [1])

    @pytest.mark.parametrize("points_per_decade", [0, -3])
    def test_rejects_a_scan_without_points_per_decade(self, points_per_decade):
        # a non-positive density would scan only the range's two ends
        with pytest.raises(ValueError, match="points_per_decade must be >= 1"):
            frontier(base_scenario(), "r", [3], [1], points_per_decade=points_per_decade)
        with pytest.raises(ValueError, match="points_per_decade must be >= 1"):
            crossover_ber(base_scenario(), points_per_decade=points_per_decade)

    @pytest.mark.parametrize("values, hops", [([], [1, 2]), ([3], []), ([3], range(3, 1))])
    def test_rejects_an_empty_frontier(self, values, hops):
        with pytest.raises(ValueError, match="at least one family value and one hop count"):
            frontier(base_scenario(), "r", values, hops)

    def test_searches_and_scans_are_bounded(self):
        # values x hop counts, and the BER scan's points, before either is listed
        with pytest.raises(ValueError, match=r"a frontier \(values x hop counts\): at most "
                                             r"1000000 points, got 1001000$"):
            frontier(base_scenario(), "r", [3] * 1000, range(1, 1002))
        with pytest.raises(ValueError, match="a frontier .* got 999999999$"):
            frontier(base_scenario(), "r", range(1, 10**9), [1])
        with pytest.raises(ValueError, match="the BER scan: at most 1000000 points, "
                                             "got 6000001$"):
            frontier(base_scenario(), "r", [3], [1], points_per_decade=10**6)
        with pytest.raises(ValueError, match="the BER scan: .* got 1000001$"):
            crossover_ber(base_scenario(), ber_range=(1e-2, 1e-1),
                          points_per_decade=MAX_POINTS)
        assert len(spaced(1e-2, 1e-1, MAX_POINTS, "log", "x")) == MAX_POINTS

    def test_rejects_an_mss_pair_of_one_size(self):
        # one size against itself costs the same everywhere: no crossover to find
        with pytest.raises(ValueError, match=r"two different sizes, got \(64, 64\)"):
            frontier(base_scenario(), "r", [3], [1], mss_pair=(64, 64))
        for pair in ((512, 512), (64,), (64, 512, 1024), (64, 512, 512)):
            with pytest.raises(ValueError, match="two different sizes"):
                crossover_ber(base_scenario(), mss_pair=pair)
