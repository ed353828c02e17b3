"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and reported diagnostics.

Two published claims are checked at the operating point, and against the
series, that the published numbers themselves show they belong to (the
evidence is in the two tests' docstrings and in ``docs/calibration.md``):

* criterion 5's MSS ratio at B=4e-4 is checked against the published
  *model* series, 6.06 J / 5.68 J = 1.067: the long MSS must be dearer
  (ratio > 1, so 4e-4 lies past the crossover) and the ratio must be
  within +/-25% of 1.067. The factor of about 3 quoted in the source
  material is the *simulation* series (19.74 J / 5.93 J = 3.3), which
  includes MAC collisions that are out of scope here; a factor in [2, 4]
  cannot hold together with the +/-25% value clause, whose largest
  reachable ratio is (6.06*1.25)/(5.68*0.75) = 1.78.
* criterion 6's published energy-vs-attempts series (MSS 512, r=2..7) is
  checked at the reference deployment's BER, 3e-4. At B=5e-4 it
  contradicts the published energy-vs-BER series (6.06 J at B=4e-4 and
  r=3, yet 3.73 J at the higher BER 5e-4), while 3.73 J falls between
  that series' 2.75 J at 1e-4 and 6.06 J at 4e-4. A free scan over B and
  h fits the series best at h=5, B~2.9e-4, and at B=3e-4 the model
  reproduces all six points within +/-25% for every ``frag_header_bits``
  in the calibration table. Criterion 7(b) is read from the data the
  same way: its chart was computed at r=1.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from lln_energy.config import RunConfig
from lln_energy.explorer import SweepSpec, crossover_ber, frontier, sweep
from lln_energy.framing import resolve_frames
from lln_energy.hopmodel import expected_success_bits
from lln_energy.pathmodel import (
    PathScenario,
    fragment_failure_sum,
    segment_model,
    uniform_path,
)
from lln_energy.simulator import SimConfig, simulate

from test_hopmodel import enum_success_bits
from test_pathmodel import fragment_failure_bits, fragment_failure_bits_variant
from test_simulator import three_blocks_and_a_part, three_cpus  # noqa: F401 (a fixture)

SEED = 20260810
WORKERS = 2


def report(criterion, ok, detail=""):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" -- {detail}" if detail else ""))
    return ok


def scenario(ber=3e-4, r=3, mss=64, **kw):
    return RunConfig(ber=ber, retries=r, mss_bytes=mss, **kw).scenario()


def test_criterion_1_zero_noise_exactness():
    t0 = time.perf_counter()
    sc = scenario(ber=0.0)
    frames = resolve_frames(sc.mss_bytes, sc.layout)
    expected = math.ceil(51200 / 64) * (
        5 * (frames.d_data_bits + 40) + 5 * (frames.d_ack_bits + 40)
    )
    model = segment_model(sc)
    sim = simulate(SimConfig(scenario=sc, replications=5, master_seed=SEED))
    elapsed = time.perf_counter() - t0
    ok = (
        model["total_bits"] == expected == 5_888_000
        and sim.mean_total_bits == expected
        and sim.stddev_total_bits == 0.0
        and elapsed < 1.0
    )
    assert report(1, ok, f"{expected} bits exactly, stddev 0, {elapsed:.2f}s")


def test_criterion_2_arq_expectation_oracle():
    t0 = time.perf_counter()
    d, a = 672, 40
    grid = (0.05, 0.2, 0.4, 0.6, 0.8)
    worst = 0.0
    for r in (1, 2, 3, 4):
        for pf, pp in itertools.product(grid, grid):
            if pf + pp >= 1.0:
                continue
            got = expected_success_bits((pf, pp, 1.0 - pf - pp), r, d, a)
            want = enum_success_bits(pf, pp, r, d, a)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(2, ok, f"max rel err {worst:.2e} over r=1..4, {elapsed:.2f}s")


def test_criterion_3_fragment_failure_oracle():
    qs = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
    e_s, e_f = 4360.0, 2940.0
    worst = 0.0
    worst_variant = 0.0
    for m in range(1, 9):
        for q in qs:
            exact = fragment_failure_bits(m, q, e_s, e_f)
            exact_raw = fragment_failure_sum(m, q, e_s, e_f)
            closed = exact_raw / (1.0 - q**m)
            worst = max(worst, abs(exact - closed) / exact)
            variant = fragment_failure_bits_variant(m, q, e_s, e_f)
            worst_variant = max(
                worst_variant, abs(variant - exact_raw) / exact_raw
            )
    ok = worst <= 1e-12
    assert report(
        3, ok,
        f"sum vs closed form {worst:.2e}; published-variant deviation from "
        f"the exact sum reaches {worst_variant:.1%} (reported, not asserted)",
    )


def test_criterion_4_model_simulator_agreement():
    t0 = time.perf_counter()
    rows = []
    worst = 0.0
    for ber, r, mss in itertools.product((1e-5, 3e-4, 8e-4), (1, 3), (64, 512)):
        sc = scenario(ber=ber, r=r, mss=mss)
        model = segment_model(sc)
        sim = simulate(SimConfig(
            scenario=sc, replications=2000, master_seed=SEED,
            round_cap=10**15, workers=WORKERS,
        ))
        z = (sim.mean_total_bits - model["total_bits"]) / sim.stderr_total_bits
        worst = max(worst, abs(z))
        rows.append((ber, r, mss, z, sim.method))
    elapsed = time.perf_counter() - t0
    for ber, r, mss, z, method in rows:
        print(f"  B={ber:<6g} r={r} mss={mss:<3d} z={z:+5.2f} ({method})")
    ok = worst <= 3.0 and elapsed < 120.0
    assert report(4, ok, f"12 configs, worst |z|={worst:.2f}, {elapsed:.0f}s")


FIG3_POINTS = {  # published model-series energies (J)
    64: {1e-6: 4.13, 1e-4: 4.46, 4e-4: 5.68, 8e-4: 11.24},
    512: {1e-6: 2.54, 1e-4: 2.75, 4e-4: 6.06, 8e-4: 374.0},
}


def test_criterion_5_energy_vs_ber_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for mss, points in FIG3_POINTS.items():
        for ber, published in points.items():
            got = segment_model(scenario(ber=ber, mss=mss))["total_joules"]
            ratio = got / published
            worst = max(worst, abs(ratio - 1.0))
            print(f"  mss={mss:<3d} B={ber:<6g}: {got:7.2f} J vs {published:7.2f} J "
                  f"({ratio:+.0%})".replace("+", ""))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.25 and elapsed < 1.0
    assert report(5, ok, f"8 points within ±25% (worst {worst:.0%}), {elapsed:.2f}s")


def test_criterion_5_mss_ratio_claim_at_4e4():
    """The long MSS costs more than the short one at B=4e-4, by the ratio
    the published model series states.

    The published model-series values at B=4e-4 are 6.06 J (MSS 512) and
    5.68 J (MSS 64): a ratio of 1.067, so 4e-4 lies just past the
    crossover. The ratio must be above 1 and within the same +/-25% that
    criterion 5 applies to each value. The factor of about 3 quoted in the
    source material is its simulation series (19.74 J / 5.93 J = 3.3),
    which includes the MAC collisions this model deliberately leaves out;
    it is printed as context, not asserted. (A factor in [2, 4] could not
    hold alongside the +/-25% value clause, whose largest reachable ratio
    is (6.06*1.25)/(5.68*0.75) = 1.78.)
    """
    e_long = segment_model(scenario(ber=4e-4, mss=512))["total_joules"]
    e_short = segment_model(scenario(ber=4e-4, mss=64))["total_joules"]
    ratio = e_long / e_short
    published = FIG3_POINTS[512][4e-4] / FIG3_POINTS[64][4e-4]
    deviation = ratio / published - 1.0
    ok = ratio > 1.0 and abs(deviation) <= 0.25
    assert report(
        "5 (ratio clause)", ok,
        f"model ratio at B=4e-4 is {ratio:.3f} vs published model series "
        f"{published:.3f} ({deviation:+.0%}); simulation series "
        f"{19.74 / 5.93:.1f} (reported, not asserted)",
    )


FIG4_512 = {2: 17.55, 3: 3.73, 4: 3.24, 5: 3.23, 6: 3.23, 7: 3.23}


def test_criterion_6_energy_vs_attempts_monotone():
    values = [
        segment_model(scenario(ber=5e-4, r=r, mss=512))["total_joules"]
        for r in range(2, 8)
    ]
    ok = all(a > b for a, b in zip(values, values[1:]))
    assert report("6 (monotone)", ok,
                  "MSS-512 energy strictly decreases over r=2..7: "
                  + " ".join(f"{v:.2f}" for v in values))


def test_criterion_6_energy_vs_attempts_values():
    """The published energy-vs-attempts series (MSS 512, h=5) holds at the
    reference deployment's BER, 3e-4.

    The BER this chart was drawn at is not stated in the material at hand,
    so it is read from the published numbers. At B=5e-4 they contradict
    each other: the energy-vs-BER series already gives 6.06 J at r=3 and
    B=4e-4, while this series gives 3.73 J at r=3, and energy cannot fall
    as BER rises. The value 3.73 J does fall between that series' 2.75 J
    at 1e-4 and 6.06 J at 4e-4. B=3e-4 is the reference deployment's own
    BER (``docs/calibration.md``, README defaults), and the point was not
    picked to pass:

    * a free scan over B and h fits the series best at h=5, B~2.9e-4
      (worst error 12%);
    * at B=3e-4 the worst point is +12% / +14% / +17% / +18% / +24% for
      ``frag_header_bits`` 120 / 128 / 136 / 140 / 160, inside +/-25%
      across the whole calibration table.

    The B=5e-4 values are printed as context, not asserted.
    """
    worst = 0.0
    for r, published in FIG4_512.items():
        got = segment_model(scenario(ber=3e-4, r=r, mss=512))["total_joules"]
        at_5e4 = segment_model(scenario(ber=5e-4, r=r, mss=512))["total_joules"]
        ratio = got / published
        worst = max(worst, abs(ratio - 1.0))
        print(f"  r={r}: {got:7.2f} J vs published {published:6.2f} J "
              f"({ratio - 1.0:+.0%}); B=5e-4: {at_5e4:7.2f} J (reported)")
    ok = worst <= 0.25
    assert report("6 (values)", ok, f"6 points at B=3e-4, worst deviation {worst:.0%}")


def test_criterion_7_frontier_reproduction():
    t0 = time.perf_counter()
    # (a) alpha=0 crossover at h=5, r=3 (published ~3.8e-4, factor-1.5 window)
    pt_r3 = crossover_ber(scenario(r=3))
    ok_a = pt_r3.crossover_ber is not None and 2.5e-4 <= pt_r3.crossover_ber <= 5.7e-4

    # (b) alpha=1e-2 crossover at h=5 (published ~1.9e-3, factor-1.5 window).
    # The published alpha-family chart was computed at r=1: its alpha=1e-3
    # curve is numerically identical to the r=1 curve of the attempts-family
    # chart (2.4e-5 at h=5 vs the r=3 value 3.8e-4), so the window is
    # asserted at r=1; the r=3 value is reported alongside.
    pt_alpha = crossover_ber(scenario(r=1, alpha=1e-2, fragments="fit"))
    ok_b = (
        pt_alpha.crossover_ber is not None
        and 1.3e-3 <= pt_alpha.crossover_ber <= 2.9e-3
    )
    pt_alpha_r3 = crossover_ber(scenario(r=3, alpha=1e-2, fragments="fit"))
    print(f"  alpha=1e-2 crossover: r=1 {pt_alpha.crossover_ber:.2e} (asserted), "
          f"r=3 {pt_alpha_r3.crossover_ber:.2e} (reported)")

    # (c) ordering in r and in alpha, monotonicity in h, over h=1..9
    r_pts = frontier(scenario(r=3), "r", [1, 2, 3, 4, 5, 7], range(1, 10))
    a_pts = frontier(
        scenario(r=1, fragments="fit"), "alpha", [1e-3, 1e-2, 1e-1], range(1, 10)
    )
    ok_c = True
    for pts, n_family in ((r_pts, 6), (a_pts, 3)):
        curves: dict = {}
        for p in pts:
            ok_c &= p.crossover_ber is not None
            curves.setdefault(p.family_value, []).append(p.crossover_ber)
        values = [curves[k] for k in sorted(curves)]
        for curve in values:
            ok_c &= all(x >= y for x, y in zip(curve, curve[1:]))  # h-monotone
        for h_idx in range(9):  # family-ordered at each h
            col = [curve[h_idx] for curve in values]
            ok_c &= all(x <= y for x, y in zip(col, col[1:]))
    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and elapsed < 30.0
    assert report(
        7, ok,
        f"alpha=0: {pt_r3.crossover_ber:.2e} in [2.5e-4,5.7e-4]; "
        f"alpha=1e-2: {pt_alpha.crossover_ber:.2e} in [1.3e-3,2.9e-3]; "
        f"orderings hold; {elapsed:.1f}s",
    )


def test_criterion_8_optimal_redundancy():
    base = scenario(ber=3e-4, r=1, mss=512, fragments="fit")
    grid = sorted(set(np.geomspace(1e-3, 1.0, 31)) | {1e-3, 5e-3, 1e-1, 1.0})
    rows = sweep(SweepSpec(scenario=base, axis="alpha", grid=tuple(grid),
                           mss_list=(512,)))
    energy = {r["value"]: r["total_joules"] for r in rows}
    in_window = [v for a, v in energy.items()
                 if 5e-3 <= a <= 1e-1 and v is not None]
    best = min(in_window)
    ok = (
        best < energy[1e-3]
        and best < energy[1.0]
        and len({r["m"] for r in rows if "m" in r}) > 1  # stairstep fragmenting
    )
    assert report(
        8, ok,
        f"min {best:.2f} J inside alpha in [5e-3,1e-1] vs {energy[1e-3]:.0f} J "
        f"at 1e-3 and {energy[1.0]:.2f} J at 1",
    )


def test_criterion_9_determinism(three_cpus):
    # three whole blocks of the sampler and a partial one, on three faked
    # CPUs, so the 3-worker run is split across a 3-process pool
    cfg = three_blocks_and_a_part(scenario(mss=512), master_seed=SEED)
    serial_1 = simulate(cfg)
    serial_2 = simulate(cfg)
    parallel = simulate(replace(cfg, workers=3))
    records = [json.dumps(r.to_record(), sort_keys=True)
               for r in (serial_1, serial_2, parallel)]
    ok = records[0] == records[1] == records[2] and three_cpus == [3]
    assert report(9, ok, f"serial x2 and 3-worker runs byte-identical "
                         f"({cfg.replications} replications, pools {three_cpus})")
