"""Path and TCP-level model tests: multi-hop expectations, fragment rounds,
segment totals, energy mapping, degeneracy handling, and the batched core
against its scalar oracle."""

import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lln_energy import pathmodel
from lln_energy.config import RunConfig
from lln_energy.framing import FrameLayout, LayoutError, resolve_frames
from lln_energy.hopmodel import HopParams, hop_model
from lln_energy.pathmodel import (
    FIELDS,
    EnergyParams,
    PathScenario,
    fragment_failure_sum,
    segment_model,
    segment_models,
)

import scalar_oracle
from scalar_oracle import path_bits, path_success_prob

LAYOUT = FrameLayout(frag_header_bits=136)
CALIBRATION_DOC = Path(__file__).resolve().parents[1] / "docs" / "calibration.md"


# Oracles for the failed-fragment-round sum. The library keeps only its
# closed form, fragment_failure_sum.


def fragment_failure_raw(m, q_s, e_s, e_f):
    """Binomial summation of the unnormalized sum over rounds with k >= 1
    failed fragments: sum_k C(m,k) (k e_f + (m-k) e_s) (1-q_s)^k q_s^(m-k)."""
    if q_s >= 1.0:
        return 0.0
    if q_s <= 0.0:
        return m * e_f
    x = 1.0 - q_s
    return sum(
        math.comb(m, k) * x**k * q_s ** (m - k) * (k * e_f + (m - k) * e_s)
        for k in range(1, m + 1)
    )


def fragment_failure_bits(m, q_s, e_s, e_f):
    """Expected bits of one round of m fragments, given at least one failed.

    The summation normalized by P(>= 1 failure) = 1 - q_s^m; None
    (degenerate) when q_s is exactly 0 or 1.
    """
    if q_s <= 0.0 or q_s >= 1.0:
        return None
    return fragment_failure_raw(m, q_s, e_s, e_f) / -math.expm1(m * math.log(q_s))


def fragment_failure_bits_variant(m, q_s, e_s, e_f):
    """Published closed-form variant of the unnormalized sum.

    Uses m(1-q)e_f + m e_s q (1 - q^m): the trailing exponent is m where
    the exact summation gives m-1, and no conditioning normalization is
    applied. Kept so the deviation from the exact sum can be measured.
    """
    return m * (1.0 - q_s) * e_f + m * e_s * q_s * (1.0 - q_s**m)


def make_hop(f, h_s, h_f):
    """A hop row as ``hop_model`` returns it, with no partial failures."""
    return dict(f=f, h_s=h_s, h_f=h_f, p_fail=f, p_partial=0.0, p_succ=1.0 - f)


# TestPathSuccess and TestPathBits check the scalar oracle's path formulas
# on hand values; TestBatchedCore ties the library's batched core to them.


class TestPathSuccess:
    def test_perfect_hops(self):
        assert path_success_prob([0.0, 0.0, 0.0]) == 1.0

    def test_single_hop(self):
        assert path_success_prob([0.3]) == pytest.approx(0.7)

    def test_three_hop_product(self):
        assert path_success_prob([0.1, 0.2, 0.5]) == pytest.approx(0.36)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            path_success_prob([1.5])


class TestPathBits:
    def test_single_hop(self):
        e_s, e_f = path_bits([make_hop(0.25, 712.0, 2016.0)])
        assert e_s == 712.0
        assert e_f == 2016.0  # a single-hop loss burns all attempts on hop 1

    def test_lossless_failure_undefined(self):
        e_s, e_f = path_bits([make_hop(0.0, 712.0, 2016.0)] * 5)
        assert e_s == 5 * 712.0
        assert e_f is None

    def test_two_hop_hand_value(self):
        # f=(.5,.5), h_s=(10,10), h_f=(6,6): [6*.5 + 16*.25] / .75
        e_s, e_f = path_bits([make_hop(0.5, 10.0, 6.0)] * 2)
        assert e_s == 20.0
        assert e_f == pytest.approx(28.0 / 3.0, rel=1e-12)

    def test_dead_hop_short_circuits(self):
        dead = make_hop(1.0, None, 6.0)
        e_s, e_f = path_bits([make_hop(0.5, 10.0, 6.0), dead, make_hop(0.5, 10.0, 6.0)])
        assert e_s is None
        # failure happens on hop 1 w.p. .5, else surely on hop 2
        assert e_f == pytest.approx(6.0 * 0.5 + (10.0 + 6.0) * 0.5, rel=1e-12)


class TestFragmentFailure:
    def test_single_fragment_is_plain_failure(self):
        # normalized by P(the one fragment fails) = 0.5
        assert fragment_failure_sum(1, 0.5, 10.0, 20.0) / 0.5 == pytest.approx(20.0)
        assert fragment_failure_bits(1, 0.5, 10.0, 20.0) == pytest.approx(20.0)

    def test_two_fragment_hand_value(self):
        # normalized by P(>= 1 of 2 fails) = 0.75
        got = fragment_failure_sum(2, 0.5, 10.0, 20.0) / 0.75
        assert got == pytest.approx(100.0 / 3.0, rel=1e-12)
        oracle = fragment_failure_bits(2, 0.5, 10.0, 20.0)
        assert oracle == pytest.approx(got, rel=1e-12)

    @given(m=st.integers(1, 8), x=st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_binomial_mean_identity(self, m, x):
        # sum_k C(m,k) k x^k (1-x)^(m-k) == m x  (e_f=1, e_s=0 isolates it)
        raw = sum(
            math.comb(m, k) * k * x**k * (1 - x) ** (m - k) for k in range(1, m + 1)
        )
        assert raw == pytest.approx(m * x, rel=1e-10)

    @given(
        m=st.integers(1, 8),
        q=st.floats(1e-9, 1 - 1e-9),
        e_s=st.floats(1.0, 1e6),
        e_f=st.floats(1.0, 1e6),
    )
    @settings(max_examples=120, deadline=None)
    def test_sum_matches_closed_form(self, m, q, e_s, e_f):
        direct = fragment_failure_raw(m, q, e_s, e_f)
        closed = fragment_failure_sum(m, q, e_s, e_f)
        assert direct == pytest.approx(closed, rel=1e-12)

    def test_published_variant_is_not_the_exact_sum(self):
        # the variant replaces the exact m-1 exponent with m; it must match
        # its own definition and (for m >= 1, 0 < q < 1, e_s > 0) exceed the
        # exact unnormalized sum
        m, q, e_s, e_f = 4, 0.7, 10.0, 25.0
        variant = fragment_failure_bits_variant(m, q, e_s, e_f)
        assert variant == pytest.approx(
            m * (1 - q) * e_f + m * e_s * q * (1 - q**m), rel=1e-12
        )
        exact_raw = fragment_failure_sum(m, q, e_s, e_f)
        assert variant > exact_raw

    def test_degenerate_endpoints(self):
        # the sum is defined at both ends, without reading the undefined
        # expectation there; the conditional mean is not defined
        assert fragment_failure_sum(3, 0.0, math.nan, 2.0) == 6.0
        assert fragment_failure_sum(3, 1.0, 1.0, math.nan) == 0.0
        assert fragment_failure_bits(3, 0.0, 1.0, 2.0) is None
        assert fragment_failure_bits(3, 1.0, 1.0, 2.0) is None

    def test_calibration_ledger_table(self):
        """docs/calibration.md's failed-fragment-round table, recomputed.

        The exact column is segment_model's total; the variant column puts
        the published variant in place of the exact failed-fragment term of
        s_f, with every other term read from the same record.
        """
        text = CALIBRATION_DOC.read_text()
        section = text.split("## Failed-fragment-round composition")[1]
        section = section.split("\n## ")[0]
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("|") and line[1:].strip()[:1].isdigit()
        ]
        assert len(rows) == 4
        for mss, ber, _published, exact_cell, variant_cell in rows:
            cfg = RunConfig(mss_bytes=int(mss), ber=float(ber))
            rep = segment_model(cfg.scenario(), energy=cfg.energy())
            m, q = rep["m"], rep["q_s"]
            ack_term = (m * rep["e_s"] + rep["e_f_ack"]) * q**m * (1.0 - rep["q_s_ack"])
            frag_term = fragment_failure_bits_variant(m, q, rep["e_s"], rep["e_f"])
            s_f = (frag_term + ack_term) / (1.0 - rep["p_s"])
            s = s_f * (1.0 / rep["p_s"] - 1.0) + rep["s_s"]
            variant = cfg.energy().joules(rep["segments"] * s)
            assert f"{rep['total_joules']:.2f}" == exact_cell
            assert f"{variant:.2f}" == variant_cell


class TestSegmentModel:
    @pytest.mark.parametrize("make", [
        lambda h: RunConfig(hops=h, ber=1e-4).path(),
        lambda h: PathScenario(hops=(HopParams(1e-4),) * h, layout=LAYOUT, mss_bytes=64),
    ])
    def test_hop_count_is_bounded(self, make):
        for h, says in ((0, "at least one hop, got 0"),
                        (pathmodel.MAX_HOPS + 1, "at most 1024 hops, got 1025")):
            with pytest.raises(ValueError, match=says):
                make(h)
        make(1)
        make(pathmodel.MAX_HOPS)

    def test_zero_noise_closed_form(self):
        sc = PathScenario(hops=RunConfig(hops=5, ber=0.0).path(), layout=LAYOUT, mss_bytes=64)
        rep = segment_model(sc)
        assert rep["p_s"] == 1.0
        assert rep["s"] == 5 * (952 + 40) + 5 * (440 + 40) == 7360
        assert rep["segments"] == 800
        assert rep["total_bits"] == 5_888_000.0
        assert rep["total_joules"] == pytest.approx(5_888_000 * 0.66e-6, rel=1e-12)
        assert rep["flags"] == ""

    def test_total_decomposition(self):
        sc = PathScenario(hops=RunConfig(hops=5, ber=3e-4).path(), layout=LAYOUT, mss_bytes=512)
        rep = segment_model(sc)
        assert rep["s"] == pytest.approx(
            rep["s_f"] * (1.0 / rep["p_s"] - 1.0) + rep["s_s"], rel=1e-12
        )
        assert rep["s"] >= rep["s_s"]
        assert rep["total_bits"] == pytest.approx(rep["segments"] * rep["s"], rel=1e-12)

    @given(ber=st.floats(0.0, 3e-3), mss=st.sampled_from([64, 512]))
    @settings(max_examples=40, deadline=None)
    def test_cost_at_least_lossless(self, ber, mss):
        sc = PathScenario(hops=RunConfig(hops=5, ber=ber).path(), layout=LAYOUT, mss_bytes=mss)
        rep = segment_model(sc)
        if rep["s"] is not None:
            assert rep["s"] >= rep["s_s"] - 1e-9

    def test_hop_permutation_invariants(self):
        hops = (HopParams(1e-4, 3), HopParams(5e-4, 2), HopParams(3e-4, 4))
        a = segment_model(PathScenario(hops=hops, layout=LAYOUT, mss_bytes=512))
        b = segment_model(
            PathScenario(hops=hops[::-1], layout=LAYOUT, mss_bytes=512)
        )
        assert a["q_s"] == pytest.approx(b["q_s"], rel=1e-12)
        assert a["p_s"] == pytest.approx(b["p_s"], rel=1e-12)
        assert a["e_s"] == pytest.approx(b["e_s"], rel=1e-12)
        assert a["s_s"] == pytest.approx(b["s_s"], rel=1e-12)
        # e_f is direction-dependent by design; no assertion on it

    def test_energy_linear_and_argmin_invariant(self):
        sc64 = PathScenario(hops=RunConfig(hops=5, ber=4e-4).path(), layout=LAYOUT, mss_bytes=64)
        sc512 = replace(sc64, mss_bytes=512)
        base = EnergyParams()
        scaled = EnergyParams(tx_uj_per_bit=0.72, rx_uj_per_bit=0.63, n_neighbors=2)
        for sc in (sc64, sc512):
            e1 = segment_model(sc, energy=base)["total_joules"]
            e3 = segment_model(sc, energy=scaled)["total_joules"]
            assert e3 == pytest.approx(3 * e1, rel=1e-12)
        pick = lambda en: min(
            (64, 512),
            key=lambda m: segment_model(replace(sc64, mss_bytes=m), energy=en)["total_joules"],
        )
        assert pick(base) == pick(scaled)

    def test_divergent_scenario_flagged_not_infinite(self):
        dead = PathScenario(
            hops=(HopParams(0.5, 1),), layout=LAYOUT, mss_bytes=512
        )
        rep = segment_model(dead)
        if rep["p_s"] == 0.0:
            assert "diverges" in rep["flags"].split(";") and rep["total_bits"] is None
        else:
            assert rep["total_bits"] is not None and math.isfinite(rep["total_bits"])

    def test_fully_dead_hop(self):
        # an uncorrectable always-failing hop: explicit flags, no infinities
        sc = PathScenario(
            hops=(HopParams(0.99999999999999994, 1),), layout=LAYOUT, mss_bytes=64
        )
        rep = segment_model(sc)
        if rep["q_s"] == 0.0:
            assert "diverges" in rep["flags"].split(";")
            assert rep["total_bits"] is None and rep["total_joules"] is None
            assert rep["s_f"] is not None  # failed rounds still cost real bits

    def test_record_round_trip_fields(self):
        hops = RunConfig(hops=3, ber=1e-4, retries=2).path()
        sc = PathScenario(hops=hops, layout=LAYOUT, mss_bytes=64)
        rec = segment_model(sc)
        for key in ("q_s", "e_s", "i_f", "p_s", "s", "total_bits", "flags"):
            assert key in rec
        assert len(rec["f_data"]) == 3
        assert rec["ber"] == 1e-4 and rec["r"] == 2


class TestModelCaches:
    """No model function keeps results between calls: a call's records
    depend only on its arguments."""

    SCENARIOS = (
        # heterogeneous hops: each (ber, r) is its own hop key
        PathScenario(
            hops=(HopParams(1e-5, 3), HopParams(1e-3, 2), HopParams(3e-4, 3)),
            layout=LAYOUT, mss_bytes=512,
        ),
        PathScenario(
            hops=RunConfig(hops=3, ber=3e-4, retries=1).path(),
            layout=FrameLayout(alpha=0.1, fragments="fit"), mss_bytes=512,
        ),
        # a hop that cannot deliver: h_s None, flagged degenerate
        PathScenario(
            hops=(HopParams(1e-4, 3), HopParams(0.99999999999999994, 1)),
            layout=LAYOUT, mss_bytes=64,
        ),
    )

    def test_cold_warm_and_uncached_records_equal(self):
        # first calls, the same calls again after a batch that shares their
        # hop keys, and the scalar oracle, which evaluates every hop afresh
        cold = [segment_model(sc) for sc in self.SCENARIOS]
        segment_models(self.SCENARIOS[1], ber=[3e-4, 1e-5], mss=[512, 64])
        warm = [segment_model(sc) for sc in self.SCENARIOS]
        uncached = [scalar_oracle.segment_model(sc) for sc in self.SCENARIOS]
        assert cold == warm == uncached
        assert "degenerate_hop" in cold[2]["flags"]

    def test_caches_are_bounded(self):
        # bounded by having none: no function of the package memoizes
        for fn in (hop_model, resolve_frames, segment_model):
            assert not hasattr(fn, "cache_info")
        package = Path(pathmodel.__file__).parent
        assert not [path.name for path in package.glob("*.py")
                    if "lru_cache" in path.read_text()]


# Strategies for the batched core's property test: BER over [0, 0.5] with
# log-spread small values, attempt limits 1-7, alpha up to values that
# "fit" fragmenting cannot lay out, and every fragment mode.
BERS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.5),
    st.floats(-9.0, math.log10(0.5)).map(lambda x: 10.0**x),
)
HOPS = st.builds(HopParams, ber=BERS, r=st.integers(1, 7))
PATHS = st.one_of(
    st.tuples(HOPS, st.integers(1, 9)).map(lambda hop_h: (hop_h[0],) * hop_h[1]),
    st.lists(HOPS, min_size=1, max_size=9).map(tuple),
)
ALPHAS = st.one_of(st.sampled_from([0.0, 1e-3, 1e-2, 0.1, 0.5, 2.0]), st.floats(0.0, 3.0))
LAYOUTS = st.builds(
    FrameLayout,
    alpha=ALPHAS,
    fragments=st.one_of(st.sampled_from(["auto", "fit"]), st.integers(1, 16)),
)
SCENARIOS = st.builds(
    PathScenario,
    hops=PATHS,
    layout=LAYOUTS,
    mss_bytes=st.integers(1, 1024),
    transfer_bytes=st.sampled_from([1, 51200, 10**6]),
)
COLUMN_VALUES = {
    "ber": BERS, "r": st.integers(1, 7), "h": st.integers(1, 9), "alpha": ALPHAS,
    "mss": st.integers(1, 1024),
}


@st.composite
def core_calls(draw):
    """A base scenario and 1-4 points of some of the columns; a call with
    an ``h`` column repeats the base's first hop."""
    base = draw(SCENARIOS)
    names = draw(st.sets(st.sampled_from(sorted(COLUMN_VALUES))))
    n = draw(st.integers(1, 4))
    if "h" in names:
        base = replace(base, hops=base.hops[:1])
    columns = {name: draw(st.lists(COLUMN_VALUES[name], min_size=n, max_size=n))
               for name in names}
    return base, columns


def records(batch) -> list[dict]:
    """The batch's records, per-hop lists included, a dict per point."""
    columns = batch.record_columns(per_hop=True)
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


class TestBatchedCore:
    """``segment_models`` equals the scalar oracle field for field, with ==."""

    @given(
        call=core_calls(),
        energy=st.builds(
            EnergyParams,
            tx_uj_per_bit=st.floats(0.0, 1.0),
            rx_uj_per_bit=st.floats(0.0, 1.0),
            n_neighbors=st.floats(0.0, 4.0),
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_field_equals_the_scalar_oracle(self, call, energy):
        # an h column gives one call paths of different lengths, so shorter
        # ones are padded
        base, columns = call
        batch = segment_models(base, energy, **columns)
        got = records(batch)
        for i in range(len(batch.errors)):
            sc = scalar_oracle.point_scenario(base, columns, i)
            try:
                want = scalar_oracle.segment_model(sc, energy)
            except LayoutError as exc:
                assert str(batch.errors[i]) == str(exc)
                assert set(got[i].values()) == {None}
                with pytest.raises(LayoutError):
                    segment_model(sc, energy)
                continue
            assert got[i] == want
            assert repr(got[i]) == repr(want)  # also tells -0.0 from 0.0

    def test_dense_seeded_grid_equals_the_scalar_oracle(self):
        # 600 seeded points in twelve calls of 50. A last-bit drift (numpy's
        # vectorized power, log or expm1 in place of libm's, or another
        # operation order) shows on a few rows in a thousand, too rarely
        # for the property test's examples to catch every time. A call's
        # base fixes the fragment mode. A base of one repeated hop takes
        # every column; one whose hops differ takes alpha, MSS and at most
        # one of ber and r, so its hops still differ. Alpha 2.0 cannot be
        # laid out by "fit", so those calls hold layout errors.
        rng = random.Random(7)
        draw = {
            "ber": lambda: 10 ** rng.uniform(-8, math.log10(0.5)),
            "r": lambda: rng.randint(1, 7),
            "h": lambda: rng.randint(1, 9),
            "alpha": lambda: rng.choice([0.0, 1e-3, 1e-2, 0.1, 2.0, rng.uniform(0.0, 1.0)]),
            "mss": lambda: rng.randint(1, 1024),
        }
        calls = (("ber", "r", "h", "alpha", "mss"), ("alpha", "mss"),
                 ("r", "alpha", "mss"), ("ber", "alpha", "mss"))
        errors = 0
        for k in range(12):
            names = calls[k % 4]
            hops = [HopParams(draw["ber"](), draw["r"]()) for _ in range(rng.randint(2, 9))]
            fragments = ("auto", "fit", rng.randint(1, 12))[k % 3]
            base = PathScenario(hops[:1] if "h" in names else hops,
                                FrameLayout(fragments=fragments), 512)
            columns = {name: [draw[name]() for _ in range(50)] for name in names}
            batch = segment_models(base, **columns)
            got = records(batch)
            for i in range(50):
                sc = scalar_oracle.point_scenario(base, columns, i)
                try:
                    want = scalar_oracle.segment_model(sc)
                except LayoutError as exc:
                    assert str(batch.errors[i]) == str(exc)
                    errors += 1
                    continue
                assert got[i] == want, sc
        assert errors > 0

    @pytest.mark.parametrize("ber, h, mss, flags", [
        (0.05, 1, 64, ("degenerate_hop", "diverges")),  # p_fail rounds to 1
        (0.011343, 9, 512, ("diverges",)),  # finite p_s, total past the float range
        (0.0, 3, 64, ()),  # lossless: e_f, s_f and i_f undefined
    ])
    def test_edge_rows_equal_the_scalar_oracle(self, ber, h, mss, flags):
        hops = RunConfig(hops=h, ber=ber, retries=1).path()
        sc = PathScenario(hops=hops, layout=LAYOUT, mss_bytes=mss)
        got = segment_model(sc)
        assert got == scalar_oracle.segment_model(sc)
        assert got["flags"] == ";".join(flags)

    def test_layout_errors_keep_their_slots(self):
        base = PathScenario(RunConfig(hops=2, ber=1e-4).path(), FrameLayout(fragments="fit"), 64)
        hs = [1, 2, 3, 4, 5, 2, 6, 7, 8, 9]
        columns = {"h": hs, "ber": [1e-4 * h for h in hs], "r": [3] * 10,
                   "alpha": [0.0] * 5 + [5.0] + [0.0] * 4}
        batch = segment_models(base, **columns)
        assert isinstance(batch.errors[5], LayoutError)
        assert batch.column("total_bits")[5] is None
        assert batch.column("q_s")[5] is None and batch.column("m")[5] is None
        got = records(batch)
        assert got[5]["f_data"] is None and got[5]["h_s_ack"] is None
        good = (*range(5), *range(6, 10))
        assert [got[i] for i in good] == [
            scalar_oracle.segment_model(scalar_oracle.point_scenario(base, columns, i))
            for i in good
        ]
        assert segment_models(base, ber=[]).column("total_bits") == []

    def test_an_all_errored_batch_reads_none(self):
        bad = PathScenario(
            hops=RunConfig(hops=2, ber=1e-4).path(), layout=FrameLayout(alpha=5.0, fragments="fit"),
            mss_bytes=64,
        )
        batch = segment_models(bad, mss=[64, 512])
        assert all(isinstance(err, LayoutError) for err in batch.errors)
        assert list(batch.columns) == list(FIELDS)
        for name in batch.columns:
            assert batch.column(name) == [None, None], name
        assert all(column == [None, None]
                   for column in batch.record_columns(per_hop=True).values())
        for mss in (64, 512):
            with pytest.raises(LayoutError):
                segment_model(replace(bad, mss_bytes=mss))

    @pytest.mark.parametrize("base, columns", [
        # h = 1..9 over repeated stems (ber, r, alpha, mss), a stem whose
        # alpha "fit" cannot lay out, and a dead hop (ber 0.05, r 1)
        (PathScenario(RunConfig(hops=1, ber=3e-4).path(), FrameLayout(fragments="fit"), 64), {
            "h": [9, 1, 5, 2, 9, 3, 4, 7, 6, 8, 1, 5, 2],
            "ber": [3e-4, 3e-4, 3e-4, 0.05, 1e-5, 3e-4, 3e-4, 3e-4, 3e-4, 3e-4, 3e-4, 3e-4, 3e-4],
            "r": [3, 3, 3, 1, 3, 3, 3, 3, 3, 3, 3, 3, 3],
            "alpha": [0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.1, 0.0, 0.0],
            "mss": [512, 512, 512, 64, 512, 64, 512, 512, 64, 512, 512, 512, 64],
        }),
        # a hop_bers path: no h column, each point its own stem and path
        (RunConfig(hops=9, hop_bers=(1e-5, 3e-5, 1e-4, 2e-4, 3e-4, 5e-4, 1e-4, 3e-5, 1e-5),
                   fragments="fit").scenario(), {
            "alpha": [0.0, 5.0, 0.0, 0.1, 0.0],
            "mss": [512, 64, 512, 64, 16],
        }),
    ])
    def test_stems_and_path_snapshots_equal_one_call_per_point(self, base, columns):
        # one call shares each stem's frames and hop keys between its hop
        # counts and walks each distinct path once, each point reading the
        # snapshot after its own h; its records, per-hop lists included,
        # equal those of a call per point and the scalar oracle's
        batch = segment_models(base, **columns)
        got = records(batch)
        errors = 0
        for i, row in enumerate(got):
            (alone,) = records(segment_models(
                base, **{name: values[i:i + 1] for name, values in columns.items()}))
            assert row == alone
            sc = scalar_oracle.point_scenario(base, columns, i)
            try:
                want = scalar_oracle.segment_model(sc)
            except LayoutError as exc:
                assert str(batch.errors[i]) == str(exc)
                assert set(row.values()) == {None}
                errors += 1
                continue
            assert row == want
        assert errors == columns["alpha"].count(5.0)
        empty = segment_models(base, **{name: [] for name in columns})
        assert empty.errors == []
        assert empty.record_columns(per_hop=True) == dict.fromkeys(got[0], [])

    @pytest.mark.parametrize("transfer_bytes", [51200, 10**23])
    def test_frame_fields_read_as_python_ints(self, transfer_bytes):
        # m, the bit counts and segments are int64 columns (Python ints past
        # int64: 10**23 bytes at MSS 1) gathered per point from the stems;
        # they read as Python ints, None at an errored point, and a row
        # slice reads the same values as the whole batch, per-hop lists too
        base = PathScenario(RunConfig(hops=1, ber=3e-4).path(), FrameLayout(fragments="fit"), 64,
                            transfer_bytes)
        columns = {"h": [5, 1, 5, 3], "alpha": [0.0, 5.0, 0.1, 0.0], "mss": [1, 64, 512, 1]}
        batch = segment_models(base, **columns)
        got = batch.record_columns(per_hop=True)
        frame_fields = ("m", "d_data_bits", "c_data_bits", "d_ack_bits", "c_ack_bits",
                        "segments")
        for name in frame_fields:
            assert got[name][1] is None, name
            assert all(type(got[name][i]) is int for i in (0, 2, 3)), name
        assert got["segments"] == [-(-transfer_bytes // 1), None,
                                   -(-transfer_bytes // 512), -(-transfer_bytes // 1)]
        assert batch.record_columns(per_hop=True, rows=slice(1, 3)) == {
            name: values[1:3] for name, values in got.items()}
        assert records(batch)[0] == scalar_oracle.segment_model(
            scalar_oracle.point_scenario(base, columns, 0))

    def test_flags_are_codes_joined_when_read(self):
        # the edge rows' flags, and a layout error: alpha 1e308 codes
        # frames past 2**53 bits
        base = PathScenario(RunConfig(hops=1, ber=1e-4).path(), LAYOUT, 64)
        batch = segment_models(base, h=[1, 1, 9, 1], ber=[0.05, 1e-4, 0.011343, 1e-4],
                               r=[1, 3, 1, 3], alpha=[0.0, 0.0, 0.0, 1e308],
                               mss=[64, 64, 512, 64])
        assert batch.columns["flags"].tolist() == [3, 0, 2, -1]
        assert batch.column("flags") == ["degenerate_hop;diverges", "", "diverges", None]

    def test_a_ber_column_makes_a_hop_bers_path_one_hop_repeated(self):
        # a BER column sets every hop's BER, so an h column over a hop_bers
        # path reads copies of its first hop, per-hop lists included; the
        # h column alone still needs hops that agree in BER
        het = RunConfig(hops=3, hop_bers=(1e-4, 3e-4, 5e-4)).scenario()
        columns = {"ber": [1e-5, 1e-4, 4e-4, 4e-4, 0.05], "h": [1, 3, 5, 2, 9],
                   "mss": [64, 512, 64, 512, 64]}
        one = replace(het, hops=het.hops[:1])
        assert records(segment_models(het, **columns)) == records(segment_models(one, **columns))
        with pytest.raises(ValueError, match="homogeneous"):
            segment_models(het, h=[1, 3])

    def test_columns_must_have_one_length(self):
        base = PathScenario(RunConfig(hops=2, ber=1e-4).path(), LAYOUT, 64)
        with pytest.raises(ValueError, match="one length"):
            segment_models(base, ber=[1e-4, 1e-3], mss=[64])
