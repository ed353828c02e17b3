"""One-hop model tests: binomial tail, attempt outcomes, ARQ expectations.

Frozen reference values were computed with mpmath at 50 decimal digits
(see oracle helpers below); the ARQ expectation is checked against a
brute-force enumeration of every attempt sequence, which knows nothing
about the closed form, and against the binomial double sum over attempt
classes, evaluated with mpmath at 50 digits. The array hop layer equals
the scalar transcription in ``scalar_oracle`` with ``==``.
"""

import itertools
import math
import random
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lln_energy.hopmodel import (
    MAX_RETRIES,
    HopParams,
    attempt_probs,
    expected_success_bits,
    frame_error_prob,
    hop_model,
    hop_model_array,
)

import scalar_oracle


def enum_success_bits(pf, pp, r, d, a):
    """Brute-force E[bits | data delivered] over all attempt sequences.

    Attempts stop at the first success or after r tries; delivery means at
    least one partial or success. Every attempt sends d bits; every
    attempt whose data arrived triggers an a-bit link ACK.
    """
    ps = 1.0 - pf - pp
    total = 0.0
    p_delivered = 0.0
    for seq in itertools.product("FP", repeat=r):  # no outright success
        p = math.prod(pf if c == "F" else pp for c in seq)
        arrived = seq.count("P")
        if arrived == 0:
            continue
        total += p * (r * d + arrived * a)
        p_delivered += p
    for k in range(1, r + 1):  # first success at attempt k
        for seq in itertools.product("FP", repeat=k - 1):
            p = math.prod(pf if c == "F" else pp for c in seq) * ps
            arrived = seq.count("P") + 1
            total += p * (k * d + arrived * a)
            p_delivered += p
    return total / p_delivered


def mp_success_bits(pf, pp, ps, r, d, a):
    """E[bits | data delivered] as the O(r^2) double sum over attempt classes,
    at 50 digits on the given float probabilities.

    Either no attempt succeeded outright and i >= 1 of the r were partial,
    or attempt k was the first success after i partials; C(r, i) and
    C(k-1, i) count the orders. The library sums the same classes in one
    pass over k, with no binomial coefficients.
    """
    with mpmath.workdps(50):
        pp_pow = [mpmath.mpf(pp) ** i for i in range(r + 1)]
        pf_pow = [mpmath.mpf(pf) ** i for i in range(r + 1)]
        no_succ = mpmath.fdot(
            (math.comb(r, i) * (r * d + i * a) * pp_pow[i], pf_pow[r - i])
            for i in range(1, r + 1)
        )
        with_succ = mpmath.fdot(
            (math.comb(k - 1, i) * (k * d + (i + 1) * a) * pp_pow[i], pf_pow[k - 1 - i])
            for k in range(1, r + 1)
            for i in range(k)
        )
        return (no_succ + mpmath.mpf(ps) * with_succ) / (1 - pf_pow[r])


class TestFrameErrorProb:
    def test_no_errors_possible(self):
        assert frame_error_prob(952, 0, 0.0) == 0.0

    def test_everything_correctable(self):
        assert frame_error_prob(10, 10, 0.5) == 0.0

    def test_uncoded_frame_reference(self):
        # 1 - (1-3e-4)^952 evaluated with mpmath (50 digits)
        assert frame_error_prob(952, 0, 3e-4) == pytest.approx(
            0.2484690216153075, rel=1e-13
        )

    def test_single_correction_hand_sum(self):
        # 1 - (0.9^8 + 8*0.1*0.9^7), exact decimal arithmetic
        assert frame_error_prob(8, 1, 0.1) == pytest.approx(0.18689527, rel=1e-12)

    def test_matches_scipy_tail(self):
        binom = pytest.importorskip("scipy.stats").binom
        for d, c, b in [
            (952, 0, 3e-4),
            (1016, 12, 1e-3),
            (2000, 40, 5e-2),
            (672, 3, 1e-6),
            (441, 2, 0.4),
            (2000, 900, 0.5),
        ]:
            assert frame_error_prob(d, c, b) == pytest.approx(
                float(binom.sf(c, d, b)), rel=1e-9, abs=1e-300
            )

    def test_tiny_tail_keeps_precision(self):
        # P(X > 40) for X ~ Bin(1016, 1e-4): far below double-rounding of 1-CDF
        binom = pytest.importorskip("scipy.stats").binom
        p = frame_error_prob(1016, 40, 1e-4)
        assert 0 < p < 1e-60
        assert p == pytest.approx(float(binom.sf(40, 1016, 1e-4)), rel=1e-6)

    @given(
        d=st.integers(1, 3000),
        c=st.integers(0, 100),
        b=st.floats(1e-9, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_frame_size_and_correction(self, d, c, b):
        c = min(c, d)
        p = frame_error_prob(d, c, b)
        assert 0.0 <= p <= 1.0
        assert frame_error_prob(d + 37, c, b) >= p - 1e-12
        if c >= 1:
            assert frame_error_prob(d, c - 1, b) >= p - 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            frame_error_prob(0, 0, 0.1)
        with pytest.raises(ValueError):
            frame_error_prob(10, 11, 0.1)
        with pytest.raises(ValueError):
            frame_error_prob(10, 0, 1.0)
        # every scalar name refuses a fractional bit count or attempt limit
        # rather than truncate it, and a frame past the model's 2**53 bits
        # rather than answer for it or overflow int64
        hop, probs, bound = HopParams(3e-4, 3), (0.2, 0.1, 0.7), "in [0, 9007199254740992]"
        for call, says in [
            (lambda: frame_error_prob(952.7, 0, 3e-4),
             f"d_bits must be an integer {bound}, got 952.7"),
            (lambda: frame_error_prob(952, 0.5, 3e-4), "c_bits must be an integer"),
            (lambda: attempt_probs(952, 0, 40.5, 3e-4), "a_bits must be an integer"),
            (lambda: hop_model(952, 1.5, 40, hop), "c_bits must be an integer"),
            (lambda: expected_success_bits(probs, 2.5, 952, 40), "r must be an integer"),
            (lambda: expected_success_bits(probs, 3, 952, 40.0), "a_bits must be an integer"),
            (lambda: expected_success_bits(probs, 0, 952, 40), "r must be >= 1, got 0"),
            (lambda: frame_error_prob(2**60, 0, 3e-4), f"{bound}, got {2**60}"),
            (lambda: attempt_probs(952, 0, 2**64, 3e-4), f"a_bits must be an integer {bound}"),
            (lambda: hop_model(2**53 + 1, 0, 40, hop), f"{bound}, got {2**53 + 1}"),
            (lambda: expected_success_bits(probs, 3, 2**63, 40),
             f"d_bits must be an integer {bound}"),
            (lambda: frame_error_prob(-2**64, 0, 3e-4), f"{bound}, got {-2**64}"),
        ]:
            with pytest.raises(ValueError, match=re.escape(says)):
                call()
        assert 0.0 < frame_error_prob(2**53, 0, 1e-17) < 1.0  # the largest frame is taken


class TestAttemptProbs:
    def test_noiseless(self):
        assert attempt_probs(952, 0, 40, 0.0) == (0.0, 0.0, 1.0)

    def test_fully_correctable_data(self):
        p_fail, p_partial, p_succ = attempt_probs(100, 100, 40, 0.01)
        assert p_fail == 0.0
        assert p_partial == pytest.approx(1 - 0.99**40, rel=1e-12)
        assert p_succ == pytest.approx(0.99**40, rel=1e-12)

    def test_reference_frame(self):
        # mpmath (50 digits) on the 952/40-bit frame pair at B = 3e-4
        p_fail, p_partial, p_succ = attempt_probs(952, 0, 40, 3e-4)
        assert p_fail == pytest.approx(0.2484690216153075, rel=1e-13)
        assert p_partial == pytest.approx(0.008965814189209495, rel=1e-12)
        assert p_succ == pytest.approx(0.7425651641954830, rel=1e-12)

    @given(
        d=st.integers(1, 2000),
        c=st.integers(0, 50),
        a=st.integers(1, 200),
        b=st.floats(0.0, 0.9),
    )
    @settings(max_examples=80, deadline=None)
    def test_closure(self, d, c, a, b):
        c = min(c, d)
        p = attempt_probs(d, c, a, b)
        assert sum(p) == pytest.approx(1.0, abs=1e-12)
        for v in p:
            assert 0.0 <= v <= 1.0


class TestHopModel:
    def test_noiseless_single_attempt_suffices(self):
        hm = hop_model(952, 0, 40, HopParams(ber=0.0, r=3))
        assert hm["f"] == 0.0
        assert hm["h_s"] == 992.0
        assert hm["h_f"] == 3 * 952.0

    def test_single_attempt_always_costs_one_exchange(self):
        # r=1 and delivery implies exactly one data frame and one ACK
        # (ber kept where (1-ber)^500 is still representable > eps)
        for ber in (1e-4, 0.01, 0.05):
            hm = hop_model(500, 0, 40, HopParams(ber=ber, r=1))
            assert hm["h_s"] == pytest.approx(540.0, rel=1e-12)

    def test_practically_dead_hop_is_degenerate(self):
        # delivery probability ~5.7e-78 rounds p_fail to exactly 1.0
        hm = hop_model(500, 0, 40, HopParams(ber=0.3, r=1))
        assert hm["p_fail"] == 1.0
        assert hm["h_s"] is None

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_enumeration(self, r):
        d, a = 672, 40
        grid = [0.05, 0.2, 0.4, 0.6, 0.8]
        for pf in grid:
            for pp in grid:
                if pf + pp >= 1.0:
                    continue
                got = expected_success_bits((pf, pp, 1.0 - pf - pp), r, d, a)
                want = enum_success_bits(pf, pp, r, d, a)
                assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 7, 16, 64, 150])
    def test_matches_the_binomial_double_sum(self, r):
        d, a = 952, 40
        for pf in (0.0, 1e-9, 0.05, 0.4, 0.8):
            for pp in (0.0, 1e-9, 0.05, 0.15, 0.5):
                if pf + pp >= 1.0:
                    continue
                ps = 1.0 - pf - pp
                got = expected_success_bits((pf, pp, ps), r, d, a)
                want = mp_success_bits(pf, pp, ps, r, d, a)
                assert abs(got - want) <= 1e-13 * want

    def test_attempts_past_any_chance_of_use_change_nothing(self):
        # at B = 3e-4 an attempt fails with ~0.26, so the terms of attempts
        # past 200 are below 1e-110 of the total
        short = hop_model(952, 0, 40, HopParams(3e-4, 200))["h_s"]
        longest = hop_model(952, 0, 40, HopParams(3e-4, 1029))["h_s"]
        assert longest == pytest.approx(short, rel=1e-12)

    @given(
        d=st.integers(1, 2000),
        a=st.integers(1, 100),
        ber=st.floats(0.0, 0.2),
        r=st.integers(1, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_success_bits_bounds(self, d, a, ber, r):
        h_s = hop_model(d, 0, a, HopParams(ber=ber, r=r))["h_s"]
        if h_s is not None:
            assert d <= h_s <= r * (d + a) + 1e-9

    def test_failure_prob_decreases_with_attempts(self):
        prev = None
        for r in range(1, 8):
            hm = hop_model(952, 0, 40, HopParams(ber=3e-4, r=r))
            if prev is not None:
                assert hm["f"] < prev
                assert hm["h_f"] > (r - 1) * 952 - 1e-9
            prev = hm["f"]

    def test_degenerate_hop_flagged(self):
        # c = 0 and ber so high every frame is corrupt beyond repair
        hm = hop_model(4, 0, 1, HopParams(ber=0.999999999999999, r=2))
        # unless platform rounding kept p_fail barely below 1
        assert (hm["h_s"] is None) == (hm["p_fail"] == 1.0)

    def test_rejects_bad_hop_params(self):
        with pytest.raises(ValueError):
            HopParams(ber=1.0, r=3)
        with pytest.raises(ValueError):
            HopParams(ber=0.1, r=0)
        # a float r would compare equal to, yet differ in type from, the int it equals
        for r in (3.0, 2.5):
            with pytest.raises(ValueError, match="r must be an integer"):
                HopParams(ber=1e-3, r=r)
        hp = HopParams(ber=1e-3, r=np.int64(3))
        assert hp == HopParams(ber=1e-3, r=3) and type(hp.r) is int

    def test_attempt_limit_past_max_retries_is_refused(self):
        assert MAX_RETRIES == 1029
        assert HopParams(ber=3e-4, r=1029).r == 1029
        with pytest.raises(ValueError, match="r must be <= 1029, got 1030"):
            HopParams(ber=3e-4, r=1030)


def assert_equals_the_scalar_oracle(keys):
    """``hop_model_array`` over ``keys`` (d, c, a, ber, r) equals the scalar
    oracle key by key, row i as ``hop_model``'s dict (h_s None where NaN),
    field by field, with ==; the scalar names do too."""
    d, c, a, ber, r = (list(col) for col in zip(*keys))
    hops = hop_model_array(d, c, a, ber, r)
    for i, (dd, cc, aa, b, rr) in enumerate(keys):
        want = scalar_oracle.hop_model(dd, cc, aa, HopParams(b, rr))
        row = {name: x.item(i) for name, x in hops._asdict().items()}
        assert row | {"h_s": None if math.isnan(row["h_s"]) else row["h_s"]} == want, keys[i]
        assert hop_model(dd, cc, aa, HopParams(b, rr)) == want
        probs = (want["p_fail"], want["p_partial"], want["p_succ"])
        assert want["p_fail"] == frame_error_prob(dd, cc, b)
        assert attempt_probs(dd, cc, aa, b) == probs
        assert want["h_s"] == expected_success_bits(probs, rr, dd, aa)


class TestArrayHopLayer:
    """``hop_model_array``, the hop layer's one array entry, against the
    scalar transcription it replaced."""

    @given(
        keys=st.lists(
            st.tuples(
                st.integers(1, 4000),
                st.floats(0.0, 1.0),
                st.integers(1, 300),
                st.one_of(
                    st.just(0.0),
                    st.floats(0.0, 0.999),
                    st.floats(-12.0, -0.01).map(lambda x: 10.0**x),
                ),
                st.one_of(st.integers(1, 8), st.integers(1, 1029)),
            ).map(lambda k: (k[0], round(k[1] * k[0]), *k[2:])),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_scalar_oracle(self, keys):
        assert_equals_the_scalar_oracle(keys)

    def test_dense_seeded_grid_equals_the_scalar_oracle(self):
        # both tails (c < d*ber sums the lower one), sums past 1e250 that
        # rescale once or many times, BER 0, c = d, r up to 1029, frames
        # near 2**53 bits (whose r*d passes int64), and products past 2**53
        rng = random.Random(14)
        keys = [(d, c, 40, ber, r)
                for d in (1, 7, 952, 1048, 5192)
                for c in sorted({0, 1, 48, d // 4, d})
                if c <= d
                for ber in (0.0, 1e-9, 3e-4, 0.05, 0.3, 0.6, 0.999)
                for r in (1, 3, 7)]
        keys += [  # long lower tails: 1e250 rescales, a chunk of rows at once
            (3000, 600, 40, 0.5, 3), (20000, 5000, 40, 0.6, 1), (9000, 2000, 5, 0.45, 2),
            (4001, 1999, 40, 0.9, 7), (1500, 10, 40, 0.2, 1029),
        ]
        # lower tails just below the mean, rescaled several times and summing
        # to a probability near 1/2, whose every bit shows in p_fail
        keys += [(d, int(d * ber) - j, 40, ber, 3)
                 for d in (2000, 3001, 5000, 8000) for ber in (0.3, 0.5, 0.7, 0.9)
                 for j in (1, 4, 17)]
        keys += [(2**53 - rng.randrange(100), c, a, ber, r)
                 for c, a, ber, r in ((0, 40, 1e-16, 1029), (3, 40, 1e-17, 1029),
                                      (0, 1, 3e-16, 1), (2, 2**40, 1e-18, 7))]
        keys += [(2**50 + rng.randrange(1000), 0, 40, 1e-15, 100) for _ in range(3)]
        keys += [(rng.randrange(1, 3000), rng.randrange(0, 200), rng.randrange(1, 100),
                  rng.choice([0.0, 10 ** rng.uniform(-9, -0.01), rng.uniform(0, 0.99)]),
                  rng.choice([1, 2, 3, rng.randrange(1, 1030)]))
                 for _ in range(300)]
        keys = [(d, min(c, d), a, ber, r) for d, c, a, ber, r in keys]
        assert any(c < d * ber for d, c, _, ber, _ in keys)
        assert any(0 < c and c >= d * ber for d, c, _, ber, _ in keys)
        assert_equals_the_scalar_oracle(keys)
        rng.shuffle(keys)  # a key's result does not depend on its neighbours
        assert_equals_the_scalar_oracle(keys)

    def test_long_tail_rescales_and_matches(self):
        # a lower tail of 20 000 terms rescales its sum past 1e250 dozens of
        # times; one row alone and beside short rows gives the same bits
        d, c, ber = 60000, 20000, 0.5
        want = scalar_oracle.frame_error_prob(d, c, ber)
        assert frame_error_prob(d, c, ber) == want
        got = hop_model_array([d, 952, 1048], [c, 0, 48], 40, [ber, 3e-4, 3e-4], 3).p_fail
        assert got[0] == want
        assert got[2] == scalar_oracle.frame_error_prob(1048, 48, 3e-4)

    def test_empty_columns(self):
        hops = hop_model_array([], [], 40, [], [])
        assert all(len(x) == 0 for x in hops)

    def test_rows_keep_their_recorded_values(self):
        # every field of three keys, bit for bit as recorded when a row was
        # still read through per-key objects: an uncoded frame, a coded one
        # and one that can never deliver (h_s NaN)
        hops = hop_model_array([952, 1048, 500], [0, 48, 0], 40, [3e-4, 3e-4, 0.3], [3, 3, 1])
        want = {
            "f": [0.015339695885528653, 8.12485564895612e-265, 1.0],
            "h_s": [1275.7208561653988, 1101.1347630363123, math.nan],
            "h_f": [2856.0, 3144.0, 500.0],
            "p_fail": [0.24846902161530748, 9.331222631010035e-89, 1.0],
            "p_partial": [0.0089658141892095, 0.011930066021337171, 0.0],
            "p_succ": [0.742565164195483, 0.9880699339786628, 0.0],
        }
        assert list(want) == list(hops._fields)
        for name, values in want.items():
            np.testing.assert_array_equal(getattr(hops, name), values, err_msg=name)
