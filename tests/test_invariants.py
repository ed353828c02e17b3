"""Reference-free invariants: facts any correct model satisfies, whatever
its arithmetic, checked over the whole valid domain (BER in [0, 0.5], any
h, r, alpha, MSS, fragment mode and ``hop_bers`` path), and a ratchet on
the rows that have no total."""

import math
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from lln_energy.config import RunConfig
from lln_energy.pathmodel import segment_models

#: The slack of "does not fall": the model's rounding can order the totals
#: of two adjacent BER doubles the wrong way, by up to 1e-13 relative where
#: an FEC tail is summed
REL = 1e-12
#: The rows with no ``total_bits`` on ``DESIGN``; a fix of a false
#: divergence lowers it in the same change, and it never rises
NO_TOTAL = 65

bers = st.one_of(st.just(0.0), st.floats(0.0, 0.5),
                 st.floats(-12.0, math.log10(0.5)).map(lambda x: 10.0**x))


@st.composite
def configs(draw) -> RunConfig:
    h = draw(st.integers(1, 9))
    return RunConfig(
        hops=h, ber=draw(bers), retries=draw(st.integers(1, 7)),
        hop_bers=draw(st.none() | st.lists(bers, min_size=h, max_size=h).map(tuple)),
        mss_bytes=draw(st.integers(1, 1280)),
        alpha=draw(st.just(0.0) | st.floats(0.0, 0.5)),
        fragments=draw(st.sampled_from(["auto", "fit"]) | st.integers(1, 4)),
    )


def totals(cfg: RunConfig, **columns) -> list[float | None]:
    """The scenario's ``total_bits`` at each point ``columns`` give, after
    checking each hop of the call: ``f`` and the attempt probabilities lie
    in [0, 1], and the three attempt probabilities sum to 1."""
    batch = segment_models(cfg.scenario(), **columns)
    hops = batch.hops
    for x in (hops.f, hops.p_fail, hops.p_partial, hops.p_succ):
        assert ((0.0 <= x) & (x <= 1.0)).all()
    assert (abs(hops.p_fail + hops.p_partial + hops.p_succ - 1.0) <= 4 * 2**-53).all()
    return batch.column("total_bits")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=configs(), worse=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
def test_cost_does_not_fall_as_a_link_gets_worse_or_a_hop_is_added(cfg, worse):
    # every hop's BER moves a drawn share of the way to 0.5
    raised = tuple(b + w * (0.5 - b) for b, w in zip(cfg.hop_bers or [cfg.ber], worse))
    if cfg.hop_bers is None:  # one call: the point, at BER 0, worse, one hop longer
        h = cfg.hops
        now, lossless, later, longer = totals(cfg, ber=[cfg.ber, 0.0, raised[0], cfg.ber],
                                              h=[h, h, h, h + 1])
    else:
        (now,), (lossless,) = totals(cfg), totals(cfg, ber=[0.0])
        (later,), longer = totals(replace(cfg, hop_bers=raised)), None
    if now is None:  # no total, or frames that cannot be laid out
        return
    assert now >= lossless * (1 - REL)
    assert later is None or later >= now * (1 - REL)
    assert longer is None or longer >= now * (1 - REL)


#: 400 points: BER log-uniform in [1e-7, 0.5], h 1-9, r 1-7, MSS 64-1024
_rng = random.Random(11)
DESIGN = [(10 ** _rng.uniform(-7, math.log10(0.5)), _rng.randint(1, 9), _rng.randint(1, 7),
           _rng.randint(64, 1024)) for _ in range(400)]


def test_rows_without_a_total_do_not_grow():
    ber, h, r, mss = map(list, zip(*DESIGN))
    batch = segment_models(RunConfig().scenario(), ber=ber, h=h, r=r, mss=mss)
    assert sum(bits is None for bits in batch.column("total_bits")) <= NO_TOTAL
