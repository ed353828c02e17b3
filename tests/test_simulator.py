"""Monte Carlo simulator tests: exactness, determinism, statistical agreement."""

import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lln_energy import simulator
from lln_energy.config import RunConfig
from lln_energy.framing import FrameLayout, resolve_frames
from lln_energy.hopmodel import HopParams
from lln_energy.pathmodel import PathScenario, segment_model, uniform_path
from lln_energy.simulator import SimConfig, TruncationWarning, simulate

LAYOUT = FrameLayout(frag_header_bits=136)


def default_scenario(ber=3e-4, r=3, mss=64, h=5, transfer=51200):
    return PathScenario(
        hops=uniform_path(h, ber, r), layout=LAYOUT, mss_bytes=mss,
        transfer_bytes=transfer,
    )


def test_noiseless_transfer_is_exact():
    rep = simulate(SimConfig(scenario=default_scenario(ber=0.0), replications=5))
    assert rep.mean_total_bits == 5_888_000.0
    assert rep.stddev_total_bits == 0.0
    assert rep.stderr_total_bits == 0.0
    assert rep.counters.segment_retx == 0.0
    assert not rep.truncated


def test_deterministic_and_parallel_invariant():
    cfg = SimConfig(scenario=default_scenario(mss=512), replications=60, master_seed=9)
    records = [
        json.dumps(simulate(c).to_record(), sort_keys=True)
        for c in (cfg, cfg, SimConfig(**{**cfg.__dict__, "workers": 3}))
    ]
    assert records[0] == records[1] == records[2]


@pytest.mark.parametrize("fidelity", ["frame", "bit"])
def test_workers_share_out_whole_blocks(fidelity):
    # three whole blocks and a partial one: serial, 2- and 3-worker reports
    # are byte-identical, as each block draws from (master_seed, block)
    block = simulator._SAMPLERS[fidelity].block
    cfg = SimConfig(scenario=default_scenario(mss=512, transfer=2048),
                    replications=3 * block + 1, master_seed=8, fidelity=fidelity)
    records = [json.dumps(simulate(replace(cfg, workers=w)).to_record())
               for w in (1, 2, 3)]
    assert records[0] == records[1] == records[2]


@pytest.mark.parametrize("fidelity", ["frame", "bit"])
def test_bits_past_int64_stay_exact(fidelity):
    # ~4e15-bit coded frames: one replication sends ~2.2e19 bits, past int64,
    # while its 800 fragment sends are nowhere near; noiseless, so the total
    # is known exactly, and a wrapped int64 sum would miss it
    cfg = RunConfig(ber=0.0, alpha=4e12, replications=3, fidelity=fidelity)
    sc = cfg.scenario()
    frames = resolve_frames(sc.mss_bytes, sc.layout)
    a = sc.layout.ll_ack_bits
    per_rep = sc.segments * len(sc.hops) * (
        frames.m * (frames.d_data_bits + a) + frames.d_ack_bits + a
    )
    assert per_rep > 2**63 > sc.segments * frames.m
    rep = simulate(cfg.sim())
    assert rep.mean_total_bits == per_rep * 3 / 3
    assert rep.counters.segment_sends == sc.segments


def test_different_seeds_differ():
    a = simulate(SimConfig(scenario=default_scenario(), replications=20, master_seed=1))
    b = simulate(SimConfig(scenario=default_scenario(), replications=20, master_seed=2))
    assert a.mean_total_bits != b.mean_total_bits


def test_geometric_round_count_single_hop():
    """h=1, r=1: segment rounds are Geometric(q_s * q_ack).

    With one attempt per round the expected data-frame sends per segment
    are 1/(q_s * q_ack); ber is chosen so the data frame delivers with
    probability exactly 0.5. Bound: 4 combined standard errors of the
    geometric mean over all simulated segments.
    """
    lay = FrameLayout(
        ll_data_header_bits=0, ll_ack_bits=1, frag_header_bits=0,
        ip_header_bits=0, tcp_header_bits=1,
    )
    ber = 1.0 - 0.5 ** (1.0 / 9.0)  # data frame d = 8*1+1 = 9 bits
    sc = PathScenario(
        hops=(HopParams(ber=ber, r=1),), layout=lay, mss_bytes=1, transfer_bytes=50
    )
    q_s = 0.5
    q_ack = (1.0 - ber) ** 1  # 1-bit TCP-ACK frame
    expect = 1.0 / (q_s * q_ack)
    reps = 400
    rep = simulate(SimConfig(scenario=sc, replications=reps, master_seed=13))
    n_draws = 50 * reps  # independent geometric segment counts
    got = rep.counters.segment_sends / 50  # mean sends per segment
    se = (expect * (expect - 1.0) / n_draws) ** 0.5
    assert abs(got - expect) <= 4 * se


def test_sim_matches_model_default_config():
    sc = default_scenario()
    model = segment_model(sc)
    rep = simulate(SimConfig(scenario=sc, replications=600, master_seed=21, workers=2))
    assert abs(rep.mean_total_bits - model.total_bits) <= 3 * rep.stderr_total_bits


def test_bit_and_frame_fidelity_agree():
    sc = default_scenario(mss=512)
    frame = simulate(SimConfig(scenario=sc, replications=300, master_seed=5))
    bit = simulate(
        SimConfig(scenario=sc, replications=300, master_seed=5, fidelity="bit")
    )
    combined = (frame.stderr_total_bits**2 + bit.stderr_total_bits**2) ** 0.5
    assert abs(frame.mean_total_bits - bit.mean_total_bits) <= 3 * combined


def test_aggregate_agrees_with_bit_replay():
    """The aggregate draw and the event-by-event replay agree in law.

    Mean: within 3 combined standard errors. Spread: the log ratio of the
    two sample standard deviations within 4 combined standard errors, each
    sqrt((kurtosis - 1) / (4 n)), with kurtosis 3.7 measured over 20000
    aggregate replications of this configuration: a sampler right in mean
    but off in spread by more than about 20 % fails.
    """
    sc = default_scenario(ber=6e-4, mss=512, transfer=5120)
    agg = simulate(SimConfig(scenario=sc, replications=3000, master_seed=3))
    bit = simulate(
        SimConfig(scenario=sc, replications=300, master_seed=3, fidelity="bit",
                  workers=2)
    )
    assert (agg.method, bit.method) == ("aggregate", "replay")
    combined = (agg.stderr_total_bits**2 + bit.stderr_total_bits**2) ** 0.5
    assert abs(agg.mean_total_bits - bit.mean_total_bits) <= 3 * combined
    se_log_sd = math.sqrt(sum((3.7 - 1) / (4 * n) for n in (3000, 300)))
    log_ratio = math.log(agg.stddev_total_bits / bit.stddev_total_bits)
    assert abs(log_ratio) <= 4 * se_log_sd


def test_replay_draws_only_the_attempts_that_happen():
    # one data- or TCP-ACK-frame draw per link attempt, and one link-ACK draw
    # per arrival: none after a hop's first success or past a drop
    sc = default_scenario(ber=6e-4, mss=512, transfer=2048)
    frames = resolve_frames(sc.mss_bytes, sc.layout)
    sizes = (frames.d_data_bits, frames.d_ack_bits, sc.layout.ll_ack_bits)
    assert len(set(sizes)) == 3
    draws = dict.fromkeys(sizes, 0)

    class Spy:
        def __init__(self):
            self.rng = np.random.default_rng(6)

        def binomial(self, n, p, size):
            draws[n] += int(np.prod(size))
            return self.rng.binomial(n, p, size=size)

    n = 4
    _, counters, _ = simulator._Replay(SimConfig(scenario=sc, fidelity="bit")).run_block(Spy(), n)
    attempts = int(counters["link_attempts"].sum())
    arrivals = attempts - int(counters["link_failures"].sum())
    assert counters["segment_retx"].sum() > 0 and arrivals < attempts
    assert draws[frames.d_data_bits] + draws[frames.d_ack_bits] == attempts
    assert draws[sc.layout.ll_ack_bits] == arrivals


def test_aggregate_samples_heavy_tails():
    # round success ~1e-12: ~1e12 rounds per segment, far past the default
    # 1e6-round cap, which the aggregate draw does not apply
    sc = default_scenario(ber=8e-4, r=1, mss=512)
    rep = simulate(SimConfig(scenario=sc, replications=50, master_seed=4))
    assert rep.method == "aggregate"
    assert not rep.truncated
    assert math.isfinite(rep.mean_total_bits)
    assert rep.mean_total_bits > 1e14  # astronomically expensive, still finite


def test_heavy_tail_counters_match_model():
    """Counter-level check of the round law at ~1e12 rounds per segment.

    Each failed round drops (m (1 - q_s) + q_s^m (1 - q_s_ack)) / (1 - p_s)
    frames on average (every dropped fragment, plus the TCP ACK when all
    fragments got through); over ~1e14 failed rounds the observed ratio is
    that within 1e-4 relative. Segment sends match segments / p_s within 4
    standard errors of the geometric round counts.
    """
    sc = default_scenario(ber=8e-4, r=1, mss=512)
    model = segment_model(sc)
    reps = 50
    rep = simulate(
        SimConfig(scenario=sc, replications=reps, master_seed=4, round_cap=10**15)
    )
    c = rep.counters
    m, q_s, q_ack, p_s = model.m, model.q_s, model.q_s_ack, model.p_s
    drops_per_failed_round = (m * (1 - q_s) + q_s**m * (1 - q_ack)) / (1 - p_s)
    assert c.hop_drops / c.segment_retx == pytest.approx(drops_per_failed_round, rel=1e-4)
    expect = model.segments / p_s
    se = (model.segments * (1 - p_s) / p_s**2 / reps) ** 0.5
    assert abs(c.segment_sends - expect) <= 4 * se


def test_large_transfer_draws_rounds_per_replication():
    # 10**12 bytes at MSS 64 are 1.5625e10 segments, far more than an array
    # of a block's (replication, segment) round counts could hold (1.82 TiB):
    # a replication's rounds must come from one draw
    sc = default_scenario(transfer=10**12)
    model = segment_model(sc)
    reps = 32
    rep = simulate(SimConfig(scenario=sc, replications=reps, master_seed=11))
    assert rep.segments == 15_625_000_000
    assert math.isfinite(rep.mean_total_bits) and rep.mean_total_bits > 0
    expect = model.segments / model.p_s
    se = (model.segments * (1 - model.p_s) / model.p_s**2 / reps) ** 0.5
    assert abs(rep.counters.segment_sends - expect) <= 4 * se


def test_counters_never_wrap():
    # a replication whose fragment sends would pass int64 is refused, not
    # wrapped: at BER 0.5 no round can succeed; at 0.02 one segment's rounds
    # (round success ~1e-39) and at 0.008 51200 segments' (~1.6e20 sends)
    # pass what numpy's negative binomial draw can return
    for ber, transfer in ((0.5, 51200), (0.02, 1), (0.008, 51200)):
        cfg = RunConfig(ber=ber, retries=1, mss_bytes=1, transfer_bytes=transfer,
                        replications=2).sim()
        with pytest.raises(ValueError, match="64-bit counters"):
            simulate(cfg)


def test_draw_past_64_bit_fragment_sends_is_refused():
    # a draw numpy can return, ~1e16 failed rounds, whose 1000 fragments a
    # round would still pass int64 sends
    agg = simulator._Aggregate(SimConfig(scenario=default_scenario(), replications=2))
    agg.p_round, agg.segments, agg.m = 1e-14, 100, 1000
    with pytest.raises(ValueError, match="64-bit counters"):
        agg.run_block(np.random.default_rng(1), 2)
    agg.m = 1
    assert agg.run_block(np.random.default_rng(1), 2)[1]["segment_retx"].min() > 2**53


def test_fragments_past_the_float_range_are_refused():
    # the dropped-fragment law needs comb(m, m // 2) as a float: it fits up
    # to m = 1029, and a larger segment is refused instead of overflowing
    assert math.comb(1029, 514) <= sys.float_info.max < math.comb(1030, 515)
    sc = replace(default_scenario(mss=512), layout=replace(LAYOUT, fragments=1029))
    assert simulate(SimConfig(scenario=sc, replications=2)).segments == 100
    sc = replace(sc, layout=replace(LAYOUT, fragments=1030))
    with pytest.raises(ValueError, match="1030 fragments per segment"):
        simulate(SimConfig(scenario=sc, replications=2))


def test_bit_and_frame_fidelity_agree_on_a_heterogeneous_path():
    # hops that differ in both BER and attempt limit: the replay walks each
    # hop's own r. Means within 3 combined standard errors; segment sends
    # too, each side's from the geometric round law at the model's p_s
    hops = (HopParams(2e-4, 1), HopParams(6e-4, 4), HopParams(1e-4, 2), HopParams(4e-4, 3))
    sc = PathScenario(hops=hops, layout=LAYOUT, mss_bytes=512, transfer_bytes=5120)
    model = segment_model(sc)
    reps = 400
    frame, bit = (simulate(SimConfig(scenario=sc, replications=reps, master_seed=23,
                                     fidelity=fidelity))
                  for fidelity in ("frame", "bit"))
    combined = (frame.stderr_total_bits**2 + bit.stderr_total_bits**2) ** 0.5
    assert abs(frame.mean_total_bits - bit.mean_total_bits) <= 3 * combined
    se_sends = (2 * model.segments * (1 - model.p_s) / model.p_s**2 / reps) ** 0.5
    assert abs(frame.counters.segment_sends - bit.counters.segment_sends) <= 3 * se_sends


def test_heterogeneous_attempt_limits_match_model():
    from lln_energy.pathmodel import PathScenario as PS

    sc = PS(
        hops=(HopParams(4e-4, 1), HopParams(4e-4, 3), HopParams(4e-4, 2)),
        layout=LAYOUT, mss_bytes=512,
    )
    model = segment_model(sc)
    rep = simulate(SimConfig(scenario=sc, replications=400, master_seed=31,
                             workers=2))
    assert abs(rep.mean_total_bits - model.total_bits) <= 3 * rep.stderr_total_bits


def test_counter_consistency():
    sc = default_scenario(ber=6e-4, mss=512)
    rep = simulate(SimConfig(scenario=sc, replications=100, master_seed=17))
    c = rep.counters
    assert c.duplicates_suppressed <= c.partial_failures
    assert c.segment_retx == pytest.approx(c.segment_sends - rep.segments)
    assert c.hop_drops <= c.link_failures
    assert c.link_attempts > 0


def test_round_cap_truncates_with_warning():
    # the cap bounds only the bit replay's work; the aggregate draw (frame
    # fidelity) ignores it and never truncates
    sc = default_scenario(ber=8e-4, r=1, mss=512, transfer=1024)
    cfg = SimConfig(scenario=sc, replications=3, master_seed=1, round_cap=50,
                    fidelity="bit")
    with pytest.warns(TruncationWarning):
        rep = simulate(cfg)
    assert rep.truncated and "truncated" in rep.flags

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        capped = simulate(replace(cfg, fidelity="frame"))
    uncapped = simulate(replace(cfg, fidelity="frame", round_cap=10**15))
    assert not capped.truncated
    assert capped.to_record() == uncapped.to_record()


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        SimConfig(scenario=default_scenario(), replications=0)
    with pytest.raises(ValueError):
        SimConfig(scenario=default_scenario(), fidelity="frames")
    with pytest.raises(ValueError):
        SimConfig(scenario=default_scenario(), master_seed=-1)
