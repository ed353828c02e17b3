"""Monte Carlo simulator tests: exactness, determinism, statistical agreement."""

import itertools
import json
import math
import warnings
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from lln_energy import simulator
from lln_energy.config import RunConfig
from lln_energy.framing import FrameLayout, resolve_frames
from lln_energy.hopmodel import HopParams, attempt_probs, hop_model
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


@pytest.fixture
def three_cpus(monkeypatch):
    """Three CPUs, whatever the machine has, and real process pools whose
    sizes the returned list records: a 3-worker run splits three ways."""
    from concurrent.futures import ProcessPoolExecutor

    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
    return sizes


def three_blocks_and_a_part(scenario, **knobs):
    """A run of three whole blocks of its sampler and a partial one."""
    cfg = SimConfig(scenario=scenario, **knobs)
    block = simulator._SAMPLERS[cfg.fidelity](cfg).block
    return replace(cfg, replications=3 * block + 1)


def test_deterministic_and_parallel_invariant(three_cpus):
    cfg = three_blocks_and_a_part(default_scenario(mss=512), master_seed=9)
    records = [
        json.dumps(simulate(c).to_record(), sort_keys=True)
        for c in (cfg, cfg, SimConfig(**{**cfg.__dict__, "workers": 3}))
    ]
    assert records[0] == records[1] == records[2]
    assert three_cpus == [3]


@pytest.mark.parametrize("fidelity", ["frame", "bit"])
def test_workers_share_out_whole_blocks(fidelity, three_cpus):
    # three whole blocks and a partial one: serial, 2- and 3-worker reports
    # are byte-identical, as each block draws from (master_seed, block)
    cfg = three_blocks_and_a_part(default_scenario(mss=512, transfer=2048),
                                  master_seed=8, fidelity=fidelity)
    records = [json.dumps(simulate(replace(cfg, workers=w)).to_record())
               for w in (1, 2, 3)]
    assert records[0] == records[1] == records[2]
    assert three_cpus == [2, 3]


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
    assert abs(rep.mean_total_bits - model["total_bits"]) <= 3 * rep.stderr_total_bits


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
    _, counters, _ = simulator._Replay(SimConfig(scenario=sc, fidelity="bit")).run([Spy()], [n])
    attempts = counters["link_attempts"]
    arrivals = attempts - counters["link_failures"]
    assert counters["segment_retx"] > 0 and arrivals < attempts
    assert draws[frames.d_data_bits] + draws[frames.d_ack_bits] == attempts
    assert draws[sc.layout.ll_ack_bits] == arrivals


#: bit-fidelity reports of seeded runs, 40 replications (two blocks of 16
#: and a partial one) unless stated: the replay's bookkeeping may change,
#: but no draw's order or size, so these stay exactly as they are. The
#: fourth and fifth are the benchmark's bit line, 13 blocks, and a run whose
#: round cap fires, its last block partial
PINNED_REPLAYS = [
    (dict(ber=3e-4, retries=3, mss_bytes=512, seed=3), {
        "segments": 100, "mean_total_bits": 6678968.2,
        "stddev_total_bits": 418217.4482864638, "stderr_total_bits": 66125.98469044545,
        "ci95_half_width": 129606.92999327308, "mean_total_joules": 4.408119011999999,
        "link_attempts": 8208.875, "link_failures": 1723.925, "partial_failures": 78.025,
        "hop_drops": 61.675, "duplicates_suppressed": 69.15, "segment_sends": 152.475,
        "segment_retx": 52.475}),
    (dict(hops=9, hop_bers=(1e-5, 3e-5, 1e-4, 2e-4, 3e-4, 5e-4, 1e-4, 3e-5, 1e-5),
          mss_bytes=512, transfer_bytes=6144, seed=5), {
        "segments": 12, "mean_total_bits": 1266717.6,
        "stddev_total_bits": 200601.02539053318, "stderr_total_bits": 31717.807059967643,
        "ci95_half_width": 62166.90183753658, "mean_total_joules": 0.8360336159999999,
        "link_attempts": 1552.275, "link_failures": 172.4, "partial_failures": 7.825,
        "hop_drops": 7.275, "duplicates_suppressed": 7.1, "segment_sends": 18.0,
        "segment_retx": 6.0}),
    (dict(alpha=0.1, retries=2, ber=0.035, transfer_bytes=1280, seed=7), {
        "segments": 20, "mean_total_bits": 298204.85,
        "stddev_total_bits": 12205.759663014918, "stderr_total_bits": 1929.90005538682,
        "ci95_half_width": 3782.604108558167, "mean_total_joules": 0.19681520099999997,
        "link_attempts": 370.125, "link_failures": 21.775, "partial_failures": 264.725,
        "hop_drops": 1.075, "duplicates_suppressed": 141.15, "segment_sends": 21.075,
        "segment_retx": 1.075}),
    (dict(ber=3e-4, retries=3, mss_bytes=512, replications=200, seed=11), {
        "segments": 100, "mean_total_bits": 6598561.88,
        "stddev_total_bits": 320653.0829806421, "stderr_total_bits": 22673.596938398474,
        "ci95_half_width": 44440.24999926101, "mean_total_joules": 4.355050840799999,
        "link_attempts": 8112.25, "link_failures": 1694.005, "partial_failures": 76.135,
        "hop_drops": 59.53, "duplicates_suppressed": 67.63, "segment_sends": 150.635,
        "segment_retx": 50.635}),
    (dict(ber=3e-3, retries=1, mss_bytes=64, round_cap=3, replications=37, seed=13), {
        "segments": 800, "mean_total_bits": 2426361.081081081,
        "stddev_total_bits": 13905.437358534688, "stderr_total_bits": 2286.039819781185,
        "ci95_half_width": 4480.638046771122, "mean_total_joules": 1.6013983135135132,
        "truncated": True, "flags": "truncated",
        "link_attempts": 2542.7027027027025, "link_failures": 2400.0,
        "partial_failures": 15.675675675675675, "hop_drops": 2400.0,
        "duplicates_suppressed": 0.0, "segment_sends": 2400.0, "segment_retx": 1600.0}),
    # r = 7 on four hops: attempts 4-7 happen, with partials, late
    # deliveries and drops among them
    (dict(ber=2e-3, retries=7, mss_bytes=64, hops=4, transfer_bytes=512, seed=19), {
        "segments": 8, "mean_total_bits": 483734.6,
        "stddev_total_bits": 138895.1684956163, "stderr_total_bits": 21961.254421950514,
        "ci95_half_width": 43044.058667023004, "mean_total_joules": 0.31926483599999994,
        "link_attempts": 551.175, "link_failures": 446.175, "partial_failures": 8.35,
        "hop_drops": 31.875, "duplicates_suppressed": 4.5, "segment_sends": 39.875,
        "segment_retx": 31.875}),
]


def bit_config(knobs):
    """The bit-fidelity run of a ``PINNED_REPLAYS`` entry's knobs."""
    return RunConfig(**{"fidelity": "bit", "replications": 40, **knobs}).sim()


@pytest.mark.parametrize("knobs, pinned", PINNED_REPLAYS)
def test_replay_reports_are_pinned(knobs, pinned):
    cfg = bit_config(knobs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rep = simulate(cfg)
    assert rep.to_record() == {
        "replications": cfg.replications, "truncated": False, "flags": "", **pinned,
        "method": "replay", "fidelity": "bit", "master_seed": knobs["seed"],
        "rng_algorithm": "PCG64",
    }


@pytest.mark.parametrize("fidelity", ["frame", "bit"])
def test_report_records_hold_python_numbers(fidelity):
    # a record's numbers are Python ints and floats, not numpy scalars
    # (np.float64 is a float subclass, so the exact type is checked)
    rep = simulate(replace(bit_config(PINNED_REPLAYS[5][0]), fidelity=fidelity))
    numbers = {k: type(v) for k, v in rep.to_record().items() if not isinstance(v, (str, bool))}
    assert set(numbers.values()) == {int, float}, numbers


class BlockSpy:
    """Block ``b``'s generator, logging each binomial call to its own
    ``calls`` and, with the block, to the run's shared ``log``."""

    def __init__(self, seed, b, log):
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, b]))
        self.b, self.log, self.calls = b, log, []

    def binomial(self, n, p, size):
        self.calls.append((n, p, size))
        self.log.append((self.b, n, size))
        return self.rng.binomial(n, p, size=size)


def spied_replay(cfg, blocks):
    """The replay of ``cfg``'s ``blocks`` (block numbers, in order), each
    drawing from a ``BlockSpy``: the result, the spies and the shared log."""
    replay, log = simulator._Replay(cfg), []
    spies = [BlockSpy(cfg.master_seed, b, log) for b in blocks]
    counts = [min(replay.block, cfg.replications - b * replay.block) for b in blocks]
    return replay.run(spies, counts), spies, log


@pytest.mark.parametrize("knobs", [PINNED_REPLAYS[i][0] for i in (0, 1, 2, 4, 5)])
def test_pipelined_blocks_draw_what_each_draws_alone(knobs):
    # each block of a pipelined run makes the calls, in order, and gets the
    # tallies it makes and gets when it runs alone
    cfg = bit_config(knobs)
    n_blocks = -(-cfg.replications // simulator._Replay.block)
    (bits, totals, truncated), spies, _ = spied_replay(cfg, range(n_blocks))
    alone_bits, alone_totals, alone_truncated = [], [], []
    for b in range(n_blocks):
        (b_bits, b_totals, b_truncated), (spy,), _ = spied_replay(cfg, [b])
        assert spies[b].calls == spy.calls
        alone_bits += b_bits.tolist()
        alone_totals.append(b_totals)
        alone_truncated.append(b_truncated)
    assert bits.tolist() == alone_bits
    assert totals == {k: sum(t[k] for t in alone_totals) for k in totals}
    assert truncated == any(alone_truncated) == (knobs.get("round_cap") == 3)


def test_fragments_in_flight_stay_within_two_blocks(monkeypatch):
    # a step's fragments in flight are its data-frame draws, one call per
    # block between two link-ACK steps: never past two blocks' worth nor
    # _MAX_BLOCK_FRAMES, and past one block's once the blocks overlap. A
    # bound of one block's fragments runs the blocks one at a time, with
    # the same draws and so the same result
    cfg = bit_config(PINNED_REPLAYS[0][0])
    replay = simulator._Replay(cfg)
    one_block = replay.block * replay.segments * replay.m
    d_data_bits = replay.data[1]

    def run(bound):
        monkeypatch.setattr(simulator, "_MAX_BLOCK_FRAMES", bound)
        (bits, totals, _), _, log = spied_replay(cfg, range(3))
        steps, seen = [], set()
        for n, calls in itertools.groupby(log, key=lambda call: call[1]):
            if n == d_data_bits:
                sizes = {b: size for b, _, size in calls}
                steps.append(sum(sizes.values()))
                # a block joins only while fewer than one block's are in flight
                for b in sizes.keys() - seen:
                    assert sum(size for c, size in sizes.items() if c < b) < one_block
                seen |= sizes.keys()
        return bits.tolist(), totals, max(steps)

    *pipelined, most = run(simulator._MAX_BLOCK_FRAMES)
    assert one_block < most <= min(2 * one_block, simulator._MAX_BLOCK_FRAMES)
    *one_at_a_time, most = run(one_block)
    assert most == one_block
    assert one_at_a_time == pipelined


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
    m, q_s, q_ack, p_s = model["m"], model["q_s"], model["q_s_ack"], model["p_s"]
    drops_per_failed_round = (m * (1 - q_s) + q_s**m * (1 - q_ack)) / (1 - p_s)
    assert c.hop_drops / c.segment_retx == pytest.approx(drops_per_failed_round, rel=1e-4)
    expect = model["segments"] / p_s
    se = (model["segments"] * (1 - p_s) / p_s**2 / reps) ** 0.5
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
    expect = model["segments"] / model["p_s"]
    se = (model["segments"] * (1 - model["p_s"]) / model["p_s"]**2 / reps) ** 0.5
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


@pytest.mark.parametrize("fragments, ber, r, mss", [
    (1030, 3e-4, 3, 512), (5000, 1e-4, 3, 512), ("auto", 3e-3, 1029, 64),
])
def test_sim_matches_model_past_1029_fragments_or_attempts(fragments, ber, r, mss):
    # the draw has no binomial coefficient to overflow: a segment of any
    # fragment count, and a hop of up to MAX_RETRIES attempts, are drawn
    sc = PathScenario(hops=uniform_path(5, ber, r), layout=replace(LAYOUT, fragments=fragments),
                      mss_bytes=mss, transfer_bytes=51200)
    model = segment_model(sc)
    rep = simulate(SimConfig(scenario=sc, replications=200, master_seed=29))
    assert model["m"] == (fragments if fragments != "auto" else 1)
    assert abs(rep.mean_total_bits - model["total_bits"]) <= 4 * rep.stderr_total_bits


def test_trial_counts_past_int64_are_drawn_in_parts():
    # ~1e18 data traversals of a hop whose outright success takes ~20
    # attempts: the partial-count binomial has ~2e19 trials, past int64.
    # Every failed round loses only the TCP ACK, at its one hop, so the data
    # hop delivers every fragment; by Wald's identity each data attempt is
    # a partial with p_partial, and the attempts per traversal average
    # 1 / p_succ (the r-th attempt's truncation weighs ~1e-23)
    sc = PathScenario(hops=(HopParams(3e-3, 1029),), layout=LAYOUT, mss_bytes=64,
                      transfer_bytes=6400)
    agg = simulator._Aggregate(SimConfig(scenario=sc))
    agg.p_round, agg.p_frag_round = 1e-16, 0.0
    _, counters, _ = agg.run_block(np.random.default_rng(5), 2)
    frames = resolve_frames(sc.mss_bytes, LAYOUT)
    _, p_partial, p_succ = attempt_probs(frames.d_data_bits, frames.c_data_bits,
                                         LAYOUT.ll_ack_bits, 3e-3)
    attempts, partials, retx, sends = (counters[k].tolist() for k in (
        "link_attempts", "partial_failures", "segment_retx", "segment_sends"))
    for got_attempts, partials, retx, n in zip(attempts, partials, retx, sends):
        # less the lost TCP ACKs' attempts: all that is left of the ACK row
        # is its 100 delivered traversals', a few thousand
        got_attempts -= 1029 * retx
        assert got_attempts - n > 2**63  # the binomial's trials, less the successes
        assert got_attempts / n == pytest.approx(1 / p_succ, rel=1e-6)
        assert partials / got_attempts == pytest.approx(p_partial, rel=1e-6)


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
    se_sends = (2 * model["segments"] * (1 - model["p_s"]) / model["p_s"]**2 / reps) ** 0.5
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
    assert abs(rep.mean_total_bits - model["total_bits"]) <= 3 * rep.stderr_total_bits


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


class _HopTables:
    """Categorical distribution of one hop traversal's summary.

    Enumerates every way <= r attempts can play out: either no attempt
    succeeds outright (i partial failures among r, delivered iff i >= 1)
    or the k-th attempt is the first success (i partials before it). Each
    class carries the attempt count, how many data copies reached the
    receiver (each one costs a link ACK and all but the first are dropped
    as duplicates), and whether the frame got through at all. Class 0
    (all r attempts fail outright) is the only one that drops the frame.
    """

    def __init__(self, probs: tuple[float, float, float], r: int):
        pf, pp, ps = probs
        weights: list[float] = []
        attempts: list[int] = []
        arrivals: list[int] = []
        ended_success: list[bool] = []
        for i in range(r + 1):  # no outright success in r attempts
            weights.append(math.comb(r, i) * pp**i * pf ** (r - i))
            attempts.append(r)
            arrivals.append(i)
            ended_success.append(False)
        for k in range(1, r + 1):  # first success at attempt k
            for i in range(k):
                weights.append(math.comb(k - 1, i) * pp**i * pf ** (k - 1 - i) * ps)
                attempts.append(k)
                arrivals.append(i + 1)
                ended_success.append(True)
        w = np.asarray(weights, dtype=np.float64)
        self.attempts = np.asarray(attempts, dtype=np.int64)
        self.arrivals = np.asarray(arrivals, dtype=np.int64)
        self.partials = self.arrivals - np.asarray(ended_success, dtype=np.int64)
        self.p_drop = float(w[0])
        delivered = np.where(self.arrivals > 0, w, 0.0)
        total = delivered.sum()
        self.delivered_pmf = delivered / total if total > 0 else delivered


#: chi-square comparisons in the two law tests below, for a family-wise 1e-3:
#: ten hop rows and three fragment counts
LAW_ALPHA = 1e-3 / 13
#: link ACKs lost often enough that most traversal classes show up
LAW_LAYOUT = replace(LAYOUT, ll_ack_bits=400)


def chi_square_p(observed: Counter, pmf: dict, n: int) -> float:
    """p-value of ``observed`` counts of n draws against ``pmf``.

    Classes are pooled from the least likely up until each bin expects at
    least 5 draws; a draw outside the pmf's support fails at once.
    """
    assert set(observed) <= {k for k, p in pmf.items() if p > 0}
    obs, exp, o, e = [], [], 0, 0.0
    for k in sorted(pmf, key=pmf.get):
        o, e = o + observed[k], e + n * pmf[k]
        if e >= 5:
            obs.append(o)
            exp.append(e)
            o, e = 0, 0.0
    obs[-1] += o
    exp[-1] += e
    return stats.chisquare(obs, exp).pvalue


@pytest.mark.parametrize("hops, mss", [
    ((HopParams(1e-3, 1),), 64),
    ((HopParams(1e-3, 2),), 128),
    ((HopParams(1e-3, 3),), 64),
    ((HopParams(1e-3, 1), HopParams(5e-4, 3)), 128),
])
def test_traversal_law_matches_the_class_enumeration(hops, mss):
    # 20000 single traversals of every hop row, data and TCP ACK, each
    # delivered with the enumeration's 1 - p_drop: the histogram of the
    # sampler's (attempts, partials, arrivals) against the enumeration's pmf
    sc = PathScenario(hops=hops, layout=LAW_LAYOUT, mss_bytes=mss, transfer_bytes=mss)
    agg = simulator._Aggregate(SimConfig(scenario=sc))
    frames = resolve_frames(mss, LAW_LAYOUT)
    assert frames.m <= 2
    rows = ([(hp, frames.d_data_bits, frames.c_data_bits) for hp in hops]
            + [(hp, frames.d_ack_bits, frames.c_ack_bits) for hp in hops[::-1]])
    tables = [_HopTables(attempt_probs(d, c, LAW_LAYOUT.ll_ack_bits, hp.ber), hp.r)
              for hp, d, c in rows]
    n = 20_000
    rng = np.random.default_rng(37)
    crossed = (rng.random((n, len(tables))) >= [t.p_drop for t in tables]).astype(np.int64)
    attempts, partials, duplicates = agg._traversals(rng, crossed, 1 - crossed)
    arrivals = crossed + duplicates
    for j, t in enumerate(tables):
        full = t.delivered_pmf * (1.0 - t.p_drop)
        full[0] = t.p_drop  # class 0, the only one that drops the frame
        pmf = Counter()
        for key, w in zip(zip(t.attempts.tolist(), t.partials.tolist(), t.arrivals.tolist()),
                          full.tolist()):
            pmf[key] += w
        observed = Counter(zip(attempts[:, j].tolist(), partials[:, j].tolist(),
                               arrivals[:, j].tolist()))
        assert chi_square_p(observed, pmf, n) > LAW_ALPHA


@pytest.mark.parametrize("fragments", [2, 7, 40])
def test_dropped_fragment_law_matches_the_binomial(fragments):
    # a round that lost a fragment lost Binomial(m, p) of them, given at
    # least one, where p = pf**r is the path's (here one hop's) drop
    hop = HopParams(2e-4, 1)
    layout = replace(LAYOUT, fragments=fragments)
    sc = PathScenario(hops=(hop,), layout=layout, mss_bytes=512, transfer_bytes=512)
    agg = simulator._Aggregate(SimConfig(scenario=sc))
    frames = resolve_frames(512, layout)
    p = hop_model(frames.d_data_bits, frames.c_data_bits, layout.ll_ack_bits, hop)["f"]
    m, n = frames.m, 20_000
    lost = agg._lost(np.random.default_rng(41), np.ones(n, dtype=np.int64))
    weights = {d: math.comb(m, d) * p**d * (1 - p) ** (m - d) for d in range(1, m + 1)}
    total = sum(weights.values())
    pmf = {d: w / total for d, w in weights.items()}
    assert chi_square_p(Counter(lost.tolist()), pmf, n) > LAW_ALPHA


@pytest.mark.parametrize("ber, ll_ack_bits", [(0.0, 40), (1e-3, 10**6)])
def test_no_count_lands_on_a_zero_weight_shape(ber, ll_ack_bits):
    # numpy's multinomial gives any rounding remainder to the last category.
    # A noiseless hop succeeds at its first attempt, and a hop whose
    # 10**6-bit link ACK never survives (p_succ underflows to 0) never
    # succeeds outright: of ~1e15 traversals per row none may land on a
    # shape, or any multinomial category, that weighs 0
    layout = replace(LAYOUT, ll_ack_bits=ll_ack_bits)
    sc = PathScenario(hops=uniform_path(2, ber, 3), layout=layout, mss_bytes=64,
                      transfer_bytes=64)
    agg = simulator._Aggregate(SimConfig(scenario=sc))
    agg.segments = 10**15
    draws = []

    class Spy:  # numpy's Generator, keeping every multinomial draw
        def __init__(self):
            self.rng = np.random.default_rng(43)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def multinomial(self, n, pvals):
            out = self.rng.multinomial(n, pvals)
            draws.append((np.broadcast_to(pvals, out.shape), out))
            return out

    agg.run_block(Spy(), 2)
    assert len(draws) == 5
    for pvals, out in draws:
        assert not out[pvals == 0].any()
    shapes = draws[3][1]
    assert shapes.sum() >= 4 * 10**15
    # every traversal on the one shape that weighs
    assert shapes[..., -1 if ber == 0 else 0].sum() == shapes.sum()


def test_aggregate_refuses_a_block_past_its_frame_bound():
    # the first-drop draw counts each of a block's block x m fragment
    # positions: 2**20 fragments a segment fill the bound exactly
    def aggregate(fragments):
        sc = replace(default_scenario(), layout=replace(LAYOUT, fragments=fragments))
        return simulator._Aggregate(SimConfig(scenario=sc))

    agg = aggregate(2**20)
    assert agg.first_drop_pmf.size * agg.block == simulator._MAX_BLOCK_FRAMES
    with pytest.raises(ValueError, match="1048577 fragments per segment"):
        aggregate(2**20 + 1)


@pytest.mark.parametrize("hops, mss, fragments", [
    (uniform_path(5, 3e-4, 3), 64, "auto"),
    (uniform_path(5, 3e-4, 1), 512, "auto"),
    (uniform_path(1, 1e-3, 1), 64, "auto"),
    (uniform_path(9, 3e-4, 7), 512, "auto"),
    ((HopParams(2e-4, 1), HopParams(6e-4, 4), HopParams(1e-4, 2)), 512, "auto"),
    (uniform_path(5, 3e-4, 3), 512, 1000),
    (uniform_path(5, 3e-4, 1029), 64, "auto"),
    (uniform_path(5, 3e-4, 3), 512, 2**20),
])
def test_aggregate_block_fills_its_cell_budget(hops, mss, fragments):
    # a block holds at least 16 replications; past 16, the most whose
    # largest arrays (each hop row's shapes and first partials, and the
    # first drops) stay within _BLOCK_CELLS cells
    sc = PathScenario(hops=hops, layout=replace(LAYOUT, fragments=fragments),
                      mss_bytes=mss, transfer_bytes=51200)
    agg = simulator._Aggregate(SimConfig(scenario=sc))
    cells = agg.shape_pmf.size + agg.first_partial_pmf.size + agg.first_drop_pmf.size
    assert agg.block >= 16
    if agg.block > 16:
        assert agg.block * cells <= simulator._BLOCK_CELLS < (agg.block + 1) * cells


def test_block_sizes_at_the_criterion_4_grid_and_the_extremes():
    # the 200-replication validate runs draw one block each; r = 1029 and
    # 2**20 fragments keep the floor of 16, as before blocks were sized
    def block(**knobs):
        return simulator._Aggregate(RunConfig(**knobs).sim()).block

    for r in (1, 3):
        for mss in (64, 512):
            assert block(retries=r, mss_bytes=mss) >= 200
    assert block(retries=1029) == 16
    assert block(mss_bytes=512, fragments=2**20) == 16


def test_workers_are_capped_by_the_cpu_count(monkeypatch):
    # a stand-in pool runs the jobs inline and records its size, so no
    # process starts; the rows do not depend on the worker count
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    block = simulator._Aggregate(SimConfig(scenario=default_scenario())).block
    cfg = SimConfig(scenario=default_scenario(), replications=10 * block, master_seed=4)
    serial = json.dumps(simulate(cfg).to_record())
    for cpus, expect in ((3, [3]), (None, [])):
        sizes.clear()
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: cpus)
        assert json.dumps(simulate(replace(cfg, workers=100_000)).to_record()) == serial
        assert sizes == expect


def test_bit_replay_refuses_a_block_past_its_frame_bound():
    # the replay keeps index arrays over a block's fragments in flight: a
    # 10**12-byte transfer, 1.5625e10 segments, would need terabytes and is
    # refused before anything is allocated. 2**20 one-fragment segments
    # fill a block of 16 replications to the bound exactly
    def replay(transfer):
        return simulator._Replay(SimConfig(scenario=default_scenario(transfer=transfer),
                                           fidelity="bit"))

    with pytest.raises(ValueError, match="15625000000 segments"):
        simulate(SimConfig(scenario=default_scenario(transfer=10**12), replications=16,
                           fidelity="bit"))
    assert replay(2**20 * 64).block * 2**20 == simulator._MAX_BLOCK_FRAMES
    with pytest.raises(ValueError, match="1048577 segments: "):
        replay((2**20 + 1) * 64)
