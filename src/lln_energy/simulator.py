"""Monte Carlo validator: draw the transfer's stochastic process and count bits.

This is the independent check on the closed-form expectations. Nothing
above a single transmission attempt is taken from the formulas: delivery
chains across hops, duplicate suppression after lost link ACKs, fragment
rounds, and unbounded end-to-end retries are all drawn from the process.
A data frame crosses a hop after up to r attempts; an attempt that loses
only the link ACK still delivers (the receiver relays and later drops the
duplicate retransmission). A segment round sends all m fragments end to
end, then the TCP ACK back across the reversed path; the round repeats
until that ACK arrives.

Each fidelity has one sampler, named by ``SimReport.method``:

* ``frame`` fidelity, method ``aggregate``. Segments and rounds are
  i.i.d., so a replication's totals depend only on how many hop
  traversals land in each outcome class of the single attempt's (fail,
  partial, success) categorical, not on the order of events. Each
  replication draws those counts exactly: per-segment round counts from
  Geometric(p_round), uncapped; the failed rounds split
  into "a fragment was dropped" and "only the TCP ACK was lost"; the
  dropped-fragment count of each such round from the zero-truncated
  binomial; the hop where each drop happened; and every hop's
  attempt-class counts by multinomial. The work does not grow with the
  round count, and every counter is an exact integer. A replication
  whose counters would pass 64-bit integers is refused with a
  ``ValueError``, as is a segment of 1030 or more fragments, whose
  binomial coefficients pass the float range.
* ``bit`` fidelity, method ``replay``. Every attempt of every round is
  replayed, drawing the raw per-bit error counts and applying the
  correction threshold. ``round_cap`` bounds its work; a segment that hits
  the cap sets ``truncated``.

Replication ``i`` always derives its RNG stream from
``(master_seed, i)``, so serial and parallel execution produce
bit-identical reports.
"""

from __future__ import annotations

import math
import operator
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .config import RunConfig
from .framing import resolve_frames
from .hopmodel import AttemptProbs, attempt_probs
from .pathmodel import EnergyParams, PathScenario

__all__ = [
    "SimConfig",
    "SimCounters",
    "SimReport",
    "TruncationWarning",
    "simulate",
]

RNG_ALGORITHM = "PCG64"

_INT64_MAX = 2**63 - 1
#: The most fragments per segment the aggregate draw takes: the largest
#: binomial coefficient of its dropped-fragment law, comb(m, m // 2), is a
#: float up to here
_MAX_FRAGMENTS = 1029


class TruncationWarning(RuntimeWarning):
    """The bit replay's per-segment round cap fired; the mean is biased low."""


@dataclass(frozen=True)
class SimConfig:
    scenario: PathScenario
    energy: EnergyParams = field(default_factory=EnergyParams)
    replications: int = RunConfig.replications
    master_seed: int = RunConfig.seed
    fidelity: str = RunConfig.fidelity  # "frame" | "bit"
    # bit fidelity: end-to-end rounds per segment before the replay truncates
    round_cap: int = RunConfig.round_cap
    workers: int = RunConfig.workers

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.fidelity not in ("frame", "bit"):
            raise ValueError(f'fidelity must be "frame" or "bit", got {self.fidelity!r}')
        if self.round_cap < 1:
            raise ValueError("round_cap must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SimCounters:
    """Per-replication mean event counts."""

    link_attempts: float
    link_failures: float
    partial_failures: float
    hop_drops: float
    duplicates_suppressed: float
    segment_sends: float
    segment_retx: float

    def to_dict(self) -> dict:
        """The fields in order (``vars`` of a frozen dataclass holds just them)."""
        return dict(vars(self))


COUNTER_NAMES = tuple(f.name for f in fields(SimCounters))


@dataclass(frozen=True)
class SimReport:
    replications: int
    segments: int
    mean_total_bits: float
    stddev_total_bits: float
    stderr_total_bits: float
    ci95_half_width: float
    mean_total_joules: float
    method: str  # "aggregate" (frame fidelity) | "replay" (bit fidelity)
    fidelity: str
    truncated: bool
    master_seed: int
    rng_algorithm: str
    flags: tuple[str, ...]
    counters: SimCounters  # last, where the record flattens it

    def to_record(self) -> dict:
        """Flat key/value record, mergeable with ModelReport rows.

        The fields in order, with ``counters`` flattened in place; ``vars``
        of a frozen dataclass holds just the fields, in order.
        """
        rec = dict(vars(self))
        rec["flags"] = ";".join(self.flags)
        rec.update(rec.pop("counters").to_dict())
        return rec


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

    def __init__(self, probs: AttemptProbs, r: int):
        pf, pp, ps = probs.p_fail, probs.p_partial, probs.p_succ
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


def _log_pass(tables: list[_HopTables]) -> float:
    """Log-probability that one frame crosses every hop (-inf past a dead hop)."""
    if any(t.p_drop >= 1.0 for t in tables):
        return -math.inf
    return math.fsum(math.log1p(-t.p_drop) for t in tables)


def _drop_site_pmf(tables: list[_HopTables]) -> np.ndarray:
    """Where a dropped frame stopped: hop j with weight reach_j * drop_j."""
    reach, weights = 1.0, []
    for t in tables:
        weights.append(reach * t.p_drop)
        reach *= 1.0 - t.p_drop
    w = np.asarray(weights)
    return w / w.sum() if w.sum() > 0 else w


def _beyond(drops: np.ndarray) -> np.ndarray:
    """For each hop, the frames dropped at a later hop (they crossed this one)."""
    return np.cumsum(drops[::-1])[::-1] - drops


class _Aggregate:
    """Frame fidelity: one exact draw of every outcome-class count per replication."""

    method = "aggregate"

    def __init__(self, scenario: PathScenario):
        frames = resolve_frames(scenario.mss_bytes, scenario.layout)
        a = scenario.layout.ll_ack_bits
        self.m = m = frames.m
        self.segments = scenario.segments
        data = [
            _HopTables(attempt_probs(frames.d_data_bits, frames.c_data_bits, a, hp.ber), hp.r)
            for hp in scenario.hops
        ]
        ack = [  # the TCP ACK travels the path backwards
            _HopTables(attempt_probs(frames.d_ack_bits, frames.c_ack_bits, a, hp.ber), hp.r)
            for hp in reversed(scenario.hops)
        ]

        # One row per hop traversal type (data hops, then ACK hops), padded
        # at the front so the last column is always a real delivered class:
        # numpy gives any rounding remainder of a multinomial to the last one.
        tables = data + ack
        width = max(len(t.attempts) for t in tables)
        pads = [width - len(t.attempts) for t in tables]
        self.class_pmf = np.array(
            [np.pad(t.delivered_pmf, (p, 0)) for t, p in zip(tables, pads)]
        )
        self.drop_class = np.asarray(pads)  # column of each row's class 0
        frame_bits = [frames.d_data_bits] * len(data) + [frames.d_ack_bits] * len(ack)
        per_class = {
            "bits": [t.attempts * d + t.arrivals * a for t, d in zip(tables, frame_bits)],
            "link_attempts": [t.attempts for t in tables],
            "link_failures": [t.attempts - t.arrivals for t in tables],
            "partial_failures": [t.partials for t in tables],
            "duplicates_suppressed": [np.maximum(t.arrivals - 1, 0) for t in tables],
        }
        # Python ints, so the totals stay exact however many rounds there are
        self.class_weights = {
            name: np.concatenate(
                [np.pad(v, (p, 0)) for v, p in zip(values, pads)]
            ).tolist()
            for name, values in per_class.items()
        }

        log_frag, log_ack = _log_pass(data), _log_pass(ack)
        self.p_round = math.exp(m * log_frag + log_ack)
        p_frag_lost = -math.expm1(m * log_frag)
        p_ack_lost = math.exp(m * log_frag) * -math.expm1(log_ack)
        p_fail = p_frag_lost + p_ack_lost
        self.p_frag_round = p_frag_lost / p_fail if p_fail > 0 else 0.0
        # dropped fragments in a round that lost at least one: Binomial(m, p) | >= 1
        if m > _MAX_FRAGMENTS:
            raise ValueError(
                f"{m} fragments per segment: the law of a round's dropped fragments "
                "has binomial coefficients past the float range"
            )
        p = -math.expm1(log_frag)
        lost = np.array([math.comb(m, d) * p**d * (1 - p) ** (m - d) for d in range(1, m + 1)])
        self.lost_pmf = lost / lost.sum() if lost.sum() > 0 else lost
        self.lost_sizes = np.arange(1, m + 1)
        self.data_drop_pmf = _drop_site_pmf(data)
        self.ack_drop_pmf = _drop_site_pmf(ack)

    def run(self, rng):
        m, n_seg = self.m, self.segments
        if self.p_round > 0.0:
            sends = sum(rng.geometric(self.p_round, size=n_seg).tolist())
        else:
            sends = _INT64_MAX  # no round can succeed
        # numpy saturates a geometric draw at the int64 maximum (p below ~1e-19),
        # so such a draw fails this check too
        if sends * m >= _INT64_MAX:
            raise ValueError(
                f"segment rounds succeed with probability {self.p_round:.3g}: one "
                "replication would send more fragments than 64-bit counters hold"
            )
        failed = sends - n_seg
        frag_rounds = int(rng.binomial(failed, self.p_frag_round))
        lost = int(rng.multinomial(frag_rounds, self.lost_pmf) @ self.lost_sizes)
        data_drops = rng.multinomial(lost, self.data_drop_pmf)
        ack_drops = rng.multinomial(failed - frag_rounds, self.ack_drop_pmf)
        crossed = np.concatenate([
            sends * m - lost + _beyond(data_drops),
            n_seg + _beyond(ack_drops),
        ])
        counts = rng.multinomial(crossed, self.class_pmf)
        drops = np.concatenate([data_drops, ack_drops])
        counts[np.arange(len(drops)), self.drop_class] += drops
        flat = counts.ravel().tolist()
        totals = {
            name: sum(map(operator.mul, flat, weights))
            for name, weights in self.class_weights.items()
        }
        bits = totals.pop("bits")
        totals["hop_drops"] = lost + failed - frag_rounds
        totals["segment_sends"] = sends
        totals["segment_retx"] = failed
        return float(bits), totals, False


class _Replay:
    """Bit fidelity: every attempt of every round, event by event."""

    method = "replay"

    def __init__(self, scenario: PathScenario, round_cap: int):
        frames = resolve_frames(scenario.mss_bytes, scenario.layout)
        self.m = frames.m
        self.h = len(scenario.hops)
        self.d_data = frames.d_data_bits
        self.c_data = frames.c_data_bits
        self.d_ack = frames.d_ack_bits
        self.c_ack = frames.c_ack_bits
        self.a = scenario.layout.ll_ack_bits
        self.data_hops = tuple(scenario.hops)
        self.ack_hops = tuple(reversed(scenario.hops))  # TCP ACK travels back
        self.segments = scenario.segments
        self.round_cap = round_cap

    def _phase_bit(self, rng, hops, d_bits, c_bits, shape):
        """Bit-fidelity hop summaries: raw binomial error draws per attempt."""
        att = np.empty(shape + (self.h,), np.int64)
        arr = np.empty_like(att)
        par = np.empty_like(att)
        dlv = np.empty(shape + (self.h,), bool)
        for j, hp in enumerate(hops):
            r = hp.r
            nerr = rng.binomial(d_bits, hp.ber, size=shape + (r,))
            data_ok = nerr <= c_bits
            ack_lost = rng.binomial(self.a, hp.ber, size=shape + (r,)) > 0
            succ = data_ok & ~ack_lost
            any_succ = succ.any(axis=-1)
            first = succ.argmax(axis=-1)
            attempts = np.where(any_succ, first + 1, r)
            used = np.arange(r) < attempts[..., None]
            arrivals = (data_ok & used).sum(axis=-1)
            att[..., j] = attempts
            arr[..., j] = arrivals
            par[..., j] = arrivals - any_succ
            dlv[..., j] = arrivals > 0
        return att, arr, par, dlv

    def _chain(self, dlv):
        """(reached, all_delivered): which hops are actually attempted."""
        ok = np.logical_and.accumulate(dlv, axis=-1)
        reached = np.ones_like(dlv)
        reached[..., 1:] = ok[..., :-1]
        return reached, ok[..., -1]

    def round_batch(self, rng, n):
        """One full segment round for n segments: (bits, ok, summed counters)."""
        m = self.m
        att, arr, par, dlv = self._phase_bit(
            rng, self.data_hops, self.d_data, self.c_data, (n, m)
        )
        reached, frag_ok = self._chain(dlv)
        data_bits = ((att * self.d_data + arr * self.a) * reached).sum(axis=(1, 2))
        seg_ok = frag_ok.all(axis=1)

        att2, arr2, par2, dlv2 = self._phase_bit(
            rng, self.ack_hops, self.d_ack, self.c_ack, (n,)
        )
        reached2, ack_through = self._chain(dlv2)
        reached2 &= seg_ok[:, None]  # the TCP ACK is only sent if the data arrived
        ack_bits = ((att2 * self.d_ack + arr2 * self.a) * reached2).sum(axis=1)
        ok = seg_ok & ack_through

        bits = data_bits + ack_bits
        axes = (1, 2)
        c = {
            "link_attempts": (att * reached).sum(axis=axes) + (att2 * reached2).sum(axis=1),
            "link_failures": ((att - arr) * reached).sum(axis=axes)
            + ((att2 - arr2) * reached2).sum(axis=1),
            "partial_failures": (par * reached).sum(axis=axes)
            + (par2 * reached2).sum(axis=1),
            "hop_drops": (reached & ~dlv).sum(axis=axes)
            + (reached2 & ~dlv2).sum(axis=1),
            "duplicates_suppressed": (np.maximum(arr - 1, 0) * reached).sum(axis=axes)
            + (np.maximum(arr2 - 1, 0) * reached2).sum(axis=1),
        }
        return bits, ok, {k: float(v.sum()) for k, v in c.items()}

    def run(self, rng):
        n_seg = self.segments
        bits = np.zeros(n_seg)
        sends = np.zeros(n_seg, dtype=np.int64)
        counters = dict.fromkeys(COUNTER_NAMES, 0.0)
        truncated = False
        active = np.arange(n_seg)
        while active.size:
            round_bits, ok, c = self.round_batch(rng, active.size)
            bits[active] += round_bits
            sends[active] += 1
            for k, v in c.items():
                counters[k] += v
            capped = ~ok & (sends[active] >= self.round_cap)
            if capped.any():
                truncated = True
            active = active[~(ok | capped)]
        counters["segment_sends"] = float(sends.sum())
        counters["segment_retx"] = float(sends.sum() - n_seg)
        return float(bits.sum()), counters, truncated


def _sampler(config: SimConfig) -> _Aggregate | _Replay:
    if config.fidelity == "frame":
        return _Aggregate(config.scenario)
    return _Replay(config.scenario, config.round_cap)


def _run_chunk(config: SimConfig, start: int, stop: int):
    sampler = _sampler(config)
    bits = np.empty(stop - start)
    counters = {k: np.empty(stop - start) for k in COUNTER_NAMES}
    truncated = False
    for i, rep in enumerate(range(start, stop)):
        rng = np.random.default_rng(np.random.SeedSequence([config.master_seed, rep]))
        b, c, t = sampler.run(rng)
        bits[i] = b
        for k in COUNTER_NAMES:
            counters[k][i] = c[k]
        truncated |= t
    return bits, counters, truncated


def simulate(config: SimConfig) -> SimReport:
    """Run the Monte Carlo and aggregate replication statistics.

    Deterministic for a given (config, master_seed) regardless of
    ``workers``: replication i's stream depends only on (master_seed, i)
    and aggregation follows replication order.
    """
    sampler = _sampler(config)
    reps = config.replications

    if config.workers == 1 or reps == 1:
        chunks = [(0, reps)]
    else:
        n = min(config.workers, reps)
        bounds = np.linspace(0, reps, n + 1, dtype=int)
        chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]

    if len(chunks) == 1:
        results = [_run_chunk(config, *chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_run_chunk, config, a, b) for a, b in chunks]
            results = [f.result() for f in futures]

    bits = np.concatenate([r[0] for r in results])
    counters = {
        k: np.concatenate([r[1][k] for r in results]) for k in COUNTER_NAMES
    }
    truncated = any(r[2] for r in results)

    mean = float(bits.mean())
    stddev = float(bits.std(ddof=1)) if reps > 1 else 0.0
    stderr = stddev / math.sqrt(reps)

    flags = []
    if truncated:
        flags.append("truncated")
        warnings.warn(
            f"per-segment round cap ({config.round_cap}) fired; "
            "the reported mean is biased low",
            TruncationWarning,
            stacklevel=2,
        )

    return SimReport(
        replications=reps,
        segments=sampler.segments,
        mean_total_bits=mean,
        stddev_total_bits=stddev,
        stderr_total_bits=stderr,
        ci95_half_width=1.96 * stderr,
        mean_total_joules=mean * config.energy.uj_per_bit() * 1e-6,
        method=sampler.method,
        fidelity=config.fidelity,
        truncated=truncated,
        master_seed=config.master_seed,
        rng_algorithm=RNG_ALGORITHM,
        flags=tuple(flags),
        counters=SimCounters(**{k: float(counters[k].mean()) for k in COUNTER_NAMES}),
    )
