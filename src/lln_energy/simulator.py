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
  i.i.d., so a replication's totals are sums over its rounds and hop
  traversals, whatever the order of events. Each replication draws them
  exactly: its failed rounds, uncapped, as one NegativeBinomial(segments,
  p_round) draw, split into "a fragment was dropped" and "only the TCP
  ACK was lost"; the dropped fragments and the hop where each was
  dropped; and each hop's traversal shapes (the first outright success at
  attempt k, or none but a partial, the first at attempt J), with the
  partials among their other attempts. Neither the work nor the memory
  grows with the round or the segment count. A replication whose
  fragment sends would pass 64-bit integers is refused with a
  ``ValueError``, and so is a segment of so many fragments that a block's
  draw of the first dropped one passes ``_MAX_BLOCK_FRAMES`` positions.
* ``bit`` fidelity, method ``replay``. Every attempt that happens is
  replayed: hop by hop, attempt by attempt, over the frames still in
  flight, so a frame draws no attempt after its hop's first success and
  none past the hop that dropped it. The first attempt and the r - 1
  retries run through one loop body. An attempt fails when more bits flip
  than the code corrects, a Binomial(d, BER) tail: drawn as one uniform
  against the threshold where numpy's binomial would invert that uniform
  (``_threshold``), so with the same doubles. ``round_cap`` bounds its
  work; a segment that hits the cap sets ``truncated``. A block of more
  than ``_MAX_BLOCK_FRAMES`` fragments is refused with a ``ValueError``.

Replications run in blocks (each sampler's ``block``): each numpy call
draws one quantity for a whole block, the replay's for every frame of the
block still at that hop and attempt. A replay block holds 16
replications; an aggregate block as many as fill ``_BLOCK_CELLS`` cells
of its largest arrays, and at least 16. The aggregate draw runs its
blocks one at a time. The replay pipelines them: the next block joins a
round while fewer than one block's segments are in flight and the
fragments stay within ``_MAX_BLOCK_FRAMES``, so a round carries one
block's first round and the others' shrinking tails, its bookkeeping runs
once over all of them, and it holds at most two blocks' segments. Block
``b`` derives its RNG stream from ``(master_seed, b)`` and draws from it
just what it would alone, and workers run whole blocks, so serial and
parallel execution produce byte-identical reports. Bits and counters
are integers, exact until the report divides their totals by the
replication count: int64 where a float bound shows a sum fits, Python
ints past that.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .framing import resolve_frames
from .hopmodel import _attempt_probs
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
#: The most fragments a block, or the bit replay's blocks in flight, hold at
#: once: the replay's index arrays, a few int64 entries per fragment, and
#: the aggregate draw's first-drop counts, an int64 per replication and
#: fragment, stay under about 1 GiB
_MAX_BLOCK_FRAMES = 2**24
#: The cells an aggregate block's largest arrays hold past its floor of 16
#: replications, 128 KiB of int64 each: a run of a few hundred replications
#: over a few hops is one block, and pays its numpy calls' fixed cost once
_BLOCK_CELLS = 2**14


class TruncationWarning(RuntimeWarning):
    """The bit replay's per-segment round cap fired; the mean is biased low."""


@dataclass(frozen=True)
class SimConfig:
    scenario: PathScenario
    energy: EnergyParams = field(default_factory=EnergyParams)
    replications: int = 1000
    master_seed: int = 1
    fidelity: str = "frame"  # "frame" | "bit"
    # bit fidelity: end-to-end rounds per segment before the replay truncates
    round_cap: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}")
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
        """Flat key/value record, written alongside model records.

        The fields in order, with ``counters`` flattened in place; ``vars``
        of a frozen dataclass holds just the fields, in order.
        """
        rec = dict(vars(self))
        rec["flags"] = ";".join(self.flags)
        rec.update(vars(rec.pop("counters")))
        return rec


def _normalized(w: np.ndarray) -> np.ndarray:
    """Each row of ``w`` over its sum; a row of zeros stays zeros."""
    total = w.sum(axis=-1, keepdims=True)
    return np.divide(w, total, out=np.zeros_like(w), where=total > 0)


def _log_pass(p_drop: np.ndarray) -> float:
    """Log-probability that a frame crosses hops dropping it with ``p_drop``."""
    if (p_drop >= 1.0).any():
        return -math.inf
    return math.fsum(math.log1p(-p) for p in p_drop.tolist())


def _drop_site_pmf(p_drop: np.ndarray) -> np.ndarray:
    """Where a dropped frame stopped: hop j with weight reach_j * drop_j."""
    reach, weights = 1.0, []
    for p in p_drop.tolist():
        weights.append(reach * p)
        reach *= 1.0 - p
    return _normalized(np.asarray(weights))


def _beyond(drops: np.ndarray) -> np.ndarray:
    """For each hop, the frames dropped at a later hop (they crossed this one)."""
    return np.cumsum(drops[..., ::-1], axis=-1)[..., ::-1] - drops


def _exact_dot(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``counts @ weights`` for non-negative integer arrays, without int64 wrap.

    Each row's count total times the largest weight bounds its totals:
    below 2**62 the int64 product is exact, past it Python ints sum them.
    """
    bound = counts.sum(axis=1, dtype=np.float64).max(initial=0.0) * float(weights.max())
    return counts @ weights if bound < 2.0**62 else counts.astype(object) @ weights


def _binomial(rng, trials: np.ndarray, p) -> np.ndarray:
    """Binomial(trials, p); a count in an object array, which may pass int64,
    is drawn as a sum of parts that numpy's int64 draw takes."""
    if trials.dtype != object:
        return rng.binomial(trials, p)
    draws = np.empty(trials.shape, dtype=object)
    for i, (n, q) in enumerate(zip(trials.flat, np.broadcast_to(p, trials.shape).flat)):
        whole, rest = divmod(n, _INT64_MAX)
        draws.flat[i] = sum(rng.binomial([_INT64_MAX] * whole + [rest], q).tolist())
    return draws


class _Aggregate:
    """Frame fidelity: one exact draw of each replication's totals."""

    method = "aggregate"

    def __init__(self, config: SimConfig):
        scenario = config.scenario
        frames = resolve_frames(scenario.mss_bytes, scenario.layout)
        self.a = a = scenario.layout.ll_ack_bits
        self.m = m = frames.m
        # one row per hop traversal type: the data hops, then the TCP ACK's,
        # which crosses them in reverse order
        h = len(scenario.hops)
        hops = scenario.hops + scenario.hops[::-1]
        self.r = r = np.array([hp.r for hp in hops])
        #: replications drawn by each numpy call: at least 16, and as many as
        #: _BLOCK_CELLS cells of the largest arrays hold (per replication,
        #: each row's r + 1 shapes and r first partials, and m first drops)
        self.block = max(16, _BLOCK_CELLS // (2 * h * (2 * int(r.max()) + 1) + m))
        if self.block * m > _MAX_BLOCK_FRAMES:
            raise ValueError(
                f"{m} fragments per segment: a block of {self.block} replications "
                f"would draw the first dropped fragment over {self.block * m} "
                f"positions at once, past its {_MAX_BLOCK_FRAMES}"
            )
        self.segments = scenario.segments
        self.frame_bits = np.repeat([frames.d_data_bits, frames.d_ack_bits], h)
        pf, pp, ps = _attempt_probs(self.frame_bits,
                                    np.repeat([frames.c_data_bits, frames.c_ack_bits], h),
                                    a, np.array([hp.ber for hp in hops]))

        # A delivered traversal's shape: column 0, no outright success in r
        # attempts but a partial (data through, link ACK lost); column c,
        # the first outright success at attempt k = R + 1 - c, 0 past r.
        # k = 1 weighs most of these and comes last, where numpy's
        # multinomial puts any rounding remainder; if no attempt can
        # succeed outright, they all weigh 0 and column 0 takes all.
        u = pf + pp
        #: the chance that an attempt other than a success is a partial
        self.theta = np.divide(pp, u, out=np.zeros_like(u), where=u > 0)
        self.k = np.arange(r.max(), 0, -1)
        live = self.k <= r[:, None]
        with np.errstate(divide="ignore"):  # log1p(-1) where pf = 0: none is u**r
            none = u**r * -np.expm1(r * np.log1p(-self.theta))
        success = np.where(live, ps[:, None] * u[:, None] ** (self.k - 1), 0.0)
        self.shape_pmf = _normalized(np.column_stack([none, success]))
        # Shape 0's first partial at J = R - c (column c), a truncated
        # geometric with ratio pf / u, its largest weight J = 1 last again
        self.first_partial_pmf = _normalized(
            np.where(live, (1.0 - self.theta)[:, None] ** (self.k - 1), 0.0))
        self.after_first = np.where(live, r[:, None] - self.k, 0)
        # the most bits a traversal can cost, to bound a block's totals
        self.traversal_bits = (r * (self.frame_bits + a)).astype(float)

        # the hop drops the frame: pf**r, one Python power each, as the model's
        p_drop = np.array([x**k for x, k in zip(pf.tolist(), r.tolist())])
        log_frag, log_ack = _log_pass(p_drop[:h]), _log_pass(p_drop[h:])
        self.p_round = math.exp(m * log_frag + log_ack)
        p_frag_lost = -math.expm1(m * log_frag)
        p_ack_lost = math.exp(m * log_frag) * -math.expm1(log_ack)
        p_fail = p_frag_lost + p_ack_lost
        self.p_frag_round = p_frag_lost / p_fail if p_fail > 0 else 0.0
        # A round that lost a fragment lost its first at J = m - c (column
        # c), a truncated geometric, then each of the m - J after it with p.
        self.p_frag_drop = -math.expm1(log_frag)
        self.first_drop_pmf = _normalized(math.exp(log_frag) ** np.arange(m - 1, -1, -1.0))
        self.after_drop = np.arange(m)
        self.data_drop_pmf = _drop_site_pmf(p_drop[:h])
        self.ack_drop_pmf = _drop_site_pmf(p_drop[h:])

    def _failed_rounds(self, rng, n: int) -> np.ndarray:
        """Each replication's failed segment rounds, refused past 64-bit
        fragment sends: the sum of its segments' Geometric(p_round) round
        counts less one each, one NegativeBinomial(segments, p_round) draw."""
        try:  # numpy refuses p = 0 (no round can succeed) and p too small
            failed = rng.negative_binomial(self.segments, self.p_round, size=n)
            if (max(failed.tolist()) + self.segments) * self.m < _INT64_MAX:
                return failed
        except ValueError:
            pass
        raise ValueError(
            f"segment rounds succeed with probability {self.p_round:.3g}: one "
            "replication would send more fragments than 64-bit counters hold"
        )

    def _lost(self, rng, frag_rounds: np.ndarray) -> np.ndarray:
        """Fragments dropped over each count of rounds that lost one."""
        after = rng.multinomial(frag_rounds, self.first_drop_pmf) @ self.after_drop
        return frag_rounds + rng.binomial(after, self.p_frag_drop)

    def _traversals(self, rng, crossed: np.ndarray, drops: np.ndarray):
        """Each row's (attempts, partials, duplicates) over ``crossed``
        delivered and ``drops`` dropped traversals, per replication: int64
        where a bound on the block's bits shows their sums fit, else Python
        ints in object arrays."""
        shapes = rng.multinomial(crossed, self.shape_pmf)
        firsts = rng.multinomial(shapes[..., 0], self.first_partial_pmf)
        if ((crossed + drops) @ self.traversal_bits).max(initial=0.0) >= 2.0**62:
            crossed, drops, shapes, firsts = (
                x.astype(object) for x in (crossed, drops, shapes, firsts))
        none = shapes[..., 0]
        tried = shapes[..., 1:] @ self.k
        # each attempt but a success and a no-success traversal's first J may
        # be a partial; every arrival but a traversal's first is a duplicate
        free = tried - (crossed - none) + (firsts * self.after_first).sum(axis=-1)
        duplicates = _binomial(rng, free, self.theta)
        return tried + self.r * (none + drops), none + duplicates, duplicates

    def run_block(self, rng, n: int):
        """n replications' (bits, counters): integer arrays of n."""
        m, n_seg = self.m, self.segments
        failed = self._failed_rounds(rng, n)
        sends = failed + n_seg
        frag_rounds = rng.binomial(failed, self.p_frag_round)
        lost = self._lost(rng, frag_rounds)
        data_drops = rng.multinomial(lost, self.data_drop_pmf)
        ack_drops = rng.multinomial(failed - frag_rounds, self.ack_drop_pmf)
        crossed = np.concatenate([
            (sends * m - lost)[:, None] + _beyond(data_drops),
            n_seg + _beyond(ack_drops),
        ], axis=1)
        attempts, partials, duplicates = self._traversals(
            rng, crossed, np.concatenate([data_drops, ack_drops], axis=1))
        link_attempts = attempts.sum(axis=1)
        arrivals = (crossed + duplicates).sum(axis=1)
        return attempts @ self.frame_bits + arrivals * self.a, {
            "link_attempts": link_attempts,
            "link_failures": link_attempts - arrivals,
            "partial_failures": partials.sum(axis=1),
            "hop_drops": lost + failed - frag_rounds,
            "duplicates_suppressed": duplicates.sum(axis=1),
            "segment_sends": sends,
            "segment_retx": failed,
        }

    def run(self, rngs, counts):
        """Blocks of ``counts`` replications, drawn from ``rngs``, one at a
        time: each replication's bits, each counter's exact total, and False."""
        bits, totals = [], dict.fromkeys(COUNTER_NAMES, 0)
        for rng, n in zip(rngs, counts):
            block_bits, counters = self.run_block(rng, n)
            bits.append(block_bits)
            for k, v in counters.items():
                totals[k] += sum(v.tolist())
        return np.concatenate(bits), totals, False


class _Replay:
    """Bit fidelity: every attempt that happens, event by event."""

    method = "replay"
    #: replications per generator; each attempt draws once per block in flight
    block = 16

    def __init__(self, config: SimConfig):
        scenario = config.scenario
        frames = resolve_frames(scenario.mss_bytes, scenario.layout)
        self.m = frames.m
        a = scenario.layout.ll_ack_bits
        # bits sent per data attempt, TCP-ACK attempt and arrival (its link ACK)
        self.frame_bits = np.array([[frames.d_data_bits], [frames.d_ack_bits], [a]])

        # a draw key (n, p, c, threshold), each found once per replay
        key = cache(lambda n, p, c: (n, p, c, _threshold(n, p, c)))

        def phase(hops, d_bits, c_bits):
            # per hop (the TCP ACK travels back): r, and the draw keys of its
            # frame (raw bits, the errors its code corrects) and link ACK
            return tuple((hp.r, key(d_bits, hp.ber, c_bits), key(a, hp.ber, 0)) for hp in hops)

        self.data = phase(scenario.hops, frames.d_data_bits, frames.c_data_bits)
        self.ack = phase(scenario.hops[::-1], frames.d_ack_bits, frames.c_ack_bits)
        self.segments = scenario.segments
        self.round_cap = config.round_cap
        frames_in_flight = self.block * self.segments * self.m
        if frames_in_flight > _MAX_BLOCK_FRAMES:
            raise ValueError(
                f"{self.segments} segments: a bit-replay block of {self.block} "
                f"replications would track {frames_in_flight} fragments ({self.m} per "
                f"segment) at once, past its {_MAX_BLOCK_FRAMES}"
            )

    def _phase(self, rngs, phase, owners, cuts, marks, tried, arrived):
        """Carry frames across the phase's hops; the owners of those through.

        ``owners`` holds each frame's segment position, sorted. Position
        ``cuts[i]`` starts the i-th replication in flight (the last cut is
        the end), and cut ``marks[j]`` the j-th block's replications, which
        draw from ``rngs[j]``. Each draw's frames add, cumulatively at the
        cuts, to ``tried`` (data or TCP-ACK attempts) or ``arrived`` (link
        ACKs). A hop's r attempts run through one loop body over the frames
        still trying: draw their data, then the arrivals' link ACKs; a frame
        leaves at its first link ACK. Returns the owners through and the
        phase's partials (lost link ACKs), drops and late deliveries (a frame
        out of attempts whose data got through at least once), as ints.
        """
        partials = drops = lates = 0
        for r, frame, link_ack in phase:
            if not owners.size:
                break
            # ``at`` counts the frames before each cut; ``pending`` holds the
            # frames still trying this hop, as positions in ``owners``, and
            # ``seen``, by position, whether a frame's data got through.
            # Positions are int32, as ``_MAX_BLOCK_FRAMES`` fit: it halves
            # the first attempt's ``pending``, one entry per frame
            at = owners.searchsorted(cuts).astype(np.int32)
            pending, seen = np.arange(owners.size, dtype=np.int32), np.zeros(owners.size, bool)
            for _ in range(r):
                if not pending.size:
                    break
                # ``tries`` and ``got`` count the attempts and the arrivals
                # before each cut, ``edges`` the attempts before each block mark
                tries = pending.searchsorted(at)
                edges = tries[marks].tolist()
                stay = _draws(rngs, frame, edges, edges)
                failed = stay.nonzero()[0]  # failed data copies
                got = tries - failed.searchsorted(tries)
                lost = _draws(rngs, link_ack, got[marks].tolist(), edges).nonzero()[0]
                tried += tries
                arrived += got
                if lost.size:
                    # the i-th arrival follows the failed copies j with failed[j] - j <= i
                    lost += (failed - np.arange(failed.size)).searchsorted(lost, side="right")
                    partials += lost.size
                    stay[lost] = True
                    seen[pending[lost]] = True
                pending = pending.compress(stay)  # on masks this mixed, faster than pending[stay]
            dropped = pending[~seen[pending]]  # arrived nowhere: the frame leaves the path
            lates += pending.size - dropped.size
            if dropped.size:
                drops += dropped.size
                keep = np.ones(owners.size, bool)
                keep[dropped] = False
                owners = owners[keep]
        return owners, partials, drops, lates

    def run(self, rngs, counts):
        """Blocks of ``counts`` replications, drawn from ``rngs``, in turn:
        each replication's bits, each counter's exact total, and whether a
        segment hit the round cap.

        The blocks are pipelined. The next block joins at a round's start
        while fewer than one block's segments are in flight and its
        fragments fit within ``_MAX_BLOCK_FRAMES``, so a round carries one
        block's first round and the other blocks' shrinking tails. Every
        block draws just what it would alone, from its own generator.
        """
        n_seg, m = self.segments, self.m
        rngs, live, joined = iter(rngs), {}, 0
        # per replication: data attempts, TCP-ACK attempts, arrivals
        tally = np.zeros((3, sum(counts)), np.int64)
        rep = np.empty(0, np.int64)  # each segment in flight's replication, sorted
        sends = np.empty(0, np.int64)  # its rounds so far
        partials = drops = lates = segment_sends = 0
        truncated = False
        while True:
            while joined < len(counts) and rep.size < self.block * n_seg and (
                    (rep.size + counts[joined] * n_seg) * m <= _MAX_BLOCK_FRAMES):
                live[joined] = next(rngs)
                first = joined * self.block
                rep = np.concatenate([rep, np.repeat(np.arange(first, first + counts[joined]), n_seg)])
                sends = np.concatenate([sends, np.zeros(counts[joined] * n_seg, np.int64)])
                joined += 1
            if not rep.size:
                break
            cuts = np.concatenate([[0], np.flatnonzero(np.diff(rep)) + 1, [rep.size]])
            reps = rep[cuts[:-1]]
            blocks = reps // self.block
            marks = np.concatenate([[0], np.flatnonzero(np.diff(blocks)) + 1, [reps.size]])
            live = {b: live[b] for b in blocks[marks[:-1]].tolist()}
            block_rngs = list(live.values())
            drawn = np.zeros((3, cuts.size), np.int64)
            through, *data = self._phase(block_rngs, self.data, np.arange(rep.size).repeat(m),
                                         cuts, marks, drawn[0], drawn[2])
            # the TCP ACK is only sent if every fragment arrived
            seg_ok = np.flatnonzero(np.bincount(through, minlength=rep.size) == m)
            through, *ack = self._phase(block_rngs, self.ack, seg_ok, cuts, marks,
                                        drawn[1], drawn[2])
            partials, drops, lates = map(sum, zip((partials, drops, lates), data, ack))
            tally[:, reps] += np.diff(drawn, axis=1)
            segment_sends += rep.size
            sends += 1
            ok = np.zeros(rep.size, bool)
            ok[through] = True
            capped = ~ok & (sends >= self.round_cap)
            truncated |= bool(capped.any())
            keep = ~(ok | capped)
            rep, sends = rep[keep], sends[keep]
        data_att, ack_att, arrivals = (sum(x.tolist()) for x in tally)
        return _exact_dot(tally.T, self.frame_bits)[:, 0], {
            "link_attempts": data_att + ack_att,
            "link_failures": data_att + ack_att - arrivals,
            "partial_failures": partials,
            "hop_drops": drops,
            # every arrival after a hop's first: partials less the late deliveries
            "duplicates_suppressed": partials - lates,
            "segment_sends": segment_sends,
            "segment_retx": segment_sends - sum(counts) * n_seg,
        }, truncated


def _draws(rngs, key, edges, tried):
    """The blocks' draws of ``key`` end to end, as whether each passes. Block
    j draws ``edges[j + 1] - edges[j]`` from ``rngs[j]`` in one call, made
    even for none where ``tried`` steps up: the block had frames at the
    attempt."""
    parts = [_draw(rng, key, hi - lo)
             for rng, lo, hi, t0, t1 in zip(rngs, edges, edges[1:], tried, tried[1:]) if t1 > t0]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _draw(rng, key, size):
    """Whether each of ``size`` Binomial(n, p) draws passes ``c``, for ``key``
    ``(n, p, c, t)``: a uniform above ``t``, or numpy's binomial where ``t``
    is None; either way the generator moves as the binomial moves it."""
    n, p, c, t = key
    return rng.binomial(n, p, size=size) > c if t is None else rng.random(size) > t


def _threshold(n, p, c):
    """The largest double from which numpy's Binomial(n, p) inversion draws
    at most ``c``, or None where numpy does not invert (p = 0, p > 0.5 or
    n p > 30). The inversion walks X up while its uniform exceeds each term,
    which it then subtracts, so X grows with the uniform. Past ``bound`` it
    starts over from a new uniform: a ``c`` at or past it never passes, and
    below it such a restart, under 1e-14 a draw, is the one place where the
    two draws part (each exact)."""
    if not 0 < p <= 0.5 or p * n > 30.0:
        return None
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))  # numpy starts the walk so, not from log(q)
    if c >= int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1))):
        return 1.0
    if c == 0:
        return qn

    def stays(bits):  # the walk from the double with these bits stops by c
        u, px = struct.unpack("<d", struct.pack("<q", bits))[0], qn
        for x in range(1, c + 2):
            if u <= px:
                return True
            u, px = u - px, (n - x + 1) * p * px / (x * q)
        return False

    lo, hi = 0, 0x3FF0000000000000  # the bits of 0.0, which stays, and 1.0
    while hi - lo > 1:
        lo, hi = (mid, hi) if stays(mid := (lo + hi) // 2) else (lo, mid)
    return struct.unpack("<d", struct.pack("<q", lo))[0]


_SAMPLERS = {"frame": _Aggregate, "bit": _Replay}
#: The fidelities ``SimConfig`` accepts, one sampler each
FIDELITIES = tuple(_SAMPLERS)


def _run_blocks(sampler, config: SimConfig, start: int, stop: int):
    """Blocks start..stop-1 of the run; block b draws from (master_seed, b).

    A worker runs its share of the blocks with its own copy of the sampler.
    Returns each replication's bits, each counter's exact total, and
    whether the round cap fired.
    """
    size, reps = sampler.block, config.replications
    rngs = (np.random.default_rng(np.random.SeedSequence([config.master_seed, b]))
            for b in range(start, stop))
    return sampler.run(rngs, [min(size, reps - b * size) for b in range(start, stop)])


def simulate(config: SimConfig) -> SimReport:
    """Run the Monte Carlo and aggregate replication statistics.

    Deterministic for a given (config, master_seed) regardless of
    ``workers``: the sampler and its block size come from the config, block
    b's stream depends only on (master_seed, b), each worker runs whole
    blocks, and the totals are exact integers until the final division, so
    the order in which they are added does not matter. It starts at most
    one worker per block and per CPU this process may run on.
    """
    reps = config.replications
    sampler = _SAMPLERS[config.fidelity](config)
    n_blocks = -(-reps // sampler.block)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.workers, n_blocks, cpus or 1)
    if workers == 1:
        chunks = [_run_blocks(sampler, config, 0, n_blocks)]
    else:
        # imported here: a serial run, the common case, does without it
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, n_blocks, workers + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_blocks, sampler, config, a, b)
                       for a, b in zip(bounds[:-1], bounds[1:])]
            chunks = [f.result() for f in futures]

    bits = np.concatenate([c[0] for c in chunks])
    truncated = any(c[2] for c in chunks)
    mean_bits = sum(bits.tolist()) / reps  # exact integer total, rounded once
    stddev = float(bits.astype(np.float64).std(ddof=1)) if reps > 1 else 0.0
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
        segments=config.scenario.segments,
        mean_total_bits=mean_bits,
        stddev_total_bits=stddev,
        stderr_total_bits=stderr,
        ci95_half_width=1.96 * stderr,
        mean_total_joules=config.energy.joules(mean_bits),
        method=sampler.method,
        fidelity=config.fidelity,
        truncated=truncated,
        master_seed=config.master_seed,
        rng_algorithm=RNG_ALGORITHM,
        flags=tuple(flags),
        counters=SimCounters(
            **{k: sum(c[1][k] for c in chunks) / reps for k in COUNTER_NAMES}
        ),
    )
