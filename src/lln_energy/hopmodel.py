"""One-hop link-layer model: attempt outcome probabilities and truncated-ARQ expectations.

A data frame of ``d`` bits (of which up to ``c`` corrupted bits can be
repaired by the FEC decoder) crosses a link whose bits flip independently
with probability ``ber``. Each attempt ends one of three ways: the frame is
uncorrectable and the receiver stays silent (failure), the frame is decoded
but its ``a``-bit link-layer acknowledgement is lost so the sender retries
needlessly (partial failure), or both directions get through (success). The
sender stops at the first success, or gives up after ``r`` attempts.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

__all__ = [
    "MAX_FLOAT_COMB_N",
    "HopParams",
    "AttemptProbs",
    "HopModel",
    "frame_error_prob",
    "attempt_probs",
    "expected_success_bits",
    "hop_model",
]

#: Hop models kept by ``hop_model``'s LRU cache. A frontier scans 61 BERs
#: for 3 distinct frames (the data frame at each compared MSS and their
#: shared TCP-ACK frame) at every hop count, and bisects a few more; 256
#: entries hold that grid across hop counts at a fraction of a MiB.
HOP_MODEL_CACHE_SIZE = 256
#: The largest n whose central binomial coefficient comb(n, n // 2) is a
#: float. The simulator weighs attempt classes by comb(r, i) and dropped
#: fragments by comb(m, d), so it bounds r and m; the model needs neither.
MAX_FLOAT_COMB_N = 1029


@dataclass(frozen=True)
class HopParams:
    """Per-hop link parameters: bit error rate and ARQ attempt limit.

    ``r`` must be integral and is stored as a plain int, because
    ``hop_model`` caches on these fields: a float or numpy ``r`` would
    otherwise share the cache entry of the int it equals.
    """

    ber: float
    r: int = 3

    def __post_init__(self):
        if not 0.0 <= self.ber < 1.0:
            raise ValueError(f"ber must be in [0, 1), got {self.ber}")
        try:
            r = operator.index(self.r)
        except TypeError:
            raise ValueError(
                f"attempt limit r must be an integer, got {self.r!r}"
            ) from None
        if r < 1:
            raise ValueError(f"attempt limit r must be >= 1, got {self.r}")
        if r > MAX_FLOAT_COMB_N:
            raise ValueError(
                f"attempt limit r must be <= {MAX_FLOAT_COMB_N}, got {r}: past it the "
                "simulator's attempt-class weights comb(r, i) leave the float range"
            )
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class AttemptProbs:
    """Outcome probabilities of a single link-layer transmission attempt."""

    p_fail: float
    p_partial: float
    p_succ: float


@dataclass(frozen=True)
class HopModel:
    """Truncated-ARQ expectations for one hop.

    ``f`` is the probability the receiver never gets the frame in ``r``
    attempts; ``h_f`` the bits sent in that case (always exactly r*d, only
    the sender talks); ``h_s`` the expected bits sent given the frame got
    through. ``h_s`` is None and ``degenerate`` is set when every attempt
    fails with certainty, i.e. the hop can never deliver.
    """

    f: float
    h_s: float | None
    h_f: float
    probs: AttemptProbs
    degenerate: bool = False


def frame_error_prob(d_bits: int, c_bits: int, ber: float) -> float:
    """Probability that more than ``c_bits`` of a ``d_bits`` frame arrive corrupted.

    Evaluates the binomial tail 1 - sum_{i<=c} C(d,i) ber^i (1-ber)^(d-i).
    Whichever tail of the distribution is the smaller sum is evaluated
    directly, so results near 0 and near 1 both keep full precision.
    """
    if d_bits < 1:
        raise ValueError(f"frame size must be positive, got {d_bits}")
    if not 0 <= c_bits <= d_bits:
        raise ValueError(f"correctable bits {c_bits} outside [0, {d_bits}]")
    if not 0.0 <= ber < 1.0:
        raise ValueError(f"ber must be in [0, 1), got {ber}")
    if ber == 0.0 or c_bits == d_bits:
        return 0.0
    if c_bits < d_bits * ber:
        # result is large; the complementary lower tail is the small sum
        low = _binom_range_sum(d_bits, 0, c_bits, ber)
        return min(1.0, max(0.0, 1.0 - low))
    return min(1.0, _binom_range_sum(d_bits, c_bits + 1, d_bits, ber))


def _binom_range_sum(d: int, lo: int, hi: int, p: float) -> float:
    """sum_{i=lo}^{hi} C(d,i) p^i (1-p)^(d-i), by term recurrence.

    The first term is taken in log space and the recurrence runs in a
    scaled linear space, so the sum survives (1-p)^d underflowing.
    """
    log_t0 = (
        math.lgamma(d + 1)
        - math.lgamma(lo + 1)
        - math.lgamma(d - lo + 1)
        + lo * math.log(p)
        + (d - lo) * math.log1p(-p)
    )
    offset = log_t0
    t = 1.0
    acc = 1.0
    ratio = p / (1.0 - p)
    mode = d * p
    for i in range(lo, hi):
        t *= ratio * (d - i) / (i + 1.0)
        acc += t
        if acc > 1e250:
            t /= 1e250
            acc /= 1e250
            offset += math.log(1e250)
        elif i > mode and t < acc * 1e-20:
            break  # terms decay geometrically past the mode
    return math.exp(offset + math.log(acc))


def attempt_probs(d_bits: int, c_bits: int, a_bits: int, ber: float) -> AttemptProbs:
    """Single-attempt outcome probabilities for given frame sizes and BER.

    The acknowledgement frame carries no redundancy, so a partial failure
    needs every one of its ``a_bits`` to survive.
    """
    if a_bits < 1:
        raise ValueError(f"ack frame size must be >= 1 bit, got {a_bits}")
    p_fail = frame_error_prob(d_bits, c_bits, ber)
    ack_ok = math.exp(a_bits * math.log1p(-ber))
    got_data = 1.0 - p_fail
    return AttemptProbs(
        p_fail=p_fail,
        p_partial=got_data * (1.0 - ack_ok),
        p_succ=got_data * ack_ok,
    )


def expected_success_bits(
    probs: AttemptProbs, r: int, d_bits: int, a_bits: int
) -> float | None:
    """Expected bits sent in <= r attempts, given the data frame got through.

    Delivery happens one of two ways: no attempt succeeded outright but at
    least one partially failed (data arrived, no ACK ever returned), or
    attempt ``k`` was the first outright success. Every attempt sends the
    data frame; each partial or successful one adds an ACK. With
    u = pf + pp, the first way has probability u^r - pf^r and weighs its
    partials r*pp*u^(r-1); a first success at k has probability ps*u^(k-1)
    and weighs the partials before it ps*(k-1)*pp*u^(k-2). One pass over k
    sums them, building u^k - pf^k as D_k = u*D_(k-1) + pp*pf^(k-1), whose
    non-negative terms do not cancel when pf is close to u. Returns None
    when delivery is impossible (every attempt fails with certainty).
    """
    pf, pp, ps = probs.p_fail, probs.p_partial, probs.p_succ
    denom = 1.0 - pf**r
    if denom <= 0.0:
        return None
    u = pf + pp
    u_before = 0.0  # u^(k-2)
    u_k = 1.0  # u^(k-1)
    pf_k = 1.0  # pf^(k-1)
    diff = 0.0  # D_(k-1) = u^(k-1) - pf^(k-1)
    with_succ = 0.0
    for k in range(1, r + 1):
        with_succ += (k * d_bits + a_bits) * u_k + a_bits * (k - 1) * pp * u_before
        diff = u * diff + pp * pf_k
        pf_k *= pf
        u_before, u_k = u_k, u_k * u
    return (r * d_bits * diff + a_bits * r * pp * u_before + ps * with_succ) / denom


@functools.lru_cache(maxsize=HOP_MODEL_CACHE_SIZE)
def hop_model(d_bits: int, c_bits: int, a_bits: int, hop: HopParams) -> HopModel:
    """Full one-hop model for a frame of ``d_bits`` over the given hop.

    Memoized: the result depends only on the frame sizes and the hop's
    (ber, r), not on the path around it, and it is frozen, so every path,
    hop count and MSS that needs the same hop shares one evaluation.
    """
    probs = attempt_probs(d_bits, c_bits, a_bits, hop.ber)
    f = probs.p_fail**hop.r
    h_f = float(hop.r * d_bits)
    h_s = expected_success_bits(probs, hop.r, d_bits, a_bits)
    return HopModel(f=f, h_s=h_s, h_f=h_f, probs=probs, degenerate=h_s is None)
