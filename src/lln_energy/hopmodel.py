"""One-hop link-layer model: attempt outcome probabilities and truncated-ARQ expectations.

A data frame of ``d`` bits (of which up to ``c`` corrupted bits can be
repaired by the FEC decoder) crosses a link whose bits flip independently
with probability ``ber``. Each attempt ends one of three ways: the frame is
uncorrectable and the receiver stays silent (failure), the frame is decoded
but its ``a``-bit link-layer acknowledgement is lost so the sender retries
needlessly (partial failure), or both directions get through (success). The
sender stops at the first success, or gives up after ``r`` attempts.

Every quantity is computed over arrays, one element per (d, c, a, ber, r)
key, in three steps: the binomial tail (``_frame_error_probs``), the
attempt outcomes (``_attempt_probs``) and the ARQ sums (``_success_bits``).
``hop_model_array`` is the one entry, all three steps over a call's
keys, and its ``HopArrays`` the one result. The tail's term recurrence
is the scalar loop itself, run once per key whose tail has terms past
the first (``_log_tail``). Only IEEE ``+ - * /`` run in numpy, each
element in the order of the scalar formulas; ``lgamma``, ``log``,
``log1p``, ``exp`` and ``**`` are per-element ``math`` calls, as numpy's
may differ from libm in the last bit. Integer products (``k*d + a``,
``r*d``, ``a*r``) are exact before their one conversion to float. So
every element equals the scalar evaluation bit for bit. The scalar names
(``frame_error_prob``, ``attempt_probs``, ``expected_success_bits``,
``hop_model``) check their one key, refusing a fractional bit count or
attempt limit rather than truncate it, and call the steps on it. All
but ``expected_success_bits``, which takes attempt probabilities, not a
BER, check it with ``_key``, which returns the key's columns.
``hop_model`` returns its key's row of ``HopArrays`` as a dict;
``attempt_probs`` the (p_fail, p_partial, p_succ) triple that
``expected_success_bits`` takes.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .framing import MAX_FRAME_BITS

__all__ = [
    "MAX_RETRIES",
    "HopParams",
    "HopArrays",
    "frame_error_prob",
    "attempt_probs",
    "expected_success_bits",
    "hop_model",
    "hop_model_array",
]

#: The largest attempt limit r a hop takes. It caps the O(r) work per hop
#: of the model's ARQ pass and of the simulator's traversal-shape draw;
#: lifting it waits on that pass stopping early once its terms vanish.
MAX_RETRIES = 1029

#: The tail recurrence divides its running sum by this once it passes it
_RESCALE = 1e250


@dataclass(frozen=True)
class HopParams:
    """Per-hop link parameters: bit error rate and ARQ attempt limit.

    ``r`` must be integral and is stored as a plain int, so that equal
    hops compare and hash equal whatever integer type built them.
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
        if r > MAX_RETRIES:
            raise ValueError(
                f"attempt limit r must be <= {MAX_RETRIES}, got {r}: the model's ARQ "
                "pass and the simulator's shape draw take O(r) work per hop"
            )
        object.__setattr__(self, "r", r)


class HopArrays(NamedTuple):
    """``hop_model_array``'s result, a float64 array per field and an element
    per key: the outcomes ``p_fail``, ``p_partial`` and ``p_succ`` of one
    attempt; ``f``, the probability the receiver never gets the frame in r
    attempts; ``h_f``, the bits sent then (r*d, only the sender talks); and
    ``h_s``, the expected bits sent given the frame got through, NaN where
    every attempt fails with certainty, i.e. the hop can never deliver."""

    f: np.ndarray
    h_s: np.ndarray
    h_f: np.ndarray
    p_fail: np.ndarray
    p_partial: np.ndarray
    p_succ: np.ndarray


def _columns(*ints, floats=()) -> list[np.ndarray]:
    """The columns as 1-D arrays of one length (a length-1 column repeats):
    ``ints`` int64, ``floats`` float64."""
    cols = [np.asarray(x, dtype=np.int64).reshape(-1) for x in ints]
    cols += [np.asarray(x, dtype=float).reshape(-1) for x in floats]
    n = max(map(len, cols))
    return [x if len(x) == n else x.repeat(n) for x in cols]


def _bit_counts(**counts) -> list[int]:
    """The named bit counts as ints, each refused unless an integer in
    [0, MAX_FRAME_BITS], before an int64 column truncates or overflows it."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral) or not 0 <= value <= MAX_FRAME_BITS:
            raise ValueError(f"{name} must be an integer in [0, {MAX_FRAME_BITS}], got {value!r}")
    return [int(value) for value in counts.values()]


def _key(d_bits, c_bits, ber, a_bits=1) -> list[np.ndarray]:
    """The one key's (d, c, a, ber) columns, refusing a bit count that is
    not an integer in [0, MAX_FRAME_BITS], a frame or ACK of no bits,
    correctable bits outside [0, d] or, by ``HopParams``' check, a BER
    outside [0, 1)."""
    d, c, a = _bit_counts(d_bits=d_bits, c_bits=c_bits, a_bits=a_bits)
    ber = float(ber)
    if a < 1:
        raise ValueError(f"ack frame size must be >= 1 bit, got {a}")
    if d < 1:
        raise ValueError(f"frame size must be positive, got {d}")
    if not 0 <= c <= d:
        raise ValueError(f"correctable bits {c} outside [0, {d}]")
    return _columns(d, c, a, floats=(HopParams(ber).ber,))


def _exact(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (r, d, a) columns in a dtype in which r*d + a, and so each
    integer product of them that the ARQ sums form, is exact: float64 below
    2**53, int64 below 2**63, Python ints past that."""
    r, d, a = (int(x.max(initial=0)) for x in columns)
    bound = r * (d + a)
    dtype = float if bound < 2**53 else np.int64 if bound < 2**63 else object
    return tuple(x.astype(dtype) for x in columns)


def _log1p_neg(ber: np.ndarray) -> np.ndarray:
    """log1p(-ber) of each element, a ``math`` call each."""
    return np.array([math.log1p(-b) for b in ber.tolist()])


def _frame_error_probs(d, c, ber, log_q) -> np.ndarray:
    """Each element's binomial tail, summed on whichever side is the
    smaller sum, as the scalar does. ``log_q`` is each element's
    log1p(-ber).

    Where c >= d*ber the result is the upper tail, the sum of
    C(d,i) ber^i (1-ber)^(d-i) over i = c+1..d; else it is 1 less the
    lower tail, i = 0..c. Each first term is taken in log space,
    lgamma(d+1) - lgamma(lo+1) - lgamma(d-lo+1) + lo*log(ber) +
    (d-lo)*log1p(-ber), over the keys as arrays. The recurrence runs in
    a scaled linear space, one plain loop (``_log_tail``) per key with
    terms past the first, so a sum survives (1-ber)^d underflowing. A
    lower tail starts at lo = 0, where the first four terms add up to
    exactly 0.0 (lgamma(1) is 0.0, and 0*log(ber) a zero), so only the
    upper tails call ``lgamma`` and ``log``.
    """
    live = np.flatnonzero((ber != 0.0) & (c != d))
    out = np.zeros(len(d))
    if not live.size:
        return out
    if live.size < len(d):
        d, c, ber, log_q = d[live], c[live], ber[live], log_q[live]
    upper = c >= d * ber
    lo, hi = np.where(upper, c + 1, 0), np.where(upper, d, c)
    head = np.zeros(len(d))
    head[upper] = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * math.log(b)
        for n, k, b in zip(d[upper].tolist(), lo[upper].tolist(), ber[upper].tolist())]
    offset = head + (d - lo) * log_q
    runs = np.flatnonzero(lo < hi)  # a tail of one term is its head
    offset[runs] = [_log_tail(*key) for key in zip(
        *(x[runs].tolist() for x in (d, lo, hi, ber, upper, offset)))]
    tail = np.array([math.exp(x) for x in offset.tolist()])
    out[live] = np.minimum(1.0, np.where(upper, tail, np.maximum(0.0, 1.0 - tail)))
    return out


def _log_tail(d: int, lo: int, hi: int, p: float, upper: bool, offset: float) -> float:
    """The log of the sum of terms i = lo..hi of a binomial tail whose
    first term is exp(offset), by the scalar loop's term recurrence.

    An ``upper`` tail starts past the mode, d*p, so its terms only decay
    and its sum, at most d, never nears 1e250: it stops at a term below
    1e-20 of the sum. A lower tail ends below the mode, so its terms only
    grow: each time its sum passes 1e250, its term and sum are divided by
    1e250 and its offset takes log(1e250).
    """
    t = acc = 1.0
    ratio = p / (1.0 - p)
    for i in range(lo, hi):
        t *= ratio * (d - i) / (i + 1.0)
        acc += t
        if upper:
            if t < acc * 1e-20:
                break
        elif acc > _RESCALE:
            t /= _RESCALE
            acc /= _RESCALE
            offset += math.log(_RESCALE)
    return offset + math.log(acc)


def _attempt_probs(d, c, a, ber) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each key's (p_fail, p_partial, p_succ) arrays."""
    log_q = _log1p_neg(ber)
    p_fail = _frame_error_probs(d, c, ber, log_q)
    ack_ok = np.array([math.exp(x) for x in (a * log_q).tolist()])  # a*log1p(-ber), a as float
    got_data = 1.0 - p_fail
    return p_fail, got_data * (1.0 - ack_ok), got_data * ack_ok


def _success_bits(pf, pp, ps, r, pf_r, exact) -> np.ndarray:
    """The one pass over k of ``expected_success_bits``, every key at once,
    given each key's pf**r, and its (r, d, a) as ``_exact`` gives them.
    Each key's sums are read at k = its own r; NaN where delivery is
    impossible."""
    r_x, d, a = exact
    limits = set(r.tolist())
    u = pf + pp
    u_before = np.zeros(len(u))  # u^(k-2)
    u_k = np.ones(len(u))  # u^(k-1)
    pf_k = u_k  # pf^(k-1); the loop rebinds, never writes, these arrays
    diff = with_succ = u_before  # D_(k-1) = u^(k-1) - pf^(k-1), and the sum
    kda, ak = d + a, a - a  # k*d + a and a*(k-1), at k = 1
    sums = np.empty((3, len(u)))  # diff, u^(r-1) and with_succ at k = r
    for k in range(1, max(limits, default=0) + 1):
        with_succ = with_succ + (kda.astype(float, copy=False) * u_k
                                 + ak.astype(float, copy=False) * pp * u_before)
        diff = u * diff + pp * pf_k
        pf_k = pf_k * pf
        u_before, u_k = u_k, u_k * u
        kda, ak = kda + d, ak + a
        if k in limits:
            np.copyto(sums, (diff, u_before, with_succ), where=r == k)
    diff, u_before, with_succ = sums
    denom = 1.0 - pf_r
    bits = ((r_x * d).astype(float, copy=False) * diff
            + (a * r_x).astype(float, copy=False) * pp * u_before + ps * with_succ)
    return np.divide(bits, denom, out=np.full(len(u), math.nan), where=denom > 0.0)


def hop_model_array(d_bits, c_bits, a_bits, ber, r) -> HopArrays:
    """``hop_model`` of each (d, c, a, ber, r), in one pass over the keys.

    The keys are not checked here: ``hop_model`` checks its one key, and
    the model's keys come from ``HopParams`` (ber, r), ``FrameLayout`` (a)
    and ``resolve_frames`` (d, c), which check them.
    """
    d, c, a, r, ber = _columns(d_bits, c_bits, a_bits, r, floats=(ber,))
    p_fail, p_partial, p_succ = _attempt_probs(d, c, a, ber)
    f = np.array([x**k for x, k in zip(p_fail.tolist(), r.tolist())])
    exact = _exact(r, d, a)
    h_s = _success_bits(p_fail, p_partial, p_succ, r, f, exact)
    h_f = (exact[0] * exact[1]).astype(float, copy=False)
    return HopArrays(f, h_s, h_f, p_fail, p_partial, p_succ)


def frame_error_prob(d_bits: int, c_bits: int, ber: float) -> float:
    """Probability that more than ``c_bits`` of a ``d_bits`` frame arrive corrupted.

    Evaluates the binomial tail 1 - sum_{i<=c} C(d,i) ber^i (1-ber)^(d-i).
    Whichever tail of the distribution is the smaller sum is evaluated
    directly, so results near 0 and near 1 both keep full precision.
    """
    d, c, _, ber = _key(d_bits, c_bits, ber)
    return _frame_error_probs(d, c, ber, _log1p_neg(ber)).item(0)


def attempt_probs(d_bits: int, c_bits: int, a_bits: int, ber: float) -> tuple[float, float, float]:
    """(p_fail, p_partial, p_succ) of one attempt, for given frame sizes and BER.

    The acknowledgement frame carries no redundancy, so a partial failure
    needs every one of its ``a_bits`` to survive.
    """
    return tuple(x.item(0) for x in _attempt_probs(*_key(d_bits, c_bits, ber, a_bits)))


def expected_success_bits(probs, r: int, d_bits: int, a_bits: int) -> float | None:
    """Expected bits sent in <= r attempts, given the data frame got through,
    for attempt outcome probabilities ``probs`` = (p_fail, p_partial, p_succ).

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
    r = HopParams(0.0, r).r  # refused as a hop's attempt limit is
    r, d, a, pf, pp, ps = _columns(r, *_bit_counts(d_bits=d_bits, a_bits=a_bits), floats=probs)
    pf_r = np.array([pf.item(0) ** r.item(0)])
    bits = _success_bits(pf, pp, ps, r, pf_r, _exact(r, d, a)).item(0)
    return None if bits != bits else bits


def hop_model(d_bits: int, c_bits: int, a_bits: int, hop: HopParams) -> dict:
    """Full one-hop model for a frame of ``d_bits`` over the given hop: its
    key's row of ``hop_model_array`` as a dict, ``h_s`` None where the hop
    can never deliver."""
    arrays = hop_model_array(*_key(d_bits, c_bits, hop.ber, a_bits), hop.r)
    row = {name: x.item(0) for name, x in arrays._asdict().items()}
    return row | {"h_s": None} if math.isnan(row["h_s"]) else row
