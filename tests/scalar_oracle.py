"""Scalar oracle of the hop, path and segment model, and of the crossover search.

One key or scenario at a time in plain Python floats: each row of the
library's array hop layer (``hopmodel.hop_model_array``) must equal the
dict ``hop_model`` here returns, and the scalar names their values, with
``==``; its batched core (``pathmodel.segment_models``) every
field of the record ``segment_model`` here returns, per-hop lists
included, and the explorer's batched frontier ``crossover_ber`` here
exactly. The arithmetic is the scalar model's, operation for operation.
"""

import math
from dataclasses import replace
from typing import Sequence

from lln_energy.explorer import FrontierPoint
from lln_energy.framing import LayoutError, resolve_frames
from lln_energy.hopmodel import HopParams
from lln_energy.pathmodel import (
    FLAG_DEGENERATE_HOP,
    FLAG_DIVERGES,
    EnergyParams,
    PathScenario,
)


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


def attempt_probs(d_bits: int, c_bits: int, a_bits: int, ber: float) -> tuple[float, float, float]:
    """Single-attempt outcome probabilities (p_fail, p_partial, p_succ) for
    given frame sizes and BER.

    The acknowledgement frame carries no redundancy, so a partial failure
    needs every one of its ``a_bits`` to survive.
    """
    if a_bits < 1:
        raise ValueError(f"ack frame size must be >= 1 bit, got {a_bits}")
    p_fail = frame_error_prob(d_bits, c_bits, ber)
    ack_ok = math.exp(a_bits * math.log1p(-ber))
    got_data = 1.0 - p_fail
    return p_fail, got_data * (1.0 - ack_ok), got_data * ack_ok


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
    pf, pp, ps = probs
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


def hop_model(d_bits: int, c_bits: int, a_bits: int, hop: HopParams) -> dict:
    """Full one-hop model for a frame of ``d_bits`` over the given hop:
    f, h_s (None where the hop can never deliver), h_f and the attempt
    outcomes p_fail, p_partial and p_succ."""
    p_fail, p_partial, p_succ = probs = attempt_probs(d_bits, c_bits, a_bits, hop.ber)
    h_s = expected_success_bits(probs, hop.r, d_bits, a_bits)
    return dict(f=p_fail**hop.r, h_s=h_s, h_f=float(hop.r * d_bits),
                p_fail=p_fail, p_partial=p_partial, p_succ=p_succ)


def point_scenario(base: PathScenario, columns: dict, i: int) -> PathScenario:
    """Point i of a ``segment_models(base, **columns)`` call, as a scenario:
    ``ber`` and ``r`` set every hop, ``h`` repeats the base's first hop,
    ``alpha`` sets the layout's, ``mss`` the segment size."""
    at = {name: values[i] for name, values in columns.items()}
    hops = base.hops[:1] * at["h"] if "h" in at else base.hops
    hops = tuple(HopParams(at.get("ber", hp.ber), at.get("r", hp.r)) for hp in hops)
    layout = replace(base.layout, alpha=at["alpha"]) if "alpha" in at else base.layout
    return PathScenario(hops, layout, at.get("mss", base.mss_bytes), base.transfer_bytes)


def path_success_prob(hop_failure_probs: Sequence[float]) -> float:
    """Probability a frame survives every hop: prod(1 - f_i)."""
    q = 1.0
    for f in hop_failure_probs:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"hop failure probability {f} outside [0, 1]")
        q *= 1.0 - f
    return q


def path_bits(models: Sequence[dict]) -> tuple[float | None, float | None]:
    """(e_s, e_f): expected bits end to end, given success resp. given failure.

    e_s sums the per-hop success expectations. e_f weights, for each hop k,
    the cost of clearing hops before k and burning all attempts on k, by
    the probability that the drop happens exactly there; it is None when
    the path never fails (and e_s is None when some hop can never deliver).
    """
    if not models:
        raise ValueError("need at least one hop model")
    e_s = (
        None
        if any(hm["h_s"] is None for hm in models)
        else sum(hm["h_s"] for hm in models)
    )
    q_s = path_success_prob([hm["f"] for hm in models])
    if 1.0 - q_s <= 0.0:
        return e_s, None
    total = 0.0
    survive = 1.0
    bits_before = 0.0
    for hm in models:
        total += (bits_before + hm["h_f"]) * survive * hm["f"]
        survive *= 1.0 - hm["f"]
        if survive == 0.0:
            break  # later hops are unreachable (and may have h_s undefined)
        bits_before += hm["h_s"]
    return e_s, total / (1.0 - q_s)


def _one_minus_pow(q: float, k: int) -> float:
    """1 - q**k without cancellation for q near 1."""
    if q <= 0.0:
        return 1.0
    return -math.expm1(k * math.log(q))


def fragment_failure_sum(
    m: int, q_s: float, e_s: float | None, e_f: float | None
) -> float:
    """m (1-q_s) e_f + m e_s q_s (1 - q_s^(m-1)); 0 at q_s = 1, m e_f at 0."""
    if m < 1:
        raise ValueError(f"fragment count must be >= 1, got {m}")
    if q_s >= 1.0:
        return 0.0
    if q_s <= 0.0:
        return m * e_f
    return m * (1.0 - q_s) * e_f + m * e_s * q_s * _one_minus_pow(q_s, m - 1)


def segment_model(scenario: PathScenario, energy: EnergyParams = EnergyParams()) -> dict:
    """Full expected-cost model for one scenario: its record, the flags
    joined by ';', then each hop model's f, h_s and h_f as a list, the
    data hops' in path order, then the ACK hops' in travel order."""
    frames = resolve_frames(scenario.mss_bytes, scenario.layout)
    a = scenario.layout.ll_ack_bits
    data_hops = tuple(
        hop_model(frames.d_data_bits, frames.c_data_bits, a, hp)
        for hp in scenario.hops
    )
    ack_hops = tuple(
        hop_model(frames.d_ack_bits, frames.c_ack_bits, a, hp)
        for hp in reversed(scenario.hops)
    )

    q_s = path_success_prob([hm["f"] for hm in data_hops])
    q_s_ack = path_success_prob([hm["f"] for hm in ack_hops])
    e_s, e_f = path_bits(data_hops)
    e_s_ack, e_f_ack = path_bits(ack_hops)

    m = frames.m
    q_s_m = q_s**m
    p_s = q_s_m * q_s_ack

    flags: list[str] = []
    if any(hm["h_s"] is None for hm in data_hops + ack_hops):
        flags.append(FLAG_DEGENERATE_HOP)

    frag_term = fragment_failure_sum(m, q_s, e_s, e_f)
    i_f = frag_term / _one_minus_pow(q_s, m) if 0.0 < q_s < 1.0 else None
    s_s = None if e_s is None or e_s_ack is None else m * e_s + e_s_ack

    if p_s < 1.0:
        if q_s_m == 0.0 or q_s_ack >= 1.0:
            ack_term = 0.0
        else:
            ack_term = (m * e_s + e_f_ack) * q_s_m * (1.0 - q_s_ack)
        s_f = (frag_term + ack_term) / (1.0 - p_s)
    else:
        s_f = None  # rounds never fail

    if p_s > 0.0:
        retry_bits = s_f * (1.0 / p_s - 1.0) if s_f is not None else 0.0
        s = retry_bits + s_s
    else:
        s = math.inf

    segments = scenario.segments
    total_bits = segments * s
    if not math.isfinite(total_bits):
        total_bits = None
        if not math.isfinite(s):
            s = None
        flags.append(FLAG_DIVERGES)

    bers = {hp.ber for hp in scenario.hops}
    rs = {hp.r for hp in scenario.hops}
    record = dict(
        mss_bytes=scenario.mss_bytes,
        transfer_bytes=scenario.transfer_bytes,
        h=len(scenario.hops),
        ber=bers.pop() if len(bers) == 1 else None,
        r=rs.pop() if len(rs) == 1 else None,
        alpha=scenario.layout.alpha,
        m=m,
        d_data_bits=frames.d_data_bits,
        c_data_bits=frames.c_data_bits,
        d_ack_bits=frames.d_ack_bits,
        c_ack_bits=frames.c_ack_bits,
        a_bits=a,
        q_s=q_s,
        q_s_ack=q_s_ack,
        e_s=e_s,
        e_f=e_f,
        e_s_ack=e_s_ack,
        e_f_ack=e_f_ack,
        i_f=i_f,
        p_s=p_s,
        s_s=s_s,
        s_f=s_f,
        s=s,
        segments=segments,
        total_bits=total_bits,
        total_joules=energy.joules(total_bits),
        flags=";".join(flags),
    )
    for side, hops in (("data", data_hops), ("ack", ack_hops)):
        for name in ("f", "h_s", "h_f"):
            record[f"{name}_{side}"] = [hm[name] for hm in hops]
    return record


def energy_gap(scenario, ber, mss_pair, energy):
    """energy(long) - energy(short) at this BER, every hop at that BER.

    A diverging side counts as infinitely expensive; None when neither
    side is finite or a layout cannot be realized.
    """
    values = []
    hops = tuple(HopParams(ber, hp.r) for hp in scenario.hops)
    for mss in (max(mss_pair), min(mss_pair)):
        try:
            record = segment_model(
                PathScenario(hops, scenario.layout, mss, scenario.transfer_bytes),
                energy,
            )
        except LayoutError:
            return None
        values.append(record["total_joules"])
    e_long, e_short = values
    if e_long is None and e_short is None:
        return None
    if e_long is None:
        return math.inf
    if e_short is None:
        return -math.inf
    return e_long - e_short


def crossover_ber(
    scenario, mss_pair=(64, 512), energy=EnergyParams(), ber_range=(1e-7, 1e-1),
    points_per_decade=10, rel_tol=1e-3,
) -> FrontierPoint:
    """Geometric scan for the first cheaper-to-dearer sign change of the
    energy gap, then log-space bisection of that bracket to ``rel_tol``; an
    unevaluable midpoint ends the bisection (``bracket_unresolved``)."""
    lo, hi = ber_range
    n = max(2, int(round(points_per_decade * math.log10(hi / lo))) + 1)
    grid = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    h = len(scenario.hops)
    brackets = []
    sign_changes = 0
    prev = None
    for b in grid:
        g = energy_gap(scenario, b, mss_pair, energy)
        if g is None:
            continue
        if prev is not None and (prev[1] < 0) != (g < 0):
            sign_changes += 1
            if prev[1] < 0:
                brackets.append((prev[0], b))
        prev = (b, g)
    if not brackets:
        return FrontierPoint(None, None, h, None, None, None, ("no_crossover",))
    flags = ["multiple_crossovers"] if sign_changes > 1 else []
    b_lo, b_hi = brackets[0]
    while (b_hi - b_lo) / b_lo > rel_tol:
        mid = math.sqrt(b_lo * b_hi)
        g = energy_gap(scenario, mid, mss_pair, energy)
        if g is None:
            flags.append("bracket_unresolved")
            break
        if g >= 0:
            b_hi = mid
        else:
            b_lo = mid
    return FrontierPoint(
        None, None, h, math.sqrt(b_lo * b_hi), b_lo, b_hi, tuple(flags)
    )
