"""Frozen copy of the closed-form model arithmetic as of the benchmark's baseline.

The ``sweep`` workload's correctness check compares every CLI row with
the values this module computes. It transcribes, operation for
operation, the library's model path at the commit that introduced the
benchmark (``framing.resolve_frames``, ``hopmodel``, ``pathmodel``
``segment_model``, ``explorer`` sweep variants and the CLI grid parser),
so at that commit the two agree bit for bit. It must not follow later
library changes: it is the fixed reference those changes are checked
against. Only the quantities the check reads are kept.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# RunConfig defaults (config.py): the CLI starts every sweep from these.
MTU_BITS = 1016
LL_DATA_HEADER_BITS = 120
LL_ACK_BITS = 40
FRAG_HEADER_BITS = 136
IP_HEADER_BITS = 160
TCP_HEADER_BITS = 160
TRANSFER_BYTES = 51200
UJ_PER_BIT = 0.24 + 2.0 * 0.21
DEFAULTS = {"hops": 5, "ber": 3e-4, "retries": 3, "alpha": 0.0,
            "fragments": "auto", "mss": 64}


class LayoutError(ValueError):
    pass


def parse_grid(text: str) -> tuple[float, ...]:
    """cli._parse_grid."""
    if ":" in text:
        parts = text.split(":")
        lo, hi, scale, n = float(parts[0]), float(parts[1]), parts[2], int(parts[3])
        if scale == "log":
            return tuple(lo * (hi / lo) ** (i / (n - 1)) for i in range(n))
        return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))
    return tuple(float(x) for x in text.split(",") if x.strip())


def _fec_expand(k_bits: int, alpha: float) -> tuple[int, int]:
    redundancy = math.ceil(Fraction(alpha) * k_bits) if alpha > 0.0 else 0
    d = k_bits + redundancy
    return d, (d - k_bits) // 2


def _data_frame_bits(payload_bits: int, m: int, alpha: float) -> tuple[int, int]:
    k = math.ceil(payload_bits / m) + LL_DATA_HEADER_BITS
    if m > 1:
        k += FRAG_HEADER_BITS
    return _fec_expand(k, alpha)


def resolve_frames(mss: int, alpha: float, fragments) -> tuple[int, int, int, int, int]:
    """(m, d_data, c_data, d_ack, c_ack), as framing.resolve_frames."""
    payload_bits = 8 * mss + TCP_HEADER_BITS + IP_HEADER_BITS
    if fragments == "fit":
        d_min, _ = _fec_expand(1 + LL_DATA_HEADER_BITS + FRAG_HEADER_BITS, alpha)
        if d_min > MTU_BITS:
            raise LayoutError("fragment cannot fit the MTU")
        m = 1
        while _data_frame_bits(payload_bits, m, alpha)[0] > MTU_BITS:
            m += 1
    elif fragments == "auto":
        m = max(1, math.ceil(mss / 64))
    else:
        m = int(fragments)
    d_data, c_data = _data_frame_bits(payload_bits, m, alpha)
    d_ack, c_ack = _fec_expand(TCP_HEADER_BITS + IP_HEADER_BITS + LL_DATA_HEADER_BITS, alpha)
    if fragments == "fit" and d_ack > MTU_BITS:
        raise LayoutError("TCP-ACK frame exceeds the MTU")
    return m, d_data, c_data, d_ack, c_ack


def _binom_range_sum(d: int, lo: int, hi: int, p: float) -> float:
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
            break
    return math.exp(offset + math.log(acc))


def frame_error_prob(d: int, c: int, ber: float) -> float:
    if ber == 0.0 or c == d:
        return 0.0
    if c < d * ber:
        low = _binom_range_sum(d, 0, c, ber)
        return min(1.0, max(0.0, 1.0 - low))
    return min(1.0, _binom_range_sum(d, c + 1, d, ber))


@lru_cache(maxsize=None)
def attempt_probs(d: int, c: int, a: int, ber: float) -> tuple[float, float, float]:
    """(p_fail, p_partial, p_succ)."""
    p_fail = frame_error_prob(d, c, ber)
    ack_ok = math.exp(a * math.log1p(-ber))
    got_data = 1.0 - p_fail
    return p_fail, got_data * (1.0 - ack_ok), got_data * ack_ok


def _expected_success_bits(pf, pp, ps, r, d, a):
    denom = 1.0 - pf**r
    if denom <= 0.0:
        return None
    no_succ = 0.0
    for i in range(1, r + 1):
        no_succ += math.comb(r, i) * pp**i * pf ** (r - i) * (r * d + i * a)
    with_succ = 0.0
    for k in range(1, r + 1):
        inner = 0.0
        for i in range(k):
            inner += (
                math.comb(k - 1, i) * pp**i * pf ** (k - 1 - i) * (k * d + (i + 1) * a)
            )
        with_succ += ps * inner
    return (no_succ + with_succ) / denom


@lru_cache(maxsize=None)
def hop_model(d: int, c: int, a: int, ber: float, r: int):
    """(f, h_s, h_f); h_s None marks a degenerate hop."""
    pf, pp, ps = attempt_probs(d, c, a, ber)
    return pf**r, _expected_success_bits(pf, pp, ps, r, d, a), float(r * d)


def _path_success_prob(fs) -> float:
    q = 1.0
    for f in fs:
        q *= 1.0 - f
    return q


def _path_bits(models):
    e_s = None if any(hs is None for _, hs, _ in models) else sum(hs for _, hs, _ in models)
    q_s = _path_success_prob([f for f, _, _ in models])
    if 1.0 - q_s <= 0.0:
        return e_s, None
    total = 0.0
    survive = 1.0
    bits_before = 0.0
    for f, hs, hf in models:
        total += (bits_before + hf) * survive * f
        survive *= 1.0 - f
        if survive == 0.0:
            break
        bits_before += hs
    return e_s, total / (1.0 - q_s)


def _fragment_failure_raw(m, q_s, e_s, e_f) -> float:
    if q_s >= 1.0:
        return 0.0
    if q_s <= 0.0:
        return m * e_f
    x = 1.0 - q_s
    total = 0.0
    for k in range(1, m + 1):
        weight = math.comb(m, k) * x**k * q_s ** (m - k)
        total += weight * (k * e_f + (m - k) * e_s)
    return total


def segment_model(hops: int, ber: float, r: int, alpha: float, fragments, mss: int) -> dict:
    """q_s, p_s, total_bits, total_joules and the per-attempt probabilities.

    Raises LayoutError where the CLI row is flagged ``layout_error``.
    """
    m, d_data, c_data, d_ack, c_ack = resolve_frames(mss, alpha, fragments)
    a = LL_ACK_BITS
    data_hops = [hop_model(d_data, c_data, a, ber, r)] * hops
    ack_hops = [hop_model(d_ack, c_ack, a, ber, r)] * hops
    q_s = _path_success_prob([f for f, _, _ in data_hops])
    q_s_ack = _path_success_prob([f for f, _, _ in ack_hops])
    e_s, e_f = _path_bits(data_hops)
    e_s_ack, e_f_ack = _path_bits(ack_hops)
    q_s_m = q_s**m
    p_s = q_s_m * q_s_ack
    s_s = None if e_s is None or e_s_ack is None else m * e_s + e_s_ack
    if p_s < 1.0:
        frag_term = _fragment_failure_raw(m, q_s, e_s, e_f)
        if q_s_m == 0.0 or q_s_ack >= 1.0:
            ack_term = 0.0
        else:
            ack_term = (m * e_s + e_f_ack) * q_s_m * (1.0 - q_s_ack)
        s_f = (frag_term + ack_term) / (1.0 - p_s)
    else:
        s_f = None
    if p_s > 0.0:
        s = (s_f * (1.0 / p_s - 1.0) if s_f is not None else 0.0) + s_s
    else:
        s = None
    segments = -(-TRANSFER_BYTES // mss)
    total_bits = None if s is None else segments * s
    return {
        "q_s": q_s,
        "p_s": p_s,
        "total_bits": total_bits,
        "total_joules": None if total_bits is None else total_bits * UJ_PER_BIT * 1e-6,
        "attempts": ((d_data, c_data, a, ber), (d_ack, c_ack, a, ber)),
    }


def sweep_rows(argv: list[str]) -> list[dict]:
    """Reference rows of one ``sweep`` CLI invocation, in CLI order.

    Each row has the key columns ``value`` and ``mss_bytes`` and either the
    :func:`segment_model` values or ``layout_error``.
    """
    opts = dict(zip(argv[1::2], argv[2::2]))
    params = dict(DEFAULTS)
    for flag, key, conv in (("--hops", "hops", int), ("-r", "retries", int),
                            ("--ber", "ber", float), ("--alpha", "alpha", float),
                            ("--mss", "mss", int)):
        if flag in opts:
            params[key] = conv(opts[flag])
    if "--fragments" in opts:
        frag = opts["--fragments"]
        params["fragments"] = frag if frag in ("auto", "fit") else int(frag)
    axis = opts["--axis"]
    mss_list = [int(x) for x in opts.get("--mss-list", "64,512").split(",")]
    rows = []
    for value in parse_grid(opts["--grid"]):
        for mss in ([None] if axis == "mss" else mss_list):
            p = dict(params, mss=mss or params["mss"])
            if axis == "ber":
                p["ber"] = float(value)
            elif axis == "r":
                p["retries"] = int(value)
            elif axis == "alpha":
                p["alpha"] = float(value)
            elif axis == "h":
                p["hops"] = int(value)
            elif axis == "mss":
                p["mss"] = int(value)
            row = {"value": value, "mss_bytes": p["mss"]}
            try:
                row.update(segment_model(p["hops"], p["ber"], p["retries"], p["alpha"],
                                         p["fragments"], p["mss"]))
            except LayoutError:
                row["layout_error"] = True
            rows.append(row)
    return rows
