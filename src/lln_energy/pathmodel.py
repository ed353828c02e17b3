"""Multi-hop and TCP-level expectations, and the bits-to-joules energy map.

Builds on the one-hop model: a fragment either survives every hop of the
path or is dropped at the first hop that exhausts its attempts. A TCP
segment round sends all ``m`` fragments end to end, then the TCP ACK frame
back; the sender repeats the round until the ACK arrives (retries are
unbounded, window is one segment). All quantities are *expected bits sent
by all nodes*; energy is linear in bits, each sent bit costing the
transmitter plus ``n`` listening neighbors.

Quantities that are undefined for a configuration (a hop that can never
deliver, a success probability of zero) or that pass the float range are
reported as ``None`` plus an entry in ``ModelReport.flags`` rather than as
infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .framing import FrameLayout, resolve_frames
from .hopmodel import HopModel, HopParams, hop_model

__all__ = [
    "PathScenario",
    "EnergyParams",
    "ModelReport",
    "uniform_path",
    "path_success_prob",
    "path_bits",
    "fragment_failure_sum",
    "segment_model",
    "FLAG_DIVERGES",
    "FLAG_DEGENERATE_HOP",
]

FLAG_DIVERGES = "diverges"
FLAG_DEGENERATE_HOP = "degenerate_hop"


def uniform_path(h: int, ber: float, r: int = HopParams.r) -> tuple[HopParams, ...]:
    """h identical hops; convenience for the homogeneous-path scenarios."""
    if h < 1:
        raise ValueError(f"need at least one hop, got {h}")
    return tuple(HopParams(ber=ber, r=r) for _ in range(h))


@dataclass(frozen=True)
class PathScenario:
    """A transfer: ordered hops, frame layout, segment size, payload volume."""

    hops: tuple[HopParams, ...]
    layout: FrameLayout
    mss_bytes: int
    transfer_bytes: int = 51200

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        if len(self.hops) < 1:
            raise ValueError("scenario needs at least one hop")
        if self.mss_bytes < 1:
            raise ValueError(f"mss_bytes must be >= 1, got {self.mss_bytes}")
        if self.transfer_bytes < 1:
            raise ValueError(f"transfer_bytes must be >= 1, got {self.transfer_bytes}")

    @property
    def segments(self) -> int:
        return -(-self.transfer_bytes // self.mss_bytes)


@dataclass(frozen=True)
class EnergyParams:
    """Per-bit radio energy; every sent bit is heard by n_neighbors radios."""

    tx_uj_per_bit: float = 0.24
    rx_uj_per_bit: float = 0.21
    n_neighbors: float = 2.0

    def __post_init__(self):
        if self.tx_uj_per_bit < 0 or self.rx_uj_per_bit < 0 or self.n_neighbors < 0:
            raise ValueError("energy parameters must be non-negative")

    def uj_per_bit(self) -> float:
        return self.tx_uj_per_bit + self.n_neighbors * self.rx_uj_per_bit

    def joules(self, bits: float | None) -> float | None:
        return None if bits is None else bits * self.uj_per_bit() * 1e-6


def path_success_prob(hop_failure_probs: Sequence[float]) -> float:
    """Probability a frame survives every hop: prod(1 - f_i)."""
    q = 1.0
    for f in hop_failure_probs:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"hop failure probability {f} outside [0, 1]")
        q *= 1.0 - f
    return q


def path_bits(models: Sequence[HopModel]) -> tuple[float | None, float | None]:
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
        if any(hm.degenerate for hm in models)
        else sum(hm.h_s for hm in models)
    )
    q_s = path_success_prob([hm.f for hm in models])
    if 1.0 - q_s <= 0.0:
        return e_s, None
    total = 0.0
    survive = 1.0
    bits_before = 0.0
    for hm in models:
        total += (bits_before + hm.h_f) * survive * hm.f
        survive *= 1.0 - hm.f
        if survive == 0.0:
            break  # later hops are unreachable (and may have h_s undefined)
        bits_before += hm.h_s
    return e_s, total / (1.0 - q_s)


def _one_minus_pow(q: float, k: int) -> float:
    """1 - q**k without cancellation for q near 1."""
    if q <= 0.0:
        return 1.0
    return -math.expm1(k * math.log(q))


def fragment_failure_sum(
    m: int, q_s: float, e_s: float | None, e_f: float | None
) -> float:
    """Bits of a round of m fragments, summed over rounds with >= 1 failure.

    The unnormalized sum_k C(m,k) (k e_f + (m-k) e_s) (1-q_s)^k q_s^(m-k)
    over k >= 1, in closed form: m (1-q_s) e_f + m e_s q_s (1 - q_s^(m-1)).
    Divided by 1 - q_s^m it is the expected cost of a round given that a
    fragment failed. Well-defined at both endpoints: 0 when q_s = 1
    (failures never happen), m*e_f when q_s = 0 (every fragment fails).
    """
    if m < 1:
        raise ValueError(f"fragment count must be >= 1, got {m}")
    if q_s >= 1.0:
        return 0.0
    if q_s <= 0.0:
        return m * e_f
    return m * (1.0 - q_s) * e_f + m * e_s * q_s * _one_minus_pow(q_s, m - 1)


@dataclass(frozen=True)
class ModelReport:
    """Every intermediate and final expectation for one scenario."""

    mss_bytes: int
    transfer_bytes: int
    h: int
    ber: float | None  # per-hop BER when homogeneous, else None
    r: int | None  # per-hop attempt limit when homogeneous, else None
    alpha: float
    m: int
    d_data_bits: int
    c_data_bits: int
    d_ack_bits: int
    c_ack_bits: int
    a_bits: int
    data_hops: tuple[HopModel, ...]
    ack_hops: tuple[HopModel, ...]  # in ACK travel order (receiver back to sender)
    q_s: float
    q_s_ack: float
    e_s: float | None
    e_f: float | None
    e_s_ack: float | None
    e_f_ack: float | None
    i_f: float | None
    p_s: float
    s_s: float | None
    s_f: float | None
    s: float | None
    segments: int
    total_bits: float | None
    total_joules: float | None
    flags: tuple[str, ...]

    @property
    def diverges(self) -> bool:
        return FLAG_DIVERGES in self.flags

    def to_record(self, per_hop: bool = False) -> dict:
        """Flat key/value record (one CSV row / JSON-lines object).

        The columns are the fields in order, less the per-hop models, which
        ``per_hop=True`` flattens after ``flags``. ``vars`` holds exactly
        the fields in order: a frozen dataclass sets no other attribute.
        """
        rec = dict(vars(self))
        del rec["data_hops"], rec["ack_hops"]
        rec["flags"] = ";".join(self.flags)
        if per_hop:
            for side, hops in (("data", self.data_hops), ("ack", self.ack_hops)):
                for name in ("f", "h_s", "h_f"):
                    rec[f"{name}_{side}"] = [getattr(hm, name) for hm in hops]
        return rec


def segment_model(
    scenario: PathScenario, energy: EnergyParams = EnergyParams()
) -> ModelReport:
    """Full expected-cost model for one scenario.

    Data fragments cross the hops in order; the TCP ACK crosses them in
    reverse. A segment round succeeds with probability q_s^m * q_s_ack;
    s_f conditions on the round failing, s composes the unbounded-retry
    total, and the transfer multiplies by ceil(transfer/mss) segments.
    """
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

    q_s = path_success_prob([hm.f for hm in data_hops])
    q_s_ack = path_success_prob([hm.f for hm in ack_hops])
    e_s, e_f = path_bits(data_hops)
    e_s_ack, e_f_ack = path_bits(ack_hops)

    m = frames.m
    q_s_m = q_s**m
    p_s = q_s_m * q_s_ack

    flags: list[str] = []
    if any(hm.degenerate for hm in data_hops + ack_hops):
        flags.append(FLAG_DEGENERATE_HOP)

    frag_term = fragment_failure_sum(m, q_s, e_s, e_f)
    i_f = frag_term / _one_minus_pow(q_s, m) if 0.0 < q_s < 1.0 else None
    s_s = None if e_s is None or e_s_ack is None else m * e_s + e_s_ack

    # Conditional cost of a failed round, assembled from the unnormalized
    # pieces so endpoint cases never multiply None by zero.
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
        # p_s = 0, or a p_s so small that the expected bits pass the float range
        total_bits = None
        if not math.isfinite(s):
            s = None
        flags.append(FLAG_DIVERGES)

    bers = {hp.ber for hp in scenario.hops}
    rs = {hp.r for hp in scenario.hops}
    return ModelReport(
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
        data_hops=data_hops,
        ack_hops=ack_hops,
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
        flags=tuple(flags),
    )
