"""Resolve transport parameters into the bit-level frame sizes the model consumes.

A TCP segment of ``mss`` payload bytes plus its TCP/IP headers is split
into ``m`` link-layer fragments. Each fragment carries a share of the
segment, a link-layer header, and (when the segment is actually
fragmented) a per-fragment adaptation-layer header; FEC then inflates the
``k`` information bits to ``d = k + ceil(alpha*k)`` bits on the wire, of
which ``floor((d-k)/2)`` corrupted bits can be repaired. The TCP
acknowledgement always rides in a single frame of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LayoutError",
    "FrameLayout",
    "ResolvedFrames",
    "resolve_frames",
    "default_fragment_count",
]

BITS_PER_BYTE = 8

#: Segment-payload granularity (bytes) behind the "auto" fragment rule: the
#: reference deployment the bundled defaults describe fragments one frame
#: per 64 bytes of TCP payload (so mss=64 -> 1 frame, mss=512 -> 8 frames).
AUTO_FRAGMENT_CHUNK_BYTES = 64

#: Largest coded frame or link ACK, in bits: the model takes bit counts as
#: floats, which hold integers exactly up to 2**53.
MAX_FRAME_BITS = 2**53


class LayoutError(ValueError):
    """A frame layout that cannot be realized (e.g. nothing fits the MTU)."""


def default_fragment_count(mss_bytes: int) -> int:
    """Fragment count used by ``fragments="auto"``: one per 64 payload bytes."""
    return max(1, math.ceil(mss_bytes / AUTO_FRAGMENT_CHUNK_BYTES))


@dataclass(frozen=True)
class FrameLayout:
    """Link/adaptation/transport header sizes plus the FEC redundancy ratio.

    ``fragments`` selects how the per-segment fragment count m is chosen:
    a positive int fixes it explicitly, ``"auto"`` applies the 64-byte
    payload rule above, and ``"fit"`` picks the smallest m whose FEC-coded
    data frame fits the MTU (m then grows with alpha in a stairstep).
    Explicit counts are deliberately not checked against the MTU so that
    reference accountings that overrun a naive MTU budget stay expressible.

    The defaults describe the reference deployment's 802.15.4-style link
    (127-byte MTU); the per-fragment adaptation overhead of 136 bits is the
    calibrated value recorded in docs/calibration.md.
    """

    mtu_bits: int = 1016
    ll_data_header_bits: int = 120
    ll_ack_bits: int = 40
    frag_header_bits: int = 136
    ip_header_bits: int = 160
    tcp_header_bits: int = 160
    alpha: float = 0.0
    fragments: int | str = "auto"

    def __post_init__(self):
        for name in (
            "mtu_bits",
            "ll_data_header_bits",
            "ll_ack_bits",
            "frag_header_bits",
            "ip_header_bits",
            "tcp_header_bits",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise LayoutError(f"{name} must be a non-negative integer, got {v!r}")
        if not 1 <= self.ll_ack_bits <= MAX_FRAME_BITS:
            raise LayoutError(
                f"ll_ack_bits must be in [1, {MAX_FRAME_BITS}], got {self.ll_ack_bits}"
            )
        if self.mtu_bits <= self.ll_data_header_bits + self.frag_header_bits:
            raise LayoutError(
                "mtu_bits must exceed ll_data_header_bits + frag_header_bits"
            )
        if not 0.0 <= self.alpha < math.inf:
            raise LayoutError(f"alpha must be finite and >= 0, got {self.alpha}")
        if isinstance(self.fragments, str):
            if self.fragments not in ("auto", "fit"):
                raise LayoutError(
                    f'fragments must be a positive int, "auto" or "fit", '
                    f"got {self.fragments!r}"
                )
        elif not isinstance(self.fragments, int) or self.fragments < 1:
            raise LayoutError(f"explicit fragment count must be >= 1, got {self.fragments!r}")


@dataclass(frozen=True)
class ResolvedFrames:
    """Bit-level frame quantities for one (mss, layout) combination."""

    m: int
    k_data_bits: int
    d_data_bits: int
    c_data_bits: int
    k_ack_bits: int
    d_ack_bits: int
    c_ack_bits: int


def _fec_expand(k_bits: int, alpha: float) -> tuple[int, int]:
    """(d, c) for k information bits: d = k + ceil(alpha*k), c = (d-k)//2.

    The redundancy bit count is the exact ceiling of alpha*k, in integers
    from alpha's ratio num/den, so stairstep boundaries do not wobble with
    floating-point rounding; c never overstates the correction power.
    """
    num, den = alpha.as_integer_ratio()
    redundancy = -(-num * k_bits // den)
    d = k_bits + redundancy
    if d > MAX_FRAME_BITS:
        raise LayoutError(
            f"a {k_bits}-bit frame at alpha={alpha} codes to more than the "
            f"model's {MAX_FRAME_BITS} bits"
        )
    return d, (d - k_bits) // 2


def _data_frame_bits(payload_bits: int, m: int, layout: FrameLayout) -> tuple[int, int, int]:
    """(k, d, c) of a data frame when the segment is split into m fragments."""
    k = math.ceil(payload_bits / m) + layout.ll_data_header_bits
    if m > 1:
        k += layout.frag_header_bits
    d, c = _fec_expand(k, layout.alpha)
    return k, d, c


def resolve_frames(mss_bytes: int, layout: FrameLayout) -> ResolvedFrames:
    """Resolve an MSS and layout into on-the-wire frame sizes.

    The segment carried end-to-end is mss payload plus one TCP and one IP
    header; the returned sizes describe its m identical data fragments and
    the single TCP-ACK frame going the other way.
    """
    if mss_bytes < 1:
        raise LayoutError(f"mss_bytes must be >= 1, got {mss_bytes}")
    payload_bits = (
        BITS_PER_BYTE * mss_bytes + layout.tcp_header_bits + layout.ip_header_bits
    )

    if layout.fragments == "fit":
        m = _fit_fragments(payload_bits, layout)
    elif layout.fragments == "auto":
        m = default_fragment_count(mss_bytes)
    else:
        m = layout.fragments
    k_data, d_data, c_data = _data_frame_bits(payload_bits, m, layout)

    k_ack = (
        layout.tcp_header_bits + layout.ip_header_bits + layout.ll_data_header_bits
    )
    d_ack, c_ack = _fec_expand(k_ack, layout.alpha)
    if layout.fragments == "fit" and d_ack > layout.mtu_bits:
        raise LayoutError(
            f"TCP-ACK frame ({d_ack} bits at alpha={layout.alpha}) exceeds the "
            f"{layout.mtu_bits}-bit MTU"
        )

    return ResolvedFrames(
        m=m,
        k_data_bits=k_data,
        d_data_bits=d_data,
        c_data_bits=c_data,
        k_ack_bits=k_ack,
        d_ack_bits=d_ack,
        c_ack_bits=c_ack,
    )


def _fit_fragments(payload_bits: int, layout: FrameLayout) -> int:
    """Smallest m whose coded data frame fits the MTU."""
    k_min = 1 + layout.ll_data_header_bits + layout.frag_header_bits
    d_min, _ = _fec_expand(k_min, layout.alpha)
    if d_min > layout.mtu_bits:
        raise LayoutError(
            f"even a 1-payload-bit fragment needs {d_min} bits at "
            f"alpha={layout.alpha}, over the {layout.mtu_bits}-bit MTU"
        )
    m = 1
    while True:
        _, d, _ = _data_frame_bits(payload_bits, m, layout)
        if d <= layout.mtu_bits:  # by m = payload_bits at the latest: the k_min frame
            return m
        m += 1
