"""Frame resolution tests: fragment counts, FEC sizing, MTU fitting."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lln_energy.framing import (
    MAX_FRAME_BITS,
    FrameLayout,
    LayoutError,
    _fec_expand,
    default_fragment_count,
    resolve_frames,
)

PLAIN = FrameLayout(frag_header_bits=0)  # bare Table-style layout, no FEC


def test_mss64_single_frame():
    fr = resolve_frames(64, PLAIN)
    assert fr.m == 1
    assert fr.k_data_bits == fr.d_data_bits == 8 * 64 + 160 + 160 + 120 == 952
    assert fr.c_data_bits == 0
    assert fr.k_ack_bits == fr.d_ack_bits == 440
    assert fr.c_ack_bits == 0


def test_mss512_eight_fragments():
    fr = resolve_frames(512, PLAIN)
    assert fr.m == 8
    # ceil((8*512 + 320) / 8) + 120
    assert fr.k_data_bits == fr.d_data_bits == 672
    assert fr.c_data_bits == 0


def test_zero_alpha_means_no_correction():
    fr = resolve_frames(64, PLAIN)
    assert fr.d_data_bits == fr.k_data_bits and fr.c_data_bits == 0


def test_unit_alpha_doubles_frame():
    # k=400-bit information part: d=800, c=200
    lay = FrameLayout(
        ll_data_header_bits=0,
        frag_header_bits=0,
        ip_header_bits=0,
        tcp_header_bits=0,
        alpha=1.0,
        fragments=1,
        mtu_bits=2000,
    )
    fr = resolve_frames(50, lay)  # 400 payload bits
    assert (fr.k_data_bits, fr.d_data_bits, fr.c_data_bits) == (400, 800, 200)


def test_fragment_header_only_when_fragmented():
    lay = FrameLayout(frag_header_bits=136)
    assert resolve_frames(64, lay).d_data_bits == 952  # m=1, no frag header
    assert resolve_frames(512, lay).d_data_bits == 672 + 136


def test_default_fragment_rule():
    assert default_fragment_count(64) == 1
    assert default_fragment_count(512) == 8
    assert default_fragment_count(65) == 2


def test_fit_mode_respects_mtu():
    lay = FrameLayout(frag_header_bits=136, fragments="fit")
    fr = resolve_frames(512, lay)
    assert fr.d_data_bits <= lay.mtu_bits
    smaller = resolve_frames(512, FrameLayout(frag_header_bits=136, fragments=fr.m))
    assert smaller.d_data_bits <= lay.mtu_bits
    if fr.m > 1:  # minimality: one fragment fewer must not fit
        bigger = resolve_frames(
            512, FrameLayout(frag_header_bits=136, fragments=fr.m - 1)
        )
        assert bigger.d_data_bits > lay.mtu_bits


def test_fit_mode_rejects_hopeless_alpha():
    lay = FrameLayout(alpha=10.0, fragments="fit")
    # every call refuses
    for _ in range(2):
        with pytest.raises(LayoutError):
            resolve_frames(64, lay)


def test_rejects_bad_layout():
    with pytest.raises(LayoutError):
        FrameLayout(mtu_bits=100, ll_data_header_bits=120)
    with pytest.raises(LayoutError):
        FrameLayout(alpha=-0.1)
    with pytest.raises(LayoutError):
        FrameLayout(fragments=0)
    with pytest.raises(LayoutError):
        FrameLayout(fragments="sometimes")
    with pytest.raises(LayoutError):
        resolve_frames(0, PLAIN)


def test_rejects_a_link_ack_past_the_model_limit():
    # the link ACK is sent as is, with no FEC expansion to bound it
    assert FrameLayout(ll_ack_bits=MAX_FRAME_BITS).ll_ack_bits == MAX_FRAME_BITS
    for bits in (MAX_FRAME_BITS + 1, 10**20):
        with pytest.raises(LayoutError, match=f"got {bits}"):
            FrameLayout(ll_ack_bits=bits)


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_rejects_non_finite_alpha(alpha):
    with pytest.raises(LayoutError, match="finite"):
        FrameLayout(alpha=alpha)


@pytest.mark.parametrize("fragments", ["auto", 4])  # "fit" refuses both by the MTU
def test_rejects_a_coded_frame_past_the_model_limit(fragments):
    # 1e308 codes past the float range; 1e14 only past the exact-integer one
    for alpha in (1e308, 1e14):
        with pytest.raises(LayoutError, match="codes to more than"):
            resolve_frames(64, FrameLayout(alpha=alpha, fragments=fragments))
    assert resolve_frames(64, FrameLayout(alpha=1e12)).d_data_bits < MAX_FRAME_BITS


# alpha above ~1.3 makes the 440-bit ACK frame overflow the MTU (rejected),
# so the monotonicity property is quantified below that
@given(st.floats(0.0, 1.2), st.floats(0.0, 1.2))
@settings(max_examples=60, deadline=None)
def test_fit_fragment_count_is_stairstep_in_alpha(a1, a2):
    a1, a2 = sorted((a1, a2))
    m = [
        resolve_frames(512, FrameLayout(alpha=a, fragments="fit")).m
        for a in (a1, a2)
    ]
    assert m[0] <= m[1]


def test_fit_mode_rejects_ack_overflow():
    with pytest.raises(LayoutError):
        resolve_frames(512, FrameLayout(alpha=2.0, fragments="fit"))


@given(
    mss=st.integers(1, 1024),
    alpha=st.floats(0.0, 1.0),
    frag=st.integers(0, 200),
)
@settings(max_examples=80, deadline=None)
def test_resolution_invariants(mss, alpha, frag):
    lay = FrameLayout(frag_header_bits=frag, alpha=alpha, fragments="fit")
    fr = resolve_frames(mss, lay)
    assert fr.d_data_bits <= lay.mtu_bits
    assert fr.c_data_bits == (fr.d_data_bits - fr.k_data_bits) // 2
    assert fr.c_ack_bits == (fr.d_ack_bits - fr.k_ack_bits) // 2
    if alpha == 0.0:
        assert fr.d_data_bits == fr.k_data_bits and fr.c_data_bits == 0
    # pure function: same inputs, same outputs
    assert resolve_frames(mss, lay) == fr


@given(
    alpha=st.one_of(
        st.floats(0.0, 1e6, allow_subnormal=True),
        st.floats(0.0, 1e-300, allow_subnormal=True),
        st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 2.5, 1e308]),
    ),
    k=st.integers(1, 2**40),
)
@settings(max_examples=300, deadline=None)
def test_fec_expansion_is_the_exact_ceiling(alpha, k):
    # ceil(alpha*k) from alpha's integer ratio equals the Fraction formula
    want = k + (math.ceil(Fraction(alpha) * k) if alpha > 0.0 else 0)
    if want > MAX_FRAME_BITS:
        with pytest.raises(LayoutError):
            _fec_expand(k, alpha)
    else:
        assert _fec_expand(k, alpha) == (want, (want - k) // 2)
