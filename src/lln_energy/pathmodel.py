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
reported as ``None`` plus an entry in the record's ``flags`` rather than as
infinities.

``segment_models`` evaluates many points in one numpy pass: a base
scenario plus per-point columns of BER, attempt limit, hop count, alpha
and MSS, with no scenario object per point. A point's stem is its
(ber, r, alpha, mss), all but its hop count; with an ``h`` column the
points of a stem share its frames, its (ber, r) check and its hop keys.
Frames resolve once per distinct (MSS, alpha), one call of the array hop
layer (``hopmodel.hop_model_array``) evaluates every distinct (frame,
BER, r) of the call, and ``_path`` walks each distinct path once, as far
as the longest hop count in use, each point reading the snapshot taken
after its own. Only IEEE ``+ - * /`` run in numpy, in the scalar
formulas' order (a per-hop loop, no mask); ``q**m``, ``log`` and
``expm1`` are per-element ``math`` calls, as numpy's can differ from
libm in the last bit. So every field equals a scalar evaluation bit for
bit.
``segment_model`` is the one-point case; callers with many points batch
them, and bound the points per call to bound a pass's memory.

The result, ``ModelBatch``, is one store: a column per record field
(``FIELDS``). A computed field's column is a float64 array in which NaN
means None (undefined, or a point whose frames do not resolve); a
defined field is never NaN, which the tests' ``==`` against the scalar
oracle checks; a frame field (m, the bit counts, the segment count) is
an int64 column, read as Python ints; ``flags`` is an integer code
column, joined to text when read. The records, per-hop lists included,
are built as columns from the store, the hop table and the paths, only
when read and only for the rows asked for.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, repeat

import numpy as np

from .framing import FrameLayout, LayoutError, resolve_frames
from .hopmodel import HopArrays, HopParams, hop_model_array

__all__ = [
    "PathScenario",
    "EnergyParams",
    "FIELDS",
    "ModelBatch",
    "MAX_HOPS",
    "check_hop_count",
    "uniform_path",
    "fragment_failure_sum",
    "segment_model",
    "segment_models",
    "FLAG_DIVERGES",
    "FLAG_DEGENERATE_HOP",
]

FLAG_DIVERGES = "diverges"
FLAG_DEGENERATE_HOP = "degenerate_hop"


#: The most hops of a path. A hop count is checked against it before any
#: per-hop tuple or index row of that length is built.
MAX_HOPS = 1024


def check_hop_count(h: int) -> None:
    """Refuse a path of fewer than one or more than ``MAX_HOPS`` hops."""
    if h < 1:
        raise ValueError(f"scenario needs at least one hop, got {h}")
    if h > MAX_HOPS:
        raise ValueError(f"a path has at most {MAX_HOPS} hops, got {h}")


def uniform_path(h: int, ber: float, r: int = HopParams.r) -> tuple[HopParams, ...]:
    """h identical hops; convenience for the homogeneous-path scenarios."""
    check_hop_count(h)
    return (HopParams(ber=ber, r=r),) * h


@dataclass(frozen=True)
class PathScenario:
    """A transfer: ordered hops, frame layout, segment size, payload volume."""

    hops: tuple[HopParams, ...]
    layout: FrameLayout
    mss_bytes: int
    transfer_bytes: int = 51200

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        check_hop_count(len(self.hops))
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
        for name, value in vars(self).items():  # a frozen dataclass: just its fields
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def uj_per_bit(self) -> float:
        return self.tx_uj_per_bit + self.n_neighbors * self.rx_uj_per_bit

    def joules(self, bits: float | None) -> float | None:
        return None if bits is None else bits * self.uj_per_bit() * 1e-6


def _one_minus_pows(q, *exponents) -> list[np.ndarray]:
    """1 - q**k elementwise for each exponent array k, without cancellation
    for q near 1 (1 at q <= 0); each log(q) is taken once for all of them."""
    q = np.asarray(q)
    logs = [math.log(x) if x > 0.0 else None for x in q.ravel().tolist()]
    return [np.array([
        1.0 if log is None else -math.expm1(j * log)
        for log, j in zip(logs, np.ravel(k).tolist())
    ]).reshape(q.shape) for k in exponents]


def fragment_failure_sum(m, q_s, e_s, e_f) -> np.ndarray:
    """Bits of a round of m fragments, summed over rounds with >= 1 failure.

    The unnormalized sum_k C(m,k) (k e_f + (m-k) e_s) (1-q_s)^k q_s^(m-k)
    over k >= 1, in closed form: m (1-q_s) e_f + m e_s q_s (1 - q_s^(m-1)).
    Divided by 1 - q_s^m it is the expected cost of a round given that a
    fragment failed. Well-defined at both endpoints: 0 when q_s = 1
    (failures never happen, e_f is not read), m*e_f when q_s = 0 (every
    fragment fails, e_s is not read). Elementwise over arrays of one
    shape, or over scalars; m >= 1.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _failure_sum(m, q_s, e_s, e_f, *_one_minus_pows(q_s, m - 1.0))


def _failure_sum(m, q_s, e_s, e_f, miss_rest) -> np.ndarray:
    """``fragment_failure_sum``, given ``miss_rest`` = 1 - q_s**(m - 1); the
    caller ignores the float errors of the branch not taken."""
    mixed = m * (1.0 - q_s) * e_f + m * e_s * q_s * miss_rest
    return np.where(q_s >= 1.0, 0.0, np.where(q_s <= 0.0, m * e_f, mixed))


def _path(table: np.ndarray, paths: np.ndarray, path: np.ndarray, lengths: np.ndarray):
    """(q_s, e_s, e_f unnormalized by 1 - q_s, dead) of each entry's path:
    ``paths``' column ``path[i]``, cut after its first ``lengths[i]`` hops.

    ``table`` holds the hop models' (f, h_s, h_f, degenerate) as four rows;
    ``paths`` has one row per hop position, one column per distinct path,
    naming the table column of that path's hop; a single row is one hop
    repeated. Each path is walked once, as far as the longest length in
    use, and its state kept after each length in use; a path cut short is
    exactly the walk's first steps, so each entry reads its own snapshot.
    The loop accumulates in the scalar formulas' order: q_s = prod(1 - f_i);
    e_s = sum(h_s_i); and the failure cost, for each hop k, of clearing the
    hops before k and burning all attempts on k, weighted by the chance the
    drop happens there. An undefined h_s (a hop that can never deliver,
    which ``dead`` marks) is stored as 0.0, so every sum stays finite: past
    a zero survival each failure term is then exactly 0.0 and changes
    nothing, as the scalar loop's stop there does, with no mask and no NaN.
    """
    table = np.concatenate([table, [1.0 - table[0]]])  # and each hop's 1 - f
    positions = [table[:, row] for row in paths]  # each hop position's models
    n = paths.shape[1]
    state = (np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n))  # q, e_s, total, dead
    in_use = sorted({0, *lengths.tolist()})
    snapshots = [state]
    for step in range(in_use[-1]):
        f, h_s, h_f, degenerate, keep = positions[step % len(positions)]
        q, e_s, total, dead = state
        state = (q * keep, e_s + h_s, total + (e_s + h_f) * q * f, dead + degenerate)
        if step + 1 in in_use:
            snapshots.append(state)
    q, e_s, total, dead = np.array(snapshots).transpose(1, 0, 2)[
        :, np.searchsorted(in_use, lengths), path]
    return q, e_s, total, dead != 0.0


#: A model record's fields, in order; ``flags`` joins the point's flags by ';'
FIELDS = (
    "mss_bytes", "transfer_bytes", "h", "ber", "r", "alpha", "m",
    "d_data_bits", "c_data_bits", "d_ack_bits", "c_ack_bits", "a_bits",
    "q_s", "q_s_ack", "e_s", "e_f", "e_s_ack", "e_f_ack", "i_f", "p_s",
    "s_s", "s_f", "s", "segments", "total_bits", "total_joules", "flags",
)


#: The fields read from a point's frames and segment count, an int64 column
#: each (object, of Python ints, where a segment count passes int64)
_FRAME_FIELDS = ("m", "d_data_bits", "c_data_bits", "d_ack_bits", "c_ack_bits", "segments")


#: The text of each ``flags`` code: 1 marks a degenerate hop, 2 a
#: divergent total, -1 a point whose frames did not resolve
_FLAG_TEXT = {0: "", 1: FLAG_DEGENERATE_HOP, 2: FLAG_DIVERGES,
              3: f"{FLAG_DEGENERATE_HOP};{FLAG_DIVERGES}", -1: None}


@dataclass(frozen=True, eq=False)
class ModelBatch:
    """``segment_models``' result: one column per field of ``FIELDS``.

    ``columns`` maps each field, in order, to its values over the points:
    a list for the given fields, an int64 array for the fields of
    ``_FRAME_FIELDS`` (0 where errored), a float64 array, NaN where the
    field is None, for the computed ones, and an int64 code array for
    ``flags`` (see ``_FLAG_TEXT``). ``errors[i]`` is the ``LayoutError``
    raised resolving point i's frames, else None; every field of that point
    then reads None, as ``column`` masks the given and frame fields by
    ``errors`` when it reads them. ``hops`` is the call's hop table;
    ``paths`` its distinct paths, a row per hop position (one row: one hop
    repeated) naming hop ``k - 1`` of the table as k, 0 the no-op hop; and
    ``path`` each point's data path column, then each point's ACK path
    column. A path is read up to the point's ``h``. The lists of a record
    are built only when read, for the rows asked for.
    """

    columns: dict[str, Sequence]
    errors: list[LayoutError | None]
    hops: HopArrays
    paths: np.ndarray
    path: np.ndarray

    def column(self, name: str, rows: slice = slice(None)) -> list:
        """Field ``name`` of the points in ``rows`` (every point unless set),
        None where undefined or errored; Python ints and floats."""
        values = self.columns[name][rows]
        if name == "flags":
            return [_FLAG_TEXT[code] for code in values.tolist()]
        if isinstance(values, np.ndarray) and values.dtype.kind == "f":
            if not np.isnan(values).any():
                return values.tolist()
            return [None if v != v else v for v in values.tolist()]  # NaN is None
        # a given or frame field: None where errored
        values = values if isinstance(values, list) else values.tolist()
        errors = self.errors[rows]
        if any(errors):
            return [None if err else v for v, err in zip(values, errors)]
        return values  # a slice is a new list

    def record_columns(self, per_hop: bool = False, rows: slice = slice(None),
                       **lead: list) -> dict[str, list]:
        """The records of the points in ``rows`` (every point unless set) as
        columns: ``lead``, which maps names to columns (a value per point of
        ``rows``), then each field of ``FIELDS``; with ``per_hop``, then a
        list per point of the data hops' ``f``, ``h_s`` and ``h_f``
        (``f_data`` ...), then the ACK hops' in travel order (``f_ack``
        ...), None for a hop that can never deliver. An errored point reads
        None in every field."""
        columns = {**lead, **{name: self.column(name, rows) for name in FIELDS}}
        if per_hop:
            table = np.concatenate([np.full((3, 1), math.nan),
                                    [self.hops.f, self.hops.h_s, self.hops.h_f]], axis=1)
            # a list per field, side and point, of each hop position's value
            path = self.path.reshape(2, len(self.errors))[:, rows]
            fields = table[:, self.paths.T[path]].tolist()
            repeated = len(self.paths) == 1
            for i, side in enumerate(("data", "ack")):
                for name, field in zip(("f", "h_s", "h_f"), fields):
                    columns[f"{name}_{side}"] = [
                        None if h is None else
                        [None if v != v else v for v in (hops * h if repeated else hops[:h])]
                        for hops, h in zip(field[i], columns["h"])
                    ]
        return columns


def segment_model(scenario: PathScenario, energy: EnergyParams = EnergyParams()) -> dict:
    """The scenario's record, per-hop lists included (see ``segment_models``);
    raises the LayoutError of frames that do not resolve."""
    batch = segment_models(scenario, energy)
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return {name: values[0] for name, values in batch.record_columns(per_hop=True).items()}


def segment_models(
    base: PathScenario,
    energy: EnergyParams = EnergyParams(),
    *,
    ber: Sequence[float] | None = None,
    r: Sequence[int] | None = None,
    h: Sequence[int] | None = None,
    alpha: Sequence[float] | None = None,
    mss: Sequence[int] | None = None,
) -> ModelBatch:
    """Full expected-cost model at each point, in one numpy pass.

    The points are ``base`` with the given columns applied, one value per
    point; with no column there is one point, ``base``. ``ber`` and ``r``
    set every hop's, ``alpha`` the layout's, ``mss`` the segment size; ``h``
    makes the path that many copies of the base's first hop, so its hops
    must agree in BER and in ``r`` unless a column sets them. A bad value raises,
    checked once per distinct value by ``HopParams`` (ber, r),
    ``check_hop_count`` (h), ``PathScenario`` (MSS) or ``FrameLayout``
    (alpha); a point whose frames cannot be resolved gets its LayoutError
    in ``errors`` instead.

    A stem's frame fields (m, the data and ACK frames' d and c, and the
    segment count) are one row of an int64 table, all 0 where its frames
    do not resolve; each point reads its stem's row with one fancy index,
    and its float m, segment count and path length come from that gather.

    Data fragments cross the hops in order, the TCP ACK in reverse. A
    round succeeds with probability q_s^m * q_s_ack; s_f conditions on it
    failing, s composes the unbounded-retry total, and the transfer
    multiplies by ceil(transfer/mss) segments.
    """
    given = [col for col in (ber, r, h, alpha, mss) if col is not None]
    n = len(given[0]) if given else 1
    if any(len(col) != n for col in given):
        raise ValueError(f"the columns must have one length, got {[len(c) for c in given]}")
    hops = base.hops
    ber_shared = len({hp.ber for hp in hops}) == 1
    r_shared = len({hp.r for hp in hops}) == 1
    # every hop position takes one (ber, r) at a stem: a path of one hop repeated
    one_hop = (ber_shared or ber is not None) and (r_shared or r is not None)
    if h is not None and not one_hop:
        raise ValueError("the h axis needs a homogeneous path; its hops differ")
    hs = [len(hops)] * n if h is None else list(h)
    alphas = [base.layout.alpha] * n if alpha is None else list(alpha)
    msss = [base.mss_bytes] * n if mss is None else list(mss)
    # check_hop_count checks each distinct h, PathScenario each MSS (in the
    # points' order of first use), FrameLayout each alpha
    segment_counts = {}  # mss -> segments
    for k, m in dict.fromkeys(zip(hs, msss)):
        check_hop_count(k)
        if m not in segment_counts:
            segment_counts[m] = PathScenario(
                hops[:1], base.layout, m, base.transfer_bytes).segments

    # A stem is a point's (ber, r, alpha, mss), all but its h: it fixes the
    # frames and the hop models. With an h column the points of one stem
    # are resolved and keyed once; without one each point is its own stem.
    stems = [ber, r, alphas, msss]
    stem = np.arange(n)  # each point's stem
    if h is not None:
        ids = {}
        stem = np.array([ids.setdefault(key, len(ids)) for key in zip(
            *(repeat(None) if col is None else col for col in stems))], dtype=np.intp)
        stems = [None if col is None else list(values) for col, values in
                 zip(stems, zip(*ids) if ids else [()] * 4)]
    s_ber, s_r, s_alpha, s_mss = stems
    n_stems = len(s_mss)
    # (mss, alpha) -> the stem-table row (m, d, c, d_ack, c_ack, segments),
    # all 0 where the frames do not resolve (a resolved m is at least 1)
    frames, layout_errors = {}, {}
    for m, a in dict.fromkeys(zip(s_mss, s_alpha)):
        layout = base.layout if a == base.layout.alpha else replace(base.layout, alpha=a)
        try:
            fr = resolve_frames(m, layout)
        except LayoutError as exc:
            frames[m, a], layout_errors[m, a] = (0,) * 6, exc
        else:
            frames[m, a] = (fr.m, fr.d_data_bits, fr.c_data_bits, fr.d_ack_bits,
                            fr.c_ack_bits, segment_counts[m])
    stem_frames = [frames[key] for key in zip(s_mss, s_alpha)]

    # a row of (ber, r) per hop position that can differ, one for a repeated hop
    pairs = [  # each hop position's (ber, r) at every stem
        list(zip(repeat(hp.ber, n_stems) if s_ber is None else s_ber,
                 repeat(hp.r, n_stems) if s_r is None else s_r))
        for hp in (hops[:1] if one_hop else hops)
    ]
    for pair in dict.fromkeys(chain.from_iterable(pairs)):
        HopParams(*pair)

    # One table for the data and the ACK hops: a column per distinct (frame,
    # ber, r), column 0 the no-op hop that fills the paths of stems whose
    # frames did not resolve. The index holds the data paths, then the ACK
    # paths, which cross the hops in reverse, a column per stem.
    table_ids = {}  # (d, c, ber, r) -> table column
    bits = [fr[1:3] for fr in stem_frames] + [fr[3:5] for fr in stem_frames]
    index = np.array([
        [table_ids.setdefault(frame + pair, len(table_ids) + 1) if frame[0] else 0
         for frame, pair in zip(bits, there + back)]
        for there, back in zip(pairs, pairs[::-1])
    ], dtype=np.int64)
    if one_hop:  # a path of one repeated hop per table column, 0 the no-op
        paths, path = np.arange(len(table_ids) + 1)[None, :], index[0]
    else:
        paths, path = index, np.arange(2 * n_stems)
    try:
        stem_table = np.array(stem_frames, dtype=np.int64).reshape(n_stems, 6)
    except OverflowError:  # a segment count past int64 stays a Python int
        stem_table = np.array(stem_frames, dtype=object).reshape(n_stems, 6)
    errors = [None] * n
    if layout_errors:
        errors = [layout_errors.get(key) for key in zip(msss, alphas)]
    point_table = stem_table.take(stem, axis=0)  # each point reads its stem's row
    path = path.reshape(2, n_stems).take(stem, axis=1).ravel()
    d, c, bers, rs = zip(*table_ids) if table_ids else ((),) * 4
    a = base.layout.ll_ack_bits
    hop_table = hop_model_array(d, c, a, bers, rs)
    degenerate = np.isnan(hop_table.h_s)
    table = np.concatenate([np.zeros((4, 1)), [
        hop_table.f, np.where(degenerate, 0.0, hop_table.h_s), hop_table.h_f, degenerate,
    ]], axis=1)

    columns = {
        "mss_bytes": msss,
        "transfer_bytes": [base.transfer_bytes] * n,
        "h": hs,
        "ber": list(ber) if ber is not None else [hops[0].ber if ber_shared else None] * n,
        "r": list(r) if r is not None else [hops[0].r if r_shared else None] * n,
        "alpha": alphas,
        "a_bits": [a] * n,
    }
    columns.update(zip(_FRAME_FIELDS, point_table.T))
    errored = point_table[:, 0] == 0
    # float(int) rounds as Python's int * float does; NaN where errored
    m, segments = np.where(errored, math.nan, point_table[:, [0, 5]].T.astype(float))
    lengths = np.where(errored, 0, hs)
    walked = _path(table, paths, path, np.concatenate([lengths, lengths]))
    columns.update(_segment_columns(walked, m, segments, energy, errored))
    return ModelBatch({name: columns[name] for name in FIELDS}, errors, hop_table, paths, path)


def _segment_columns(path, m: np.ndarray, segments: np.ndarray, energy: EnergyParams,
                     errored: np.ndarray) -> dict:
    """The computed columns and ``flags``, from ``_path``'s result over the
    data paths then the ACK paths, and each point's m and segment count.
    ``errored`` marks the points whose frames did not resolve (an empty
    path, m = NaN): they read NaN in every computed column, code -1 in
    ``flags``."""
    n = len(m)
    (q_s, q_s_ack), (e_s, e_s_ack), (fail, fail_ack), (dead_data, dead_ack) = (
        (x[:n], x[n:]) for x in path)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e_f = fail / (1.0 - q_s)
        e_f_ack = fail_ack / (1.0 - q_s_ack)
        # q ** float(k) is q ** k: Python's float power converts k first
        q_s_m = np.array([q**k for q, k in zip(q_s.tolist(), m.tolist())])
        p_s = q_s_m * q_s_ack

        miss_rest, miss_all = _one_minus_pows(q_s, m - 1.0, m)
        frag_term = _failure_sum(m, q_s, e_s, e_f, miss_rest)
        i_f = frag_term / miss_all
        s_s = m * e_s + e_s_ack

        # Conditional cost of a failed round, assembled from the unnormalized
        # pieces so the endpoint cases never read an undefined e_s or e_f_ack.
        ack_term = np.where(
            (q_s_m == 0.0) | (q_s_ack >= 1.0),
            0.0,
            (m * e_s + e_f_ack) * q_s_m * (1.0 - q_s_ack),
        )
        s_f = (frag_term + ack_term) / (1.0 - p_s)
        retry_bits = np.where(p_s < 1.0, s_f * (1.0 / p_s - 1.0), 0.0)
        s = np.where(p_s > 0.0, retry_bits + s_s, math.inf)
        total_bits = segments * s
        total_joules = energy.joules(total_bits)

    # p_s = 0, or a p_s so small that the expected bits pass the float range;
    # s and the totals are non-negative, so "< inf" is false just for inf and NaN
    finite = total_bits < math.inf
    dead = dead_data | dead_ack
    flags = dead + 2 * ~finite
    # each computed field, and where the scalar formulas leave it undefined
    # (None: only at an errored point); every mask is taken before any field
    # is masked, each field in place
    undefined = {
        "q_s": (q_s, None),
        "q_s_ack": (q_s_ack, None),
        "e_s": (e_s, dead_data),
        "e_f": (e_f, ~(1.0 - q_s > 0.0)),
        "e_s_ack": (e_s_ack, dead_ack),
        "e_f_ack": (e_f_ack, ~(1.0 - q_s_ack > 0.0)),
        "i_f": (i_f, ~((q_s > 0.0) & (q_s < 1.0))),
        "p_s": (p_s, None),
        "s_s": (s_s, dead),
        "s_f": (s_f, ~(p_s < 1.0)),
        "s": (s, ~(s < math.inf)),
        "total_bits": (total_bits, ~finite),
        "total_joules": (total_joules, ~finite),
    }
    for x, mask in undefined.values():
        if mask is not None:
            x[mask] = math.nan
        x[errored] = math.nan
    flags[errored] = -1
    return {"flags": flags, **{name: x for name, (x, _) in undefined.items()}}
