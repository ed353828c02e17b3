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

``segment_models`` evaluates many scenarios, each with its own hops and
frames, in one numpy pass; the hop models stay scalar and cached. Only
IEEE ``+ - * /`` run in numpy, in the order of the scalar formulas: a
per-hop loop rather than ``np.sum`` or ``np.prod``, with no mask (see
``_path``). ``q**m``, ``log`` and ``expm1`` are per-element ``math`` calls,
because numpy's vectorized versions can differ from libm in the last
bit. Every field therefore equals a scalar evaluation of the same
formulas bit for bit. ``segment_model`` is the one-point case; a numpy
pass costs more than a scalar evaluation would for one point, so callers
with many points batch. A pass holds a few hops x scenarios float64
arrays, so callers bound the scenarios per call to bound its memory.

The result, ``ModelBatch``, is one store: a column per ``ModelReport``
field. A computed field's column is a float64 array in which NaN means
None (undefined, or a scenario whose frames do not resolve); a defined
field is never NaN, which the tests' ``==`` against the scalar oracle
checks. A column converts to Python values only when it is read, so a
caller that reads one field pays for that one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .framing import FrameLayout, LayoutError, resolve_frames
from .hopmodel import HopModel, HopParams, hop_model

__all__ = [
    "PathScenario",
    "EnergyParams",
    "ModelReport",
    "ModelBatch",
    "uniform_path",
    "fragment_failure_sum",
    "segment_model",
    "segment_models",
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
        for name, value in vars(self).items():  # a frozen dataclass: just its fields
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def uj_per_bit(self) -> float:
        return self.tx_uj_per_bit + self.n_neighbors * self.rx_uj_per_bit

    def joules(self, bits: float | None) -> float | None:
        return None if bits is None else bits * self.uj_per_bit() * 1e-6


def _one_minus_pow(q, k) -> np.ndarray:
    """1 - q**k elementwise, without cancellation for q near 1 (1 at q <= 0)."""
    q = np.asarray(q)
    return np.array([
        -math.expm1(j * math.log(x)) if x > 0.0 else 1.0
        for x, j in zip(q.ravel().tolist(), np.ravel(k).tolist())
    ]).reshape(q.shape)


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
        mixed = m * (1.0 - q_s) * e_f + m * e_s * q_s * _one_minus_pow(q_s, m - 1.0)
        return np.where(q_s >= 1.0, 0.0, np.where(q_s <= 0.0, m * e_f, mixed))


def _path(table: np.ndarray, index: np.ndarray):
    """(q_s, e_s, e_f unnormalized by 1 - q_s, dead) of each column's path.

    ``table`` holds the hop models' (f, h_s, h_f, degenerate) as four rows;
    ``index`` has one row per hop position, one column per path, naming
    the table column of that path's hop. The loop accumulates in the scalar
    formulas' order: q_s = prod(1 - f_i); e_s = sum(h_s_i); and the failure
    cost, for each hop k, of clearing the hops before k and burning all
    attempts on k, weighted by the chance the drop happens there. An
    undefined h_s (a hop that can never deliver, which ``dead`` marks) is
    stored as 0.0, so every sum stays finite: past a zero survival each
    failure term is then exactly 0.0 and changes nothing, as the scalar
    loop's stop there does, with no mask and no NaN.
    """
    f, h_s, h_f, degenerate = table
    keep = 1.0 - f
    n = index.shape[1]
    q = np.ones(n)
    e_s = np.zeros(n)
    total = np.zeros(n)
    dead = np.zeros(n)
    for hop in index:
        total = total + (e_s + h_f[hop]) * q * f[hop]
        q = q * keep[hop]
        e_s = e_s + h_s[hop]
        dead = dead + degenerate[hop]
    return q, e_s, total, dead != 0.0


def _shared(distinct: set):
    """The one member of ``distinct``, else None (the hops differ)."""
    return next(iter(distinct)) if len(distinct) == 1 else None


def _hop_models(d: int, c: int, a: int, hops) -> tuple[HopModel, ...]:
    """Each hop's model; a path of one repeated hop takes one lookup.

    That is every homogeneous path, so every path unless ``hop_bers``
    gives the hops different BERs. It, and the one table column of
    ``_hop_table``, make the per-hop work of such a path per-path work.
    """
    if hops[1:] == hops[:-1]:  # stops at the first hop that differs
        return (hop_model(d, c, a, hops[0]),) * len(hops)
    return tuple(hop_model(d, c, a, hp) for hp in hops)


def _hop_table(paths: tuple[tuple[HopModel, ...], ...], width: int):
    """(table, index) of ``_path`` for these paths of hop models.

    Table column 0 is a no-op hop that pads shorter paths to ``width``:
    f = 0 and h_s = h_f = 0 leave every sum and product bit for bit
    unchanged; an empty path is all padding. Each distinct model object
    takes one column.
    """
    column = {}  # id(model) -> table column; the paths keep the models alive
    table = [(0.0, 0.0, 0.0, 0.0)]
    index = []
    for models in paths:
        if models and models[1:] == models[:-1]:  # one repeated hop
            index += [_column(models[0], column, table)] * len(models)
        else:
            index += [_column(hm, column, table) for hm in models]
        index += [0] * (width - len(models))
    return (
        np.array(table).T,
        np.array(index).reshape(len(paths), width).T,
    )


def _column(hm: HopModel, column: dict, table: list) -> int:
    k = column.get(id(hm))
    if k is None:
        k = column[id(hm)] = len(table)
        table.append((hm.f, 0.0 if hm.degenerate else hm.h_s, hm.h_f, float(hm.degenerate)))
    return k


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
        rec = _record(vars(self))
        if per_hop:
            for side, hops in (("data", self.data_hops), ("ack", self.ack_hops)):
                for name in ("f", "h_s", "h_f"):
                    rec[f"{name}_{side}"] = [getattr(hm, name) for hm in hops]
        return rec


def _record(report_fields: dict) -> dict:
    """A ModelReport's fields as a record: per-hop models dropped, flags joined."""
    rec = dict(report_fields)
    del rec["data_hops"], rec["ack_hops"]
    rec["flags"] = ";".join(rec["flags"])
    return rec


_REPORT_FIELDS = tuple(f.name for f in fields(ModelReport))
#: The fields read off each scenario, its frames and its hop models
_GIVEN = _REPORT_FIELDS[:_REPORT_FIELDS.index("q_s")] + ("segments",)


@dataclass(frozen=True, eq=False)
class ModelBatch:
    """``segment_models``' result: one column per ``ModelReport`` field.

    ``columns`` maps each field, in field order, to its values over the
    scenarios: a list for the fields read off the scenario, a float64
    array, NaN where the field is None, for the computed ones.
    ``errors[i]`` is the ``LayoutError`` raised resolving scenario i's
    frames, else None; every field of that scenario is then None.
    """

    columns: dict[str, list | np.ndarray]
    errors: list[LayoutError | None]

    def column(self, name: str) -> list:
        """Field ``name`` of every scenario, None where undefined or errored."""
        values = self.columns[name]
        if isinstance(values, np.ndarray):
            return [None if v != v else v for v in values.tolist()]  # NaN is None
        return list(values)

    def report(self, i: int) -> ModelReport:
        """Scenario i's ModelReport; raises its LayoutError, if any."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return ModelReport(**{name: self.column(name)[i] for name in self.columns})

    def records(self) -> Iterator[dict | LayoutError]:
        """Each scenario's ``ModelReport.to_record()`` in turn, or its LayoutError."""
        rows = zip(*map(self.column, self.columns))
        for err, row in zip(self.errors, rows):
            yield err if err is not None else _record(dict(zip(self.columns, row)))


def segment_model(
    scenario: PathScenario, energy: EnergyParams = EnergyParams()
) -> ModelReport:
    """Full expected-cost model for one scenario (see ``segment_models``)."""
    return segment_models([scenario], energy).report(0)


def segment_models(
    scenarios: Sequence[PathScenario], energy: EnergyParams = EnergyParams()
) -> ModelBatch:
    """Full expected-cost model for each scenario, in one numpy pass.

    Data fragments cross the hops in order; the TCP ACK crosses them in
    reverse. A segment round succeeds with probability q_s^m * q_s_ack;
    s_f conditions on the round failing, s composes the unbounded-retry
    total, and the transfer multiplies by ceil(transfer/mss) segments.
    A scenario whose frames cannot be resolved gets its LayoutError in
    ``errors`` instead of failing the batch.
    """
    rows, errors = [], []  # each scenario's _GIVEN fields, all None if errored
    for sc in scenarios:
        try:
            frames = resolve_frames(sc.mss_bytes, sc.layout)
        except LayoutError as exc:
            rows.append((None,) * len(_GIVEN))
            errors.append(exc)
            continue
        a = sc.layout.ll_ack_bits
        rows.append((
            sc.mss_bytes, sc.transfer_bytes, len(sc.hops),
            _shared({hp.ber for hp in sc.hops}), _shared({hp.r for hp in sc.hops}),
            sc.layout.alpha, frames.m,
            frames.d_data_bits, frames.c_data_bits, frames.d_ack_bits, frames.c_ack_bits, a,
            _hop_models(frames.d_data_bits, frames.c_data_bits, a, sc.hops),
            _hop_models(frames.d_ack_bits, frames.c_ack_bits, a, sc.hops[::-1]),
            sc.segments,
        ))
        errors.append(None)
    given = dict(zip(_GIVEN, [list(col) for col in zip(*rows)] or [[] for _ in _GIVEN]))
    columns = {**given, **_segment_columns(given, energy)}
    return ModelBatch({name: columns[name] for name in _REPORT_FIELDS}, errors)


def _segment_columns(given: dict[str, list], energy: EnergyParams) -> dict:
    """The computed columns and ``flags``, from the given columns.

    An errored scenario, None in every given column, runs as an empty path
    with m = NaN and reads NaN in every computed column, None in ``flags``.
    """
    # the data paths and the ACK paths side by side, in one set of columns
    n = len(given["h"])
    paths = [hops or () for hops in given["data_hops"] + given["ack_hops"]]
    q, e, fail_both, dead = _path(*_hop_table(paths, max(map(len, paths), default=0)))
    q_s, q_s_ack = q[:n], q[n:]
    e_s, e_s_ack = e[:n], e[n:]
    fail, fail_ack = fail_both[:n], fail_both[n:]
    dead_data, dead_ack = dead[:n], dead[n:]
    # float(int) rounds as Python's int * float does, and None becomes NaN
    m = np.array(given["m"], dtype=float)
    segments = np.array(given["segments"], dtype=float)
    resolved = ~np.isnan(m)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e_f = fail / (1.0 - q_s)
        e_f_ack = fail_ack / (1.0 - q_s_ack)
        # q ** float(k) is q ** k: Python's float power converts k first
        q_s_m = np.array([q**k for q, k in zip(q_s.tolist(), m.tolist())])
        p_s = q_s_m * q_s_ack

        frag_term = fragment_failure_sum(m, q_s, e_s, e_f)
        i_f = frag_term / _one_minus_pow(q_s, m)
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
    defined = {  # each computed field, and where the scalar formulas define it
        "q_s": (q_s, True),
        "q_s_ack": (q_s_ack, True),
        "e_s": (e_s, ~dead_data),
        "e_f": (e_f, 1.0 - q_s > 0.0),
        "e_s_ack": (e_s_ack, ~dead_ack),
        "e_f_ack": (e_f_ack, 1.0 - q_s_ack > 0.0),
        "i_f": (i_f, (q_s > 0.0) & (q_s < 1.0)),
        "p_s": (p_s, True),
        "s_s": (s_s, ~(dead_data | dead_ack)),
        "s_f": (s_f, p_s < 1.0),
        "s": (s, s < math.inf),
        "total_bits": (total_bits, finite),
        "total_joules": (total_joules, finite),
    }
    columns = {name: np.where(ok & resolved, x, math.nan) for name, (x, ok) in defined.items()}
    columns["flags"] = [
        (FLAG_DEGENERATE_HOP,) * dead + (FLAG_DIVERGES,) * (not ok) if live else None
        for dead, ok, live in zip(
            (dead_data | dead_ack).tolist(), finite.tolist(), resolved.tolist()
        )
    ]
    return columns
