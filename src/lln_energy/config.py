"""Run configuration: defaults, INI-style config files, canonical dumps.

Every default matches the bundled reference deployment (five 3e-4 hops,
three link-layer attempts, 802.15.4-style 127-byte MTU, 51.2 kB
transfer). The layout, hop, transfer and energy defaults are read from
the classes that own them (``FrameLayout``, ``HopParams``,
``PathScenario``, ``EnergyParams``), and those classes check the values.
Frame sizes in the file are in bits; every ``*_bits`` key also accepts a
``*_bytes`` twin (converted, mutually exclusive). Unknown sections or
keys are rejected with file context.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from .framing import FrameLayout
from .hopmodel import HopParams
from .pathmodel import EnergyParams, PathScenario

if TYPE_CHECKING:
    from .simulator import SimConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "dump_config", "config_sha256"]


class ConfigError(ValueError):
    """Malformed run configuration (bad key, type, units, or value)."""


@dataclass(frozen=True)
class RunConfig:
    # [path]
    hops: int = 5
    ber: float = 3e-4
    retries: int = HopParams.r
    hop_bers: tuple[float, ...] | None = None  # per-hop override of ber
    # [frames]
    mtu_bits: int = FrameLayout.mtu_bits
    ll_data_header_bits: int = FrameLayout.ll_data_header_bits
    ll_ack_bits: int = FrameLayout.ll_ack_bits
    frag_header_bits: int = FrameLayout.frag_header_bits
    ip_header_bits: int = FrameLayout.ip_header_bits
    tcp_header_bits: int = FrameLayout.tcp_header_bits
    alpha: float = FrameLayout.alpha
    fragments: int | str = FrameLayout.fragments
    # [transfer]
    mss_bytes: int = 64
    transfer_bytes: int = PathScenario.transfer_bytes
    # [energy]
    tx_uj_per_bit: float = EnergyParams.tx_uj_per_bit
    rx_uj_per_bit: float = EnergyParams.rx_uj_per_bit
    n_neighbors: float = EnergyParams.n_neighbors
    # [sim]; SimConfig reads its defaults from here
    replications: int = 1000
    seed: int = 1
    fidelity: str = "frame"
    round_cap: int = 1_000_000
    workers: int = 1

    def layout(self) -> FrameLayout:
        return FrameLayout(
            mtu_bits=self.mtu_bits,
            ll_data_header_bits=self.ll_data_header_bits,
            ll_ack_bits=self.ll_ack_bits,
            frag_header_bits=self.frag_header_bits,
            ip_header_bits=self.ip_header_bits,
            tcp_header_bits=self.tcp_header_bits,
            alpha=self.alpha,
            fragments=self.fragments,
        )

    def path(self) -> tuple[HopParams, ...]:
        if self.hop_bers and len(self.hop_bers) != self.hops:
            raise ConfigError(
                f"hop_bers lists {len(self.hop_bers)} hops but hops = {self.hops}"
            )
        bers = self.hop_bers or (self.ber,) * self.hops
        return tuple(HopParams(ber=b, r=self.retries) for b in bers)

    def scenario(self) -> PathScenario:
        return PathScenario(
            hops=self.path(),
            layout=self.layout(),
            mss_bytes=self.mss_bytes,
            transfer_bytes=self.transfer_bytes,
        )

    def energy(self) -> EnergyParams:
        return EnergyParams(
            tx_uj_per_bit=self.tx_uj_per_bit,
            rx_uj_per_bit=self.rx_uj_per_bit,
            n_neighbors=self.n_neighbors,
        )

    def sim(self) -> SimConfig:
        # imported here, not at the top: the simulator loads numpy, and every
        # module the CLI compiles after numpy adds to its peak memory
        from .simulator import SimConfig

        return SimConfig(
            scenario=self.scenario(),
            energy=self.energy(),
            replications=self.replications,
            master_seed=self.seed,
            fidelity=self.fidelity,
            round_cap=self.round_cap,
            workers=self.workers,
        )


_SECTIONS: dict[str, tuple[str, ...]] = {
    "path": ("hops", "ber", "retries", "hop_bers"),
    "frames": (
        "mtu_bits",
        "ll_data_header_bits",
        "ll_ack_bits",
        "frag_header_bits",
        "ip_header_bits",
        "tcp_header_bits",
        "alpha",
        "fragments",
    ),
    "transfer": ("mss_bytes", "transfer_bytes"),
    "energy": ("tx_uj_per_bit", "rx_uj_per_bit", "n_neighbors"),
    "sim": (
        "replications",
        "seed",
        "fidelity",
        "round_cap",
        "workers",
    ),
}

_BIT_KEYS = tuple(k for k in _SECTIONS["frames"] if k.endswith("_bits"))


def _parse_value(name: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if name == "hop_bers":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        if name == "fragments":
            return raw if raw in ("auto", "fit") else int(raw)
        if name == "fidelity":
            return raw
        if name in ("ber", "alpha", "tx_uj_per_bit", "rx_uj_per_bit", "n_neighbors"):
            return float(raw)
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {name} = {raw!r} ({exc})") from None


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    """Parse an INI config file on top of ``base`` (or the defaults)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    updates: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        allowed = _SECTIONS[section]
        byte_twins = {k[: -len("_bits")] + "_bytes": k for k in allowed if k.endswith("_bits")}
        for key, raw in parser.items(section):
            where = f"{path} [{section}]"
            if key in allowed:
                updates[key] = _parse_value(key, raw, where)
            elif key in byte_twins:
                target = byte_twins[key]
                if target in updates:
                    raise ConfigError(
                        f"{where}: both {target} and {key} given; use one unit"
                    )
                updates[target] = 8 * _parse_value(target, raw, where)
                updates[f"__byte_twin_{target}"] = True
            else:
                raise ConfigError(f"{where}: unknown key {key!r}")
        # a _bits key later in the same section must not clash with its twin
        for key in parser.options(section):
            if key in allowed and updates.pop(f"__byte_twin_{key}", False):
                raise ConfigError(
                    f"{path} [{section}]: both {key} and its _bytes twin given"
                )
    updates = {k: v for k, v in updates.items() if not k.startswith("__byte_twin_")}
    cfg = replace(base or RunConfig(), **updates)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Build every parameter object once; their constructors do the checks."""
    try:
        cfg.sim()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def dump_config(cfg: RunConfig) -> str:
    """Canonical INI text; load_config(dump_config(c)) round-trips to c."""
    out = io.StringIO()
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            v = values[key]
            if key == "hop_bers":
                if v is None:
                    continue  # homogeneous path: ber covers it
                v = ", ".join(repr(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            out.write(f"{key} = {v}\n")
        out.write("\n")
    return out.getvalue()


def config_sha256(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()
