"""Run configuration: defaults, INI-style config files, canonical dumps.

Every default matches the bundled reference deployment (five 3e-4 hops,
three link-layer attempts, 802.15.4-style 127-byte MTU, 51.2 kB
transfer). The layout, hop, transfer, energy and sim defaults are read
from the classes that own them (``FrameLayout``, ``HopParams``,
``PathScenario``, ``EnergyParams``, ``SimConfig``), and those classes
check the values.
The ``[frames]`` and ``[energy]`` sections are the fields of
``FrameLayout`` and ``EnergyParams``, each value parses by the type of its
field's default, and the CLI flags set the same ``RunConfig`` fields.
Frame sizes in the file are in bits; every ``*_bits`` key also accepts a
``*_bytes`` twin (converted, mutually exclusive). Unknown sections or
keys are rejected with file context.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, fields

from .framing import FrameLayout
from .hopmodel import HopParams
from .pathmodel import EnergyParams, PathScenario, check_hop_count
from .simulator import SimConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "dump_config", "config_sha256",
           "parse_fragments"]


class ConfigError(ValueError):
    """Malformed run configuration (bad key, type, units, or value)."""


#: INI sections in file order. [frames] and [energy] are the fields of
#: FrameLayout and EnergyParams; [transfer] and [sim] pass to PathScenario
#: and SimConfig by name (``seed`` as ``master_seed``).
_SECTIONS: dict[str, tuple[str, ...]] = {
    "path": ("hops", "ber", "retries", "hop_bers"),
    "frames": tuple(f.name for f in fields(FrameLayout)),
    "transfer": ("mss_bytes", "transfer_bytes"),
    "energy": tuple(f.name for f in fields(EnergyParams)),
    "sim": ("replications", "seed", "fidelity", "round_cap", "workers"),
}


def parse_fragments(raw: str) -> int | str:
    """A fragment mode as a file or flag gives it: "auto", "fit" or a count."""
    return raw if raw in ("auto", "fit") else int(raw)


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
    # [sim]
    replications: int = SimConfig.replications
    seed: int = SimConfig.master_seed
    fidelity: str = SimConfig.fidelity
    round_cap: int = SimConfig.round_cap
    workers: int = SimConfig.workers

    def _section(self, name: str) -> dict:
        return {key: getattr(self, key) for key in _SECTIONS[name]}

    def layout(self) -> FrameLayout:
        return FrameLayout(**self._section("frames"))

    def path(self) -> tuple[HopParams, ...]:
        if self.hop_bers and len(self.hop_bers) != self.hops:
            raise ConfigError(
                f"hop_bers lists {len(self.hop_bers)} hops but hops = {self.hops}"
            )
        check_hop_count(self.hops)  # before a tuple of that many hops is built
        bers = self.hop_bers or (self.ber,) * self.hops
        return tuple(HopParams(ber=b, r=self.retries) for b in bers)

    def scenario(self) -> PathScenario:
        return PathScenario(
            hops=self.path(), layout=self.layout(), **self._section("transfer")
        )

    def energy(self) -> EnergyParams:
        return EnergyParams(**self._section("energy"))

    def sim(self) -> SimConfig:
        knobs = self._section("sim")
        knobs["master_seed"] = knobs.pop("seed")
        return SimConfig(scenario=self.scenario(), energy=self.energy(), **knobs)


def _parse_value(name: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if name == "hop_bers":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        if name == "fragments":
            return parse_fragments(raw)
        return type(getattr(RunConfig, name))(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {name} = {raw!r} ({exc})") from None


def load_config(path: str) -> RunConfig:
    """Parse an INI config file on top of the defaults."""
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
        where = f"{path} [{section}]"
        keys = _SECTIONS[section]
        for key, raw in parser.items(section):
            name = key
            if key not in keys and key.endswith("_bytes"):
                name = key[: -len("_bytes")] + "_bits"
            if name not in keys:
                raise ConfigError(f"{where}: unknown key {key!r}")
            if name in updates:
                # configparser rejects a repeated key, so only a *_bits key
                # and its *_bytes twin meet here
                raise ConfigError(
                    f"{where}: both {name} and its _bytes twin given; use one unit"
                )
            value = _parse_value(name, raw, where)
            updates[name] = value if name == key else 8 * value
    cfg = RunConfig(**updates)
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
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            v = getattr(cfg, key)
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
