"""Command-line front end.

Subcommands:
  model      one expected-cost row for the configured scenario
  simulate   one Monte Carlo row
  validate   model and sim rows side by side plus a 3-sigma verdict row
  sweep      one row per (grid point x MSS) along a chosen axis
  frontier   crossover-BER curves (family of r or alpha values over h)

Results go to stdout (or --output) as CSV or JSON lines, preceded by
``#`` metadata comments (tool version, config hash, seed/RNG, timestamp;
only the timestamp line varies between identical invocations). Exit
status: 0 on success, 1 on configuration errors, 2 with --strict when
any emitted row is degenerate, divergent, truncated, a layout error, a
frontier point without a crossover or with an unresolved bracket, or a
FAIL or SKIP verdict.

Field names in the emitted rows are stable; see the module docstrings of
pathmodel (model rows), simulator (sim rows) and explorer (frontier
rows). The default config path can be set via the LLN_ENERGY_CONFIG
environment variable; flags override file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from itertools import chain

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    config_sha256,
    dump_config,
    load_config,
    parse_fragments,
    validate_config,
)
from .explorer import (BER_RANGE, FRONTIER_FAMILIES, MSS_PAIR, POINTS_PER_DECADE,
                       SWEEP_AXES, SweepSpec, frontier, sweep)
from .framing import LayoutError
from .pathmodel import segment_model
from .simulator import FIDELITIES, RNG_ALGORITHM, simulate

ENV_CONFIG = "LLN_ENERGY_CONFIG"

_MSS_PAIR = ",".join(map(str, MSS_PAIR))

STRICT_FLAGS = {
    "diverges", "degenerate_hop", "truncated", "no_crossover", "layout_error",
    "bracket_unresolved",
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        raise _CliError(message)


def _add_io(p: _Parser):
    p.add_argument("--config", help=f"config file (default: ${ENV_CONFIG})")
    p.add_argument("--print-config", action="store_true",
                   help="dump the effective configuration and exit")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", help="write rows here instead of stdout")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when a result is degenerate or divergent")


# _add_common and _add_sim add only flags whose dest is a RunConfig field;
# _apply_flags copies every such dest that was given onto the config.
def _add_common(p: _Parser):
    p.add_argument("--mss", type=int, dest="mss_bytes",
                   help="TCP maximum segment size, bytes")
    p.add_argument("--ber", type=float, help="per-hop bit error rate")
    p.add_argument("--hops", type=int, help="number of hops")
    p.add_argument("--retries", "-r", type=int, help="link-layer attempt limit per hop")
    p.add_argument("--alpha", type=float, help="FEC redundancy ratio")
    p.add_argument("--fragments", type=parse_fragments,
                   help='fragment count: int, "auto" or "fit"')
    p.add_argument("--transfer-bytes", type=int, help="application bytes to transfer")


def _add_sim(p: _Parser):
    p.add_argument("--reps", type=int, dest="replications",
                   help="Monte Carlo replications")
    p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("--fidelity", choices=FIDELITIES)
    p.add_argument("--workers", type=int, help="parallel replication workers")


def build_parser() -> _Parser:
    parser = _Parser(prog="lln-energy", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"lln-energy {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("model", "closed-form expected cost for one scenario"),
        ("simulate", "Monte Carlo estimate for one scenario"),
        ("validate", "model vs simulation with a 3-sigma verdict"),
        ("sweep", "model rows along one parameter axis"),
        ("frontier", "MSS crossover-BER curves"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_io(p)
        _add_common(p)
        if name in ("simulate", "validate"):
            _add_sim(p)
        if name == "sweep":
            p.add_argument("--axis", choices=SWEEP_AXES, required=True)
            p.add_argument("--grid", required=True,
                           help='"lo:hi:log:N", "lo:hi:lin:N", or comma list')
            p.add_argument("--mss-list", default=_MSS_PAIR,
                           help="MSS values compared at each grid point")
        if name == "frontier":
            p.add_argument("--family", choices=FRONTIER_FAMILIES, required=True)
            p.add_argument("--values", required=True,
                           help="family values, e.g. 1,2,3,4,5,7 or 1e-3,1e-2")
            p.add_argument("--h-range", default="1:9", help='hop counts "lo:hi" or list')
            p.add_argument("--mss-pair", default=_MSS_PAIR)
            p.add_argument("--ber-range", default="%r:%r" % BER_RANGE)
            p.add_argument("--points-per-decade", type=int, default=POINTS_PER_DECADE)
    return parser


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    given = {f.name: getattr(args, f.name, None) for f in fields(cfg)}
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _parse_grid(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 4 or parts[2] not in ("log", "lin"):
            raise _CliError(f'grid must be "lo:hi:log|lin:N" or a comma list, got {text!r}')
        lo, hi, scale, n = float(parts[0]), float(parts[1]), parts[2], int(parts[3])
        if n < 2 or not lo < hi:
            raise _CliError(f"bad grid range {text!r}")
        if scale == "log":
            if lo <= 0:
                raise _CliError("log grid needs lo > 0")
            return tuple(lo * (hi / lo) ** (i / (n - 1)) for i in range(n))
        return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo, hi = (int(x) for x in text.split(":"))
            return tuple(range(lo, hi + 1))
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise _CliError(f'expected "lo:hi" or a comma list of integers, got {text!r}') from None


def _metadata(cfg: RunConfig, include_seed: bool) -> list[str]:
    lines = [
        f"# lln-energy {__version__}",
        f"# config-sha256: {config_sha256(cfg)}",
    ]
    if include_seed:
        lines.append(f"# seed: {cfg.seed} rng: {RNG_ALGORITHM}")
    lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    return lines


def _emit(rows: list[dict], fmt: str, meta: list[str], out) -> None:
    for line in meta:
        print(line, file=out)
    if fmt == "jsonl":
        for row in rows:
            print(json.dumps(row, sort_keys=False), file=out)
        return
    header = list(dict.fromkeys(chain.from_iterable(rows)))  # first-seen key order
    writer = csv.writer(out)
    writer.writerow(header)
    # csv writes None, an undefined value or a column the row lacks, as ""
    writer.writerows(map(row.get, header) for row in rows)


def _strict_trips(rows: list[dict]) -> bool:
    for row in rows:
        flags = set(str(row.get("flags", "")).split(";")) & STRICT_FLAGS
        if flags or row.get("verdict") in ("FAIL", "SKIP"):
            return True
    return False


def _cmd_model(cfg: RunConfig, args) -> list[dict]:
    report = segment_model(cfg.scenario(), energy=cfg.energy())
    return [{"source": "model", **report.to_record(per_hop=(args.format == "jsonl"))}]


def _cmd_simulate(cfg: RunConfig, args) -> list[dict]:
    return [{"source": "sim", **simulate(cfg.sim()).to_record()}]


def _cmd_validate(cfg: RunConfig, args) -> list[dict]:
    model = segment_model(cfg.scenario(), energy=cfg.energy())
    rows = [{"source": "model", **model.to_record()}]
    verdict: dict = {"source": "verdict"}
    if model.total_bits is None:
        # no segment round can succeed, so there is no transfer to simulate
        verdict.update(verdict="SKIP", flags="diverges",
                       note="model diverges; nothing to compare")
        return rows + [verdict]
    try:
        sim = simulate(cfg.sim())
    except ValueError as exc:
        # validate_config has accepted the config, so this is the sampler
        # refusing a transfer whose counters would pass 64 bits
        verdict.update(verdict="SKIP", note=str(exc))
        return rows + [verdict]
    rows.append({"source": "sim", **sim.to_record()})
    if sim.truncated:
        verdict.update(verdict="SKIP", flags="truncated",
                       note="round cap fired; the sim mean is biased low")
    elif sim.replications < 2:
        verdict.update(verdict="SKIP", note="one replication has no standard error")
    else:
        delta = sim.mean_total_bits - model.total_bits
        tol = 3.0 * sim.stderr_total_bits
        # zero spread happens only for deterministic (lossless) runs; any
        # mismatch there is exact, not statistical
        z = delta / sim.stderr_total_bits if sim.stderr_total_bits > 0 else None
        verdict.update(
            verdict="PASS" if abs(delta) <= tol else "FAIL",
            model_total_bits=model.total_bits,
            sim_mean_total_bits=sim.mean_total_bits,
            delta=delta,
            three_sigma=tol,
            z=z,
            flags=";".join(sim.flags),
        )
    rows.append(verdict)
    return rows


def _cmd_sweep(cfg: RunConfig, args) -> list[dict]:
    spec = SweepSpec(
        scenario=cfg.scenario(),
        axis=args.axis,
        grid=_parse_grid(args.grid),
        mss_list=_parse_int_list(args.mss_list),
        energy=cfg.energy(),
    )
    return sweep(spec)


def _cmd_frontier(cfg: RunConfig, args) -> list[dict]:
    values = _parse_grid(args.values)
    h_values = _parse_int_list(args.h_range)
    mss_pair = _parse_int_list(args.mss_pair)
    if len(mss_pair) != 2:
        raise _CliError(f"--mss-pair needs exactly two values, got {args.mss_pair!r}")
    try:
        lo, hi = (float(x) for x in args.ber_range.split(":"))
    except ValueError:
        raise _CliError(f'--ber-range must be "lo:hi", got {args.ber_range!r}') from None
    points = frontier(
        cfg.scenario(),
        family=args.family,
        family_values=values,
        h_values=h_values,
        mss_pair=(int(mss_pair[0]), int(mss_pair[1])),
        energy=cfg.energy(),
        ber_range=(lo, hi),
        points_per_decade=args.points_per_decade,
    )
    return [p.to_record() for p in points]


_COMMANDS = {
    "model": _cmd_model,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "frontier": _cmd_frontier,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = RunConfig()
        config_path = args.config or os.environ.get(ENV_CONFIG)
        if config_path:
            cfg = load_config(config_path, cfg)
        cfg = _apply_flags(cfg, args)
        validate_config(cfg)

        if args.print_config:
            sys.stdout.write(dump_config(cfg))
            return 0

        rows = _COMMANDS[args.command](cfg, args)
    except (_CliError, ConfigError, LayoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = _metadata(cfg, include_seed=args.command in ("simulate", "validate"))
    if args.output:
        try:
            fh = open(args.output, "w", newline="")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
        with fh:
            _emit(rows, args.format, meta, fh)
    else:
        _emit(rows, args.format, meta, sys.stdout)

    if args.strict and _strict_trips(rows):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
