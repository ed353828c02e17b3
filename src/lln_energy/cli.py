"""Command-line front end.

Subcommands:
  model      one expected-cost row for the configured scenario
  simulate   one Monte Carlo row
  validate   model and sim rows side by side plus a 3-sigma verdict row
  sweep      one row per (grid point x MSS) along a chosen axis
  frontier   crossover-BER curves (family of r or alpha values over h)

Results go to stdout (or --output) as CSV or JSON lines, preceded by
``#`` metadata comments (tool version, config hash, seed/RNG, timestamp;
only the timestamp line varies between identical invocations). The whole
output is formatted before any of it is written, so a bad value anywhere
ends the run with nothing written. Every command's output is a series of
blocks, each a run of consecutive rows with the same fields held as a
row count and a column per field: a sweep's come straight from its model
calls (explorer.sweep_columns), no row built; the other commands' few
rows are grouped into them. CSV, with the cells csv.DictWriter writes,
and JSON lines are written from the same blocks. Exit status: 0 on
success, 1 on configuration errors or when the reader of stdout leaves
early (a pipe into head), 2 with --strict when any emitted row is
degenerate, divergent, truncated, a layout error, a frontier point
without a crossover or with an unresolved bracket, or a FAIL or SKIP
verdict.

Field names in the emitted rows are stable; see the module docstrings of
pathmodel (model rows), simulator (sim rows) and explorer (frontier
rows). The default config path can be set via the LLN_ENERGY_CONFIG
environment variable; flags override file values.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import fields, replace
from datetime import datetime, timezone
from functools import cache
from itertools import groupby

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
                       SWEEP_AXES, SweepSpec, frontier, sweep_columns)
from .framing import LayoutError
from .pathmodel import MAX_HOPS, check_hop_count, segment_models
from .simulator import FIDELITIES, RNG_ALGORITHM, simulate

ENV_CONFIG = "LLN_ENERGY_CONFIG"

_MSS_PAIR = ",".join(map(str, MSS_PAIR))

STRICT_FLAGS = {
    "diverges", "degenerate_hop", "truncated", "no_crossover", "layout_error",
    "bracket_unresolved",
}
#: What csv's minimal quoting quotes: the delimiter, the quote, line breaks
_QUOTED = (",", '"', "\r", "\n")


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


@cache  # built on first use, once per process
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


def _parse_grid(text: str, flag: str) -> tuple[float, ...]:
    """The values of grid flag ``flag``: "lo:hi:log|lin:N", or a comma list."""
    try:
        if ":" not in text:
            return tuple(float(x) for x in text.split(",") if x.strip())
        parts = text.split(":")
        if len(parts) != 4 or parts[2] not in ("log", "lin"):
            raise ValueError
        lo, hi, scale, n = float(parts[0]), float(parts[1]), parts[2], int(parts[3])
    except ValueError:
        raise _CliError(f'{flag} must be "lo:hi:log|lin:N" or a comma list of numbers, '
                        f'got {text!r}') from None
    if n < 2 or not lo < hi:
        raise _CliError(f"bad {flag} range {text!r}")
    if scale == "log":
        if lo <= 0:
            raise _CliError(f"{flag}: a log grid needs lo > 0, got {text!r}")
        return tuple(lo * (hi / lo) ** (i / (n - 1)) for i in range(n))
    return tuple(lo + (hi - lo) * i / (n - 1) for i in range(n))


def _parse_int_list(text: str, flag: str, ranges: bool = True) -> tuple[int, ...] | range:
    """The values of integer-list flag ``flag``: a comma list or, where
    ``ranges`` is set, "lo:hi", as a range that is not listed here."""
    form = '"lo:hi" or a comma list' if ranges else "a comma list"
    try:
        if ranges and ":" in text:
            lo, hi = (int(x) for x in text.split(":"))
            return range(lo, hi + 1)
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise _CliError(f"{flag} must be {form} of integers, got {text!r}") from None


def _metadata(cfg: RunConfig, include_seed: bool) -> list[str]:
    lines = [
        f"# lln-energy {__version__}",
        f"# config-sha256: {config_sha256(cfg)}",
    ]
    if include_seed:
        lines.append(f"# seed: {cfg.seed} rng: {RNG_ALGORITHM}")
    lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    return lines


#: A block: a run of consecutive rows with the same fields, as its row
#: count and a column per field, in the rows' field order
Block = tuple[int, dict[str, list]]


def _blocks(rows: Iterable[dict]) -> Iterator[Block]:
    """The rows as blocks, one per run of consecutive rows whose keys, in
    order, are the same."""
    for _, run in groupby(rows, key=tuple):
        run = list(run)
        yield len(run), {name: [row[name] for row in run] for name in run[0]}


def _cells(column: list) -> list[str]:
    """A column's CSV cells: ``str`` of each value, "" for None, and csv's
    minimal quoting of a cell that holds a comma, a quote or a line break."""
    cells = list(map(str, column))
    if None in column:
        cells = ["" if value is None else cell for value, cell in zip(column, cells)]
    joined = "".join(cells)
    if any(c in joined for c in _QUOTED):
        cells = ['"' + cell.replace('"', '""') + '"' if any(c in cell for c in _QUOTED)
                 else cell for cell in cells]
    return cells


def _csv(blocks: Iterable[Block]) -> list[str]:
    """The CSV lines, header first, that ``csv.DictWriter`` writes for the
    blocks' rows, with every key seen as a field and "" for None.

    Each block is formatted a column at a time as it comes, against the
    header so far: a key first seen in a later block joins the header at
    its end, so the lines before it only gain empty cells."""
    header: dict = {}
    parts = []  # each block's lines and the cells each of them holds
    for n, columns in blocks:
        header.update(dict.fromkeys(columns))
        cells = [_cells(columns[name]) if name in columns else [""] * n for name in header]
        # a row before any field is one empty cell, padded like any other
        parts.append((list(map(",".join, zip(*cells))) if cells else [""] * n,
                      max(len(header), 1)))
    width = len(header)
    lines = [",".join(_cells(list(header)))]
    for block, w in parts:
        lines += block if w == width else [line + "," * (width - w) for line in block]
    # csv quotes a lone empty field, so that its record is not a blank line
    return [line or '""' for line in lines] if width == 1 else lines


def _strict_trips(block: Block) -> bool:
    """Whether a row of the block has a flag in STRICT_FLAGS or a FAIL or
    SKIP verdict."""
    columns = block[1]
    flags = {f for cell in columns.get("flags", ()) for f in str(cell).split(";")}
    return (not STRICT_FLAGS.isdisjoint(flags)
            or any(v in ("FAIL", "SKIP") for v in columns.get("verdict", ())))


def _emit(blocks: Iterable[Block], fmt: str, meta: list[str], out) -> bool:
    """Write the ``meta`` lines, then the blocks' rows as CSV or JSON lines.
    Returns whether a row trips ``--strict``."""
    out.writelines(line + "\n" for line in meta)
    trips = []

    def checked(blocks):
        for block in blocks:
            trips.append(_strict_trips(block))
            yield block

    if fmt == "jsonl":
        # range(n) keeps the rows of a block with no columns
        out.writelines(json.dumps(dict(zip(columns, row))) + "\n" for n, columns in
                       checked(blocks) for *row, _ in zip(*columns.values(), range(n)))
    else:
        out.write("".join(line + "\r\n" for line in _csv(checked(blocks))))
    return any(trips)


def _model_block(cfg: RunConfig, per_hop: bool = False) -> Block:
    """The configured scenario's model row as a block; raises its LayoutError."""
    batch = segment_models(cfg.scenario(), cfg.energy())
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return 1, batch.record_columns(per_hop=per_hop, source=["model"])


def _cmd_model(cfg: RunConfig, args) -> Iterator[Block]:
    return iter([_model_block(cfg, per_hop=(args.format == "jsonl"))])


def _cmd_simulate(cfg: RunConfig, args) -> Iterator[Block]:
    return _blocks([{"source": "sim", **simulate(cfg.sim()).to_record()}])


def _cmd_validate(cfg: RunConfig, args) -> Iterator[Block]:
    _, model = _model_block(cfg)
    rows = [{name: column[0] for name, column in model.items()}]
    model_bits = rows[0]["total_bits"]
    verdict: dict = {"source": "verdict"}
    if model_bits is None:
        # no segment round can succeed, so there is no transfer to simulate
        verdict.update(verdict="SKIP", flags="diverges",
                       note="model diverges; nothing to compare")
        return _blocks(rows + [verdict])
    try:
        sim = simulate(cfg.sim())
    except ValueError as exc:
        # validate_config has accepted the config, so this is the sampler
        # refusing a transfer whose counters would pass 64 bits
        verdict.update(verdict="SKIP", note=str(exc))
        return _blocks(rows + [verdict])
    rows.append({"source": "sim", **sim.to_record()})
    if sim.truncated:
        verdict.update(verdict="SKIP", flags="truncated",
                       note="round cap fired; the sim mean is biased low")
    elif sim.replications < 2:
        verdict.update(verdict="SKIP", note="one replication has no standard error")
    else:
        delta = sim.mean_total_bits - model_bits
        tol = 3.0 * sim.stderr_total_bits
        # zero spread happens only for deterministic (lossless) runs; any
        # mismatch there is exact, not statistical
        z = delta / sim.stderr_total_bits if sim.stderr_total_bits > 0 else None
        verdict.update(
            verdict="PASS" if abs(delta) <= tol else "FAIL",
            model_total_bits=model_bits,
            sim_mean_total_bits=sim.mean_total_bits,
            delta=delta,
            three_sigma=tol,
            z=z,
            flags=";".join(sim.flags),
        )
    rows.append(verdict)
    return _blocks(rows)


def _cmd_sweep(cfg: RunConfig, args) -> Iterator[Block]:
    spec = SweepSpec(
        scenario=cfg.scenario(),
        axis=args.axis,
        grid=_parse_grid(args.grid, "--grid"),
        mss_list=_parse_int_list(args.mss_list, "--mss-list"),
        energy=cfg.energy(),
    )
    return sweep_columns(spec)


def _cmd_frontier(cfg: RunConfig, args) -> Iterator[Block]:
    values = _parse_grid(args.values, "--values")
    h_values = _parse_int_list(args.h_range, "--h-range")
    # refused before the explorer lists a long range: only MAX_HOPS hop
    # counts are valid, so a range's first refused one (the one the
    # explorer would name) is among its first MAX_HOPS + 1
    for h in h_values[:MAX_HOPS + 1]:
        check_hop_count(h)
    mss_pair = _parse_int_list(args.mss_pair, "--mss-pair", ranges=False)
    try:
        lo, hi = (float(x) for x in args.ber_range.split(":"))
    except ValueError:
        raise _CliError(f'--ber-range must be "lo:hi", got {args.ber_range!r}') from None
    points = frontier(
        cfg.scenario(),
        family=args.family,
        family_values=values,
        h_values=h_values,
        mss_pair=mss_pair,
        energy=cfg.energy(),
        ber_range=(lo, hi),
        points_per_decade=args.points_per_decade,
    )
    return _blocks(p.to_record() for p in points)


_COMMANDS = {
    "model": _cmd_model,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "frontier": _cmd_frontier,
}


def _stdout(text: str) -> int:
    """Write ``text`` to stdout: 0, or 1 when the reader has gone (a closed
    pipe, as under ``| head``), without a traceback."""
    try:
        # in pieces: a single write larger than the stream's buffer can stop
        # short at a closed pipe and report nothing
        for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
            sys.stdout.write(text[start:start + io.DEFAULT_BUFFER_SIZE])
        sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: point stdout at devnull, so the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
            return _stdout(dump_config(cfg))

        blocks = _COMMANDS[args.command](cfg, args)
        # every block is formatted, and any of them may raise, before the
        # output opens; only the text is kept
        text = io.StringIO()
        meta = _metadata(cfg, include_seed=args.command in ("simulate", "validate"))
        tripped = _emit(blocks, args.format, meta, text)
    except (_CliError, ConfigError, LayoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.output:
        try:
            fh = open(args.output, "w", newline="")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
        with fh:
            fh.write(text.getvalue())
    elif _stdout(text.getvalue()):
        return 1
    return 2 if args.strict and tripped else 0


if __name__ == "__main__":
    sys.exit(main())
