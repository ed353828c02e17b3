"""CLI and config-file tests: round-trips, output stability, exit codes."""

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lln_energy
from lln_energy import cli, config
from lln_energy.cli import _add_common, _add_sim, _blocks, _emit, _Parser, build_parser, main
from lln_energy.config import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
)
from lln_energy.explorer import _ERROR_FIELDS, SweepSpec, sweep
from lln_energy.pathmodel import FIELDS
from lln_energy.simulator import COUNTER_NAMES, SimReport, TruncationWarning


#: ``model --format jsonl`` rows recorded for test_model_jsonl_is_pinned
PINNED_MODEL_ROWS = Path(__file__).with_name("model_records.jsonl")
HETERO_INI = ("[path]\nhops = 9\n"
              "hop_bers = 1e-5, 3e-5, 1e-4, 2e-4, 3e-4, 5e-4, 1e-4, 3e-5, 1e-5\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_child(*argv: str, address_kib: int | None = None) -> dict:
    """``subprocess.run``/``Popen`` arguments running ``lln-energy argv`` in a
    child, output piped; ``address_kib`` caps the child's address space alone."""
    limit = None if address_kib is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_kib * 1024,) * 2))
    return dict(args=[sys.executable, "-m", "lln_energy.cli", *argv],
                env={**os.environ, "PYTHONPATH": str(Path(lln_energy.__file__).parents[1])},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit)


def body(out: str) -> str:
    """Output minus the (timestamped) metadata comment lines."""
    return "\n".join(l for l in out.splitlines() if not l.startswith("#"))


def meta(out: str) -> list[str]:
    return [l for l in out.splitlines() if l.startswith("#")]


def csv_body(out: str) -> str:
    """Output minus the metadata lines, line endings kept."""
    return "".join(l for l in out.splitlines(keepends=True) if not l.startswith("#"))


def dict_writer_csv(rows: list[dict]) -> str:
    """The rows as csv.DictWriter writes them, every key seen a field."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=dict.fromkeys(k for r in rows for k in r),
                            restval="")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def emitted_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    _emit(_blocks(rows), "csv", [], out)
    return out.getvalue()


class TestConfigFile:
    def test_print_config_round_trips(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "model", "--print-config", "--mss", "512",
                               "--ber", "4e-4", "--alpha", "0.01")
        assert code == 0
        path = tmp_path / "dumped.ini"
        path.write_text(out)
        reparsed = load_config(str(path))
        assert dump_config(reparsed) == out
        assert run_cli(capsys, "model", "--config", str(path), "--print-config")[1] == out

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[path]\nhops = 5\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[radio]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(str(path))

    def test_byte_units_converted(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[frames]\nmtu_bytes = 127\nll_ack_bytes = 5\n")
        cfg = load_config(str(path))
        assert cfg.mtu_bits == 1016
        assert cfg.ll_ack_bits == 40
        # the byte twins of the defaults give the default effective config,
        # which itself round-trips through --config
        default = run_cli(capsys, "model", "--print-config")[1]
        for text in (path.read_text(), default):
            path.write_text(text)
            assert run_cli(capsys, "model", "--config", str(path), "--print-config")[1] == default

    def test_conflicting_units_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        for text in ("[frames]\nmtu_bits = 1016\nmtu_bytes = 127\n",
                     "[frames]\nmtu_bytes = 127\nmtu_bits = 1016\n"):
            path.write_text(text)
            with pytest.raises(ConfigError, match="unit"):
                load_config(str(path))

    def test_parse_error_has_context(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[path]\nber = fast\n")
        with pytest.raises(ConfigError, match=r"\[path\].*ber"):
            load_config(str(path))

    def test_hop_bers_must_match_hops(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[path]\nhops = 3\nhop_bers = 1e-4, 2e-4\n")
        with pytest.raises(ConfigError, match="hop_bers"):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["tx_uj_per_bit", "rx_uj_per_bit", "n_neighbors"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_energy_must_be_finite_and_non_negative(self, tmp_path, capsys, key, value):
        path = tmp_path / "e.ini"
        path.write_text(f"[energy]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))
        code, out, err = run_cli(capsys, "model", "--config", str(path))
        assert code == 1 and out == "" and err.startswith(f"error: {key}")

    def test_env_var_default_path(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "env.ini"
        path.write_text("[transfer]\nmss_bytes = 512\n")
        monkeypatch.setenv("LLN_ENERGY_CONFIG", str(path))
        code, out, _ = run_cli(capsys, "model", "--print-config")
        assert code == 0 and "mss_bytes = 512" in out


class TestSchema:
    """Every config key and output column is named by the class that owns it."""

    def test_every_config_field_in_exactly_one_section(self):
        keys = [key for section in config._SECTIONS.values() for key in section]
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))

    def test_config_flags_land_on_config_fields(self):
        parser = _Parser()
        _add_common(parser)
        _add_sim(parser)
        dests = {action.dest for action in parser._actions} - {"help"}
        assert dests <= {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("argv, header", [
        (("model",),
         "source,mss_bytes,transfer_bytes,h,ber,r,alpha,m,d_data_bits,c_data_bits,"
         "d_ack_bits,c_ack_bits,a_bits,q_s,q_s_ack,e_s,e_f,e_s_ack,e_f_ack,i_f,p_s,"
         "s_s,s_f,s,segments,total_bits,total_joules,flags"),
        (("simulate", "--reps", "2"),
         "source,replications,segments,mean_total_bits,stddev_total_bits,"
         "stderr_total_bits,ci95_half_width,mean_total_joules,method,fidelity,"
         "truncated,master_seed,rng_algorithm,flags,link_attempts,link_failures,"
         "partial_failures,hop_drops,duplicates_suppressed,segment_sends,segment_retx"),
        (("frontier", "--family", "r", "--values", "3", "--h-range", "1:1"),
         "family,family_value,h,crossover_ber,ber_lo,ber_hi,flags"),
    ])
    def test_csv_column_order(self, capsys, argv, header):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert body(out).splitlines()[0] == header

    def test_jsonl_sweep_row_keys(self, capsys):
        # a descending grid: the first chunk opens with layout errors
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "alpha", "--grid", "20,5,2,1,0.5,0.1,0.01",
            "--mss-list", "64,512", "--fragments", "fit", "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(l) for l in body(out).splitlines()]
        errors = [row for row in rows if row["flags"] == "layout_error"]
        assert rows[:6] == errors and len(rows) == 14
        for row in errors:
            assert tuple(row) == _ERROR_FIELDS
        for row in rows[6:]:
            assert tuple(row) == ("axis", "value", *FIELDS)

    def test_jsonl_validate_row_keys(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--reps", "20", "--format", "jsonl")
        assert code == 0
        model, sim, verdict = [json.loads(l) for l in body(out).splitlines()]
        assert tuple(model) == ("source", *FIELDS)
        report = [f.name for f in fields(SimReport) if f.name != "counters"]
        assert tuple(sim) == ("source", *report, *COUNTER_NAMES)
        assert tuple(verdict) == ("source", "verdict", "model_total_bits",
                                  "sim_mean_total_bits", "delta", "three_sigma", "z", "flags")


class TestSubcommands:
    def test_model_row(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--mss", "64", "--format", "jsonl")
        assert code == 0
        row = json.loads(body(out))
        assert row["source"] == "model"
        assert row["d_data_bits"] == 952
        assert row["total_joules"] > 0

    @pytest.mark.parametrize("line, argv", [
        (0, ()),
        (1, ("--config", "hetero.ini")),  # CI's 9-hop hop_bers path
        (2, ("--ber", "0.05", "--hops", "1", "-r", "1", "--mss", "64")),  # h_s_data [null]
    ], ids=["default", "hetero", "degenerate"])
    def test_model_jsonl_is_pinned(self, tmp_path, capsys, monkeypatch, line, argv):
        # the row must match, byte for byte, line ``line`` of the recording
        (tmp_path / "hetero.ini").write_text(HETERO_INI)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "model", *argv, "--format", "jsonl")
        assert code == 0
        assert body(out) == PINNED_MODEL_ROWS.read_text().splitlines()[line]

    def test_output_stable_except_timestamp(self, capsys):
        argv = ("simulate", "--mss", "64", "--reps", "5", "--seed", "3",
                "--format", "jsonl")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert body(out1) == body(out2)
        m1, m2 = meta(out1), meta(out2)
        assert m1[:-1] == m2[:-1]  # only the generated: line differs
        assert m1[-1].startswith("# generated:")

    def test_metadata_has_hash_and_seed(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--reps", "2", "--seed", "11")
        lines = meta(out)
        assert any("config-sha256" in l for l in lines)
        assert any("seed: 11 rng: PCG64" in l for l in lines)

    def test_validate_passes_on_default_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--mss", "512", "--ber", "3e-4",
            "--reps", "300", "--seed", "7", "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(l) for l in body(out).splitlines()]
        assert [r["source"] for r in rows] == ["model", "sim", "verdict"]
        assert rows[2]["verdict"] == "PASS"

    def test_validate_heavy_tail_passes_past_round_cap(self, capsys):
        # ~1e12 rounds per segment, far past the default round_cap, which
        # the frame-fidelity sampler does not apply
        code, out, _ = run_cli(
            capsys, "validate", "--mss", "512", "--ber", "8e-4", "-r", "1",
            "--reps", "100", "--format", "jsonl",
        )
        assert code == 0
        model, sim, verdict = [json.loads(l) for l in body(out).splitlines()]
        assert sim["truncated"] is False
        assert verdict["verdict"] == "PASS" and verdict["flags"] == ""

    def test_validate_skips_truncated_sim(self, tmp_path, capsys):
        path = tmp_path / "capped.ini"
        path.write_text("[sim]\nfidelity = bit\nround_cap = 5\n")
        argv = ("validate", "--config", str(path), "--mss", "512", "--ber", "8e-4",
                "-r", "1", "--transfer-bytes", "1024", "--reps", "3",
                "--format", "jsonl")
        with pytest.warns(TruncationWarning):
            code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        sim, verdict = [json.loads(l) for l in body(out).splitlines()][1:]
        assert sim["truncated"] is True
        assert verdict["verdict"] == "SKIP" and verdict["flags"] == "truncated"
        assert "z" not in verdict
        with pytest.warns(TruncationWarning):
            assert run_cli(capsys, *argv, "--strict")[0] == 2

    def test_validate_skips_refused_sim(self, capsys):
        # rounds succeed with probability 4e-31: the model row is finite, but
        # the sampler refuses a transfer its 64-bit counters cannot hold
        argv = ("validate", "--mss", "64", "--ber", "0.01", "-r", "1",
                "--reps", "10", "--format", "jsonl")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        model, verdict = [json.loads(l) for l in body(out).splitlines()]
        assert model["source"] == "model" and model["total_bits"] > 1e36
        assert verdict["verdict"] == "SKIP" and "64-bit" in verdict["note"]
        assert run_cli(capsys, *argv, "--strict")[0] == 2

    def test_validate_skips_one_replication(self, capsys):
        # one replication has no spread to measure: three_sigma would read 0
        # and any nonzero delta would FAIL
        argv = ("validate", "--reps", "1", "--format", "jsonl")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        model, sim, verdict = [json.loads(l) for l in body(out).splitlines()]
        assert sim["replications"] == 1
        assert verdict == {"source": "verdict", "verdict": "SKIP",
                           "note": "one replication has no standard error"}
        assert run_cli(capsys, *argv, "--strict")[0] == 2

    def test_fragments_past_1029_are_simulated(self, capsys):
        # no binomial coefficient bounds the dropped-fragment draw: a
        # segment of 1030 fragments gets a sim row and a PASS verdict
        argv = ("--fragments", "1030", "--mss", "512", "--reps", "100", "--format", "jsonl")
        code, out, _ = run_cli(capsys, "simulate", *argv)
        assert code == 0 and json.loads(body(out))["segments"] == 100
        code, out, _ = run_cli(capsys, "validate", *argv, "--strict")
        assert code == 0
        model, sim, verdict = [json.loads(l) for l in body(out).splitlines()]
        assert model["m"] == 1030 and sim["source"] == "sim"
        assert verdict["verdict"] == "PASS"

    def test_bit_replay_past_its_frame_bound_is_refused(self, capsys):
        # 1.5625e10 segments: the replay's per-block index arrays would need
        # terabytes, so the sampler refuses the transfer before allocating
        argv = ("--fidelity", "bit", "--transfer-bytes", "1000000000000", "--reps", "16",
                "--format", "jsonl")
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 1 and out == "" and "error: 15625000000 segments" in err
        code, out, _ = run_cli(capsys, "validate", *argv)
        assert code == 0
        model, verdict = [json.loads(l) for l in body(out).splitlines()]
        assert model["source"] == "model" and model["total_bits"] > 0
        assert verdict["verdict"] == "SKIP" and "15625000000 segments" in verdict["note"]

    def test_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "ber", "--grid", "1e-5,1e-4",
            "--mss-list", "64,512", "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(l) for l in body(out).splitlines()]
        assert len(rows) == 4
        assert {r["mss_bytes"] for r in rows} == {64, 512}

    def test_frontier_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "frontier", "--family", "r", "--values", "1,3",
            "--h-range", "4:5",
        )
        assert code == 0
        lines = body(out).splitlines()
        header = lines[0].split(",")
        for col in ("family_value", "h", "crossover_ber", "ber_lo", "ber_hi", "flags"):
            assert col in header
        assert len(lines) == 1 + 4

    @pytest.mark.parametrize("family", [
        ("--family", "r", "--values", "3"),
        ("--family", "alpha", "--values", "1e-3,1e-1", "-r", "1", "--fragments", "fit"),
    ])
    def test_frontier_on_a_hop_bers_path_is_the_homogeneous_one(self, tmp_path, capsys,
                                                                family):
        # the scan sets every hop's BER and the h range the hop count, so
        # the path's own BERs and length drop out
        argv = ("frontier", *family, "--h-range", "1:3")
        homogeneous = run_cli(capsys, *argv)
        for text in ("[path]\nhops = 3\nhop_bers = 1e-4, 3e-4, 5e-4\n", HETERO_INI):
            path = tmp_path / "het.ini"
            path.write_text(text)
            het = run_cli(capsys, *argv, "--config", str(path))
            assert het[0] == homogeneous[0] == 0 and het[2] == ""
            assert csv_body(het[1]) == csv_body(homogeneous[1])
        assert len(body(het[1]).splitlines()) == 1 + 3 * (len(family[3].split(",")))

    def test_csv_rows_match_a_dict_writer(self, capsys):
        # a sweep whose second point cannot be laid out: its row lacks the
        # model columns, and the first row's error column is empty
        code, out, _ = run_cli(
            capsys, "sweep", "--axis", "alpha", "--grid", "0.01,5",
            "--mss-list", "64", "--fragments", "fit", "--format", "jsonl",
        )
        assert code == 0
        rows = [json.loads(l) for l in body(out).splitlines()]
        rows.append({"flags": "x", "axis": None})  # keys in another order
        assert rows[1]["flags"] == "layout_error" and "error" not in rows[0]
        got = io.StringIO()
        _emit(_blocks(rows), "csv", [], got)
        want = io.StringIO()
        writer = csv.DictWriter(want, fieldnames=dict.fromkeys(k for r in rows for k in r),
                                restval="")
        writer.writeheader()
        writer.writerows({k: "" if v is None else v for k, v in r.items()} for r in rows)
        assert got.getvalue() == want.getvalue()
        layout_row = list(csv.reader(io.StringIO(got.getvalue())))[2]
        assert layout_row[-2:] == ["layout_error", rows[1]["error"]]

    @pytest.mark.parametrize("grid", [
        (0.01, 0.1, 1.0, 5.0),  # the last point
        tuple(5.0 ** (i / 8) for i in range(9)),  # from the middle on
        (5.0, 1.0, 0.1, 0.01),  # the first point
        tuple(5.0 ** (i / 8) for i in range(8, -1, -1)),  # up to the middle
        (3.0, 4.0, 5.0),  # every point
        tuple(1e-3 * 5e3 ** (i / 299) for i in range(300)),  # past a chunk boundary
        tuple(1e-3 * 5e3 ** (i / 299) for i in range(299, -1, -1)),
        cli._parse_grid("1e-3:5:log:40", "--grid"),  # the last 14 rows
        (20.0, 5.0, 2.0, 1.0, 0.5, 0.1, 0.01),  # the first 6 rows
    ])
    def test_layout_error_sweep_csv_matches_a_dict_writer(self, capsys, grid):
        # rows flagged layout_error lack the model fields and add "error", so
        # where they fall changes the header's first-seen order
        argv = ("sweep", "--axis", "alpha", "--grid", ",".join(map(repr, grid)),
                "--mss-list", "64,512", "--fragments", "fit")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        cfg = config.RunConfig(fragments="fit")
        rows = sweep(SweepSpec(cfg.scenario(), "alpha", grid, (64, 512), cfg.energy()))
        assert any(row["flags"] == "layout_error" for row in rows)
        assert csv_body(out) == dict_writer_csv(rows)
        # and the JSON lines are the same rows, so the CSV is theirs too
        code, out, _ = run_cli(capsys, *argv, "--format", "jsonl")
        assert code == 0 and [json.loads(l) for l in body(out).splitlines()] == rows
        assert run_cli(capsys, *argv, "--strict")[0] == 2

    @pytest.mark.parametrize("rows", [
        [{"none": None, "bool": True, "int": -3, "big": 10**30}],
        [{"inf": math.inf, "nan": math.nan, "neg_zero": -0.0, "tiny": 5e-324}],
        [{"comma": "a,b", "quote": 'say "hi"', "cr": "a\rb", "lf": "a\nb", "plain": "ab"}],
        [{"lone": ""}, {"lone": None}, {"lone": 1}],
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"c": 5, "a": 6}],
        [{"a,b": 1, 'q"': 2}],
        [{}, {}],
        [],
        [{}, {"a": None}],  # a row of no fields, then a field
    ])
    def test_csv_cases_match_a_dict_writer(self, rows):
        assert emitted_csv(rows) == dict_writer_csv(rows)

    @given(st.lists(st.dictionaries(
        st.one_of(st.sampled_from(["a", "b", "c,d", 'e"f', "g\rh", "i\nj", ""]), st.text()),
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324])),
        max_size=6), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_csv_of_any_rows_matches_a_dict_writer(self, rows):
        assert emitted_csv(rows) == dict_writer_csv(rows)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "model", "--output", str(target))
        assert code == 0 and out == ""
        assert "total_joules" in target.read_text()


class TestProcess:
    def test_cached_parser_parses_as_a_fresh_one(self, capsys, monkeypatch):
        assert build_parser() is build_parser()
        sweep_argv = ["sweep", "--axis", "ber", "--grid", "1e-5,1e-4", "--mss-list", "64,512"]
        argvs = [sweep_argv + ["--format", "jsonl"], sweep_argv,
                 ["sweep", "--axis", "r", "--grid", "1,3"], ["model", "--mss", "64"]]
        for argv in argvs:
            assert (vars(build_parser().parse_args(argv))
                    == vars(build_parser.__wrapped__().parse_args(argv)))
        cached = [body(run_cli(capsys, *argv)[1]) for argv in argvs]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert [body(run_cli(capsys, *argv)[1]) for argv in argvs] == cached

    def test_closed_pipe_exits_1_quietly(self):
        # 800 rows, far more than a pipe holds: the CLI is still writing
        # when the reader stops after five lines, as `| head -5` does
        with subprocess.Popen(**cli_child(
            "sweep", "--axis", "ber", "--grid", "1e-7:0.1:log:200", "--mss-list", "64,128,256,512",
        )) as proc:
            lines = [proc.stdout.readline() for _ in range(5)]
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        assert lines[-1].startswith(b"ber,")
        assert code == 1 and err == b""


class TestExitCodes:
    def test_config_error_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "model", "--ber", "2")
        assert code == 1 and "ber" in err

    def test_bad_flag_value_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--axis", "ber", "--grid", "nope")
        assert code == 1

    def test_fragments_past_the_block_bound_are_refused(self, capsys):
        # the aggregate draw's first-drop counts hold a block's 16 x m
        # fragments: 3e9 fragments a segment would need terabytes
        argv = ("--fragments", "3000000000", "--ber", "1e-12", "--reps", "2",
                "--format", "jsonl")
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 1 and out == "" and "error: 3000000000 fragments" in err
        code, out, _ = run_cli(capsys, "validate", *argv)
        assert code == 0
        model, verdict = [json.loads(l) for l in body(out).splitlines()]
        assert model["m"] == 3000000000
        assert verdict["verdict"] == "SKIP" and "3000000000 fragments" in verdict["note"]

    @pytest.mark.parametrize("argv", [("model",), ("simulate", "--reps", "2")])
    def test_link_ack_past_the_frame_bound_is_exit_1(self, tmp_path, capsys, argv):
        path = tmp_path / "ack.ini"
        path.write_text("[frames]\nll_ack_bits = 100000000000000000000\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ll_ack_bits must be in [1, 9007199254740992]")

    @pytest.mark.parametrize("argv, says", [
        (("model", "--alpha", "inf"), "alpha must be finite"),
        (("model", "--alpha", "1e308"), "codes to more than"),
        (("sweep", "--axis", "alpha", "--grid", "1,inf"), "alpha must be finite"),
        (("frontier", "--family", "r", "--values", "3", "--h-range", "1:2:3"), "'1:2:3'"),
        (("sweep", "--axis", "ber", "--grid", "1e-4", "--mss-list", "64:x"), "'64:x'"),
        (("frontier", "--family", "r", "--values", "3", "--ber-range", "1e-6"), "'1e-6'"),
        (("model", "-r", "1030"), "r must be <= 1029, got 1030"),
        (("simulate", "-r", "1030", "--reps", "2"), "r must be <= 1029, got 1030"),
        (("frontier", "--family", "r", "--values", "3", "--points-per-decade", "0"),
         "points_per_decade must be >= 1, got 0"),
        (("frontier", "--family", "r", "--values", "3", "--points-per-decade", "-2"),
         "points_per_decade must be >= 1, got -2"),
        (("frontier", "--family", "r", "--values", "3", "--h-range", "3:1"),
         "at least one family value and one hop count"),
        (("frontier", "--family", "r", "--values", ","), "at least one family value"),
        (("sweep", "--axis", "ber", "--grid", "1e-4,1.5"), "ber must be in [0, 1), got 1.5"),
        (("sweep", "--axis", "h", "--grid", "0,2"), "scenario needs at least one hop"),
        (("sweep", "--axis", "r", "--grid", "0,2"), "attempt limit r must be >= 1, got 0"),
        (("sweep", "--axis", "mss", "--grid", "0.5,64"), "mss_bytes must be >= 1, got 0"),
        (("frontier", "--family", "r", "--values", "3", "--h-range", "0:2"),
         "scenario needs at least one hop"),
        (("sweep", "--axis", "mss", "--grid", "64,inf"), "mss must be finite, got inf"),
        (("sweep", "--axis", "h", "--grid", "1,1e9", "--mss-list", "64"),
         "a path has at most 1024 hops, got 1000000000"),
        (("model", "--hops", "1000000000"), "a path has at most 1024 hops, got 1000000000"),
        (("frontier", "--family", "r", "--values", "3", "--h-range", "1:2000"),
         "a path has at most 1024 hops, got 1025"),
        (("model", "--output", "/nonexistent/dir/x.csv"),
         "cannot write /nonexistent/dir/x.csv"),
        (("sweep", "--axis", "ber", "--grid", "1e-3,abc"),
         """--grid must be "lo:hi:log|lin:N" or a comma list of numbers, got '1e-3,abc'"""),
        (("sweep", "--axis", "ber", "--grid", "1:2:lin:x"), "--grid must be"),
        (("frontier", "--family", "r", "--values", "abc"), "--values must be"),
        (("frontier", "--family", "r", "--values", "0:1:log:5"),
         "--values: a log grid needs lo > 0, got '0:1:log:5'"),
        (("sweep", "--axis", "ber", "--grid", "1e-3:1e-4:log:5"),
         "bad --grid range '1e-3:1e-4:log:5'"),
        (("sweep", "--axis", "ber", "--grid", "1e-4", "--mss-list", "64,abc"),
         """--mss-list must be "lo:hi" or a comma list of integers, got '64,abc'"""),
        (("frontier", "--family", "r", "--values", "3", "--h-range", "1:2:3"),
         "--h-range must be"),
        (("frontier", "--family", "r", "--values", "3", "--mss-pair", "64,x"),
         "--mss-pair must be"),
        (("frontier", "--family", "r", "--values", "3", "--mss-pair", "64,64"),
         "mss_pair needs two different sizes, got (64, 64)"),
        (("frontier", "--family", "r", "--values", "3", "--mss-pair", "64,512,512"),
         "mss_pair needs two different sizes, got (64, 512, 512)"),
        (("frontier", "--family", "r", "--values", "3", "--mss-pair", "64,512,1024"),
         "mss_pair needs two different sizes, got (64, 512, 1024)"),
        (("frontier", "--family", "r", "--values", "3", "--mss-pair", "64:512"),
         "--mss-pair must be a comma list of integers, got '64:512'"),
        (("frontier", "--family", "r", "--values", "3", "--mss-pair", "512:64"),
         "--mss-pair must be a comma list of integers, got '512:64'"),
        (("frontier", "--family", "r", "--values", "3", "--h-range=-1000000000000:3"),
         "scenario needs at least one hop, got -1000000000000"),
    ])
    def test_bad_value_is_exit_1_with_a_message(self, capsys, argv, says):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and says in err and "Traceback" not in err

    def test_strict_flags_divergence(self, capsys):
        # r=1 at a catastrophic BER diverges; --strict turns that into exit 2
        code, out, _ = run_cli(
            capsys, "model", "--mss", "512", "--ber", "0.05",
            "--retries", "1", "--strict", "--format", "jsonl",
        )
        row = json.loads(body(out))
        if row["total_joules"] is None:
            assert code == 2
        else:
            assert code == 0

    def test_overflowing_total_is_none_and_strict_exits_2(self, capsys):
        # p_s = 1.4e-308 is positive, but s = s_f (1/p_s - 1) + s_s overflows
        code, out, _ = run_cli(
            capsys, "model", "--hops", "9", "-r", "1", "--mss", "512",
            "--ber", "0.011343", "--strict", "--format", "jsonl",
        )
        row = json.loads(body(out))
        assert 0.0 < row["p_s"] < 1e-300
        assert row["s"] is None and row["total_bits"] is None
        assert row["total_joules"] is None and row["flags"] == "diverges"
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("sweep", "--axis", "r", "--grid", "1.5,2.5"),
        ("frontier", "--family", "r", "--values", "2.5"),
    ])
    def test_fractional_attempt_limit_is_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "whole number" in err

    def test_non_strict_divergence_is_exit_0(self, capsys):
        code, _, _ = run_cli(
            capsys, "model", "--mss", "512", "--ber", "0.05", "--retries", "1",
        )
        assert code == 0

    def test_validate_skips_divergent_model_and_strict_exits_2(self, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, _ = run_cli(
                capsys, "validate", "--mss", "512", "--ber", "0.05",
                "--retries", "1", "--reps", "2", "--strict", "--format", "jsonl",
            )
        rows = [json.loads(l) for l in body(out).splitlines()]
        verdict = rows[-1]
        if verdict.get("verdict") == "SKIP":
            assert code == 2
        else:
            assert verdict["verdict"] in ("PASS", "FAIL")


def test_hop_bers_config_round_trip(tmp_path):
    path = tmp_path / "het.ini"
    path.write_text("[path]\nhops = 3\nhop_bers = 1e-4, 2e-4, 3e-4\n")
    cfg = load_config(str(path))
    assert cfg.hop_bers == (1e-4, 2e-4, 3e-4)
    dumped = tmp_path / "dumped.ini"
    dumped.write_text(dump_config(cfg))
    again = load_config(str(dumped))
    assert again == cfg
    assert [h.ber for h in again.path()] == [1e-4, 2e-4, 3e-4]
