import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qwalk.cli
import qwalk.dtqw
from qwalk.cli import main, parse_graph_spec, parse_init_spec
from qwalk.arcs import ArcSpace
from qwalk.errors import ConfigError
from qwalk.explorer import INTERP_CHAINS, interpolation_sweep
from qwalk.graphs import Cycle, Edgeless, Join, build, graph_from_json


# ----- spec parsing -----

def test_parse_graph_spec_families():
    g = parse_graph_spec("join k2c n=5")
    assert g.n == 7
    assert sorted(g.degree(v) for v in range(7)) == [4, 4, 4, 4, 4, 5, 5]
    assert parse_graph_spec("cycle n=6").n == 6
    assert parse_graph_spec("diamond n=2 loops=ends").has_loop(0)


def test_parse_graph_spec_errors():
    with pytest.raises(ConfigError, match="cycle requires n ≥ 3"):
        parse_graph_spec("cycle n=2")
    with pytest.raises(ConfigError, match="needs n="):
        parse_graph_spec("cycle")
    with pytest.raises(ConfigError, match="k2c, k2k, or k2p"):
        parse_graph_spec("join k9z n=3")
    with pytest.raises(ConfigError, match="unknown graph spec"):
        parse_graph_spec("octahedron n=1")
    with pytest.raises(ConfigError, match="unexpected token"):
        parse_graph_spec("cycle widdershins n=6")


def test_parse_graph_spec_file_round_trip(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["graph", "join k2k n=4", "--out", str(out)]) == 0
    g = parse_graph_spec(str(out))
    want = build(Join(Edgeless(2), Edgeless(4)))
    assert np.array_equal(g.adjacency, want.adjacency)


@pytest.mark.parametrize("text, field", [
    ('{"n": 3, "edges": [[0.5, 1, 1]], "loops": []}', "'edges'"),
    ('{"n": 3, "edges": [["0", 1, 1]], "loops": []}', "'edges'"),
    ('{"n": 3, "edges": [[0, 1, "1"]], "loops": []}', "'edges'"),
    ('{"n": 3, "edges": [5], "loops": []}', "'edges'"),
    ('{"n": 3, "edges": [], "loops": [1.0]}', "'loops'"),
    ('{"n": true, "edges": [], "loops": []}', "'n'"),
    ('{"n": 3, "edges": 5, "loops": []}', "'edges'"),
    ('{"n": 3, "edges": [], "loops": 0}', "'loops'"),
], ids=["float-end", "string-end", "string-weight", "bare-entry", "float-loop", "bool-n",
        "edges-not-list", "loops-not-list"])
def test_malformed_graph_json_is_refused_by_field(text, field, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text)
    assert main(["graph", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("spec", ["json", "cycle n=100000000", "join k2k n=5000"])
def test_oversized_graph_is_refused_before_allocation(spec, tmp_path, capsys):
    if spec == "json":
        spec = str(tmp_path / "big.json")
        Path(spec).write_text('{"n": 100000000, "edges": [], "loops": []}')
    assert main(["graph", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "limit of 4096" in err


def test_hub_join_of_300_still_builds(capsys):
    assert main(["graph", "join k2k n=300"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 302


def test_parse_init_specs():
    g = build(Cycle(4))
    space = ArcSpace.from_graph(g)
    eq = parse_init_spec("equal", space, 0, seed=0)
    assert eq.shape == (space.n_arcs,)
    haar = parse_init_spec("haar:1:3", space, 0, seed=0)
    assert haar.shape == (space.n_arcs,)
    assert np.isclose(np.linalg.norm(haar), 1.0)
    with pytest.raises(ConfigError, match="must draw one state"):
        parse_init_spec("haar:5:3", space, 0, seed=0)
    amps = parse_init_spec("1,1", space, 0, seed=0)
    assert np.allclose(np.linalg.norm(amps), 1.0)
    with pytest.raises(ConfigError, match="2 ports but 3"):
        parse_init_spec("1,0,0", space, 0, seed=0)
    with pytest.raises(ConfigError, match="bad amplitude"):
        parse_init_spec("1,spam", space, 0, seed=0)
    with pytest.raises(ConfigError, match="haar spec"):
        parse_init_spec("haar:2:3:4:5", space, 0, seed=0)


# ----- exit codes -----

def test_exit_codes(capsys):
    assert main(["graph", "cycle n=6"]) == 0
    assert main(["graph", "cycle n=1"]) == 1
    assert main(["dtqw", "--graph", "cycle n=4", "--bogus"]) == 1
    bad_coin = '{"0": [[1, 0], [0, 0.5]]}'
    assert main(["dtqw", "--graph", "cycle n=4", "--pair", "0,2",
                 "--policy", bad_coin]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "tolerance breach" in err


@pytest.mark.parametrize("argv, code, message", [
    (["dtqw", "--graph", "cycle n=4", "--init", "nan,1"], 1, "amplitudes must be finite"),
    (["dtqw", "--graph", "cycle n=4", "--init", "inf,1"], 1, "amplitudes must be finite"),
    (["decohere", "--graph", "cycle n=4", "--init", "nan,1"], 1, "amplitudes must be finite"),
    (["dtqw", "--graph", "cycle n=4", "--policy", '{"0": [[NaN, 0], [0, 1]]}'], 2,
     "unitarity defect nan"),
    (["robust", "--kind", "defect", "--n", "3", "--magnitudes", "nan,inf"], 1,
     "magnitudes must be finite, got inf"),
    (["decohere", "--graph", "cycle n=4", "--rates", ""], 1, "need at least one rate in --rates"),
    (["interp", "--n", "3", "--c-grid", ""], 1, "need at least one coupling in --c-grid"),
], ids=["dtqw-nan-init", "dtqw-inf-init", "decohere-nan-init", "nan-coin", "robust-nan-inf",
        "empty-rates", "empty-c-grid"])
def test_non_finite_or_empty_inputs_are_rejected(argv, code, message, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["dtqw", "decohere"])
@pytest.mark.parametrize("init", ["equal", "haar:1", "haar:5", "1", "1,1"])
def test_source_without_ports_is_refused(command, init, capsys):
    argv = [command, "--graph", "edgeless n=3", "--pair", "0,1", "--init", init]
    assert main(argv) == 1
    assert "vertex 0 has no ports" in capsys.readouterr().err


def test_huge_amplitudes_name_the_same_direction(tmp_path, capsys):
    out = {}
    for init in ("1,1", "1e308,1e308"):
        stem = tmp_path / init
        argv = ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--steps", "6", "--init", init]
        assert main(argv + ["--out", str(stem)]) == 0
        out[init] = (stem.with_suffix(".csv").read_bytes(),
                     stem.with_suffix(".json").read_text().replace(init, "<init>"))
    assert out["1e308,1e308"] == out["1,1"]
    assert capsys.readouterr().err == ""


def test_validation_reports_all_problems(capsys):
    code = main(["dtqw", "--graph", "cycle n=6", "--pair", "0,19",
                 "--steps", "-3", "--track", "1,99"])
    assert code == 1
    err = capsys.readouterr().err
    assert "pair vertex 19" in err
    assert "steps must be positive" in err
    assert "tracked vertex 99" in err


# ----- dtqw workflow -----

def test_dtqw_files_and_determinism(tmp_path, capsys):
    base = tmp_path / "run"
    argv = ["dtqw", "--graph", "join k2c n=6", "--pair", "0,1",
            "--steps", "24", "--out", str(base)]
    assert main(argv) == 0
    csv_text = base.with_suffix(".csv").read_text()
    assert csv_text.splitlines()[0] == "step,v0,v1"
    assert len(csv_text.splitlines()) == 26
    report = json.loads(base.with_suffix(".json").read_text())["report"]
    assert report["pst_steps"] == [6, 18]
    assert report["strict_period"] == 12

    again = tmp_path / "again"
    argv2 = ["dtqw", "--graph", "join k2c n=6", "--pair", "0,1",
             "--steps", "24", "--out", str(again)]
    assert main(argv2) == 0
    assert again.with_suffix(".csv").read_text() == csv_text


def test_dtqw_haar_scan_mode(tmp_path):
    base = tmp_path / "scan"
    argv = ["dtqw", "--graph", "join k2k n=3", "--pair", "0,1",
            "--init", "haar:40:9", "--steps", "10", "--out", str(base)]
    assert main(argv) == 0
    data = json.loads(base.with_suffix(".json").read_text())
    assert data["command"] == "dtqw-scan"
    assert data["max_probability"] >= 1.0 - 1e-9
    # transfer recurs every 4 steps, so ties can land on any of 2, 6, 10
    assert data["best_step"] % 4 == 2


def test_dtqw_haar_scan_draws_states_once(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qwalk.cli, "haar_states", counted(qwalk.cli.haar_states))
    monkeypatch.setattr(qwalk.dtqw, "haar_states", counted(qwalk.dtqw.haar_states))
    argv = ["dtqw", "--graph", "join k2k n=3", "--init", "haar:40:9", "--steps", "10",
            "--out", str(tmp_path / "scan")]
    assert main(argv) == 0
    assert calls == [(3, 40, 9)]


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"steps": 12}')
    base = tmp_path / "a"
    main(["dtqw", "--graph", "cycle n=4", "--pair", "0,2",
          "--config", str(cfg), "--out", str(base)])
    assert base.with_suffix(".csv").read_text().strip().splitlines()[-1].startswith("12,")
    base2 = tmp_path / "b"
    main(["dtqw", "--graph", "cycle n=4", "--pair", "0,2",
          "--config", str(cfg), "--steps", "5", "--out", str(base2)])
    assert base2.with_suffix(".csv").read_text().strip().splitlines()[-1].startswith("5,")


def test_config_seed_reaches_scan_and_flag_overrides_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QWALK_SEED", "77")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 5}')
    argv = ["dtqw", "--graph", "join k2k n=3", "--init", "haar:20", "--steps", "4",
            "--config", str(cfg)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert main(argv + ["--seed", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 8
    cfg.write_text('{"seed": "x"}')
    assert main(argv) == 1
    assert "seed must be an integer" in capsys.readouterr().err
    cfg.write_text('{"lam": "x"}')
    assert main(argv) == 1
    assert "lam must be a number, got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dtqw", "--graph", "join k2k n=3", "--init", "haar:20", "--steps", "4"],
    ["decohere", "--graph", "cycle n=4", "--rate", "0.1"],
    ["search", "--base", "4", "--max-new", "1", "--samples", "5", "--workers", "1"],
], ids=["dtqw", "decohere", "search"])
def test_config_file_is_read_once(argv, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"steps": 4, "seed": 3}')
    reads = []

    def counted(path):
        reads.append(path)
        return load(path)

    load = qwalk.cli._load_config_file
    monkeypatch.setattr(qwalk.cli, "_load_config_file", counted)
    assert main(argv + ["--config", str(cfg)]) == 0
    assert reads == [str(cfg)]


def test_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QWALK_SEED", "77")
    base = tmp_path / "env"
    main(["dtqw", "--graph", "join k2k n=3", "--pair", "0,1",
          "--init", "haar:1", "--steps", "4", "--out", str(base)])
    data = json.loads(base.with_suffix(".json").read_text())
    assert data["seed"] == 77


# ----- other commands -----

@pytest.mark.parametrize("argv", [
    ["ctqw", "--graph", "cycle n=4", "--seed", "1"],
    ["interp", "--n", "3", "--c-grid", "0,1", "--seed", "1"],
    ["interp", "--n", "3", "--c-grid", "0,1", "--config", "absent.json"],
], ids=["ctqw-seed", "interp-seed", "interp-config"])
def test_unused_seed_and_config_flags_are_rejected(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--ste", "3"],
    ["decohere", "--graph", "cycle n=4", "--pair", "0,2", "--step", "3"],
], ids=["dtqw-ste", "decohere-step"])
def test_subcommands_reject_abbreviated_flags(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


# ----- the option table -----

DTQW = ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--init", "haar:1", "--steps", "3"]
CTQW = ["ctqw", "--graph", "cycle n=4", "--pair", "0,2", "--tmax", "2", "--dt", "0.1"]
SEARCH = ["search", "--base", "4", "--max-new", "1", "--samples", "5", "--steps", "4",
          "--workers", "1"]
ROBUST = ["robust", "--kind", "random", "--n", "3", "--runs", "5"]
INTERP = ["interp", "--n", "3"]

# option: (a command that reads it, a value outside its range, the rule it breaks)
BAD_OPTIONS = {
    "steps": (DTQW, 0, "be positive"),
    "samples": (SEARCH, 0, "be positive"),
    "lam": (DTQW, 1.5, "lie in (0, 1]"),
    "tmax": (CTQW, -1.0, "be positive and finite"),
    "dt": (CTQW, 0.0, "be positive"),
    "seed": (DTQW, -1, "be non-negative"),
    "runs": (ROBUST, 0, "be positive"),
    "step": (ROBUST, 0, "be positive"),
    "c_points": (INTERP, 1, "be at least 2"),
}


def _without(argv, flag):
    """argv with the flag and its value taken out, if it holds them."""
    if flag not in argv:
        return list(argv)
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("key", BAD_OPTIONS)
def test_table_option_out_of_range_by_flag(key, capsys):
    argv, bad, rule = BAD_OPTIONS[key]
    flag = "--" + key.replace("_", "-")
    assert main(_without(argv, flag) + [flag, str(bad)]) == 1
    assert f"{key} must {rule}, got {bad}" in capsys.readouterr().err


# interp takes no --config, so c_points is checked from the command line only
@pytest.mark.parametrize("key", [k for k in BAD_OPTIONS if k != "c_points"])
def test_table_option_out_of_range_by_config(key, tmp_path, capsys):
    argv, bad, rule = BAD_OPTIONS[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: bad}))
    flag = "--" + key.replace("_", "-")
    assert main(_without(argv, flag) + ["--config", str(cfg)]) == 1
    assert f"{key} must {rule}, got {bad}" in capsys.readouterr().err


INT_OPTIONS = [k for k in BAD_OPTIONS if isinstance(qwalk.cli.OPTIONS[k][0], int)
               and k != "c_points"]


@pytest.mark.parametrize("bad, shown", [(3.7, "3.7"), (True, "True")], ids=["fraction", "bool"])
@pytest.mark.parametrize("key", INT_OPTIONS)
def test_integer_option_from_config_must_be_an_integer(key, bad, shown, tmp_path, capsys):
    argv, _, _ = BAD_OPTIONS[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: bad}))
    flag = "--" + key.replace("_", "-")
    assert main(_without(argv, flag) + ["--config", str(cfg)]) == 1
    assert f"{key} must be an integer, got {shown}" in capsys.readouterr().err


def test_integral_config_number_reads_as_an_integer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"steps": 3.0}')
    assert main(_without(DTQW, "--steps") + ["--config", str(cfg)]) == 0
    assert len(json.loads(capsys.readouterr().out)["report"]["target_series"]) == 4


@pytest.mark.parametrize("spec", ["haar:1:-3", "haar:5:-3"], ids=["one-state", "scan"])
def test_haar_spec_seed_must_be_non_negative(spec, capsys):
    assert main(_without(DTQW, "--init") + ["--init", spec]) == 1
    assert f"haar spec '{spec}': seed must be non-negative, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["robust", "--kind", "phase", "--n", "3", "--magnitudes", "0,1", "--runs", "5"],
     "--runs is not read by --kind phase"),
    (["robust", "--kind", "defect", "--n", "3", "--magnitudes", "0,1", "--seed", "2"],
     "--seed is not read by --kind defect"),
    (ROBUST + ["--magnitudes", "0,1"], "--magnitudes is not read by --kind random"),
    (INTERP + ["--c-grid", "0,1", "--c-points", "5"], "--c-points is not read by interp"),
], ids=["phase-runs", "defect-seed", "random-magnitudes", "interp-c-points"])
def test_sweeps_reject_flags_they_do_not_read(argv, message, capsys):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [CTQW + ["--lam", "7"], SEARCH + ["--lam", "-2"]],
                         ids=["ctqw", "search"])
def test_lam_is_checked_by_every_command(argv, capsys):
    assert main(argv) == 1
    assert "lam must lie in (0, 1]" in capsys.readouterr().err


def test_unknown_config_key_is_a_problem(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"stpes": 3, "c_points": 5}')
    assert main(DTQW + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config key 'stpes' names no option" in err
    assert "c_points" not in err


def test_robust_reads_runs_and_step_from_config(tmp_path, capsys):
    argv = ["robust", "--kind", "random", "--n", "3,4", "--seed", "2"]
    assert main(argv + ["--runs", "7", "--step", "4"]) == 0
    by_flag = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"runs": 7, "step": 4}')
    assert main(argv + ["--config", str(cfg)]) == 0
    by_config = capsys.readouterr().out
    assert by_config == by_flag
    assert json.loads(by_config)["runs"] == 7 and json.loads(by_config)["step"] == 4


DECOHERE_CT = ["decohere", "--model", "ct", "--graph", "cycle n=4", "--time", "1"]
DECOHERE_DT = ["decohere", "--graph", "cycle n=4", "--pair", "0,2", "--steps", "3"]


@pytest.mark.parametrize("argv, flag", [
    (DECOHERE_CT + ["--rates", "0.1,0.5"], "--rates"),
    (DECOHERE_CT + ["--policy", "O1"], "--policy"),
    (DECOHERE_CT + ["--init", "equal"], "--init"),
    (DECOHERE_CT + ["--basis", "coin"], "--basis"),
    (DECOHERE_CT + ["--steps", "5"], "--steps"),
    (DECOHERE_DT + ["--time", "3"], "--time"),
], ids=["ct-rates", "ct-policy", "ct-init", "ct-basis", "ct-steps", "dt-time"])
def test_decohere_rejects_flags_its_model_does_not_read(argv, flag, capsys):
    assert main(argv) == 1
    assert f"{flag} is not read by --model" in capsys.readouterr().err


def test_decohere_ct_shares_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"steps": 5, "seed": 3}')
    assert main(DECOHERE_CT + ["--config", str(cfg)]) == 0


def test_decohere_takes_one_haar_state(capsys):
    assert main(DECOHERE_DT + ["--init", "haar:1:3"]) == 0
    capsys.readouterr()
    assert main(DECOHERE_DT + ["--init", "haar:2:3"]) == 1
    assert "must draw one state" in capsys.readouterr().err


# Each command's report files under --out; "" is the bare --out path.
EMIT_CASES = {
    "graph": (["graph", "cycle n=4"], [""]),
    "dtqw": (["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--steps", "6"], [".csv", ".json"]),
    "dtqw-scan": (["dtqw", "--graph", "join k2k n=3", "--init", "haar:20:1", "--steps", "6"],
                  [".json"]),
    "ctqw": (["ctqw", "--graph", "cycle n=4", "--pair", "0,2", "--tmax", "2", "--dt", "0.1"],
             [".csv", ".json"]),
    "decohere-dt": (["decohere", "--graph", "cycle n=4", "--pair", "0,2", "--rate", "0.1",
                     "--steps", "4"], [".csv", ".json"]),
    "decohere-ct": (["decohere", "--model", "ct", "--graph", "cycle n=4", "--rate", "0.1",
                     "--time", "1"], [".json"]),
    "decohere-rates": (["decohere", "--graph", "cycle n=4", "--pair", "0,2", "--rates", "0,0.5",
                        "--steps", "4"], [".csv", ".json"]),
    "robust-random": (["robust", "--kind", "random", "--n", "3,4", "--runs", "5", "--seed", "2"],
                      [".csv", ".json"]),
    "robust-phase": (["robust", "--kind", "phase", "--n", "3", "--magnitudes", "0,1"],
                     [".csv", ".json"]),
    "interp": (["interp", "--n", "3", "--c-grid", "0,1"], [".csv", ".json"]),
}


@pytest.mark.parametrize("argv, suffixes", EMIT_CASES.values(), ids=EMIT_CASES.keys())
def test_out_writes_the_stdout_report(argv, suffixes, tmp_path, capsys):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    stem = tmp_path / "r"
    assert main(argv + ["--out", str(stem)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted("r" + s for s in suffixes)
    report = stem if suffixes == [""] else stem.with_suffix(".json")
    assert report.read_bytes() == stdout.encode()


def test_ctqw_files(tmp_path):
    base = tmp_path / "ct"
    argv = ["ctqw", "--graph", "join k2k n=9", "--pair", "0,1",
            "--tmax", "5", "--dt", "0.01", "--out", str(base)]
    assert main(argv) == 0
    data = json.loads(base.with_suffix(".json").read_text())
    assert data["report"]["period"] == pytest.approx(2 * np.pi / np.sqrt(18), abs=1e-6)
    header = base.with_suffix(".csv").read_text().splitlines()[0]
    assert header == "t,v0,v1"


def test_ctqw_finishes_at_large_times():
    # from t = 8192 on, adjacent floats lie further apart than the refinement tolerance
    env = dict(os.environ, PYTHONPATH=str(Path(qwalk.cli.__file__).parents[1]))
    argv = ["ctqw", "--graph", "cycle n=8", "--pair", "0,4", "--tmax", "10000", "--dt", "1"]
    done = subprocess.run([sys.executable, "-m", "qwalk.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["report"]["max_probability"] > 0.99


SPECIAL = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e22, 0.1]


@pytest.mark.parametrize("x", [range(7), (3, 1, 4, 1, 5, 9, 2), np.arange(7, dtype=np.int64),
                               np.array(SPECIAL)], ids=["range", "int-tuple", "int64", "float64"])
def test_emit_csv_writes_each_value_as_formatted_alone(x, tmp_path):
    table = np.array([np.roll(SPECIAL, k) for k in range(7)])
    header = ["x"] + [f"c{j}" for j in range(7)]
    qwalk.cli._emit(argparse.Namespace(out=str(tmp_path / "r")), {}, header, x, table)
    want = "".join((f"{xv:.17g}" if isinstance(xv, float) else str(xv))
                   + "".join("," + f"{v:.17g}" for v in row) + "\n" for xv, row in zip(x, table))
    assert (tmp_path / "r.csv").read_text() == ",".join(header) + "\n" + want


def test_emit_csv_blocks_join_seamlessly(monkeypatch, tmp_path):
    x = np.linspace(0.0, 1.0, 11)
    table = np.sqrt(np.arange(22.0)).reshape(11, 2)
    args = argparse.Namespace(out=str(tmp_path / "whole"))
    qwalk.cli._emit(args, {}, ["x", "a", "b"], x, table)
    monkeypatch.setattr(qwalk.cli, "_CSV_BLOCK", 3)
    qwalk.cli._emit(argparse.Namespace(out=str(tmp_path / "blocks")), {}, ["x", "a", "b"], x, table)
    text = (tmp_path / "blocks.csv").read_text()
    assert text == (tmp_path / "whole.csv").read_text()
    assert len(text.splitlines()) == 12


def test_emit_json_writes_numpy_values_as_their_python_forms(tmp_path):
    rows = np.array([SPECIAL, SPECIAL[::-1]])
    numpy_payload = {
        "array": np.array(SPECIAL),
        "empty": np.empty(0),
        "float": np.float64(0.1),
        "int": np.int64(7),
        "real_part": np.real(np.complex128(complex(-0.0, 2.0))),
        "rows": dict(zip(("n3", "n4"), rows)),
    }
    plain_payload = {
        "array": list(SPECIAL),
        "empty": [],
        "float": 0.1,
        "int": 7,
        "real_part": -0.0,
        "rows": {"n3": [float(v) for v in rows[0]], "n4": [float(v) for v in rows[1]]},
    }
    qwalk.cli._emit(argparse.Namespace(out=str(tmp_path / "numpy")), numpy_payload)
    qwalk.cli._emit(argparse.Namespace(out=str(tmp_path / "plain")), plain_payload)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_ctqw_csv_caps_grid_probabilities(tmp_path):
    # C8's t = 0 amplitude squares to 1.0000000000000004 before the cap
    stem = tmp_path / "c8"
    argv = ["ctqw", "--graph", "cycle n=8", "--pair", "0,4", "--tmax", "1", "--dt", "0.5"]
    assert main(argv + ["--out", str(stem)]) == 0
    rows = stem.with_suffix(".csv").read_text().splitlines()
    assert rows[0] == "t,v0,v4" and rows[1].startswith("0,1,")
    assert max(float(v) for row in rows[1:] for v in row.split(",")[1:]) <= 1.0


def test_decohere_classical_limit(tmp_path):
    base = tmp_path / "dec"
    argv = ["decohere", "--graph", "cycle n=4", "--policy", "O1",
            "--basis", "both", "--rate", "1", "--init", "1,0",
            "--pair", "0,2", "--steps", "6", "--out", str(base)]
    assert main(argv) == 0
    data = json.loads(base.with_suffix(".json").read_text())
    assert data["final_distribution"] == pytest.approx([0.5, 0.0, 0.5, 0.0], abs=1e-10)
    header = base.with_suffix(".csv").read_text().splitlines()[0]
    assert header == "step,v0,v1,v2,v3"


def test_decohere_rate_sweep(tmp_path):
    base = tmp_path / "rates"
    argv = ["decohere", "--graph", "join k2c n=3", "--rates", "0,1",
            "--steps", "6", "--out", str(base)]
    assert main(argv) == 0
    lines = base.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "rate,p_target"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(lines[2].split(",")[1]) == pytest.approx(0.171875, abs=1e-9)


def test_every_discrete_decohere_path_checks_its_density(monkeypatch, capsys):
    conjugate = qwalk.dtqw.StepOperator.conjugate
    monkeypatch.setattr(qwalk.dtqw.StepOperator, "conjugate",
                        lambda self, rho: 1.01 * conjugate(self, rho))
    for flags in (["--rate", "0.1"], ["--rates", "0,0.1"]):
        assert main(["decohere", "--graph", "join k2c n=3", "--steps", "20"] + flags) == 2
        assert "density trace" in capsys.readouterr().err


def test_decohere_flag_conflicts(capsys):
    code = main(["decohere", "--graph", "cycle n=4", "--rate", "0.2",
                 "--rates", "0.1,0.2", "--basis", "spin"])
    assert code == 1
    err = capsys.readouterr().err
    assert "either --rate or --rates" in err
    assert "basis must be" in err


def test_decohere_ct_is_exact_whatever_dt(capsys):
    probs = {}
    for dt in ("3", "0.001"):
        argv = ["decohere", "--model", "ct", "--graph", "cycle n=4", "--time", "3", "--dt", dt]
        assert main(argv) == 0
        probs[dt] = np.array(json.loads(capsys.readouterr().out)["vertex_probabilities"])
    assert np.max(np.abs(probs["3"] - probs["0.001"])) < 1e-12
    assert np.all((probs["3"] >= 0.0) & (probs["3"] <= 1.0))


def test_decohere_ct_rejects_negative_time(capsys):
    argv = ["decohere", "--model", "ct", "--graph", "cycle n=4", "--time", "-1"]
    assert main(argv) == 1
    assert "time must be non-negative" in capsys.readouterr().err


def test_decohere_memory_does_not_grow_with_steps(tmp_path):
    argv = ["decohere", "--graph", "join k2c n=36", "--rate", "0.1", "--steps", "100",
            "--out", str(tmp_path / "dec")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 216 x 216 complex density is 0.75 MB; 101 of them would be 75 MB
    assert peak < 16e6


def test_search_cli_schema(tmp_path, capsys):
    sink = tmp_path / "s.jsonl"
    argv = ["search", "--base", "4", "--max-new", "1", "--samples", "50",
            "--steps", "10", "--workers", "1", "--out", str(sink)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = [l for l in sink.read_text().splitlines() if l.strip()]
    assert len(lines) == 24
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"key", "descriptor", "policy", "best_p",
                            "best_step", "pst", "pst_steps", "frac_over_lambda"}
    # a second run must not duplicate finished cells
    assert main(argv) == 0
    capsys.readouterr()
    assert len(sink.read_text().splitlines()) == 24


def test_resumed_search_prints_tied_records_in_the_same_order(tmp_path, capsys):
    # at these settings two records share best_p exactly; the earlier one
    # in the sink is dropped, so the resume appends it after the other
    sink = tmp_path / "s.jsonl"
    argv = ["search", "--base", "4", "--max-new", "1", "--samples", "50",
            "--steps", "20", "--workers", "1", "--out", str(sink)]
    assert main(argv) == 0
    full = capsys.readouterr().out
    lines = sink.read_text().splitlines()
    best = [json.loads(line)["best_p"] for line in lines]
    tied = [i for i, p in enumerate(best) if best.count(p) > 1]
    assert len(tied) == 2
    sink.write_text("".join(line + "\n" for i, line in enumerate(lines) if i != tied[0]))
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    assert sorted(sink.read_text().splitlines()) == sorted(lines)


@pytest.mark.parametrize("policies, message", [
    ("O2,table1:9", "preset row must be 1..4, got 9"),
    ("O2,O2", "policy 'O2' listed twice"),
], ids=["invalid", "repeated"])
def test_search_checks_policies_before_writing(tmp_path, capsys, policies, message):
    fresh, kept = tmp_path / "fresh.jsonl", tmp_path / "kept.jsonl"
    kept.write_text('{"torn')
    for sink in (fresh, kept):
        argv = ["search", "--base", "4", "--max-new", "1", "--samples", "5", "--steps", "4",
                "--workers", "1", "--policies", policies, "--out", str(sink)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
    assert not fresh.exists()
    assert kept.read_text() == '{"torn'


def test_search_stdout_filters(tmp_path, capsys):
    argv = ["search", "--base", "4", "--max-new", "1", "--samples", "50",
            "--steps", "10", "--workers", "1", "--pst-only"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        assert json.loads(line)["pst"] is True


def test_robust_cli(tmp_path):
    base = tmp_path / "rob"
    argv = ["robust", "--kind", "phase", "--n", "3", "--magnitudes",
            "0,3.141592653589793", "--out", str(base)]
    assert main(argv) == 0
    lines = base.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "magnitude,p_n3"
    assert float(lines[2].split(",")[1]) == pytest.approx(0.181424, abs=1e-5)


def test_interp_cli(tmp_path):
    base = tmp_path / "interp"
    argv = ["interp", "--n", "3", "--c-grid", "0,0.5,1", "--out", str(base)]
    assert main(argv) == 0
    lines = base.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "c,p_n3"
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(lines[3].split(",")[1]) == pytest.approx(1.0, abs=1e-9)


def test_interp_chain_choices_are_the_sweep_chains():
    parser = qwalk.cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    chain = next(a for a in commands.choices["interp"]._actions if a.dest == "chain")
    assert list(chain.choices) == list(INTERP_CHAINS)
    for name in chain.choices:
        assert interpolation_sweep(name, [3], [0.5]).shape == (1, 1)


STRAY_COIN_MAP = '{"9": [[1,0],[0,1]], "-3": [[0,1],[1,0]], "1": [[0,1],[1,0]]}'


@pytest.mark.parametrize("argv", [
    ["dtqw", "--steps", "4"],
    ["dtqw", "--steps", "4", "--init", "haar:20:1"],
    ["decohere", "--steps", "4", "--rate", "0.1"],
    ["decohere", "--steps", "4", "--rates", "0,0.5"],
], ids=["dtqw", "dtqw-scan", "decohere", "decohere-rates"])
def test_coin_map_keys_that_name_no_vertex_exit_1(argv, tmp_path, capsys):
    argv = argv + ["--graph", "cycle n=4", "--pair", "0,2", "--policy", STRAY_COIN_MAP]
    assert main(argv + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: coin map keys -3, 9 name no vertex in 0..3\n"
    assert list(tmp_path.iterdir()) == []


_SEARCH_SMALL = ["search", "--samples", "5", "--steps", "4", "--workers", "1"]


@pytest.mark.parametrize("args, message", [
    (["--base", "5", "--max-new", "1"], "even base cycle of 4 to 16 vertices"),
    (["--base", "2", "--max-new", "1"], "even base cycle of 4 to 16 vertices"),
    # max_new 0 keeps a regression from surveying all 262,143 subsets
    (["--base", "18", "--max-new", "0"], "at most 65,535 attachment subsets), got 18"),
    (["--base", "4", "--max-new", "0"], "max_new must be at least 1, got 0"),
], ids=["odd", "small", "large", "no-new-node"])
def test_search_checks_its_enumeration_before_the_sink(args, message, tmp_path, capsys):
    sink = tmp_path / "s.jsonl"
    assert main(_SEARCH_SMALL + ["--base", "4", "--max-new", "1", "--out", str(sink)]) == 0
    capsys.readouterr()
    data = sink.read_bytes() + b'{"torn'
    sink.write_bytes(data)
    assert main(_SEARCH_SMALL + args + ["--out", str(sink)]) == 1
    assert message in capsys.readouterr().err
    assert sink.read_bytes() == data


def _run_in_1_5_gb(argv):
    """qwalk argv in a child process whose address space is capped at 1.5 GB,
    so that a regression that allocates from input fails fast instead of
    taking the machine's memory."""
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = dict(os.environ, PYTHONPATH=str(Path(qwalk.cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "qwalk.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)


def test_search_refuses_a_base_of_40_without_listing_its_subsets(tmp_path):
    # 2**40 attachment subsets would exhaust memory
    argv = ["search", "--base", "40", "--max-new", "1", "--workers", "1",
            "--out", str(tmp_path / "s.jsonl")]
    done = _run_in_1_5_gb(argv)
    assert done.returncode == 1, done.stderr
    assert "at most 65,535 attachment subsets), got 40" in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, table", [
    (["ctqw", "--graph", "cycle n=4", "--pair", "0,2", "--dt", "1e-9"],
     "ctqw time grid needs 100,000,000,001 x 4 entries"),
    (["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--steps", "1000000000"],
     "dtqw step table needs 1,000,000,001 x 4 entries"),
    (["robust", "--kind", "random", "--n", "4", "--runs", "10000000000"],
     "random robustness runs needs 10,000,000,000 x 4 entries"),
    (["interp", "--n", "3", "--c-points", "1000000000"],
     "interp table needs 1 x 1,000,000,000 entries"),
    # the search refuses before it creates its sink
    (["search", "--max-new", "2", "--samples", "1000000000", "--workers", "1"],
     "Haar states needs 1,000,000,000 x 4 entries"),
    (["search", "--max-new", "1", "--steps", "1000000000", "--workers", "1"],
     "scan steps needs 1,000,000,000 x 2 entries"),
], ids=["ctqw-grid", "dtqw-steps", "robust-runs", "interp-c-points", "search-samples",
        "search-steps"])
def test_tables_over_the_limit_are_refused_before_allocation(argv, table, tmp_path):
    done = _run_in_1_5_gb(argv + ["--out", str(tmp_path / "r")])
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("config error:")
    assert f"{table}, over the limit of 16,777,216" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_readme_ctqw_grid_fits_under_the_table_limit(tmp_path):
    # 50,001 x 202 = 10.1 M entries of the 16.8 M limit
    argv = ["ctqw", "--graph", "join k2k n=200", "--pair", "0,1", "--tmax", "50",
            "--dt", "0.001", "--track", "0"]
    assert main(argv + ["--out", str(tmp_path / "ct")]) == 0


def test_dtqw_scan_caps_probabilities_at_one(capsys):
    # grover(2) is the swap, so on C4 every source coin state reaches the
    # antipode at step 2 with probability exactly 1 and none exceeds lam = 1
    argv = ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--init", "haar:50:7",
            "--steps", "8", "--lam", "1"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max_probability"] == 1.0
    assert report["fraction_over_lam"] == 0.0


@pytest.mark.parametrize("argv, message", [
    (["graph", " "], "empty graph spec"),
    (["graph", "cycle n=six"], "graph spec n must be an integer, got 'six'"),
    (["graph", "diamond n=2 loops=all"], "diamond loops must be 'none' or 'ends', got 'all'"),
    (["dtqw", "--graph", "cycle n=4", "--init", "0,0"], "explicit amplitudes cannot all be zero"),
    (["dtqw", "--graph", "cycle n=4", "--init", "haar:two"], "has non-integer fields"),
    (["dtqw", "--graph", "cycle n=4", "--pair", "0"],
     "pair must be two comma-separated integers, got '0'"),
    (["dtqw", "--graph", "cycle n=4", "--pair", "1,1"], "pair vertices must differ"),
    (["dtqw", "--graph", "cycle n=4", "--track", "0,x"],
     "track must be comma-separated integers, got '0,x'"),
    (["dtqw", "--graph", "cycle n=4", "--config", "{dir}/absent.json"], "cannot read config file"),
    (["dtqw", "--graph", "cycle n=4", "--config", "{dir}/torn.json"], "is not valid JSON"),
    (["dtqw", "--graph", "cycle n=4", "--config", "{dir}/list.json"], "must hold a JSON object"),
    (["ctqw", "--graph", "cycle n=4", "--tmax", "1", "--dt", "2"],
     "dt must not exceed tmax (1.0), got 2.0"),
    (["decohere", "--graph", "cycle n=4", "--rate", "1.5"],
     "noise rate must lie in [0, 1], got 1.5"),
    (["decohere", "--graph", "cycle n=4", "--model", "ct"], "continuous model needs --time"),
    (["search", "--policies", " , "], "policies list is empty"),
    (["search", "--workers", "0"], "workers must be positive, got 0"),
    (["robust", "--kind", "random", "--n", ""], "need at least one cycle size in --n"),
    (["robust", "--kind", "defect", "--n", "3"], "kind 'defect' needs --magnitudes"),
    (["interp", "--n", ""], "need at least one size in --n"),
    (["interp", "--n", "3", "--c-grid", "0,1.5"], "coupling c must lie in [0, 1], got 1.5"),
], ids=["empty-graph", "n-not-int", "bad-loops", "zero-amplitudes", "haar-not-int",
        "pair-malformed", "pair-equal", "list-malformed", "config-unreadable",
        "config-not-json", "config-not-object", "dt-over-tmax", "rate-range", "ct-no-time",
        "no-policies", "no-workers", "robust-no-n", "defect-no-magnitudes", "interp-no-n",
        "coupling-range"])
def test_every_refusal_exits_1_with_its_message(argv, message, tmp_path, capsys):
    (tmp_path / "torn.json").write_text('{"steps": ')
    (tmp_path / "list.json").write_text("[1]")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert message in captured.err
    assert captured.out == ""


def _readme_commands() -> list[str]:
    """Each single qwalk command of README's sh blocks, continuations joined;
    lines that hold $ need a shell and are left out."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("qwalk ") and "$" not in line:
                commands.append(line)
    return commands


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_example_runs(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err
