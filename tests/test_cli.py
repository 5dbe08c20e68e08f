import argparse
import contextlib
import itertools
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qwalk.cli
import qwalk.dtqw
from qwalk.cli import main, parse_graph_spec, parse_init_spec
from qwalk.arcs import ArcSpace
from qwalk.coins import parse_policy
from qwalk.ctqw import Spectrum, evolve_ct_many
from qwalk.errors import ConfigError
from qwalk.explorer import INTERP_CHAINS, interpolation_sweep
from qwalk.graphs import Cycle, Edgeless, Join, build, graph_from_json


# ----- spec parsing -----

def test_parse_graph_spec_families():
    g = parse_graph_spec("join k2c n=5")
    assert g.n == 7
    assert sorted(g.degree(v) for v in range(7)) == [4, 4, 4, 4, 4, 5, 5]
    assert parse_graph_spec("cycle n=6").n == 6
    assert parse_graph_spec("diamond n=2 loops=ends").adjacency[0, 0] != 0


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
    eq = parse_init_spec("equal", space, 0)
    assert eq.shape == (space.n_arcs,)
    haar = parse_init_spec("haar:1:3", space, 0)
    assert haar.shape == (space.n_arcs,)
    assert np.isclose(np.linalg.norm(haar), 1.0)
    with pytest.raises(ConfigError, match="must draw one state"):
        parse_init_spec("haar:5:3", space, 0)
    amps = parse_init_spec("1,1", space, 0)
    assert np.allclose(np.linalg.norm(amps), 1.0)
    with pytest.raises(ConfigError, match="2 ports but 3"):
        parse_init_spec("1,0,0", space, 0)
    with pytest.raises(ConfigError, match="bad amplitude"):
        parse_init_spec("1,spam", space, 0)
    with pytest.raises(ConfigError, match="haar spec"):
        parse_init_spec("haar:2:3:4:5", space, 0)


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
    assert data["max_step"] % 4 == 2


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


@pytest.mark.parametrize("spec, seed", [("haar:300", 0), ("haar:300:7", 7)])
def test_a_haar_scan_takes_its_seed_from_its_spec_alone(spec, seed, capsys):
    argv = ["dtqw", "--graph", "cycle n=6", "--pair", "0,2", "--init", spec, "--steps", "12"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    scan = qwalk.dtqw.max_transfer_scan(build(Cycle(6)), parse_policy("O2"), (0, 2),
                                        samples=300, t_max=12, seed=seed)
    assert {k: report[k] for k in scan.to_json_dict()} == json.loads(json.dumps(scan.to_json_dict()))


@pytest.mark.parametrize("argv", [
    ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--init", "haar:1:5", "--steps", "4"],
    ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--init", "haar:20:5", "--steps", "4"],
    ["decohere", "--graph", "cycle n=4", "--pair", "0,2", "--init", "haar:1:5", "--steps", "4"],
], ids=["dtqw", "dtqw-scan", "decohere"])
def test_a_haar_start_records_its_seed_in_its_init_alone(argv, capsys):
    assert main(argv) == 0
    provenance = json.loads(capsys.readouterr().out)["provenance"]
    assert "seed" not in provenance
    assert provenance["init"].endswith(":5")


# ----- other commands -----

@pytest.mark.parametrize("argv", [
    ["ctqw", "--graph", "cycle n=4", "--seed", "1"],
    ["interp", "--n", "3", "--c-grid", "0,1", "--seed", "1"],
    ["interp", "--n", "3", "--c-grid", "0,1", "--config", "absent.json"],
    # no command takes a config file: each option comes from its flag
    ["dtqw", "--graph", "cycle n=4", "--config", "x.json"],
    ["ctqw", "--graph", "cycle n=4", "--config", "x.json"],
    ["decohere", "--graph", "cycle n=4", "--config", "x.json"],
    ["search", "--config", "x.json"],
    ["robust", "--kind", "random", "--n", "3", "--config", "x.json"],
], ids=["ctqw-seed", "interp-seed", "interp-config", "dtqw-config", "ctqw-config",
        "decohere-config", "search-config", "robust-config"])
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
    "seed": (ROBUST, -1, "be non-negative"),
    "runs": (ROBUST, 0, "be positive"),
    "step": (ROBUST, 0, "be positive"),
    "c_points": (INTERP, 1, "be at least 2"),
    "min_p": (SEARCH, 2.0, "lie in [0, 1]"),
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


def test_decohere_takes_one_haar_state(capsys):
    assert main(DECOHERE_DT + ["--init", "haar:1:3"]) == 0
    capsys.readouterr()
    assert main(DECOHERE_DT + ["--init", "haar:2:3"]) == 1
    assert "must draw one state" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dtqw", "--graph", "join k2k n=3", "--init", "haar:1", "--steps", "4"],
    ["dtqw", "--graph", "join k2k n=3", "--init", "haar:5", "--steps", "4"],
    DECOHERE_DT + ["--init", "haar:1"],
    ROBUST,
    SEARCH,
], ids=["dtqw", "dtqw-scan", "decohere", "robust-random", "search"])
def test_a_seed_in_the_environment_is_not_read(argv, tmp_path, monkeypatch, capsys):
    def written(stem):
        assert main(argv + ["--out", str(tmp_path / stem)]) == 0
        return {f.name[len(stem):]: f.read_bytes() for f in tmp_path.glob(stem + "*")}

    monkeypatch.delenv("QWALK_SEED", raising=False)
    unset = written("unset")
    monkeypatch.setenv("QWALK_SEED", "77")
    assert written("env") == unset


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


def test_ctqw_csv_writes_the_tracked_columns_of_the_full_evolution(tmp_path):
    stem = tmp_path / "k2c"
    argv = ["ctqw", "--graph", "join k2c n=7", "--pair", "0,1", "--tmax", "5", "--dt", "0.01",
            "--track", "3,1,5"]
    assert main(argv + ["--out", str(stem)]) == 0
    g = parse_graph_spec("join k2c n=7")
    times = np.arange(0.0, 5.0 + 0.005, 0.01)
    states = evolve_ct_many(Spectrum.from_graph(g), np.eye(g.n, dtype=complex)[0], times)
    probs = np.minimum(np.abs(states[:, [3, 1, 5]]) ** 2, 1.0)
    want = ["t,v3,v1,v5"] + [",".join("%.17g" % x for x in (t, *row)) for t, row in zip(times, probs)]
    assert stem.with_suffix(".csv").read_text().splitlines() == want


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


@pytest.mark.parametrize("graph, pair", [
    ("join k2c n=5", "0,1"), ("cycle n=6", "0,3"), ("join k2k n=4", "0,1"),
    ("diamond n=2", "0,6"), ("join k2p n=4", "0,1"),
])
def test_decohere_rate_and_rates_print_one_capped_target_probability(graph, pair, capsys):
    # both paths read the capped vertex marginal of the same final density
    differ = []
    for basis, rate, steps in itertools.product(("coin", "position", "both"),
                                                ("0", "0.1", "0.5"), ("6", "7", "12")):
        argv = ["decohere", "--graph", graph, "--pair", pair, "--basis", basis,
                "--steps", steps]
        assert main(argv + ["--rate", rate]) == 0
        one = json.loads(capsys.readouterr().out)["target_probability"]
        assert main(argv + ["--rates", rate]) == 0
        (swept,) = json.loads(capsys.readouterr().out)["target_probabilities"]
        assert one <= 1.0 and swept <= 1.0
        if one != swept:
            differ.append((basis, rate, steps, one, swept))
    assert differ == []


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
        assert set(rec) == {"key", "descriptor", "policy", "max_probability",
                            "max_step", "fraction_over_lam", "pst_steps"}
    # a second run must not duplicate finished cells
    assert main(argv) == 0
    capsys.readouterr()
    assert len(sink.read_text().splitlines()) == 24


def test_resumed_search_prints_tied_records_in_the_same_order(tmp_path, capsys):
    # at these settings seven records tie on max_probability, in three groups (a
    # sample set carried whole at 1.0, and cells on the same states); the earliest
    # in the sink is dropped, so the resume appends it after the others
    sink = tmp_path / "s.jsonl"
    argv = ["search", "--base", "4", "--max-new", "1", "--samples", "50",
            "--steps", "20", "--workers", "1", "--out", str(sink)]
    assert main(argv) == 0
    full = capsys.readouterr().out
    lines = sink.read_text().splitlines()
    best = [json.loads(line)["max_probability"] for line in lines]
    tied = [i for i, p in enumerate(best) if best.count(p) > 1]
    assert len(tied) == 7
    sink.write_text("".join(line + "\n" for i, line in enumerate(lines) if i != tied[0]))
    assert main(argv) == 0
    assert capsys.readouterr().out == full
    assert sorted(sink.read_text().splitlines()) == sorted(lines)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_killed_mid_run_resumes_to_the_uninterrupted_bytes(workers, tmp_path):
    # a real SIGKILL to the whole process group, pool workers included, once
    # the sink holds a line; the rerun must finish the same sink and stdout
    argv = [sys.executable, "-m", "qwalk.cli", "search", "--base", "4", "--max-new", "2",
            "--samples", "300", "--steps", "40", "--workers", workers, "--out"]
    env = dict(os.environ, PYTHONPATH=str(Path(qwalk.cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")

    def run(sink):
        done = subprocess.run(argv + [str(sink)], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    whole = tmp_path / "whole.jsonl"
    whole_out = run(whole)
    sink = tmp_path / "killed.jsonl"
    for _ in range(3):  # a run that ends before the kill lands is run again
        sink.unlink(missing_ok=True)
        proc = subprocess.Popen(argv + [str(sink)], env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while proc.poll() is None and not (sink.exists() and b"\n" in sink.read_bytes()):
                assert time.monotonic() < deadline, "the search wrote no line in 60 s"
                time.sleep(0.001)
        finally:
            with contextlib.suppress(ProcessLookupError):  # a group that already ended
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        if len(sink.read_bytes()) < len(whole.read_bytes()):
            break
    assert 0 < len(sink.read_bytes()) < len(whole.read_bytes()), "no kill landed mid-run"
    deadline = time.monotonic() + 30
    while True:  # the killed group, pool workers included, is gone
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a killed search process is still running"
        time.sleep(0.05)
    assert run(sink) == whole_out
    assert sink.read_bytes() == whole.read_bytes()


_SEARCH_SINK = ["search", "--base", "4", "--max-new", "1", "--samples", "20", "--steps", "10",
                "--workers", "1"]


@pytest.mark.parametrize("change, message", [
    (["--steps", "40"], "steps 10 in the file, 40 in this run"),
    (["--seed", "3"], "seed 0 in the file, 3 in this run"),
    (["--base", "6"], "base 4 in the file, 6 in this run"),
    (["--steps", "40", "--seed", "3"],
     "steps 10 in the file, 40 in this run; seed 0 in the file, 3 in this run"),
    (["--policies", "O2"], 'policies ["O1", "O2", "O3"] in the file, ["O2"] in this run'),
], ids=["steps", "seed", "base", "steps-and-seed", "policies"])
def test_search_refuses_to_resume_a_sink_under_another_configuration(
    change, message, tmp_path, capsys
):
    sink, side = tmp_path / "s.jsonl", tmp_path / "s.jsonl.config.json"
    assert main(_SEARCH_SINK + ["--out", str(sink)]) == 0
    capsys.readouterr()
    before = sink.read_bytes(), side.read_bytes()
    assert main(_SEARCH_SINK + change + ["--out", str(sink)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"config error: search sink {sink} was made under another "
                            f"configuration ({side}): {message}\n")
    assert captured.out == ""
    assert (sink.read_bytes(), side.read_bytes()) == before


# a line of the first sink format: best_p, best_step, pst and frac_over_lambda
_FORMAT_1_LINE = ('{"key": "05000000000100000101000101000000", "descriptor": {"base": 4, '
                  '"attachments": [[0]], "links": []}, "policy": "O1", "best_p": 0.8166598168884344, '
                  '"best_step": 10, "pst": false, "pst_steps": [], "frac_over_lambda": 0.0}\n')


def test_search_refuses_a_sink_of_the_first_record_format(tmp_path, capsys):
    sink, side = tmp_path / "s.jsonl", tmp_path / "s.jsonl.config.json"
    sink.write_text(_FORMAT_1_LINE)
    assert main(_SEARCH_SINK + ["--out", str(sink)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: search sink {sink} holds records; cannot read {side}: [Errno 2]")
    assert sink.read_text() == _FORMAT_1_LINE
    assert not side.exists()
    # beside the side file of this very run, the line is still no record
    assert main(_SEARCH_SINK + ["--out", str(tmp_path / "fresh.jsonl")]) == 0
    side.write_bytes((tmp_path / "fresh.jsonl.config.json").read_bytes())
    capsys.readouterr()
    assert main(_SEARCH_SINK + ["--out", str(sink)]) == 1
    assert f"search sink {sink}: line 1 is no search record" in capsys.readouterr().err
    assert sink.read_text() == _FORMAT_1_LINE


@pytest.mark.parametrize("policies, message", [
    ("O2,table1:9", "preset row must be 1..4, got 9"),
    ("O2,O2", "policy 'O2' listed twice"),
    ("O2,table1:3", "policy 'table1:3' is no coin family; search takes O1, O2 or O3"),
], ids=["invalid", "repeated", "preset"])
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
        assert json.loads(line)["pst_steps"]


def test_search_min_p_prints_only_records_at_or_above_it(capsys):
    argv = ["search", "--base", "4", "--max-new", "1", "--samples", "50",
            "--steps", "20", "--workers", "1"]
    assert main(argv) == 0
    every = capsys.readouterr().out.splitlines()
    assert main(argv + ["--min-p", "0.99"]) == 0
    captured = capsys.readouterr()
    shown = captured.out.splitlines()
    assert shown == [line for line in every if json.loads(line)["max_probability"] >= 0.99]
    assert 0 < len(shown) < len(every)
    assert f"({len(shown)} shown)" in captured.err


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


def test_interp_c_points_writes_what_the_same_c_grid_writes(tmp_path):
    assert main(["interp", "--n", "3,5", "--c-points", "3", "--out", str(tmp_path / "pts")]) == 0
    assert main(["interp", "--n", "3,5", "--c-grid", "0,0.5,1", "--out", str(tmp_path / "grid")]) == 0
    pts, grid = ({k: v for k, v in json.loads((tmp_path / f"{stem}.json").read_text()).items()
                  if k != "provenance"} for stem in ("pts", "grid"))
    assert pts == grid
    assert (tmp_path / "pts.csv").read_bytes() == (tmp_path / "grid.csv").read_bytes()


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


@pytest.mark.parametrize("policy", ["O1", "O2", "O3"])
@pytest.mark.parametrize("command", ["dtqw", "decohere"])
def test_a_coined_walk_runs_beside_an_isolated_vertex(command, policy, tmp_path):
    # vertex 2 has no edge and no loop, so it owns no port and asks no coin
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 3, "edges": [[0, 1, 1]], "loops": []}')
    argv = [command, "--graph", str(graph), "--pair", "0,1", "--steps", "3", "--policy", policy,
            "--out", str(tmp_path / "r")] + (["--rate", "0.1"] if command == "decohere" else [])
    assert main(argv) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    if command == "dtqw":
        assert report["report"]["pst_steps"] == [1, 3]
    else:
        assert report["final_distribution"] == [0.0, 1.0, 0.0]


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


@pytest.mark.parametrize("argv, out, message", [
    (["ctqw", "--graph", "cycle n=4", "--pair", "0,2", "--tmax", "1"],
     "missing/x", "cannot write {dir}/missing/x: no directory {dir}/missing"),
    (["graph", "cycle n=4"],
     "missing/x", "cannot write {dir}/missing/x: no directory {dir}/missing"),
    (_SEARCH_SMALL + ["--base", "4", "--max-new", "1"],
     "missing/s.jsonl", "cannot write {dir}/missing/s.jsonl: no directory {dir}/missing"),
    (_SEARCH_SMALL + ["--base", "4", "--max-new", "1"],
     "", "cannot write {dir}: it is a directory"),
    (_SEARCH_SMALL + ["--base", "4", "--max-new", "1"],
     "side", "cannot write {dir}/side.config.json: it is a directory"),
], ids=["ctqw", "graph", "search-missing-dir", "search-directory", "search-side-file-directory"])
def test_an_out_that_cannot_be_written_exits_1_before_the_run(
    argv, out, message, tmp_path, monkeypatch, capsys
):
    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("detect_transfer_ct", "parse_graph_spec", "pst_search"):
        monkeypatch.setattr(qwalk.cli, name, no_run)
    (tmp_path / "side.config.json").mkdir()
    path = os.path.join(tmp_path, out) if out else str(tmp_path)
    assert main(argv + ["--out", path]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message.format(dir=tmp_path)}\n"
    assert captured.out == ""


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
    # checked before the hub graph, which would be refused at 4,096 vertices
    (["robust", "--kind", "defect", "--n", "1000000000", "--magnitudes", "0.5"],
     "defect robustness start states needs 1 x 1,000,000,000 entries"),
    (["interp", "--n", "3", "--c-points", "1000000000"],
     "interp table needs 1 x 1,000,000,000 entries"),
    # the search refuses before it creates its sink
    (["search", "--max-new", "2", "--samples", "1000000000", "--workers", "1"],
     "Haar states needs 1,000,000,000 x 4 entries"),
    (["search", "--max-new", "1", "--steps", "1000000000", "--workers", "1"],
     "scan steps needs 1,000,000,000 x 2 entries"),
    # a dimension above 10^15 is named in scientific form, not in 302 digits
    (["ctqw", "--graph", "cycle n=4", "--pair", "0,2", "--tmax", "10", "--dt", "1e-300"],
     "ctqw time grid needs 1e+301 x 4 entries"),
    # so is an integer past the float range
    (["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--steps", "1" + "0" * 400],
     "dtqw step table needs 1e+400 x 4 entries"),
    # the arcs x arcs density, before it or its O(arcs^3) check is computed
    (["decohere", "--graph", "cycle n=2100", "--pair", "0,1050", "--steps", "1", "--rate", "0.1"],
     "density matrix needs 4,200 x 4,200 entries"),
    (["decohere", "--graph", "cycle n=2100", "--pair", "0,1050", "--steps", "1",
      "--rates", "0.1"], "density matrix needs 4,200 x 4,200 entries"),
], ids=["ctqw-grid", "dtqw-steps", "robust-runs", "robust-start-states", "interp-c-points",
        "search-samples", "search-steps", "ctqw-grid-1e301", "dtqw-steps-1e400",
        "decohere-density", "decohere-rates-density"])
def test_tables_over_the_limit_are_refused_before_allocation(argv, table, tmp_path):
    done = _run_in_1_5_gb(argv + ["--out", str(tmp_path / "r")])
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("config error:")
    assert f"{table}, over the limit of 16,777,216" in done.stderr
    assert len(done.stderr) < 160
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, work", [
    # 1e9 x 4.2 Taylor pieces of a 4 x 4 density: days of work
    (["decohere", "--model", "ct", "--graph", "cycle n=4", "--pair", "0,2", "--rate", "0.1",
      "--time", "1e9"], "decohere_ct's Taylor pieces x n^3 needs 268,800,000,000 work units"),
    # 1e9 density steps on 8 arcs of degree 2: hours of work
    (["decohere", "--graph", "cycle n=4", "--pair", "0,2", "--rates", "0.1",
      "--steps", "1000000000"],
     "the rate sweep's rates x steps x arcs^2 x degree needs 128,000,000,000 work units"),
    (["decohere", "--graph", "cycle n=4", "--pair", "0,2", "--rates", "0.1,0.2",
      "--steps", "1" + "0" * 400],
     "the rate sweep's rates x steps x arcs^2 x degree needs 2.56e+402 work units"),
    # one rate: 6000 density steps on 216 arcs of degree 36, seconds over the budget
    (["decohere", "--graph", "join k2c n=36", "--pair", "0,1", "--rate", "0.1", "--steps", "6000"],
     "the density walk's steps x arcs^2 x degree needs 10,077,696,000 work units"),
], ids=["decohere-ct-time", "decohere-rates-steps", "decohere-rates-steps-1e400",
        "decohere-rate-steps"])
def test_work_over_the_budget_is_refused_at_once(argv, work, tmp_path):
    started = time.monotonic()
    done = _run_in_1_5_gb(argv + ["--out", str(tmp_path / "r")])
    assert time.monotonic() - started < 30
    assert done.returncode == 1, done.stderr
    assert done.stderr == f"config error: {work}, over the limit of 10,000,000,000\n"
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
    (["graph", "{dir}/bytes.json"], "cannot read graph file {dir}/bytes.json: 'utf-8' codec"),
    (["graph", "{dir}"], "cannot read graph file {dir}: "),
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
    (["graph", "{dir}/twice.json"], "graph JSON field 'edges': edge 1-0 is listed twice"),
    (["graph", "cycle n=6 foo=3"], "graph spec 'cycle n=6 foo=3' gives foo= but cycle takes only n"),
    (["graph", "complete n=3 loops=ends"], "gives loops= but complete takes only n"),
    (["graph", "cycle n=4 n=6"], "graph spec 'cycle n=4 n=6' gives n= twice"),
    (["graph", "join k2c k2p n=5"], "unexpected token 'k2p' in graph spec 'join k2c k2p n=5'"),
    (["graph", "join n=5 k2c"], "join spec 'join n=5 k2c' must name k2c, k2k, or k2p before n=<int>"),
    # the hub-cycle walk is built before any draw, so a bad size never reaches the seed
    (["robust", "--kind", "random", "--n", "3,-1", "--runs", "5"], "cycle requires n ≥ 3"),
    (["robust", "--kind", "defect", "--n", "-1", "--magnitudes", "0.5"], "cycle requires n ≥ 3"),
    (["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--steps", "2", "--track", ",",
      "--out", "{dir}/tr"], "need at least one vertex in --track"),
    (["interp", "--n", "3,3"], "--n lists 3 more than once"),
    (["robust", "--kind", "defect", "--n", "3,3", "--magnitudes", "0.5"],
     "--n lists 3 more than once"),
    (["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--track", "0,0,2"],
     "--track lists 0 more than once"),
    (["robust", "--kind", "phase", "--n", "3", "--magnitudes", "0.5,0.50"],
     "--magnitudes lists 0.5 more than once"),
    (["decohere", "--graph", "cycle n=4", "--rates", "0,0.1,0"], "--rates lists 0.0 more than once"),
    (["interp", "--n", "3", "--c-grid", "0,1,1.0"], "--c-grid lists 1.0 more than once"),
    (["search", "--min-p", "nan"], "min_p must lie in [0, 1], got nan"),
    (["search", "--min-p", "7"], "min_p must lie in [0, 1], got 7.0"),
    (["search", "--min-p", "-0.5"], "min_p must lie in [0, 1], got -0.5"),
    # a Haar start takes its seed from its spec, so no walk command takes --seed
    (["decohere", "--model", "ct", "--graph", "cycle n=4", "--time", "1", "--seed", "5"],
     "unrecognized arguments: --seed 5"),
    (["decohere", "--graph", "cycle n=4", "--init", "haar:1", "--seed", "5"],
     "unrecognized arguments: --seed 5"),
    (["dtqw", "--graph", "cycle n=4", "--init", "haar:1", "--seed", "5"],
     "unrecognized arguments: --seed 5"),
    (["dtqw", "--graph", "cycle n=4", "--init", "haar:20", "--track", "1,3"],
     "--track is not read by dtqw with --init haar:20"),
    (["dtqw", "--graph", "cycle n=4", "--init", "haar:0"],
     "haar spec 'haar:0': count must be positive, got 0"),
    (["dtqw", "--graph", "cycle n=4", "--init", "haar:-3:5"],
     "haar spec 'haar:-3:5': count must be positive, got -3"),
    (["decohere", "--graph", "cycle n=4", "--init", "haar:0"],
     "haar spec 'haar:0': count must be positive, got 0"),
], ids=["empty-graph", "n-not-int", "bad-loops", "zero-amplitudes", "haar-not-int",
        "pair-malformed", "pair-equal", "list-malformed", "graph-not-utf8",
        "graph-directory", "dt-over-tmax", "rate-range", "ct-no-time",
        "no-policies", "no-workers", "robust-no-n", "defect-no-magnitudes", "interp-no-n",
        "coupling-range", "edge-twice", "unknown-key", "key-of-another-family", "key-twice",
        "join-two-kinds", "join-kind-last", "random-negative-n", "defect-negative-n",
        "track-empty", "interp-n-twice", "defect-n-twice", "track-twice", "magnitudes-twice",
        "rates-twice", "c-grid-twice", "min-p-nan", "min-p-over-1", "min-p-negative",
        "ct-seed", "decohere-seed", "dtqw-seed", "scan-track", "haar-zero", "haar-negative",
        "decohere-haar-zero"])
def test_every_refusal_exits_1_with_its_message(argv, message, tmp_path, capsys):
    (tmp_path / "twice.json").write_text('{"n": 3, "edges": [[0, 1, 1], [1, 0, 2.5], [1, 2, 1]], '
                                         '"loops": []}')
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert message.replace("{dir}", str(tmp_path)) in captured.err
    assert captured.out == ""


def _rerun_argv(report: dict) -> list[str]:
    """The command line of a report, read from its command and provenance alone."""
    argv = [report["command"].split("-")[0]]
    for key, value in report["provenance"].items():
        if key != "versions" and value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


@pytest.mark.parametrize("argv", [
    # the scan draws its 50 states from the seed of its spec, 7
    ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--init", "haar:50:7", "--steps", "8",
     "--lam", "1"],
    ["decohere", "--graph", "join k2c n=3", "--pair", "1,0", "--init", "haar:1:5",
     "--policy", "O1", "--basis", "position", "--rate", "0.2", "--steps", "6"],
    ["decohere", "--graph", "join k2c n=3", "--pair", "1,0", "--init", "haar:1:5",
     "--rates", "0,0.3", "--steps", "6"],
    ["decohere", "--model", "ct", "--graph", "cycle n=4", "--pair", "1,3", "--rate", "0.1",
     "--time", "1"],
    ["dtqw", "--graph", "join k2c n=4", "--pair", "1,0", "--init", "haar:1:3",
     "--policy", "O3", "--steps", "9", "--lam", "0.7", "--track", "3,1,5"],
    ["ctqw", "--graph", "join k2k n=3", "--pair", "0,1", "--tmax", "3", "--dt", "0.25",
     "--lam", "0.8", "--track", "4,0"],
    ["robust", "--kind", "random", "--n", "3,5", "--runs", "7", "--seed", "4", "--step", "5"],
    ["robust", "--kind", "defect", "--n", "4,3", "--magnitudes", "0.5,0.25", "--step", "7"],
    ["interp", "--chain", "k2kn-k2pn", "--n", "4,3", "--c-points", "4", "--step", "5"],
    ["interp", "--n", "3", "--c-grid", "0.25,0,1"],
], ids=["dtqw-scan", "decohere", "decohere-rates", "decohere-ct", "dtqw", "ctqw",
        "robust-random", "robust-defect", "interp-c-points", "interp-c-grid"])
def test_a_report_reruns_to_its_own_bytes_from_its_recorded_fields(argv, tmp_path, monkeypatch):
    # a seed left in the environment is not read: both runs take theirs from the command line
    monkeypatch.setenv("QWALK_SEED", "9")
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(argv + ["--out", str(first)]) == 0
    report = json.loads(first.with_suffix(".json").read_text())
    monkeypatch.delenv("QWALK_SEED")
    assert main(_rerun_argv(report) + ["--out", str(again)]) == 0
    for suffix in (".json", ".csv"):
        if first.with_suffix(suffix).exists():
            assert again.with_suffix(suffix).read_bytes() == first.with_suffix(suffix).read_bytes()


# Each mode of a command that writes a report, as a command line it runs
READ_MODES = {
    "dtqw-walk": ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--steps", "4"],
    "dtqw-scan": ["dtqw", "--graph", "cycle n=4", "--pair", "0,2", "--init", "haar:5:1",
                  "--steps", "4"],
    "ctqw": ["ctqw", "--graph", "cycle n=4", "--pair", "0,2", "--tmax", "2", "--dt", "0.1"],
    "decohere-dt": ["decohere", "--model", "dt", "--graph", "cycle n=4", "--pair", "0,2",
                    "--steps", "4"],
    "decohere-ct": ["decohere", "--model", "ct", "--graph", "cycle n=4", "--pair", "0,2",
                    "--time", "1"],
    "robust-random": ["robust", "--kind", "random", "--n", "3", "--runs", "5"],
    "robust-defect": ["robust", "--kind", "defect", "--n", "3", "--magnitudes", "0.5"],
    "robust-phase": ["robust", "--kind", "phase", "--n", "3", "--magnitudes", "0.5"],
    "interp-points": ["interp", "--n", "3"],
    "interp-grid": ["interp", "--n", "3", "--c-grid", "0,1"],
}
# a valid value for each flag that a mode's command line does not give
READ_VALUES = {"track": "1,2", "seed": "2", "lam": "0.5", "policy": "O1", "init": "1,0",
               "steps": "3", "basis": "position", "rate": "0.1", "rates": "0,0.1", "time": "2",
               "magnitudes": "0.25", "runs": "4", "step": "5", "c_points": "4", "c_grid": "0,0.5",
               "chain": "k2kn-k2pn"}


def _mode_flags():
    sub = next(a for a in qwalk.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for mode, argv in READ_MODES.items():
        for action in sub.choices[argv[0]]._actions:
            flag = next((f for f in action.option_strings if f.startswith("--")), None)
            # decohere's --dt is accepted for old command lines and read by no model
            skip = ("--help", "--out") + (("--dt",) if argv[0] == "decohere" else ())
            if flag is None or flag in skip:
                continue
            yield pytest.param(mode, flag, action.dest, id=f"{mode}{flag}")


@pytest.mark.parametrize("mode, flag, dest", _mode_flags())
def test_every_flag_is_read_into_the_provenance_or_refused(mode, flag, dest, capsys):
    argv = READ_MODES[mode]
    value = argv[argv.index(flag) + 1] if flag in argv else READ_VALUES[dest]
    code = main(_without(argv, flag) + [flag, value])
    captured = capsys.readouterr()
    if code == 1:
        assert f"{flag} is not read by" in captured.err
    else:
        assert code == 0, captured.err
        assert json.loads(captured.out)["provenance"][dest] is not None


WEIGHTED_C4 = '{"n": 4, "edges": [[0, 1, 2.5], [1, 2, 1], [2, 3, 1], [0, 3, 1]], "loops": []}'


@pytest.mark.parametrize("argv", [
    ["dtqw"], ["dtqw", "--init", "haar:5"], ["decohere", "--rate", "0.1"],
    ["decohere", "--rates", "0,0.1"],
], ids=["dtqw", "dtqw-scan", "decohere-rate", "decohere-rates"])
def test_coined_walks_refuse_a_weighted_graph_before_writing(argv, tmp_path, capsys):
    (tmp_path / "w.json").write_text(WEIGHTED_C4)
    argv += ["--graph", str(tmp_path / "w.json"), "--pair", "0,2", "--steps", "3",
             "--out", str(tmp_path / "r")]
    assert main(argv) == 1
    assert "config error: coined walks need an unweighted graph" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]


@pytest.mark.parametrize("argv", [
    ["ctqw", "--tmax", "2"], ["decohere", "--model", "ct", "--rate", "0.1", "--time", "1"],
], ids=["ctqw", "decohere-ct"])
def test_continuous_walks_take_the_edge_weights_as_their_hamiltonian(argv, tmp_path, capsys):
    (tmp_path / "w.json").write_text(WEIGHTED_C4)
    reports = []
    for graph in (str(tmp_path / "w.json"), "cycle n=4"):
        assert main(argv + ["--graph", graph, "--pair", "0,2"]) == 0
        reports.append({k: v for k, v in json.loads(capsys.readouterr().out).items()
                        if k != "provenance"})
    assert reports[0] != reports[1]


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


def _readme_python_blocks() -> list[str]:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", readme, re.S)


@pytest.mark.parametrize("block", _readme_python_blocks(), ids=lambda block: block.split("\n")[-2])
def test_readme_python_example_prints_its_comments(block, capsys):
    # each trailing "# ..." comment of a code line is one line it prints
    want = re.findall(r"^[^#\n]+#\s*(.*?)\s*$", block, re.M)
    assert want
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want


def _option_readers() -> dict[str, set[str]]:
    """Option key -> the subcommands that declare it through ``_option``,
    known by the "(default ...; must ...)" help that ``_option`` writes."""
    parser = qwalk.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    readers = {key: set() for key in qwalk.cli.OPTIONS}
    for command, p in sub.choices.items():
        for action in p._actions:
            for key, (default, _, rule) in qwalk.cli.OPTIONS.items():
                if (action.dest == key and action.type is type(default)
                        and (action.help or "").endswith(f"(default {default}; must {rule})")):
                    readers[key].add(command)
    return readers


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Shared behavior:", 1)[1].split("\n\n")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        key, default, _, read_by = (cell.strip() for cell in line.strip("|").split("|"))
        commands = set(re.findall(r"`([a-z]+)`", re.sub(r"\([^)]*\)", "", read_by)))
        rows[key.strip("`")] = (float(default), commands)
    readers = _option_readers()
    assert rows == {key: (float(spec[0]), readers[key]) for key, spec in qwalk.cli.OPTIONS.items()}


# Each mode row of README's "modes with flags they do not read" table, by its
# mode cell: each READ_MODES command line that runs it, with the mode's name
# in a refusal
README_MODES = {
    "`dtqw` walk": {"dtqw-walk": "dtqw with --init equal"},
    "`dtqw` scan (`--init haar:K`, K > 1)": {"dtqw-scan": "dtqw with --init haar:5:1"},
    "`decohere --model dt` (the default)": {"decohere-dt": "--model dt"},
    "`decohere --model ct`": {"decohere-ct": "--model ct"},
    "`robust --kind random`": {"robust-random": "--kind random"},
    "`robust --kind defect` or `phase`": {"robust-defect": "--kind defect",
                                          "robust-phase": "--kind phase"},
    "`interp` with `--c-grid`": {"interp-grid": "interp with --c-grid"},
}


def _readme_mode_rows():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("modes with flags they do not read:", 1)[1].split("\n\n")[1]
    for line in table.splitlines()[2:]:
        mode, reads, refuses = (cell.strip() for cell in line.strip("|").split("|"))
        yield mode, re.findall(r"`(--[a-z-]+)`", reads), re.findall(r"`(--[a-z-]+)`", refuses)


def _readme_mode_cases():
    for mode, reads, refuses in _readme_mode_rows():
        for key, name in README_MODES[mode].items():
            for flag in reads + refuses:
                refused = name if flag in refuses else None
                yield pytest.param(key, flag, refused, id=f"{key}{flag}")


def test_readme_mode_table_names_every_flag_of_its_modes():
    sub = next(a for a in qwalk.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    rows = list(_readme_mode_rows())
    assert [mode for mode, _, _ in rows] == list(README_MODES)
    for mode, reads, refuses in rows:
        command = READ_MODES[next(iter(README_MODES[mode]))][0]
        # decohere's --dt is read by no model, and README says so apart
        flags = {f for a in sub.choices[command]._actions for f in a.option_strings
                 if f.startswith("--") and f not in ("--help", "--out", "--dt")}
        assert sorted(reads + refuses) == sorted(flags), mode
        assert not set(reads) & set(refuses), mode


@pytest.mark.parametrize("key, flag, refused", _readme_mode_cases())
def test_readme_mode_table_matches_what_each_mode_reads(key, flag, refused, capsys):
    argv = READ_MODES[key]
    dest = flag[2:].replace("-", "_")
    value = argv[argv.index(flag) + 1] if flag in argv else READ_VALUES[dest]
    code = main(_without(argv, flag) + [flag, value])
    err = capsys.readouterr().err
    if refused:
        assert code == 1
        assert f"{flag} is not read by {refused}" in err
    else:
        assert code == 0, err
