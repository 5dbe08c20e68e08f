"""Command-line entry point exposing every workflow in the package.

Subcommands: graph, dtqw, ctqw, decohere, search, robust, interp.
Numeric options resolve from their flags, else from the defaults of
the OPTIONS table, which also holds the range each value must lie in.
search and robust --kind random take --seed, else seed 0; a Haar start
(dtqw, decohere) takes its seed from its haar:K[:SEED] spec, else 0.
Each report is a JSON file, next to a CSV series where the command has
one; reruns with the same inputs produce byte-identical files.  Each
mode of a command names the flags it reads once: any other flag given
is refused, and the report's provenance block records what was read
(options as resolved), with the qwalk and numpy versions, so the report
reruns from it alone.

Exit codes: 0 on success, 1 for configuration problems, 2 when a
numerical tolerance is breached during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Sequence

import numpy as np

from qwalk import __version__
from qwalk.arcs import ArcSpace
from qwalk.coins import parse_policy
from qwalk.ctqw import detect_transfer_ct
from qwalk.decoherence import (
    NoiseModel,
    decohere_ct,
    density_from_state,
    density_steps,
    target_probability_vs_rate,
    vertex_marginal,
)
from qwalk.dtqw import (
    build_step_operator,
    detect_transfer,
    equal_superposition,
    haar_states,
    max_transfer_scan,
    state_at_vertex,
    unit_vector,
)
from qwalk.errors import ConfigError, ToleranceError, check_table
from qwalk.explorer import INTERP_CHAINS, interpolation_sweep, pst_search, robustness_sweep
from qwalk.graphs import (
    JOIN_FAMILIES,
    Complete,
    Cycle,
    DiamondChain,
    Edgeless,
    Graph,
    Join,
    Path,
    build,
    graph_from_json,
    graph_to_json,
)

_CSV_BLOCK = 1024  # CSV rows formatted per %-format call

# Each numeric option: its default (whose type converts every value), the
# condition a value must meet, and that condition in words.
OPTIONS = {
    "steps": (100, lambda v: v >= 1, "be positive"),
    "samples": (1500, lambda v: v >= 1, "be positive"),
    "lam": (0.9, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "tmax": (100.0, lambda v: 0.0 < v < float("inf"), "be positive and finite"),
    "dt": (0.01, lambda v: v > 0.0, "be positive"),
    "seed": (0, lambda v: v >= 0, "be non-negative"),
    "runs": (1000, lambda v: v >= 1, "be positive"),
    "step": (6, lambda v: v >= 1, "be positive"),
    "c_points": (11, lambda v: v >= 2, "be at least 2"),
    "min_p": (0.0, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports problems through ConfigError.

    Keeps exit code 1 for every configuration failure, including
    unknown flags, instead of argparse's default exit code 2.  Neither
    the top parser nor a subcommand's takes an abbreviated flag.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(f"{self.prog}: {message}")


# ===== Spec-string parsing =====

# The head of each family string and the keys it takes; every family needs n
_SPEC_KEYS = {"cycle": ("n",), "complete": ("n",), "path": ("n",), "edgeless": ("n",),
              "join": ("n",), "diamond": ("n", "loops")}


def parse_graph_spec(text: str) -> Graph:
    """Build a graph from a family string or a JSON file path.

    Family strings look like "cycle n=6", "join k2c n=5", or
    "diamond n=3 loops=ends", each key one the family takes, given once.
    Anything else is treated as a path to a graph JSON file.
    """
    text = text.strip()
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty graph spec")
    head, words = tokens[0].lower(), tokens[1:]
    if head not in _SPEC_KEYS:
        if os.path.exists(text):
            return graph_from_json(_read_text(text, "graph file"))
        raise ConfigError(f"unknown graph spec {text!r} (not a family string or file)")
    kind = words.pop(0).lower() if head == "join" and words else None
    if head == "join" and kind not in JOIN_FAMILIES:
        raise ConfigError(f"join spec {text!r} must name k2c, k2k, or k2p before n=<int>")
    kv = {}
    for tok in words:
        key, eq, value = tok.partition("=")
        key = key.lower()
        if not eq:
            raise ConfigError(f"unexpected token {tok.lower()!r} in graph spec {text!r}")
        if key not in _SPEC_KEYS[head] or key in kv:
            why = "twice" if key in kv else f"but {head} takes only {' and '.join(_SPEC_KEYS[head])}"
            raise ConfigError(f"graph spec {text!r} gives {key}= {why}")
        kv[key] = value
    loops = kv.get("loops", "none")
    if loops not in ("none", "ends"):
        raise ConfigError(f"diamond loops must be 'none' or 'ends', got {loops!r}")
    if "n" not in kv:
        raise ConfigError(f"graph spec {text!r} needs n=<int>")
    try:
        n = int(kv["n"])
    except ValueError as exc:
        raise ConfigError(f"graph spec n must be an integer, got {kv['n']!r}") from exc
    if head == "join":
        return build(Join(Edgeless(2), JOIN_FAMILIES[kind](n)))
    if head == "diamond":
        return build(DiamondChain(n, loop_ends=loops == "ends"))
    plain = {"cycle": Cycle, "complete": Complete, "path": Path, "edgeless": Edgeless}
    return build(plain[head](n))


def _parse_complex(token: str) -> complex:
    try:
        return complex(token.strip().replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad amplitude {token!r}") from exc


def parse_init_spec(text: str, space: ArcSpace, source: int) -> np.ndarray:
    """Initial arc state of shape (n_arcs,) from a spec string.

    "equal" spreads the walker over the source ports, "haar:1:<seed>"
    draws one Haar-random source coin state ("haar:1" from seed 0), and a
    comma-separated amplitude list (normalized here) places explicit
    port amplitudes at the source.  Only the dtqw scan takes haar specs
    of more than one state, and it reads them with _parse_haar_spec.
    """
    text = text.strip()
    if text == "equal":
        return equal_superposition(space, source)
    haar = _parse_haar_spec(text)
    if haar is not None:
        if haar[0] != 1:
            raise ConfigError(f"haar spec {text!r} must draw one state; only the dtqw scan takes more")
        return state_at_vertex(space, source, haar_states(space.degree(source), *haar)[0])
    amps = np.array([_parse_complex(tok) for tok in text.split(",")], dtype=complex)
    if not np.all(np.isfinite(amps)):
        raise ConfigError(f"amplitudes must be finite, got {text!r}")
    d = space.degree(source)
    if amps.shape != (d,):
        raise ConfigError(
            f"source vertex {source} has {d} ports but {amps.size} amplitudes given"
        )
    if not np.any(amps):
        raise ConfigError("explicit amplitudes cannot all be zero")
    return state_at_vertex(space, source, unit_vector(amps))


def _parse_haar_spec(text: str) -> tuple[int, int] | None:
    """(count, seed) of a "haar:<count>[:<seed>]" spec (seed 0 if not given), else None."""
    text = text.strip()
    if not text.startswith("haar:"):
        return None
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"haar spec {text!r} must be haar:<count>[:<seed>]")
    try:
        count, haar_seed = int(parts[1]), int(parts[2]) if len(parts) == 3 else 0
    except ValueError as exc:
        raise ConfigError(f"haar spec {text!r} has non-integer fields") from exc
    if count < 1:
        raise ConfigError(f"haar spec {text!r}: count must be positive, got {count}")
    _, ok, rule = OPTIONS["seed"]
    if not ok(haar_seed):
        raise ConfigError(f"haar spec {text!r}: seed must {rule}, got {haar_seed}")
    return count, haar_seed


def _parse_pair(text: str, n: int, issues: list[str]) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        issues.append(f"pair must be two comma-separated integers, got {text!r}")
        return (0, 0)
    for v in (a, b):
        if not 0 <= v < n:
            issues.append(f"pair vertex {v} outside 0..{n - 1}")
    if a == b:
        issues.append("pair vertices must differ")
    return (a, b)


def _check_source_ports(g: Graph, source: int, issues: list[str]) -> None:
    """A coined walk starts on the source's ports, so the source needs some."""
    if 0 <= source < g.n and ArcSpace.from_graph(g).degree(source) == 0:
        issues.append(f"vertex {source} has no ports")


def _parse_list(text: str, kind: type, label: str, issues: list[str], noun: str = "") -> list:
    """Comma-separated values of kind (int or float); blank items are skipped.
    A value listed more than once is an issue.  With a noun, an empty list
    is an issue too: "need at least one <noun>"."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        issues.append(f"{label} must be comma-separated {what}, got {text!r}")
        values = []
    issues.extend(f"--{label} lists {v} more than once" for v, k in Counter(values).items() if k > 1)
    if noun and not values:
        issues.append(f"need at least one {noun} in --{label}")
    return values


def _parse_track(text: str | None, pair: tuple[int, int], n: int, issues: list[str]) -> list[int]:
    """Vertices of the CSV columns: the --track list, or the pair."""
    track = _parse_list(text, int, "track", issues, "vertex") if text else list(pair)
    for v in track:
        if not 0 <= v < n:
            issues.append(f"tracked vertex {v} outside 0..{n - 1}")
    return track


# ===== Option reading and output helpers =====


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


# Dests that no mode refuses: the subcommand wiring, where the report goes,
# and decohere's --dt, accepted for old command lines (ctqw reads its own --dt)
_NOT_REFUSED = ("command", "func", "out", "dt")


def _read(args: argparse.Namespace, reads: Sequence[str], issues: list[str], mode: str,
          **defaults) -> dict:
    """The provenance of a run of one mode: what it reads of args, checked.

    Every given flag of the command outside reads is an issue, "--<flag>
    is not read by <mode>".  An OPTIONS key in reads comes from its flag,
    which argparse has converted to the type of the key's default, else
    from the table's default.  A flag value that fails its condition is
    appended to issues and reads the default, so later checks can go on.
    Every other name in reads keeps its value as given, else its code
    default from defaults.  The qwalk and numpy versions go beside them.
    """
    issues.extend(f"--{k.replace('_', '-')} is not read by {mode}" for k, v in vars(args).items()
                  if v is not None and k not in reads and k not in _NOT_REFUSED)
    run = {"versions": {"numpy": np.__version__, "qwalk": __version__}}
    for key in reads:
        val = getattr(args, key)
        if key in OPTIONS:
            default, ok, rule = OPTIONS[key]
            if val is not None and not ok(val):
                issues.append(f"{key} must {rule}, got {val}")
                val = None
        else:
            default = defaults.get(key)
        run[key] = default if val is None else val
    return run


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when there is no path."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _emit(args: argparse.Namespace, payload: dict, header=None, x=(), table=()) -> None:
    """Write a command's report: <out>.json, or JSON on stdout without --out.

    With a header and --out, also stream <out>.csv: the header, then one
    row per x value holding x (an integer, or a float) and that row of the
    2-D table, each float written with 17 significant digits.  Rows are
    formatted in blocks of ``_CSV_BLOCK``, one %-format call per block, so
    a long table is never held twice as Python floats.
    """
    if args.out and header is not None:
        x = np.asarray(x)
        row_fmt = ("%.17g" if x.dtype.kind == "f" else "%d") + ",%.17g" * (len(header) - 1) + "\n"
        with open(args.out + ".csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for lo in range(0, len(x), _CSV_BLOCK):
                block = np.column_stack((x[lo : lo + _CSV_BLOCK], table[lo : lo + _CSV_BLOCK]))
                fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
    _write(args.out + ".json" if args.out else None, text)


def _check_out(args: argparse.Namespace) -> None:
    """Refuse an --out that cannot be written, before the command runs.

    Its directory must exist, and no file it names may be a directory:
    X itself for graph, X and its side file X.config.json for search,
    X.json and X.csv for the others.
    """
    out = args.out
    if not out:
        return
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"cannot write {out}: no directory {folder}")
    files = {"graph": [out], "search": [out, out + ".config.json"]}.get(
        args.command, [out + ".json", out + ".csv"])
    for path in files:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")


def _raise_issues(issues: list[str]) -> None:
    if issues:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(issues))


# ===== Subcommand implementations =====


def cmd_graph(args: argparse.Namespace) -> int:
    g = parse_graph_spec(args.spec)
    _write(args.out or None, graph_to_json(g) + "\n")
    return 0


def cmd_dtqw(args: argparse.Namespace) -> int:
    issues: list[str] = []
    # a haar:K spec with K > 1 scans K states and writes no series to track
    haar = _parse_haar_spec(args.init)
    scan = haar is not None and haar[0] > 1
    run = _read(args, ("graph", "pair", "policy", "init", "steps", "lam")
                + (() if scan else ("track",)), issues, f"dtqw with --init {args.init}")
    steps, lam = run["steps"], run["lam"]
    g = parse_graph_spec(run["graph"])
    pair = _parse_pair(run["pair"], g.n, issues)
    track = _parse_track(run.get("track"), pair, g.n, issues)
    _check_source_ports(g, pair[0], issues)
    _raise_issues(issues)

    policy = parse_policy(run["policy"])
    if scan:
        samples, seed = haar
        best = max_transfer_scan(g, policy, pair, samples=samples, t_max=steps, seed=seed, lam=lam)
        _emit(args, {"command": "dtqw-scan", "provenance": run,
                     **best.to_json_dict(), "samples": samples})
        return 0

    psi0 = parse_init_spec(run["init"], ArcSpace.from_graph(g), pair[0])
    report = detect_transfer(g, policy, psi0, pair, t_max=steps, lam=lam)
    _emit(args, {"command": "dtqw", "provenance": run, "report": report.to_json_dict()},
          ["step"] + [f"v{v}" for v in track], range(steps + 1), report.vertex_series[:, track])
    return 0


def cmd_ctqw(args: argparse.Namespace) -> int:
    issues: list[str] = []
    run = _read(args, ("graph", "pair", "track", "tmax", "dt", "lam"), issues, "ctqw")
    tmax, dt = run["tmax"], run["dt"]
    if dt > tmax:
        issues.append(f"dt must not exceed tmax ({tmax}), got {dt}")
    g = parse_graph_spec(run["graph"])
    pair = _parse_pair(run["pair"], g.n, issues)
    track = _parse_track(run["track"], pair, g.n, issues)
    _raise_issues(issues)

    report = detect_transfer_ct(g, pair, t_max=tmax, dt=dt, lam=run["lam"])
    _emit(args, {"command": "ctqw", "provenance": run, "report": report.to_json_dict()},
          ["t"] + [f"v{v}" for v in track], report.times, report.vertex_series[:, track])
    return 0


def cmd_decohere(args: argparse.Namespace) -> int:
    issues: list[str] = []
    model = args.model
    reads = ("graph", "pair", "model", "rate") + (
        ("policy", "init", "basis", "rates", "steps") if model == "dt" else ("time",))
    run = _read(args, reads, issues, f"--model {model}", policy="O2", init="equal",
                basis="coin", rate=0.0 if args.rates is None else None)
    g = parse_graph_spec(run["graph"])
    pair = _parse_pair(run["pair"], g.n, issues)
    if model == "dt":
        _check_source_ports(g, pair[0], issues)
        if run["basis"] not in ("coin", "position", "both"):
            issues.append(f"basis must be coin, position, or both, got {run['basis']!r}")
    rates = None
    if args.rates is not None:
        rates = _parse_list(args.rates, float, "rates", issues, "rate")
        if args.rate is not None:
            issues.append("give either --rate or --rates, not both")
    for r in [run["rate"]] if rates is None else rates:
        if not 0.0 <= r <= 1.0:
            issues.append(f"noise rate must lie in [0, 1], got {r}")
    if model == "ct" and run["time"] is None:
        issues.append("continuous model needs --time")
    elif model == "ct" and not run["time"] >= 0.0:
        issues.append(f"time must be non-negative, got {run['time']}")
    _raise_issues(issues)

    if model == "ct":
        start = np.zeros(g.n)
        start[pair[0]] = 1.0
        rho = decohere_ct(g, density_from_state(start), run["rate"], run["time"])
        probs = np.minimum(np.real(np.diag(rho)), 1.0)
        _emit(args, {"command": "decohere-ct", "provenance": run,
                     "vertex_probabilities": probs, "target_probability": probs[pair[1]]})
        return 0

    policy = parse_policy(run["policy"])
    space = ArcSpace.from_graph(g)
    psi0 = parse_init_spec(run["init"], space, pair[0])
    steps, basis = run["steps"], run["basis"]

    if rates is not None:
        probs = target_probability_vs_rate(
            g, policy, psi0, pair, np.asarray(rates), step=steps, basis=basis
        )
        _emit(args, {"command": "decohere-rates", "provenance": run, "rates": rates,
                     "target_probabilities": probs}, ["rate", "p_target"], rates, probs[:, None])
        return 0

    op = build_step_operator(g, policy)
    noise = NoiseModel(basis=basis, rate=run["rate"])
    check_table("decohere marginals", steps + 1, g.n)
    # a block sum of a density's diagonal can round a few ulps above 1
    marginals = np.minimum(np.stack([
        vertex_marginal(space, rho)
        for rho in density_steps(density_from_state(psi0), op, noise, steps)
    ]), 1.0)
    _emit(args, {"command": "decohere", "provenance": run, "final_distribution": marginals[-1],
                 "target_probability": marginals[-1][pair[1]]},
          ["step"] + [f"v{v}" for v in range(g.n)], range(steps + 1), marginals)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    issues: list[str] = []
    run = _read(args, ("base", "max_new", "policies", "samples", "steps", "lam", "seed",
                       "workers", "pst_only", "min_p"), issues, "search",
                workers=os.cpu_count() or 1)
    policies = [p.strip() for p in run["policies"].split(",") if p.strip()]
    if not policies:
        issues.append("policies list is empty")
    if run["workers"] < 1:
        issues.append(f"workers must be positive, got {run['workers']}")
    _raise_issues(issues)

    records = pst_search(run["base"], run["max_new"], policies, samples=run["samples"],
                         t_max=run["steps"], lam=run["lam"], seed=run["seed"],
                         sink_path=args.out, workers=run["workers"])
    shown = [rec.to_json() + "\n" for rec in records
             if (rec.pst or not run["pst_only"]) and rec.max_probability >= run["min_p"]]
    sys.stdout.writelines(shown)
    sink = f", sink {args.out}" if args.out else ""
    sys.stderr.write(f"search: {len(records)} records ({len(shown)} shown){sink}\n")
    return 0


def cmd_robust(args: argparse.Namespace) -> int:
    issues: list[str] = []
    kind = args.kind
    # only the random kind draws, so only it reads --runs and --seed
    run = _read(args, ("kind", "n", "step")
                + (("runs", "seed") if kind == "random" else ("magnitudes",)),
                issues, f"--kind {kind}")
    n_values = _parse_list(run["n"], int, "n", issues, "cycle size")
    mags = None
    if args.magnitudes is not None:
        mags = _parse_list(args.magnitudes, float, "magnitudes", issues)
        issues.extend(f"magnitudes must be finite, got {m}" for m in mags if not np.isfinite(m))
    if kind in ("defect", "phase") and not mags:
        issues.append(f"kind {kind!r} needs --magnitudes")
    _raise_issues(issues)

    payload = {"command": "robust", "provenance": run, "n_values": n_values}
    if kind == "random":
        probs = robustness_sweep(kind, n_values, runs=run["runs"], seed=run["seed"],
                                 step=run["step"])
        payload["mean_probabilities"] = probs
        _emit(args, payload, ["n", "mean_p"], n_values, probs[:, None])
    else:
        probs = robustness_sweep(kind, n_values, mags, step=run["step"])
        payload["magnitudes"] = mags
        payload["probabilities"] = dict(zip((f"n{n}" for n in n_values), probs))
        _emit(args, payload, ["magnitude"] + [f"p_n{n}" for n in n_values], mags, probs.T)
    return 0


def cmd_interp(args: argparse.Namespace) -> int:
    issues: list[str] = []
    grid = args.c_grid is not None
    run = _read(args, ("chain", "n", "step", "c_grid" if grid else "c_points"), issues,
                "interp with --c-grid")
    n_values = _parse_list(run["n"], int, "n", issues, "size")
    if grid:
        c_grid = _parse_list(run["c_grid"], float, "c-grid", issues, "coupling")
        issues.extend(f"coupling c must lie in [0, 1], got {c}" for c in c_grid
                      if not 0.0 <= c <= 1.0)
    _raise_issues(issues)
    if not grid:
        check_table("interp table", len(n_values), run["c_points"])
        c_grid = list(np.linspace(0.0, 1.0, run["c_points"]))

    probs = interpolation_sweep(run["chain"], n_values, c_grid, step=run["step"])
    _emit(args, {"command": "interp", "provenance": run, "n_values": n_values, "c_grid": c_grid,
                 "probabilities": dict(zip((f"n{n}" for n in n_values), probs))},
          ["c"] + [f"p_n{n}" for n in n_values], c_grid, probs.T)
    return 0


# ===== Parser wiring =====


def _option(p: argparse.ArgumentParser, key: str, text: str) -> None:
    """Add OPTIONS[key] as a typed flag whose help gives its default and range."""
    default, _, rule = OPTIONS[key]
    p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                   help=f"{text} (default {default}; must {rule})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, each declared once on a parent
    walk, track, seed, lam, step, out = (_Parser(add_help=False) for _ in range(6))
    walk.add_argument("--graph", required=True, help="graph spec string or file")
    walk.add_argument("--pair", default="0,1", help="source,target vertices")
    track.add_argument("--track", help="comma list of vertices for the CSV columns")
    _option(seed, "seed", "master seed of the Haar samples or random starts")
    _option(lam, "lam", "high-amplitude threshold")
    _option(step, "step", "readout step")
    out.add_argument("--out", help="output path stem; writes <out>.json, and <out>.csv for a series")

    p = sub.add_parser("graph", help="build a graph and print its JSON form")
    p.add_argument("spec", help='family string like "cycle n=6" or a JSON file path')
    p.add_argument("--out", help="write the JSON here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("dtqw", help="run a coined walk and report transfer",
                       parents=[walk, track, lam, out])
    p.add_argument("--policy", default="O2", help="O1, O2, O3, table1:<row>, or JSON map")
    p.add_argument("--init", default="equal", help='"equal", "haar:<count>[:<seed>]", or amplitudes')
    _option(p, "steps", "number of steps")
    p.set_defaults(func=cmd_dtqw)

    p = sub.add_parser("ctqw", help="run a continuous walk and report transfer",
                       parents=[walk, track, lam, out])
    _option(p, "tmax", "scan horizon")
    _option(p, "dt", "scan grid spacing, at most tmax")
    p.set_defaults(func=cmd_ctqw)

    p = sub.add_parser("decohere", help="evolve a dephasing walk", parents=[walk, out])
    p.add_argument("--model", choices=("dt", "ct"), default="dt")
    p.add_argument("--policy", help="dt model: coin policy as for dtqw (default O2)")
    p.add_argument("--init", help="dt model: initial state as for dtqw, one state (default equal)")
    p.add_argument("--basis", help="dt model: coin, position, or both (default coin)")
    p.add_argument("--rate", type=float, help="dephasing rate in [0, 1]")
    p.add_argument("--rates", help="dt model: comma list of rates for a fixed-step sweep")
    _option(p, "steps", "dt model: steps, or the sweep step")
    p.add_argument("--time", type=float, help="ct model: evolution time")
    p.add_argument("--dt", type=float,
                   help="no effect: the ct model is propagated exactly; accepted for old command lines")
    p.set_defaults(func=cmd_decohere)

    p = sub.add_parser("search", help="enumerate cycle variants and survey transfer",
                       parents=[seed, lam])
    p.add_argument("--base", type=int, default=4, help="even base cycle size")
    p.add_argument("--max-new", type=int, default=2, dest="max_new")
    p.add_argument("--policies", default="O1,O2,O3")
    _option(p, "samples", "Haar samples per cell")
    _option(p, "steps", "steps per cell")
    p.add_argument("--workers", type=int, help="parallel cells (default: all cores)")
    p.add_argument("--pst-only", action="store_true", help="print only exact-transfer records")
    _option(p, "min_p", "print only records at or above this probability")
    p.add_argument("--out", help="JSON-lines sink; existing records are not recomputed")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("robust", help="perturbed-start transfer sweeps on hub cycles",
                       parents=[seed, step, out])
    p.add_argument("--kind", required=True, choices=("defect", "phase", "random"))
    p.add_argument("--n", required=True, help="comma list of cycle sizes")
    p.add_argument("--magnitudes", help="comma list of delta or theta values")
    _option(p, "runs", "samples for kind=random")
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("interp", help="transfer vs coupling along a graph chain", parents=[step, out])
    p.add_argument("--chain", default="k2kn-k2cn", choices=INTERP_CHAINS)
    p.add_argument("--n", required=True, help="comma list of sizes")
    p.add_argument("--c-grid", dest="c_grid", help="explicit comma list of couplings")
    _option(p, "c_points", "uniform grid size on [0, 1] when --c-grid is absent")
    p.set_defaults(func=cmd_interp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except ToleranceError as exc:
        sys.stderr.write(f"tolerance breach: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
