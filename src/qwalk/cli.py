"""Command-line entry point exposing every workflow in the package.

Subcommands: graph, dtqw, ctqw, decohere, search, robust, interp.
Numeric options resolve from the command line, then an optional JSON
config file, then the defaults of the OPTIONS table, which also holds
the range each value must lie in.  The commands that draw random numbers
(dtqw, decohere, search, robust) take --seed, falling back to the config
file and then the QWALK_SEED environment variable.  Each report is a
JSON file, next to a CSV series where the command has one; reruns with
the same inputs produce byte-identical files.

Exit codes: 0 on success, 1 for configuration problems, 2 when a
numerical tolerance is breached during the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

import numpy as np

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


def parse_graph_spec(text: str) -> Graph:
    """Build a graph from a family string or a JSON file path.

    Family strings look like "cycle n=6", "join k2c n=5", or
    "diamond n=3 loops=ends".  Anything else is treated as a path to a
    graph JSON file.
    """
    text = text.strip()
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty graph spec")
    head = tokens[0].lower()
    kv = {}
    extras = []
    for tok in tokens[1:]:
        if "=" in tok:
            k, v = tok.split("=", 1)
            kv[k.lower()] = v
        else:
            extras.append(tok.lower())

    def need_n() -> int:
        if "n" not in kv:
            raise ConfigError(f"graph spec {text!r} needs n=<int>")
        try:
            return int(kv["n"])
        except ValueError as exc:
            raise ConfigError(f"graph spec n must be an integer, got {kv['n']!r}") from exc

    plain = {"cycle": Cycle, "complete": Complete, "path": Path, "edgeless": Edgeless}
    if head in plain or head == "diamond":
        if extras:
            raise ConfigError(f"unexpected token {extras[0]!r} in graph spec {text!r}")
    if head in plain:
        return build(plain[head](need_n()))
    if head == "join":
        kind = extras[0] if extras else None
        if kind not in JOIN_FAMILIES:
            raise ConfigError(
                f"join spec {text!r} must name k2c, k2k, or k2p before n=<int>"
            )
        return build(Join(Edgeless(2), JOIN_FAMILIES[kind](need_n())))
    if head == "diamond":
        loops = kv.get("loops", "none")
        if loops not in ("none", "ends"):
            raise ConfigError(f"diamond loops must be 'none' or 'ends', got {loops!r}")
        return build(DiamondChain(need_n(), loop_ends=loops == "ends"))
    if os.path.exists(text):
        with open(text) as fh:
            return graph_from_json(fh.read())
    raise ConfigError(f"unknown graph spec {text!r} (not a family string or file)")


def _parse_complex(token: str) -> complex:
    try:
        return complex(token.strip().replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"bad amplitude {token!r}") from exc


def parse_init_spec(text: str, space: ArcSpace, source: int, seed: int) -> np.ndarray:
    """Initial arc state of shape (n_arcs,) from a spec string.

    "equal" spreads the walker over the source ports, "haar:1" or
    "haar:1:<seed>" draws one Haar-random source coin state, and a
    comma-separated amplitude list (normalized here) places explicit
    port amplitudes at the source.  Only the dtqw scan takes haar specs
    of more than one state, and it reads them with _parse_haar_spec.
    """
    text = text.strip()
    if text == "equal":
        return equal_superposition(space, source)
    haar = _parse_haar_spec(text, seed)
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


def _parse_haar_spec(text: str, seed: int) -> tuple[int, int] | None:
    """(count, seed) of a "haar:<count>[:<seed>]" spec, None for other specs."""
    text = text.strip()
    if not text.startswith("haar:"):
        return None
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"haar spec {text!r} must be haar:<count>[:<seed>]")
    try:
        count, haar_seed = int(parts[1]), int(parts[2]) if len(parts) == 3 else seed
    except ValueError as exc:
        raise ConfigError(f"haar spec {text!r} has non-integer fields") from exc
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
    if 0 <= source < g.n and g.degree(source) == 0:
        issues.append(f"vertex {source} has no ports")


def _parse_list(text: str, kind: type, label: str, issues: list[str]) -> list:
    """Comma-separated values of kind (int or float); blank items are skipped."""
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        issues.append(f"{label} must be comma-separated {what}, got {text!r}")
        return []


def _parse_track(text: str | None, pair: tuple[int, int], n: int, issues: list[str]) -> list[int]:
    """Vertices of the CSV columns: the --track list, or the pair."""
    track = _parse_list(text, int, "track", issues) if text else list(pair)
    for v in track:
        if not 0 <= v < n:
            issues.append(f"tracked vertex {v} outside 0..{n - 1}")
    return track


# ===== Config merging and output helpers =====


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace, keys: Sequence[str], issues: list[str]) -> dict:
    """Resolve, convert and check the OPTIONS a command reads.

    Each value comes from the command line, then the config file (read
    once), then QWALK_SEED for the seed, then the table's default.  A
    value that fails its conversion or condition is appended to issues
    and reads the default, so later checks can go on.  So is every
    config key that names no option in the table.  A boolean is no
    number, and an integer option takes no fractional number.
    """
    file_cfg = _load_config_file(getattr(args, "config", None))
    issues.extend(f"config key {k!r} names no option" for k in file_cfg if k not in OPTIONS)
    out = {}
    for key in keys:
        default, ok, rule = OPTIONS[key]
        val = getattr(args, key, None)
        if val is None:
            env = os.environ.get("QWALK_SEED") if key == "seed" else None
            val = file_cfg.get(key, default if env is None else env)
        try:
            if isinstance(val, bool) or (
                isinstance(default, int) and isinstance(val, float) and not val.is_integer()
            ):
                raise TypeError
            val = type(default)(val)
        except (TypeError, ValueError):
            what = "an integer" if isinstance(default, int) else "a number"
            issues.append(f"{key} must be {what}, got {val!r}")
            val = default
        if not ok(val):
            issues.append(f"{key} must {rule}, got {val}")
            val = default
        out[key] = val
    return out


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


def _raise_issues(issues: list[str]) -> None:
    if issues:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(issues))


# ===== Subcommand implementations =====


def cmd_graph(args: argparse.Namespace) -> int:
    g = parse_graph_spec(args.spec)
    _write(args.out, graph_to_json(g) + "\n")
    return 0


def cmd_dtqw(args: argparse.Namespace) -> int:
    issues: list[str] = []
    cfg = _resolve(args, ["steps", "lam", "seed"], issues)
    steps, lam, seed = cfg["steps"], cfg["lam"], cfg["seed"]
    g = parse_graph_spec(args.graph)
    pair = _parse_pair(args.pair, g.n, issues)
    track = _parse_track(args.track, pair, g.n, issues)
    _check_source_ports(g, pair[0], issues)
    _raise_issues(issues)

    policy = parse_policy(args.policy)
    haar = _parse_haar_spec(args.init, seed)

    if haar is not None and haar[0] > 1:
        samples, scan_seed = haar
        scan = max_transfer_scan(
            g, policy, pair, samples=samples, t_max=steps, seed=scan_seed, lam=lam
        )
        payload = {
            "command": "dtqw-scan",
            "graph": args.graph,
            "policy": args.policy,
            "pair": list(pair),
            "seed": seed,
            "max_probability": scan.max_probability,
            "best_step": scan.best_step,
            "fraction_over_lam": scan.fraction_over_lam,
            "lam": lam,
            "samples": samples,
            "t_max": steps,
        }
        _emit(args, payload)
        return 0

    psi0 = parse_init_spec(args.init, ArcSpace.from_graph(g), pair[0], seed)
    report = detect_transfer(g, policy, psi0, pair, t_max=steps, lam=lam)
    payload = {
        "command": "dtqw",
        "graph": args.graph,
        "policy": args.policy,
        "init": args.init,
        "pair": list(pair),
        "seed": seed,
        "report": report.to_json_dict(),
    }
    _emit(args, payload, ["step"] + [f"v{v}" for v in track],
          range(steps + 1), report.vertex_series[:, track])
    return 0


def cmd_ctqw(args: argparse.Namespace) -> int:
    issues: list[str] = []
    cfg = _resolve(args, ["tmax", "dt", "lam"], issues)
    tmax, dt, lam = cfg["tmax"], cfg["dt"], cfg["lam"]
    if dt > tmax:
        issues.append(f"dt must not exceed tmax ({tmax}), got {dt}")
    g = parse_graph_spec(args.graph)
    pair = _parse_pair(args.pair, g.n, issues)
    track = _parse_track(args.track, pair, g.n, issues)
    _raise_issues(issues)

    report = detect_transfer_ct(g, pair, t_max=tmax, dt=dt, lam=lam)
    payload = {
        "command": "ctqw",
        "graph": args.graph,
        "pair": list(pair),
        "tmax": tmax,
        "dt": dt,
        "report": report.to_json_dict(),
    }
    _emit(args, payload, ["t"] + [f"v{v}" for v in track],
          report.times, report.vertex_series[:, track])
    return 0


def cmd_decohere(args: argparse.Namespace) -> int:
    issues: list[str] = []
    model = args.model
    unread = ("rates", "policy", "init", "basis", "steps") if model == "ct" else ("time",)
    issues.extend(f"--{k} is not read by --model {model}" for k in unread
                  if getattr(args, k) is not None)
    cfg = _resolve(args, ["steps", "seed"] if model == "dt" else [], issues)
    g = parse_graph_spec(args.graph)
    pair = _parse_pair(args.pair, g.n, issues)
    if model == "dt":
        _check_source_ports(g, pair[0], issues)
    basis = "coin" if args.basis is None else args.basis
    if basis not in ("coin", "position", "both"):
        issues.append(f"basis must be coin, position, or both, got {basis!r}")
    rates = None
    if args.rates is not None:
        rates = _parse_list(args.rates, float, "rates", issues)
        if not rates:
            issues.append("need at least one rate in --rates")
        if args.rate is not None:
            issues.append("give either --rate or --rates, not both")
    rate = args.rate if args.rate is not None else 0.0
    for r in [rate] if rates is None else rates:
        if not 0.0 <= r <= 1.0:
            issues.append(f"noise rate must lie in [0, 1], got {r}")
    if model == "ct" and args.time is None:
        issues.append("continuous model needs --time")
    elif model == "ct" and not args.time >= 0.0:
        issues.append(f"time must be non-negative, got {args.time}")
    _raise_issues(issues)

    if model == "ct":
        rho = decohere_ct(g, density_from_state(np.eye(g.n)[pair[0]]), rate, args.time)
        payload = {
            "command": "decohere-ct",
            "graph": args.graph,
            "rate": rate,
            "time": args.time,
            "vertex_probabilities": np.real(np.diag(rho)),
            "target_probability": np.real(rho[pair[1], pair[1]]),
        }
        _emit(args, payload)
        return 0

    policy_text = "O2" if args.policy is None else args.policy
    policy = parse_policy(policy_text)
    space = ArcSpace.from_graph(g)
    init = "equal" if args.init is None else args.init
    psi0 = parse_init_spec(init, space, pair[0], cfg["seed"])
    steps = cfg["steps"]

    if rates is not None:
        probs = target_probability_vs_rate(
            g, policy, psi0, pair, np.asarray(rates), step=steps, basis=basis
        )
        payload = {
            "command": "decohere-rates",
            "graph": args.graph,
            "policy": policy_text,
            "basis": basis,
            "step": steps,
            "rates": rates,
            "target_probabilities": probs,
        }
        _emit(args, payload, ["rate", "p_target"], rates, probs[:, None])
        return 0

    op = build_step_operator(g, policy)
    noise = NoiseModel(basis=basis, rate=rate)
    check_table("decohere marginals", steps + 1, g.n)
    # a block sum of a density's diagonal can round a few ulps above 1
    marginals = np.minimum(np.stack([
        vertex_marginal(space, rho)
        for rho in density_steps(density_from_state(psi0), op, noise, steps)
    ]), 1.0)
    payload = {
        "command": "decohere",
        "graph": args.graph,
        "policy": policy_text,
        "basis": basis,
        "rate": rate,
        "steps": steps,
        "final_distribution": marginals[-1],
        "target_probability": marginals[-1][pair[1]],
    }
    _emit(args, payload, ["step"] + [f"v{v}" for v in range(g.n)], range(steps + 1), marginals)
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    issues: list[str] = []
    cfg = _resolve(args, ["samples", "steps", "lam", "seed"], issues)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        issues.append("policies list is empty")
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    if workers < 1:
        issues.append(f"workers must be positive, got {workers}")
    _raise_issues(issues)

    sink = args.out
    records = pst_search(
        args.base,
        args.max_new,
        policies=policies,
        samples=cfg["samples"],
        t_max=cfg["steps"],
        lam=cfg["lam"],
        seed=cfg["seed"],
        sink_path=sink,
        workers=workers,
    )
    shown = 0
    for rec in records:
        if args.pst_only and not rec.pst:
            continue
        if rec.best_p < args.min_p:
            continue
        sys.stdout.write(rec.to_json() + "\n")
        shown += 1
    sys.stderr.write(
        f"search: {len(records)} records ({shown} shown)"
        + (f", sink {sink}" if sink else "")
        + "\n"
    )
    return 0


def cmd_robust(args: argparse.Namespace) -> int:
    issues: list[str] = []
    cfg = _resolve(args, ["runs", "step", "seed"], issues)
    runs, seed = cfg["runs"], cfg["seed"]
    kind = args.kind
    unread = ("magnitudes",) if kind == "random" else ("runs", "seed")
    issues.extend(f"--{k} is not read by --kind {kind}" for k in unread
                  if getattr(args, k) is not None)
    n_values = _parse_list(args.n, int, "n", issues)
    if not n_values:
        issues.append("need at least one cycle size in --n")
    mags = None
    if args.magnitudes is not None:
        mags = _parse_list(args.magnitudes, float, "magnitudes", issues)
        issues.extend(f"magnitudes must be finite, got {m}" for m in mags if not np.isfinite(m))
    if kind in ("defect", "phase") and not mags:
        issues.append(f"kind {kind!r} needs --magnitudes")
    _raise_issues(issues)

    probs = robustness_sweep(kind, n_values, mags, runs=runs, seed=seed, step=cfg["step"])
    payload = {
        "command": "robust",
        "kind": kind,
        "n_values": n_values,
        "step": cfg["step"],
        "seed": seed,
    }
    if kind == "random":
        payload["runs"] = runs
        payload["mean_probabilities"] = probs
        _emit(args, payload, ["n", "mean_p"], n_values, probs[:, None])
    else:
        payload["magnitudes"] = mags
        payload["probabilities"] = dict(zip((f"n{n}" for n in n_values), probs))
        _emit(args, payload, ["magnitude"] + [f"p_n{n}" for n in n_values], mags, probs.T)
    return 0


def cmd_interp(args: argparse.Namespace) -> int:
    issues: list[str] = []
    cfg = _resolve(args, ["step", "c_points"], issues)
    n_values = _parse_list(args.n, int, "n", issues)
    if not n_values:
        issues.append("need at least one size in --n")
    if args.c_grid is not None:
        if args.c_points is not None:
            issues.append("--c-points is not read by interp with --c-grid")
        c_grid = _parse_list(args.c_grid, float, "c-grid", issues)
        if not c_grid:
            issues.append("need at least one coupling in --c-grid")
        issues.extend(f"coupling c must lie in [0, 1], got {c}" for c in c_grid
                      if not 0.0 <= c <= 1.0)
    _raise_issues(issues)
    if args.c_grid is None:
        check_table("interp table", len(n_values), cfg["c_points"])
        c_grid = list(np.linspace(0.0, 1.0, cfg["c_points"]))

    probs = interpolation_sweep(args.chain, n_values, c_grid, step=cfg["step"])
    payload = {
        "command": "interp",
        "chain": args.chain,
        "n_values": n_values,
        "step": cfg["step"],
        "c_grid": c_grid,
        "probabilities": dict(zip((f"n{n}" for n in n_values), probs)),
    }
    _emit(args, payload, ["c"] + [f"p_n{n}" for n in n_values], c_grid, probs.T)
    return 0


# ===== Parser wiring =====


def _option(p: argparse.ArgumentParser, key: str, text: str) -> None:
    """Add OPTIONS[key] as a typed flag whose help gives its default and range."""
    default, _, rule = OPTIONS[key]
    p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                   help=f"{text} (default {default}; must {rule})")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default option values")
    _option(p, "seed", "master seed, else from the config file, then QWALK_SEED")
    p.add_argument("--out", help="output path stem; writes <out>.json, and <out>.csv for a series")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build a graph and print its JSON form")
    p.add_argument("spec", help='family string like "cycle n=6" or a JSON file path')
    p.add_argument("--out", help="write the JSON here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("dtqw", help="run a coined walk and report transfer")
    p.add_argument("--graph", required=True, help="graph spec string or file")
    p.add_argument("--policy", default="O2", help="O1, O2, O3, table1:<row>, or JSON map")
    p.add_argument("--init", default="equal", help='"equal", "haar:<count>[:<seed>]", or amplitudes')
    p.add_argument("--pair", default="0,1", help="source,target vertices")
    _option(p, "steps", "number of steps")
    _option(p, "lam", "high-amplitude threshold")
    p.add_argument("--track", help="comma list of vertices for the CSV columns")
    _add_common(p)
    p.set_defaults(func=cmd_dtqw)

    p = sub.add_parser("ctqw", help="run a continuous walk and report transfer")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", default="0,1")
    _option(p, "tmax", "scan horizon")
    _option(p, "dt", "scan grid spacing, at most tmax")
    _option(p, "lam", "high-amplitude threshold")
    p.add_argument("--track", help="comma list of vertices for the CSV columns")
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--out", help="output path stem; writes <out>.csv and <out>.json")
    p.set_defaults(func=cmd_ctqw)

    p = sub.add_parser("decohere", help="evolve a dephasing walk")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", choices=("dt", "ct"), default="dt")
    p.add_argument("--policy", help="dt model: coin policy as for dtqw (default O2)")
    p.add_argument("--init", help="dt model: initial state as for dtqw, one state (default equal)")
    p.add_argument("--pair", default="0,1")
    p.add_argument("--basis", help="dt model: coin, position, or both (default coin)")
    p.add_argument("--rate", type=float, help="dephasing rate in [0, 1]")
    p.add_argument("--rates", help="dt model: comma list of rates for a fixed-step sweep")
    _option(p, "steps", "dt model: steps, or the sweep step")
    p.add_argument("--time", type=float, help="ct model: evolution time")
    p.add_argument("--dt", type=float,
                   help="no effect: the ct model is propagated exactly; accepted for old command lines")
    _add_common(p)
    p.set_defaults(func=cmd_decohere)

    p = sub.add_parser("search", help="enumerate cycle variants and survey transfer")
    p.add_argument("--base", type=int, default=4, help="even base cycle size")
    p.add_argument("--max-new", type=int, default=2, dest="max_new")
    p.add_argument("--policies", default="O1,O2,O3")
    _option(p, "samples", "Haar samples per cell")
    _option(p, "steps", "steps per cell")
    _option(p, "lam", "high-amplitude threshold")
    p.add_argument("--workers", type=int, help="parallel cells (default: all cores)")
    p.add_argument("--pst-only", action="store_true", help="print only exact-transfer records")
    p.add_argument("--min-p", type=float, default=0.0,
                   help="print only records at or above this probability")
    p.add_argument("--config", help="JSON file with default option values")
    _option(p, "seed", "master seed, else from the config file, then QWALK_SEED")
    p.add_argument("--out", help="JSON-lines sink; existing records are not recomputed")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("robust", help="perturbed-start transfer sweeps on hub cycles")
    p.add_argument("--kind", required=True, choices=("defect", "phase", "random"))
    p.add_argument("--n", required=True, help="comma list of cycle sizes")
    p.add_argument("--magnitudes", help="comma list of delta or theta values")
    _option(p, "runs", "samples for kind=random")
    _option(p, "step", "readout step")
    _add_common(p)
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("interp", help="transfer vs coupling along a graph chain")
    p.add_argument("--chain", default="k2kn-k2cn", choices=INTERP_CHAINS)
    p.add_argument("--n", required=True, help="comma list of sizes")
    p.add_argument("--c-grid", dest="c_grid", help="explicit comma list of couplings")
    _option(p, "c_points", "uniform grid size on [0, 1] when --c-grid is absent")
    _option(p, "step", "readout step")
    p.add_argument("--out", help="output path stem; writes <out>.csv and <out>.json")
    p.set_defaults(func=cmd_interp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except ToleranceError as exc:
        sys.stderr.write(f"tolerance breach: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
