"""The benchmark's workloads: inputs made from the seed, timed jobs, output checks.

Every job drives qwalk through a public entry point, ``qwalk.cli.main``
or a public library function, looked up on its module at call time so
that a traced pass reaches the wrappers.  A job's ``run`` is the timed
part; ``check`` runs afterwards, untimed and untraced, and returns the
job's failures and the SHA-256 digest of each output.

The seed reaches the program only as ``--seed``, as the seed field of a
``haar:K:SEED`` initial state, or, for ``catalog``, as the vertex
relabelling applied to the key inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import numpy as np

import qwalk.cli
import qwalk.explorer
import qwalk.graphs

SURVEY_CELLS = 288  # 96 variants of C4 with up to 2 new nodes, times 3 policies
CATALOG_VARIANTS = 1097  # enumerate_variants(6, 2) keeps 1,097 of 4,095 candidates
INVARIANCE_SAMPLE = 16  # catalog variants re-keyed under a random relabelling
PROB_TOL = 1e-9
# JSON fields whose numbers are all probabilities or fractions in [0, 1]
PROB_KEYS = {
    "best_p",
    "frac_over_lambda",
    "final_distribution",
    "fraction_over_lam",
    "max_probability",
    "mean_probabilities",
    "probabilities",
    "source_series",
    "target_probabilities",
    "target_probability",
    "target_series",
    "vertex_probabilities",
}


class Job:
    """One timed operation of a pass.

    ``group`` names the command family the job's time is summed into,
    and ``cells`` counts the work units its rate metric divides by.
    """

    def __init__(self, name, group, run, check, cells=0):
        self.name = name
        self.group = group
        self.run = run
        self.check = check
        self.cells = cells


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _bad_probabilities(values, label: str) -> list[str]:
    bad = [v for v in values if not 0.0 <= v <= 1.0 + PROB_TOL]
    return [f"{label}: {len(bad)} probabilities outside [0, 1+{PROB_TOL:g}], e.g. {bad[0]!r}"] if bad else []


def _json_probabilities(node, inside=False):
    """Every number stored under a PROB_KEYS field, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_probabilities(value, inside or key in PROB_KEYS)
    elif isinstance(node, list):
        for value in node:
            yield from _json_probabilities(value, inside)
    elif inside and isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)


def _check_json_text(text: str, label: str) -> list[str]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{label}: JSON does not parse ({exc})"]
    return _bad_probabilities(list(_json_probabilities(data)), label)


def _check_csv_text(text: str, label: str, rows: int) -> list[str]:
    """Header plus ``rows`` numeric rows; every column after the first is a probability."""
    lines = text.splitlines()
    if len(lines) - 1 != rows:
        return [f"{label}: {len(lines) - 1} data rows, expected {rows}"]
    try:
        values = [float(cell) for line in lines[1:] for cell in line.split(",")[1:]]
    except ValueError as exc:
        return [f"{label}: non-numeric cell ({exc})"]
    return _bad_probabilities(values, label)


# ===== walks =====


def _cli_job(name, group, argv, stem, files):
    """A ``qwalk`` command writing ``<stem><suffix>`` for each suffix in ``files``.

    ``files`` maps a suffix to the expected CSV data-row count, or to
    None for a JSON report.
    """

    def check(rc):
        failures = [] if rc == 0 else [f"exit code {rc}"]
        digests = {}
        for suffix, rows in files.items():
            label = name + suffix
            try:
                with open(stem + suffix, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                failures.append(f"{label}: missing ({exc})")
                continue
            digests[label] = sha256(data)
            text = data.decode()
            if rows is None:
                failures += _check_json_text(text, label)
            else:
                failures += _check_csv_text(text, label, rows)
        return failures, digests

    return Job(name, group, lambda: qwalk.cli.main(argv + ["--out", stem]), check)


def _walks(seed: int, pass_index: int, workdir: str, traced: bool) -> list[Job]:
    rates = ",".join(f"{i / 20:g}" for i in range(21))
    magnitudes = ",".join(repr(math.pi * j / 31) for j in range(32))
    k2c36 = ["--graph", "join k2c n=36"]
    specs = [
        ("dtqw_long", "dtqw", ["dtqw", *k2c36, "--steps", "2000"], {".csv": 2001, ".json": None}),
        ("dtqw_haar", "dtqw", ["dtqw", *k2c36, "--init", f"haar:1500:{seed}", "--steps", "100"],
         {".json": None}),
        ("ctqw_c8", "ctqw", ["ctqw", "--graph", "cycle n=8", "--pair", "0,4", "--tmax", "400", "--dt", "0.01"],
         {".csv": 40001, ".json": None}),
        ("ctqw_k2k9", "ctqw", ["ctqw", "--graph", "join k2k n=9", "--tmax", "100"],
         {".csv": 10001, ".json": None}),
        *(
            (f"decohere_{basis}", "decohere",
             ["decohere", *k2c36, "--rate", "0.1", "--steps", "100", "--basis", basis],
             {".csv": 101, ".json": None})
            for basis in ("coin", "position", "both")
        ),
        ("decohere_rates", "decohere",
         ["decohere", "--graph", "join k2c n=8", "--rates", rates, "--steps", "50"],
         {".csv": 21, ".json": None}),
        ("decohere_ct", "decohere",
         ["decohere", "--model", "ct", "--graph", "join k2c n=5", "--rate", "0.1", "--time", "10",
          "--dt", "0.001"],
         {".json": None}),
        ("interp", "sweep", ["interp", "--n", ",".join(map(str, range(3, 21))), "--c-points", "21"],
         {".csv": 21, ".json": None}),
        ("robust_random", "sweep",
         ["robust", "--kind", "random", "--n", ",".join(map(str, range(3, 37))), "--runs", "1000",
          "--seed", str(seed)],
         {".csv": 34, ".json": None}),
        ("robust_phase", "sweep",
         ["robust", "--kind", "phase", "--n", "3,8,16,36", "--magnitudes", magnitudes],
         {".csv": 32, ".json": None}),
    ]
    return [
        _cli_job(name, group, argv, os.path.join(workdir, name), files)
        for name, group, argv, files in specs
    ]


# ===== survey =====


def _search_job(workers: int, seed: int, workdir: str) -> Job:
    name = f"search_w{workers}"
    sink = os.path.join(workdir, name + ".jsonl")
    argv = ["search", "--base", "4", "--max-new", "2", "--policies", "O1,O2,O3", "--samples", "1500",
            "--steps", "60", "--workers", str(workers), "--seed", str(seed), "--out", sink]

    def run():
        # an existing sink would make search skip every finished cell
        with contextlib.suppress(FileNotFoundError):
            os.remove(sink)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qwalk.cli.main(argv)
        return rc, out.getvalue()

    def check(result):
        rc, stdout = result
        failures = [] if rc == 0 else [f"exit code {rc}"]
        try:
            with open(sink, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return failures + [f"{name}.jsonl: missing ({exc})"], {}
        digests = {f"{name}.jsonl": sha256(data), f"{name}.stdout": sha256(stdout.encode())}
        for label, text in ((f"{name}.jsonl", data.decode()), (f"{name}.stdout", stdout)):
            lines = text.splitlines()
            if len(lines) != SURVEY_CELLS:
                failures.append(f"{label}: {len(lines)} records, expected {SURVEY_CELLS}")
            for line in lines:
                failures += _check_json_text(line, label)
        return failures, digests

    return Job(name, "search", run, check, cells=SURVEY_CELLS)


def _survey(seed: int, pass_index: int, workdir: str, traced: bool) -> list[Job]:
    # a traced pass stays in-process, so it runs the 1-worker search only
    return [_search_job(w, seed, workdir) for w in ((1,) if traced else (1, 2))]


def cross_check(workload: str, workdir: str) -> list[str]:
    """Checks across a pass's jobs: pst_search promises the same records for any worker count."""
    if workload != "survey":
        return []
    record_sets = []
    for name in sorted(os.listdir(workdir)):
        if name.startswith("search_w") and name.endswith(".jsonl"):
            with open(os.path.join(workdir, name), "rb") as fh:
                record_sets.append(sorted(fh.read().splitlines()))
    if any(records != record_sets[0] for records in record_sets[1:]):
        return ["1-worker and 2-worker record sets differ"]
    return []


# ===== catalog =====


def _relabelled(g, marks, rng: random.Random):
    """``g`` with its vertices permuted at random, and the marks carried along."""
    perm = list(range(g.n))
    rng.shuffle(perm)  # vertex v of g becomes vertex perm[v]
    inv = np.argsort(perm)
    return qwalk.graphs.Graph(g.adjacency[np.ix_(inv, inv)]), tuple(perm[v] for v in marks)


def _catalog(seed: int, pass_index: int, workdir: str, traced: bool) -> list[Job]:
    # Each pass draws its own relabelling; keys must not depend on it, so
    # their digests must agree across passes.
    rng = random.Random(f"{seed}:{pass_index}")
    k29, k29_marks = _relabelled(
        qwalk.graphs.build(qwalk.graphs.Join(qwalk.graphs.Edgeless(2), qwalk.graphs.Edgeless(9))),
        (0, 1), rng)
    c16, c16_marks = _relabelled(qwalk.graphs.build(qwalk.graphs.Cycle(16)), (0, 8), rng)
    check_rng = random.Random(rng.random())

    def check_variants(variants):
        failures = []
        if len(variants) != CATALOG_VARIANTS:
            failures.append(f"{len(variants)} variants, expected {CATALOG_VARIANTS}")
        listing = json.dumps([desc.to_json_dict() for desc, _ in variants]).encode()
        for desc, g in check_rng.sample(variants, min(INVARIANCE_SAMPLE, len(variants))):
            marks = (0, desc.base // 2)
            moved, moved_marks = _relabelled(g, marks, check_rng)
            if qwalk.graphs.canonical_key(moved, moved_marks) != qwalk.graphs.canonical_key(g, marks):
                failures.append(f"key of {desc.to_json_dict()} changed under relabelling")
        return failures, {"variants": sha256(listing)}

    def key_job(name, g, marks):
        def check(key):
            if not isinstance(key, bytes) or not key:
                return [f"{name}: key is not a non-empty byte string"], {}
            return [], {name: sha256(key)}

        return Job(name, "key", lambda: qwalk.graphs.canonical_key(g, marks), check)

    return [
        Job("enumerate", "enumerate", lambda: list(qwalk.explorer.enumerate_variants(6, 2)),
            check_variants, cells=CATALOG_VARIANTS),
        key_job("key_k2_9", k29, k29_marks),
        key_job("key_c16", c16, c16_marks),
    ]


PLANS = {"survey": _survey, "catalog": _catalog, "walks": _walks}


def plan(workload: str, seed: int, pass_index: int, workdir: str, traced: bool) -> list[Job]:
    # numpy seeds must be non-negative; any benchmark seed maps to one
    return PLANS[workload](seed % 2**31, pass_index, workdir, traced)
