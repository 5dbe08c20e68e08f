"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout with the sources under ``src/``;
nothing needs to be installed or built.  Each pass of the workload runs
in a fresh interpreter (perfbench/one_pass.py) with PYTHONPATH=src and
OpenBLAS/OpenMP pinned to one thread.  Passes repeat until ``--seconds``
have gone by; a job's time is its median over the passes.

With ``--trace 0`` the run first starts several interpreters that only
import ``qwalk.cli`` and build the pass's inputs (``setup_s``), then runs
untraced passes and reports the end-to-end metrics.  With ``--trace 1``
it alternates an untraced pass with a traced one and reports the
per-layer metrics; the traced survey pass runs the 1-worker search only.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, where the metrics are the
ones BENCHMARK.json lists for the mode.  The lines before it record the
environment, a SHA-256 digest of every output, the workload's own
metrics and every failure.  perfbench/README.md defines each metric.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("survey", "catalog", "walks")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0  # the whole run, set-up included, ends well inside 180 s
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CMD_GROUPS = ("dtqw", "ctqw", "decohere", "sweep")


class Run:
    """One benchmark invocation: the child passes it started and their reports."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.crashed = 0  # passes that produced no report

    def child(self, mode: str, pass_index: int):
        """Run one_pass.py; return (seconds until ``ready``, report or None)."""
        workdir = WORK / f"{self.workload}-{os.getpid()}-{mode}-{pass_index}"
        cmd = [sys.executable, str(ROOT / "perfbench" / "one_pass.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--pass-index", str(pass_index), "--workdir", str(workdir), "--mode", mode]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env,
                                cwd=ROOT, start_new_session=True)
        try:
            if not select.select([proc.stdout], [], [], self._left())[0]:
                raise subprocess.TimeoutExpired(cmd, self._left())
            ready = proc.stdout.readline().strip() == "ready"
            ready_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            kill_group(proc)
            return None, None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or not ready:
            return None, None
        if mode == "setup":
            return ready_s, None
        try:
            return ready_s, json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return ready_s, None

    def _left(self) -> float:
        return max(0.1, self.deadline - time.perf_counter())

    def passes(self, seconds: float, modes: tuple[str, ...]) -> list[dict]:
        """Repeat the modes in turn until ``seconds`` have passed; keep each report."""
        reports: list[dict] = []
        start, index, last = time.perf_counter(), 0, 0.0
        while index == 0 or (
            time.perf_counter() - start < seconds
            and time.perf_counter() + last < self.deadline
        ):
            began = time.perf_counter()
            for mode in modes:
                _, report = self.child(mode, index)
                if report is None:
                    self.crashed += 1
                else:
                    reports.append(dict(report, mode=mode, index=index))
            last = time.perf_counter() - began
            index += 1
        return reports


def kill_group(proc: subprocess.Popen) -> None:
    """Kill a child and any pool workers it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


# ===== metrics =====


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def untraced_metrics(reports: list[dict]) -> dict[str, float]:
    """End-to-end and workload metrics from each job's median time over the passes."""
    jobs: dict[str, dict] = {}
    times: dict[str, list] = {}
    for report in reports:
        for job in report["jobs"]:
            jobs.setdefault(job["name"], job)
            times.setdefault(job["name"], []).append(job["seconds"])
    seconds = {name: median(values) for name, values in times.items()}
    out = {
        "wall_s": sum(seconds.values()),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reports),
    }
    for name, job in jobs.items():
        rate = job["cells"] / seconds[name] if job["cells"] else None
        if name == "search_w2":
            out["cells_per_s"] = rate
        elif name == "search_w1":
            out["cells_per_s_serial"] = rate
        elif name == "enumerate":
            out["variants_per_s"] = rate
        elif job["group"] == "key":
            out["key_max_s"] = max(out.get("key_max_s", 0.0), seconds[name])
        elif job["group"] in CMD_GROUPS:
            metric = f"cmd.{job['group']}_s"
            out[metric] = out.get(metric, 0.0) + seconds[name]
    return out


def median_by_name(dicts: list[dict]) -> dict[str, float]:
    names = sorted({name for d in dicts for name in d})
    return {name: median(d[name] for d in dicts if name in d) for name in names}


def trace_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: the traced passes' spans plus the untraced workload metrics."""
    out = untraced_metrics(plain)
    out.update(median_by_name([r["trace"] for r in traced]))
    out["cli.out_bytes"] = median(r["out_bytes"] for r in traced)
    out["cli.out_files"] = median(r["out_files"] for r in traced)
    by_index = {r["index"]: r for r in plain}
    overheads = []
    for r in traced:
        base = {job["name"]: job["seconds"] for job in by_index.get(r["index"], {}).get("jobs", [])}
        if all(job["name"] in base for job in r["jobs"]):
            overheads.append(sum(job["seconds"] - base[job["name"]] for job in r["jobs"]))
    out["trace.overhead_s"] = median(overheads)
    return out


def audit(reports: list[dict]) -> list[str]:
    """Digest comparison: every pass, traced or not, must reproduce pass 0's outputs."""
    reference: dict[str, dict] = {}
    for r in sorted(reports, key=lambda r: (r["index"], r["mode"] != "plain")):
        for job in r["jobs"]:
            ref = reference.setdefault(job["name"], job["digests"])
            changed = sorted(k for k in ref if job["digests"].get(k, ref[k]) != ref[k])
            if changed:
                job["failures"].append(f"digests differ from the first pass: {', '.join(changed)}")
    return [
        f"pass {r['index']} ({r['mode']}) {job['name']}: {failure}"
        for r in reports for job in r["jobs"] for failure in job["failures"]
    ]


def environment(seed: int, child_env: dict) -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **child_env,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ[name] for name in THREAD_PINS},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qwalk" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no qwalk sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.workload, args.seed, time.perf_counter() + DEADLINE_S)

    if args.trace:
        reports = run.passes(args.seconds, ("plain", "traced"))
        plain = [r for r in reports if r["mode"] == "plain"]
        traced = [r for r in reports if r["mode"] == "traced"]
        listed = spec["per_layer"]
    else:
        setup = [run.child("setup", 0)[0] for _ in range(SETUP_SAMPLES)]
        run.crashed += sum(s is None for s in setup)
        reports = plain = run.passes(args.seconds, ("plain",))
        traced = []
        listed = spec["end_to_end"]
    if not plain or (args.trace and not traced):
        sys.stderr.write("perfbench: no pass completed\n")
        return 1

    failures = audit(reports)
    if args.trace:
        values = trace_metrics(plain, traced)
    else:
        values = untraced_metrics(plain)
        values["setup_s"] = median(s for s in setup if s is not None)
    attempted = sum(len(r["jobs"]) for r in reports) + run.crashed
    failed = sum(bool(job["failures"]) for r in reports for job in r["jobs"]) + run.crashed

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(plain)}" + (f"+{len(traced)} traced" if traced else ""))
    print("env " + json.dumps(environment(args.seed, plain[0]["env"]), sort_keys=True))
    for job in plain[0]["jobs"]:
        for label, digest in sorted(job["digests"].items()):
            print(f"sha256 {label} {digest}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in sorted(values.items()):
        if name in units:
            print(f"metric {name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for line in failures + [f"{run.crashed} pass(es) crashed or timed out"] * bool(run.crashed):
        print("failure " + line)

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
