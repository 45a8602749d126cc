"""Benchmark of the ybe command-line tool, as a user runs it.

Usage, from the repository root:

    python3 ybebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is a fresh interpreter running ``-m ybe.cli ...`` with ``src/`` on
PYTHONPATH (or the census script beside this file).  Jobs run one after
another from this process: a closed loop with one client.  Inputs are
generated from --seed; every job's stdout is checked.  One JSON row per job
(wall, peak RSS, exit code, checked invariant) and one row describing the run
are printed, then, as the last line, the result object.

Jobs are repeated round-robin for --seconds seconds: every job runs once, and
again while its last run still fits in the time left.  A job's wall time is
the fastest of its runs: on a shared host, other tenants only ever slow a run
down, often by a third or more for seconds to minutes at a time, and the
fastest run is the one they disturbed least.

--trace 0 reports the end-to-end metrics:
  setup_s        median over SETUP_REPEATS of a child that imports ybe.cli
  wall_s         sum over the jobs of their wall time (one pass)
  largest_job_s  wall time of the workload's largest input
  peak_rss_mb    largest per-job median of the child's own ru_maxrss

--trace 1 runs every job twice per round, untraced and through traced.py,
and reports the per-layer metrics named in BENCHMARK.json, summed over the
jobs (each a per-job median), plus trace.overhead_s: the traced minus the
untraced wall time.  A layer's time is the union of its spans, so it
includes the layers it calls; cli.self_s is the job's traced wall time minus
its outermost spans (start-up, import, parsing and output).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
JOB_TIMEOUT_S = 150

if not (SRC / "ybe" / "cli.py").is_file():
    sys.exit(f"{Path(__file__).name}: no ybe sources under {SRC}; run from a repository checkout")
sys.path[:0] = [str(SRC), str(BENCH)]

from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """A launcher.py child that starts the jobs and reports their resources.

    Jobs are reaped with ``os.wait4`` in the launcher, a small process, so a
    job's ru_maxrss is its own: neither mixed with earlier children, as in
    RUSAGE_CHILDREN, nor raised to this process's peak, which a child
    inherits across fork and exec.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, out_path: Path) -> tuple[float, float, int]:
        """Run the interpreter on ``argv`` with stdout to ``out_path``;
        return (wall seconds, peak RSS in MB, exit code)."""
        request = {"argv": list(argv), "stdout": str(out_path), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher stopped")
        reply = json.loads(reply)
        return reply["wall"], reply["maxrss_kb"] / 1024, reply["exit"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs and checks jobs inside one working directory of the checkout."""

    def __init__(self, workdir: Path, launcher: Launcher):
        self.workdir = workdir
        self.launcher = launcher
        self.checked: dict[tuple[str, str], tuple[bool, str]] = {}
        self.rounds = 0

    def write(self, doc: dict) -> str:
        path = self.workdir / f"{doc['name']}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def verdict(self, job, code: int, stdout: str) -> tuple[bool, str]:
        if code != 0:
            return False, f"exit code {code}"
        key = (job.name, stdout)
        if key not in self.checked:  # identical output is checked once
            try:
                self.checked[key] = True, job.check(stdout)
            except Exception as exc:  # any wrong or missing value fails the job
                self.checked[key] = False, f"{type(exc).__name__}: {exc}"
        return self.checked[key]

    def run(self, job, argv=None) -> dict:
        out = self.workdir / "stdout"
        wall, rss, code = self.launcher.run(argv or job.argv, out)
        stdout = out.read_text()
        ok, note = self.verdict(job, code, stdout)
        return {"cost": wall, "wall": wall, "rss": rss, "exit": code, "ok": ok, "check": note,
                "stdout": stdout, "attempts": 1, "failures": int(not ok)}

    def run_traced(self, job) -> dict:
        """One round of --trace 1: the job untraced and through traced.py,
        in an order that alternates from round to round."""
        spans = self.workdir / "spans.json"
        self.rounds += 1
        if self.rounds % 2:
            plain = self.run(job)
            traced = self.run(job, (str(BENCH / "traced.py"), str(spans), *job.argv))
        else:
            traced = self.run(job, (str(BENCH / "traced.py"), str(spans), *job.argv))
            plain = self.run(job)
        if traced["ok"] and traced["stdout"] != plain["stdout"]:
            traced.update(ok=False, check="traced output differs from the untraced output")
        failed = [r for r in (plain, traced) if not r["ok"]]
        first = (failed or [plain])[0]
        layers = layer_metrics(json.loads(spans.read_text()), traced["wall"]) if traced["ok"] else Counter()
        return {**plain, "cost": plain["wall"] + traced["wall"], "traced_wall": traced["wall"],
                "ok": not failed, "exit": first["exit"], "check": first["check"],
                "layers": layers, "attempts": 2, "failures": len(failed)}

    def setup_seconds(self) -> float:
        walls = [self.launcher.run(("-c", "import ybe.cli"), self.workdir / "setup")
                 for _ in range(SETUP_REPEATS)]
        if any(code != 0 for _, _, code in walls):
            raise RuntimeError("importing ybe.cli failed")
        return statistics.median(w for w, _, _ in walls)


def layer_metrics(trace: dict, wall: float) -> Counter:
    spans = trace["spans"]
    values: Counter = Counter(trace["counts"])
    outermost = 0.0
    for layer, start, end, parent in spans:
        up = parent
        while up is not None and spans[up][0] != layer:
            up = spans[up][3]
        if up is None:  # not nested in a span of its own layer
            values[layer + "_s"] += end - start
        if parent is None:
            outermost += end - start
    values["cli.self_s"] = wall - outermost
    return values


def measure(jobs, seconds: float, sample) -> dict[str, list[dict]]:
    """Round-robin over the jobs for ``seconds``: each job runs once, then
    again while its last run's cost still fits in the time left."""
    runs: dict[str, list[dict]] = {job.name: [] for job in jobs}
    start = time.perf_counter()
    progress = True
    while progress:
        progress = False
        for job in jobs:
            left = seconds - (time.perf_counter() - start)
            if runs[job.name] and runs[job.name][-1]["cost"] > left:
                continue
            runs[job.name].append(sample(job))
            progress = True
    return runs


def tally(runs: dict[str, list[dict]]) -> tuple[int, int]:
    """(jobs attempted, jobs failed); a traced round counts both its jobs."""
    attempted = sum(r["attempts"] for rs in runs.values() for r in rs)
    failed = sum(r["failures"] for rs in runs.values() for r in rs)
    return attempted, failed


def median_of(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def fastest(runs: list[dict]) -> float:
    return min(r["wall"] for r in runs)


def job_row(job, runs: list[dict]) -> dict:
    failed = [r for r in runs if not r["ok"]]
    row = {"job": job.name, "runs": len(runs), "wall_s": fastest(runs),
           "median_wall_s": median_of(runs, "wall"), "peak_rss_mb": median_of(runs, "rss"),
           "exit": (failed or runs)[0]["exit"], "check": (failed or runs)[0]["check"]}
    if "traced_wall" in runs[0]:
        row["traced_wall_s"] = min(r["traced_wall"] for r in runs)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    with tempfile.TemporaryDirectory(prefix=".ybebench-", dir=ROOT) as tmp:
        launcher = Launcher(child_env())
        try:
            runner = Runner(Path(tmp), launcher)
            workload = WORKLOADS[args.workload]
            jobs = workload.jobs(random.Random(args.seed), runner.write)
            # one import before any timing, so later children find compiled bytecode
            launcher.run(("-c", "import ybe.cli"), runner.workdir / "setup")
            setup_s = None if args.trace else runner.setup_seconds()
            runs = measure(jobs, args.seconds, runner.run_traced if args.trace else runner.run)
        finally:
            launcher.close()

    attempted, failed = tally(runs)
    for job in jobs:
        print(json.dumps(job_row(job, runs[job.name])))

    if args.trace:
        values: Counter = Counter()
        for job in jobs:
            layer_runs = [r["layers"] for r in runs[job.name]]
            for name in set().union(*layer_runs):
                values[name] += statistics.median(lr[name] for lr in layer_runs)
            values["trace.overhead_s"] += (min(r["traced_wall"] for r in runs[job.name])
                                           - fastest(runs[job.name]))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": sum(fastest(runs[job.name]) for job in jobs),
            "largest_job_s": fastest(runs[workload.largest]),
            "peak_rss_mb": max(median_of(runs[job.name], "rss") for job in jobs),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    print(json.dumps({
        "workload": args.workload, "why": why.get(args.workload), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "failed_frac": failed / attempted,
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
