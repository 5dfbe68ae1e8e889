"""stabhom benchmark: cold CLI jobs in a closed loop with one client.

Usage:
  python bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each job is one or more fresh ``python -m stabhom.cli`` processes, started
one at a time, so no in-process cache carries over between jobs.  A run:

1. writes the workload's inputs from ``--seed``;
2. times ``SETUP_REPEATS`` set-up probes (import the CLI, load the inputs);
3. runs one warm-up job, checked but not timed;
4. checks once that ``audit --workers 1`` and ``--workers 2`` print the
   same bytes;
5. runs jobs for ``--seconds`` seconds.  With ``--trace 1`` every second job
   runs under the span wrappers of ``tracer.py`` and the per-layer metrics
   are reported instead of the end-to-end ones.

Every job's output is checked after the last job has ended: the checks
import numpy and scipy, and a child process counts the memory of the
process that started it, so the benchmark process stays small while jobs
run.  The last line of standard output is the result JSON; the line before
it holds the run's details and provenance.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from tracer import call_metrics, job_metrics

BENCH = Path(__file__).resolve().parent
ROOT = workloads.ROOT
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile

PROVENANCE_PROBE = """
import ctypes, json, pathlib, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for lib in (pathlib.Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(str(lib)), sym, None)
        if fn is not None:
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Child(NamedTuple):
    wall: float      # seconds from start to exit, timed by this process
    rc: int
    stdout: bytes
    stderr: str
    rss_mb: float    # ru_maxrss of the child


class Runner:
    def __init__(self, workdir: Path, threads: int):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(workloads.SRC),
                        OPENBLAS_NUM_THREADS=str(threads))
        self._n = 0

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion.

        A child still running after CHILD_TIMEOUT_S is killed, and so is
        the child when this process is interrupted.
        """
        self._n += 1
        out_path = self.workdir / f"out{self._n}"
        with open(out_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        out_path.unlink()
        stderr = (self.workdir / "stderr").read_text(errors="replace").strip()
        return Child(wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0)

    def job(self, wl: workloads.Workload, traced: bool = False) -> dict:
        """One job: its calls in order, each a fresh CLI process."""
        calls = []
        for label, argv in wl.calls:
            if traced:
                spans = self.workdir / "spans.json"
                cmd = [str(BENCH / "traced_cli.py"), str(spans), *argv]
            else:
                cmd = ["-m", "stabhom.cli", *argv]
            child = self.spawn(cmd)
            call = {"label": label, "wall": child.wall, "rc": child.rc, "stdout": child.stdout,
                    "rss": child.rss_mb, "stderr": child.stderr.splitlines()[-1:] if child.rc else []}
            if traced and spans.exists():
                call["layers"] = call_metrics(json.loads(spans.read_text()), child.wall)
                spans.unlink()
            calls.append(call)
        return {"wall": sum(c["wall"] for c in calls),
                "rss": max(c["rss"] for c in calls), "calls": calls}


def check_job(job: dict, expect, tally: Tally) -> bool:
    problems = []
    for call in job["calls"]:
        problems += expect.check(call["label"], call["rc"], call["stdout"])
        problems += call.get("stderr", [])
    return tally.record(problems)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND jobs beyond it, never below the median.

    Returns (value, percentile).  Runs with fewer than 2 * TAIL_BEYOND jobs
    fall back to the median rank.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "stabhom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(workloads.SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def audit_outputs(runner: Runner, serial: bytes | None) -> dict[int, bytes]:
    """``audit --json`` output with 1 and 2 workers.

    ``serial``, if given, stands for the ``--workers 1`` output.  The exit
    code is left to the audit-catalog checks: only the bytes are compared.
    """
    outputs = {1: serial} if serial is not None else {}
    for workers in (1, 2):
        if workers not in outputs:
            outputs[workers] = runner.spawn(
                ["-m", "stabhom.cli", "--workers", str(workers), "audit", "--json"]).stdout
    return outputs


def layer_metrics(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Median over traced jobs of each per-layer number; and whether counts repeat."""
    per_job = [job_metrics([c.get("layers", {}) for c in j["calls"]]) for j in traced]
    keys = set().union(*per_job)
    counts_repeat = all(
        len({m.get(k, 0) for m in per_job}) == 1 for k in keys if not k.endswith("_s")
    )
    m = {k: statistics.median(m.get(k, 0) for m in per_job) for k in keys}

    def ratio(num, den):
        return m[num] / m[den] if m.get(den) else 0.0

    m["codespace.image_set.distinct_ratio"] = ratio(
        "codespace.image_set.distinct", "codespace.image_set.calls")
    m["descend.kept_ratio"] = ratio("descend.kept", "descend.substitute.calls")
    m["trace.overhead_s"] = (statistics.median(j["wall"] for j in traced)
                             - statistics.median(j["wall"] for j in untraced))
    return m, counts_repeat


def measure(args) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)), nproc)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        runner = Runner(workdir, threads)
        wl = workloads.build(args.workload, args.seed, workdir)
        probe = runner.spawn(["-c", PROVENANCE_PROBE])
        if probe.rc != 0:
            raise RuntimeError(f"provenance probe failed: {probe.stderr}")

        setup_times = []
        for _ in range(SETUP_REPEATS):
            child = runner.spawn([str(BENCH / "setup_probe.py"), *wl.loaders])
            if child.rc != 0:
                raise RuntimeError(f"set-up probe failed: {child.stderr}")
            setup_times.append(child.wall)

        warm = runner.job(wl)
        serial = warm["calls"][0]["stdout"] if args.workload == "audit-catalog" else None
        audits = audit_outputs(runner, serial)

        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline:
            is_traced = bool(args.trace) and len(traced) < len(untraced)
            (traced if is_traced else untraced).append(runner.job(wl, traced=is_traced))
        if args.trace and not traced:
            traced.append(runner.job(wl, traced=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from checks import Expectations  # numpy and scipy load only after the jobs

    expect = Expectations(args.workload, args.seed)
    tally = Tally()
    for job in [warm, *untraced, *traced]:
        check_job(job, expect, tally)
    same = bool(audits[1]) and audits[1] == audits[2]
    tally.record([] if same else ["audit: --workers 1 and --workers 2 outputs differ"])

    times = [j["wall"] for j in untraced]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**json.loads(probe.stdout), "git_sha": git_sha(),
                       "src_sha256": source_digest(), "nproc": nproc,
                       "openblas_num_threads_env": threads},
        "sizes": wl.sizes,
        "jobs": len(times),
        "job_times_s": times,
        "call_p50_s": {label: statistics.median(c["wall"] for j in untraced for c in j["calls"]
                                                if c["label"] == label)
                       for label, _ in wl.calls},
        "setup_times_s": setup_times,
    }
    if args.trace:
        layers, counts_repeat = layer_metrics(traced, untraced)
        details["traced_jobs"] = len(traced)
        details["counts_repeat"] = counts_repeat
        if not counts_repeat:
            tally.record(["trace: per-layer counts differ between traced jobs"])
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        tail_s, details["job_tail_pct"] = tail(times)
        values = {
            "setup_s": statistics.median(setup_times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "peak_rss_mb": max(j["rss"] for j in untraced),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    details["failed_frac"] = tally.failed_frac
    details["problems"] = tally.problems
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (workloads.SRC / "stabhom" / "cli.py").is_file():
        print(f"error: no stabhom sources under {workloads.SRC}", file=sys.stderr)
        return 2
    details, result = measure(args)
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
