"""Benchmark of the hessenberg CLI: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Closed loop with one caller. Each sample is one fresh Python process
(perfbench/child.py) that imports ``hessenberg.cli`` from ``src`` and calls
``main(argv, out=buffer)`` for each call of the workload, in order, as a CLI
user would pay for it: lazy table builds included. Processes run one after
another while the next one is expected to end within ``--seconds``; at
least one runs.

End-to-end metrics (``--trace 0``), medians over the run's processes:
  wall_s       seconds of all main() calls of one process (time to solution)
               with the hypervisor's steal taken out (see Child.wall_s)
  setup_s      spawn until ``hessenberg.cli`` is imported; nine import-only
               processes, after one untimed warm-up, plus every workload process
  peak_rss_mb  maximum resident set of a workload process, from os.wait4
  items_per_s  workload items (see workloads.ITEM_UNITS) per second of wall_s
A process fails when it exits non-zero, a call exits non-zero, or the sha256
of a call's stdout differs from pins.json; cache8 also requires every read
pass to print what the write pass printed. A failed process is counted in
``failed`` (fail_ratio = failed / attempted) and gives no timing sample.
The ``env`` line records what results may only be compared under, and the
CPU time the hypervisor stole from this machine during the run.

``--trace 1`` makes the same untraced run, then one traced process, and
reports the per-layer metrics of tracer.LAYER_UNITS; trace.overhead_s is the
traced process's main() seconds minus the untraced median, both as clocked,
with steal left in. The spans are kept in
perfbench/out/trace_<workload>_seed<seed>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PINS = BENCH / "pins.json"

SETUP_SPAWNS = 9
RUN_DEADLINE_S = 170  # a run must end within 180 s; a child is killed before that

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    setup_s: float | None  # None when the child never said ready
    exit_code: int
    peak_rss_mb: float
    payload: dict | None
    steal_s: float | None = None  # CPU time stolen from this machine meanwhile
    cpu_s: float = 0.0  # CPU time of the process, which excludes steal

    def clocked_s(self) -> float:
        """Wall seconds of all main() calls, as clocked."""
        return sum(seconds for seconds, _, _ in self.payload["calls"])

    def wall_s(self) -> float:
        """Wall seconds of all main() calls, scaled to a machine that steals nothing.

        While the process ran, the hypervisor held this machine's CPUs for
        steal_s seconds to serve other guests. The process got cpu_s seconds
        of CPU instead of cpu_s + steal_s, at the same parallelism, so its
        wall time stretched by that ratio.
        """
        if not self.steal_s or not self.cpu_s:
            return self.clocked_s()
        return self.clocked_s() * self.cpu_s / (self.cpu_s + self.steal_s)


def run_child(args: list[str], deadline: float) -> Child:
    """Start child.py, time it until ready, wait for its result and its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    steal = steal_seconds()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    stolen = steal_seconds()
    try:
        payload = json.loads(rest.decode(errors="replace").strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        payload = None
    return Child(
        setup_s=ready - start if first == b"ready\n" else None,
        exit_code=proc.returncode,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        payload=payload,
        cpu_s=usage.ru_utime + usage.ru_stime,
        steal_s=None if steal is None or stolen is None else stolen - steal,
    )


def check(work: workloads.Workload, child: Child, pins: dict) -> str | None:
    """Why the process's output is wrong, or None when it matches the pins."""
    if child.exit_code != 0:
        return f"process exit code {child.exit_code}"
    calls = (child.payload or {}).get("calls")
    if calls is None or len(calls) != len(work.calls):
        return "no result for every call"
    per_pass = len(calls) // work.passes
    first = [digests for _, _, digests in calls[:per_pass]]
    for k in range(1, work.passes):
        if [d for _, _, d in calls[k * per_pass:(k + 1) * per_pass]] != first:
            return f"read pass {k} differs from the write pass"
    for call, (_, rc, digests) in zip(work.calls, calls):
        if rc != 0:
            return f"exit code {rc} from {' '.join(call.argv)}"
        if len(digests) != len(call.pins):
            return f"{digests[0]} in the output of {' '.join(call.argv)}"
        for key, digest in zip(call.pins, digests):
            if pins.get(key) != digest:
                return f"stdout sha256 differs from the pin for {key}"
    return None


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run of one workload: set-up samples, workload processes, checks."""

    def __init__(self, name: str, seed: int, seconds: float, pins: dict):
        self.name, self.seed, self.seconds, self.pins = name, seed, seconds, pins
        self.start = perf_counter()
        self.deadline = self.start + RUN_DEADLINE_S
        self.setups: list[float] = []
        self.samples: list[Child] = []
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.env: dict = {}

    def process(self, trace: Path | None = None) -> Child | None:
        """Run one workload process; return it if its output is correct."""
        cache_dir = None
        if self.name == "cache8":
            cache_dir = tempfile.mkdtemp(prefix="cache8-", dir=OUT)
        try:
            work = workloads.build(self.name, self.seed, cache_dir)
            self.items = work.items
            args = [self.name, str(self.seed)]
            if cache_dir:
                args += ["--cache-dir", cache_dir]
            if trace:
                args += ["--trace", str(trace)]
            child = run_child(args, self.deadline)
        finally:
            if cache_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)
        self.attempted += 1
        if child.setup_s is not None:
            self.setups.append(child.setup_s)
        if child.payload:
            self.env.update(child.payload.get("env", {}))
        problem = check(work, child, self.pins)
        if problem:
            self.failed += 1
            print(f"{self.name}: failed process: {problem}", file=sys.stderr)
            return None
        return child

    def measure(self) -> None:
        steal = steal_seconds()
        for k in range(1 + SETUP_SPAWNS):
            child = run_child(["--ready-only"], self.deadline)
            if child.setup_s is None or child.exit_code != 0:
                raise BenchError("cannot import hessenberg.cli from src")
            if k:  # the first spawn is an untimed warm-up
                self.setups.append(child.setup_s)
        durations = []
        while True:
            t = perf_counter()
            child = self.process()
            durations.append(perf_counter() - t)
            if child:
                self.samples.append(child)
            # stop unless the next process is expected to end within the budget
            if perf_counter() - self.start + statistics.median(durations) > self.seconds:
                break
        if steal is not None:
            self.env["host_steal_s"] = round(steal_seconds() - steal, 2)

    def end_to_end(self) -> dict[str, float]:
        wall = statistics.median(c.wall_s() for c in self.samples)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in self.samples),
            "items_per_s": self.items / wall,
        }


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def bench(name: str, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    """Run one workload and print its report; return the result object."""
    run = Run(name, seed, seconds, pins)

    def result(metrics: dict) -> dict:
        correct = run.failed == 0 and bool(metrics)
        return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
                "metrics": metrics}

    run.measure()
    if not run.samples:
        return result({})
    e2e = run.end_to_end()
    env = dict(run.env, git_sha=git_sha(), seed=seed, workload=name)
    print("env " + json.dumps(env, sort_keys=True))
    counts = {"wall_s": len(run.samples), "setup_s": len(run.setups),
              "peak_rss_mb": len(run.samples), "items_per_s": len(run.samples)}
    print(f"{name} seed={seed}: " + "  ".join(
        f"{k}={v:.6g} {END_TO_END_UNITS[k]} (median of {counts[k]})" for k, v in e2e.items()
    ) + f"  fail_ratio={run.failed / run.attempted:g} ({run.failed}/{run.attempted} processes)"
      + f"  items={workloads.ITEM_UNITS[name]}")
    clocked = statistics.median(c.clocked_s() for c in run.samples)
    print(f"{name} samples: wall_s=" + " ".join(f"{c.wall_s():.4g}" for c in run.samples)
          + " clocked_s=" + " ".join(f"{c.clocked_s():.4g}" for c in run.samples)
          + f" (median {clocked:.4g})"
          + " steal_s=" + " ".join(f"{c.steal_s:.2f}" if c.steal_s is not None else "?"
                                   for c in run.samples)
          + " cpu_s=" + " ".join(f"{c.cpu_s:.3g}" for c in run.samples)
          + " setup_s=" + " ".join(f"{x:.3g}" for x in run.setups))
    metrics = metric_block(e2e, END_TO_END_UNITS)
    if trace:
        spans_path = OUT / f"trace_{name}_seed{seed}.jsonl"
        if run.process(trace=spans_path) is None:
            return result({})
        layers = tracer.layer_metrics(tracer.read_spans(spans_path), clocked)
        for k, v in layers.items():
            print(f"{name} layer {k} = {v:.6g} {tracer.LAYER_UNITS[k]}")
        metrics = metric_block(layers, tracer.LAYER_UNITS)
    return result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hessenberg" / "cli.py").is_file() or not PINS.is_file():
        print("perfbench: run from a checkout with src/hessenberg and perfbench/pins.json",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pins = json.loads(PINS.read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        try:
            result = bench(name, args.seed, args.seconds, bool(args.trace), pins)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
        if not result["metrics"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
