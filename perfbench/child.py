"""One benchmark process: import the CLI, say ready, run a workload's calls.

Usage (the driver starts it with PYTHONPATH pointing at the package source):

    python3 perfbench/child.py --ready-only
    python3 perfbench/child.py WORKLOAD SEED [--cache-dir D] [--trace SPANS]

It prints ``ready`` once ``hessenberg.cli`` is imported, then one JSON line:
per call the wall seconds of ``main()``, its exit code and the sha256 digests
of what it wrote to stdout (see ``workloads.Call``), and a record of the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import hessenberg.cli  # the set-up a CLI user pays for ends with this import

import tracer
import workloads


@contextlib.contextmanager
def restricted_sweep(subset):
    """Make `verify N` sweep only the functions of subset, in order, not every h on [N]."""
    from hessenberg import roots

    def enumerate_subset(n):
        return iter([roots.HessenbergFunction(h) for h in subset if len(h) == n])

    undo = tracer.rebind(roots.enumerate_hessenberg_functions, enumerate_subset)
    try:
        yield
    finally:
        tracer.restore(undo)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verify_output(reports) -> str:
    """What `verify` prints for these reports (cli.cmd_verify, json format)."""
    summary = {
        "total": len(reports),
        "passed": sum(r["passed"] for r in reports),
        "failed": sum(not r["passed"] and not r["conjecture"] for r in reports),
        "findings": sum(not r["passed"] and r["conjecture"] for r in reports),
    }
    payload = {"reports": reports, "summary": summary}
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def per_function_digests(text: str, subset) -> list[str]:
    """Digests of the single-function `verify h` outputs that a sweep's stdout merges.

    The stdout must be exactly their merge: reports in sweep order, summaries
    added. Otherwise the one returned entry says why, and matches no pin.
    """
    try:
        reports = json.loads(text)["reports"]
        groups: dict[tuple, list] = {}
        for r in reports:
            groups.setdefault(tuple(r["params"]["h"]), []).append(r)
    except (ValueError, KeyError, TypeError):
        return ["output that is not a verify report"]
    if _verify_output(reports) != text:
        return ["output that is not the merge of per-function reports"]
    if list(groups) != [tuple(h) for h in subset]:
        return ["reports for other functions than the subset"]
    return [_sha256(_verify_output(rs)) for rs in groups.values()]


def run_call(call: workloads.Call) -> tuple[float, int, list[str]]:
    """Seconds, exit code and stdout digests of one ``hessenberg.cli.main`` call."""
    buf = io.StringIO()
    sweep = restricted_sweep(call.subset) if call.subset else contextlib.nullcontext()
    with sweep:
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = hessenberg.cli.main(list(call.argv), out=buf)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
        seconds = perf_counter() - start
    text = buf.getvalue()
    if call.subset:
        return seconds, rc, per_function_digests(text, call.subset)
    return seconds, rc, [_sha256(text)]


def environment() -> dict:
    """What a comparison between two result files must hold fixed."""
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        from hessenberg import kernels

        backend = kernels.active_backend()
    except (ImportError, AttributeError):
        backend = "none"
    with ThreadPoolExecutor() as pool:
        default_workers = pool._max_workers  # what `--threads 0` gets
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": has_numba,
        "kernel_backend": backend,
        "nproc": os.cpu_count(),
        "default_thread_workers": default_workers,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready-only", action="store_true")
    parser.add_argument("workload", nargs="?")
    parser.add_argument("seed", nargs="?", type=int)
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace")
    args = parser.parse_args()
    if args.ready_only:
        return 0
    work = workloads.build(args.workload, args.seed, args.cache_dir)
    spans = tracer.install() if args.trace else None
    calls = [run_call(call) for call in work.calls]
    if spans is not None:
        spans.uninstall()
        spans.write(args.trace)
    print(json.dumps({"calls": calls, "env": environment()}), flush=True)
    return 0


if __name__ == "__main__":
    print("ready", flush=True)
    sys.exit(main())
