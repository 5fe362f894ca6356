"""Regenerate pins.json: the sha256 of the stdout of every call a workload can make.

Run from the repository root, at the commit whose output is the reference:

    PYTHONPATH=src python3 perfbench/pin.py

It covers every Hessenberg function at n = 8 for conj8 and cache8, whatever
the seed, and takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from child import run_call

PINS = Path(__file__).with_name("pins.json")


def main() -> int:
    calls = [workloads.SWEEP7, workloads.WIDE10]
    for h in workloads.hessenberg_functions(8):
        calls += [workloads.verify_conj81(h), workloads.decompose8(h)]
    pins = {}
    for call in calls:
        _, rc, (digest,) = run_call(call)
        if rc != 0:
            print(f"{call.argv}: exit code {rc}", file=sys.stderr)
            return 1
        pins[call.pins[0]] = digest
    PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} calls in {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
