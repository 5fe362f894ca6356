"""Seeded workload definitions for the hessenberg CLI benchmark.

A workload is an ordered list of calls. Each call is the argv given to
``hessenberg.cli.main`` in one benchmark process, and the keys under which
the sha256 of its stdout is pinned in ``pins.json``. A key omits
``--cache-dir``: a cached ``decompose`` must print exactly what an uncached
one prints. A call with a ``subset`` is a ``verify N`` sweep restricted to
those functions; its stdout is checked as the merge of the single-function
``verify h`` outputs pinned under its keys, one per function.

This module imports nothing from the package, so the driver can build the
inputs before any process under test has started.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep7", "conj8", "wide10", "cache8")

BASELINE_SEED = 1
HOLDOUT_SEED = 2  # a later claim must also hold on this seed

CONJ8_FUNCTIONS = 100
CACHE8_FUNCTIONS = 40
CACHE8_READ_PASSES = 10


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    pins: tuple[str, ...]
    subset: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class Workload:
    """The calls one benchmark process makes, and the work they stand for."""

    name: str
    calls: tuple[Call, ...]
    items: int  # the unit of items_per_s; see ITEM_UNITS
    passes: int = 1  # cache8: calls are `passes` repeats of one list of h


ITEM_UNITS = {
    "sweep7": "Hessenberg functions verified",
    "conj8": "Hessenberg functions verified",
    "wide10": "Poincare polynomials, that is (nu, h) pairs",
    "cache8": "decompose calls",
}


def hessenberg_functions(n: int) -> list[tuple[int, ...]]:
    """All Hessenberg functions on [n] in lexicographic order, as the CLI sweeps them."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int]) -> None:
        i = len(prefix) + 1
        if i > n:
            out.append(tuple(prefix))
            return
        for v in range(max(i, prefix[-1] if prefix else 1), n + 1):
            prefix.append(v)
            extend(prefix)
            prefix.pop()

    extend([])
    return out


def partition_count(n: int) -> int:
    """Number of partitions of n, i.e. of Poincare polynomials in one Betti table."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _text(h: tuple[int, ...]) -> str:
    return ",".join(map(str, h))


def seeded_functions(name: str, seed: int, n: int, count: int) -> list[tuple[int, ...]]:
    """A seeded sample of Hessenberg functions on [n], in sweep order.

    One function is drawn from each of `count` consecutive blocks of the
    sweep, so every sample covers the whole sweep and the work varies less
    from seed to seed than under a plain random sample.
    """
    pool = hessenberg_functions(n)
    rng = random.Random(f"{name}/{seed}")
    blocks = [(k * len(pool) // count, (k + 1) * len(pool) // count) for k in range(count)]
    return [pool[rng.randrange(lo, hi)] for lo, hi in blocks]


def _call(*argv: str) -> Call:
    return Call(argv, (" ".join(argv),))


def verify_conj81(h: tuple[int, ...]) -> Call:
    return _call("--max-n", "8", "verify", _text(h), "conj81")


def decompose8(h: tuple[int, ...], cache_dir: str | None = None) -> Call:
    """`decompose h` at n = 8, pinned under its argv without the cache directory."""
    call = _call("--max-n", "8", "decompose", _text(h))
    if cache_dir is None:
        return call
    return Call(call.argv[:2] + ("--cache-dir", cache_dir) + call.argv[2:], call.pins)


def conj81_sweep(subset: list[tuple[int, ...]]) -> Call:
    """`verify 8 conj81` over a subset: one main() call, so the thread pool runs as in a full sweep."""
    pins = tuple(verify_conj81(h).pins[0] for h in subset)
    return Call(("--max-n", "8", "verify", "8", "conj81"), pins, tuple(subset))


SWEEP7 = _call("verify", "7", "all")
WIDE10 = _call("--max-n", "10", "decompose", _text((10,) * 10))


def build(name: str, seed: int, cache_dir: str | None = None) -> Workload:
    """The workload `name` for `seed`; cache8 needs the fresh cache directory it fills."""
    if name == "sweep7":
        return Workload(name, (SWEEP7,), len(hessenberg_functions(7)))
    if name == "wide10":
        return Workload(name, (WIDE10,), partition_count(10))
    if name == "conj8":
        subset = seeded_functions(name, seed, 8, CONJ8_FUNCTIONS)
        return Workload(name, (conj81_sweep(subset),), len(subset))
    if name == "cache8":
        if cache_dir is None:
            raise ValueError("cache8 needs a cache directory")
        one_pass = tuple(
            decompose8(h, cache_dir)
            for h in seeded_functions(name, seed, 8, CACHE8_FUNCTIONS)
        )
        passes = 1 + CACHE8_READ_PASSES
        return Workload(name, one_pass * passes, len(one_pass) * passes, passes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
