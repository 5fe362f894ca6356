"""In-memory span tracer wrapped around the public functions of each hessenberg layer.

Recording: ``install()`` replaces each target function, in every loaded
``hessenberg`` module that binds it, with a wrapper that records one span per
call: name, wall start and end, parent span, thread, and the CPU time of that
thread inside the span. Each thread keeps its own span stack, because
``verify`` runs functions on a thread pool. A generator
(``enumerate_acyclic_orientations``) is timed inside ``next()`` only, so its
span excludes the consumer's loop. Spans stay in memory until ``write()``.

Analysis: ``layer_metrics()`` turns a span file into the per-layer metrics.
Busy time is thread CPU time, so a pool thread waiting for the interpreter
lock is not counted busy, and the busy times of all threads add up to at most
the cores times the wall time. A span's self time is its busy time minus its
children's busy time; ``cli.self_s`` is the self time of ``cli.main`` in the
main thread: parsing, report assembly and JSON output.

This module imports nothing from the package at import time, so the driver
can analyse span files without loading the program under test.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter, thread_time

# span record, one JSON list per line; BUSY is thread CPU seconds
SID, NAME, THREAD, PARENT, START, END, BUSY, KEY, INFO = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, key=None, info=None, pre=None):
        """A wrapper recording one span per call of fn.

        key(*args) names the input, for distinct counts; pre() is read before
        the call and info(args, result, pre_value) after it, outside the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            before = pre() if pre else None
            stack.append(sid)
            start, cpu = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu
                end = perf_counter()
                stack.pop()
            self.spans.append(
                [
                    sid,
                    name,
                    threading.get_ident(),
                    parent,
                    start,
                    end,
                    cpu,
                    key(*args) if key else None,
                    info(args, result, before) if info else None,
                ]
            )
            return result

        return wrapper

    def wrap_generator(self, name, fn, key=None):
        """A wrapper recording one span per generator, busy only inside next()."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            busy, yielded, start, end = 0.0, 0, None, None
            try:
                while True:
                    stack.append(sid)
                    t, cpu = perf_counter(), thread_time()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += thread_time() - cpu
                        end = perf_counter()
                        stack.pop()
                        start = t if start is None else start
                    yielded += 1
                    yield item
            finally:
                self.spans.append(
                    [
                        sid,
                        name,
                        threading.get_ident(),
                        parent,
                        start,
                        end,
                        busy,
                        key(*args) if key else None,
                        {"yielded": yielded},
                    ]
                )

        return wrapper

    def uninstall(self) -> None:
        restore(self._restore)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every name in the loaded package that refers to original at replacement.

    Callers that did `from .module import name` hold their own binding, so
    each one must be rebound; the returned list undoes it with restore().
    """
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "hessenberg" and not mod_name.startswith("hessenberg."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)
    return undo


def restore(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def _h(h) -> str:
    return ",".join(map(str, h.values))


def _kernel_info(args, result, before):
    positions, inv_masks, _allowed, j_indices = args[:4]
    rows = int(positions.shape[0])
    # computed, not measured: the two position columns read per retained
    # simple root and the inversion mask read per row
    per_row = 2 * len(j_indices) * positions.itemsize + inv_masks.itemsize
    return {"rows": rows, "bytes": rows * per_row}


def _cached_build(fn):
    """pre/info hooks marking the calls of an lru_cache'd builder that missed."""

    def pre():
        return fn.cache_info().misses

    def info(args, result, before):
        if fn.cache_info().misses == before:
            return None
        arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
        return {"build": sum(int(a.nbytes) for a in arrays)}

    return pre, info


# (module, attribute, span name, generator?, key)
TARGETS = (
    ("cli", "main", "cli.main", False, None),
    ("betti", "poincare_polynomial", "betti.poincare", False,
     lambda nu, h: f"{','.join(str(int(p)) for p in nu)}|{_h(h)}"),
    ("kernels", "poincare_histogram", "kernels.histogram", False, None),
    ("permtables", "perm_table", "permtables.perm_table", False, None),
    ("partitions", "kostka_matrix", "partitions.kostka_matrix", False, None),
    ("partitions", "solve_fixed_space_system", "partitions.solve", False, None),
    ("partitions", "specht_from_tabloid", "partitions.specht", False, None),
    ("partitions", "count_ph_tableaux", "partitions.ph_tableaux", False,
     lambda h, shape: f"{_h(h)}|{','.join(map(str, shape))}"),
    ("orientations", "enumerate_acyclic_orientations", "orientations.enumerate", True,
     lambda graph: _h(graph.h)),
    ("orientations", "sink_sets", "orientations.sink_sets", False, None),
    ("orientations", "restrict", "orientations.restrict", False, None),
    ("roots", "roots_of", "roots.roots_of", False, None),
    ("dot_action", "decompose", "dot_action.decompose", False, lambda h, table=None: _h(h)),
    ("dot_action", "betti_table", "dot_action.betti_table", False, None),
    ("dot_action", "orientation_count_check", "dot_action.orientation_check", False, None),
    ("dot_action", "gasharov_check", "dot_action.gasharov_check", False, None),
    ("dot_action", "chromatic_check", "dot_action.chromatic_check", False, None),
    ("dot_action", "e_positivity_report", "dot_action.e_positivity", False, None),
    ("induction", "check_two_part_induction", "induction.thm61", False, None),
    ("induction", "check_nilpotent_poincare_recursion", "induction.prop72", False, None),
    ("induction", "check_regular_poincare_recursion", "induction.prop73", False, None),
    ("induction", "check_maximal_sink_conjecture", "induction.conj81", False, None),
)


def install() -> Tracer:
    """Wrap every target that exists in the loaded package; a missing one is skipped."""
    tracer = Tracer()
    for module, attr, name, is_generator, key in TARGETS:
        try:
            mod = importlib.import_module(f"hessenberg.{module}")
        except ModuleNotFoundError:
            continue
        original = getattr(mod, attr, None)
        if original is None:
            continue
        if is_generator:
            wrapper = tracer.wrap_generator(name, original, key)
        elif hasattr(original, "cache_info"):
            pre, info = _cached_build(original)
            wrapper = tracer.wrap(name, original, key, info, pre)
        elif name == "kernels.histogram":
            wrapper = tracer.wrap(name, original, key, _kernel_info)
        else:
            wrapper = tracer.wrap(name, original, key)
        tracer._restore += rebind(original, wrapper)
    cli = sys.modules.get("hessenberg.cli")
    cache_cls = getattr(cli, "BettiCache", None)
    if cache_cls is not None:
        original = cache_cls.poincare
        tracer._restore.append((cache_cls, "poincare", original))
        cache_cls.poincare = tracer.wrap("cli.cache", original)
    return tracer


# --- analysis ---------------------------------------------------------------

COUNT, SECONDS, RATIO, BYTES = "count", "s", "ratio", "B"

# name -> unit; the order is the order of the report
LAYER_UNITS = {
    "betti.poincare.calls": COUNT,
    "betti.poincare.distinct": COUNT,
    "betti.poincare.reuse": RATIO,
    "betti.poincare.self_s": SECONDS,
    "kernels.histogram.calls": COUNT,
    "kernels.histogram.busy_s": SECONDS,
    "kernels.rows_swept": COUNT,
    "kernels.bytes_computed": BYTES,
    "permtables.perm_table.build_s": SECONDS,
    "permtables.table_bytes": BYTES,
    "partitions.kostka_matrix.build_s": SECONDS,
    "partitions.solve.calls": COUNT,
    "partitions.solve.busy_s": SECONDS,
    "partitions.specht.busy_s": SECONDS,
    "partitions.ph_tableaux.calls": COUNT,
    "partitions.ph_tableaux.distinct": COUNT,
    "partitions.ph_tableaux.busy_s": SECONDS,
    "orientations.enumerate.calls": COUNT,
    "orientations.enumerate.distinct": COUNT,
    "orientations.enumerate.yielded": COUNT,
    "orientations.enumerate.busy_s": SECONDS,
    "orientations.sink_sets.busy_s": SECONDS,
    "orientations.restrict.calls": COUNT,
    "orientations.restrict.busy_s": SECONDS,
    "roots.roots_of.calls": COUNT,
    "roots.roots_of.busy_s": SECONDS,
    "dot_action.decompose.calls": COUNT,
    "dot_action.decompose.distinct": COUNT,
    "dot_action.decompose.reuse": RATIO,
    "dot_action.decompose.self_s": SECONDS,
    "dot_action.betti_table.busy_s": SECONDS,
    "dot_action.orientation_check.busy_s": SECONDS,
    "dot_action.gasharov_check.busy_s": SECONDS,
    "dot_action.chromatic_check.busy_s": SECONDS,
    "dot_action.e_positivity.busy_s": SECONDS,
    "induction.thm61.calls": COUNT,
    "induction.thm61.busy_s": SECONDS,
    "induction.prop72.calls": COUNT,
    "induction.prop72.busy_s": SECONDS,
    "induction.prop73.calls": COUNT,
    "induction.prop73.busy_s": SECONDS,
    "induction.conj81.calls": COUNT,
    "induction.conj81.busy_s": SECONDS,
    "cli.cache.hits": COUNT,
    "cli.cache.misses": COUNT,
    "cli.cache.hit_ratio": RATIO,
    "cli.cache.read_s": SECONDS,
    "cli.cache.write_s": SECONDS,
    "cli.self_s": SECONDS,
    "trace.wall_s": SECONDS,
    "trace.overhead_s": SECONDS,
}


def read_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process, keyed as in LAYER_UNITS."""
    children: dict[int, list] = defaultdict(list)
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        if s[PARENT]:
            children[s[PARENT]].append(s)
        by_name[s[NAME]].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s[BUSY] for s in by_name[name])

    def self_time(name):
        return sum(
            s[BUSY] - sum(c[BUSY] for c in children[s[SID]]) for s in by_name[name]
        )

    def distinct(name):
        return len({s[KEY] for s in by_name[name]})

    def ratio(a, b):
        return a / b if b else 0.0

    def builds(name):
        return [s for s in by_name[name] if s[INFO] is not None]

    # a cache read that had to compute the polynomial was a miss
    hits, misses = [], []
    for s in by_name["cli.cache"]:
        computed = any(c[NAME] == "betti.poincare" for c in children[s[SID]])
        (misses if computed else hits).append(s)
    trace_wall = sum(s[END] - s[START] for s in by_name["cli.main"])
    out = {
        "betti.poincare.calls": calls("betti.poincare"),
        "betti.poincare.distinct": distinct("betti.poincare"),
        "betti.poincare.reuse": ratio(distinct("betti.poincare"), calls("betti.poincare")),
        "betti.poincare.self_s": self_time("betti.poincare"),
        "kernels.histogram.calls": calls("kernels.histogram"),
        "kernels.histogram.busy_s": busy("kernels.histogram"),
        "kernels.rows_swept": sum(s[INFO]["rows"] for s in by_name["kernels.histogram"]),
        "kernels.bytes_computed": sum(s[INFO]["bytes"] for s in by_name["kernels.histogram"]),
        "permtables.perm_table.build_s": sum(s[BUSY] for s in builds("permtables.perm_table")),
        "permtables.table_bytes": sum(s[INFO]["build"] for s in builds("permtables.perm_table")),
        "partitions.kostka_matrix.build_s": sum(
            s[BUSY] for s in builds("partitions.kostka_matrix")
        ),
        "partitions.solve.calls": calls("partitions.solve"),
        "partitions.solve.busy_s": busy("partitions.solve"),
        "partitions.specht.busy_s": busy("partitions.specht"),
        "partitions.ph_tableaux.calls": calls("partitions.ph_tableaux"),
        "partitions.ph_tableaux.distinct": distinct("partitions.ph_tableaux"),
        "partitions.ph_tableaux.busy_s": busy("partitions.ph_tableaux"),
        "orientations.enumerate.calls": calls("orientations.enumerate"),
        "orientations.enumerate.distinct": distinct("orientations.enumerate"),
        "orientations.enumerate.yielded": sum(
            s[INFO]["yielded"] for s in by_name["orientations.enumerate"]
        ),
        "orientations.enumerate.busy_s": busy("orientations.enumerate"),
        "orientations.sink_sets.busy_s": busy("orientations.sink_sets"),
        "orientations.restrict.calls": calls("orientations.restrict"),
        "orientations.restrict.busy_s": busy("orientations.restrict"),
        "roots.roots_of.calls": calls("roots.roots_of"),
        "roots.roots_of.busy_s": busy("roots.roots_of"),
        "dot_action.decompose.calls": calls("dot_action.decompose"),
        "dot_action.decompose.distinct": distinct("dot_action.decompose"),
        "dot_action.decompose.reuse": ratio(
            distinct("dot_action.decompose"), calls("dot_action.decompose")
        ),
        "dot_action.decompose.self_s": self_time("dot_action.decompose"),
        "dot_action.betti_table.busy_s": busy("dot_action.betti_table"),
        "dot_action.orientation_check.busy_s": busy("dot_action.orientation_check"),
        "dot_action.gasharov_check.busy_s": busy("dot_action.gasharov_check"),
        "dot_action.chromatic_check.busy_s": busy("dot_action.chromatic_check"),
        "dot_action.e_positivity.busy_s": busy("dot_action.e_positivity"),
        "cli.cache.hits": len(hits),
        "cli.cache.misses": len(misses),
        "cli.cache.hit_ratio": ratio(len(hits), len(hits) + len(misses)),
        "cli.cache.read_s": sum(s[BUSY] for s in hits),
        "cli.cache.write_s": sum(
            s[BUSY] - sum(c[BUSY] for c in children[s[SID]]) for s in misses
        ),
        "cli.self_s": self_time("cli.main"),
        "trace.wall_s": trace_wall,
        "trace.overhead_s": trace_wall - untraced_wall_s,
    }
    for suite in ("thm61", "prop72", "prop73", "conj81"):
        out[f"induction.{suite}.calls"] = calls(f"induction.{suite}")
        out[f"induction.{suite}.busy_s"] = busy(f"induction.{suite}")
    return {name: out[name] for name in LAYER_UNITS}
