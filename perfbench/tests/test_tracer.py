"""Tests of the benchmark's tracer, inputs and output checks.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import threading

import pytest

import run
import tracer
import workloads
from tracer import INFO, NAME, PARENT, SID, THREAD, Tracer


def test_traced_sweep7_sees_every_call_site(tmp_path):
    """The wrappers count every call of a full `verify 7 all` and keep its output."""
    pins = json.loads(run.PINS.read_text())
    bench = run.Run("sweep7", workloads.BASELINE_SEED, 0, pins)
    spans_path = tmp_path / "spans.jsonl"
    traced = bench.process(trace=spans_path)
    assert traced is not None and bench.failed == 0  # same stdout sha256 as untraced
    m = tracer.layer_metrics(tracer.read_spans(spans_path), 0.0)
    assert m["betti.poincare.calls"] == 27657
    assert m["betti.poincare.distinct"] == 6643
    assert m["dot_action.decompose.calls"] == 3159
    assert m["dot_action.decompose.distinct"] == 467
    assert m["partitions.ph_tableaux.calls"] == 6435
    assert m["kernels.histogram.calls"] == m["betti.poincare.calls"]
    assert m["induction.conj81.calls"] == 429
    assert set(m) == set(tracer.LAYER_UNITS)


def _names(t: Tracer) -> dict[int, str]:
    return {s[SID]: s[NAME] for s in t.spans}


def test_generator_span_covers_next_only():
    t = Tracer()
    inner_call = t.wrap("inner", lambda: None)
    consumer_call = t.wrap("consumer_step", lambda: None)

    def gen():
        for k in range(3):
            inner_call()
            yield k

    wrapped = t.wrap_generator("gen", gen)

    def consume():
        for _ in wrapped():
            consumer_call()

    t.wrap("outer", consume)()
    names = _names(t)
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s[NAME], []).append(s)
    (g,) = by_name["gen"]
    assert g[INFO] == {"yielded": 3}
    assert names[g[PARENT]] == "outer"
    assert all(names[s[PARENT]] == "gen" for s in by_name["inner"])
    assert all(names[s[PARENT]] == "outer" for s in by_name["consumer_step"])


def test_each_thread_has_its_own_stack():
    t = Tracer()
    leaf = t.wrap("leaf", lambda: None)

    def spawn():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        leaf()

    t.wrap("root", spawn)()
    names = _names(t)
    root = next(s for s in t.spans if s[NAME] == "root")
    leaves = [s for s in t.spans if s[NAME] == "leaf"]
    other = [s for s in leaves if s[THREAD] != root[THREAD]]
    same = [s for s in leaves if s[THREAD] == root[THREAD]]
    assert len(other) == 1 and other[0][PARENT] == 0
    assert len(same) == 1 and names[same[0][PARENT]] == "root"


def _span(sid, name, parent, busy, key=None, info=None):
    return [sid, name, 1, parent, 0.0, busy, busy, key, info]


def test_self_time_cache_hits_and_reuse():
    spans = [
        _span(1, "cli.main", 0, 10.0),
        _span(2, "dot_action.decompose", 1, 6.0, key="2,2"),
        _span(3, "cli.cache", 2, 4.0),
        _span(4, "betti.poincare", 3, 3.0, key="2|2,2"),
        _span(5, "cli.cache", 2, 0.5),
        _span(6, "betti.poincare", 1, 1.0, key="2|2,2"),
    ]
    m = tracer.layer_metrics(spans, untraced_wall_s=8.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["dot_action.decompose.self_s"] == pytest.approx(6.0 - 4.0 - 0.5)
    assert m["cli.cache.hits"] == 1 and m["cli.cache.misses"] == 1
    assert m["cli.cache.read_s"] == pytest.approx(0.5)
    assert m["cli.cache.write_s"] == pytest.approx(1.0)
    assert m["betti.poincare.calls"] == 2 and m["betti.poincare.distinct"] == 1
    assert m["betti.poincare.reuse"] == pytest.approx(0.5)
    assert m["trace.overhead_s"] == pytest.approx(2.0)


def test_inputs_follow_the_seed():
    base, holdout = workloads.BASELINE_SEED, workloads.HOLDOUT_SEED
    sample = workloads.seeded_functions("conj8", base, 8, 100)
    assert sample == workloads.seeded_functions("conj8", base, 8, 100)
    assert sample != workloads.seeded_functions("conj8", holdout, 8, 100)
    assert len(set(sample)) == 100
    a = workloads.build("cache8", 1, "d")
    assert len(a.calls) == a.items == workloads.CACHE8_FUNCTIONS * a.passes
    assert a.calls[: workloads.CACHE8_FUNCTIONS] * a.passes == a.calls


def test_sweep_order_matches_the_package():
    from hessenberg.roots import enumerate_hessenberg_functions

    for n in (1, 4, 8):
        expected = [h.values for h in enumerate_hessenberg_functions(n)]
        assert workloads.hessenberg_functions(n) == expected
    assert len(workloads.hessenberg_functions(8)) == 1430
    assert workloads.partition_count(10) == 42


def _child(calls, exit_code=0):
    return run.Child(0.1, exit_code, 50.0, {"calls": calls})


def test_wall_takes_out_host_steal():
    calls = [[3.0, 0, ["a"]], [1.0, 0, ["b"]]]
    stolen = run.Child(0.1, 0, 50.0, {"calls": calls}, steal_s=2.0, cpu_s=6.0)
    assert stolen.clocked_s() == 4.0
    assert stolen.wall_s() == 3.0  # 4 s clocked, 6 s of CPU given of the 8 s due
    assert run.Child(0.1, 0, 50.0, {"calls": calls}, steal_s=0.0, cpu_s=6.0).wall_s() == 4.0
    assert run.Child(0.1, 0, 50.0, {"calls": calls}).wall_s() == 4.0  # no /proc/stat


def test_check_rejects_wrong_output():
    work = workloads.build("cache8", 1, "d")
    pins = {c.pins[0]: f"sha-{c.pins[0]}" for c in work.calls}
    good = [[0.01, 0, [pins[c.pins[0]]]] for c in work.calls]
    assert run.check(work, _child(good), pins) is None
    assert "exit code" in run.check(work, _child(good, exit_code=1), pins)
    bad_read = [list(c) for c in good]
    bad_read[-1][2] = ["other"]
    assert "read pass 10 differs" in run.check(work, _child(bad_read), pins)
    bad_write = [list(c) for c in good]
    bad_write[0][2] = ["other"]
    assert "read pass 1 differs" in run.check(work, _child(bad_write), pins)
    bad_rc = [list(c) for c in good]
    bad_rc[0][1] = 3
    assert "exit code 3" in run.check(work, _child(bad_rc), pins)
    assert run.check(work, _child(good[:-1]), pins) == "no result for every call"


def test_check_matches_a_sweep_per_function():
    work = workloads.build("conj8", 1)
    (call,) = work.calls
    pins = {key: f"sha-{key}" for key in call.pins}
    digests = [pins[key] for key in call.pins]
    assert run.check(work, _child([[1.0, 0, digests]]), pins) is None
    wrong = list(digests)
    wrong[5] = "other"
    assert call.pins[5] in run.check(work, _child([[1.0, 0, wrong]]), pins)
    why = ["output that is not a verify report"]
    assert why[0] in run.check(work, _child([[1.0, 0, why]]), pins)


def test_sweep_output_splits_into_pinned_single_outputs():
    import child
    import hessenberg.cli

    subset = workloads.seeded_functions("conj8", 1, 6, 5)
    sweep = workloads.Call(("verify", "6", "conj81"), (), tuple(subset))
    _, rc, digests = child.run_call(sweep)
    assert rc == 0
    singles = [
        child.run_call(workloads.Call(("verify", ",".join(map(str, h)), "conj81"), ()))[2][0]
        for h in subset
    ]
    assert digests == singles
    assert len(list(hessenberg.cli.enumerate_hessenberg_functions(6))) == 132  # restored
    assert child.per_function_digests("{}", subset) == ["output that is not a verify report"]
