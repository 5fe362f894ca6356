import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hessenberg.cli as cli
from hessenberg import dot_action, induction, orientations, roots
from hessenberg.betti import MAX_POINCARE_N, SizeGuard
from hessenberg.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SIZE_GUARD,
    EXIT_USAGE,
    TableCache,
    main,
)
from hessenberg.dot_action import decompose
from hessenberg.partitions import partitions_of
from hessenberg.reports import CheckReport
from hessenberg.roots import (
    HessenbergError,
    enumerate_hessenberg_functions,
    ideal_of,
    negative_root_count,
    validate_hessenberg,
)

from oracles import hessenberg_values


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


def test_analyze_json():
    code, text = run_cli("analyze", "2,4,4,5,5")
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["abelian"] is False
    assert payload["height"] == 2
    assert payload["m_gamma"] == 3
    assert payload["ideal"] == [[3, 1], [4, 1], [5, 1], [5, 2], [5, 3]]


def test_analyze_edgeless_and_rank_one():
    for h_text in ("1", "1,2,3"):
        code, text = run_cli("analyze", h_text)
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["m_gamma"] == payload["n"]
        assert all(entry["h_T"] == [] for entry in payload["max_sink_sets"])


def test_analyze_usage_error_on_bad_h():
    code, _ = run_cli("analyze", "2,1")
    assert code == EXIT_USAGE
    code, _ = run_cli("analyze", "2,x")
    assert code == EXIT_USAGE


def test_decompose_json_matches_library():
    code, text = run_cli("decompose", "2,3,4,4")
    assert code == EXIT_OK
    payload = json.loads(text)
    expected = decompose(validate_hessenberg([2, 3, 4, 4])).to_json_dict()
    for key, value in expected.items():
        assert payload[key] == value
    assert payload["e_positive"] is True


def test_decompose_csv():
    code, text = run_cli("--format", "csv", "decompose", "2,3,4,4")
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == "degree,lambda,c,d"
    assert '1,"3,1",1,2' in lines


def test_decompose_size_guard():
    code, _ = run_cli("--max-n", "5", "decompose", "3,4,5,6,6,6")
    assert code == EXIT_SIZE_GUARD


def test_betti_single_nu():
    code, text = run_cli("betti", "2,3,4,4", "--nu", "4")
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload == [{"nu": [4], "h": [2, 3, 4, 4], "coeffs": [1, 3, 3, 1]}]


def test_orientations_single_edge():
    code, text = run_cli("orientations", "2,2")
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload == [
        {"edges": [[1, 2, "←"]], "sinks": [1], "asc": 0},
        {"edges": [[1, 2, "→"]], "sinks": [2], "asc": 1},
    ]


def test_enumerate():
    code, text = run_cli("enumerate", "2")
    assert code == EXIT_OK
    assert json.loads(text) == [[1, 2], [2, 2]]


def test_verify_single_h_passes():
    code, text = run_cli("verify", "3,4,5,6,6,6", "thm61")
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == 1
    assert payload["reports"][0]["check"] == "two_part_induction"


def test_verify_conjecture_on_n7_example():
    code, text = run_cli("verify", "3,4,5,6,7,7,7", "conj81")
    assert code == EXIT_OK
    payload = json.loads(text)
    report = payload["reports"][0]
    assert report["check"] == "maximal_sink_conjecture"
    assert report["passed"] is True
    assert report["params"]["sink_sets"] == [
        {"T": [1, 4, 7], "deg": 4, "h_T": [2, 3, 4, 4]}
    ]


def test_verify_sweep_exit_zero():
    code, text = run_cli("verify", "3", "all")
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] > 0


# "3" sweeps the 5 functions on [3], on forked workers when there are two CPUs
STUB_TARGETS = (("2,2", 1), ("3", 5))


def test_verify_exit_code_three_on_theorem_failure(monkeypatch):
    def fake_reports(h, which):
        return [CheckReport("stub", {"h": list(h.values)}, passed=False)]

    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_reports_for", fake_reports)
    for target, functions in STUB_TARGETS:
        code, text = run_cli("verify", target)
        assert code == EXIT_CHECK_FAILED
        assert json.loads(text)["summary"]["failed"] == functions


def test_verify_conjecture_finding_keeps_exit_zero(monkeypatch):
    def fake_reports(h, which):
        return [CheckReport("stub", {}, passed=False, conjecture=True)]

    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_reports_for", fake_reports)
    for target, functions in STUB_TARGETS:
        code, text = run_cli("verify", target)
        assert code == EXIT_OK
        assert json.loads(text)["summary"]["findings"] == functions


SWEEPS = (
    ("verify", "5", "all"),
    ("verify", "6", "conj81"),
    ("--format", "pretty", "verify", "5", "all"),
)


@pytest.mark.parametrize("argv", SWEEPS, ids=" ".join)
def test_verify_output_is_the_same_for_any_worker_count(monkeypatch, argv):
    # 8 workers, more than a CI runner has CPUs, all take chunk numbers from one pipe
    outputs = []
    for workers in (1, 2, 3, 8):
        monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
        outputs.append(run_cli(*argv))
    assert outputs[0][0] == EXIT_OK
    assert outputs[1:] == [outputs[0]] * 3


VERIFY_7_ALL_SHA256 = "cef194fd57210a7674c2883951ddad8b772ffaab1bcd0dfcb2c8c184fcfd609c"
# --max-n 8 verify 8 conj81 reads the decompositions of h_T up to n = 7; the sweep of
# verify 7 all reads them up to n = 6 only
VERIFY_8_CONJ81_SHA256 = "0b6de8a67907e0770db2317832bfdc9468c23652da29003c5f1b043da48de096"


@pytest.mark.parametrize("workers", (1, 2))
def test_verify_7_all_output_is_pinned(monkeypatch, workers):
    # the digest perfbench pins for its sweep7 workload, here in tier 1
    monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
    code, text = run_cli("verify", "7", "all")
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_7_ALL_SHA256


# each suite alone reads its own subset of the layers and decompositions that all reads
VERIFY_7_SUITE_SHA256 = {
    "thm61": "e8fa2382db16bcc8ce56ac20c9e9c26065e717310cb5700271aa27776b6ab25f",
    "prop72": "5701afda7ca91f92469d19df17f54d3e6bd325b97f38ac54477484f897c0f1a5",
    "prop73": "48e9a2a7e15e5cf33964204259efc2840cd75409f922e75b43344447ffaa382f",
    "oracles": "c883477686bb632d6f6dd09d6b57ac25e929ad6abad8c5d67101527ec9e51da0",
    "conj81": "1d239a122e13944f47c5507ede30531228edb4f7047d5192ff0a685a328b5b71",
}


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("suite", sorted(VERIFY_7_SUITE_SHA256))
def test_verify_7_suite_output_is_pinned(monkeypatch, suite, workers):
    monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
    code, text = run_cli("verify", "7", suite)
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_7_SUITE_SHA256[suite]


@pytest.mark.parametrize("workers", (1, 2))
def test_verify_8_conj81_output_is_pinned(monkeypatch, workers):
    # the command of perfbench's conj8 workload, over every h at n = 8
    monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
    code, text = run_cli("--max-n", "8", "verify", "8", "conj81")
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_8_CONJ81_SHA256


# every h at n <= 6 in enumerate order, then three wider h at n = 7 and 8
BETTI_PIN_H = [
    ",".join(map(str, h.values)) for n in range(1, 7) for h in enumerate_hessenberg_functions(n)
] + ["3,4,5,6,7,7,7", "2,3,4,5,6,7,8,8", "8,8,8,8,8,8,8,8"]
BETTI_PIN_SHA256 = "877c2aee458afa8518539f176e79877b207d30392ca750dffbde5a7bb8bc64bf"


def test_betti_and_decompose_output_is_pinned():
    # per h and format: betti, decompose and betti --nu 1,...,1, each followed by its exit code
    out = io.StringIO()
    for h in BETTI_PIN_H:
        ones = ",".join(["1"] * (h.count(",") + 1))
        for fmt in ("json", "csv", "pretty"):
            for argv in (["betti", h], ["decompose", h], ["betti", h, "--nu", ones]):
                code = main(["--max-n", "8", "--format", fmt, *argv], out)
                out.write(f"rc={code}\n")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == BETTI_PIN_SHA256


# every h at n <= 6 in enumerate order, then the n = 7 example and the complete graph at n = 8
ANALYZE_PIN_H = BETTI_PIN_H[:-3] + ["3,4,5,6,7,7,7", "8,8,8,8,8,8,8,8"]
ANALYZE_PIN_SHA256 = "dddb9f76148b55b5fa755ef3aa0a9d446a43614be46a31710acc37ec96a2cb95"


def test_analyze_output_is_pinned():
    # per h and format, analyze followed by its exit code: m_gamma, SK_k and the h_T
    out = io.StringIO()
    for h in ANALYZE_PIN_H:
        for fmt in ("json", "pretty"):
            code = main(["--max-n", "8", "--format", fmt, "analyze", h], out)
            out.write(f"rc={code}\n")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ANALYZE_PIN_SHA256


def _engine_calls(monkeypatch, n, suite):
    """Run verify n suite at one worker from empty memos. Return the decompositions calls made by
    cli for a chunk's own h ("chunk") and by induction for a sink-set layer ("layer"),
    each as (kind, its h, the set of h that its engine passes built), after checking
    that every engine pass is made by one of them, that a layer's h_T share one n below
    the sweep's and reach the engine in at most one pass, and that no h reaches the
    engine twice: the checks build none of the chunk's own h."""
    calls, current = [], [("outside", [], [])]
    engine = dot_action.poincare_arrays

    def engine_pass(hs, order):
        current[-1][2].append(hs)
        return engine(hs, order)

    def marked(kind, real):
        def wrapper(hs):
            current.append((kind, list(hs), []))
            try:
                return real(hs)
            finally:
                calls.append(current.pop())

        return wrapper

    monkeypatch.setattr(dot_action, "poincare_arrays", engine_pass)
    monkeypatch.setattr(cli, "decompositions", marked("chunk", cli.decompositions))
    monkeypatch.setattr(induction, "decompositions", marked("layer", induction.decompositions))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    monkeypatch.setattr(dot_action, "_decompositions", {})
    induction._sink_layer.cache_clear()
    assert run_cli("verify", str(n), suite)[0] == EXIT_OK
    assert current == [("outside", [], [])]
    for kind, hs, passes in calls:
        if kind == "layer":
            assert len({h.n for h in hs}) <= 1 and all(h.n < n for h in hs)
            assert len(passes) <= 1
    built = [h for _, _, passes in calls for hs in passes for h in hs]
    assert len(built) == len(set(built))
    return [(kind, hs, set().union(*passes)) for kind, hs, passes in calls]


def test_verify_chunk_builds_its_tables_in_one_call(monkeypatch):
    # one decompositions call per chunk of 11 h builds every h of the chunk; each layer
    # that the checks read builds its h_T in one call of its own
    calls = _engine_calls(monkeypatch, 5, "all")
    functions = list(enumerate_hessenberg_functions(5))
    chunks = [functions[i : i + 11] for i in range(0, 42, 11)]
    assert [(hs, built) for kind, hs, built in calls if kind == "chunk"] == [
        (chunk, set(chunk)) for chunk in chunks
    ]


def test_verify_thm61_builds_each_layer_in_one_engine_call_per_n(monkeypatch):
    # thm61 reads the decompositions of the abelian h and of the h_T of their SK_2 only:
    # each chunk's call builds its abelian h, and each SK_2 layer is read once
    calls = _engine_calls(monkeypatch, 7, "thm61")
    functions = list(enumerate_hessenberg_functions(7))
    chunks = [functions[i : i + 108] for i in range(0, 429, 108)]
    own = [[h for h in chunk if roots.is_abelian(h)] for chunk in chunks]
    assert [(hs, built) for kind, hs, built in calls if kind == "chunk"] == [
        (hs, set(hs)) for hs in own
    ]
    assert sum(kind == "layer" for kind, _, _ in calls) == sum(map(len, own))


def test_verify_sweep_builds_each_fact_once(monkeypatch):
    # the checks of each h read SK_k and the abelian test from their bounded memos,
    # so none is built again
    sink_calls, sums = [], []
    real_sink_sets, real_root_sum = orientations.sink_sets, roots.root_sum

    def sink_sets(graph, k):
        sink_calls.append((graph.h, k))
        return real_sink_sets(graph, k)

    for module in (orientations, induction, cli):
        monkeypatch.setattr(module, "sink_sets", sink_sets)
    monkeypatch.setattr(roots, "root_sum", lambda a, b: sums.append(1) or real_root_sum(a, b))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    induction._sink_layer.cache_clear()
    roots.is_abelian.cache_clear()
    assert run_cli("verify", "6", "all")[0] == EXIT_OK
    swept = len(sums)
    functions = list(enumerate_hessenberg_functions(6))
    read = {(h, orientations.max_sink_set_size(h)) for h in functions}
    read |= {(h, 2) for h in functions if roots.is_abelian(h)}
    assert sorted(sink_calls, key=repr) == sorted(read, key=repr)
    # one abelian test per h: |I_h|^2 root sums for an abelian h, and for the
    # others as many as the test makes before it finds a sum that is a root
    expected = 0
    for h in functions:
        before = len(sums)
        abelian = roots.is_abelian.__wrapped__(h)
        assert not abelian or len(sums) - before == len(ideal_of(h)) ** 2
        expected += len(sums) - before
    assert swept == expected


def _stub_reports(h, which):
    """Nested failures, non-ASCII text, and no report at all for h(1) = 3."""
    if h(1) == 3:
        return []
    failures = [
        {
            "location": {"lambda": [2, 1], "degree": 1},
            "expected": {"t → t": [1, [2, {}]]},
            "actual": [],
        },
        {"location": {"polynomial": "Φ_h⁻"}, "expected": [], "actual": None},
    ]
    return [
        CheckReport("Φ check", {"h": list(h.values), "T": []}, False, failures=failures),
        CheckReport("stub", {"h": list(h.values)}, h(1) == 1, conjecture=True),
    ]


@pytest.mark.parametrize("stub", [_stub_reports, lambda h, which: []], ids=["reports", "none"])
def test_verify_json_joined_from_worker_text_is_one_json_dump(monkeypatch, stub):
    reports = [r for h in enumerate_hessenberg_functions(3) for r in stub(h, "all")]
    payload = {
        "reports": [r.to_json_dict() for r in reports],
        "summary": {
            "total": len(reports),
            "passed": sum(r.passed for r in reports),
            "failed": sum(not r.passed and not r.conjecture for r in reports),
            "findings": sum(not r.passed and r.conjecture for r in reports),
        },
    }
    expected = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    monkeypatch.setattr(cli, "_reports_for", stub)
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
        assert run_cli("verify", "3")[1] == expected


@pytest.mark.parametrize("values, layers", [((3, 4, 5, 6, 6, 6), {2}), ((4, 4, 4, 4), {1, 2})])
def test_verify_of_one_abelian_h_builds_each_fact_once(monkeypatch, values, layers):
    # every check of h reads SK_k with its layer sum S, is_abelian(h) and its
    # orientation histogram; each is built once per h
    h = validate_hessenberg(values)
    calls = []

    def counted(real, name):
        def wrapper(*args):
            calls.append((name,) + args[1:])
            return real(*args)

        return wrapper

    sink_sets = counted(orientations.sink_sets, "sink_sets")
    for module in (orientations, induction, cli):
        monkeypatch.setattr(module, "sink_sets", sink_sets)
    monkeypatch.setattr(roots, "root_sum", counted(roots.root_sum, "root_sum"))
    monkeypatch.setattr(induction, "decompositions", counted(induction.decompositions, "h_T"))
    histograms = []
    real_histogram = dot_action._sink_set_polynomials
    monkeypatch.setattr(
        dot_action, "_sink_set_polynomials", lambda g: histograms.append(g) or real_histogram(g)
    )
    induction._sink_layer.cache_clear()
    roots.is_abelian.cache_clear()
    dot_action.orientation_histogram.cache_clear()
    assert run_cli("verify", ",".join(map(str, values)), "all")[0] == EXIT_OK
    assert sorted(call[1] for call in calls if call[0] == "sink_sets") == sorted(layers)
    # S of each layer is summed once, from one decompositions call of its h_T
    assert induction._sink_layer.cache_info().misses == len(layers)
    assert sum(name == "h_T" for name, *_ in calls) == len(layers)
    # prop72 and the orientation check share one orientation histogram of h
    assert histograms == [h]
    # the pairwise abelian test sums every ordered pair of roots of I_h once
    assert sum(name == "root_sum" for name, *_ in calls) == len(ideal_of(h)) ** 2


@pytest.mark.parametrize(
    "error, code, line",
    [
        (HessenbergError("bad h"), EXIT_USAGE, "hessenberg: invalid input: bad h"),
        (SizeGuard("too big"), EXIT_SIZE_GUARD, "hessenberg: size guard: too big"),
    ],
)
def test_verify_error_in_a_worker_is_one_line(monkeypatch, capsys, error, code, line):
    def failing_reports(h, which):
        if h.values == (4, 4, 4, 4):  # the last h of the sweep, in the last chunk
            raise error
        return []

    monkeypatch.setattr(cli, "_reports_for", failing_reports)
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
        assert run_cli("verify", "4") == (code, "")
        assert capsys.readouterr().err == line + "\n"
        assert_no_child_left()


def test_verify_other_error_in_a_worker_propagates(monkeypatch):
    def failing_reports(h, which):
        if h.values == (3, 3, 3):
            raise ValueError(f"no reports for {list(h.values)}")
        return []

    monkeypatch.setattr(cli, "_reports_for", failing_reports)
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
        with pytest.raises(ValueError, match=r"^no reports for \[3, 3, 3\]$"):
            run_cli("verify", "3")
        assert_no_child_left()


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_a_child(monkeypatch, fail):
    """Patch _chunk_reports so that a forked child calls fail() on the first chunk it takes,
    while the caller's first chunk waits, without reaping it, until a child has ended. So on
    two CPUs the child is sure to take a chunk before the caller has taken them all."""
    caller = os.getpid()
    real = cli._chunk_reports

    def chunk_reports(chunk, which):
        if os.getpid() != caller:
            fail()
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return real(chunk, which)

    monkeypatch.setattr(cli, "_chunk_reports", chunk_reports)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)


def test_verify_worker_that_ends_without_reports_is_one_line(monkeypatch, capsys):
    fail_in_a_child(monkeypatch, lambda: os._exit(1))
    assert run_cli("verify", "4") == (EXIT_USAGE, "")
    line = r"hessenberg: verify worker \d+ ended without reports, exit status 1\n"
    assert re.fullmatch(line, capsys.readouterr().err)
    assert_no_child_left()


def test_verify_worker_error_that_cannot_be_pickled_is_a_runtime_error(monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def fail():
        raise LocalError("boom")

    fail_in_a_child(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"^.*LocalError\('boom'\)$") as info:
        run_cli("verify", "4")
    # the child's traceback comes back as the cause
    assert "in verify worker" in str(info.value.__cause__)
    assert "LocalError: boom" in str(info.value.__cause__)
    assert_no_child_left()


def test_verify_on_three_cpus_forks_two_children(monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    expected = run_cli("verify", "5", "all")
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    assert run_cli("verify", "5", "all") == expected
    assert len(forks) == 2
    assert_no_child_left()


def test_verify_without_fork_runs_in_the_calling_process(monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    expected = run_cli("verify", "5", "all")
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    assert run_cli("verify", "5", "all") == expected


def test_importing_the_cli_loads_no_process_pool():
    # nor does a verify sweep on two workers
    code = (
        "import io, sys, hessenberg.cli as cli; "
        "loaded = lambda: sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)); "
        "print(loaded()); "
        "cli._cpu_count = lambda: 2; "
        "print(cli.main(['verify', '4', 'all'], io.StringIO()), loaded())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n0 []\n"


def test_parser_is_built_once_and_not_at_import():
    code = """
import argparse, io, json
built = [0]
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built[0] += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import hessenberg.cli as cli
at_import = (built[0], cli.build_parser.cache_info().currsize)
argvs = (["enumerate", "3"], ["decompose", "2,3,3"], ["betti", "2,3,3"])
codes = [cli.main(argv, io.StringIO()) for argv in argvs]
info = cli.build_parser.cache_info()
print(json.dumps([at_import, codes, built[0], info.misses, info.hits]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    # nothing built at import; then one parser and its six subcommand parsers, once
    assert json.loads(done.stdout) == [[0, 0], [0, 0, 0], 7, 1, 2]


CALL_SEQUENCE = (
    ("--max-n", "0", "enumerate", "3"),
    ("--help",),
    ("--format", "pretty", "decompose", "2,3,3"),
    ("decompose", "2,3,3"),
    ("betti", "2,3,3", "--nu", "2,1"),
    ("betti", "2,3,3"),
    ("--max-n", "3", "enumerate", "4"),
    ("--help",),
)


def _call(argv, capsys):
    """(exit code or ("SystemExit", code), out, stdout, stderr) of one main() call."""
    out = io.StringIO()
    try:
        code = main(list(argv), out)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, out.getvalue(), captured.out, captured.err


def test_calls_in_one_process_do_not_leak_into_each_other(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()  # the sequence starts with the first build
    reused = [_call(argv, capsys) for argv in CALL_SEQUENCE]
    assert cli.build_parser.cache_info().misses == 1

    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_call(argv, capsys) for argv in CALL_SEQUENCE]
    assert reused == fresh

    usage, first_help, pretty, plain, one_nu, all_nu, guard, later_help = reused
    assert usage[0] == ("SystemExit", EXIT_USAGE)
    assert usage[3].endswith("hessenberg: error: --max-n must be at least 1\n")
    assert first_help[0] == ("SystemExit", 0) and first_help[2].startswith("usage: hessenberg")
    assert later_help == first_help
    assert pretty[0] == EXIT_OK and pretty[1].startswith("h = (2,3,3)")
    assert plain[0] == EXIT_OK and json.loads(plain[1])["h"] == [2, 3, 3]
    assert json.loads(one_nu[1])[0]["nu"] == [2, 1]
    assert [entry["nu"] for entry in json.loads(all_nu[1])] == [[3], [2, 1], [1, 1, 1]]
    assert guard[0] == EXIT_SIZE_GUARD and guard[3].startswith("hessenberg: size guard: ")


def test_verify_usage_error():
    code, _ = run_cli("verify", "abc")
    assert code == EXIT_USAGE


BEYOND_ENGINE = ",".join([str(MAX_POINCARE_N + 1)] * (MAX_POINCARE_N + 1))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("betti", "2,3,3", "--nu", "2,x"), EXIT_USAGE),
        (("betti", "2,3,3", "--nu", "5"), EXIT_USAGE),
        (("betti", "2,3,3", "--nu", "2,-1,2"), EXIT_USAGE),
        (("verify", "0"), EXIT_USAGE),
        (("verify", "-3"), EXIT_USAGE),
        (("enumerate", "0"), EXIT_USAGE),
        (("--max-n", "20", "betti", BEYOND_ENGINE), EXIT_SIZE_GUARD),
        (("--max-n", "20", "decompose", BEYOND_ENGINE), EXIT_SIZE_GUARD),
        (("--max-n", "20", "verify", str(MAX_POINCARE_N + 1)), EXIT_SIZE_GUARD),
        (("--cache-dir", __file__, "decompose", "2,2"), EXIT_USAGE),  # a file, not a dir
        (("--format", "csv", "verify", "3"), EXIT_USAGE),
        (("--format", "csv", "orientations", "2,2"), EXIT_USAGE),
    ],
)
def test_bad_input_fails_with_one_line(argv, expected, capsys):
    code, text = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == expected
    assert text == captured.out == ""
    assert captured.err.startswith("hessenberg: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


GARBAGE = st.text(alphabet="0123456789,-x", max_size=8)


@st.composite
def cli_argv(draw):
    """A command line at n <= 5: mostly well formed, sometimes not."""
    values = draw(hessenberg_values(5))
    h = draw(st.one_of(st.just(",".join(map(str, values))), GARBAGE))
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "pretty", "xml"]))]
    if draw(st.booleans()):
        argv += ["--max-n", str(draw(st.integers(-1, 6)))]
    command = draw(
        st.sampled_from(["analyze", "decompose", "betti", "orientations", "verify", "enumerate"])
    )
    if command == "verify":
        argv += ["verify", draw(st.sampled_from([h, str(len(values))]))]
        argv += draw(st.lists(st.sampled_from(["all", "thm61", "conj81", "bogus"]), max_size=1))
    elif command == "enumerate":
        argv += ["enumerate", draw(st.one_of(st.integers(-2, 5).map(str), GARBAGE))]
    else:
        argv += [command, h]
    if command == "betti" and draw(st.booleans()):
        argv += ["--nu", draw(st.one_of(st.just(str(len(values))), GARBAGE))]
    return argv


@settings(max_examples=60, deadline=None)
@given(cli_argv())
def test_main_never_raises_on_fuzzed_argv(argv):
    try:
        code = main(argv, io.StringIO())
    except SystemExit:  # argparse rejected the command line
        return
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_SIZE_GUARD, EXIT_CHECK_FAILED)


def _cached_runs(cache_dir, *argv):
    """stdout of argv uncached, then on a first and a second run with cache_dir."""
    return [
        run_cli(*argv),
        run_cli("--cache-dir", str(cache_dir), *argv),
        run_cli("--cache-dir", str(cache_dir), *argv),
    ]


SMALL_H = [
    ",".join(map(str, h.values)) for n in range(1, 5) for h in enumerate_hessenberg_functions(n)
]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
@pytest.mark.parametrize("h", SMALL_H)
def test_cache_reproduces_uncached_for_every_small_h(tmp_path, capsys, h, fmt):
    cache_dir = tmp_path / "cache"
    for command in ("decompose", "betti"):
        plain, first, second = _cached_runs(cache_dir, "--format", fmt, command, h)
        assert plain[0] == EXIT_OK and first == second == plain
    assert [p.name for p in cache_dir.iterdir()] == [f"{h}.json"]
    assert capsys.readouterr().err == ""


def test_cache_reproduces_uncached(tmp_path):
    cache_dir = tmp_path / "cache"
    for h in ("2,3,4,4", "2,3,4,5,5"):
        for fmt in ("json", "csv", "pretty"):
            for command in ("decompose", "betti"):
                plain, first, second = _cached_runs(cache_dir, "--format", fmt, command, h)
                assert first == second == plain
    assert sorted(p.name for p in cache_dir.iterdir()) == ["2,3,4,4.json", "2,3,4,5,5.json"]


def test_cache_object_round_trip(tmp_path):
    cache = TableCache(tmp_path / "c")
    h = validate_hessenberg([3, 4, 5, 5, 5])
    direct = decompose(h)
    for _ in range(2):  # a miss that writes the entry, then a hit
        dec = cache.decompose(h)
        assert dec == direct
        assert dec.table.tolist() == direct.table.tolist()
    payload = json.loads((tmp_path / "c" / "3,4,5,5,5.json").read_text())
    rows = direct.table.tolist()
    digest = hashlib.sha256(json.dumps([[3, 4, 5, 5, 5], rows]).encode()).hexdigest()
    assert payload == {"h": [3, 4, 5, 5, 5], "rows": rows, "sha256": digest}


def test_cache_betti_nu_creates_no_file(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    plain = run_cli("betti", "2,3,4,5,5", "--nu", "3,0,2")
    assert run_cli("--cache-dir", str(cache_dir), "betti", "2,3,4,5,5", "--nu", "3,0,2") == plain
    assert list(cache_dir.iterdir()) == []


def test_cache_ignores_old_layout_entries(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    key = {"n": 3, "h": [2, 3, 3], "nu": [2, 1]}  # one polynomial per (n, h, nu), sha256-named
    old = cache_dir / f"{hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()}.json"
    old_text = json.dumps({"key": key, "coeffs": [9, 9, 9]})
    old.write_text(old_text)
    plain, first, second = _cached_runs(cache_dir, "decompose", "2,3,3")
    assert first == second == plain
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted([old.name, "2,3,3.json"])
    assert old.read_text() == old_text


# one h per kind of damage; each run below must warn once per entry
DAMAGE = {
    "2,3,4,4": ("unreadable", lambda good: json.dumps(good)[:7]),
    "3,3,4,4": ("another h", lambda good: json.dumps({**good, "h": [2, 3, 4, 4]})),
    "2,4,4,4": ("malformed", lambda good: json.dumps({**good, "rows": good["rows"][1:]})),
    "3,4,4,4": (
        "malformed",
        lambda good: json.dumps({**good, "rows": [r[:-1] for r in good["rows"]]}),
    ),
    "4,4,4,4": (
        "malformed",
        lambda good: json.dumps({**good, "rows": [[1.0] + r[1:] for r in good["rows"]]}),
    ),
    # well formed, but rows[0][0] is one too high: solved, it prints c_{(2,1),0} = -3
    "2,3,3": (
        "sha256",
        lambda good: json.dumps(
            {**good, "rows": [[r[0] + (i == 0)] + r[1:] for i, r in enumerate(good["rows"])]}
        ),
    ),
    "3,3,3": ("sha256", lambda good: json.dumps({k: v for k, v in good.items() if k != "sha256"})),
    # rows[0][0] is 2**63, one beyond int64, under a sha256 recomputed to match it
    "2,2,4,4": ("malformed", lambda good: _redigested(good, [[2**63] + good["rows"][0][1:]])),
    # checksummed, but rows[0][0] lies outside 0..n!: solved, 2**62 gives no integral c
    # and -1 gives a negative c for an abelian h
    "2,2,3": ("malformed", lambda good: _redigested(good, [[2**62] + good["rows"][0][1:]])),
    "1,3,3": ("malformed", lambda good: _redigested(good, [[-1] + good["rows"][0][1:]])),
}


def _redigested(good, first_rows):
    """The entry good with its leading rows replaced and its sha256 recomputed to match."""
    rows = first_rows + good["rows"][len(first_rows) :]
    digest = hashlib.sha256(json.dumps([good["h"], rows]).encode()).hexdigest()
    return json.dumps({**good, "rows": rows, "sha256": digest})


def test_cache_damaged_entries_are_misses(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    plain = {h: run_cli("decompose", h) for h in DAMAGE}
    for h in DAMAGE:
        assert run_cli("--cache-dir", str(cache_dir), "decompose", h) == plain[h]
    good = {h: (cache_dir / f"{h}.json").read_text() for h in DAMAGE}
    for h, (_, damage) in DAMAGE.items():
        (cache_dir / f"{h}.json").write_text(damage(json.loads(good[h])))
    capsys.readouterr()

    for h, (problem, _) in DAMAGE.items():
        assert run_cli("--cache-dir", str(cache_dir), "decompose", h) == plain[h]
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        assert f"{h}.json" in warnings[0] and problem in warnings[0]

    # every entry was rewritten, and no temporary file is left behind
    for h in DAMAGE:
        assert run_cli("--cache-dir", str(cache_dir), "decompose", h) == plain[h]
        assert (cache_dir / f"{h}.json").read_text() == good[h]
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in cache_dir.iterdir()) == sorted(f"{h}.json" for h in DAMAGE)


def test_cache_entry_beyond_the_engine_bound_is_not_read(tmp_path, capsys):
    # a well-formed, checksummed entry of all-zero rows past the engine's bound: the size
    # guard comes before the cache, as it does without the entry
    h = validate_hessenberg([MAX_POINCARE_N + 1] * (MAX_POINCARE_N + 1))
    rows = [[0] * (negative_root_count(h) + 1) for _ in partitions_of(h.n)]
    text = ",".join(map(str, h.values))
    (tmp_path / f"{text}.json").write_text(_redigested({"h": list(h.values), "rows": rows}, []))
    for command in ("decompose", "betti"):
        code, out = run_cli("--max-n", str(h.n), "--cache-dir", str(tmp_path), command, text)
        captured = capsys.readouterr()
        assert (code, out, captured.out) == (EXIT_SIZE_GUARD, "", "")
        assert captured.err.startswith("hessenberg: size guard: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_run_silently():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hessenberg.cli", "verify", "6", "all"],  # far over a pipe's buffer
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (-signal.SIGPIPE, b"")
        with pytest.raises(ProcessLookupError):  # no worker is left in the run's process group
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
