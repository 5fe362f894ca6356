import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from hessenberg.betti import MAX_POINCARE_N
from hessenberg.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SIZE_GUARD,
    EXIT_USAGE,
    BettiCache,
    main,
)
from hessenberg.betti import poincare_polynomial
from hessenberg.dot_action import decompose
from hessenberg.reports import CheckReport
from hessenberg.roots import validate_hessenberg

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


def test_verify_exit_code_three_on_theorem_failure(monkeypatch):
    import hessenberg.cli as cli

    def fake_reports(h, which):
        return [CheckReport("stub", {"h": list(h.values)}, passed=False)]

    monkeypatch.setattr(cli, "_reports_for", fake_reports)
    code, text = run_cli("verify", "2,2")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(text)["summary"]["failed"] == 1


def test_verify_conjecture_finding_keeps_exit_zero(monkeypatch):
    import hessenberg.cli as cli

    def fake_reports(h, which):
        return [CheckReport("stub", {}, passed=False, conjecture=True)]

    monkeypatch.setattr(cli, "_reports_for", fake_reports)
    code, text = run_cli("verify", "2,2")
    assert code == EXIT_OK
    assert json.loads(text)["summary"]["findings"] == 1


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


def test_cache_reproduces_uncached(tmp_path):
    cache_dir = tmp_path / "cache"
    first = run_cli("--cache-dir", str(cache_dir), "betti", "2,3,4,4")
    second = run_cli("--cache-dir", str(cache_dir), "betti", "2,3,4,4")
    plain = run_cli("betti", "2,3,4,4")
    assert first == second == plain
    assert len(list(cache_dir.glob("*.json"))) == 5

    cached_dec = run_cli("--cache-dir", str(cache_dir), "decompose", "2,3,4,4")
    plain_dec = run_cli("decompose", "2,3,4,4")
    assert cached_dec == plain_dec


def test_cache_object_round_trip(tmp_path):
    cache = BettiCache(tmp_path / "c")
    h = validate_hessenberg([3, 4, 5, 5, 5])
    direct = poincare_polynomial((3, 2), h)
    assert cache.poincare((3, 2), h).coeffs == direct.coeffs
    assert cache.poincare((3, 2), h).coeffs == direct.coeffs  # cache hit


def test_cache_damaged_entries_are_misses(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    plain = run_cli("decompose", "2,2")
    assert run_cli("--cache-dir", str(cache_dir), "decompose", "2,2") == plain
    first, second = sorted(cache_dir.glob("*.json"))
    good = json.loads(first.read_text())
    first.write_text(first.read_text()[:7])  # truncated
    second.write_text(json.dumps({**good, "coeffs": [9, 9]}))  # the other entry's key
    capsys.readouterr()

    assert run_cli("--cache-dir", str(cache_dir), "decompose", "2,2") == plain
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    assert any(first.name in w and "unreadable" in w for w in warnings)
    assert any(second.name in w and "another key" in w for w in warnings)

    # both entries were rewritten, and no temporary file is left behind
    assert run_cli("--cache-dir", str(cache_dir), "decompose", "2,2") == plain
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in cache_dir.iterdir()) == [first.name, second.name]
