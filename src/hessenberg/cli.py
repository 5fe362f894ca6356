"""Command-line front end: analyze, decompose, betti, orientations, verify, enumerate.

Exit codes: 0 success; 1 usage error, invalid input or a verify worker that ended
without reports; 2 size guard (n above --max-n, or above the Poincaré engine's bound for
decompose, betti and verify); 3 theorem-check failure. Errors print one line to stderr.
Conjecture findings are reported but never fail the exit code; a closed stdout ends the run
silently by SIGPIPE. `verify n` checks its sweep as chunks of h, which this process and one
forked child per further CPU take from a pipe, and prints the reports in sweep order.

As a library, main(argv, out) may be called many times in one process: the parser is
built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import signal
import sys
from functools import lru_cache
from typing import Any, NamedTuple, NoReturn, Optional, Sequence

from .betti import SizeGuard, poincare_polynomial, poincare_size_guard
from .dot_action import (
    CHROMATIC_MAX_N,
    chromatic_check,
    decompose,
    decompositions,
    e_positivity_report,
    gasharov_check,
    orientation_count_check,
)
from .induction import (
    check_maximal_sink_conjecture,
    check_nilpotent_poincare_recursion,
    check_regular_poincare_recursion,
    check_two_part_induction,
)
from .orientations import (
    build_graph,
    enumerate_acyclic_orientations,
    max_sink_set_size,
    restrict,
    sink_sets,
)
from .reports import CheckReport
from .roots import (
    HessenbergError,
    HessenbergFunction,
    enumerate_hessenberg_functions,
    ideal_of,
    is_abelian,
    is_strictly_negative,
    lower_central_series,
    validate_hessenberg,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIZE_GUARD = 2
EXIT_CHECK_FAILED = 3

WHICH_CHOICES = ("all", "thm61", "prop72", "prop73", "conj81", "oracles")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise HessenbergError(f"cannot parse {what} {text!r} as comma-separated integers") from exc


def _parse_h(text: str) -> HessenbergFunction:
    return validate_hessenberg(_parse_ints(text, "h"))


def _parse_composition(text: str, n: int) -> tuple[int, ...]:
    parts = tuple(_parse_ints(text, "--nu"))
    if min(parts) < 0 or sum(parts) != n:
        raise HessenbergError(f"--nu {text} is not a composition of {n} into nonnegative parts")
    return parts


_JSON_OPTIONS = {"sort_keys": True, "ensure_ascii": False, "indent": 2}


def _emit_json(payload, out) -> None:
    json.dump(payload, out, **_JSON_OPTIONS)
    out.write("\n")


def _partition_key(lam: Sequence[int]) -> str:
    return ",".join(map(str, lam))


def _guard(n: int, max_n: int) -> None:
    if n > max_n:
        raise SizeGuard(f"n={n} exceeds --max-n={max_n}")


def cmd_analyze(args, out) -> int:
    h = _parse_h(args.h)
    _guard(h.n, args.max_n)
    graph = build_graph(h)
    ideal = ideal_of(h)
    report = lower_central_series(ideal)
    m = max_sink_set_size(h)
    sk = {k: sink_sets(graph, k) for k in range(1, m + 1)}
    payload = {
        "h": list(h.values),
        "n": h.n,
        "edges": len(graph.edges),
        "ideal": [list(r) for r in ideal],
        "abelian": is_abelian(h),
        "strictly_negative": is_strictly_negative(h),
        "height": report.height,
        "m_gamma": m,
        "sink_set_sizes": {str(k): len(v) for k, v in sk.items()},
        "max_sink_sets": [
            {
                "T": list(t.vertices),
                "deg": t.degree,
                "h_T": list(restrict(graph, t).values) if m < h.n else [],
            }
            for t in sk[m]
        ],
    }
    if args.format == "pretty":
        out.write(f"h = {h}  (n = {h.n}, |Phi_h^-| = {payload['edges']})\n")
        out.write(f"ideal I_h = {payload['ideal']}\n")
        out.write(
            f"abelian: {payload['abelian']}   strictly negative: "
            f"{payload['strictly_negative']}   height: {payload['height']}   "
            f"m(Gamma_h): {m}\n"
        )
        out.write(f"sink-set counts by size: {payload['sink_set_sizes']}\n")
        for entry in payload["max_sink_sets"]:
            out.write(f"  T={entry['T']} deg={entry['deg']} h_T={entry['h_T']}\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def cmd_decompose(args, out) -> int:
    h = _parse_h(args.h)
    _guard(h.n, args.max_n)
    poincare_size_guard(h.n)
    dec = decompose(h)
    positivity = e_positivity_report(h, dec)
    c = dec.c.tolist()
    if args.format == "csv":
        d = dec.d.tolist()
        writer = csv.writer(out)
        writer.writerow(["degree", "lambda", "c", "d"])
        for i in dec.degrees:
            for pi, lam in enumerate(dec.order.partitions):
                if c[i][pi] or d[i][pi]:
                    writer.writerow([i, _partition_key(lam), c[i][pi], d[i][pi]])
        return EXIT_OK
    payload = dec.to_json_dict()
    payload["e_positive"] = positivity.passed
    payload["negative_coefficients"] = positivity.failures
    if args.format == "pretty":
        out.write(f"h = {h}   m(Gamma_h) = {max_sink_set_size(h)}\n")
        for i in dec.degrees:
            row = [
                f"{c[i][pi]}*M({_partition_key(lam)})"
                for pi, lam in enumerate(dec.order.partitions)
                if c[i][pi]
            ]
            if row:
                out.write(f"H^{2 * i}: " + " + ".join(row) + "\n")
        out.write(f"e-positive: {positivity.passed}\n")
    else:
        _emit_json(payload, out)
    return EXIT_OK


def cmd_betti(args, out) -> int:
    h = _parse_h(args.h)
    _guard(h.n, args.max_n)
    poincare_size_guard(h.n)
    if args.nu is not None:
        nu = _parse_composition(args.nu, h.n)
        nus, table = [nu], [poincare_polynomial(nu, h).tolist()]
    else:
        dec = decompose(h)
        nus, table = dec.order.partitions, dec.table.tolist()
    rows = [
        {"nu": list(nu), "h": list(h.values), "coeffs": coeffs} for nu, coeffs in zip(nus, table)
    ]
    if args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["nu", "coeffs"])
        for row in rows:
            writer.writerow([_partition_key(row["nu"]), " ".join(map(str, row["coeffs"]))])
    elif args.format == "pretty":
        for row in rows:
            out.write(f"nu={tuple(row['nu'])}: {row['coeffs']}\n")
    else:
        _emit_json(rows, out)
    return EXIT_OK


def cmd_orientations(args, out) -> int:
    h = _parse_h(args.h)
    _guard(h.n, args.max_n)
    graph = build_graph(h)
    rows = []
    for omega in enumerate_acyclic_orientations(graph):
        rows.append(
            {
                "edges": [
                    [j, i, "→" if right else "←"]
                    for (j, i), right in zip(graph.edges, omega.rightward)
                ],
                "sinks": list(omega.sinks),
                "asc": omega.asc,
            }
        )
    if args.format == "pretty":
        for row in rows:
            arrows = " ".join(f"{j}{d}{i}" for j, i, d in row["edges"])
            out.write(f"sinks={row['sinks']} asc={row['asc']}  {arrows}\n")
    else:
        _emit_json(rows, out)
    return EXIT_OK


def cmd_enumerate(args, out) -> int:
    n = args.n
    _guard(n, args.max_n)
    rows = [list(h.values) for h in enumerate_hessenberg_functions(n)]
    if args.format == "pretty":
        for row in rows:
            out.write(",".join(map(str, row)) + "\n")
    else:
        _emit_json(rows, out)
    return EXIT_OK


def _reads_sk2(h: HessenbergFunction, which: str) -> bool:
    """Whether the suite checks Thm 6.1, Prop 7.2 or 7.3 on h, which read SK_2 of h."""
    return which in ("all", "thm61", "prop72", "prop73") and h.n >= 3 and is_abelian(h)


def _reports_for(h: HessenbergFunction, which: str) -> list[CheckReport]:
    n = h.n
    reports: list[CheckReport] = []
    if _reads_sk2(h, which):
        if which in ("all", "thm61"):
            reports.append(check_two_part_induction(h))
        if which in ("all", "prop72"):
            reports.append(check_nilpotent_poincare_recursion(h))
        if which in ("all", "prop73"):
            for nu2 in range(1, n // 2 + 1):
                reports.append(check_regular_poincare_recursion(h, (n - nu2, nu2)))
    if which in ("all", "conj81") and n >= 2:
        reports.append(check_maximal_sink_conjecture(h))
    if which in ("all", "oracles"):
        dec = decompose(h)
        reports.append(orientation_count_check(h, dec))
        reports.append(gasharov_check(h, dec))
        reports.append(e_positivity_report(h, dec))
        if n <= CHROMATIC_MAX_N:
            reports.append(chromatic_check(h, dec))
    return reports


class _Encoded(NamedTuple):
    """One report as `verify` prints it: its JSON text, indented to its depth in
    the output, and the fields that the pretty lines and the summary read."""

    text: str
    name: str
    h: Any
    passed: bool
    conjecture: bool


def _chunk_reports(chunk: list[HessenbergFunction], which: str) -> list[_Encoded]:
    """The reports of a chunk, JSON-encoded in the process that checks it. The chunk's
    own h that the suite reads are built first in one decompositions call, their Betti
    tables in blocks of several h: every h for all, oracles and conj81, the abelian h
    of n >= 3 alone for thm61, prop72 and prop73. Each sink-set layer that the checks
    read then builds its h_T in one decompositions call of its own."""
    every = which in ("all", "oracles", "conj81")
    decompositions([h for h in chunk if every or _reads_sk2(h, which)])
    return [
        _Encoded(
            "    " + json.dumps(r.to_json_dict(), **_JSON_OPTIONS).replace("\n", "\n    "),
            r.name,
            r.params.get("h"),
            r.passed,
            r.conjecture,
        )
        for h in chunk
        for r in _reports_for(h, which)
    ]


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# one chunk number in the queue pipe: far below PIPE_BUF, so each os.read takes a whole one.
# The 4 chunks per worker fit a 64 KiB pipe, written before any worker reads, up to 4096 CPUs.
_RECORD = 4


def _take_chunks(
    chunks: list[list[HessenbergFunction]], which: str, queue: int
) -> dict[int, list[_Encoded]]:
    """Check the chunks whose numbers this process reads from the queue pipe until it is empty."""
    done = {}
    while record := os.read(queue, _RECORD):
        i = int.from_bytes(record, "little")
        done[i] = _chunk_reports(chunks[i], which)
    return done


def _child(
    chunks: list[list[HessenbergFunction]], which: str, queue: int, results: int
) -> NoReturn:
    """A forked worker: send the parent `({chunk number: reports}, None)`, or `(exception,
    its traceback text)`, through the results pipe and end without returning to the caller."""
    status = 1
    try:
        try:
            payload = pickle.dumps((_take_chunks(chunks, which, queue), None))
        except BaseException as exc:
            import traceback

            text = traceback.format_exc()
            try:
                payload = pickle.dumps((exc, text))
                pickle.loads(payload)
            except Exception:  # the exception does not survive pickling
                payload = pickle.dumps((RuntimeError(repr(exc)), text))
        with open(results, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _sweep_reports(functions: list[HessenbergFunction], which: str) -> list[_Encoded]:
    """Encoded reports of every h in sweep order, from contiguous chunks of the sweep checked
    by this process and one forked child per further usable CPU. Each worker takes chunk
    numbers from one queue pipe until it is empty, and each child pickles its reports back
    through a pipe of its own. Fork keeps the imports and memos already built; it is safe
    because the CLI starts no other thread. With one worker (one usable CPU, one h, or no
    fork) this process takes every chunk and forks no child."""
    workers = min(_cpu_count(), len(functions)) if hasattr(os, "fork") else 1
    # four chunks per worker let one that ends early take more; 1 to 16 timed alike on 2 CPUs
    size = -(-len(functions) // (workers * 4))
    chunks = [functions[i : i + size] for i in range(0, len(functions), size)]
    queue, fill = os.pipe()
    os.write(fill, b"".join(i.to_bytes(_RECORD, "little") for i in range(len(chunks))))
    os.close(fill)
    children = {}  # pid -> the read end of its results pipe
    sent = {}  # pid -> (bytes it sent, exit code)
    try:
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _child(chunks, which, queue, write_end)
            os.close(write_end)
            children[pid] = read_end
        done = _take_chunks(chunks, which, queue)
    finally:
        os.close(queue)
        for pid, read_end in children.items():
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            sent[pid] = data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, (data, code) in sent.items():
        if code:  # a child exits 0 only once all it sends is written; -N: killed by signal N
            error = f"verify worker {pid} ended without reports, exit status {code}"
            raise ChildProcessError(error)
        value, text = pickle.loads(data)
        if text is not None:
            raise value from RuntimeError(f"in verify worker {pid}:\n{text}")
        done.update(value)
    return [r for i in range(len(chunks)) for r in done[i]]


def cmd_verify(args, out) -> int:
    target = args.target
    single = "," in target
    if single:
        h = _parse_h(target)
        n = h.n
    else:
        try:
            n = int(target)
        except ValueError as exc:
            raise HessenbergError(f"cannot parse target {target!r}") from exc
    _guard(n, args.max_n)
    poincare_size_guard(n)
    functions = [h] if single else list(enumerate_hessenberg_functions(n))

    reports = _sweep_reports(functions, args.which)
    failed = sum(not r.passed and not r.conjecture for r in reports)
    summary = {
        "total": len(reports),
        "passed": sum(r.passed for r in reports),
        "failed": failed,
        "findings": sum(not r.passed and r.conjecture for r in reports),
    }
    if args.format == "pretty":
        for r in reports:
            status = "PASS" if r.passed else ("FINDING" if r.conjecture else "FAIL")
            out.write(f"[{status}] {r.name} {r.h}\n")
        out.write(f"summary: {summary}\n")
    else:
        # the bytes _emit_json writes for {"reports": [...], "summary": summary},
        # written a report at a time so that no copy of the whole output is made
        out.write('{\n  "reports": [')
        for i, r in enumerate(reports):
            out.write(("," if i else "") + "\n" + r.text)
        out.write(("\n  ]" if reports else "]") + ',\n  "summary": ')
        out.write(json.dumps(summary, **_JSON_OPTIONS).replace("\n", "\n  ") + "\n}\n")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Reuse is safe: parse_args starts each call from a fresh Namespace, defaults are
    read from the actions, and help text is formatted (terminal width included) only
    when it is printed. Callers must not add to or change the returned parser.
    """
    # --help shows the module docstring up to its last paragraph, which is for library use
    parser = _Parser(prog="hessenberg", description=__doc__.rpartition("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=7, help="size guard (default 7)")
    # accepted and ignored until the benchmark's cache8 workload, which passes it, goes
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    parser.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="ideal, height, sink-set survey of one h")
    p.add_argument("h", help="comma-separated values, e.g. 3,4,5,6,6,6")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("decompose", help="graded c/d tables for one h")
    p.add_argument("h")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("betti", help="Poincaré polynomials of the regular Hessenberg varieties")
    p.add_argument("h")
    p.add_argument("--nu", default=None, help="single composition, e.g. 4,2")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("orientations", help="all acyclic orientations with sinks and ascents")
    p.add_argument("h")
    p.set_defaults(fn=cmd_orientations)

    p = sub.add_parser("verify", help="run identity checks for one h or a full size sweep")
    p.add_argument("target", help="a size n or a comma-separated h")
    p.add_argument("which", nargs="?", default="all", choices=WHICH_CHOICES)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="all Hessenberg functions of a given size")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None), writing its output to out
    (sys.stdout when None), and return its exit code; argparse usage errors and --help
    raise SystemExit. May be called many times in one process: every call parses with
    the one parser that the first call builds.
    """
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")
    try:
        if args.format == "csv" and args.command not in ("decompose", "betti"):
            raise HessenbergError("--format csv applies only to decompose and betti")
        return args.fn(args, out)
    except SizeGuard as exc:
        print(f"hessenberg: size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except HessenbergError as exc:
        print(f"hessenberg: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # e.g. a verify worker that died (ChildProcessError)
        print(f"hessenberg: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run silently, as in coreutils
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
