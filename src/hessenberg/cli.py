"""Command-line front end: analyze, decompose, betti, orientations, verify, enumerate.

Exit codes: 0 success; 1 usage error, invalid input or unusable --cache-dir;
2 size guard (n above --max-n, or above the Poincaré engine's bound for
decompose, betti and verify); 3 theorem-check failure. Errors print one line to stderr.
Conjecture findings are reported but never fail the exit code.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .betti import GradedPolynomial, SizeGuard, poincare_polynomial, poincare_size_guard
from .dot_action import (
    chromatic_check,
    decompose,
    decompose_table,
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
from .partitions import Partition, partitions_of
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
CHROMATIC_CLI_BOUND = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class BettiCache:
    """Content-addressed JSON cache of Poincaré coefficients keyed by (n, h, nu).

    An entry that cannot be read, or that stores another key, is a miss: a
    one-line warning goes to stderr and the entry is rewritten. Entries are
    written to a temporary file in the cache directory and renamed into
    place, so no reader sees a partly written entry.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: dict) -> Path:
        digest = hashlib.sha256(
            json.dumps(key, sort_keys=True).encode()
        ).hexdigest()
        return self.root / f"{digest}.json"

    def poincare(self, nu: Partition, h: HessenbergFunction) -> GradedPolynomial:
        key = {"n": h.n, "h": list(h.values), "nu": list(nu)}
        path = self._path(key)
        coeffs = self._read(path, key)
        if coeffs is not None:
            return GradedPolynomial(coeffs)
        poly = poincare_polynomial(nu, h)
        self._write(path, {"key": key, "coeffs": list(poly.coeffs)})
        return poly

    @staticmethod
    def _read(path: Path, key: dict) -> Optional[tuple[int, ...]]:
        """The stored coefficients, or None for a missing or unusable entry."""
        try:
            payload = json.loads(path.read_text())
            coeffs = payload["coeffs"]
            if payload["key"] != key:
                problem = "stores another key"
            elif isinstance(coeffs, list) and all(type(c) is int for c in coeffs):
                return tuple(coeffs)
            else:
                problem = "has malformed coefficients"
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"is unreadable ({type(exc).__name__})"
        print(f"hessenberg: cache entry {path} {problem}; recomputing it", file=sys.stderr)
        return None

    def _write(self, path: Path, payload: dict) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


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


def _emit_json(payload, out) -> None:
    json.dump(payload, out, sort_keys=True, ensure_ascii=False, indent=2)
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
    m = max_sink_set_size(graph)
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
                "h_T": list(restrict(h, t).values) if m < h.n else [],
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
    if args.cache_dir:
        cache = BettiCache(Path(args.cache_dir))
        dec = decompose_table(h, {nu: cache.poincare(nu, h) for nu in partitions_of(h.n)})
    else:
        dec = decompose(h)
    positivity = e_positivity_report(h, dec)
    if args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["degree", "lambda", "c", "d"])
        for i in dec.degrees:
            for pi, lam in enumerate(dec.order.partitions):
                if dec.c[i][pi] or dec.d[i][pi]:
                    writer.writerow([i, _partition_key(lam), dec.c[i][pi], dec.d[i][pi]])
        return EXIT_OK
    payload = dec.to_json_dict()
    payload["e_positive"] = positivity.passed
    payload["negative_coefficients"] = positivity.failures
    if args.format == "pretty":
        out.write(f"h = {h}   m(Gamma_h) = {dec.max_sinks}\n")
        for i in dec.degrees:
            row = [
                f"{dec.c[i][pi]}*M({_partition_key(lam)})"
                for pi, lam in enumerate(dec.order.partitions)
                if dec.c[i][pi]
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
    cache = BettiCache(Path(args.cache_dir)) if args.cache_dir else None
    if args.nu is not None:
        compositions = [_parse_composition(args.nu, h.n)]
    else:
        compositions = list(partitions_of(h.n))
    rows = []
    for nu in compositions:
        poly = cache.poincare(nu, h) if cache else poincare_polynomial(nu, h)
        rows.append({"nu": list(nu), "h": list(h.values), "coeffs": list(poly.coeffs)})
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


def _reports_for(h: HessenbergFunction, which: str) -> list[CheckReport]:
    n = h.n
    reports: list[CheckReport] = []
    abelian = is_abelian(h)
    if which in ("all", "thm61") and abelian and n >= 3:
        reports.append(check_two_part_induction(h))
    if which in ("all", "prop72") and abelian and n >= 3:
        reports.append(check_nilpotent_poincare_recursion(h))
    if which in ("all", "prop73") and abelian and n >= 3:
        for nu2 in range(1, n // 2 + 1):
            reports.append(check_regular_poincare_recursion(h, (n - nu2, nu2)))
    if which in ("all", "conj81") and n >= 2:
        reports.append(check_maximal_sink_conjecture(h))
    if which in ("all", "oracles"):
        dec = decompose(h)
        reports.append(orientation_count_check(h, dec))
        reports.append(gasharov_check(h, dec))
        reports.append(e_positivity_report(h, dec))
        if n <= CHROMATIC_CLI_BOUND:
            reports.append(chromatic_check(h, dec))
    return reports


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

    reports = [r for h in functions for r in _reports_for(h, args.which)]
    failed = [r for r in reports if not r.passed and not r.conjecture]
    findings = [r for r in reports if not r.passed and r.conjecture]
    payload = {
        "reports": [r.to_json_dict() for r in reports],
        "summary": {
            "total": len(reports),
            "passed": sum(r.passed for r in reports),
            "failed": len(failed),
            "findings": len(findings),
        },
    }
    if args.format == "pretty":
        for r in reports:
            status = "PASS" if r.passed else ("FINDING" if r.conjecture else "FAIL")
            out.write(f"[{status}] {r.name} {r.params.get('h')}\n")
        out.write(f"summary: {payload['summary']}\n")
    else:
        _emit_json(payload, out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hessenberg", description=__doc__)
    parser.add_argument("--max-n", type=int, default=7, help="size guard (default 7)")
    parser.add_argument("--cache-dir", default=None, help="Betti cache (decompose, betti)")
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
    except OSError as exc:  # e.g. a --cache-dir that cannot be created or written
        print(f"hessenberg: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
