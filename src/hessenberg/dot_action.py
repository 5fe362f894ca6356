"""Graded tabloid/Specht decomposition of the symmetric-group action on the
cohomology of a regular semisimple Hessenberg variety, with independent oracles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .betti import GradedPolynomial, poincare_polynomial
from .orientations import build_graph, enumerate_acyclic_orientations, max_sink_set_size
from .partitions import (
    Partition,
    PartitionOrder,
    count_ph_tableaux,
    dual_partition,
    partitions_of,
    solve_fixed_space_system,
    specht_from_tabloid,
)
from .reports import CheckReport, mismatch, report_from_failures
from .roots import HessenbergFunction, is_abelian, roots_of


@dataclass(frozen=True)
class GradedRepDecomposition:
    """Integer coefficients c (tabloid basis) and d = K c (Specht basis) per degree."""

    h: HessenbergFunction
    order: PartitionOrder
    c: tuple[tuple[int, ...], ...]  # [degree][partition index]
    d: tuple[tuple[int, ...], ...]
    max_sinks: int

    @property
    def degrees(self) -> range:
        return range(len(self.c))

    def c_coeff(self, lam: Partition, i: int) -> int:
        if i not in self.degrees:
            return 0
        return self.c[i][self.order.index(lam)]

    def to_json_dict(self) -> dict:
        def table(rows):
            out = {}
            for i, row in enumerate(rows):
                entries = {
                    ",".join(map(str, lam)): v
                    for lam, v in zip(self.order.partitions, row)
                    if v
                }
                if entries:
                    out[str(i)] = entries
            return out

        return {
            "h": list(self.h.values),
            "m_gamma": self.max_sinks,
            "coeffs": {"c": table(self.c), "d": table(self.d)},
        }


@lru_cache(maxsize=None)
def _betti_table(h: HessenbergFunction) -> Mapping[Partition, GradedPolynomial]:
    return MappingProxyType({nu: poincare_polynomial(nu, h) for nu in partitions_of(h.n)})


def betti_table(h: HessenbergFunction) -> Mapping[Partition, GradedPolynomial]:
    """Poincaré polynomial of the regular Hessenberg variety for every nu of n.

    Memoised per h by _betti_table. This plain front keeps perfbench's span
    tracer, which reads the attributes of a memoised builder's result, off
    the read-only mapping.
    """
    return _betti_table(h)


def decompose_table(
    h: HessenbergFunction, table: Mapping[Partition, GradedPolynomial]
) -> GradedRepDecomposition:
    """Solve N c_i = (Betti vector at degree i) for every degree, and derive d = K c."""
    n = h.n
    order = partitions_of(n)
    degrees = len(roots_of(h)[0]) + 1
    c_rows, d_rows = [], []
    for i in range(degrees):
        b = [table[nu].coefficient(i) for nu in order]
        c = solve_fixed_space_system(n, b)
        c_rows.append(tuple(c))
        d_rows.append(tuple(specht_from_tabloid(n, c)))
    return GradedRepDecomposition(
        h, order, tuple(c_rows), tuple(d_rows), max_sink_set_size(build_graph(h))
    )


@lru_cache(maxsize=None)
def decompose(h: HessenbergFunction) -> GradedRepDecomposition:
    """The graded decomposition of h from its Betti table, memoised per h."""
    return decompose_table(h, betti_table(h))


@lru_cache(maxsize=None)
def orientation_histogram(h: HessenbergFunction) -> Mapping[tuple[int, int], int]:
    """Number of acyclic orientations of the graph of h per (sink count, ascent)."""
    hist: dict[tuple[int, int], int] = {}
    for omega in enumerate_acyclic_orientations(build_graph(h)):
        key = (len(omega.sinks), omega.asc)
        hist[key] = hist.get(key, 0) + 1
    return MappingProxyType(hist)


def orientation_count_check(h: HessenbergFunction, dec: GradedRepDecomposition) -> CheckReport:
    """Per (sink count k, ascent i): sum of c over k-part partitions equals the
    number of acyclic orientations with k sinks and ascent i."""
    hist = orientation_histogram(h)
    failures = []
    for k in range(1, h.n + 1):
        for i in dec.degrees:
            expected = hist.get((k, i), 0)
            actual = sum(
                dec.c[i][pi]
                for pi, lam in enumerate(dec.order.partitions)
                if len(lam) == k
            )
            if expected != actual:
                failures.append(
                    mismatch({"sinks": k, "degree": i}, expected, actual)
                )
    return report_from_failures(
        "orientation_counts", {"h": list(h.values)}, failures
    )


def gasharov_check(h: HessenbergFunction, dec: GradedRepDecomposition) -> CheckReport:
    """Sum of d over degrees equals the count of P_h-tableaux of the dual shape."""
    failures = []
    for pi, lam in enumerate(dec.order.partitions):
        total = sum(dec.d[i][pi] for i in dec.degrees)
        tableaux = count_ph_tableaux(h, dual_partition(lam))
        if total != tableaux:
            failures.append(mismatch({"lambda": list(lam)}, tableaux, total))
    return report_from_failures("gasharov_tableaux", {"h": list(h.values)}, failures)


@lru_cache(maxsize=None)
def zero_one_matrix_count(rows: Partition, cols: tuple[int, ...]) -> int:
    """Number of 0-1 matrices with the given row and column sums."""
    if sum(rows) != sum(cols):
        return 0
    if not rows:
        return 1
    import itertools

    r, rest = rows[0], rows[1:]
    open_cols = [k for k, cap in enumerate(cols) if cap > 0]
    if r > len(open_cols):
        return 0
    total = 0
    for chosen in itertools.combinations(open_cols, r):
        nxt = list(cols)
        for k in chosen:
            nxt[k] -= 1
        total += zero_one_matrix_count(rest, tuple(sorted(nxt, reverse=True)))
    return total


def _proper_coloring_ascents(graph, content: Sequence[int]) -> list[int]:
    """Histogram over ascents of proper colorings using color c exactly content[c-1] times."""
    n = graph.n
    smaller: list[list[int]] = [[] for _ in range(n + 1)]
    for j, i in graph.edges:
        smaller[i].append(j)
    budget = list(content)
    colors = [0] * (n + 1)
    counts = [0] * (len(graph.edges) + 1)

    def assign(v: int, asc: int) -> None:
        if v > n:
            counts[asc] += 1
            return
        for c in range(1, len(budget) + 1):
            if budget[c - 1] == 0:
                continue
            gained = 0
            for u in smaller[v]:
                if colors[u] == c:
                    break
                if colors[u] < c:
                    gained += 1
            else:
                budget[c - 1] -= 1
                colors[v] = c
                assign(v + 1, asc + gained)
                budget[c - 1] += 1
        colors[v] = 0

    assign(1, 0)
    return counts


def chromatic_check(
    h: HessenbergFunction,
    dec: GradedRepDecomposition,
    max_degree: Optional[int] = None,
    max_n: int = 6,
) -> CheckReport:
    """Brute-force chromatic quasisymmetric coefficients against the prediction.

    For each content partition mu and degree i (optionally capped by
    max_degree), the number of proper colorings with content mu and ascent i
    must equal sum over lambda of c_{lambda,i} * (0-1 matrices with row sums
    lambda, column sums mu).
    """
    if h.n > max_n:
        raise ValueError(f"chromatic oracle limited to n <= {max_n}")
    graph = build_graph(h)
    order = dec.order
    degrees = dec.degrees if max_degree is None else range(min(max_degree + 1, len(dec.c)))
    failures = []
    for mu in order.partitions:
        colorings = _proper_coloring_ascents(graph, mu)
        for i in degrees:
            predicted = sum(
                dec.c[i][pi] * zero_one_matrix_count(lam, mu)
                for pi, lam in enumerate(order.partitions)
            )
            if colorings[i] != predicted:
                failures.append(
                    mismatch({"mu": list(mu), "degree": i}, colorings[i], predicted)
                )
    return report_from_failures("chromatic_monomials", {"h": list(h.values)}, failures)


def e_positivity_report(h: HessenbergFunction, dec: GradedRepDecomposition) -> CheckReport:
    """List every negative tabloid coefficient; empty for abelian h by theorem."""
    negatives = [
        mismatch({"lambda": list(lam), "degree": i}, "nonnegative", dec.c[i][pi])
        for i in dec.degrees
        for pi, lam in enumerate(dec.order.partitions)
        if dec.c[i][pi] < 0
    ]
    return report_from_failures(
        "e_positivity",
        {"h": list(h.values), "abelian": is_abelian(h)},
        negatives,
        conjecture=not is_abelian(h),
    )
