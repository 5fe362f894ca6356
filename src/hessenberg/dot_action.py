"""Graded tabloid/Specht decomposition of the symmetric-group action on the cohomology of
a regular semisimple Hessenberg variety, memoised per h as int64 arrays (decompositions),
and independent oracles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .betti import poincare_arrays, poincare_blocks, poincare_slot
from .orientations import build_graph, max_sink_set_size
from .partitions import (
    Partition,
    PartitionOrder,
    _int64_product,
    _require_int64,
    dual_partition,
    fixed_space_matrix,
    partitions_of,
    ph_tableaux_counts,
    solve_fixed_space_system,
)
from .reports import CheckReport, mismatch, report_from_failures
from .roots import HessenbergFunction, is_abelian, negative_root_count

CHROMATIC_MAX_N = 6  # largest n for the brute-force coloring walk; verify skips it above


@dataclass(frozen=True, eq=False)
class GradedRepDecomposition:
    """Integer coefficients c (tabloid basis) and d = K c (Specht basis) of h: int64 arrays
    [degree 0..|Phi_h^-|, partition in order], made read-only (another form raises TypeError,
    another shape SizeMismatch), equal when their values are. The Betti table is not kept:
    table and poincare read it as N c, which the solve that made c checked against the engine."""

    h: HessenbergFunction
    c: np.ndarray
    d: np.ndarray
    max_sinks: int

    def __post_init__(self):
        shape = (negative_root_count(self.h) + 1, len(self.order))
        for name in ("c", "d"):
            _require_int64(getattr(self, name), shape, f"{name} of h={self.h}")
            getattr(self, name).flags.writeable = False

    def _values(self) -> tuple:
        return self.h, self.max_sinks, self.c.tobytes(), self.d.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedRepDecomposition) and self._values() == other._values()

    @property
    def order(self) -> PartitionOrder:
        return partitions_of(self.h.n)

    @property
    def degrees(self) -> range:
        return range(len(self.c))

    @property
    def table(self) -> np.ndarray:
        """The Betti table N c as a read-only int64 array [partition in order, degree],
        the layout of poincare_arrays: row nu is P_nu over the degrees."""
        table = _int64_product(fixed_space_matrix(self.order.n), self.c.T)
        table.flags.writeable = False
        return table

    def poincare(self, nu: Partition) -> np.ndarray:
        """P_nu as an int64 array over the degrees: c times column nu of N."""
        i = self.order.index(nu)
        return _int64_product(self.c, fixed_space_matrix(self.order.n)[:, i : i + 1])[:, 0]

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
            "coeffs": {"c": table(self.c.tolist()), "d": table(self.d.tolist())},
        }


def decompose_tables(
    hs: Sequence[HessenbergFunction], tables: Sequence[np.ndarray]
) -> list[GradedRepDecomposition]:
    """Per h in hs, which share n, with its Betti table as an int64 array [partition in
    partitions_of(n), degree 0..|Phi_h^-|], as poincare_arrays gives it: solve N c_i =
    (Betti vector at degree i) for every degree, with d_i = K c_i, in one solve over
    the stacked degrees of every h, each h given its own copy of its rows of c and d. A
    table of another form raises TypeError, and one of another shape SizeMismatch."""
    order = partitions_of(hs[0].n)
    stack = []
    for h, table in zip(hs, tables, strict=True):
        _require_int64(table, (len(order), negative_root_count(h) + 1), f"the Betti table of h={h}")
        stack.append(table.T)
    c, d = solve_fixed_space_system(order.n, np.concatenate(stack))
    out, start = [], 0
    for h, rows in zip(hs, stack):
        end = start + len(rows)
        sinks = max_sink_set_size(build_graph(h))
        out.append(GradedRepDecomposition(h, c[start:end].copy(), d[start:end].copy(), sinks))
        start = end
    return out


_decompositions: dict[HessenbergFunction, GradedRepDecomposition] = {}


def decompositions(hs: Sequence[HessenbergFunction]) -> list[GradedRepDecomposition]:
    """The graded decomposition of each h in hs, in input order, memoised per h for the
    process. The h not yet seen are built per n, taken in order of slot width (see
    poincare_slot) and cut into engine blocks: each block's Betti tables come from one
    poincare_arrays pass as int64 arrays and go straight to one decompose_tables
    call. The h of one block are all that is stacked at a time."""
    by_n: dict[int, list[HessenbergFunction]] = {}
    for h in dict.fromkeys(hs):
        if h not in _decompositions:
            by_n.setdefault(h.n, []).append(h)
    for n, missing in by_n.items():
        order = partitions_of(n).partitions
        for block in poincare_blocks(sorted(missing, key=lambda h: sum(poincare_slot(h)))):
            tables = poincare_arrays(block, order)
            _decompositions.update(zip(block, decompose_tables(block, tables)))
    return [_decompositions[h] for h in hs]


def decompose(h: HessenbergFunction) -> GradedRepDecomposition:
    """The graded decomposition of h: decompositions on h alone, read from the memo."""
    return decompositions([h])[0]


def _times_block(poly: list[int], width: int) -> list[int]:
    """poly times 1 + t + ... + t^(width - 1), cut to the length of poly."""
    out, run = [], 0
    for i, c in enumerate(poly):
        run += c - (poly[i - width] if i >= width else 0)
        out.append(run)
    return out


def _sink_set_polynomials(h: HessenbergFunction) -> list[list[int]]:
    """[F_1, ..., F_m] with F_k = sum over T in SK_k of t^(deg T) A_{h_T}(t),
    as coefficient lists of length |Phi_h^-| + 1.

    The earlier neighbours of i form the clique [m_i, i - 1], m_i = min{j :
    h(j) >= i}, so orienting vertex by vertex gives A_h = prod over i of
    [1 + e_i]_t with e_i = i - m_i. A sink set meets each clique at most once,
    and only through its last member before i; that member l also decides
    whether i may join T (i > h(l)). So F_k is a DP over i = 1..n with state
    (k, l): i outside T multiplies by [1 + e_i - [l >= m_i]]_t, and i in T by
    t^(e_i), since the e_i edges from earlier vertices all point into the
    sink i, each an ascent.
    """
    n = h.n
    top = negative_root_count(h)
    states: dict[tuple[int, int], list[int]] = {(0, 0): [1] + [0] * top}  # l = 0: none yet
    m = 1
    for i in range(1, n + 1):
        while h(m) < i:
            m += 1
        e = i - m
        joined: dict[int, list[int]] = {}  # per k, the states that i may join as a sink
        for (k, last), poly in states.items():
            if not last or i > h(last):
                joined[k] = [a + b for a, b in zip(joined[k], poly)] if k in joined else poly
        states = {
            (k, last): _times_block(poly, 1 + e - (last >= m))
            for (k, last), poly in states.items()
        }
        for k, poly in joined.items():
            states[k + 1, i] = [0] * e + poly[: top + 1 - e]
    sums = [[0] * (top + 1) for _ in range(max(k for k, _ in states))]
    for (k, _), poly in states.items():
        if k:
            sums[k - 1] = [a + b for a, b in zip(sums[k - 1], poly)]
    return sums


@lru_cache(maxsize=8)  # prop72 and the orientation check of one h both read it
def orientation_histogram(h: HessenbergFunction) -> np.ndarray:
    """Number of acyclic orientations of the graph of h as a read-only int64 array
    [ascent 0..|Phi_h^-|, sink count - 1], over sink counts 1..n.

    F_k counts each orientation with s sinks C(s, k) times, once per k-subset
    of its sinks, so binomial inversion gives the histogram: column s - 1 is
    sum over k >= s of (-1)^(k-s) C(k, s) F_k, one int64 product of the F_k
    with those signed binomials.
    """
    sums = np.array(_sink_set_polynomials(h), dtype=np.int64)
    ks, ss = range(1, len(sums) + 1), range(1, h.n + 1)
    signs = np.array([[(-1) ** (k + s) * comb(k, s) for s in ss] for k in ks], dtype=np.int64)
    hist = _int64_product(sums.T, signs)
    hist.flags.writeable = False
    return hist


def orientation_count_check(h: HessenbergFunction, dec: GradedRepDecomposition) -> CheckReport:
    """Per (sink count k, ascent i): sum of c over k-part partitions equals the
    number of acyclic orientations with k sinks and ascent i."""
    parts = np.array([[len(lam) == k for k in range(1, h.n + 1)] for lam in dec.order])
    expected, actual = orientation_histogram(h), dec.c @ parts  # [degree, k - 1]
    failures = [
        mismatch({"sinks": k + 1, "degree": i}, int(expected[i, k]), int(actual[i, k]))
        for k, i in np.argwhere(actual.T != expected.T).tolist()
    ]
    return report_from_failures(
        "orientation_counts", {"h": list(h.values)}, failures
    )


def gasharov_check(h: HessenbergFunction, dec: GradedRepDecomposition) -> CheckReport:
    """Sum of d over degrees equals the count of P_h-tableaux of the dual shape,
    all read from one ph_tableaux_counts mapping."""
    counts = ph_tableaux_counts(h)
    failures = []
    for lam, total in zip(dec.order.partitions, dec.d.sum(axis=0).tolist()):
        tableaux = counts.get(dual_partition(lam), 0)
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


def chromatic_check(h: HessenbergFunction, dec: GradedRepDecomposition) -> CheckReport:
    """Brute-force chromatic quasisymmetric coefficients against the prediction.

    For each content partition mu and degree i, the number of proper
    colorings with content mu and ascent i must equal sum over lambda of
    c_{lambda,i} * (0-1 matrices with row sums lambda, column sums mu).
    """
    if h.n > CHROMATIC_MAX_N:
        raise ValueError(f"chromatic oracle limited to n <= {CHROMATIC_MAX_N}")
    graph = build_graph(h)
    order = dec.order.partitions
    matrices = np.array([[zero_one_matrix_count(lam, mu) for mu in order] for lam in order])
    failures = []
    for mu, predicted in zip(order, (dec.c @ matrices).T.tolist()):
        colorings = _proper_coloring_ascents(graph, mu)
        for i, value in enumerate(predicted):
            if colorings[i] != value:
                failures.append(mismatch({"mu": list(mu), "degree": i}, colorings[i], value))
    return report_from_failures("chromatic_monomials", {"h": list(h.values)}, failures)


def e_positivity_report(h: HessenbergFunction, dec: GradedRepDecomposition) -> CheckReport:
    """List every negative tabloid coefficient; empty for abelian h by theorem."""
    lams = dec.order.partitions
    negatives = [
        mismatch({"lambda": list(lams[pi]), "degree": i}, "nonnegative", int(dec.c[i, pi]))
        for i, pi in np.argwhere(dec.c < 0).tolist()
    ]
    return report_from_failures(
        "e_positivity",
        {"h": list(h.values), "abelian": is_abelian(h)},
        negatives,
        conjecture=not is_abelian(h),
    )
