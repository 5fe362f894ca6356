"""Independent brute-force oracles, test-only helpers, and a random-input
strategy, used only by the tests.

Everything here is deliberately naive and kept separate from the package
implementations it cross-checks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import factorial
from operator import mul

from hypothesis import strategies as st

from hessenberg.betti import (
    Permutation,
    composition_simple_roots,
    hessenberg_inversions,
    satisfies_hessenberg_condition,
)
from hessenberg.orientations import (
    AcyclicOrientation,
    IncomparabilityGraph,
    SinkSet,
    _check_sink_set,
    _sinks_and_asc,
    build_graph,
    degree_of,
    relabeling,
    restrict,
)
from hessenberg.partitions import (
    NonIntegralSolution,
    SizeMismatch,
    fixed_space_matrix,
    kostka_matrix,
)
from hessenberg.roots import roots_of


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """Catalan numbers by the ballot recursion C_{n+1} = sum C_i C_{n-i}."""
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def brute_acyclic_orientations(n: int, edges: list[tuple[int, int]]):
    """All acyclic orientations by filtering every direction vector.

    Yields (bits, sinks, asc) where bits[k] means edge (j, i) points j -> i.
    Acyclicity is checked by exhausting a topological ordering.
    """
    for bits in itertools.product((False, True), repeat=len(edges)):
        arcs = [(j, i) if right else (i, j) for (j, i), right in zip(edges, bits)]
        indeg = {v: 0 for v in range(1, n + 1)}
        for _, v in arcs:
            indeg[v] += 1
        remaining = set(range(1, n + 1))
        active = list(arcs)
        acyclic = True
        while remaining:
            free = [v for v in remaining if indeg[v] == 0]
            if not free:
                acyclic = False
                break
            for v in free:
                remaining.discard(v)
            active2 = []
            for u, v in active:
                if u in remaining:
                    active2.append((u, v))
                else:
                    indeg[v] -= 1
            active = active2
        if acyclic:
            out = {u for u, _ in arcs}
            sinks = tuple(v for v in range(1, n + 1) if v not in out)
            yield bits, sinks, sum(bits)


def hook_length_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of the given shape, by the hook length formula."""
    if not shape:
        return 1
    cols = [sum(1 for p in shape if p > c) for c in range(shape[0])]
    product = 1
    for r, width in enumerate(shape):
        for c in range(width):
            product *= (width - c) + (cols[c] - r) - 1
    return factorial(sum(shape)) // product


@lru_cache(maxsize=None)
def ssyt_count(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard Young tableaux of the given shape and content, by filling
    the cells row by row with every admissible value."""
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    budget = list(content)
    grid = [[0] * width for width in shape]
    count = 0

    def fill(pos: int) -> None:
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        r, c = cells[pos]
        lo = grid[r][c - 1] if c > 0 else 1  # rows weakly increase
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)  # columns strictly increase
        for v in range(lo, len(budget) + 1):
            if budget[v - 1]:
                budget[v - 1] -= 1
                grid[r][c] = v
                fill(pos + 1)
                budget[v - 1] += 1

    fill(0)
    return count


def horizontal_strips_reference(shape: tuple[int, ...], k: int):
    """Every shape that adds k cells to shape, no two in one column: every
    vector of row lengths in the box, the new bottom row included, kept when
    it has the right size."""
    rows = (*shape, 0)
    tops = (rows[0] + k, *shape)  # row i may grow up to the old length of row i - 1
    for grown in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(rows, tops))):
        if sum(grown) == sum(rows) + k:
            yield grown if grown[-1] else grown[:-1]


def mahonian(n: int) -> list[int]:
    """Permutations of [n] counted by inversion number (q-factorial coefficients)."""
    coeffs = [1]
    for k in range(1, n):
        block = [1] * (k + 1)
        out = [0] * (len(coeffs) + k)
        for a, ca in enumerate(coeffs):
            for b, cb in enumerate(block):
                out[a + b] += ca * cb
        coeffs = out
    return coeffs


def dominates(nu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    """Whether lam is dominated by nu (lam <= nu in dominance order)."""
    acc_l = acc_n = 0
    for k in range(max(len(lam), len(nu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_n += nu[k] if k < len(nu) else 0
        if acc_l > acc_n:
            return False
    return True


def brute_nonneg_matrix_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Nonnegative-integer matrices with the given row and column sums."""
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    r, rest = rows[0], rows[1:]
    total = 0
    for row in itertools.product(*(range(min(r, c) + 1) for c in cols)):
        if sum(row) == r:
            remaining = tuple(c - x for c, x in zip(cols, row))
            total += brute_nonneg_matrix_count(rest, remaining)
    return total


def brute_zero_one_matrix_count(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """0-1 matrices with the given row and column sums."""
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    r, rest = rows[0], rows[1:]
    total = 0
    for row in itertools.product((0, 1), repeat=len(cols)):
        if sum(row) == r and all(x <= c for x, c in zip(row, cols)):
            remaining = tuple(c - x for c, x in zip(cols, row))
            total += brute_zero_one_matrix_count(rest, remaining)
    return total


def brute_ph_tableaux(h_values: tuple[int, ...], shape: tuple[int, ...]) -> int:
    """Tableau count straight from the defining conditions, over all n! fillings."""
    n = sum(shape)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {}
        for cell, value in zip(cells, perm):
            grid[cell] = value
        ok = True
        for (r, c), value in grid.items():
            if c > 0 and value <= h_values[grid[(r, c - 1)] - 1]:
                ok = False
                break
            if r > 0 and grid[(r - 1, c)] > h_values[value - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def ph_tableaux_reference(h, shape: tuple[int, ...]) -> int:
    """P_h-tableaux of one shape by the row DP that the package used before it
    counted every shape in one pass: memoised per (rows left, h_U, bounds)."""
    rows = tuple(p for p in shape if p)
    return _tableaux_below(bytes((*rows, 0, *h.values)) + b"\x01" * rows[0])


@lru_cache(maxsize=None)
def _tableaux_below(state: bytes) -> int:
    """P_h-tableaux of the rows left, from the canonical state
    bytes((*rows, 0, *h_U, *bounds)).

    rows are the lengths of the rows left, top first. h_U is h induced on the
    m unused values relabelled 1..m: h_U(a) counts the unused values <= h(u_a).
    bounds[c] is the least rank the entry in column c of the top row left may
    take: an entry i below j needs h(i) >= j, and h is nondecreasing.
    """
    end = state.index(0)
    rows = state[:end]
    m = sum(rows)
    h_u, bounds = state[end + 1 : end + 1 + m], state[end + 1 + m :]
    width, rest = rows[0], rows[1:]
    if not rest:  # the last row holds every value left, in increasing order
        return int(
            all(bounds[a] <= a + 1 for a in range(m))
            and all(h_u[a] == a + 1 for a in range(m - 1))
        )
    total = 0
    chain: list[int] = []

    def extend(lo: int) -> None:
        nonlocal total
        col = len(chain)
        if col == width:
            kept = [a for a in range(1, m + 1) if a not in chain]
            h_next = [bisect_right(kept, h_u[a - 1]) for a in kept]
            below = [bisect_left(kept, bisect_left(h_u, v) + 1) + 1 for v in chain[: rest[0]]]
            total += _tableaux_below(bytes((*rest, 0, *h_next, *below)))
            return
        for v in range(max(lo, bounds[col]), m - width + col + 2):
            chain.append(v)
            extend(h_u[v - 1] + 1)
            chain.pop()

    extend(1)
    return total


def multinomial(parts: tuple[int, ...]) -> int:
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


@st.composite
def hessenberg_values(draw, max_n: int, min_n: int = 1) -> list[int]:
    """Values of a random Hessenberg function: nondecreasing, i <= h(i) <= n."""
    n = draw(st.integers(min_n, max_n))
    values: list[int] = []
    for i in range(1, n + 1):
        values.append(draw(st.integers(max(i, values[-1] if values else 1), n)))
    return values


def identity_permutation(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def poincare_polynomial_reference(nu, h) -> tuple[int, ...]:
    """Pure-Python sum over S_n, the test oracle for poincare_polynomial: its
    coefficients at degree 0..|Phi_h^-|."""
    j_indices = composition_simple_roots(nu)
    coeffs = [0] * (len(roots_of(h)[0]) + 1)
    for w in itertools.permutations(range(1, h.n + 1)):
        if satisfies_hessenberg_condition(w, j_indices, h):
            coeffs[hessenberg_inversions(w, h)] += 1
    return tuple(coeffs)


def sink_set(graph: IncomparabilityGraph, vertices) -> SinkSet:
    """Validate a vertex set as a sink set and attach its degree."""
    verts = tuple(sorted(int(v) for v in vertices))
    _check_sink_set(graph, verts)
    return SinkSet(verts, degree_of(verts, graph))


class SinkSetMismatch(ValueError):
    """The orientation's sink set differs from the requested one."""


def restrict_orientation(omega: AcyclicOrientation, T) -> AcyclicOrientation:
    """The induced orientation omega_T on the graph of h_T; requires sk(omega) = T."""
    verts = T.vertices if isinstance(T, SinkSet) else tuple(sorted(int(v) for v in T))
    if omega.sinks != verts:
        raise SinkSetMismatch(f"sink set {omega.sinks} differs from {verts}")
    graph = omega.graph
    sub = build_graph(restrict(graph.h, verts))
    phi = relabeling(graph.n, verts)
    removed = set(verts)
    kept = [
        ((phi[a], phi[b]), right)
        for (a, b), right in zip(graph.edges, omega.rightward)
        if a not in removed and b not in removed
    ]
    # phi is monotone, so kept edges are already in the subgraph's sort order
    if tuple(e for e, _ in kept) != sub.edges:
        raise RuntimeError(f"kept edges of omega do not match the graph of h_T for T={verts}")
    bits = tuple(right for _, right in kept)
    sinks, asc = _sinks_and_asc(sub, bits)
    return AcyclicOrientation(sub, bits, sinks, asc)


def solve_fixed_space_reference(n: int, rows):
    """N c = b for each b in rows in plain Python ints, as (C, D): the forward
    pass K^T d = b, then the back pass K c = d, each c rechecked against N."""
    k = kostka_matrix(n).tolist()
    m = len(k)
    n_rows = fixed_space_matrix(n).tolist()
    c_rows, d_rows = [], []
    for b in rows:
        if len(b) != m:
            raise SizeMismatch(f"vector length {len(b)} != {m} partitions of {n}")
        d: list[int] = []
        for i in range(m):
            d.append(b[i] - sum(k[j][i] * d[j] for j in range(i)))
        c = [0] * m
        for i in range(m - 1, -1, -1):
            c[i] = d[i] - sum(k[i][j] * c[j] for j in range(i + 1, m))
        if [sum(map(mul, row, c)) for row in n_rows] != list(b):
            raise NonIntegralSolution(f"N c != b for b={list(b)}")
        c_rows.append(tuple(c))
        d_rows.append(tuple(d))
    return tuple(c_rows), tuple(d_rows)


def fixed_space_reference(n: int) -> tuple[tuple[int, ...], ...]:
    """N = K^T K by the triple sum over plain Python ints."""
    k = kostka_matrix(n).tolist()
    m = len(k)
    return tuple(
        tuple(sum(k[mu][a] * k[mu][b] for mu in range(m)) for b in range(m)) for a in range(m)
    )


def plain_json(value) -> bool:
    """Whether value is built of dicts with str keys, lists, str, bool, None and
    plain int only: no numpy scalar, which json.dumps would refuse."""
    if isinstance(value, dict):
        return all(type(k) is str and plain_json(v) for k, v in value.items())
    if isinstance(value, list):
        return all(map(plain_json, value))
    return value is None or type(value) in (str, bool, int)
