"""Independent brute-force oracles, and a random-input strategy, used only by
the tests.

Everything here is deliberately naive and kept separate from the package
implementations it cross-checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

from hypothesis import strategies as st


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


def multinomial(parts: tuple[int, ...]) -> int:
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


@st.composite
def hessenberg_values(draw, max_n: int) -> list[int]:
    """Values of a random Hessenberg function: nondecreasing, i <= h(i) <= n."""
    n = draw(st.integers(1, max_n))
    values: list[int] = []
    for i in range(1, n + 1):
        values.append(draw(st.integers(max(i, values[-1] if values else 1), n)))
    return values
