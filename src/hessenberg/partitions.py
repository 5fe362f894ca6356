"""Partitions, Kostka numbers, the fixed-space matrix N = K^T K, and tableau counts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from .roots import HessenbergFunction

Partition = tuple[int, ...]


class SizeMismatch(ValueError):
    """Partition sizes do not agree."""


class NonIntegralSolution(ValueError):
    """The linear system has no integer solution (inconsistent input vector)."""


def dual_partition(lam: Partition) -> Partition:
    """Transpose of the Young diagram, by column counting."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0]))


def dim_tabloid(lam: Partition) -> int:
    """dim M^lam = n! / prod(lam_i!)."""
    out = factorial(sum(lam))
    for p in lam:
        out //= factorial(p)
    return out


def _gen_partitions(n: int, cap: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _gen_partitions(n - first, first):
            yield (first, *rest)


@dataclass(frozen=True)
class PartitionOrder:
    """All partitions of n sorted decreasingly: fewer parts first, then lex descending."""

    n: int
    partitions: tuple[Partition, ...]

    def index(self, lam: Partition) -> int:
        return self._index[tuple(lam)]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {lam: k for k, lam in enumerate(self.partitions)}
        )

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> PartitionOrder:
    """The partition list of n in decreasing total order, (n) first."""
    if n < 1:
        raise ValueError("n must be positive")
    ordered = sorted(_gen_partitions(n, n), key=lambda lam: (len(lam), tuple(-p for p in lam)))
    return PartitionOrder(n, tuple(ordered))


def kostka(nu: Partition, lam: Partition) -> int:
    """Number of semistandard Young tableaux of shape nu and content lam."""
    if sum(nu) != sum(lam):
        raise SizeMismatch(f"|{nu}| != |{lam}|")
    return _kostka(tuple(nu), tuple(lam))


@lru_cache(maxsize=None)
def _kostka(nu: Partition, lam: Partition) -> int:
    cells = [(r, c) for r, width in enumerate(nu) for c in range(width)]
    budget = list(lam)
    grid = [[0] * width for width in nu]
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


@dataclass(frozen=True)
class IntegerMatrix:
    """A square integer matrix indexed both ways by a PartitionOrder."""

    order: PartitionOrder
    rows: tuple[tuple[int, ...], ...]

    def entry(self, lam: Partition, nu: Partition) -> int:
        return self.rows[self.order.index(lam)][self.order.index(nu)]

    def to_json_dict(self) -> dict:
        """Row-major entries with the partition labels attached."""
        return {
            "n": self.order.n,
            "labels": [list(lam) for lam in self.order.partitions],
            "rows": [list(row) for row in self.rows],
        }


@lru_cache(maxsize=None)
def kostka_matrix(n: int) -> IntegerMatrix:
    """K with K[nu][lam] = kostka(nu, lam); unit upper-triangular in the total order."""
    order = partitions_of(n)
    rows = tuple(
        tuple(kostka(nu, lam) for lam in order.partitions) for nu in order.partitions
    )
    return IntegerMatrix(order, rows)


@lru_cache(maxsize=None)
def fixed_space_matrix(n: int) -> IntegerMatrix:
    """N = K^T K, with N[lam][nu] the dimension of the S_nu-fixed subspace of M^lam."""
    order = partitions_of(n)
    k = kostka_matrix(n).rows
    m = len(order)
    rows = tuple(
        tuple(sum(k[mu][a] * k[mu][b] for mu in range(m)) for b in range(m))
        for a in range(m)
    )
    return IntegerMatrix(order, rows)


def solve_unit_upper_gram(k_rows: Sequence[Sequence[int]], b: Sequence[int]) -> list[int]:
    """Solve (K^T K) c = b for unit upper-triangular K, by two triangular solves."""
    m = len(b)
    # K^T y = b: K^T is unit lower-triangular
    y = [0] * m
    for i in range(m):
        y[i] = b[i] - sum(k_rows[j][i] * y[j] for j in range(i))
    # K c = y: back substitution
    c = [0] * m
    for i in range(m - 1, -1, -1):
        c[i] = y[i] - sum(k_rows[i][j] * c[j] for j in range(i + 1, m))
    return c


def solve_fixed_space_system(n: int, b: Sequence[int]) -> list[int]:
    """The unique integer c with N c = b, indexed by partitions_of(n)."""
    order = partitions_of(n)
    if len(b) != len(order):
        raise SizeMismatch(f"vector length {len(b)} != {len(order)} partitions of {n}")
    k = kostka_matrix(n).rows
    c = solve_unit_upper_gram(k, list(b))
    check = [
        sum(fixed_space_matrix(n).rows[i][j] * c[j] for j in range(len(c)))
        for i in range(len(c))
    ]
    if check != list(b):
        raise NonIntegralSolution(f"N c != b for b={list(b)}")
    return c


def specht_from_tabloid(n: int, c: Sequence[int]) -> list[int]:
    """Coefficients d = K c taking a tabloid-basis vector to the Specht basis."""
    k = kostka_matrix(n).rows
    m = len(k)
    if len(c) != m:
        raise SizeMismatch(f"vector length {len(c)} != {m} partitions of {n}")
    return [sum(k[i][j] * c[j] for j in range(m)) for i in range(m)]


def tabloid_from_specht(n: int, d: Sequence[int]) -> list[int]:
    """Inverse of specht_from_tabloid, by unit-triangular back substitution."""
    k = kostka_matrix(n).rows
    m = len(k)
    if len(d) != m:
        raise SizeMismatch(f"vector length {len(d)} != {m} partitions of {n}")
    c = [0] * m
    for i in range(m - 1, -1, -1):
        c[i] = d[i] - sum(k[i][j] * c[j] for j in range(i + 1, m))
    return c


def count_ph_tableaux(h: HessenbergFunction, shape: Partition) -> int:
    """Number of P_h-tableaux of the given shape.

    Each of 1..n appears once; an entry immediately right of j must exceed h(j);
    an entry i immediately below j needs j <= h(i).
    """
    n = h.n
    if sum(shape) != n:
        raise SizeMismatch(f"|{shape}| != {n}")
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    grid = [[0] * width for width in shape]
    used = [False] * (n + 1)
    count = 0

    def fill(pos: int) -> None:
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        r, c = cells[pos]
        for v in range(1, n + 1):
            if used[v]:
                continue
            if c > 0 and v <= h(grid[r][c - 1]):
                continue
            if r > 0 and grid[r - 1][c] > h(v):
                continue
            used[v] = True
            grid[r][c] = v
            fill(pos + 1)
            used[v] = False

    fill(0)
    return count
