"""Partitions, Kostka numbers, the fixed-space matrix N = K^T K, tableau counts,
and the one exact solve of N c = b, as int64 products with the inverse of K
under overflow bounds, which yields both c and d = K c."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import factorial
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from .roots import HessenbergFunction

Partition = tuple[int, ...]


class SizeMismatch(ValueError):
    """Partition sizes do not agree."""


class NonIntegralSolution(ValueError):
    """A solve of N c = b whose c does not give back b under N."""


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
    return _fillings(tuple(lam)).get(tuple(nu), 0)


@lru_cache(maxsize=None)
def _horizontal_strips(shape: Partition, k: int) -> tuple[Partition, ...]:
    """Every shape that adds k cells to shape, no two of them in one column.

    Memoised, and a tuple, as every caller gets the same result: at n = 10,
    kostka_matrix makes 1,016 calls over 159 distinct (shape, k).
    """
    size = sum(shape) + k
    tops = ((shape[0] if shape else 0) + k, *shape)  # row i grows up to row i - 1
    out = []
    for grown in product(*(range(lo, hi + 1) for lo, hi in zip(shape, tops))):
        last = size - sum(grown)  # the new bottom row takes what is left
        if 0 <= last <= tops[-1]:
            out.append((*grown, last) if last else grown)
    return tuple(out)


@lru_cache(maxsize=None)
def _fillings(content: tuple[int, ...]) -> Mapping[Partition, int]:
    """Number of semistandard tableaux of the given content, per shape.

    The cells holding the largest entry of such a tableau form a horizontal
    strip, so the table for content grows the one for content[:-1] by every
    horizontal strip of content[-1] cells.
    """
    if not content:
        return MappingProxyType({(): 1})
    out: dict[Partition, int] = {}
    for shape, count in _fillings(content[:-1]).items():
        for grown in _horizontal_strips(shape, content[-1]):
            out[grown] = out.get(grown, 0) + count
    return MappingProxyType(out)


@dataclass(frozen=True)
class IntegerMatrix:
    """A square integer matrix indexed both ways by a PartitionOrder."""

    order: PartitionOrder
    rows: tuple[tuple[int, ...], ...]

    def entry(self, lam: Partition, nu: Partition) -> int:
        return self.rows[self.order.index(lam)][self.order.index(nu)]

    @cached_property
    def array(self) -> np.ndarray:
        """The rows as a read-only int64 array, built on first use."""
        out = np.array(self.rows, dtype=np.int64)
        out.flags.writeable = False
        return out

    def to_json_dict(self) -> dict:
        """Row-major entries with the partition labels attached."""
        return {
            "n": self.order.n,
            "labels": [list(lam) for lam in self.order.partitions],
            "rows": [list(row) for row in self.rows],
        }


def _int64_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact int64 product a·b. Raises NonIntegralSolution unless u·|b| < 2**62
    in float64, with u the largest |a| in each column: that keeps every partial
    sum under 2**63, rounding included. Elementwise, as a BLAS call would add to
    the peak resident set."""
    u = np.abs(a.astype(np.float64)).max(axis=0, initial=0.0)
    if (u[:, None] * np.abs(b.astype(np.float64))).sum(axis=0).max(initial=0.0) >= 2**62:
        raise NonIntegralSolution(f"a {a.shape} by {b.shape} int64 product could overflow")
    return a @ b


@lru_cache(maxsize=None)
def kostka_matrix(n: int) -> IntegerMatrix:
    """K with K[nu][lam] = kostka(nu, lam); unit upper-triangular in the total order."""
    order = partitions_of(n)
    columns = [_fillings(lam) for lam in order.partitions]
    rows = tuple(tuple(col.get(nu, 0) for col in columns) for nu in order.partitions)
    return IntegerMatrix(order, rows)


@lru_cache(maxsize=None)
def _inverse_kostka(n: int) -> np.ndarray:
    """The exact inverse of K as a read-only int64 array: back-substitution,
    as K is unit upper-triangular, then an exact check that K·K^-1 = I."""
    k = kostka_matrix(n).array
    inv = np.eye(len(k), dtype=np.int64)
    for i in range(len(k) - 2, -1, -1):
        inv[i, i + 1 :] = -(k[i, i + 1 :] @ inv[i + 1 :, i + 1 :])
    if not np.array_equal(_int64_product(k, inv), np.eye(len(k), dtype=np.int64)):
        raise ArithmeticError(f"K times its computed inverse is not I at n={n}")
    inv.flags.writeable = False
    return inv


@lru_cache(maxsize=None)
def fixed_space_matrix(n: int) -> IntegerMatrix:
    """N = K^T K, with N[lam][nu] the dimension of the S_nu-fixed subspace of M^lam."""
    k = kostka_matrix(n).array
    return IntegerMatrix(partitions_of(n), tuple(map(tuple, _int64_product(k.T, k).tolist())))


def solve_fixed_space_system(
    n: int, rows: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The unique integer solutions of N c = b, one per vector b in rows, as (C, D).

    N = K^T K, so with the vectors b as the rows of B, the int64 products
    D = B K^-1 (Young's rule: each row d = K c, the Specht coefficients) and
    C = D K^-T give the tabloid coefficients. The recheck dots each row of N,
    read from fixed_space_matrix(n) at the call, with each c to give back b.
    A vector that fails the recheck or an overflow bound of _int64_product
    raises NonIntegralSolution.
    """
    inv = _inverse_kostka(n)
    m = len(inv)
    for b in rows:
        if len(b) != m:
            raise SizeMismatch(f"vector length {len(b)} != {m} partitions of {n}")
    try:
        big_b = np.array(rows, dtype=np.int64).reshape(len(rows), m)
    except OverflowError:
        raise NonIntegralSolution(f"a vector at n={n} does not fit in int64") from None
    d = _int64_product(big_b, inv)
    c = _int64_product(d, inv.T)
    wrong = np.flatnonzero((_int64_product(c, fixed_space_matrix(n).array.T) != big_b).any(axis=1))
    if len(wrong):
        raise NonIntegralSolution(f"N c != b for b={list(rows[wrong[0]])}")
    return tuple(map(tuple, c.tolist())), tuple(map(tuple, d.tolist()))


def count_ph_tableaux(h: HessenbergFunction, shape: Partition) -> int:
    """Number of P_h-tableaux of the given shape.

    Each of 1..n appears once; an entry immediately right of j must exceed h(j);
    an entry i immediately below j needs j <= h(i). Counted row by row from
    the top through _tableaux_below, whose memo is shared by every shape and h.
    """
    if sum(shape) != h.n:
        raise SizeMismatch(f"|{shape}| != {h.n}")
    rows = tuple(p for p in shape if p)
    if any(a < b for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{shape} is not a partition")
    return _tableaux_below(bytes((*rows, 0, *h.values)) + b"\x01" * rows[0])


@lru_cache(maxsize=None)
def _tableaux_below(state: bytes) -> int:
    """P_h-tableaux of the rows left, from the canonical state
    bytes((*rows, 0, *h_U, *bounds)).

    rows are the lengths of the rows left, top first. h_U is h induced on the
    m unused values relabelled 1..m: h_U(a) counts the unused values <= h(u_a).
    bounds[c] is the least rank the entry in column c of the top row left may
    take: an entry i below j needs h(i) >= j, and h is nondecreasing. The
    count depends on nothing else, so the memo is shared across shapes and h.
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
            # the least rank below v is the least a with h_U(a) >= v, among kept
            below = [bisect_left(kept, bisect_left(h_u, v) + 1) + 1 for v in chain[: rest[0]]]
            total += _tableaux_below(bytes((*rest, 0, *h_next, *below)))
            return
        for v in range(max(lo, bounds[col]), m - width + col + 2):
            chain.append(v)
            extend(h_u[v - 1] + 1)
            chain.pop()

    extend(1)
    return total
