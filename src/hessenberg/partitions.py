"""Partitions, Kostka numbers, the fixed-space matrix N = K^T K, tableau counts,
and the one exact solve of N c = b on int64 arrays only: int64 products with the
inverse of K under overflow bounds, which yield c alone (d = K c is read from it).
K, K^-1 and N come from one memoised build per n."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial
from types import MappingProxyType
from typing import Iterator, Mapping

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
    """The partitions of n in decreasing total order, (n) first; () alone at n = 0."""
    if n < 0:
        raise ValueError("n must not be negative")
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


def _int64_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact int64 product a·b, read-only. Raises NonIntegralSolution unless
    u·|b| < 2**62 in float64, with u the largest |a| in each column: that keeps every
    partial sum under 2**63, rounding included. Elementwise, as a BLAS call would add
    to the peak resident set."""
    u = np.abs(a.astype(np.float64)).max(axis=0, initial=0.0)
    if (u[:, None] * np.abs(b.astype(np.float64))).sum(axis=0).max(initial=0.0) >= 2**62:
        raise NonIntegralSolution(f"a {a.shape} by {b.shape} int64 product could overflow")
    out = a @ b
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _kostka_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(K, K^-1, N) as read-only int64 arrays from one build of K: K is unit upper-triangular,
    so K^-1 comes by back-substitution, then an exact check that K·K^-1 = I."""
    order = partitions_of(n).partitions
    columns = [_fillings(lam) for lam in order]
    k = np.array([[col.get(nu, 0) for col in columns] for nu in order], dtype=np.int64)
    inv = np.eye(len(k), dtype=np.int64)
    for i in range(len(k) - 2, -1, -1):
        inv[i, i + 1 :] = -(k[i, i + 1 :] @ inv[i + 1 :, i + 1 :])
    if not np.array_equal(_int64_product(k, inv), np.eye(len(k), dtype=np.int64)):
        raise ArithmeticError(f"K times its computed inverse is not I at n={n}")
    k.flags.writeable = inv.flags.writeable = False
    return k, inv, _int64_product(k.T, k)


def kostka_matrix(n: int) -> np.ndarray:
    """K[nu, lam] = kostka(nu, lam), read-only int64, both indexed by partitions_of(n)."""
    return _kostka_arrays(n)[0]


def fixed_space_matrix(n: int) -> np.ndarray:
    """N = K^T K as a read-only int64 array indexed both ways by partitions_of(n), with
    N[lam, nu] the dimension of the S_nu-fixed subspace of M^lam."""
    return _kostka_arrays(n)[2]


def _require_int64(rows, shape: tuple[int, ...], what: str) -> None:
    """rows must be an int64 array (else TypeError) of the given shape (else SizeMismatch)."""
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == len(shape)):
        raise TypeError(f"{what} must be a {len(shape)}-D int64 array")
    if rows.shape != shape:
        raise SizeMismatch(f"{what} has shape {rows.shape}, not {shape}")


def solve_fixed_space_system(n: int, big_b: np.ndarray) -> np.ndarray:
    """The unique integer solutions of N c = b, one per row b of the 2-D int64 array big_b,
    as the read-only int64 array C. Any other input raises TypeError, and rows of
    another width than p(n) SizeMismatch.

    N = K^T K, so C = (B K^-1) K^-T by two int64 products. The first gives each row's
    Specht coefficients d = K c (Young's rule), which are not kept. The recheck
    multiplies C by N to give back B. A row that fails it or an overflow bound of
    _int64_product raises NonIntegralSolution.
    """
    _, inv, fixed = _kostka_arrays(n)
    _require_int64(big_b, (len(big_b), len(inv)), f"b at n={n}")
    c = _int64_product(_int64_product(big_b, inv), inv.T)
    wrong = np.flatnonzero((_int64_product(c, fixed.T) != big_b).any(axis=1))
    if len(wrong):
        raise NonIntegralSolution(f"N c != b for b={big_b[wrong[0]].tolist()}")
    return c


def count_ph_tableaux(h: HessenbergFunction, shape: Partition) -> int:
    """Number of P_h-tableaux of the given shape.

    Each of 1..n appears once; an entry immediately right of j must exceed h(j);
    an entry i immediately below j needs j <= h(i). Read from ph_tableaux_counts.
    """
    if sum(shape) != h.n:
        raise SizeMismatch(f"|{shape}| != {h.n}")
    rows = tuple(p for p in shape if p)
    if any(a < b for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{shape} is not a partition")
    return ph_tableaux_counts(h).get(rows, 0)


def ph_tableaux_counts(h: HessenbergFunction) -> Mapping[Partition, int]:
    """Number of P_h-tableaux of every shape that has one, by one pass of the
    row DP _tableaux_by_shape, whose memo is shared by every h. The top state
    (h, 1^n) holds all of h, so no other h reads it: it runs unmemoised."""
    return MappingProxyType(_tableaux_by_shape.__wrapped__(bytes(h.values), b"\x01" * h.n))


@lru_cache(maxsize=None)
def _tableaux_by_shape(h_u: bytes, bounds: bytes) -> dict[Partition, int]:
    """P_h-tableaux of the m values left, per shape (its rows, top first), from
    the canonical state (h_U, bounds). Callers must not change the result.

    h_U is h induced on the m unused values relabelled 1..m: h_U(a) counts the
    unused values <= h(u_a). bounds[c] is the least rank the entry in column c
    of the top row left may take, one per column it can fill. The top row is
    a chain v_1 < v_2 < ... with v_(c+1) > h_U(v_c), so each chain, of length
    w, is enumerated once and closes a top row of length w over the rows that
    _rows_below counts. The memo is shared across h.
    """
    m = len(h_u)
    out: dict[Partition, int] = {}
    chain: list[int] = []

    def extend(lo: int) -> None:
        width = len(chain) + 1
        for v in range(max(lo, bounds[width - 1]), m + 1):
            chain.append(v)
            for rows, count in (_rows_below(h_u, chain) if width < m else {(): 1}).items():
                out[(width, *rows)] = out.get((width, *rows), 0) + count
            if width < len(bounds):
                extend(h_u[v - 1] + 1)
            chain.pop()

    extend(1)
    return out


def _rows_below(h_u: bytes, chain: list[int]) -> Mapping[Partition, int]:
    """P_h-tableaux, per shape, of the values left under a top row chain. An
    entry i below j needs h(i) >= j, so the least rank below u is the least
    kept a with h_U(a) >= u; a row is a chain, so it also exceeds h_U of the
    bound before it. The bounds stop at the first column no value can fill."""
    kept = [a for a in range(1, len(h_u) + 1) if a not in chain]
    h_next = bytes(bisect_right(kept, h_u[a - 1]) for a in kept)
    bounds, lo = [], 1
    for u in chain:
        least = max(lo, bisect_left(kept, bisect_left(h_u, u) + 1) + 1)
        if least > len(kept):
            break
        bounds.append(least)
        lo = h_next[least - 1] + 1
    return _tableaux_by_shape(h_next, bytes(bounds)) if bounds else {}
