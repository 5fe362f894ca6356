"""Hessenberg functions, negative roots of gl(n), their ideals, and ideal height.

A negative root t_i - t_j (i > j) is the ordered pair (i, j); a positive root
has i < j.  All set computations work directly on these pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

Root = tuple[int, int]


class HessenbergError(ValueError):
    """Invalid Hessenberg-function data."""


class OutOfRange(HessenbergError):
    """Some value lies outside [1, n]."""


class BelowDiagonal(HessenbergError):
    """Some h(i) < i."""


class NotNondecreasing(HessenbergError):
    """h(i+1) < h(i) for some i."""


class NotAnIdeal(ValueError):
    """The root set is not an upper-order ideal of the negative roots."""


@dataclass(frozen=True, order=True)
class HessenbergFunction:
    """Nondecreasing h: [n] -> [n] with h(i) >= i, stored as its value sequence."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n == 0:
            raise OutOfRange("empty value sequence")
        for i, v in enumerate(self.values, start=1):
            if not 1 <= v <= n:
                raise OutOfRange(f"h({i}) = {v} is outside [1, {n}]")
            if v < i:
                raise BelowDiagonal(f"h({i}) = {v} < {i}")
        for i in range(n - 1):
            if self.values[i + 1] < self.values[i]:
                raise NotNondecreasing(
                    f"h({i + 2}) = {self.values[i + 1]} < h({i + 1}) = {self.values[i]}"
                )

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """Value h(i) for 1-based i."""
        return self.values[i - 1]

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"


def validate_hessenberg(values: Sequence[int]) -> HessenbergFunction:
    """Validate a value sequence and wrap it as a HessenbergFunction."""
    return HessenbergFunction(tuple(int(v) for v in values))


@dataclass(frozen=True)
class RootSet:
    """A set of roots in ambient rank n, iterated in sorted (i, j) order."""

    n: int
    members: frozenset[Root]

    def __post_init__(self):
        for i, j in self.members:
            if not (1 <= i <= self.n and 1 <= j <= self.n and i != j):
                raise ValueError(f"({i}, {j}) is not a root in rank {self.n}")

    @classmethod
    def of(cls, n: int, roots: Iterable[Root]) -> "RootSet":
        return cls(n, frozenset((int(i), int(j)) for i, j in roots))

    def __iter__(self) -> Iterator[Root]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, root) -> bool:
        return tuple(root) in self.members

    def __bool__(self) -> bool:
        return bool(self.members)


def negative_roots(n: int) -> RootSet:
    """All n(n-1)/2 negative roots t_i - t_j, i > j."""
    return RootSet.of(n, ((i, j) for j in range(1, n + 1) for i in range(j + 1, n + 1)))


def root_sum(a: Root, b: Root) -> Optional[Root]:
    """The root (t_a1 - t_a2) + (t_b1 - t_b2), or None when the sum is not a root."""
    (i, j), (k, l) = a, b
    if j == k and i != l:
        return (i, l)
    if l == i and k != j:
        return (k, j)
    return None


def roots_of(h: HessenbergFunction) -> tuple[RootSet, RootSet]:
    """The pair (Phi_h^-, Phi_h): negative roots with i <= h(j), and their union with Phi^+."""
    n = h.n
    minus = [(i, j) for j in range(1, n + 1) for i in range(j + 1, min(h(j), n) + 1)]
    plus = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return RootSet.of(n, minus), RootSet.of(n, minus + plus)


def negative_root_count(h: HessenbergFunction) -> int:
    """|Phi_h^-| = sum of h(j) - j, the number of negative roots with i <= h(j)."""
    return sum(h.values) - h.n * (h.n + 1) // 2


def is_ideal(roots: RootSet) -> bool:
    """Whether a set of negative roots is closed under adding any negative root."""
    s = roots.members
    for i, j in s:
        if i < j:
            return False
        # (i,j)+(j,l) = (i,l) and (k,i)+(i,j) = (k,j) are the only root sums
        for l in range(1, j):
            if (i, l) not in s:
                return False
        for k in range(i + 1, roots.n + 1):
            if (k, j) not in s:
                return False
    return True


def ideal_of(h: HessenbergFunction) -> RootSet:
    """The ideal I_h = Phi^- \\ Phi_h^- = {(i, j) : i > h(j)}."""
    n = h.n
    ideal = RootSet.of(
        n, ((i, j) for j in range(1, n + 1) for i in range(h(j) + 1, n + 1))
    )
    if not is_ideal(ideal):
        raise RuntimeError(f"ideal_of produced a non-ideal for h={h}")
    return ideal


def hessenberg_of_ideal(ideal: RootSet) -> HessenbergFunction:
    """The unique h with ideal_of(h) equal to the given upper-order ideal."""
    if not is_ideal(ideal):
        raise NotAnIdeal(f"{sorted(ideal.members)} is not an ideal in rank {ideal.n}")
    n = ideal.n
    values = []
    for j in range(1, n + 1):
        col = [i for i in range(j + 1, n + 1) if (i, j) in ideal]
        values.append(min(col) - 1 if col else n)
    h = HessenbergFunction(tuple(values))
    if ideal_of(h).members != ideal.members:
        raise RuntimeError("ideal reconstruction failed to round-trip")
    return h


def index_of(h: HessenbergFunction) -> int:
    """The largest i with h(i) < n, or 0 when h is constantly n."""
    n = h.n
    return max((i for i in range(1, n + 1) if h(i) < n), default=0)


@lru_cache(maxsize=8)  # the checks of one h ask several times; keep no more than a few h
def is_abelian(h: HessenbergFunction) -> bool:
    """Whether I_h is abelian: no two of its roots sum to a negative root.

    Computed both by the pairwise-sum test and by the index criterion
    h(1) >= index(h); the two must agree.
    """
    members = list(ideal_of(h))
    pairwise = not any(root_sum(a, b) for a in members for b in members)
    by_index = h(1) >= index_of(h)
    if pairwise != by_index:
        raise RuntimeError(f"abelian criteria disagree for h={h}")
    return pairwise


def is_strictly_negative(h: HessenbergFunction) -> bool:
    """Whether no simple negative root t_{i+1} - t_i lies in I_h."""
    ideal = ideal_of(h)
    return not any((i + 1, i) in ideal for i in range(1, h.n))


@dataclass(frozen=True)
class IdealHeightReport:
    """Lower central series of an ideal, its height, and a maximal chain witness."""

    height: int
    series: tuple[RootSet, ...]
    witness_chain: Optional[tuple[Root, ...]]


def _longest_chain(roots: RootSet) -> list[Root]:
    """Longest chain t_{q2}-t_{q1}, ..., t_{q_{k+1}}-t_{q_k} inside the set."""
    n = roots.n
    best_len = [0] * (n + 1)  # chain length of the best chain ending at vertex v
    prev = [0] * (n + 1)
    for v in range(1, n + 1):
        for u in range(1, v):
            if (v, u) in roots and best_len[u] + 1 > best_len[v]:
                best_len[v] = best_len[u] + 1
                prev[v] = u
    end = max(range(1, n + 1), key=lambda v: best_len[v])
    chain: list[Root] = []
    while prev[end]:
        chain.append((end, prev[end]))
        end = prev[end]
    chain.reverse()
    return chain


def height_via_chains(ideal: RootSet) -> int:
    """Ideal height as the maximal size of a chain subset it contains."""
    return len(_longest_chain(ideal))


def lower_central_series(ideal: RootSet) -> IdealHeightReport:
    """Series I_1 = I, I_j = {a + g in Phi^- : a in I, g in I_{j-1}} down to empty."""
    if not is_ideal(ideal):
        raise NotAnIdeal(f"{sorted(ideal.members)} is not an ideal in rank {ideal.n}")
    series: list[RootSet] = []
    current = ideal.members
    while current:
        series.append(RootSet(ideal.n, current))
        nxt = frozenset(
            s for a in ideal.members for g in current if (s := root_sum(a, g))
        )
        if nxt and not nxt < current:
            raise RuntimeError("lower central series failed to shrink")
        current = nxt
    height = len(series)
    chain = _longest_chain(ideal)
    if height != len(chain):
        raise RuntimeError(
            f"series height {height} disagrees with chain height {len(chain)}"
        )
    return IdealHeightReport(height, tuple(series), tuple(chain) if chain else None)


def enumerate_hessenberg_functions(n: int) -> Iterator[HessenbergFunction]:
    """All Hessenberg functions on [n], in lexicographic order of value sequences."""
    if n < 1:
        raise OutOfRange(f"n = {n} is not positive")

    def extend(prefix: list[int], i: int) -> Iterator[HessenbergFunction]:
        if i > n:
            yield HessenbergFunction(tuple(prefix))
            return
        lo = max(i, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            yield from extend(prefix, i + 1)
            prefix.pop()

    yield from extend([], 1)
