"""Permutations, inversion statistics, and Poincaré polynomials of regular
Hessenberg varieties via the combinatorial Betti-number formula."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .roots import HessenbergFunction, Root, negative_root_count

Permutation = tuple[int, ...]  # one-line notation, 1-based values


class NotShortestRepresentative(ValueError):
    """z is not a shortest coset representative (its inverse must increase on [nu1+1])."""


class ResultNotHessenberg(RuntimeError):
    """Conjugation produced a non-Hessenberg root set (implementation bug)."""


class SizeGuard(ValueError):
    """A requested size exceeds the --max-n guard or the Poincaré engine's bound."""


def perm_inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def perm_compose(v: Permutation, w: Permutation) -> Permutation:
    """(v w)(i) = v(w(i))."""
    return tuple(v[w[i] - 1] for i in range(len(w)))


def inversion_pairs(w: Permutation) -> set[Root]:
    """inv(w) = {(i, j) : i > j, w(i) < w(j)}, identified with N^-(w)."""
    n = len(w)
    return {
        (i, j)
        for j in range(1, n + 1)
        for i in range(j + 1, n + 1)
        if w[i - 1] < w[j - 1]
    }


def hessenberg_inversions(w: Permutation, h: HessenbergFunction) -> int:
    """|{(i, j) : i > j, w(i) < w(j), i <= h(j)}| = |N^-(w) ∩ Phi_h^-|."""
    n = len(w)
    if n != h.n:
        raise ValueError("permutation and Hessenberg function sizes differ")
    return sum(
        1
        for j in range(1, n + 1)
        for i in range(j + 1, min(h(j), n) + 1)
        if w[i - 1] < w[j - 1]
    )


def composition_simple_roots(nu: Sequence[int]) -> tuple[int, ...]:
    """Indices p of the simple roots kept in J_nu: all p except proper partial sums.

    Parts may be zero; zero parts contribute no partial sum, so a trivial
    composition like (n) or (n, 0) keeps the whole simple system.
    """
    parts = [int(p) for p in nu]
    if any(p < 0 for p in parts):
        raise ValueError("composition parts must be nonnegative")
    n = sum(parts)
    cuts = set()
    acc = 0
    for p in parts:
        acc += p
        if 0 < acc < n:
            cuts.add(acc)
    return tuple(p for p in range(1, n) if p not in cuts)


def in_phi_h(root: Root, h: HessenbergFunction) -> bool:
    """Whether t_i - t_j lies in Phi_h (positive, or negative with i <= h(j))."""
    i, j = root
    return i < j or i <= h(j)


def satisfies_hessenberg_condition(
    w: Permutation, j_indices: Sequence[int], h: HessenbergFunction
) -> bool:
    """Whether w^{-1}(alpha_p) lies in Phi_h for every retained simple root index p."""
    inv = perm_inverse(w)
    return all(in_phi_h((inv[p - 1], inv[p]), h) for p in j_indices)


MAX_POINCARE_N = 13
"""Largest n the Poincaré engine accepts. A stored DP value counts bijections
of at most n - 1 values, so it is at most (n - 1)! < 2^31 up to n = 13; the
last layer, which can reach n!, is summed in int64 and never stored; the
int64 sums are what poincare_arrays returns. One block holds about
(2^n + n 2^(n-1)) H W int32 values for H functions of width W (see
POINCARE_BLOCK_CELLS), and one layer's gathered copy at a time; its pad
check ORs the buffer down to one row per slot and copies none of it. A
block of one h = (n,...,n) with every partition raises the process peak by
about 40 MB at n = 13, in 0.05-0.15 s on a 2-core VM, and by 16 MB at
n = 12; each n doubles it or more."""

POINCARE_BLOCK_CELLS = 1 << 19
"""Most int32 DP values (2 MB) that poincare_arrays puts in one block of
several h; a single h that needs more runs as a block of one."""


def poincare_size_guard(n: int) -> None:
    """Raise SizeGuard when n exceeds MAX_POINCARE_N."""
    if n > MAX_POINCARE_N:
        raise SizeGuard(f"n={n} exceeds the Poincaré engine bound {MAX_POINCARE_N}")


@lru_cache(maxsize=None)
def _subset_dp_plan(
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list, list]:
    """Index arrays of the subset DP on n positions; they depend on n alone.

    Layer s of the DP buffer is s + 1 blocks of C(n, s) rows, one row per
    s-subset in the order of its mask's rank among those of its size. Block j
    holds, for every s-subset S, the sum over the first j members of S, so
    block 0 is zero but for layer 0's one row. One entry per pair (S, q) with
    q in S, ordered by |S|, then by j, the index of q among the members of S,
    then by the rank of S: the pairs of layer s gather block by block, in the
    order of its rows. Per pair: the mask of T = S minus {q}, q, |T|, the
    buffer row of T in block 0, and C(n, |T|), the rows from one of T's sums
    to the next. Also the first pair and the first buffer row of each layer.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    size = np.bitwise_count(masks).astype(np.int64)
    by_size = np.argsort(size, kind="stable")
    first = np.searchsorted(size[by_size], np.arange(n + 1))
    rank = np.empty_like(masks)
    rank[by_size] = np.arange(1 << n) - first[size[by_size]]
    subsets, q = np.nonzero((by_size[1:, None] >> np.arange(n)) & 1)
    s = by_size[1:][subsets]
    j = np.bitwise_count(s & ((np.int64(1) << q) - 1))
    order = np.lexsort((rank[s], j, size[s]))
    s, q = s[order], q[order]
    t = s ^ (np.int64(1) << q)
    k = size[t]
    blocks = np.array([comb(n, m) for m in range(n + 1)])
    layer_rows = np.concatenate([[0], np.cumsum(blocks * np.arange(1, n + 2))]).tolist()
    row = np.array(layer_rows)[k] + rank[t]
    first_pair = np.searchsorted(k, np.arange(n + 1)).tolist()
    return t, q, k, row, blocks[k], first_pair, layer_rows


@lru_cache(maxsize=None)
def _step_plan(
    n: int, compositions: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, ...], int], ...]]:
    """The J_nu step bits of each composition (bit p is 1 when the step from
    value p to p + 1 lies in J_nu; bit 0 never is), and the distinct bit
    vectors in sorted order, each with the number of leading layers it shares
    with the one before it; they depend on n and the compositions alone."""
    for nu in compositions:
        if sum(int(p) for p in nu) != n:
            raise ValueError(f"composition {nu} does not sum to {n}")
    kept = [set(composition_simple_roots(nu)) for nu in compositions]
    bits = tuple(tuple(int(p in j) for p in range(n)) for j in kept)
    steps, done = [], ()
    for key in sorted(set(bits)):
        steps.append((key, next((p for p, (a, b) in enumerate(zip(key, done)) if a != b), 0)))
        done = key
    return bits, tuple(steps)


def poincare_slot(h: HessenbergFunction) -> tuple[int, int]:
    """The pad and top of h's slot in a block of poincare_arrays: its largest degree
    step h(j) - j and |Phi_h^-|. A block's slots share the width of its largest pad
    plus its largest top plus 1."""
    return max(v - j for j, v in enumerate(h.values, 1)), negative_root_count(h)


def poincare_blocks(hs: Sequence[HessenbergFunction]) -> list[list[HessenbergFunction]]:
    """hs, which must share n, cut in input order into the blocks that poincare_arrays
    runs as one DP pass each: a block takes the next h while it holds at most
    POINCARE_BLOCK_CELLS values (see MAX_POINCARE_N), or one h alone."""
    hs = list(hs)
    n = hs[0].n if hs else 0
    if any(h.n != n for h in hs):
        raise ValueError("the functions of one poincare_arrays call must share n")
    poincare_size_guard(n)
    rows = _subset_dp_plan(n)[-1][n] if hs else 0  # DP rows of layers 0..n-1
    blocks, pad, top = [], 0, 0
    for h in hs:
        slot_pad, slot_top = poincare_slot(h)
        pad, top = max(pad, slot_pad), max(top, slot_top)
        if blocks and rows * (len(blocks[-1]) + 1) * (pad + top + 1) <= POINCARE_BLOCK_CELLS:
            blocks[-1].append(h)
        else:
            blocks.append([h])
            pad, top = slot_pad, slot_top
    return blocks


def poincare_arrays(
    hs: Sequence[HessenbergFunction], compositions: Sequence[Sequence[int]]
) -> list[np.ndarray]:
    """Per h in hs, the Poincaré polynomials of the regular Hessenberg varieties of Jordan
    type nu for the nu in compositions, as one read-only int64 array [composition, degree
    0..|Phi_h^-|] with trailing zeros kept: entry [nu, i] counts the w in S_n with
    w^{-1}(J_nu) inside Phi_h and |N^-(w) ∩ Phi_h^-| = i.

    The h must share n. Each block of poincare_blocks(hs) is one DP pass, so
    every h of it shares its numpy calls.
    """
    return [
        table for block in poincare_blocks(hs) for table in _poincare_block(block, compositions)
    ]


def _poincare_block(
    hs: list[HessenbergFunction], compositions: Sequence[Sequence[int]]
) -> list[np.ndarray]:
    """The poincare_arrays of every h in hs, which share n, by one DP pass.

    The sum is a DP that places the values 1..n in increasing order. Its
    state is the set S of filled positions and the position r of the last
    value. Placing the next value at q adds |S ∩ (q, h(q)]| to the degree,
    and when the step p (from value p to p + 1) lies in J_nu it needs
    t_r - t_q in Phi_h, that is r <= h(q). Layer k stores, for every
    k-subset S, prefix sums over its members r of the degree vectors, so
    the sum over the allowed r is one lookup, and each layer is one gather
    from the last. Layer s reads nu only through whether step s - 1 lies in
    J_nu, so the compositions are taken in the order of their J_nu bit
    vectors, and each one recomputes only the layers after its first bit that
    differs from the previous one.

    Layers are member-major (see _subset_dp_plan), so the gather of layer s
    comes out as s blocks, one per member index j, and block j + 1 of the
    layer is block j plus gathered block j: one contiguous add, not a cumsum
    along the short member axis, which is several times slower. The buffer
    holds layers 0..n - 1 in int32, which holds their counts up to
    MAX_POINCARE_N. Layer n has one subset, and only its full sum is read,
    so its n gathered rows are summed at once in int64 and not stored.

    Each row of the plan is H slots, slot row H + x for hs[x], so one gather
    and one add serve every h. A slot is the |Phi_h^-| + 1 coefficients of
    its h, then zeros up to the shared width W: pad, the largest degree step
    of the block, plus its largest |Phi_h^-| plus 1. The buffer starts with
    pad zeros, so a gather shifted back by its degree step reads zeros below
    degree 0. Those zeros stay zero, as a state's degree plus the step never
    exceeds |Phi_h^-|: each inversion counted is a distinct pair of Phi_h^-
    among the filled positions. A RuntimeError is raised if it does not, in
    a stored slot or a summed one: every stored row and every sum are ORed
    together per slot, which is zero only where all of them are.
    """
    n, size = hs[0].n, len(hs)
    pads, tops = zip(*map(poincare_slot, hs))
    bits, steps = _step_plan(n, tuple(map(tuple, compositions)))
    t, q, k, row, stride, first_pair, layer_rows = _subset_dp_plan(n)
    hv = np.array([h.values for h in hs], dtype=np.int64)
    pad, tops = max(pads), np.array(tops)
    width = pad + int(tops.max()) + 1
    below_h = ((np.int64(1) << hv.T) - 1)[q]  # 0-based positions r with r + 1 <= h(q)
    above_q = below_h & ~((np.int64(2) << q) - 1)[:, None]  # and r > q
    slot = row[:, None] * size + np.arange(size)
    start = slot * width + pad - np.bitwise_count(t[:, None] & above_q)
    # members r read, by whether step |T| is in J_nu (row 1) or not (row 0); the
    # cast keeps the uint8 of bitwise_count from wrapping in the product
    step = (stride * size * width)[:, None]  # from one of T's sums to the next
    allowed = np.bitwise_count(t[:, None] & below_h).astype(np.int64)
    cells = np.stack([start + k[:, None] * step, start + allowed * step]).reshape(2, -1)
    flat = np.zeros(pad + layer_rows[n] * size * width, dtype=np.int32)  # layers 0..n-1
    dp = flat[pad:].reshape(-1, width)
    dp[:size, 0] = 1  # the empty placement
    windows = np.lib.stride_tricks.sliding_window_view(flat, width)
    sums: dict[tuple[int, ...], np.ndarray] = {}
    for key, first in steps:
        for s in range(first + 1, n):
            pairs = cells[key[s - 1], first_pair[s - 1] * size : first_pair[s] * size]
            placed = windows[pairs].reshape(s, -1)
            blocks = dp[layer_rows[s] * size : layer_rows[s + 1] * size].reshape(s + 1, -1)
            for j in range(s):
                np.add(blocks[j], placed[j], out=blocks[j + 1])
        last = windows[cells[key[n - 1], first_pair[n - 1] * size :]].reshape(n, size, width)
        sums[key] = last.sum(axis=0, dtype=np.int64)
    seen = np.bitwise_or.reduce(dp.reshape(-1, size, width), axis=0)
    seen = seen | np.bitwise_or.reduce(np.stack(list(sums.values())), axis=0)
    over = np.where(np.arange(width) > tops[:, None], seen, 0).any(axis=1)
    if over.any():
        h = hs[over.argmax()]
        raise RuntimeError(f"a degree of the Poincaré DP for h={h.values} passed |Phi_h^-|")
    table = np.stack([sums[key] for key in bits], axis=1)  # [h, composition, degree]
    table.flags.writeable = False
    return [table[x, :, : top + 1] for x, top in enumerate(tops.tolist())]


def poincare_polynomial(nu: Sequence[int], h: HessenbergFunction) -> np.ndarray:
    """Poincaré polynomial of the regular Hessenberg variety of Jordan type nu, as the
    read-only int64 row of poincare_arrays: coefficient i at degree 0..|Phi_h^-|."""
    return poincare_arrays([h], [nu])[0][0]


def shortest_coset_decompose(w: Permutation, nu1: int) -> tuple[Permutation, Permutation]:
    """Factor w = y z with y permuting [nu1+1] and z a shortest coset representative.

    z re-sorts the entries of w lying in [nu1+1] into increasing order; y is the
    element of S_{nu1+1} recording their original order.
    """
    n = len(w)
    k = nu1 + 1
    if not 1 <= k <= n:
        raise ValueError(f"nu1 + 1 must lie in [1, {n}]")
    small_sorted = sorted(v for v in w if v <= k)
    z = list(w)
    order = iter(small_sorted)
    for pos, val in enumerate(z):
        if val <= k:
            z[pos] = next(order)
    z_t = tuple(z)
    z_inv = perm_inverse(z_t)
    y = tuple(w[z_inv[v - 1] - 1] for v in range(1, k + 1))
    return y, z_t


def shortest_coset_representatives(n: int, nu1: int) -> list[Permutation]:
    """All z in S_n whose values 1..nu1+1 appear in increasing order, lex sorted."""
    import itertools

    k = nu1 + 1
    reps = []
    for positions in itertools.combinations(range(n), k):
        base = [0] * n
        for v, pos in enumerate(positions, start=1):
            base[pos] = v
        for fill in itertools.permutations(range(k + 1, n + 1)):
            word = list(base)
            it = iter(fill)
            for pos in range(n):
                if word[pos] == 0:
                    word[pos] = next(it)
            reps.append(tuple(word))
    return sorted(reps)


def is_shortest_representative(z: Permutation, nu1: int) -> bool:
    inv = perm_inverse(z)
    return all(inv[v - 1] < inv[v] for v in range(1, nu1 + 1))


def conjugated_hessenberg(
    h: HessenbergFunction, z: Permutation, nu1: int
) -> HessenbergFunction:
    """The Hessenberg function h_z on [nu1+1] cut out by z Phi_h z^{-1}.

    Column j keeps the i in [nu1+1] with z^{-1}(i) <= h(z^{-1}(j)); for a
    shortest representative z these form initial segments, so they define a
    Hessenberg function.
    """
    n = h.n
    k = nu1 + 1
    if len(z) != n or not 1 <= k <= n:
        raise ValueError("sizes of h, z, and nu1 are inconsistent")
    if not is_shortest_representative(z, nu1):
        raise NotShortestRepresentative(f"{z} moves some of 1..{nu1} out of order")
    z_inv = perm_inverse(z)
    values = []
    for j in range(1, k + 1):
        col = {i for i in range(1, k + 1) if z_inv[i - 1] <= h(z_inv[j - 1])}
        if col != set(range(1, len(col) + 1)):
            raise ResultNotHessenberg(f"column {j} of z H z^{{-1}} is not an initial segment")
        values.append(len(col))
    try:
        h_z = HessenbergFunction(tuple(values))
    except ValueError as exc:
        raise ResultNotHessenberg(str(exc)) from exc
    return h_z
