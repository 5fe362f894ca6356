"""Machine verification of the inductive identities: slice permutations,
coset bijections, degree shifts, the two-part induction formula, the Poincaré
recursions, and the maximal-sink-set conjecture checker. The last four read one
memoised layer per (h, k): SK_k with each h_T, built from one decompositions call,
and the shifted sum over it, sum over T in SK_k of t^(deg T) c(h_T)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .betti import (
    Permutation,
    composition_simple_roots,
    inversion_pairs,
    perm_compose,
    perm_inverse,
    satisfies_hessenberg_condition,
)
from .dot_action import (
    GradedRepDecomposition,
    decompose,
    decompositions,
    orientation_histogram,
    poincare_of,
)
from .orientations import (
    SinkSet,
    build_graph,
    degree_of,
    max_sink_set_size,
    relabeling,
    restrict,
    sink_sets,
)
from .partitions import Partition, partitions_of
from .reports import CheckReport, mismatch, report_from_failures
from .roots import HessenbergFunction, Root, ideal_of, is_abelian, negative_root_count, roots_of

Composition2 = tuple[int, int]


class BetaNotInIdeal(ValueError):
    """The chosen root does not lie in I_h."""


@dataclass(frozen=True)
class DNuSlice:
    """The permutations w with w^{-1}(J_nu) in Phi_h and w^{-1}(alpha_nu) = beta."""

    nu: Composition2
    beta: Root
    members: tuple[Permutation, ...]


def slice_base_permutation(
    nu: Composition2, beta: Root, h: Optional[HessenbergFunction] = None
) -> Permutation:
    """The member sending a to nu1 and b to nu1+1 with all other entries increasing."""
    a, b = beta
    nu1 = nu[0]
    n = sum(nu)
    if not (1 <= b < a <= n) or not 1 <= nu1 < n:
        raise ValueError(f"beta={beta} or nu={nu} is out of range for n={n}")
    if h is not None and beta not in ideal_of(h):
        raise BetaNotInIdeal(f"{beta} is not in the ideal of h={h}")
    word = [0] * n
    word[a - 1] = nu1
    word[b - 1] = nu1 + 1
    rest = iter(v for v in range(1, n + 1) if v not in (nu1, nu1 + 1))
    for pos in range(n):
        if word[pos] == 0:
            word[pos] = next(rest)
    w = tuple(word)
    if h is not None and is_abelian(h):
        j_indices = composition_simple_roots(nu)
        if not satisfies_hessenberg_condition(w, j_indices, h):
            raise RuntimeError(f"base permutation {w} left the slice for abelian h={h}")
    return w


def hessenberg_slice(nu: Composition2, beta: Root, h: HessenbergFunction) -> DNuSlice:
    """Exhaustive slice membership; empty whenever beta is outside I_h."""
    n = h.n
    if sum(nu) != n:
        raise ValueError(f"composition {nu} does not sum to {n}")
    nu1 = nu[0]
    if nu1 in (0, n) or beta not in ideal_of(h):
        return DNuSlice(tuple(nu), beta, ())
    a, b = beta
    j_indices = composition_simple_roots(nu)
    members = tuple(
        w
        for w in itertools.permutations(range(1, n + 1))
        if w[a - 1] == nu1
        and w[b - 1] == nu1 + 1
        and satisfies_hessenberg_condition(w, j_indices, h)
    )
    return DNuSlice(tuple(nu), beta, members)


def degree_shift_permutation(n: int, nu1: int) -> Permutation:
    """sigma sending nu1 to 1 and nu1+1 to 2, all other values staying in order."""
    if not 1 <= nu1 < n:
        raise ValueError(f"nu1 must lie in [1, {n - 1}]")
    word = [0] * n
    word[nu1 - 1] = 1
    word[nu1] = 2
    rest = iter(range(3, n + 3))
    for pos in range(n):
        if word[pos] == 0:
            word[pos] = next(rest)
    return tuple(word)


def _stabilizer_projection(
    tau: Permutation, a: int, b: int, phi: Sequence[int]
) -> Permutation:
    """Identify tau in Stab(a, b) with its relabeled copy in S_{n-2}."""
    n = len(tau)
    return tuple(phi[tau[i - 1]] for i in range(1, n + 1) if i not in (a, b))


def slice_bijection_check(
    nu: Composition2, beta: Root, h: HessenbergFunction
) -> CheckReport:
    """Verify w -> x_tau maps the slice bijectively onto the qualifying x in S_{n-2}."""
    n = h.n
    a, b = beta
    h_t = restrict(h, (b, a))
    phi = relabeling(n, (b, a))
    w0 = slice_base_permutation(nu, beta, h)
    w0_inv = perm_inverse(w0)
    params = {"h": list(h.values), "nu": list(nu), "beta": list(beta)}
    failures = []

    images = []
    for w in hessenberg_slice(nu, beta, h).members:
        tau = perm_compose(w0_inv, w)
        if tau[a - 1] != a or tau[b - 1] != b:
            failures.append(
                mismatch({"w": list(w)}, "tau fixing a and b", list(tau))
            )
            continue
        images.append(_stabilizer_projection(tau, a, b, phi))

    mu = (nu[0] - 1, nu[1] - 1)
    j_indices = composition_simple_roots(mu)
    target = sorted(
        x
        for x in itertools.permutations(range(1, n - 1))
        if satisfies_hessenberg_condition(x, j_indices, h_t)
    )
    if len(set(images)) != len(images):
        failures.append(
            mismatch({"map": "stabilizer projection"}, "injective", "collision")
        )
    if sorted(images) != target:
        failures.append(
            mismatch(
                {"map": "slice image"},
                [list(x) for x in target],
                [list(x) for x in sorted(images)],
            )
        )
    return report_from_failures("slice_bijection", params, failures)


def degree_shift_check(
    nu: Composition2, beta: Root, h: HessenbergFunction
) -> CheckReport:
    """Verify |N^-(sigma w) ∩ Phi_h^-| = deg(T) + |N^-(tau) ∩ Phi_h^-[T]| on the slice."""
    n = h.n
    a, b = beta
    graph = build_graph(h)
    deg = degree_of((b, a), graph)
    phi_minus = roots_of(h)[0]
    avoid = {a, b}
    phi_minus_t = {r for r in phi_minus if not (set(r) & avoid)}
    neg_t = {
        (i, j)
        for j in range(1, n + 1)
        for i in range(j + 1, n + 1)
        if not ({i, j} & avoid)
    }
    sigma = degree_shift_permutation(n, nu[0])
    w0_inv = perm_inverse(slice_base_permutation(nu, beta, h))
    params = {"h": list(h.values), "nu": list(nu), "beta": list(beta), "deg": deg}
    failures = []
    for w in hessenberg_slice(nu, beta, h).members:
        tau = perm_compose(w0_inv, w)
        shifted = perm_compose(sigma, w)
        lhs = sum(1 for r in inversion_pairs(shifted) if r in phi_minus)
        rhs = deg + sum(1 for r in inversion_pairs(tau) if r in phi_minus_t)
        if lhs != rhs:
            failures.append(mismatch({"w": list(w)}, rhs, lhs))
        if inversion_pairs(shifted) & neg_t != inversion_pairs(w) & neg_t:
            failures.append(
                mismatch({"w": list(w)}, "inversions off T unchanged", "changed")
            )
    return report_from_failures("degree_shift", params, failures)


def _less_first_column(lam: Partition) -> Partition:
    """mu = (lambda_1 - 1, lambda_2 - 1, ...) with zero parts dropped."""
    return tuple(p - 1 for p in lam if p > 1)


Restrictions = tuple[tuple[SinkSet, Optional[HessenbergFunction]], ...]


def _require_abelian(h: HessenbergFunction, what: str) -> None:
    if h.n < 3:
        raise ValueError(f"{what} needs n >= 3")
    if not is_abelian(h):
        raise ValueError(f"h={h} is not abelian")


# the checks of one h read at most two layers, SK_2 and SK_m(Gamma_h); a sweep checks
# its h one after another, so a few entries hold every layer that is read again
@lru_cache(maxsize=8)
def _sink_layer(h: HessenbergFunction, k: int) -> tuple[Restrictions, np.ndarray]:
    """The layer SK_k of h: (T, h_T) for every T in SK_k, h_T None when T holds every
    vertex, and S = sum over T of t^(deg T) c(h_T) as a read-only int64 array [degree
    0..|Phi_h^-|, partition of n - k]. The graph of h is built once, and every h_T comes
    from one decompositions call. For k = n (the edgeless graph) S is 1 at deg T, in the
    one column of the empty partition."""
    graph = build_graph(h)
    restrictions = tuple((t, restrict(graph, t) if k < h.n else None) for t in sink_sets(graph, k))
    if k < h.n:
        cs = [dec.c for dec in decompositions([h_t for _, h_t in restrictions])]
    else:
        cs = [np.ones((1, 1), dtype=np.int64)] * len(restrictions)
    total = np.zeros((negative_root_count(h) + 1, len(partitions_of(h.n - k))), dtype=np.int64)
    for (t, _), c in zip(restrictions, cs):
        total[t.degree : t.degree + len(c)] += c
    total.flags.writeable = False
    return restrictions, total


def _less_first_column_sums(h: HessenbergFunction, k: int, lams) -> np.ndarray:
    """[degree, lambda in lams], for lams of k parts: the column of the layer sum S of
    SK_k of lambda less its first column."""
    order = partitions_of(h.n - k)
    return _sink_layer(h, k)[1][:, [order.index(_less_first_column(lam)) for lam in lams]]


def _sink_set_params(restrictions: Restrictions) -> list[dict]:
    return [
        {"T": list(t.vertices), "deg": t.degree, "h_T": list(h_t.values) if h_t else []}
        for t, h_t in restrictions
    ]


def _coefficient_failures(
    dec: GradedRepDecomposition, columns: list[int], expected: np.ndarray, by_lambda=False
) -> list[dict]:
    """A mismatch for each (degree i, lambda) where c_{lambda,i} differs from
    expected[i, j], for lambda the partition of column columns[j] of dec.c: in the
    order of the degrees, then of columns, or the other way round with by_lambda."""
    actual = dec.c[:, columns]
    wrong = actual != expected
    cells = np.argwhere(wrong.T)[:, ::-1] if by_lambda else np.argwhere(wrong)
    return [
        mismatch(
            {"lambda": list(dec.order.partitions[columns[j]]), "degree": i},
            int(expected[i, j]),
            int(actual[i, j]),
        )
        for i, j in cells.tolist()
    ]


def check_two_part_induction(h: HessenbergFunction) -> CheckReport:
    """For abelian h: every two-part coefficient is the degree-shifted sum of the
    corresponding coefficients of the restricted functions h_T over SK_2, and
    every coefficient with three or more parts is zero."""
    _require_abelian(h, "the induction formula")
    dec = decompose(h)
    parts = [len(lam) for lam in dec.order.partitions]
    two = [pi for pi, p in enumerate(parts) if p == 2]
    expected = np.zeros_like(dec.c)
    expected[:, two] = _less_first_column_sums(h, 2, [dec.order.partitions[pi] for pi in two])
    columns = [pi for pi, p in enumerate(parts) if p > 1]
    params = {"h": list(h.values), "sink_sets": _sink_set_params(_sink_layer(h, 2)[0])}
    failures = _coefficient_failures(dec, columns, expected[:, columns])
    return report_from_failures("two_part_induction", params, failures)


def _polynomial_report(name: str, params: dict, lhs: np.ndarray, rhs: np.ndarray) -> CheckReport:
    failures = []
    if not np.array_equal(lhs, rhs):
        failures.append(mismatch({"polynomial": "coefficients"}, rhs.tolist(), lhs.tolist()))
    return report_from_failures(name, params, failures)


def check_nilpotent_poincare_recursion(h: HessenbergFunction) -> CheckReport:
    """Nilpotent Poincaré polynomial = one-sink part + shifted nilpotent
    polynomials of the h_T, coefficient-wise (abelian h)."""
    _require_abelian(h, "the recursion")
    n, dec = h.n, decompose(h)
    sub = poincare_of(_sink_layer(h, 2)[1], (n - 2,))
    lhs, rhs = dec.poincare((n,)), orientation_histogram(h)[:, 0] + sub
    return _polynomial_report("nilpotent_poincare_recursion", {"h": list(h.values)}, lhs, rhs)


def check_regular_poincare_recursion(
    h: HessenbergFunction, nu: Composition2
) -> CheckReport:
    """Regular Poincaré polynomial for nu = (mu1+1, mu2+1) equals the nilpotent one
    plus shifted regular polynomials of type mu for the h_T (abelian h)."""
    _require_abelian(h, "the recursion")
    n, dec = h.n, decompose(h)
    if len(nu) != 2 or nu[0] < nu[1] or nu[1] < 1 or sum(nu) != n:
        raise ValueError(f"nu={nu} is not a two-part partition of {n}")
    mu = _less_first_column(tuple(nu))
    sub = poincare_of(_sink_layer(h, 2)[1], mu)
    lhs, rhs = dec.poincare(tuple(nu)), dec.poincare((n,)) + sub
    params = {"h": list(h.values), "nu": list(nu)}
    return _polynomial_report("regular_poincare_recursion", params, lhs, rhs)


def check_maximal_sink_conjecture(h: HessenbergFunction) -> CheckReport:
    """Conjectural formula for coefficients of partitions with m(Gamma_h) parts.

    A failure here is a finding, not a bug: the report carries a full
    counterexample certificate and never raises.
    """
    if h.n < 2:
        raise ValueError("the conjecture checker needs n >= 2")
    dec, m = decompose(h), max_sink_set_size(h)
    columns = [pi for pi, lam in enumerate(dec.order.partitions) if len(lam) == m]
    expected = _less_first_column_sums(h, m, [dec.order.partitions[pi] for pi in columns])
    failures = _coefficient_failures(dec, columns, expected, by_lambda=True)
    sink_set_params = _sink_set_params(_sink_layer(h, m)[0])
    params = {"h": list(h.values), "m_gamma": m, "sink_sets": sink_set_params}
    return report_from_failures(
        "maximal_sink_conjecture", params, failures, conjecture=True
    )
