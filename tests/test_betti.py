import hashlib
import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessenberg import betti
from hessenberg.betti import (
    MAX_POINCARE_N,
    NotShortestRepresentative,
    SizeGuard,
    composition_simple_roots,
    conjugated_hessenberg,
    hessenberg_inversions,
    inversion_pairs,
    perm_compose,
    perm_inverse,
    poincare_arrays,
    poincare_polynomial,
    satisfies_hessenberg_condition,
    shortest_coset_decompose,
    shortest_coset_representatives,
)
from hessenberg.dot_action import decompose
from hessenberg.partitions import partitions_of
from hessenberg.roots import (
    enumerate_hessenberg_functions,
    ideal_of,
    roots_of,
    validate_hessenberg,
)

from oracles import (
    hessenberg_values,
    identity_permutation,
    mahonian,
    poincare_polynomial_reference,
)


def all_h(n):
    return list(enumerate_hessenberg_functions(n))


def test_inversions_examples():
    h = validate_hessenberg([3, 4, 5, 5, 5])
    assert hessenberg_inversions(identity_permutation(5), h) == 0
    w = (1, 4, 2, 5, 3)
    assert hessenberg_inversions(w, h) == 2  # {(3,2), (5,4)}
    full = validate_hessenberg([5] * 5)
    for w in itertools.permutations(range(1, 6)):
        assert hessenberg_inversions(w, full) == len(inversion_pairs(w))


def test_composition_simple_roots():
    assert composition_simple_roots((3, 2)) == (1, 2, 4)
    assert composition_simple_roots((5,)) == (1, 2, 3, 4)
    assert composition_simple_roots((1, 1, 1, 1)) == ()
    assert composition_simple_roots((4, 0)) == (1, 2, 3)
    assert composition_simple_roots((0, 4)) == (1, 2, 3)
    assert composition_simple_roots((3, 2, 2)) == (1, 2, 4, 6)


def test_condition_examples():
    h = validate_hessenberg([3, 4, 5, 5, 5])
    j = composition_simple_roots((3, 2))
    assert satisfies_hessenberg_condition(identity_permutation(5), j, h)
    assert not satisfies_hessenberg_condition((2, 4, 5, 1, 3), j, h)
    assert satisfies_hessenberg_condition((1, 4, 2, 5, 3), j, h)


def test_poincare_golden_values():
    h = validate_hessenberg([2, 3, 4, 4])
    # nilpotent type: the Peterson variety's binomial Betti numbers
    assert poincare_polynomial((4,), h).tolist() == [1, 3, 3, 1]
    # semisimple type: sum over all of S_4
    assert poincare_polynomial((1, 1, 1, 1), h).tolist() == [1, 11, 11, 1]


def compositions_from(lam):
    """lam, lam reversed, and both with a zero part put first, last or inside."""
    rev = tuple(reversed(lam))
    return {lam, rev, lam + (0,), (0,) + rev, rev[:1] + (0,) + rev[1:]}


@pytest.mark.parametrize("n", range(1, 6))
def test_poincare_matches_reference(n):
    for h in all_h(n):
        for lam in partitions_of(n):
            for nu in compositions_from(lam):
                expected = poincare_polynomial_reference(nu, h)
                assert tuple(poincare_polynomial(nu, h).tolist()) == expected


@st.composite
def hessenberg_and_composition(draw):
    n = draw(st.integers(1, 7))
    values = []
    for i in range(1, n + 1):
        values.append(draw(st.integers(max(i, values[-1] if values else 1), n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=n)))
    nu = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return validate_hessenberg(values), draw(st.permutations(nu))


@settings(max_examples=60, deadline=None)
@given(hessenberg_and_composition())
def test_poincare_matches_reference_on_random_input(case):
    h, nu = case
    assert tuple(poincare_polynomial(nu, h).tolist()) == poincare_polynomial_reference(nu, h)


@st.composite
def hessenberg_and_compositions(draw):
    """h at n <= 7 and 1-8 compositions of n, drawn with repeats from a pool of 1-4;
    parts may be zero and come in any order."""
    h = validate_hessenberg(draw(hessenberg_values(7)))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(draw(st.lists(st.integers(0, h.n), max_size=h.n)))
        nu = tuple(b - a for a, b in zip([0] + cuts, cuts + [h.n]))
        pool.append(tuple(draw(st.permutations(nu))))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return h, picks


@settings(max_examples=40, deadline=None)
@given(hessenberg_and_compositions())
def test_poincare_polynomials_match_reference_in_input_order(case):
    h, compositions = case
    reference = {nu: poincare_polynomial_reference(nu, h) for nu in set(compositions)}
    table = poincare_arrays([h], compositions)[0].tolist()
    assert list(map(tuple, table)) == [reference[nu] for nu in compositions]


@st.composite
def blocks_of_h(draw):
    """1-8 Hessenberg functions of one n <= 7, drawn with repeats from a pool of
    1-4 (so |Phi_h^-| is mixed), 1-3 compositions, and a block bound from one
    h per block up to all of them in one."""
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(hessenberg_values(n, min_n=n), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    shapes = st.sampled_from(list(partitions_of(n).partitions) + [(0, n)])
    compositions = draw(st.lists(shapes, min_size=1, max_size=3))
    cells = draw(st.sampled_from([1, 1 << 12, 1 << 15, betti.POINCARE_BLOCK_CELLS]))
    return [validate_hessenberg(v) for v in picks], compositions, cells


@settings(max_examples=60, deadline=None)
@given(blocks_of_h())
def test_poincare_arrays_equal_per_h_calls(case):
    hs, compositions, cells = case
    per_h = [poincare_arrays([h], compositions)[0].tolist() for h in hs]
    original = betti.POINCARE_BLOCK_CELLS
    betti.POINCARE_BLOCK_CELLS = cells  # restored below; hypothesis reuses the module
    try:
        assert [table.tolist() for table in poincare_arrays(hs, compositions)] == per_h
    finally:
        betti.POINCARE_BLOCK_CELLS = original


def test_poincare_arrays_run_in_bounded_blocks(monkeypatch):
    blocks = []
    run = betti._poincare_block
    monkeypatch.setattr(
        betti, "_poincare_block", lambda hs, *plan: blocks.append(hs) or run(hs, *plan)
    )
    hs = all_h(8)
    poincare_arrays(hs, [(8,)])
    assert [h for block in blocks for h in block] == hs
    assert 1 < len(blocks) < len(hs)

    def cells(block):  # layers 0..n-1 of H slots of the shared width
        pad = max(v - j for h in block for j, v in enumerate(h.values, start=1))
        width = pad + max(len(roots_of(h)[0]) for h in block) + 1
        return betti._subset_dp_plan(8)[-1][8] * len(block) * width

    assert all(cells(block) <= betti.POINCARE_BLOCK_CELLS for block in blocks)
    # each block but the last stops at the h that would have crossed the bound
    assert all(cells(a + b[:1]) > betti.POINCARE_BLOCK_CELLS for a, b in zip(blocks, blocks[1:]))
    assert poincare_arrays([], [(7,)]) == []
    with pytest.raises(ValueError, match="share n"):
        poincare_arrays([validate_hessenberg([2, 2]), validate_hessenberg([3, 3, 3])], [(1, 1)])


def test_poincare_polynomials_at_n10_match_closed_forms():
    n = 10
    order = partitions_of(n).partitions
    # the full flag variety for every nu: Mahonian numbers
    full = poincare_arrays([validate_hessenberg([n] * n)], order)[0]
    assert full.tolist() == [mahonian(n)] * len(order)
    # the Peterson variety: binomial Betti numbers; the semisimple type: all of S_n
    peterson = validate_hessenberg(list(range(2, n + 1)) + [n])
    nilpotent, semisimple = poincare_arrays([peterson], [(n,), (1,) * n])[0].tolist()
    assert nilpotent == [comb(n - 1, i) for i in range(n)]
    assert sum(semisimple) == factorial(n)


def _table_digest(hs):
    """sha256 of the coefficient tuples of the Betti table of each h, in order."""
    tables = [list(map(tuple, decompose(h).table.tolist())) for h in hs]
    return hashlib.sha256(repr(tables).encode()).hexdigest()


@pytest.mark.parametrize(
    "hs, expected",
    [
        (
            lambda: enumerate_hessenberg_functions(8),
            "9ef2913a5d8e9c633477c588c79fd95c859c7650fe99b787e0e80a53c1f5a68a",
        ),
        (
            lambda: [
                validate_hessenberg(values)
                for n in (11, 12, 13)
                for values in ([n] * n, list(range(2, n + 1)) + [n])
            ],
            "a795e50d55fd2fb43ca9b58d756604c51a1520d8bd4a5ef89988bece1969c679",
        ),
    ],
    ids=["every_h_at_n8", "full_and_peterson_at_n11_to_13"],
)
def test_betti_tables_are_pinned(hs, expected):
    # digests of the engine's output before its DP layout changed
    assert _table_digest(hs()) == expected


def test_betti_tables_are_pinned_from_one_block_call():
    # the digest of every_h_at_n8 above, from one poincare_arrays call over all 1,430 h
    hs = all_h(8)
    tables = [list(map(tuple, table.tolist())) for table in poincare_arrays(hs, partitions_of(8))]
    assert len(tables) == 1430
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "9ef2913a5d8e9c633477c588c79fd95c859c7650fe99b787e0e80a53c1f5a68a"
    )


def test_poincare_pad_check_is_live(monkeypatch):
    # pairs taken subset-major, not member-major, read sums at the wrong rows
    # and carry degrees past |Phi_h^-| into the pad, which the engine rejects
    plan = betti._subset_dp_plan

    def subset_major(n):
        t, q, k, row, stride, first_pair, layer_rows = plan(n)
        order = np.lexsort((q, t | (1 << q), k))
        return t[order], q[order], k[order], row[order], stride[order], first_pair, layer_rows

    monkeypatch.setattr(betti, "_subset_dp_plan", subset_major)
    with pytest.raises(RuntimeError, match="passed"):
        poincare_polynomial((1, 1, 1), validate_hessenberg([1, 3, 3]))
    # in a block, each h is checked against its own |Phi_h^-|: the slots of
    # (3, 3, 3) are wider than those of (1, 3, 3), which still spills
    block = [validate_hessenberg(v) for v in ([3, 3, 3], [1, 3, 3])]
    with pytest.raises(RuntimeError, match=r"h=\(1, 3, 3\) passed"):
        poincare_arrays(block, [(1, 1, 1)])


@pytest.mark.parametrize(
    "values",
    ([11] * 11, list(range(2, 12)) + [11], [3, 5, 5, 7, 8, 9, 11, 11, 11, 11, 11]),
)
def test_semisimple_poincare_at_n11(values):
    coeffs = poincare_polynomial((1,) * 11, validate_hessenberg(values)).tolist()
    assert sum(coeffs) == factorial(11)
    assert coeffs == coeffs[::-1]


def test_stored_dp_counts_fit_int32_up_to_the_engine_bound():
    # a stored count at layer s < n counts bijections of 1..s onto s positions
    assert factorial(MAX_POINCARE_N - 1) < 2**31


def test_poincare_at_the_engine_bound():
    n = MAX_POINCARE_N
    full = poincare_arrays([validate_hessenberg([n] * n)], [(1,) * n, (n,)])[0]
    assert full.tolist() == [mahonian(n)] * 2
    # every Mahonian coefficient fits in int32, but with h(i) = i (no negative
    # roots) all n! permutations land in degree 0, so the last layer's sum does not
    semisimple = poincare_polynomial((1,) * n, validate_hessenberg(range(1, n + 1)))
    assert semisimple.tolist() == [factorial(n)] and factorial(n) >= 2**31


def test_poincare_refuses_n_above_engine_bound():
    n = MAX_POINCARE_N + 1
    with pytest.raises(SizeGuard):
        poincare_polynomial((n,), validate_hessenberg([n] * n))


@pytest.mark.parametrize("n", range(1, 8))
def test_semisimple_poincare_palindromic_and_total(n):
    for h in all_h(n):
        coeffs = poincare_polynomial((1,) * n, h).tolist()
        assert sum(coeffs) == factorial(n)
        assert coeffs == coeffs[::-1]


@pytest.mark.parametrize("n", range(2, 7))
def test_two_part_total_invariant_under_swap(n):
    for h in all_h(n):
        for nu1 in range(1, n):
            a = poincare_polynomial((nu1, n - nu1), h).sum()
            b = poincare_polynomial((n - nu1, nu1), h).sum()
            assert a == b


@pytest.mark.parametrize("n", range(2, 7))
def test_degree_bounds(n):
    for h in all_h(n):
        edge_count = len(roots_of(h)[0])
        for nu in partitions_of(n):
            poly = poincare_polynomial(nu, h)
            assert poly.shape == (edge_count + 1,)
        # the nilpotent variety has full dimension: its top coefficient is nonzero
        assert poincare_polynomial((n,), h)[edge_count] != 0


def test_shortest_coset_golden():
    y, z = shortest_coset_decompose((6, 4, 1, 7, 2, 5, 3), 3)
    assert z == (6, 1, 2, 7, 3, 5, 4)
    assert y == (4, 1, 2, 3)
    ident = identity_permutation(5)
    assert shortest_coset_decompose(ident, 2) == ((1, 2, 3), ident)


def test_shortest_coset_representatives_golden():
    reps = shortest_coset_representatives(5, 3)
    assert reps == [
        (1, 2, 3, 4, 5),
        (1, 2, 3, 5, 4),
        (1, 2, 5, 3, 4),
        (1, 5, 2, 3, 4),
        (5, 1, 2, 3, 4),
    ]
    for n in range(2, 7):
        for nu1 in range(1, n):
            count = factorial(n) // factorial(nu1 + 1)
            assert len(shortest_coset_representatives(n, nu1)) == count


def _extend(y, n):
    return y + tuple(range(len(y) + 1, n + 1))


@pytest.mark.parametrize("n", range(2, 7))
def test_inversion_set_decomposition(n):
    # N^-(w) = N^-(z) disjoint-union z^{-1} N^-(y), for every w and nu1
    for w in itertools.permutations(range(1, n + 1)):
        for nu1 in range(1, n):
            y, z = shortest_coset_decompose(w, nu1)
            y_ext = _extend(y, n)
            assert perm_compose(y_ext, z) == w
            z_inv = perm_inverse(z)
            left = inversion_pairs(z)
            right = {
                (z_inv[i - 1], z_inv[j - 1]) for i, j in inversion_pairs(y_ext)
            }
            assert left.isdisjoint(right)
            assert left | right == inversion_pairs(w)


@pytest.mark.parametrize("n", range(2, 6))
def test_hessenberg_inversion_split(n):
    # |N^-(w) ∩ Phi_h^-| = |N^-(z) ∩ Phi_h^-| + |N^-(y) ∩ Phi_{h_z}^-|
    for h in all_h(n):
        phi_minus = roots_of(h)[0]
        for w in itertools.permutations(range(1, n + 1)):
            for nu1 in range(1, n):
                y, z = shortest_coset_decompose(w, nu1)
                h_z = conjugated_hessenberg(h, z, nu1)
                phi_z_minus = roots_of(h_z)[0]
                lhs = hessenberg_inversions(w, h)
                rhs = sum(1 for r in inversion_pairs(z) if r in phi_minus) + sum(
                    1 for r in inversion_pairs(y) if r in phi_z_minus
                )
                assert lhs == rhs


def test_hessenberg_inversion_split_full_n6():
    picks = [
        validate_hessenberg([3, 4, 5, 6, 6, 6]),
        validate_hessenberg([2, 4, 4, 5, 6, 6]),
        validate_hessenberg([1, 3, 4, 6, 6, 6]),
    ]
    for h in picks:
        phi_minus = roots_of(h)[0]
        for w in itertools.permutations(range(1, 7)):
            for nu1 in range(1, 6):
                y, z = shortest_coset_decompose(w, nu1)
                h_z = conjugated_hessenberg(h, z, nu1)
                phi_z_minus = roots_of(h_z)[0]
                lhs = hessenberg_inversions(w, h)
                rhs = sum(1 for r in inversion_pairs(z) if r in phi_minus) + sum(
                    1 for r in inversion_pairs(y) if r in phi_z_minus
                )
                assert lhs == rhs


def test_conjugated_hessenberg_examples():
    h = validate_hessenberg([3, 4, 5, 5, 5])
    # identity representative: cap the values at nu1 + 1
    for nu1 in range(1, 5):
        capped = conjugated_hessenberg(h, identity_permutation(5), nu1)
        assert capped.values == tuple(
            min(h(j), nu1 + 1) for j in range(1, nu1 + 2)
        )
    full = validate_hessenberg([5] * 5)
    for z in shortest_coset_representatives(5, 2):
        assert conjugated_hessenberg(full, z, 2).values == (3, 3, 3)


def test_conjugated_hessenberg_root_image():
    # Phi_{h_z} = z Phi_h ∩ Phi_nu, checked through the ideal complement
    h = validate_hessenberg([3, 4, 5, 5, 5])
    z = (1, 2, 3, 5, 4)
    nu1 = 3
    h_z = conjugated_hessenberg(h, z, nu1)
    assert h_z.values == (3, 3, 4, 4)
    image = {
        (z[i - 1], z[j - 1]) for i, j in ideal_of(h) if z[i - 1] <= 4 and z[j - 1] <= 4
    }
    assert image == set(ideal_of(h_z).members)


def test_conjugated_hessenberg_rejects_bad_z():
    h = validate_hessenberg([3, 4, 5, 5, 5])
    with pytest.raises(NotShortestRepresentative):
        conjugated_hessenberg(h, (2, 1, 3, 4, 5), 2)
