import random
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessenberg import partitions
from hessenberg.betti import poincare_arrays
from hessenberg.partitions import (
    NonIntegralSolution,
    SizeMismatch,
    count_ph_tableaux,
    dim_tabloid,
    dual_partition,
    fixed_space_matrix,
    kostka,
    kostka_matrix,
    partitions_of,
    ph_tableaux_counts,
    solve_fixed_space_system,
)
from hessenberg.roots import enumerate_hessenberg_functions, validate_hessenberg

from oracles import (
    brute_nonneg_matrix_count,
    brute_ph_tableaux,
    dominates,
    fixed_space_reference,
    hessenberg_values,
    hook_length_count,
    horizontal_strips_reference,
    multinomial,
    ph_tableaux_reference,
    solve_fixed_space_reference,
    ssyt_count,
)


def test_partition_order_examples():
    assert partitions_of(4).partitions == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )
    assert partitions_of(1).partitions == ((1,),)
    order6 = partitions_of(6)
    assert len(order6) == 11
    assert order6.partitions[0] == (6,)
    assert order6.partitions[-1] == (1,) * 6


@pytest.mark.parametrize("n", range(1, 9))
def test_total_order_refines_dominance(n):
    order = partitions_of(n)
    for a, lam in enumerate(order.partitions):
        for b, nu in enumerate(order.partitions):
            if dominates(nu, lam):
                assert b <= a  # nu comes no later than lam in decreasing order


def test_dual_partition():
    assert dual_partition((3, 2)) == (2, 2, 1)
    assert dual_partition((2, 2, 1)) == (3, 2)
    assert dual_partition((1, 1, 1)) == (3,)
    assert dual_partition(()) == ()


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1
    with pytest.raises(SizeMismatch):
        kostka((2, 1), (2, 2))


@pytest.mark.parametrize("n", range(2, 13))
def test_kostka_dominance_support(n):
    for nu in partitions_of(n):
        for lam in partitions_of(n):
            assert (kostka(nu, lam) != 0) == dominates(nu, lam)


@pytest.mark.parametrize("n", range(1, 13))
def test_kostka_matrix_unit_upper_triangular(n):
    rows = kostka_matrix(n).tolist()
    for a in range(len(rows)):
        assert rows[a][a] == 1
        for b in range(a):
            assert rows[a][b] == 0


def test_horizontal_strips_match_reference():
    shapes = [()] + [lam for n in range(1, 9) for lam in partitions_of(n)]
    for shape in shapes:
        for k in range(9):
            strips = list(partitions._horizontal_strips(shape, k))
            assert len(set(strips)) == len(strips)
            assert set(strips) == set(horizontal_strips_reference(shape, k))


@pytest.mark.parametrize("n", range(1, 9))
def test_kostka_matrix_matches_ssyt_oracle(n):
    k, at = kostka_matrix(n), partitions_of(n).index
    for nu in partitions_of(n):
        for lam in partitions_of(n):
            assert k[at(nu), at(lam)] == kostka(nu, lam) == ssyt_count(nu, lam)


@pytest.mark.parametrize("n", range(1, 14))
def test_kostka_standard_column_is_hook_length(n):
    k, at = kostka_matrix(n), partitions_of(n).index
    for lam in partitions_of(n):
        assert k[at(lam), at((1,) * n)] == hook_length_count(lam)


@pytest.mark.parametrize("n", range(1, 14))
def test_kostka_columns_count_words_by_rsk(n):
    # RSK: words of content mu are pairs (standard tableau, SSYT of content mu)
    k, at = kostka_matrix(n), partitions_of(n).index
    for mu in partitions_of(n):
        words = sum(hook_length_count(lam) * k[at(lam), at(mu)] for lam in partitions_of(n))
        assert words == multinomial(mu)


def test_fixed_space_examples():
    n4, at = fixed_space_matrix(4), partitions_of(4).index
    assert n4[at((3, 1)), at((2, 2))] == 2
    for nu in partitions_of(4):
        assert n4[at((4,)), at(nu)] == 1
    for lam in partitions_of(4):
        assert n4[at(lam), at((1, 1, 1, 1))] == dim_tabloid(lam) == multinomial(lam)


@pytest.mark.parametrize("n", range(2, 6))
def test_fixed_space_matrix_counts_matrices(n):
    # dim (M^lam)^{S_nu} equals the count of nonnegative integer matrices with
    # row sums lam and column sums nu
    mat, at = fixed_space_matrix(n), partitions_of(n).index
    for lam in partitions_of(n):
        for nu in partitions_of(n):
            assert mat[at(lam), at(nu)] == brute_nonneg_matrix_count(lam, nu)
            assert mat[at(lam), at(nu)] == mat[at(nu), at(lam)]


@pytest.mark.parametrize("n", range(2, 11))
def test_two_row_closed_form(n):
    # N_{(a,b),(c,d)} = b + 1 whenever a >= c, via the matrix-count model
    two_rows = [(n - b, b) for b in range(0, n // 2 + 1)]
    for a, b in two_rows:
        for c, d in two_rows:
            lam = (a, b) if b else (a,)
            nu = (c, d) if d else (c,)
            expected = b + 1 if a >= c else d + 1
            assert brute_nonneg_matrix_count(lam, nu) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_two_row_closed_form_matches_ssyt_matrix(n):
    mat, at = fixed_space_matrix(n), partitions_of(n).index
    two_rows = [lam for lam in partitions_of(n) if len(lam) <= 2]
    for lam in two_rows:
        for nu in two_rows:
            a, b = lam[0], lam[1] if len(lam) == 2 else 0
            c, d = nu[0], nu[1] if len(nu) == 2 else 0
            expected = b + 1 if a >= c else d + 1
            assert mat[at(lam), at(nu)] == expected


def _solve(n, big_b):
    """solve_fixed_space_system with its (C, D) arrays read back as tuples of rows."""
    c, d = solve_fixed_space_system(n, big_b)
    return tuple(map(tuple, c.tolist())), tuple(map(tuple, d.tolist()))


def _times(rows, c):
    return tuple(sum(r * x for r, x in zip(row, c)) for row in rows)


def _int64(rows):
    return np.array(rows, dtype=np.int64)


def test_solve_unit_vectors_round_trip():
    # N is symmetric, so its rows are the images N e_k of the unit vectors
    for n in range(1, 7):
        big_n = fixed_space_matrix(n)
        m = len(big_n)
        c, _ = _solve(n, big_n)
        assert c == tuple(tuple(int(i == k) for i in range(m)) for k in range(m))


def test_solve_random_round_trip():
    rng = random.Random(20240817)
    for n in range(1, 8):
        rows = fixed_space_matrix(n).tolist()
        m = len(rows)
        c_true = tuple(tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(10))
        c, _ = _solve(n, _int64([_times(rows, c_row) for c_row in c_true]))
        assert c == c_true


def test_solve_takes_and_gives_int64_arrays():
    # one stacked array in, read-only int64 arrays of C and D out
    n = 5
    big_n = fixed_space_matrix(n)
    c, d = solve_fixed_space_system(n, big_n[:3])
    for out in (c, d):
        assert out.dtype == np.int64 and out.shape == (3, len(big_n)) and not out.flags.writeable
    assert _solve(n, big_n[:3]) == solve_fixed_space_reference(n, big_n[:3].tolist())
    with pytest.raises(SizeMismatch):
        solve_fixed_space_system(n, np.zeros((2, len(big_n) - 1), dtype=np.int64))


def test_solve_rejects_wrong_length():
    with pytest.raises(SizeMismatch):
        _solve(4, _int64([[1, 2, 3]]))


def test_solve_recheck_is_live(monkeypatch):
    # with one entry of N raised by one, the solved c no longer gives back b
    n = 4
    k, inv, big_n = partitions._kostka_arrays(n)
    b = _int64([_times(big_n.tolist(), (1, 0, 2, 0, 1))])
    bumped = big_n.copy()
    bumped[1, 2] += 1
    monkeypatch.setattr(partitions, "_kostka_arrays", lambda size: (k, inv, bumped))
    with pytest.raises(NonIntegralSolution):
        _solve(n, b)
    monkeypatch.undo()
    assert _solve(n, b)[0] == ((1, 0, 2, 0, 1),)


@pytest.mark.parametrize("n", range(2, 7))
def test_truncated_solve_agrees(n):
    # vectors supported on partitions with <= k parts solve to c and d = K c
    # supported there too, with d given by the leading principal block of K
    rng = random.Random(7 * n)
    order = partitions_of(n)
    k_rows = kostka_matrix(n).tolist()
    for k in range(1, n + 1):
        keep = [i for i, lam in enumerate(order.partitions) if len(lam) <= k]
        cut = len(keep)
        assert keep == list(range(cut))  # the order sorts by part count
        sub_k = [[k_rows[i][j] for j in keep] for i in keep]
        for _ in range(5):
            c_true = tuple(rng.randint(-5, 5) if i < cut else 0 for i in range(len(order)))
            (c,), (d,) = _solve(n, _int64([_times(fixed_space_matrix(n).tolist(), c_true)]))
            assert c == c_true
            assert d[:cut] == _times(sub_k, c_true[:cut])
            assert not any(d[cut:])


def test_young_rule_examples():
    # the unit vector e_k solves N c = N e_k, and d = K e_k is column k of K
    for n in range(1, 7):
        big_n = fixed_space_matrix(n)
        _, (d_first, d_last) = _solve(n, big_n[[0, -1]])
        assert d_first == (1,) + (0,) * (len(big_n) - 1)  # M^(n) is irreducible
        for value, lam in zip(d_last, partitions_of(n).partitions):
            assert value == hook_length_count(lam)  # standard tableaux counts


def test_young_rule_round_trip():
    # the solve's forward pass gives d = K c for random c
    rng = random.Random(99)
    for n in range(1, 8):
        rows = fixed_space_matrix(n).tolist()
        m = len(rows)
        c_true = [rng.randint(-9, 9) for _ in range(m)]
        (c,), (d,) = _solve(n, _int64([_times(rows, c_true)]))
        assert c == tuple(c_true)
        assert d == _times(kostka_matrix(n).tolist(), c_true)


@pytest.mark.parametrize("n", range(1, 13))
def test_fixed_space_matrix_is_the_python_triple_sum(n):
    assert fixed_space_matrix(n).tolist() == list(map(list, fixed_space_reference(n)))


@pytest.mark.parametrize("n", range(1, 9))
def test_solve_of_every_betti_table_matches_reference(n):
    order = partitions_of(n).partitions
    for h in enumerate_hessenberg_functions(n):
        big_b = poincare_arrays([h], order)[0].T
        assert _solve(n, big_b) == solve_fixed_space_reference(n, big_b.tolist())


@pytest.mark.parametrize("n", range(1, 14))
def test_solve_of_large_random_vectors_matches_reference(n):
    rng = random.Random(1000 + n)
    rows = fixed_space_matrix(n).tolist()
    c_true = [[rng.randint(-10**6, 10**6) for _ in rows] for _ in range(4)]
    b = [_times(rows, c_row) for c_row in c_true]
    c, d = _solve(n, _int64(b))
    assert (c, d) == solve_fixed_space_reference(n, b)
    assert c == tuple(map(tuple, c_true))


def test_solve_of_every_row_of_n_at_13_matches_reference():
    big_n = fixed_space_matrix(13)
    assert _solve(13, big_n) == solve_fixed_space_reference(13, big_n.tolist())


@pytest.mark.parametrize("entry", [2**62, -(2**62), 2**63 - 1, -(2**63)])
def test_solve_rejects_vectors_that_could_overflow(entry):
    big_b = np.zeros((2, len(partitions_of(5))), dtype=np.int64)
    big_b[0] = fixed_space_matrix(5)[0]
    big_b[1, -1] = entry
    with pytest.raises(NonIntegralSolution) as caught:
        _solve(5, big_b)
    assert "\n" not in str(caught.value)


def test_solve_recheck_catches_a_wrong_inverse(monkeypatch):
    n = 5
    k, inv, big_n = partitions._kostka_arrays(n)
    wrong = inv.copy()
    wrong[0, -1] += 1
    monkeypatch.setattr(partitions, "_kostka_arrays", lambda size: (k, wrong, big_n))
    with pytest.raises(NonIntegralSolution):
        _solve(n, big_n[-1:])


def test_inverse_kostka_check_is_live(monkeypatch):
    # a K whose diagonal is not all ones has no inverse by unit back-substitution
    n = 4
    last = partitions_of(n).partitions[-1]
    fillings = partitions._fillings

    def doubled_corner(lam):  # K[last, last] = 2
        return {**fillings(lam), last: 2} if lam == last else fillings(lam)

    monkeypatch.setattr(partitions, "_fillings", doubled_corner)
    partitions._kostka_arrays.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            partitions._kostka_arrays(n)
    finally:
        partitions._kostka_arrays.cache_clear()


def test_kostka_arrays_are_built_once_per_n():
    # the solve, kostka_matrix and fixed_space_matrix all read one memoised build per n
    partitions._kostka_arrays.cache_clear()
    ns = range(1, 9)
    for n in ns:
        big_n = fixed_space_matrix(n)
        solve_fixed_space_system(n, big_n)
        assert kostka_matrix(n) is partitions._kostka_arrays(n)[0]
        assert fixed_space_matrix(n) is big_n
    assert partitions._kostka_arrays.cache_info().misses == len(ns)


def test_ph_tableaux_golden():
    h = validate_hessenberg([2, 3, 4, 5, 5])
    assert count_ph_tableaux(h, (2, 2, 1)) == 9


@pytest.mark.parametrize("n", range(1, 7))
def test_ph_tableaux_brute_force(n):
    for h in enumerate_hessenberg_functions(n):
        for shape in partitions_of(n):
            assert count_ph_tableaux(h, shape) == brute_ph_tableaux(h.values, shape)


@pytest.mark.parametrize("n", range(1, 8))
def test_ph_tableaux_match_the_one_shape_row_dp(n):
    # every shape from one pass equals the reference DP that counts one shape at a time
    for h in enumerate_hessenberg_functions(n):
        counts = ph_tableaux_counts(h)
        expected = {shape: ph_tableaux_reference(h, shape) for shape in partitions_of(n)}
        assert counts == {shape: c for shape, c in expected.items() if c}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ph_tableaux_memo_is_shared_safely(data):
    # counts with the memo warmed by the h drawn before equal counts from an
    # empty memo, so a state never carries one h's answer to another
    pairs = []
    for _ in range(data.draw(st.integers(1, 8))):
        h = validate_hessenberg(data.draw(hessenberg_values(7)))
        pairs.append((h, data.draw(st.sampled_from(partitions_of(h.n).partitions))))
    warm = [count_ph_tableaux(h, shape) for h, shape in pairs]
    fresh = []
    for h, shape in pairs:
        partitions._tableaux_by_shape.cache_clear()
        fresh.append(count_ph_tableaux(h, shape))
    assert warm == fresh


def test_ph_tableaux_top_state_is_not_memoised():
    # the state (h, 1^n) holds all of h, so no other h reads it; h = (1) has no state below
    partitions._tableaux_by_shape.cache_clear()
    assert ph_tableaux_counts(validate_hessenberg([1])) == {(1,): 1}
    assert partitions._tableaux_by_shape.cache_info().currsize == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_ph_tableaux_complete_graph(n):
    h = validate_hessenberg([n] * n)
    assert count_ph_tableaux(h, (1,) * n) == factorial(n)
    for shape in partitions_of(n):
        if shape[0] >= 2:
            assert count_ph_tableaux(h, shape) == 0


def test_ph_tableaux_size_mismatch():
    with pytest.raises(SizeMismatch):
        count_ph_tableaux(validate_hessenberg([2, 2]), (3,))


def test_ph_tableaux_rejects_non_partition():
    with pytest.raises(ValueError):
        count_ph_tableaux(validate_hessenberg([2, 3, 3]), (1, 2))
    assert count_ph_tableaux(validate_hessenberg([2, 3, 3]), (2, 1, 0)) == 1


def _gasharov_total(h):
    """Sum over lambda of (P_h-tableaux of the dual shape) * (standard tableaux of lambda)."""
    return sum(
        count_ph_tableaux(h, dual_partition(lam)) * hook_length_count(lam)
        for lam in partitions_of(h.n)
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_gasharov_total_dimension(n):
    # the total equals n! for every h
    for h in enumerate_hessenberg_functions(n):
        assert _gasharov_total(h) == factorial(n)


@settings(max_examples=25, deadline=None)
@given(hessenberg_values(8, min_n=8))
def test_gasharov_total_dimension_at_n8(values):
    assert _gasharov_total(validate_hessenberg(values)) == factorial(8)
