from math import factorial

import pytest
from hypothesis import given, settings

from hessenberg.betti import GradedPolynomial
from hessenberg.dot_action import (
    betti_table,
    chromatic_check,
    decompose,
    decompose_table,
    e_positivity_report,
    gasharov_check,
    orientation_count_check,
    orientation_histogram,
    zero_one_matrix_count,
)
from hessenberg.partitions import (
    count_ph_tableaux,
    dim_tabloid,
    dual_partition,
    fixed_space_matrix,
    partitions_of,
)
from hessenberg.roots import (
    enumerate_hessenberg_functions,
    is_abelian,
    validate_hessenberg,
)

from oracles import brute_zero_one_matrix_count, hessenberg_values, mahonian


def all_h(n):
    return list(enumerate_hessenberg_functions(n))


def c_table(dec):
    """{degree: {lambda: coefficient}} with zero entries dropped."""
    return {
        i: {
            lam: dec.c[i][pi]
            for pi, lam in enumerate(dec.order.partitions)
            if dec.c[i][pi]
        }
        for i in dec.degrees
    }


def test_betti_table_values():
    h = validate_hessenberg([2, 3, 4, 4])
    table = betti_table(h)
    assert table[(4,)].coeffs == (1, 3, 3, 1)
    assert table[(1, 1, 1, 1)].coeffs == (1, 11, 11, 1)
    for n in range(1, 6):
        for hh in all_h(n)[:: max(1, n - 2)]:
            assert betti_table(hh)[(1,) * n].total() == factorial(n)


def test_decompose_printed_table_2344():
    dec = decompose(validate_hessenberg([2, 3, 4, 4]))
    assert c_table(dec) == {
        0: {(4,): 1},
        1: {(4,): 1, (3, 1): 1, (2, 2): 1},
        2: {(4,): 1, (3, 1): 1, (2, 2): 1},
        3: {(4,): 1},
    }


def test_decompose_printed_table_3344():
    dec = decompose(validate_hessenberg([3, 3, 4, 4]))
    assert c_table(dec) == {
        0: {(4,): 1},
        1: {(4,): 2, (3, 1): 1},
        2: {(4,): 2, (3, 1): 2},
        3: {(4,): 2, (3, 1): 1},
        4: {(4,): 1},
    }


def test_decompose_printed_table_3444():
    dec = decompose(validate_hessenberg([3, 4, 4, 4]))
    assert c_table(dec) == {
        0: {(4,): 1},
        1: {(4,): 3},
        2: {(4,): 4, (3, 1): 1},
        3: {(4,): 4, (3, 1): 1},
        4: {(4,): 3},
        5: {(4,): 1},
    }


def test_decompose_flag_variety_n2():
    dec = decompose(validate_hessenberg([2, 2]))
    assert c_table(dec) == {0: {(2,): 1}, 1: {(2,): 1}}


def test_decompose_n6_degree_four():
    dec = decompose(validate_hessenberg([3, 4, 5, 6, 6, 6]))
    row = c_table(dec)[4]
    assert row[(5, 1)] == 11 and row[(4, 2)] == 6 and row[(3, 3)] == 2


def test_decompose_n7_degree_five():
    dec = decompose(validate_hessenberg([3, 4, 5, 6, 7, 7, 7]))
    assert c_table(dec)[5] == {
        (7,): 32,
        (6, 1): 27,
        (5, 2): 19,
        (4, 3): 15,
        (5, 1, 1): 1,
        (4, 2, 1): 1,
        (3, 3, 1): 1,
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_decompose_reproduces_betti_vectors(n):
    # exact-arithmetic sanity: N c_i re-multiplied gives back the Betti vector
    for h in all_h(n):
        rows = fixed_space_matrix(n).rows
        table = betti_table(h)
        dec = decompose_table(h, table)
        assert dec == decompose(h)
        order = dec.order
        for i in dec.degrees:
            b = [table[nu].coefficient(i) for nu in order]
            back = [
                sum(rows[a][j] * dec.c[i][j] for j in range(len(order)))
                for a in range(len(order))
            ]
            assert back == b


@pytest.mark.parametrize("n", range(1, 8))
def test_support_bound(n):
    for h in all_h(n):
        dec = decompose(h)
        for i in dec.degrees:
            for pi, lam in enumerate(dec.order.partitions):
                if len(lam) > dec.max_sinks:
                    assert dec.c[i][pi] == 0
                    assert dec.d[i][pi] == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_restriction_support_consistency(n):
    # m of the restricted graph never exceeds m of the original, so restricted
    # decompositions stay supported on partitions with at most m(Gamma_h) parts
    from hessenberg.orientations import build_graph, max_sink_set_size, restrict, sink_sets

    for h in all_h(n):
        g = build_graph(h)
        m = max_sink_set_size(g)
        for k in range(2, min(m, n - 1) + 1):
            for t in sink_sets(g, k):
                h_t = restrict(h, t)
                sub_g = build_graph(h_t)
                assert max_sink_set_size(sub_g) <= m
                sub = decompose(h_t)
                for i in sub.degrees:
                    for pi, lam in enumerate(sub.order.partitions):
                        if len(lam) > m:
                            assert sub.c[i][pi] == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_complete_graph_is_mahonian(n):
    dec = decompose(validate_hessenberg([n] * n))
    expected = mahonian(n)
    for i in dec.degrees:
        for pi, lam in enumerate(dec.order.partitions):
            if lam == (n,):
                assert dec.c[i][pi] == expected[i]
            else:
                assert dec.c[i][pi] == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_orientation_check_all(n):
    for h in all_h(n):
        report = orientation_count_check(h, decompose(h))
        assert report.passed, report.failures


def test_orientation_check_includes_example_ascent_five():
    h = validate_hessenberg([3, 4, 5, 5, 5])
    dec = decompose(h)
    total_asc5 = sum(dec.c[5])
    from hessenberg.orientations import build_graph, enumerate_acyclic_orientations

    count = sum(
        1 for o in enumerate_acyclic_orientations(build_graph(h)) if o.asc == 5
    )
    assert total_asc5 == count > 0


def test_edgeless_decomposition():
    h = validate_hessenberg([1, 2, 3])
    dec = decompose(h)
    assert dec.degrees == range(1)
    assert c_table(dec) == {0: {(1, 1, 1): 1}}
    assert orientation_count_check(h, dec).passed


@pytest.mark.parametrize("n", range(1, 6))
def test_gasharov_check_all(n):
    for h in all_h(n):
        report = gasharov_check(h, decompose(h))
        assert report.passed, report.failures


def test_gasharov_nine_tableaux_example():
    h = validate_hessenberg([2, 3, 4, 5, 5])
    dec = decompose(h)
    pi = dec.order.index((3, 2))
    assert sum(dec.d[i][pi] for i in dec.degrees) == 9
    assert count_ph_tableaux(h, dual_partition((3, 2))) == 9


def test_zero_one_matrix_examples():
    assert zero_one_matrix_count((1, 1), (1, 1)) == 2
    assert zero_one_matrix_count((2,), (1, 1)) == 1
    assert zero_one_matrix_count((2,), (2,)) == 0


@pytest.mark.parametrize("n", range(2, 6))
def test_zero_one_matrix_brute_force(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert zero_one_matrix_count(lam, mu) == brute_zero_one_matrix_count(
                lam, mu
            )


def test_chromatic_single_edge():
    # two proper colorings with content (1,1), one ascent each way
    h = validate_hessenberg([2, 2])
    dec = decompose(h)
    report = chromatic_check(h, dec)
    assert report.passed
    assert c_table(dec) == {0: {(2,): 1}, 1: {(2,): 1}}


@pytest.mark.parametrize("n", range(1, 5))
def test_chromatic_check_all(n):
    for h in all_h(n):
        report = chromatic_check(h, decompose(h))
        assert report.passed, report.failures


def test_chromatic_check_degree_cap():
    h = validate_hessenberg([3, 4, 5, 5, 5])
    dec = decompose(h)
    assert chromatic_check(h, dec, max_degree=2).passed
    assert chromatic_check(h, dec).passed


def test_chromatic_check_size_guard():
    h = validate_hessenberg([7] * 7)
    with pytest.raises(ValueError):
        chromatic_check(h, decompose(h))


def test_e_positivity_reports():
    h = validate_hessenberg([2, 3, 4, 4])
    report = e_positivity_report(h, decompose(h))
    assert report.passed and not report.conjecture
    non_abelian = validate_hessenberg([2, 4, 4, 5, 5])
    assert not is_abelian(non_abelian)
    report = e_positivity_report(non_abelian, decompose(non_abelian))
    assert report.passed and report.conjecture


def test_total_dimension_is_factorial():
    from oracles import hook_length_count

    for n in range(1, 6):
        for h in all_h(n):
            dec = decompose(h)
            total = sum(
                dec.c[i][pi] * dim_tabloid(lam)
                for i in dec.degrees
                for pi, lam in enumerate(dec.order.partitions)
            )
            assert total == factorial(n)
            # the same count through the Specht basis
            specht_total = sum(
                dec.d[i][pi] * hook_length_count(lam)
                for i in dec.degrees
                for pi, lam in enumerate(dec.order.partitions)
            )
            assert specht_total == factorial(n)


def test_matrix_json_labels():
    from hessenberg.partitions import fixed_space_matrix

    payload = fixed_space_matrix(3).to_json_dict()
    assert payload["labels"] == [[3], [2, 1], [1, 1, 1]]
    assert payload["rows"] == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]


def test_decompose_json_schema():
    dec = decompose(validate_hessenberg([2, 3, 4, 4]))
    payload = dec.to_json_dict()
    assert payload["h"] == [2, 3, 4, 4]
    assert payload["m_gamma"] == 2
    assert payload["coeffs"]["c"]["1"] == {"4": 1, "3,1": 1, "2,2": 1}
    assert payload["coeffs"]["d"]["1"] == {"4": 3, "3,1": 2, "2,2": 1}


@settings(max_examples=30, deadline=None)
@given(hessenberg_values(5))
def test_memoised_values_are_read_only(values):
    h = validate_hessenberg(values)
    with pytest.raises(TypeError):
        betti_table(h)[(h.n,)] = GradedPolynomial((0,))
    with pytest.raises(TypeError):
        orientation_histogram(h)[(1, 0)] = 0
    with pytest.raises(AttributeError):
        decompose(h).c = ()
    assert betti_table(h) is betti_table(h) and decompose(h) is decompose(h)
