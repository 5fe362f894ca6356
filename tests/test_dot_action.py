import dataclasses
import json
import random
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings

from hessenberg import dot_action
from hessenberg.betti import poincare_arrays, poincare_polynomial
from hessenberg.dot_action import (
    chromatic_check,
    decompose,
    decompose_tables,
    decompositions,
    e_positivity_report,
    gasharov_check,
    orientation_count_check,
    orientation_histogram,
    zero_one_matrix_count,
)
from hessenberg.orientations import (
    build_graph,
    enumerate_acyclic_orientations,
    max_sink_set_size,
)
from hessenberg.partitions import (
    SizeMismatch,
    count_ph_tableaux,
    dim_tabloid,
    dual_partition,
    fixed_space_matrix,
    kostka_matrix,
    partitions_of,
    solve_fixed_space_system,
)
from hessenberg.roots import (
    enumerate_hessenberg_functions,
    is_abelian,
    validate_hessenberg,
)

from oracles import brute_zero_one_matrix_count, hessenberg_values, mahonian, plain_json


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
    order = partitions_of(4)
    table = decompose(h).table
    assert table[order.index((4,))].tolist() == [1, 3, 3, 1]
    assert table[order.index((1, 1, 1, 1))].tolist() == [1, 11, 11, 1]
    for n in range(1, 6):
        for hh in all_h(n)[:: max(1, n - 2)]:
            assert decompose(hh).table[partitions_of(n).index((1,) * n)].sum() == factorial(n)


def modular_triples(hs):
    """(h, h - e_i, h + e_i) for every h in hs and i with h(i - 1) < h(i) < h(i + 1),
    h(i) > i and h(h(i)) = h(h(i) + 1), where h(0) = 0; the three share n."""
    by_values = {h.values: h for h in hs}
    for h in hs:
        v = (0, *h.values)
        for i in range(1, h.n):
            if v[i - 1] < v[i] < v[i + 1] and v[i] > i and v[v[i]] == v[v[i] + 1]:
                lower, upper = list(h.values), list(h.values)
                lower[i - 1] -= 1
                upper[i - 1] += 1
                yield h, by_values[tuple(lower)], by_values[tuple(upper)]


def modular_law_failures(dec, lower, upper):
    """The lambda where (1 + t) c_lambda(h) != t c_lambda(h - e_i) + c_lambda(h + e_i)."""
    out = []
    for pi, lam in enumerate(dec.order.partitions):
        c, c_lower, c_upper = ([row[pi] for row in d.c] for d in (dec, lower, upper))
        left = [a + b for a, b in zip(c + [0], [0] + c)]
        right = [a + b for a, b in zip([0] + c_lower + [0], c_upper)]
        if left != right:
            out.append(lam)
    return out


@pytest.mark.parametrize("n, triples", [(3, 1), (4, 5), (5, 21), (6, 84), (7, 330)])
def test_modular_law(n, triples):
    # the modular law of Guay-Paquet and Abreu–Nigro for the chromatic
    # quasisymmetric function, read coefficientwise in the e-basis, on tables
    # built for every h of n by one poincare_arrays call
    hs = all_h(n)
    order = partitions_of(n).partitions
    decs = dict(zip(hs, decompose_tables(hs, poincare_arrays(hs, order))))
    found = list(modular_triples(hs))
    assert len(found) == triples
    for h, lower, upper in found:
        assert modular_law_failures(decs[h], decs[lower], decs[upper]) == [], h


@pytest.mark.parametrize("n", range(1, 8))
def test_betti_table_matches_single_calls(n):
    for h in all_h(n):
        table = decompose(h).table.tolist()
        assert table == [poincare_polynomial(nu, h).tolist() for nu in partitions_of(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_decompositions_of_every_h_of_n_equal_per_h_solves(monkeypatch, n):
    # from an empty memo, one call over every h of n; each record equals the solve
    # of the engine's table for h alone, and gives back that table
    monkeypatch.setattr(dot_action, "_decompositions", {})
    hs = all_h(n)
    order = partitions_of(n).partitions
    for h, dec in zip(hs, decompositions(hs), strict=True):
        table = poincare_arrays([h], order)[0]
        assert dec == decompose_tables([h], [table])[0]
        assert np.array_equal(dec.table, table)


def test_decompositions_of_mixed_n_with_repeats_equal_per_h_decompose(monkeypatch):
    # every h at n <= 6, a seeded third of them again, in a seeded shuffled order:
    # one call, grouped by n and ordered by slot width inside it, gives each h what
    # decompose gives it alone on a fresh memo
    rng = random.Random(19)
    hs = [h for n in range(1, 7) for h in all_h(n)]
    hs += rng.sample(hs, len(hs) // 3)
    rng.shuffle(hs)
    monkeypatch.setattr(dot_action, "_decompositions", {})
    batched = decompositions(hs)
    for h, dec in zip(hs, batched, strict=True):
        monkeypatch.setattr(dot_action, "_decompositions", {})
        alone = decompose(h)
        assert dec == alone and np.array_equal(dec.table, alone.table)


@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_solve_equals_per_h_solves(n):
    # decompose_tables solves the degrees of every h of n in one stacked solve
    hs = all_h(n)
    order = partitions_of(n).partitions
    tables = poincare_arrays(hs, order)
    per_h = [decompose_tables([h], [table])[0] for h, table in zip(hs, tables)]
    assert decompose_tables(hs, tables) == per_h


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


@pytest.mark.parametrize("n", range(1, 8))
def test_decompose_reproduces_betti_vectors(n):
    # exact-arithmetic sanity: N c_i re-multiplied gives back the engine's Betti
    # vector, and d_i = K c_i (Young's rule)
    rows = fixed_space_matrix(n).tolist()
    k_rows = kostka_matrix(n).tolist()
    order = partitions_of(n).partitions
    for h in all_h(n):
        table = poincare_arrays([h], order)[0]
        dec = decompose_tables([h], [table])[0]
        assert dec == decompose(h)
        for i in dec.degrees:
            b = table[:, i].tolist()
            c = dec.c[i].tolist()
            back = [sum(rows[a][j] * c[j] for j in range(len(order))) for a in range(len(order))]
            assert back == b
            assert dec.d[i].tolist() == [sum(x * y for x, y in zip(k_row, c)) for k_row in k_rows]


def test_decompose_table_rejects_wrong_length():
    # a Betti polynomial must hold |Phi_h^-| + 1 coefficients, trailing zeros too,
    # and the table one polynomial per partition
    h = validate_hessenberg([2, 3, 3])
    table = poincare_arrays([h], partitions_of(3).partitions)[0]
    assert decompose_tables([h], [table]) == [decompose(h)]
    with pytest.raises(SizeMismatch):
        decompose_tables([h], [table[:, :-1]])
    with pytest.raises(SizeMismatch):
        decompose_tables([h], [np.pad(table, ((0, 0), (0, 1)))])
    with pytest.raises(SizeMismatch):
        decompose_tables([h], [table[:-1]])


@pytest.mark.parametrize("n", range(1, 8))
def test_support_bound(n):
    for h in all_h(n):
        dec, m = decompose(h), max_sink_set_size(h)
        for i in dec.degrees:
            for pi, lam in enumerate(dec.order.partitions):
                if len(lam) > m:
                    assert dec.c[i][pi] == 0
                    assert dec.d[i][pi] == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_restriction_support_consistency(n):
    # m of the restricted graph never exceeds m of the original, so restricted
    # decompositions stay supported on partitions with at most m(Gamma_h) parts
    from hessenberg.orientations import restrict, sink_sets

    for h in all_h(n):
        g = build_graph(h)
        m = max_sink_set_size(h)
        for k in range(2, min(m, n - 1) + 1):
            for t in sink_sets(g, k):
                h_t = restrict(h, t)
                assert max_sink_set_size(h_t) <= m
                sub = decompose(h_t)
                for i in sub.degrees:
                    for pi, lam in enumerate(sub.order.partitions):
                        if len(lam) > m:
                            assert sub.c[i][pi] == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_table_and_poincare_equal_the_engine(n):
    # table and poincare(nu) are N c: read against an engine call of h alone,
    # made apart from the decompositions whose solve gave c
    order = partitions_of(n).partitions
    for h in all_h(n):
        engine = poincare_arrays([h], order)[0]
        dec = decompose(h)
        assert np.array_equal(dec.table, engine)
        for nu, row in zip(order, engine.tolist()):
            assert dec.poincare(nu).tolist() == row


def test_decomposition_arrays_are_read_only_int64():
    # the record stores c alone; d, the table and P_nu are read from it
    h = validate_hessenberg([3, 4, 5, 5, 5])
    dec = decompose(h)
    assert [f.name for f in dataclasses.fields(dec)] == ["h", "c"]
    for rows in (dec.c, dec.d):
        assert rows.dtype == np.int64 and not rows.flags.writeable
        assert rows.shape == (len(dec.degrees), len(dec.order))
        with pytest.raises(ValueError):
            rows[0, 0] = 1
    assert dec.poincare((5,)).dtype == np.int64
    assert dec.table.dtype == np.int64 and not dec.table.flags.writeable
    assert dec.table.shape == (len(dec.order), len(dec.degrees))


def test_replace_with_int64_arrays_builds_an_equal_decomposition():
    dec = decompose(validate_hessenberg([2, 3, 4, 5, 5]))
    again = dataclasses.replace(dec, c=np.array(dec.c.tolist(), dtype=np.int64))
    assert again == dec and again is not dec
    assert np.array_equal(again.d, dec.d)
    assert again.c.dtype == np.int64 and not again.c.flags.writeable
    bumped = dec.c.copy()
    bumped[1, 0] += 1
    assert dataclasses.replace(dec, c=bumped) != dec


def test_solve_and_decompositions_take_only_int64_arrays():
    # a list, a float array or an int32 array is refused where the int64 rows go in
    dec = decompose(validate_hessenberg([2, 3, 4, 5, 5]))
    table = dec.table
    forms = (np.ndarray.tolist, lambda a: a.astype(np.float64), lambda a: a.astype(np.int32))
    for convert in forms:
        with pytest.raises(TypeError):
            solve_fixed_space_system(5, convert(table.T))
        with pytest.raises(TypeError):
            decompose_tables([dec.h], [convert(table)])
        with pytest.raises(TypeError):
            dataclasses.replace(dec, c=convert(dec.c))
    with pytest.raises(SizeMismatch):
        dataclasses.replace(dec, c=dec.c[:-1])


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


@pytest.mark.parametrize("n", range(1, 8))
def test_orientation_histogram_matches_enumerator(n):
    # the sink-set recursion, its memo shared across every h, against the walk
    for h in all_h(n):
        hist = orientation_histogram(h)
        walked = np.zeros_like(hist)
        for o in enumerate_acyclic_orientations(build_graph(h)):
            walked[o.asc, len(o.sinks) - 1] += 1
        assert hist.dtype == np.int64 and hist.tolist() == walked.tolist()


@pytest.mark.parametrize("n", [8, 9, 13])
def test_orientation_histogram_closed_forms(n):
    # the complete graph: one sink, ascents counted like inversions (n! orders);
    # the edgeless graph: one orientation, every vertex a sink
    complete = orientation_histogram(validate_hessenberg([n] * n))
    assert complete[:, 0].tolist() == mahonian(n) and not complete[:, 1:].any()
    edgeless = orientation_histogram(validate_hessenberg(range(1, n + 1)))
    assert edgeless.tolist() == [[0] * (n - 1) + [1]]


@pytest.mark.parametrize("n", [8, 9])
def test_orientation_histogram_sums_to_chordal_product(n):
    # the earlier neighbours of i form a clique of e_i vertices, so the acyclic
    # orientations of every sink count are counted by ascents by the product
    # over i of [1 + e_i]_t
    for h in all_h(n):
        product = [1]
        for i in range(1, n + 1):
            e = sum(1 for j in range(1, i) if h(j) >= i)
            product = [
                sum(product[max(0, d - e) : d + 1]) for d in range(len(product) + e)
            ]
        assert orientation_histogram(h).sum(axis=1).tolist() == product, h


def test_orientation_check_includes_example_ascent_five():
    h = validate_hessenberg([3, 4, 5, 5, 5])
    dec = decompose(h)
    total_asc5 = sum(dec.c[5])
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
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert fixed_space_matrix(3).tolist() == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]


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
    with pytest.raises(ValueError):
        decompose(h).table[0, 0] = 0
    with pytest.raises(ValueError):
        poincare_polynomial((h.n,), h)[0] = 0
    with pytest.raises(ValueError):
        orientation_histogram(h)[0, 0] = 0
    with pytest.raises(ValueError):
        kostka_matrix(5)[0, 0] = 0
    with pytest.raises(ValueError):
        fixed_space_matrix(5)[0, 0] = 0
    with pytest.raises(AttributeError):
        decompose(h).c = ()
    assert decompose(h) is decompose(h)
    assert orientation_histogram(h) is orientation_histogram(h)


def _perturbed_decomposition():
    """decompose(2,3,4,5,5) with c_{(2,2,1),2} raised by one, so d = K c moves with it."""
    h = validate_hessenberg([2, 3, 4, 5, 5])
    dec = decompose(h)
    c = dec.c.copy()
    c[2, dec.order.index((2, 2, 1))] += 1
    return h, dataclasses.replace(dec, c=c)


def _failed(check, failures):
    return {
        "check": check,
        "params": {"h": [2, 3, 4, 5, 5]},
        "passed": False,
        "conjecture": False,
        "failures": [
            {"location": location, "expected": expected, "actual": actual}
            for location, expected, actual in failures
        ],
    }


def test_orientation_check_failure_report():
    h, dec = _perturbed_decomposition()
    assert orientation_count_check(h, dec).to_json_dict() == _failed(
        "orientation_counts", [({"sinks": 3, "degree": 2}, 1, 2)]
    )


def test_gasharov_check_failure_report():
    # the d column of (2,2,1) moves by K[nu][(2,2,1)] = 1, 2, 2, 1, 1
    h, dec = _perturbed_decomposition()
    assert gasharov_check(h, dec).to_json_dict() == _failed(
        "gasharov_tableaux",
        [
            ({"lambda": [5]}, 16, 17),
            ({"lambda": [4, 1]}, 12, 14),
            ({"lambda": [3, 2]}, 9, 11),
            ({"lambda": [3, 1, 1]}, 1, 2),
            ({"lambda": [2, 2, 1]}, 1, 2),
        ],
    )


def test_failure_certificates_hold_plain_ints():
    h, dec = _perturbed_decomposition()
    c = dec.c.copy()
    c[3, dec.order.index((5,))] = -1
    negative = dataclasses.replace(dec, c=c)
    reports = [
        orientation_count_check(h, dec),
        gasharov_check(h, dec),
        chromatic_check(h, dec),
        e_positivity_report(h, negative),
    ]
    for report in reports:
        assert not report.passed
        payload = report.to_json_dict()
        assert plain_json(payload) and json.loads(json.dumps(payload)) == payload
    assert reports[-1].failures == [
        {"location": {"lambda": [5], "degree": 3}, "expected": "nonnegative", "actual": -1}
    ]


def test_chromatic_check_failure_report():
    h, dec = _perturbed_decomposition()
    assert chromatic_check(h, dec).to_json_dict() == _failed(
        "chromatic_monomials",
        [
            ({"mu": [3, 2], "degree": 2}, 1, 2),
            ({"mu": [3, 1, 1], "degree": 2}, 2, 4),
            ({"mu": [2, 2, 1], "degree": 2}, 8, 13),
            ({"mu": [2, 1, 1, 1], "degree": 2}, 22, 34),
            ({"mu": [1, 1, 1, 1, 1], "degree": 2}, 66, 96),
        ],
    )
