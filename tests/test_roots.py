import pytest
from hypothesis import given, settings

from hessenberg.roots import (
    BelowDiagonal,
    HessenbergFunction,
    NotAnIdeal,
    NotNondecreasing,
    OutOfRange,
    RootSet,
    enumerate_hessenberg_functions,
    height_via_chains,
    hessenberg_of_ideal,
    ideal_of,
    index_of,
    is_abelian,
    is_ideal,
    is_strictly_negative,
    lower_central_series,
    negative_roots,
    root_sum,
    roots_of,
    validate_hessenberg,
)

from oracles import catalan, hessenberg_values


def all_h(n):
    return list(enumerate_hessenberg_functions(n))


def test_validate_accepts_paper_example():
    h = validate_hessenberg([3, 4, 5, 6, 6, 6])
    assert h.n == 6 and h(1) == 3 and h(6) == 6


def test_validate_accepts_identity():
    assert validate_hessenberg([1, 2, 3, 4]).values == (1, 2, 3, 4)


def test_validate_rejections():
    with pytest.raises(BelowDiagonal):
        validate_hessenberg([2, 1])
    with pytest.raises(NotNondecreasing):
        validate_hessenberg([3, 2, 3])
    with pytest.raises(OutOfRange):
        validate_hessenberg([1, 3])
    with pytest.raises(OutOfRange):
        validate_hessenberg([])


def test_root_sum():
    assert root_sum((3, 1), (5, 3)) == (5, 1)
    assert root_sum((5, 3), (3, 1)) == (5, 1)
    assert root_sum((2, 1), (1, 2)) is None
    assert root_sum((3, 1), (4, 2)) is None


def test_roots_of_sizes():
    h = validate_hessenberg([3, 4, 5, 6, 6, 6])
    minus, full = roots_of(h)
    assert len(minus) == 9
    assert len(full) == 9 + 15  # plus all positive roots

    identity = validate_hessenberg([1, 2, 3, 4, 5])
    assert len(roots_of(identity)[0]) == 0

    complete = validate_hessenberg([6] * 6)
    assert len(roots_of(complete)[0]) == 15


def test_ideal_examples():
    # figure/definition value; the in-text example transposes the indices
    h = validate_hessenberg([3, 4, 5, 6, 6, 6])
    assert ideal_of(h).members == frozenset(
        {(4, 1), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)}
    )
    assert ideal_of(validate_hessenberg([2, 3, 4, 4])).members == frozenset(
        {(4, 1), (4, 2), (3, 1)}
    )
    assert ideal_of(validate_hessenberg([2, 4, 4, 5, 5])).members == frozenset(
        {(3, 1), (4, 1), (5, 1), (5, 2), (5, 3)}
    )
    assert not ideal_of(validate_hessenberg([4, 4, 4, 4]))


def test_hessenberg_of_ideal_examples():
    assert hessenberg_of_ideal(RootSet.of(4, [(4, 1)])).values == (3, 4, 4, 4)
    assert hessenberg_of_ideal(RootSet.of(4, [])).values == (4, 4, 4, 4)
    assert hessenberg_of_ideal(RootSet.of(2, [(2, 1)])).values == (1, 2)


@settings(max_examples=100, deadline=None)
@given(hessenberg_values(9))
def test_hessenberg_of_ideal_inverts_ideal_of(values):
    h = validate_hessenberg(values)
    assert hessenberg_of_ideal(ideal_of(h)) == h


def test_hessenberg_of_ideal_rejects_non_ideals():
    with pytest.raises(NotAnIdeal):
        hessenberg_of_ideal(RootSet.of(3, [(2, 1)]))  # missing (3,1)
    with pytest.raises(NotAnIdeal):
        hessenberg_of_ideal(RootSet.of(3, [(1, 2)]))  # positive root


@pytest.mark.parametrize("n", range(1, 9))
def test_round_trip_and_closure(n):
    for h in all_h(n):
        ideal = ideal_of(h)
        assert is_ideal(ideal)
        assert hessenberg_of_ideal(ideal) == h


def test_abelian_examples():
    assert is_abelian(validate_hessenberg([3, 4, 5, 6, 6, 6]))
    assert not is_abelian(validate_hessenberg([2, 4, 4, 5, 5]))
    assert is_abelian(validate_hessenberg([5] * 5))


def test_n4_abelian_and_strictly_negative_lists():
    abelian = [h.values for h in all_h(4) if is_abelian(h)]
    assert abelian == [
        (1, 4, 4, 4),
        (2, 2, 4, 4),
        (2, 3, 4, 4),
        (2, 4, 4, 4),
        (3, 3, 3, 4),
        (3, 3, 4, 4),
        (3, 4, 4, 4),
        (4, 4, 4, 4),
    ]
    strictly = [v for v in abelian if is_strictly_negative(HessenbergFunction(v))]
    assert strictly == [
        (2, 3, 4, 4),
        (2, 4, 4, 4),
        (3, 3, 4, 4),
        (3, 4, 4, 4),
        (4, 4, 4, 4),
    ]


def test_strictly_negative_examples():
    assert is_strictly_negative(validate_hessenberg([2, 3, 4, 4]))
    assert not is_strictly_negative(validate_hessenberg([1, 4, 4, 4]))
    assert is_strictly_negative(validate_hessenberg([4, 4, 4, 4]))


@pytest.mark.parametrize("n", range(1, 8))
def test_strictly_negative_value_criterion(n):
    for h in all_h(n):
        expected = all(h(i) >= i + 1 for i in range(1, n))
        assert is_strictly_negative(h) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_peterson_count(n):
    # semisimple rank of sl_n is n - 1
    assert sum(1 for h in all_h(n) if is_abelian(h)) == 2 ** (n - 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_strictly_negative_abelian_count(n):
    count = sum(1 for h in all_h(n) if is_abelian(h) and is_strictly_negative(h))
    assert count == 2 ** (n - 1) - (n - 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_hessenberg_count_is_catalan(n):
    assert sum(1 for _ in enumerate_hessenberg_functions(n)) == catalan(n)


def test_enumeration_order_n2():
    assert [h.values for h in all_h(2)] == [(1, 2), (2, 2)]


def test_index_of():
    assert index_of(validate_hessenberg([3, 4, 5, 6, 6, 6])) == 3
    assert index_of(validate_hessenberg([4, 4, 4, 4])) == 0


def test_lower_central_series_height_two():
    ideal = ideal_of(validate_hessenberg([2, 4, 4, 5, 5]))
    report = lower_central_series(ideal)
    assert report.height == 2
    assert report.series[0].members == ideal.members
    assert report.series[1].members == frozenset({(5, 1)})
    assert len(report.witness_chain) == 2


def test_lower_central_series_abelian_and_empty():
    abelian = ideal_of(validate_hessenberg([3, 4, 5, 6, 6, 6]))
    assert lower_central_series(abelian).height == 1
    empty = ideal_of(validate_hessenberg([4, 4, 4, 4]))
    report = lower_central_series(empty)
    assert report.height == 0 and report.series == () and report.witness_chain is None


def test_lower_central_series_rejects_non_ideal():
    with pytest.raises(NotAnIdeal):
        lower_central_series(RootSet.of(3, [(2, 1)]))


def test_height_via_chains_examples():
    assert height_via_chains(ideal_of(validate_hessenberg([2, 4, 4, 5, 5]))) == 2
    assert height_via_chains(RootSet.of(3, [(3, 1)])) == 1
    assert height_via_chains(RootSet.of(3, [])) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_height_agreement(n):
    for h in all_h(n):
        ideal = ideal_of(h)
        assert lower_central_series(ideal).height == height_via_chains(ideal)


def test_negative_roots_count():
    assert len(negative_roots(6)) == 15
    assert sorted(negative_roots(3)) == [(2, 1), (3, 1), (3, 2)]
