from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from hessenberg.orientations import (
    NotASinkSet,
    build_graph,
    degree_of,
    enumerate_acyclic_orientations,
    max_sink_set_size,
    restrict,
    sink_sets,
)
from hessenberg.roots import (
    enumerate_hessenberg_functions,
    height_via_chains,
    ideal_of,
    roots_of,
    validate_hessenberg,
)

from oracles import (
    SinkSetMismatch,
    brute_acyclic_orientations,
    hessenberg_values,
    restrict_orientation,
    sink_set,
)


def all_h(n):
    return list(enumerate_hessenberg_functions(n))


def test_build_graph_examples():
    g = build_graph(validate_hessenberg([2, 4, 4, 4]))
    assert g.edges == ((1, 2), (2, 3), (2, 4), (3, 4))
    g = build_graph(validate_hessenberg([3, 4, 5, 5, 5]))
    assert g.edges == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5))
    assert build_graph(validate_hessenberg([1, 2, 3])).edges == ()


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_count_matches_negative_roots(n):
    for h in all_h(n):
        assert len(build_graph(h).edges) == len(roots_of(h)[0])


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_brute_force(n):
    for h in all_h(n):
        g = build_graph(h)
        got = [(o.rightward, o.sinks, o.asc) for o in enumerate_acyclic_orientations(g)]
        expected = sorted(brute_acyclic_orientations(n, list(g.edges)))
        assert sorted(got) == expected
        assert len(set(o[0] for o in got)) == len(got)


@pytest.mark.parametrize("n", range(1, 6))
def test_complete_graph_orientations(n):
    g = build_graph(validate_hessenberg([n] * n))
    orients = list(enumerate_acyclic_orientations(g))
    assert len(orients) == factorial(n)
    assert all(len(o.sinks) == 1 for o in orients)


def test_four_orientations_with_sink_set_25():
    g = build_graph(validate_hessenberg([3, 4, 5, 5, 5]))
    fixed = [o for o in enumerate_acyclic_orientations(g) if o.sinks == (2, 5)]
    assert len(fixed) == 4


def test_edgeless_graph():
    g = build_graph(validate_hessenberg([1, 2, 3, 4]))
    orients = list(enumerate_acyclic_orientations(g))
    assert len(orients) == 1
    assert orients[0].sinks == (1, 2, 3, 4) and orients[0].asc == 0


def test_every_orientation_has_a_sink():
    for h in all_h(5):
        for o in enumerate_acyclic_orientations(build_graph(h)):
            assert len(o.sinks) >= 1


def test_sink_sets_examples():
    g = build_graph(validate_hessenberg([3, 4, 5, 6, 6, 6]))
    assert [t.vertices for t in sink_sets(g, 2)] == [
        (1, 4),
        (1, 5),
        (1, 6),
        (2, 5),
        (2, 6),
        (3, 6),
    ]
    assert len(sink_sets(g, 2)) == len(ideal_of(g.h))

    g = build_graph(validate_hessenberg([3, 4, 5, 5, 5]))
    assert (2, 5) in [t.vertices for t in sink_sets(g, 2)]
    assert max_sink_set_size(g) == 2

    complete = build_graph(validate_hessenberg([4] * 4))
    assert sink_sets(complete, 2) == []


@pytest.mark.parametrize("n", range(1, 7))
def test_sink_sets_match_enumeration(n):
    # Exact equality with the achieved sink sets needs a connected graph
    # (strictly negative h); in general the achieved sets form a subset and
    # every achieved set satisfies the independence criterion.
    from hessenberg.roots import is_strictly_negative

    for h in all_h(n):
        g = build_graph(h)
        seen: dict[int, set] = {}
        for o in enumerate_acyclic_orientations(g):
            seen.setdefault(len(o.sinks), set()).add(o.sinks)
        for k in range(1, n + 1):
            criterion = {t.vertices for t in sink_sets(g, k)}
            achieved = seen.get(k, set())
            assert achieved <= criterion
            if is_strictly_negative(h):
                assert achieved == criterion


def test_max_sink_set_size_examples():
    assert max_sink_set_size(build_graph(validate_hessenberg([3, 4, 5, 5, 5]))) == 2
    assert max_sink_set_size(build_graph(validate_hessenberg([3, 4, 5, 6, 7, 7, 7]))) == 3
    assert max_sink_set_size(build_graph(validate_hessenberg([5] * 5))) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_max_sink_size_is_height_plus_one(n):
    for h in all_h(n):
        g = build_graph(h)
        assert max_sink_set_size(g) == height_via_chains(ideal_of(h)) + 1


def test_degree_examples():
    g = build_graph(validate_hessenberg([3, 4, 5, 5, 5]))
    assert degree_of((2, 5), g) == 3
    g6 = build_graph(validate_hessenberg([3, 4, 5, 6, 6, 6]))
    assert [t.degree for t in sink_sets(g6, 2)] == [2, 2, 2, 3, 3, 4]
    assert degree_of((1,), g6) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_degree_is_min_ascent(n):
    # deg(T) is the minimum ascent over orientations whose sinks CONTAIN T;
    # for maximal-size T the fiber sk(omega) = T itself attains it.
    for h in all_h(n):
        g = build_graph(h)
        m = max_sink_set_size(g)
        orients = list(enumerate_acyclic_orientations(g))
        for k in range(1, m + 1):
            for t in sink_sets(g, k):
                containing = [
                    o.asc for o in orients if set(t.vertices) <= set(o.sinks)
                ]
                assert t.degree == min(containing)
                if k == m:
                    exact = [o.asc for o in orients if o.sinks == t.vertices]
                    assert t.degree == min(exact)


def test_restrict_examples():
    assert restrict(validate_hessenberg([3, 4, 5, 5, 5]), (2, 5)).values == (2, 3, 3)
    h6 = validate_hessenberg([3, 4, 5, 6, 6, 6])
    assert restrict(h6, (1, 4)).values == (2, 3, 4, 4)
    assert restrict(h6, (1, 5)).values == (3, 3, 4, 4)
    assert restrict(h6, (1, 6)).values == (3, 4, 4, 4)
    assert restrict(h6, (2, 6)).values == (2, 4, 4, 4)
    assert restrict(h6, (3, 6)).values == (2, 3, 4, 4)


@settings(max_examples=80, deadline=None)
@given(hessenberg_values(8), st.data())
def test_restrict_is_the_induced_subgraph(values, data):
    h = validate_hessenberg(values)
    graph = build_graph(h)
    top = min(max_sink_set_size(graph), h.n - 1)
    assume(top >= 1)
    k = data.draw(st.integers(1, top))
    t = data.draw(st.sampled_from(sink_sets(graph, k)))
    kept = [v for v in range(1, h.n + 1) if v not in t.vertices]
    rank = {v: r for r, v in enumerate(kept, start=1)}
    induced = sorted((rank[a], rank[b]) for a, b in graph.edges if a in rank and b in rank)
    assert build_graph(restrict(h, t)).edges == tuple(induced)


def test_restrict_rejects_non_sink_sets():
    with pytest.raises(NotASinkSet):
        restrict(validate_hessenberg([3, 4, 5, 5, 5]), (1, 2))  # adjacent vertices


def test_restrict_orientation_golden():
    g = build_graph(validate_hessenberg([3, 4, 5, 5, 5]))
    fixed = [o for o in enumerate_acyclic_orientations(g) if o.sinks == (2, 5)]
    restricted = [restrict_orientation(o, (2, 5)) for o in fixed]
    # the first displayed orientation restricts to 1 <- 2 <- 3
    sub = build_graph(validate_hessenberg([2, 3, 3]))
    assert sub.edges == ((1, 2), (2, 3))
    assert {r.rightward for r in restricted} == {
        (False, False),
        (True, False),
        (False, True),
        (True, True),
    }
    all_sub = {o.rightward for o in enumerate_acyclic_orientations(sub)}
    assert {r.rightward for r in restricted} == all_sub


def test_restrict_orientation_mismatch():
    g = build_graph(validate_hessenberg([3, 4, 5, 5, 5]))
    omega = next(iter(enumerate_acyclic_orientations(g)))
    assert omega.sinks != (2, 5)
    with pytest.raises(SinkSetMismatch):
        restrict_orientation(omega, (2, 5))


@pytest.mark.parametrize("n", range(2, 8))
def test_maximal_restriction_bijection(n):
    for h in all_h(n):
        g = build_graph(h)
        m = max_sink_set_size(g)
        if m == n:  # edgeless graph; the restriction target has rank 0
            continue
        by_sinks: dict[tuple, list] = {}
        for o in enumerate_acyclic_orientations(g):
            by_sinks.setdefault(o.sinks, []).append(o)
        for t in sink_sets(g, m):
            group = by_sinks.get(t.vertices, [])
            sub = build_graph(restrict(h, t))
            sub_all = list(enumerate_acyclic_orientations(sub))
            images = [restrict_orientation(o, t) for o in group]
            assert sorted(i.rightward for i in images) == sorted(
                s.rightward for s in sub_all
            )
            for o, image in zip(group, images):
                assert o.asc == t.degree + image.asc


@pytest.mark.parametrize("n", range(2, 6))
def test_exploratory_inclusion_maximal_restriction(n):
    # Exploratory observation, not a library invariant: restriction also
    # bijects for sink sets that are inclusion-maximal but below the maximum
    # size. Verified here so any counterexample would surface as a finding.
    for h in all_h(n):
        g = build_graph(h)
        m = max_sink_set_size(g)
        all_sets = {t.vertices for k in range(1, m + 1) for t in sink_sets(g, k)}
        by_sinks: dict[tuple, int] = {}
        for o in enumerate_acyclic_orientations(g):
            by_sinks[o.sinks] = by_sinks.get(o.sinks, 0) + 1
        for k in range(1, m):
            for t in sink_sets(g, k):
                if any(set(t.vertices) < set(other) for other in all_sets):
                    continue
                sub = build_graph(restrict(h, t))
                sub_count = sum(1 for _ in enumerate_acyclic_orientations(sub))
                assert by_sinks.get(t.vertices, 0) == sub_count


@pytest.mark.parametrize("n", range(2, 7))
def test_edge_count_inequality(n):
    for h in all_h(n):
        g = build_graph(h)
        for k in range(1, min(max_sink_set_size(g), n - 1) + 1):
            for t in sink_sets(g, k):
                sub = build_graph(restrict(h, t))
                assert len(g.edges) >= len(sub.edges) + t.degree


@pytest.mark.parametrize("n", range(2, 9))
def test_sk2_size_equals_ideal_size(n):
    for h in all_h(n):
        g = build_graph(h)
        assert len(sink_sets(g, 2)) == len(ideal_of(h))


def test_sink_set_validation():
    g = build_graph(validate_hessenberg([3, 4, 5, 5, 5]))
    t = sink_set(g, (5, 2))  # sorts the input
    assert t.vertices == (2, 5) and t.degree == 3
    with pytest.raises(NotASinkSet):
        sink_set(g, (1, 3))
