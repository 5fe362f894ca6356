import pytest

import hessenberg.dot_action as dot_action
from hessenberg.betti import (
    GradedPolynomial,
    identity_permutation,
    inversion_pairs,
    perm_compose,
    perm_inverse,
    poincare_polynomial,
)
from hessenberg.induction import (
    BetaNotInIdeal,
    check_maximal_sink_conjecture,
    check_nilpotent_poincare_recursion,
    check_regular_poincare_recursion,
    check_two_part_induction,
    degree_shift_check,
    degree_shift_permutation,
    hessenberg_slice,
    slice_base_permutation,
    slice_bijection_check,
)
from hessenberg.orientations import build_graph, restrict, sink_sets
from hessenberg.partitions import kostka, partitions_of
from hessenberg.roots import (
    enumerate_hessenberg_functions,
    ideal_of,
    is_abelian,
    roots_of,
    validate_hessenberg,
)


H5 = validate_hessenberg([3, 4, 5, 5, 5])


def abelian_h(n):
    return [h for h in enumerate_hessenberg_functions(n) if is_abelian(h)]


def test_slice_base_permutation_examples():
    assert slice_base_permutation((4, 2), (5, 2)) == (1, 5, 2, 3, 4, 6)
    assert slice_base_permutation((3, 2), (5, 2), H5) == (1, 4, 2, 5, 3)
    assert slice_base_permutation((1, 1), (2, 1)) == (2, 1)


def test_slice_base_permutation_rejects_outside_ideal():
    with pytest.raises(BetaNotInIdeal):
        slice_base_permutation((3, 2), (3, 1), H5)  # (3,1) lies in Phi_h^-


def test_hessenberg_slice_golden_table():
    members = hessenberg_slice((3, 2), (5, 2), H5).members
    assert sorted(members) == [
        (1, 4, 2, 5, 3),
        (1, 4, 5, 2, 3),
        (2, 4, 1, 5, 3),
        (5, 4, 1, 2, 3),
        (5, 4, 2, 1, 3),
    ]


def test_hessenberg_slice_trivial_cases():
    assert hessenberg_slice((5, 0), (5, 2), H5).members == ()
    full = validate_hessenberg([5] * 5)
    assert hessenberg_slice((3, 2), (5, 2), full).members == ()


def test_degree_shift_permutation_examples():
    assert degree_shift_permutation(5, 3) == (3, 4, 1, 2, 5)
    assert degree_shift_permutation(5, 1) == (1, 2, 3, 4, 5)
    assert degree_shift_permutation(2, 1) == (1, 2)


def test_slice_bijection_golden():
    report = slice_bijection_check((3, 2), (5, 2), H5)
    assert report.passed, report.failures
    # the projected images are exactly the five listed elements of S_3
    w0_inv = perm_inverse(slice_base_permutation((3, 2), (5, 2), H5))
    from hessenberg.induction import _stabilizer_projection
    from hessenberg.orientations import relabeling

    phi = relabeling(5, (2, 5))
    images = {
        _stabilizer_projection(perm_compose(w0_inv, w), 5, 2, phi)
        for w in hessenberg_slice((3, 2), (5, 2), H5).members
    }
    assert images == {
        (1, 2, 3),
        (2, 1, 3),
        (1, 3, 2),
        (3, 1, 2),
        (3, 2, 1),
    }


def test_base_permutation_projects_to_identity():
    report_members = hessenberg_slice((3, 2), (5, 2), H5).members
    w0 = slice_base_permutation((3, 2), (5, 2), H5)
    assert w0 in report_members
    tau = perm_compose(perm_inverse(w0), w0)
    assert tau == identity_permutation(5)


# Frozen degree-shift tables for n=5, nu=(3,2), beta=t5-t2, h=(3,4,5,5,5):
# w -> (inv(w) ∩ Phi^-[T], inv(w) ∩ Phi_h^- off T, sigma*w, tau, inv(tau) ∩ Phi_h^-[T])
DEGREE_SHIFT_TABLE = {
    (1, 4, 2, 5, 3): (set(), {(3, 2), (5, 4)}, (3, 2, 4, 5, 1), (1, 2, 3, 4, 5), set()),
    (2, 4, 1, 5, 3): ({(3, 1)}, {(3, 2), (5, 4)}, (4, 2, 3, 5, 1), (3, 2, 1, 4, 5), {(3, 1)}),
    (1, 4, 5, 2, 3): ({(4, 3)}, {(4, 2), (5, 3)}, (3, 2, 5, 4, 1), (1, 2, 4, 3, 5), {(4, 3)}),
    (5, 4, 1, 2, 3): (
        {(3, 1), (4, 1)},
        {(2, 1), (3, 2), (4, 2)},
        (5, 2, 3, 4, 1),
        (4, 2, 1, 3, 5),
        {(3, 1)},
    ),
    (5, 4, 2, 1, 3): (
        {(3, 1), (4, 1), (4, 3)},
        {(2, 1), (3, 2), (4, 2)},
        (5, 2, 4, 3, 1),
        (4, 2, 3, 1, 5),
        {(3, 1), (4, 3)},
    ),
}


def test_degree_shift_frozen_tables():
    beta = (5, 2)
    phi_minus = roots_of(H5)[0]
    avoid = {2, 5}
    off_t = lambda pairs: {r for r in pairs if set(r) & avoid}
    on_t = lambda pairs: {r for r in pairs if not (set(r) & avoid)}
    sigma = degree_shift_permutation(5, 3)
    w0_inv = perm_inverse(slice_base_permutation((3, 2), beta, H5))
    members = hessenberg_slice((3, 2), beta, H5).members
    assert set(members) == set(DEGREE_SHIFT_TABLE)
    for w, (inv_t, inv_off, sigma_w, tau, tau_t) in DEGREE_SHIFT_TABLE.items():
        inv_w = inversion_pairs(w)
        assert on_t(inv_w) == inv_t
        assert off_t(inv_w & phi_minus.members) == inv_off
        assert perm_compose(sigma, w) == sigma_w
        assert perm_compose(w0_inv, w) == tau
        inv_sigma_w = inversion_pairs(sigma_w)
        # sigma preserves the inversions avoiding T
        assert on_t(inv_sigma_w) == inv_t
        # the off-T part of sigma*w inside Phi_h^- always realizes deg(T) = 3
        assert off_t(inv_sigma_w & phi_minus.members) == {(2, 1), (5, 3), (5, 4)}
        assert on_t(inversion_pairs(tau)) & phi_minus.members == tau_t
        # the shift identity itself
        lhs = len(inv_sigma_w & phi_minus.members)
        assert lhs == 3 + len(tau_t)


def test_degree_shift_check_golden():
    assert degree_shift_check((3, 2), (5, 2), H5).passed


@pytest.mark.parametrize("n", range(3, 7))
def test_slice_properties_abelian(n):
    # disjoint union over beta, ungraded and graded identities, slice checks
    for h in abelian_h(n):
        graph = build_graph(h)
        ideal = ideal_of(h)
        for nu1 in range(1, n):
            nu = (nu1, n - nu1)
            j_members = {}
            for t in sink_sets(graph, 2):
                b, a = t.vertices
                beta = (a, b)
                assert beta in ideal
                sl = hessenberg_slice(nu, beta, h)
                j_members[beta] = sl.members
                mu = (nu1 - 1, n - nu1 - 1)
                sub_poly = poincare_polynomial(mu, restrict(h, t))
                # ungraded identity
                assert len(sl.members) == sub_poly.total()
                # graded identity, slice by slice, via the degree shift
                if nu1 >= nu[1]:  # partition-shaped nu: check report machinery too
                    assert slice_bijection_check(nu, beta, h).passed
                    assert degree_shift_check(nu, beta, h).passed
            # disjointness of the slices
            seen = set()
            for members in j_members.values():
                assert seen.isdisjoint(members)
                seen.update(members)


@pytest.mark.parametrize("n", range(3, 7))
def test_graded_slice_identity(n):
    # sum over the slices with the h-inversion grading equals the shifted
    # Poincaré polynomials of the restrictions
    from hessenberg.betti import hessenberg_inversions

    for h in abelian_h(n):
        graph = build_graph(h)
        for nu1 in range(1, n):
            nu = (nu1, n - nu1)
            mu = (nu1 - 1, n - nu1 - 1)
            lhs = {}
            for t in sink_sets(graph, 2):
                b, a = t.vertices
                for w in hessenberg_slice(nu, (a, b), h).members:
                    i = hessenberg_inversions(w, h)
                    lhs[i] = lhs.get(i, 0) + 1
            rhs = {}
            for t in sink_sets(graph, 2):
                poly = poincare_polynomial(mu, restrict(h, t))
                for i, coeff in enumerate(poly.coeffs):
                    if coeff:
                        rhs[i + t.degree] = rhs.get(i + t.degree, 0) + coeff
            assert lhs == rhs


@pytest.mark.parametrize("n", range(3, 7))
def test_sigma_translation_invariance_subregular(n):
    # at nu = (n-1, 1) the slice generating function is unchanged by the
    # degree-shift translation
    from hessenberg.betti import hessenberg_inversions
    from hessenberg.roots import roots_of as _roots_of

    for h in abelian_h(n):
        graph = build_graph(h)
        nu = (n - 1, 1)
        sigma = degree_shift_permutation(n, n - 1)
        phi_minus = _roots_of(h)[0]
        plain, shifted = {}, {}
        for t in sink_sets(graph, 2):
            b, a = t.vertices
            for w in hessenberg_slice(nu, (a, b), h).members:
                i = hessenberg_inversions(w, h)
                plain[i] = plain.get(i, 0) + 1
                sw = perm_compose(sigma, w)
                j = sum(1 for r in inversion_pairs(sw) if r in phi_minus)
                shifted[j] = shifted.get(j, 0) + 1
        assert plain == shifted


def test_two_part_induction_golden_n6():
    h = validate_hessenberg([3, 4, 5, 6, 6, 6])
    report = check_two_part_induction(h)
    assert report.passed, report.failures
    assert len(report.params["sink_sets"]) == 6


def test_two_part_induction_small_cases():
    assert check_two_part_induction(validate_hessenberg([2, 3, 3])).passed
    assert check_two_part_induction(validate_hessenberg([4, 4, 4, 4])).passed


def test_two_part_induction_rejects_non_abelian():
    with pytest.raises(ValueError):
        check_two_part_induction(validate_hessenberg([2, 4, 4, 5, 5]))


def test_poincare_recursions_golden():
    h3 = validate_hessenberg([2, 3, 3])
    assert check_nilpotent_poincare_recursion(h3).passed
    assert check_regular_poincare_recursion(h3, (2, 1)).passed
    h6 = validate_hessenberg([3, 4, 5, 6, 6, 6])
    assert check_nilpotent_poincare_recursion(h6).passed
    assert check_regular_poincare_recursion(h6, (4, 2)).passed
    # empty ideal: both sides reduce to the nilpotent polynomial
    full = validate_hessenberg([4, 4, 4, 4])
    assert check_nilpotent_poincare_recursion(full).passed
    assert check_regular_poincare_recursion(full, (3, 1)).passed


def test_conjecture_abelian_reduces_to_theorem():
    for n in range(3, 6):
        for h in abelian_h(n):
            report = check_maximal_sink_conjecture(h)
            assert report.conjecture
            assert report.passed, report.failures


def test_conjecture_complete_and_edgeless():
    for n in range(2, 6):
        assert check_maximal_sink_conjecture(validate_hessenberg([n] * n)).passed
        assert check_maximal_sink_conjecture(
            validate_hessenberg(list(range(1, n + 1)))
        ).passed


def test_conjecture_paper_n7_example():
    h = validate_hessenberg([3, 4, 5, 6, 7, 7, 7])
    report = check_maximal_sink_conjecture(h)
    assert report.passed, report.failures
    assert report.params["m_gamma"] == 3
    assert report.params["sink_sets"] == [
        {"T": [1, 4, 7], "deg": 4, "h_T": [2, 3, 4, 4]}
    ]


# Failure certificates: one perturbed Poincaré value of h_T = (2,3,3), read
# by all four checkers on h = (3,4,5,5,5), whose SK_2 restricts to h_T twice.
PERTURBED_H_T = validate_hessenberg([2, 3, 3])
SK2_OF_H5 = [
    {"T": [1, 4], "deg": 2, "h_T": [2, 3, 3]},
    {"T": [1, 5], "deg": 2, "h_T": [3, 3, 3]},
    {"T": [2, 5], "deg": 3, "h_T": [2, 3, 3]},
]


def _coefficient_failure(lam, degree, expected, actual):
    return {
        "location": {"lambda": lam, "degree": degree},
        "expected": expected,
        "actual": actual,
    }


def _polynomial_failure(expected, actual):
    return {"location": {"polynomial": "coefficients"}, "expected": expected, "actual": actual}


@pytest.fixture
def perturbed_h_t(monkeypatch):
    """P_(3)(h_T) gains 1 at degree 1; every other Poincaré polynomial is exact."""

    def perturbed(nu, h):
        poly = poincare_polynomial(nu, h)
        if h == PERTURBED_H_T and tuple(nu) == (3,):
            return poly + GradedPolynomial((0, 1))
        return poly

    memos = (dot_action._betti_table, dot_action.decompose)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(dot_action, "poincare_polynomial", perturbed)
    yield
    for memo in memos:  # keep the perturbed values out of later tests
        memo.cache_clear()


def test_two_part_induction_failure_certificate(perturbed_h_t):
    assert check_two_part_induction(H5).to_json_dict() == {
        "check": "two_part_induction",
        "params": {"h": [3, 4, 5, 5, 5], "sink_sets": SK2_OF_H5},
        "passed": False,
        "conjecture": False,
        "failures": [
            _coefficient_failure([4, 1], 3, 7, 4),
            _coefficient_failure([3, 2], 3, -2, 1),
            _coefficient_failure([4, 1], 4, 7, 4),
            _coefficient_failure([3, 2], 4, -2, 1),
        ],
    }


def test_nilpotent_recursion_failure_certificate(perturbed_h_t):
    assert check_nilpotent_poincare_recursion(H5).to_json_dict() == {
        "check": "nilpotent_poincare_recursion",
        "params": {"h": [3, 4, 5, 5, 5]},
        "passed": False,
        "conjecture": False,
        "failures": [
            _polynomial_failure([1, 4, 9, 14, 14, 9, 4, 1], [1, 4, 9, 13, 13, 9, 4, 1])
        ],
    }


def test_regular_recursion_failure_certificate(perturbed_h_t):
    assert check_regular_poincare_recursion(H5, (4, 1)).to_json_dict() == {
        "check": "regular_poincare_recursion",
        "params": {"h": [3, 4, 5, 5, 5], "nu": [4, 1]},
        "passed": False,
        "conjecture": False,
        "failures": [
            _polynomial_failure([1, 4, 11, 19, 19, 11, 4, 1], [1, 4, 11, 18, 18, 11, 4, 1])
        ],
    }
    # mu = (2, 1) for nu = (3, 2): the perturbed P_(3)(h_T) is not read
    assert check_regular_poincare_recursion(H5, (3, 2)).passed


def test_maximal_sink_conjecture_failure_certificate(perturbed_h_t):
    assert check_maximal_sink_conjecture(H5).to_json_dict() == {
        "check": "maximal_sink_conjecture",
        "params": {"h": [3, 4, 5, 5, 5], "m_gamma": 2, "sink_sets": SK2_OF_H5},
        "passed": False,
        "conjecture": True,
        "failures": [
            _coefficient_failure([4, 1], 3, 7, 4),
            _coefficient_failure([4, 1], 4, 7, 4),
            _coefficient_failure([3, 2], 3, -2, 1),
            _coefficient_failure([3, 2], 4, -2, 1),
        ],
    }


@pytest.mark.parametrize("n", range(3, 11))
def test_two_row_fixed_space_step(n):
    # dim (M^{(mu1+1, mu2+1)})^{S_{(mu1'+1, mu2'+1)}} = dim (M^mu)^{S_mu'} + 1,
    # both sides via SSYT-built sums over two-row shapes
    def entry(lam, nu):
        m = sum(lam)
        total = 0
        for b in range(m // 2 + 1):
            shape = (m - b, b) if b else (m - b,)
            total += kostka(shape, lam) * kostka(shape, nu)
        return total

    small = [lam for lam in partitions_of(n - 2) if len(lam) <= 2]
    for mu in small:
        for mu_prime in small:
            lifted_mu = (mu[0] + 1, (mu[1] if len(mu) == 2 else 0) + 1)
            lifted_prime = (mu_prime[0] + 1, (mu_prime[1] if len(mu_prime) == 2 else 0) + 1)
            assert entry(lifted_mu, lifted_prime) == entry(mu, mu_prime) + 1
