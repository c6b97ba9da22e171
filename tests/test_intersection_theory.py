"""Intersection matrices, discrepancies, culets, adjunction, two-ball degrees."""

import gc
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinstairs import hirzebruch_jung, intersection_theory
from pinstairs.exact_core import DomainError, _coprime_fraction
from pinstairs.hirzebruch_jung import WAHL_CACHE_SIZE, WahlData, wahl_data
from pinstairs.intersection_theory import (
    CULET_CACHE_SIZE,
    HomologyClass,
    IntersectionLattice,
    NoCommonTriple,
    NoCulet,
    canonical_class,
    class_pairing,
    class_square,
    coefficients_from_intersections,
    culet_report,
    discrepancies,
    exceptional_class,
    intersection_matrix,
    inverse_closed_form,
    is_negative_definite,
    square_zero_class_search,
    two_ball_degree,
)
from pinstairs.markov import CompanionMismatch, companions, enumerate_tree, is_markov_triple

from .frozen import CULETS, DISCREPANCIES, MARKOV_NUMBERS_1000, SQUARE_ZERO, TWO_BALL_DEGREES
from .oracles import (
    enumerate_adjunction_solutions,
    gauss_jordan_inverse,
    montante_inverse,
    tridiagonal_elimination_inverse,
)


def reachable_pairs(p_max=1000):
    for p in MARKOV_NUMBERS_1000:
        if p > p_max:
            continue
        for q in sorted(companions(p).pair):
            yield p, q


def pairs_to_depth(depth):
    numbers = sorted({x for e in enumerate_tree(depth) for x in e.triple if x >= 2})
    return [(p, q) for p in numbers for q in sorted(set(companions(p).pair))]


def mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_intersection_matrix_shape_and_entries():
    w = wahl_data(5, 1)
    assert intersection_matrix(w) == [
        [-7, 1, 0, 0],
        [1, -2, 1, 0],
        [0, 1, -2, 1],
        [0, 0, 1, -2],
    ]
    assert intersection_matrix(wahl_data(2, 1)) == [[-4]]
    assert intersection_matrix(wahl_data(1, 1)) == []


def test_inverse_closed_form_times_matrix_is_identity():
    for p, q in reachable_pairs(200):
        if p == 1:
            continue
        w = wahl_data(p, q)
        m = intersection_matrix(w)
        inv = inverse_closed_form(w)
        assert mat_mul(m, inv) == identity(w.m)


def test_inverse_matches_elimination_oracles():
    for p, q in reachable_pairs(200):
        if p == 1:
            continue
        w = wahl_data(p, q)
        inv = inverse_closed_form(w)
        assert inv == tridiagonal_elimination_inverse([-b for b in w.chain])
        if w.m <= 20:
            dense = intersection_matrix(w)
            assert inv == montante_inverse(dense)
            assert inv == gauss_jordan_inverse(dense)


def test_inverse_entries_are_minus_e_f_over_p2():
    w = wahl_data(29, 7)
    inv = inverse_closed_form(w)
    for i in range(w.m):
        for j in range(w.m):
            lo, hi = min(i, j), max(i, j)
            assert inv[i][j] == Fraction(-w.e[lo + 1] * w.f[hi + 1], 29 * 29)


def test_inverse_rows_are_separate_lists():
    # a plain list of lists: setting one entry changes no other, its mirror
    # included, and no later table
    w = wahl_data(29, 7)
    inv = inverse_closed_form(w)
    assert type(inv) is list and all(type(row) is list for row in inv)
    mirror = inv[5][0]
    inv[0][5] = Fraction(1)
    assert inv[5][0] == mirror and inverse_closed_form(w)[0][5] == mirror


def test_inverse_entries_are_in_lowest_terms_to_depth_7():
    # every pair of the depth-7 tree, the benchmark's `families` sweep; the
    # entries are built without Fraction's own reduction, so compare each
    # with the normalising constructor
    pairs = pairs_to_depth(7)
    assert len(pairs) == 127
    reduced_rows = set()
    for p, q in pairs:
        w = wahl_data(p, q)
        p2 = p * p
        inv = inverse_closed_form(w)
        assert len(inv) == w.m
        for i in range(w.m):
            if gcd(w.e[i + 1], p2) > 1:
                reduced_rows.add(p)
            assert len(inv[i]) == w.m
            for j in range(i, w.m):
                x, want = inv[i][j], Fraction(-w.e[i + 1] * w.f[j + 1], p2)
                assert type(x) is Fraction and inv[j][i] is x
                assert (x.numerator, x.denominator, hash(x)) == \
                    (want.numerator, want.denominator, hash(want))
    assert reduced_rows >= {34, 169, 194, 610, 985}


def test_f_and_e_share_their_gcd_with_p_squared():
    # f_i = (pq - 1) e_i mod p^2, and pq - 1 is prime to p
    for p, q in pairs_to_depth(7):
        w = wahl_data(p, q)
        assert [gcd(x, p * p) for x in w.f] == [gcd(x, p * p) for x in w.e]


def test_inverse_refuses_f_that_breaks_the_gcd_premise():
    w = wahl_data(29, 7)
    f = list(w.f)
    f[1] *= 29  # gcd(f_1, p^2) is now 29, but gcd(e_1, p^2) = 1
    broken = WahlData(w.p, w.q, w.chain, w.e, tuple(f))
    with pytest.raises(AssertionError, match="gcd"):
        inverse_closed_form(broken)


def _calls_while_building(w):
    """The Python functions called, and the allocations by object.__new__
    made, while inverse_closed_form(w) runs, and its result."""
    codes, allocations = [], 0

    def profile(frame, event, arg):
        nonlocal allocations
        if event == "call":
            codes.append(frame.f_code)
        elif event == "c_call" and arg is object.__new__:
            allocations += 1

    sys.setprofile(profile)
    try:
        inv = inverse_closed_form(w)
    finally:
        sys.setprofile(None)
    return codes, allocations, inv


def test_each_inverse_entry_is_one_allocation_and_no_call_to_depth_5():
    # the entries' slots are written in place: neither the coprime helper nor
    # the normalising constructor runs, and each entry i <= j is allocated once
    banned = {_coprime_fraction.__code__, Fraction.__new__.__code__}
    for p, q in pairs_to_depth(5):
        w = wahl_data(p, q)
        codes, allocations, inv = _calls_while_building(w)
        assert not banned.intersection(codes), (p, q)
        assert allocations == w.m * (w.m + 1) // 2, (p, q)
        assert all(type(x) is Fraction for row in inv for x in row)


@contextmanager
def _collector(enabled):
    """The cyclic collector switched on or off for the block, and set back to
    the process's own state afterwards."""
    own = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if own else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_build_leaves_the_collector_as_it_found_it(enabled):
    with _collector(enabled):
        inverse_closed_form(wahl_data(29, 7))
        assert gc.isenabled() is enabled


class _Interrupted(Exception):
    pass


@pytest.mark.parametrize("enabled", [True, False])
def test_an_interrupted_build_leaves_the_collector_as_it_found_it(enabled):
    # the hook raises at the tenth entry's allocation, inside the fill loop; a
    # profile hook that raises is removed, and its exception propagates
    w = wahl_data(29, 7)
    assert w.m * (w.m + 1) // 2 > 10
    allocations = 0

    def interrupt(frame, event, arg):
        nonlocal allocations
        if event == "c_call" and arg is object.__new__:
            allocations += 1
            if allocations == 10:
                raise _Interrupted

    with _collector(enabled):
        sys.setprofile(interrupt)
        try:
            with pytest.raises(_Interrupted):
                inverse_closed_form(w)
        finally:
            sys.setprofile(None)
        assert allocations == 10
        assert gc.isenabled() is enabled


def test_no_collection_runs_while_the_largest_depth_7_table_is_built():
    w = max((wahl_data(p, q) for p, q in pairs_to_depth(7)), key=lambda w: w.m)
    entries = w.m * (w.m + 1) // 2
    # this many tracked allocations trigger young collections unless paused
    assert (w.m, entries) == (97, 4753) and entries > 2 * gc.get_threshold()[0]
    phases = []

    def record(phase, info):
        phases.append(phase)

    with _collector(True):
        gc.collect()  # zero the counts: the few allocations before the pause trigger none
        gc.callbacks.append(record)
        try:
            inverse_closed_form(w)
        finally:
            gc.callbacks.remove(record)
    assert "start" not in phases


def test_inverse_of_34_5_covers_every_reduction_case():
    # g_i = gcd(e_i, p^2) over the chain of 34^2/169 has entries where only
    # g_i > 1, where only g_j > 1, and where both are and gcd(g_i g_j, p^2)
    # is below g_i g_j; each entry is compared with the normalising constructor
    w = wahl_data(34, 5)
    p2 = 34 * 34
    g = [gcd(x, p2) for x in w.e[1:-1]]
    assert w.m == 10 and g == [1, 1, 4, 1, 2, 1, 4, 1, 2, 1]
    assert g[2] > 1 == g[3] and g[0] == 1 < g[2]
    assert gcd(g[2] * g[6], p2) == 4 < g[2] * g[6] and gcd(g[4] * g[6], p2) == 4 < g[4] * g[6]
    inv = inverse_closed_form(w)
    assert len({id(row) for row in inv}) == w.m
    for i in range(w.m):
        assert len(inv[i]) == w.m
        for j in range(i, w.m):
            x, want = inv[i][j], Fraction(-w.e[i + 1] * w.f[j + 1], p2)
            assert type(x) is Fraction and inv[j][i] is x
            assert (x.numerator, x.denominator, hash(x)) == \
                (want.numerator, want.denominator, hash(want)), (i, j)
    assert inv[2][6].denominator == inv[4][6].denominator == p2 // 4


_SMALL_TABLES = [(w, inverse_closed_form(w)) for w in (wahl_data(p, q) for p, q in pairs_to_depth(5))]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_SMALL_TABLES), st.data())
def test_linear_coefficients_equal_the_table_product(table, data):
    w, inv = table
    entry = st.one_of(st.integers(-10**6, 10**6),
                      st.fractions(max_denominator=10**4, min_value=-100, max_value=100))
    chi = data.draw(st.lists(entry, min_size=w.m, max_size=w.m))
    want = [sum((inv[i][j] * chi[j] for j in range(w.m)), Fraction(0)) for i in range(w.m)]
    got = coefficients_from_intersections(w, chi)
    assert got == want and all(type(x) is Fraction for x in got)


def test_negative_definiteness():
    for p, q in reachable_pairs(200):
        if p == 1:
            continue
        assert is_negative_definite(intersection_matrix(wahl_data(p, q)))
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[-1, 2], [2, -1]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    # not tridiagonal (third leading minor 24), not symmetric, not square
    for matrix in ([[-1, 0, 5], [0, -1, 0], [5, 0, -1]], [[-1, 3], [0, -1]], [[-2, 1, 7], [1, -2]]):
        with pytest.raises(DomainError):
            is_negative_definite(matrix)


@pytest.mark.parametrize("pq,expected", sorted(DISCREPANCIES.items()))
def test_discrepancies_match_frozen(pq, expected):
    assert discrepancies(wahl_data(*pq)) == expected


def test_discrepancies_strictly_between_minus_one_and_zero():
    for p, q in reachable_pairs():
        if p == 1:
            continue
        for k in discrepancies(wahl_data(p, q)):
            assert Fraction(-1) < k < 0


def test_adjunction_rows_give_selfintersections():
    # M . k = (b_1 - 2, ..., b_m - 2) with zero boundary terms
    for p, q in reachable_pairs(500):
        if p == 1:
            continue
        w = wahl_data(p, q)
        k = discrepancies(w)
        m = intersection_matrix(w)
        for i in range(w.m):
            row = sum(m[i][j] * k[j] for j in range(w.m))
            assert row == w.chain[i] - 2


def test_canonical_class_square_is_nine_minus_m():
    for p, q in reachable_pairs(500):
        w = wahl_data(p, q)
        lat = IntersectionLattice((w,))
        kk = class_square(lat, canonical_class(lat))
        assert kk == 9 - w.m


def test_exceptional_class_square():
    for p, q in reachable_pairs(500):
        lat = IntersectionLattice((wahl_data(p, q),))
        assert class_square(lat, exceptional_class(lat)) == Fraction(1, p * p)


def test_canonical_dot_exceptional():
    lat = IntersectionLattice((wahl_data(5, 1),))
    k = canonical_class(lat)
    e = exceptional_class(lat)
    assert class_pairing(lat, k, e) == Fraction(-3, 5)


def test_two_chain_lattice_delta_and_pairing():
    w1, w2 = wahl_data(2, 1), wahl_data(5, 1)
    lat = IntersectionLattice((w1, w2))
    assert lat.delta == 10
    kk = class_square(lat, canonical_class(lat))
    assert kk == 9 - w1.m - w2.m
    a = HomologyClass(Fraction(0), ((Fraction(1),), (Fraction(0),) * 4))
    b = HomologyClass(Fraction(0), ((Fraction(0),), (Fraction(1), Fraction(0), Fraction(0), Fraction(0))))
    assert class_pairing(lat, a, b) == 0  # disjoint chains
    assert class_square(lat, a) == -4


def test_coefficients_from_intersections_inverts_matrix():
    w = wahl_data(29, 7)
    chi = [1 if i == 6 else 0 for i in range(w.m)]
    coeff = coefficients_from_intersections(w, chi)
    m = intersection_matrix(w)
    for i in range(w.m):
        assert sum(m[i][j] * coeff[j] for j in range(w.m)) == chi[i]


@pytest.mark.parametrize("pq,expected", sorted(CULETS.items()))
def test_culet_reports_match_frozen(pq, expected):
    idx, p2, p3, weight = expected
    rep = culet_report(*pq)
    assert rep.culet_index == idx
    assert rep.triple == (pq[0], p2, p3)
    assert rep.manetti_weight == weight


def test_culet_squares_and_markov_forcing():
    for p, q in reachable_pairs():
        if p == 1:
            continue
        w = wahl_data(p, q)
        rep = culet_report(p, q)
        i = rep.culet_index
        e_i, f_i = w.e[i], w.f[i]
        assert e_i == rep.p2**2 and f_i == rep.p3**2
        assert is_markov_triple(p, rep.p2, rep.p3)
        # squaring the adjunction forcing: (p^2+e+f)^2 = 9 p^2 e f
        assert (p * p + e_i + f_i) ** 2 == 9 * p * p * e_i * f_i


def test_culet_weight_trichotomy():
    for p, q in reachable_pairs():
        if p == 1:
            continue
        rep = culet_report(p, q)
        if (p, rep.p2, rep.p3) == (2, 1, 1):
            assert rep.manetti_weight == 4
        elif 1 in (rep.p2, rep.p3):
            assert rep.manetti_weight == 7
        else:
            assert rep.manetti_weight == 10


def test_culet_flanks_are_dual_wahl_chains_of_the_companions():
    rep = culet_report(29, 7)
    assert list(rep.left_flank) == [5, 2, 2, 2, 2, 2]
    assert list(rep.right_flank) == [2, 2, 2]
    assert rep.triple == (29, 5, 2)
    rep2 = culet_report(5, 1)
    assert rep2.left_flank == () and list(rep2.right_flank) == [2, 2, 2]


def test_culet_rejects_non_markov_pairs():
    with pytest.raises(NoCulet):
        culet_report(7, 1)
    with pytest.raises(NoCulet):
        culet_report(29, 3)
    with pytest.raises(NoCulet):
        culet_report(1, 1)


@pytest.mark.parametrize("pq,expected", sorted(SQUARE_ZERO.items()))
def test_square_zero_search_matches_frozen(pq, expected):
    c0, support = expected
    got_c0, got_chi = square_zero_class_search(*pq)
    assert got_c0 == c0
    assert tuple(i + 1 for i, x in enumerate(got_chi) if x) == support


def test_square_zero_support_is_the_culet_everywhere():
    for p, q in reachable_pairs():
        if p == 1:
            continue
        w = wahl_data(p, q)
        rep = culet_report(p, q)
        c0, chi = square_zero_class_search(p, q)
        assert sum(chi) == 1 and chi[rep.culet_index - 1] == 1
        assert p * p + w.e[rep.culet_index] + w.f[rep.culet_index] == 3 * p * c0


def test_square_zero_agrees_with_literal_enumeration_small():
    for p, q in reachable_pairs(35):
        if p == 1:
            continue
        w = wahl_data(p, q)
        if w.m > 12:
            continue
        sols = enumerate_adjunction_solutions(w, chi_max=1)
        assert sols == [square_zero_class_search(p, q)]


@pytest.mark.slow
def test_widened_enumeration_finds_no_extra_solutions():
    for p, q in reachable_pairs(35):
        if p == 1:
            continue
        w = wahl_data(p, q)
        if w.m > 12:
            continue
        wide = enumerate_adjunction_solutions(w, chi_max=2)
        assert wide == [square_zero_class_search(p, q)]


@pytest.mark.parametrize("pair,degree", sorted(TWO_BALL_DEGREES.items()))
def test_two_ball_degrees_match_frozen(pair, degree):
    assert two_ball_degree(*pair) == degree


def test_two_ball_degree_roots_are_markov():
    # both roots of x^2 - 3 p1 p2 x + p1^2 + p2^2 complete the pair to a triple
    for p1, p2 in TWO_BALL_DEGREES:
        lo = two_ball_degree(p1, p2)
        hi = 3 * p1 * p2 - lo
        assert is_markov_triple(p1, p2, lo)
        assert is_markov_triple(p1, p2, hi)


def test_two_ball_degree_no_common_triple():
    with pytest.raises(NoCommonTriple):
        two_ball_degree(2, 13)
    with pytest.raises(NoCommonTriple):
        two_ball_degree(5, 34)


def test_two_ball_degree_symmetry():
    for p1, p2 in TWO_BALL_DEGREES:
        assert two_ball_degree(p1, p2) == two_ball_degree(p2, p1)


def test_chain_length_small_iff_small_markov():
    short = {p for p, q in reachable_pairs() if wahl_data(p, q).m <= 12}
    assert short == {1, 2, 5, 13, 29, 34}


def test_discrepancies_equal_the_normalising_constructor_to_depth_9():
    # built from a coprime pair with no Fraction.__new__: compare each entry
    # with the normalising constructor, hash included
    for p, q in pairs_to_depth(9):
        w = wahl_data(p, q)
        ks = discrepancies(w)
        assert len(ks) == w.m
        for k, e, f in zip(ks, w.e[1:-1], w.f[1:-1]):
            want = Fraction(e + f - p * p, p * p)
            assert type(k) is Fraction
            assert (k.numerator, k.denominator, hash(k)) == \
                (want.numerator, want.denominator, hash(want))


def test_the_discrepancy_range_check_runs():
    w = wahl_data(29, 7)
    f = list(w.f)
    f[2] = w.p * w.p - w.e[2]  # e_2 + f_2 = p^2: k_2 = 0
    with pytest.raises(AssertionError, match=r"^discrepancy 0/841 outside \(-1,0\) for \(29,7\)$"):
        discrepancies(WahlData(w.p, w.q, w.chain, w.e, tuple(f)))


def test_culet_index_and_triple_match_a_scan_of_both_squares_to_depth_9():
    # the reference tests every index for e_i and f_i both square; the scan
    # tests 3p | p^2 + e_i + f_i and one square, and takes roots at its hit
    intersection_theory._culet.cache_clear()
    for p, q in pairs_to_depth(9):
        w = wahl_data(p, q)
        hits = []
        for i in range(1, w.m + 1):
            s2, s3 = isqrt(w.e[i]), isqrt(w.f[i])
            if s2 * s2 == w.e[i] and s3 * s3 == w.f[i] and is_markov_triple(p, s2, s3):
                hits.append((i, (p, s2, s3)))
        report = culet_report(p, q)
        assert hits == [(report.culet_index, report.triple)]


def _culet_of(broken, monkeypatch):
    # culet_report(29, 7) as scanned on a corrupted chain, with no cached report
    intersection_theory._culet.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(intersection_theory, "wahl_data", lambda p, q: broken)
        try:
            return culet_report(29, 7)
        finally:
            intersection_theory._culet.cache_clear()


def test_culet_uniqueness_and_trichotomy_checks_run(monkeypatch):
    w, i = wahl_data(29, 7), culet_report(29, 7).culet_index
    e, f = list(w.e), list(w.f)
    e[1], f[1] = e[i], f[i]  # a second index that solves square-zero + adjunction
    with pytest.raises(intersection_theory.MultipleCulets):
        _culet_of(WahlData(w.p, w.q, w.chain, tuple(e), tuple(f)), monkeypatch)
    f = list(w.f)
    f[i] += 1  # the culet no longer solves them: no index does
    with pytest.raises(AssertionError, match="no culet index"):
        _culet_of(WahlData(w.p, w.q, w.chain, w.e, tuple(f)), monkeypatch)
    with monkeypatch.context() as patch:  # one hit, whose roots are refused
        patch.setattr(intersection_theory, "is_markov_triple", lambda *t: False)
        with pytest.raises(AssertionError, match="no culet index"):
            _culet_of(w, monkeypatch)
    for weight, message in ((4, "weight-4 trichotomy"), (7, "weight-7 trichotomy"),
                            (5, "weight 5 outside")):
        chain = list(w.chain)
        chain[i - 1] = weight  # 10 at (29, 7)
        with pytest.raises(AssertionError, match=message):
            _culet_of(WahlData(w.p, w.q, tuple(chain), w.e, w.f), monkeypatch)


def test_the_culet_scan_tests_divisibility_before_the_square(monkeypatch):
    # (9, 9): e f = 81 = floor((841 + 18)/87)^2, but 87 does not divide 859
    w = wahl_data(29, 7)
    report = culet_report(29, 7)
    j = next(j for j in range(1, w.m + 1) if j != report.culet_index)
    e, f = list(w.e), list(w.f)
    e[j] = f[j] = 9
    assert (29 * 29 + 18) % 87 and ((29 * 29 + 18) // 87) ** 2 == 81
    assert _culet_of(WahlData(w.p, w.q, w.chain, tuple(e), tuple(f)), monkeypatch) == report


def test_square_zero_certificate_holds_to_depth_9():
    # a support of two or more indices costs at least 2p^2 - 2, over the
    # budget 2p^2 - 3p + 1: e_i, f_i >= 1 (with f_m = 1) hold by construction,
    # so the search checks none of it
    for p, q in pairs_to_depth(9):
        w = wahl_data(p, q)
        assert min(w.e[1:-1]) >= 1 and min(w.f[1:-1]) >= 1 and w.f[w.m] == 1
        singles = sorted(w.e[i] * w.f[i] + p * p - w.e[i] - w.f[i] for i in range(1, w.m + 1))
        assert min(singles) >= p * p - 1
        if w.m >= 2:
            assert singles[0] + singles[1] > 2 * p * p - 3 * p + 1


def test_square_zero_search_guards_and_reuses_the_cached_culet(monkeypatch):
    with pytest.raises(CompanionMismatch, match=r"^3 is not a companion of 29 \(pair \{7, 22\}\)$"):
        square_zero_class_search(29, 3)
    with pytest.raises(DomainError, match=r"^search needs p >= 2: got p=1$"):
        square_zero_class_search(1, 1)
    culet_report(433, 104)  # cached
    calls = []
    wahl = intersection_theory.wahl_data
    monkeypatch.setattr(intersection_theory, "wahl_data", lambda p, q: calls.append(p) or wahl(p, q))
    chi = square_zero_class_search(433, 104)[1]
    assert calls == [] and len(chi) == wahl_data(433, 104).m


def test_one_chain_and_one_culet_scan_per_pair_across_a_unit_of_work(monkeypatch):
    from pinstairs.atf_geometry import fan_rays, vianna_triangle
    from pinstairs.regulation import predict_regulation
    from pinstairs.staircase_oracle import embeds, obstruction_certificate, pin_ball_capacity

    pairs = ((29, 7), (433, 104))
    expansions, scans, roots = [], [], []
    expand, match = hirzebruch_jung.hj_expand, intersection_theory._match_flank
    root = intersection_theory.isqrt_exact

    def counted_expand(n, a):
        if (n, a) in {(p * p, p * q - 1) for p, q in pairs}:
            expansions.append((n, a))
        return expand(n, a)

    def counted_match(flank, s):
        scans.append(1)
        return match(flank, s)

    def counted_root(n):
        roots.append(n)
        return root(n)

    monkeypatch.setattr(hirzebruch_jung, "hj_expand", counted_expand)
    monkeypatch.setattr(intersection_theory, "_match_flank", counted_match)
    monkeypatch.setattr(intersection_theory, "isqrt_exact", counted_root)
    hirzebruch_jung._wahl.cache_clear()
    intersection_theory._culet.cache_clear()
    for n, (p, q) in enumerate(pairs, 1):
        companions(p)
        w = wahl_data(p, q)
        intersection_matrix(w)
        inverse_closed_form(w)
        discrepancies(w)
        culet = culet_report(p, q)
        assert len(roots) == 2 * n  # the two roots at the one hit of the scan
        square_zero_class_search(p, q)
        assert len(roots) == 2 * n
        predict_regulation(p, q)
        fan_rays(p, q)
        vianna_triangle(*culet.triple)
        pin_ball_capacity(p, q)
        obstruction_certificate(p, q, 2)
        embeds(p, q, Fraction(1, 3), Fraction(1, 5))
    assert len(expansions) == len(set(expansions)) == len(pairs)
    assert len(scans) == 2 * len(pairs)  # each culet scan matches its two flanks
    assert len(roots) == 2 * len(pairs)


def test_refused_inputs_leave_no_cache_entry_and_caches_stay_bounded():
    wahl_cache, culet_cache = hirzebruch_jung._wahl, intersection_theory._culet
    wahl_cache.cache_clear()
    culet_cache.cache_clear()
    with pytest.raises(DomainError):
        wahl_data(4, 2)
    with pytest.raises(NoCulet):
        culet_report(7, 1)
    with pytest.raises(NoCulet):
        culet_report(29, 3)
    assert wahl_cache.cache_info().currsize == culet_cache.cache_info().currsize == 0
    assert wahl_cache.cache_info().maxsize == WAHL_CACHE_SIZE
    assert culet_cache.cache_info().maxsize == CULET_CACHE_SIZE
    for p in range(2, WAHL_CACHE_SIZE + 12):
        wahl_data(p, 1)
    for p, q in pairs_to_depth(9)[:CULET_CACHE_SIZE + 12]:
        culet_report(p, q)
    assert wahl_cache.cache_info().currsize == WAHL_CACHE_SIZE
    assert culet_cache.cache_info().currsize == CULET_CACHE_SIZE


def test_a_flank_matches_only_a_dual_wahl_chain_of_its_own_number_and_companion():
    match = intersection_theory._match_flank
    assert match((), 1) == 1
    assert match((2, 2, 2), 2) == 1
    assert match((2, 2, 2, 2, 2, 5), 5) == 1
    assert match((5, 2, 2, 2, 2, 2), 5) == 4
    # the dual of (2, 1) under s = 5, of the non-companion (5, 2), and no dual chain
    for flank, s in [((2, 2, 2), 5), ((2, 3, 2, 2, 3), 5), ((2,), 1), ((3, 2), 2)]:
        with pytest.raises(AssertionError, match="is not a dual Wahl chain"):
            match(flank, s)
