"""Staircase boxes, the embedding oracle, packing reports, certificates."""

import random
import re
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinstairs import markov, staircase_oracle
from pinstairs.exact_core import DomainError, _coprime_fraction
from pinstairs.markov import (_girdle, branch_sequence, companions, compare_to_sigma,
                               enumerate_tree, is_markov_triple, sigma_p)
from pinstairs.staircase_oracle import (
    CompanionMismatch,
    embeds,
    obstruction_certificate,
    pin_ball_capacity,
    stair_boxes,
    three_ball_feasible,
    two_ball_feasible,
)

from .frozen import (
    BOX_CORNERS,
    CAPACITIES,
    CERTIFICATES,
    PACK_THREE_521,
    PACK_TWO_25,
)
from .oracles import box_union_verdict

GRID_PAIRS = [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7)]


@pytest.mark.parametrize("pq,corners", sorted(BOX_CORNERS.items()))
def test_stair_box_corners_match_frozen(pq, corners):
    lo, hi = min(corners), max(corners)
    boxes = stair_boxes(*pq, lo, hi)
    got = {b.index: (b.alpha_sup, b.beta_sup) for b in boxes}
    assert got == corners


def pairs_to_depth_9():
    """Every (p, q) with p in a triple of the tree to depth 9, both companions."""
    numbers = sorted({x for e in enumerate_tree(9) for x in e.triple})
    return [(p, q) for p in numbers for q in sorted(companions(p).pair)]


def test_stair_boxes_volume_identity_and_monotonicity():
    # neither is checked at run time: the volume identity holds for any terms,
    # and the monotonicity follows from the branch identities tested below
    for p, q in pairs_to_depth_9():
        boxes = stair_boxes(p, q, -12, 12)
        for b in boxes:
            assert b.alpha_sup * b.beta_sup == Fraction(1, p * p)
        for a, b in zip(boxes, boxes[1:]):
            assert a.alpha_sup < b.alpha_sup
            assert a.beta_sup > b.beta_sup


def test_branch_identities_to_depth_9():
    # what the branch's one seed check and its recurrence give every window:
    # each consecutive pair is Markov with p, m_{i+1}*m_{i-1} - m_i^2 = p^2
    # (so alpha_sup increases), and the certificate's p3' = 3p*m_i - m_{i+1}
    # is m_{i-1}
    for p, q in pairs_to_depth_9():
        m = markov._family(p, q).window(-15, 15)
        for prev, cur, nxt in zip(m, m[1:], m[2:]):
            assert is_markov_triple(p, cur, nxt), (p, q)
            assert nxt * prev - cur * cur == p * p, (p, q)
            assert _girdle(p, nxt, cur)[0] == prev, (p, q)
        assert is_markov_triple(p, m[0], m[1])


def test_a_wrong_girdle_displacement_fails_the_certificate_identity(monkeypatch):
    # the identity s*L + D = 0, checked in integers, reads the fractions _girdle returns
    def shifted(p1, p2, p3):
        p3p, length, disp = _girdle(p1, p2, p3)
        return p3p, length, disp + 1

    assert obstruction_certificate(29, 7, 2).index == 2
    monkeypatch.setattr(staircase_oracle, "_girdle", shifted)
    for i in (-3, 0, 2):
        with pytest.raises(AssertionError, match=rf"^certificate identity fails at \(29,7,{i}\)$"):
            obstruction_certificate(29, 7, i)


def test_a_valley_pair_that_is_not_markov_fails_the_seed_check(monkeypatch):
    # the one Markov check of a branch, where a fault in the search's
    # co-entries would show: every consumer of the family reaches it
    message = "^" + re.escape("valley pair (2,2) not Markov with 5") + "$"
    markov._family.cache_clear()
    markov._search.cache_clear()
    try:
        monkeypatch.setattr(markov, "canonical_triple", lambda p, q: (5, 2, 2))
        for _ in range(2):  # a failed build is not kept
            with pytest.raises(AssertionError, match=message):
                markov._family(5, 1)
            with pytest.raises(AssertionError, match=message):
                embeds(5, 1, Fraction(1, 10), Fraction(1, 10))
            with pytest.raises(AssertionError, match=message):
                branch_sequence(5, 1, 0, 3)
    finally:
        monkeypatch.undo()
        markov._family.cache_clear()
        markov._search.cache_clear()
    assert branch_sequence(5, 1, -1, 1).values == (1, 2, 29)


def test_stair_boxes_stay_below_sigma():
    for p, q in GRID_PAIRS:
        for b in stair_boxes(p, q, -30, 30):
            assert compare_to_sigma(p, b.alpha_sup) == "less"
            assert compare_to_sigma(p, b.beta_sup) == "less"


def test_embeds_strict_containment_example():
    v = embeds(2, 1, Fraction(49, 100), Fraction(49, 100))
    assert v.answer == "Embeds"
    assert v.witness.index == 0
    assert (v.witness.alpha_sup, v.witness.beta_sup) == (Fraction(1, 2), Fraction(1, 2))


def test_embeds_outer_corner_is_excluded():
    v = embeds(2, 1, Fraction(1, 2), Fraction(1, 2))
    assert v.answer == "DoesNotEmbed"
    a, b = v.obstruction
    assert Fraction(1, 2) >= a and Fraction(1, 2) >= b


def test_embeds_obstruction_corner_example():
    v = embeds(5, 1, Fraction(3, 10), Fraction(1, 5))
    assert v.answer == "DoesNotEmbed"
    assert v.obstruction == (Fraction(1, 65), Fraction(1, 10))


def test_embeds_boundary_of_one_box_can_lie_inside_another():
    # alpha equal to a sup is fine if a taller/wider box still contains it
    v = embeds(2, 1, Fraction(1, 2), Fraction(1, 100))
    assert v.answer == "Embeds" and v.witness.index == 1


def test_embeds_outside_visible_range():
    assert embeds(5, 1, Fraction(3), Fraction(1, 100)).answer == "OutsideVisibleRange"
    assert embeds(5, 1, Fraction(1, 100), Fraction(3)).answer == "OutsideVisibleRange"
    assert embeds(2, 1, Fraction(30, 10), Fraction(1, 9)).answer == "OutsideVisibleRange"


def test_embeds_rejects_nonpositive():
    with pytest.raises(DomainError):
        embeds(2, 1, Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        embeds(2, 1, Fraction(1, 2), Fraction(-1))


def test_embeds_rejects_non_companion():
    with pytest.raises(DomainError):
        embeds(29, 3, Fraction(1, 10), Fraction(1, 10))


def test_embeds_deep_tail_queries_terminate():
    # far below the lower accumulation point: every box is wide enough
    v = embeds(5, 1, Fraction(1, 10**9), Fraction(1, 2))
    assert v.answer == "Embeds"
    v = embeds(29, 7, Fraction(1, 10**30), Fraction(2))
    assert v.answer == "Embeds"


BENCHMARK_PAIRS = GRID_PAIRS + [(433, 104), (7453378, 1807955)]


@pytest.mark.parametrize("p,q", BENCHMARK_PAIRS)
def test_embeds_on_exact_box_edges(p, q):
    boxes = stair_boxes(p, q, -60, 60)
    sups = {b.index: (b.alpha_sup, b.beta_sup) for b in boxes}
    # distinct corner coordinates with denominators <= D differ by at least
    # 1/D^2, so x - eps lies above every corner coordinate below x
    D = max(x.denominator for i in range(-8, 9) for x in sups[i])
    eps = Fraction(1, 4 * D * D)
    oracle = list(sups.values())
    q_swap = 1 if p <= 2 else p - q
    for i in range(-6, 7):
        a, b = sups[i]
        inner = sups[i - 1][0]
        for x, y in [(a, b), (a, b - eps), (a - eps, b), (inner, b),
                     (a - eps, b - eps), (inner - eps, b), (inner - eps, b - eps)]:
            verdict = embeds(p, q, x, y)
            assert (verdict.answer == "Embeds") == box_union_verdict(oracle, x, y)
            assert embeds(p, q_swap, y, x).answer == verdict.answer
            if verdict.answer == "Embeds":
                assert verdict.witness.contains(x, y)
            else:
                assert x >= verdict.obstruction[0] and y >= verdict.obstruction[1]


def calls_made(target, call):
    """Calls of the function with code object `target`, or of the functions
    with code objects in the tuple `target`, made while `call()` runs, and its
    result."""
    counts, result = calls_of_each(target if isinstance(target, tuple) else (target,), call)
    return sum(counts), result


def calls_of_each(targets, call):
    """[calls of the function with code object t, for each t in the tuple
    `targets`] made while `call()` runs, and its result."""
    counts = [0] * len(targets)

    def profile(frame, event, arg):
        if event == "call":
            for i, t in enumerate(targets):
                counts[i] += frame.f_code is t

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return counts, result


def fraction_builds(call):
    """Fractions built while `call()` runs, by Fraction.__new__ or from a pair
    in lowest terms by exact_core._coprime_fraction, and its result."""
    return calls_made((Fraction.__new__.__code__, _coprime_fraction.__code__), call)


@pytest.mark.parametrize("p,q,alpha,beta,answer", [
    (5, 1, Fraction(3, 10), Fraction(1, 5), "DoesNotEmbed"),
    (2, 1, Fraction(49, 100), Fraction(49, 100), "Embeds"),
    (29, 7, Fraction(1, 10**30), Fraction(2), "Embeds"),
])
def test_a_warm_verdict_builds_no_fraction(p, q, alpha, beta, answer):
    markov._family.cache_clear()
    built, cold = fraction_builds(lambda: embeds(p, q, alpha, beta))
    assert cold.answer == answer and built > 0  # the box or corner, once
    built, warm = fraction_builds(lambda: embeds(p, q, alpha, beta))
    assert built == 0 and warm is cold


@pytest.mark.parametrize("p,q,alpha,beta,answer,index", [
    (5, 1, Fraction(3, 10), Fraction(1, 5), "DoesNotEmbed", None),
    (2, 1, Fraction(49, 100), Fraction(49, 100), "Embeds", 0),
    (433, 104, Fraction(2999998222, 10**9), Fraction(1, 10**12), "Embeds", 2),
    (29, 7, Fraction(1, 10**30), Fraction(2), "Embeds", -2),
    (1, 1, Fraction(1, 3), Fraction(1, 10), "Embeds", 0),
])
def test_a_warm_verdict_reads_no_term_through_getitem(p, q, alpha, beta, answer, index):
    getitem = markov._Branch.__getitem__.__code__
    markov._family.cache_clear()
    _, cold = calls_made(getitem, lambda: embeds(p, q, alpha, beta))
    assert cold.answer == answer and getattr(cold.witness, "index", None) == index
    reads, warm = calls_made(getitem, lambda: embeds(p, q, alpha, beta))
    assert reads == 0 and warm is cold


def python_calls(call):
    """The code objects of the Python-level calls made while `call()` runs, in
    order, and its result."""
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return codes, result


@pytest.mark.parametrize("p,q,alpha,beta,answer", [
    (2, 1, Fraction(49, 100), Fraction(49, 100), "Embeds"),
    (433, 104, Fraction(2999998222, 10**9), Fraction(1, 10**12), "Embeds"),
    (5, 1, Fraction(3, 10), Fraction(1, 5), "DoesNotEmbed"),
    (1, 1, Fraction(2), Fraction(51, 20), "DoesNotEmbed"),  # beta above every box held at first
    (29, 7, Fraction(3, 2), Fraction(2), "DoesNotEmbed"),
])
def test_a_warm_verdict_is_one_frame_and_one_search(p, q, alpha, beta, answer):
    markov._family.cache_clear()
    cold = embeds(p, q, alpha, beta)
    assert cold.answer == answer
    codes, warm = python_calls(partial(embeds, p, q, alpha, beta))
    assert codes == [embeds.__code__, markov._Branch.first_wider.__code__]
    assert warm is cold


@st.composite
def points_near_sigma(draw):
    """A family and a point whose coordinates are any rationals up to 4, or lie
    within 10^-40 of sigma_p on either side."""
    pq = draw(st.sampled_from(GRID_PAIRS + [(433, 104)]))
    s = Fraction(sigma_p(pq[0]).decimal(60))  # sigma_p - 10^-60 < s < sigma_p

    def coordinate():
        if draw(st.booleans()):
            return draw(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(4),
                                     max_denominator=10**6))
        return s + Fraction(draw(st.integers(-10**6, 10**6).filter(bool)), 10**46)

    return pq, coordinate(), coordinate()


@settings(max_examples=300, deadline=None)
@given(points_near_sigma())
def test_outside_the_visible_range_exactly_when_a_coordinate_exceeds_sigma(query):
    (p, q), alpha, beta = query
    verdict = embeds(p, q, alpha, beta)
    sigma = sigma_p(p)
    above = sigma.compare(alpha) == "greater" or sigma.compare(beta) == "greater"
    assert (verdict.answer == "OutsideVisibleRange") == above
    if verdict.answer == "Embeds":
        assert verdict.witness.contains(alpha, beta)
    elif verdict.answer == "DoesNotEmbed":
        assert alpha >= verdict.obstruction[0] and beta >= verdict.obstruction[1]


@pytest.mark.parametrize("p,q,error", [
    (3, 1, "3 is not a Markov number"),
    (5, 3, "3 is not a companion of 5"),
    (10**30 + 1, 1, f"{10**30 + 1} is not a Markov number"),
])
@pytest.mark.parametrize("alpha,beta", [
    (Fraction(1, 10), Fraction(1, 10)),
    (Fraction(10), Fraction(10)),
    (Fraction(1, 10), Fraction(10)),
    (Fraction(10), Fraction(1, 10)),
])
def test_a_bad_pair_is_refused_wherever_the_point_lies(p, q, error, alpha, beta):
    start = time.perf_counter()
    with pytest.raises(DomainError, match=error):
        embeds(p, q, alpha, beta)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,q", BENCHMARK_PAIRS)
def test_below_the_width_limit_the_witness_is_the_last_tall_box_up_to_0(p, q):
    # alpha below 1/(p^2 sigma_p) fits every box; the witness is the largest
    # i <= 0 with beta < beta_sup(i), also when beta is a box height exactly
    sups = {b.index: b.beta_sup for b in stair_boxes(p, q, -10, 10)}
    D = max(x.denominator for x in sups.values())
    eps = Fraction(1, 4 * D * D)
    for j in range(-6, 4):
        for beta in (sups[j] - eps, sups[j], sups[j] + eps):
            verdict = embeds(p, q, Fraction(1, 10**60), beta)
            want = max(i for i in range(-10, 1) if beta < sups[i])
            assert verdict.answer == "Embeds" and verdict.witness.index == want


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GRID_PAIRS + [(433, 104)]),
    st.lists(st.tuples(
        st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(3), max_denominator=10**4),
        st.fractions(min_value=Fraction(1, 10**4), max_value=Fraction(3), max_denominator=10**4)),
        min_size=1, max_size=25),
    st.integers(min_value=0, max_value=2**32),
)
def test_warm_verdicts_equal_cold_ones_in_any_order(pq, points, seed):
    cold = []
    for a, b in points:
        markov._family.cache_clear()
        cold.append(embeds(*pq, a, b))
    order, rnd = list(range(len(points))), random.Random(seed)
    for _ in range(2):
        rnd.shuffle(order)
        for k in order:
            assert embeds(*pq, *points[k]) == cold[k]


class _Sub(Fraction):
    pass


@pytest.mark.parametrize("args,expected", [
    ((1, 1, 1, 1), {"answer": "DoesNotEmbed", "obstruction": ["1", "1/2"]}),
    ((2, 1, 1, "1/100"),
     {"answer": "Embeds", "witness_box": {"i": 1, "alpha_sup": "5/2", "beta_sup": "1/10"}}),
    ((2, 1, 2, 1), {"answer": "DoesNotEmbed", "obstruction": ["1/2", "1/10"]}),
    ((5, 1, "3/10", "1/5"), {"answer": "DoesNotEmbed", "obstruction": ["1/65", "1/10"]}),
    ((5, 1, "1/5", _Sub(1, 100)),
     {"answer": "Embeds", "witness_box": {"i": -1, "alpha_sup": "2/5", "beta_sup": "1/10"}}),
    ((29, 7, _Sub(1, 10**30), 2),
     {"answer": "Embeds", "witness_box": {"i": -2, "alpha_sup": "5/12557", "beta_sup": "433/145"}}),
    ((5, 1, 3, "1/100"), {"answer": "OutsideVisibleRange"}),
    ((2, 1, 0.25, "49/100"),
     {"answer": "Embeds", "witness_box": {"i": 0, "alpha_sup": "1/2", "beta_sup": "1/2"}}),
])
def test_inputs_that_are_not_plain_fractions_give_the_same_verdicts(args, expected):
    p, q, alpha, beta = args
    verdict = embeds(p, q, alpha, beta)
    assert verdict.to_json() == expected
    assert verdict == embeds(p, q, Fraction(alpha), Fraction(beta))


def test_failed_family_is_not_cached():
    for _ in range(2):
        with pytest.raises(DomainError):
            embeds(29, 3, Fraction(1, 10), Fraction(1, 10))


def grid_points(p, n=30):
    sig = float(sigma_p(p))
    pts = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = Fraction(i, n) * Fraction(int(sig * 1000), 1001)
            b = Fraction(j, n) * Fraction(int(sig * 1000), 1001)
            if compare_to_sigma(p, a) == "less" and compare_to_sigma(p, b) == "less":
                pts.append((a, b))
    return pts


@pytest.mark.parametrize("p,q", BENCHMARK_PAIRS)
def test_every_corner_is_dominated_and_every_box_holds_its_point(p, q):
    # embeds does not check the corner it returns: at the corner i of a
    # DoesNotEmbed, alpha >= alpha_sup(i - 1) as box i is the least wider than
    # alpha, and beta >= beta_sup(i) as box i is too short.  Here both are
    # checked in integers, on the parts of each fraction, over the benchmark
    # grid at N = 60, direct and swapped, and the corner is one of the branch's
    top = Fraction(int(float(sigma_p(p)) * 1000), 1001)
    vals = [Fraction(k, 60) * top for k in range(1, 61)]
    q_swap = p - q if p > 2 else 1
    for qq, swap in ((q, False), (q_swap, True)):
        m = branch_sequence(p, qq, -60, 60).values
        corners = {(Fraction(here, p * below), Fraction(here, p * above))
                   for below, here, above in zip(m, m[1:], m[2:])}
        for a in vals:
            for b in vals:
                alpha, beta = (b, a) if swap else (a, b)
                verdict = embeds(p, qq, alpha, beta)
                if verdict.answer == "Embeds":
                    assert verdict.witness.contains(alpha, beta)
                    continue
                assert verdict.answer == "DoesNotEmbed" and verdict.obstruction in corners
                (cn, cd), (hn, hd) = (x.as_integer_ratio() for x in verdict.obstruction)
                assert alpha.numerator * cd >= cn * alpha.denominator
                assert beta.numerator * hd >= hn * beta.denominator


@pytest.mark.parametrize("p,q", GRID_PAIRS)
def test_embeds_agrees_with_box_union_oracle(p, q):
    boxes = [(b.alpha_sup, b.beta_sup) for b in stair_boxes(p, q, -60, 60)]
    for a, b in grid_points(p):
        verdict = embeds(p, q, a, b)
        assert verdict.answer in ("Embeds", "DoesNotEmbed")
        assert (verdict.answer == "Embeds") == box_union_verdict(boxes, a, b)


@pytest.mark.parametrize("p,q", GRID_PAIRS)
def test_embeds_swap_symmetry(p, q):
    q_swap = 1 if p <= 2 else p - q
    for a, b in grid_points(p, n=17):
        assert embeds(p, q, a, b).answer == embeds(p, q_swap, b, a).answer


@settings(max_examples=60)
@given(
    st.sampled_from(GRID_PAIRS),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(5, 2), max_denominator=1000),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(5, 2), max_denominator=1000),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(1), max_denominator=50),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(1), max_denominator=50),
)
def test_embeds_monotone_consistency(pq, a, b, ka, kb):
    p, q = pq
    if compare_to_sigma(p, a) != "less" or compare_to_sigma(p, b) != "less":
        return
    if embeds(p, q, a, b).answer == "Embeds":
        assert embeds(p, q, a * ka, b * kb).answer == "Embeds"


def test_embeds_volume_bound():
    # every Embeds verdict satisfies p^2 * alpha * beta < 1
    for p, q in GRID_PAIRS:
        for a, b in grid_points(p, n=13):
            v = embeds(p, q, a, b)
            if v.answer == "Embeds":
                assert p * p * a * b < 1


@pytest.mark.parametrize("pq,cap", sorted(CAPACITIES.items()))
def test_pin_ball_capacity_frozen(pq, cap):
    assert pin_ball_capacity(*pq) == cap


def test_pin_ball_capacity_is_the_diagonal_sup():
    for p, q in GRID_PAIRS:
        c = pin_ball_capacity(p, q)
        eps = Fraction(1, 10**7)
        assert embeds(p, q, c - eps, c - eps).answer == "Embeds"
        assert embeds(p, q, c, c).answer == "DoesNotEmbed"
        # and a binary search on the diagonal converges to it
        lo, hi = Fraction(0), Fraction(3)
        while hi - lo > Fraction(1, 10**6):
            mid = (lo + hi) / 2
            if compare_to_sigma(p, mid) == "less" and \
                    embeds(p, q, mid, mid).answer == "Embeds":
                lo = mid
            else:
                hi = mid
        assert lo < c <= hi


def test_the_degree_and_implied_bounds_hold_over_every_ordered_pair_to_depth_9():
    # what two_ball_degree and two_ball_feasible argue and no longer check, read
    # from the integers: lo < p2/3 for 1 < p1 < p2, and the sum bound p3/(p1*p2)
    # is at most the alpha bound named implied
    pairs = {pair for e in enumerate_tree(9) for pair in permutations(e.triple, 2)}
    assert len(pairs) == 1023
    eps, q = Fraction(1, 10**6), {}
    for p1, p2 in sorted(pairs):
        lo = markov.two_ball_degree(p1, p2)
        assert not 1 < p1 < p2 or 3 * lo < p2
        for p in (p1, p2):
            q.setdefault(p, min(companions(p).pair))
        r = two_ball_feasible(p1, q[p1], eps, p2, q[p2], eps)
        bounds = {"alpha1": Fraction(p2, p1 * lo), "alpha2": Fraction(p1, p2 * lo),
                  "sum": Fraction(lo, p1 * p2)}
        assert r.p3 == lo and r.bounds == bounds
        assert bounds["sum"] <= bounds[r.implied]


def test_two_ball_frozen_bounds():
    rep = two_ball_feasible(2, 1, Fraction(1, 100), 5, 1, Fraction(1, 100))
    assert rep.answer == "feasible" and rep.p3 == 1
    a1, a2, s = PACK_TWO_25
    assert rep.bounds == {"alpha1": a1, "alpha2": a2, "sum": s}
    assert rep.implied == "alpha1"
    assert rep.feasible is True


def test_two_ball_binding_constraints():
    rep = two_ball_feasible(2, 1, Fraction(1, 100), 5, 1, Fraction(1, 10))
    assert rep.answer == "infeasible"
    assert "sum" in rep.binding
    assert rep.feasible is False


def test_two_ball_strictness_at_bound():
    rep = two_ball_feasible(2, 1, Fraction(1, 20), 5, 1, Fraction(1, 20))
    assert rep.answer == "infeasible" and rep.binding == ("sum",)


def test_two_ball_companion_validation():
    with pytest.raises(CompanionMismatch):
        two_ball_feasible(2, 1, Fraction(1), 5, 2, Fraction(1))


def test_two_ball_unknown_for_one_without_common_triple():
    rep = two_ball_feasible(1, 1, Fraction(1, 100), 194, 31, Fraction(1, 100))
    assert rep.answer == "unknown"
    assert rep.feasible is None


def test_two_ball_no_common_triple_raises_beyond_one():
    from pinstairs.intersection_theory import NoCommonTriple

    with pytest.raises(NoCommonTriple):
        two_ball_feasible(2, 1, Fraction(1, 100), 13, 2, Fraction(1, 100))


def test_three_ball_frozen_bounds():
    rep = three_ball_feasible((5, 2, 1), (Fraction(1, 100),) * 3)
    assert rep.answer == "feasible"
    assert rep.bounds == PACK_THREE_521


def test_three_ball_binding_pairs():
    rep = three_ball_feasible((5, 2, 1), (Fraction(3, 50), Fraction(3, 50), Fraction(3, 50)))
    assert rep.answer == "infeasible"
    assert (1, 2) in rep.binding  # 3/50 + 3/50 >= 1/10
    assert rep.feasible is False


def test_three_ball_needs_one_companion_per_ball():
    widths = (Fraction(1, 10),) * 3
    assert three_ball_feasible((1, 1, 2), widths, (1, 1, 1)).answer == "feasible"
    # two companions would leave the third ball unchecked, four would drop one
    for qs in [(1, 1), (1, 1, 1, 7)]:
        with pytest.raises(DomainError, match=f"one per ball: got {len(qs)}$"):
            three_ball_feasible((1, 1, 2), widths, qs)


@pytest.mark.parametrize("pq,expected", sorted(CERTIFICATES.items()))
def test_obstruction_certificates_match_frozen(pq, expected):
    idx, triple, p3_mut, s, length, disp = expected
    cert = obstruction_certificate(*pq, idx)
    assert cert.triple == triple
    assert cert.p3_prime == p3_mut
    assert cert.s == s
    assert cert.girdle_length == length
    assert cert.displacement == disp
    assert cert.s * cert.girdle_length + cert.displacement == 0


def test_certificate_identity_along_the_staircase():
    for p, q in [(2, 1), (5, 1), (5, 4), (29, 7)]:
        for i in range(-10, 11):
            cert = obstruction_certificate(p, q, i)
            assert cert.s * cert.girdle_length + cert.displacement == 0
            assert cert.s < 0
