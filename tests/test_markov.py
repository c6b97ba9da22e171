"""Markov trees, companions, branch sequences, and the sigma constants."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinstairs import markov
from pinstairs.exact_core import DomainError
from pinstairs.markov import (
    BranchSequence,
    NotFound,
    NotMarkov,
    branch_sequence,
    canonical_triple,
    companions,
    compare_to_sigma,
    enumerate_tree,
    is_companion,
    is_markov_number,
    is_markov_triple,
    mutate,
    sigma_p,
    tree_to_json,
    validate_triple,
)

from .frozen import (
    BRANCH_WINDOWS,
    CANONICAL_TRIPLES,
    COMPANIONS,
    MARKOV_NUMBERS_1000,
    TREE_ROWS,
)
from .oracles import brute_markov_numbers, brute_markov_triples, fibonacci_markov_pair


def tree_rows_by_depth(depth):
    entries = enumerate_tree(depth)
    rows = {}
    level = {}
    for idx, e in enumerate(entries):
        d = 0 if e.parent is None else level[e.parent] + 1
        level[idx] = d
        rows.setdefault(d, set()).add(tuple(sorted(e.triple)))
    return rows


def test_tree_matches_frozen_rows():
    assert tree_rows_by_depth(5) == TREE_ROWS


def test_tree_triples_all_satisfy_the_equation():
    for e in enumerate_tree(6):
        assert is_markov_triple(*e.triple)


def test_markov_triples_are_pairwise_coprime_and_free_of_the_factor_3():
    # validate_triple checks only the equation and relies on both (its docstring
    # gives the argument)
    for e in enumerate_tree(12):
        a, b, c = e.triple
        for t in ((a, b, c), (b, c, a), (c, a, b)):
            assert validate_triple(t) == t
            x, y, z = t
            assert gcd(x, y) == gcd(y, z) == gcd(x, z) == 1
            assert x % 3 and y % 3 and z % 3


def test_tree_against_brute_force_search():
    seen = {tuple(sorted(e.triple)) for e in enumerate_tree(8)}
    for t in brute_markov_triples(200):
        assert t in seen


def test_tree_parent_mutation_consistency():
    entries = enumerate_tree(6)
    for e in entries:
        if e.parent is None:
            continue
        parent = entries[e.parent].triple
        # the child is the parent with exactly the mutated slot replaced
        assert sorted(mutate(parent, e.mutated)) == sorted(e.triple)


def test_tree_json_round_trip():
    entries = enumerate_tree(3)
    data = tree_to_json(entries)
    assert data[0] == {"triple": [1, 1, 1], "parent": None, "mutated": None}
    for row, e in zip(data, entries):
        assert tuple(row["triple"]) == e.triple
        assert row["parent"] == e.parent


@given(st.integers(min_value=1, max_value=3))
def test_mutation_is_an_involution(k):
    t = (2, 5, 29)
    assert tuple(sorted(mutate(mutate(t, k), k))) == tuple(sorted(t))


@pytest.mark.parametrize("t", [(), (1, 2), (1, 1, 1, 1)])
def test_mutate_refuses_a_tuple_that_is_not_a_triple(t):
    with pytest.raises(DomainError, match="3 entries"):
        mutate(t, 1)


@pytest.mark.parametrize("p,pair", sorted(COMPANIONS.items()))
def test_companions_match_frozen_table(p, pair):
    assert companions(p).pair == frozenset(pair)


def test_companion_pair_sums_to_p():
    for p in MARKOV_NUMBERS_1000:
        c = companions(p)
        if p > 2:
            assert c.q_plus + c.q_minus == p
        assert all(1 <= q <= max(p, 1) for q in c.pair)


def test_companions_of_non_markov_number_raises():
    with pytest.raises(NotFound):
        companions(6)
    with pytest.raises(NotFound):
        companions(433 * 2)


def test_exhaustive_search_proves_non_markov_numbers():
    with pytest.raises(NotMarkov, match="proved"):
        companions(6)
    with pytest.raises(NotFound, match="does not prove") as exc:
        companions(433, search_depth=2)
    assert not isinstance(exc.value, NotMarkov)
    assert companions(433, search_depth=6).pair == companions(433).pair


def test_negative_search_depth_is_rejected():
    for p in (1, 29, 6):
        with pytest.raises(DomainError, match=r"^search depth must be >= 0: -2$") as exc:
            companions(p, search_depth=-2)
        assert not isinstance(exc.value, NotFound)
    with pytest.raises(DomainError, match="search depth"):
        canonical_triple(29, 7, search_depth=-1)


def test_a_depth_cut_search_names_the_depth_limit():
    with pytest.raises(NotFound) as exc:
        companions(433, search_depth=2)
    message = str(exc.value)
    assert "depth limit" in message and "does not prove 433" in message
    assert "exhausted" not in message


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def test_kept_search_answers_as_a_cold_search_would():
    markov._search.cache_clear()
    assert companions(433).pair == {104, 329}
    with pytest.raises(NotFound) as exc:
        companions(433, 2)
    assert not isinstance(exc.value, NotMarkov)
    numbers = list(range(-3, 2001)) + [fibonacci_markov_pair(k)[0] for k in (31, 41, 65)]
    depths = [None, *range(10)]
    rng = random.Random(4)
    calls = [("companions", p, d) for p in numbers for d in depths]
    calls += [("is_markov_number", p, None) for p in numbers]
    # the other two read the same kept search: a sample
    calls += rng.sample([(fn, p, d) for p in numbers for d in depths
                         for fn in ("is_companion", "canonical_triple")], 3000)
    rng.shuffle(calls)
    markov._search.cache_clear()
    warm = []
    for fn, p, d in calls:
        args = (p,) if fn in ("companions", "is_markov_number") else (p, 7)
        args += () if fn == "is_markov_number" else (d,)
        warm.append((fn, args, _outcome(getattr(markov, fn), *args)))
    assert markov._search.cache_info().currsize == markov.SEARCH_CACHE_SIZE
    # warm and cold calls take the same path, so a sample of the cold replay suffices
    for fn, args, got in rng.sample(warm, 1000):
        markov._search.cache_clear()
        assert _outcome(getattr(markov, fn), *args) == got, (fn, args)
    brute = set(brute_markov_numbers(2000))
    for fn, args, got in warm:
        p = args[0]
        if not 1 <= p <= 2000:
            continue
        if fn == "is_markov_number":
            assert got == ("ok", p in brute)
        elif fn == "companions" and args[1] is None:
            assert got[0] == ("ok" if p in brute else NotMarkov)


def test_a_depth_limit_bounds_the_search_of_a_huge_number(monkeypatch):
    # the exhaustive search of a 301-digit non-Markov number would visit
    # millions of triples; a depth limit of 3 stops it after three levels
    starts = []
    levels = markov._tree_levels

    def counted(*args):
        for level in levels(*args):
            starts.append(len(level))
            yield level

    markov._search.cache_clear()
    monkeypatch.setattr(markov, "_tree_levels", counted)
    with pytest.raises(NotFound, match="within 3 tree levels") as exc:
        companions(10**300 + 1, search_depth=3)
    assert not isinstance(exc.value, NotMarkov)
    assert len(starts) == 4 and sum(starts) < 3**4


def test_one_tree_search_per_number_across_a_unit_of_work(monkeypatch):
    from pinstairs.atf_geometry import fan_rays, vianna_triangle
    from pinstairs.hirzebruch_jung import wahl_data
    from pinstairs.intersection_theory import (
        culet_report, discrepancies, intersection_matrix, inverse_closed_form,
        square_zero_class_search,
    )
    from pinstairs.regulation import predict_regulation
    from pinstairs.staircase_oracle import embeds, obstruction_certificate, pin_ball_capacity

    starts, searched, calls, q_reads = [], set(), [0], [0]
    levels, search, q_from_triple = markov._tree_levels, markov._search, markov._q_from_triple

    def counted_levels(*args):
        starts.append(1)
        return levels(*args)

    def recorded_search(p, max_depth):
        calls[0] += 1
        if p != 1:
            searched.add(p)
        return search(p, max_depth)

    def counted_q(*args):
        q_reads[0] += 1
        return q_from_triple(*args)

    markov._search.cache_clear()
    markov._family.cache_clear()
    monkeypatch.setattr(markov, "_tree_levels", counted_levels)
    monkeypatch.setattr(markov, "_search", recorded_search)
    monkeypatch.setattr(markov, "_q_from_triple", counted_q)
    for p, q in ((29, 7), (433, 104)):
        companions(p)
        w = wahl_data(p, q)
        intersection_matrix(w)
        inverse_closed_form(w)
        discrepancies(w)
        culet = culet_report(p, q)
        square_zero_class_search(p, q)
        predict_regulation(p, q)
        fan_rays(p, q)
        vianna_triangle(*culet.triple)
        pin_ball_capacity(p, q)
        obstruction_certificate(p, q, 2)
        embeds(p, q, Fraction(1, 3), Fraction(1, 5))
    assert len(starts) == len(searched)
    # one companion derivation and one mutation-invariance check per number
    assert q_reads[0] == 2 * len(searched)
    assert calls[0] > 2 * len(searched)


def test_companions_of_a_fourteen_digit_markov_number():
    p, pair = fibonacci_markov_pair(65)
    assert p == 17167680177565
    assert companions(p).pair == pair
    assert all((q * q + 9) % p == 0 for q in pair)


def test_is_markov_number_agrees_with_brute_force():
    brute = set(brute_markov_numbers(1000))
    assert brute == set(MARKOV_NUMBERS_1000)
    for n in range(1, 300):
        assert is_markov_number(n) == (n in brute)


def test_is_companion():
    assert is_companion(29, 7) and is_companion(29, 22)
    assert not is_companion(29, 3)
    assert is_companion(2, 1) and not is_companion(2, 2)


@pytest.mark.parametrize("pq,triple", sorted(CANONICAL_TRIPLES.items()))
def test_canonical_triples_match_frozen(pq, triple):
    assert canonical_triple(*pq) == triple


def test_canonical_triple_is_markov_and_companion_consistent():
    # every Markov number to depth 10, which include those below 1000
    for p in sorted({x for e in enumerate_tree(10) for x in e.triple}):
        for q in companions(p).pair:
            t = canonical_triple(p, q)
            assert t[0] == p
            assert is_markov_triple(*t)
            assert q % p == 3 * t[1] * pow(t[2], -1, p) % p, (p, q, t)


@pytest.mark.parametrize("pq,window", sorted(BRANCH_WINDOWS.items()))
def test_branch_windows_match_frozen(pq, window):
    lo, values = window
    seq = branch_sequence(*pq, lo, lo + len(values) - 1)
    assert [v for _, v in seq.items()] == values
    assert seq.lo == lo and seq.hi == lo + len(values) - 1


def test_branch_three_term_recursion():
    for (p, q), (lo, values) in BRANCH_WINDOWS.items():
        seq = branch_sequence(p, q, lo - 3, lo + len(values) + 2)
        for i in range(seq.lo + 1, seq.hi):
            assert seq.value(i + 1) == 3 * p * seq.value(i) - seq.value(i - 1)


def test_branch_consecutive_pairs_are_markov_with_p():
    for (p, q), (lo, values) in BRANCH_WINDOWS.items():
        seq = branch_sequence(p, q, lo, lo + len(values) - 1)
        for i in range(seq.lo, seq.hi):
            assert is_markov_triple(p, seq.value(i + 1), seq.value(i))


def test_branch_sequence_rejects_non_companions():
    with pytest.raises(DomainError):
        branch_sequence(29, 3, 0, 1)
    with pytest.raises(NotFound):
        branch_sequence(7, 1, 0, 1)


def test_a_far_branch_window_stores_no_term_in_the_family():
    held = len(markov._family(5, 1).values)
    seq = branch_sequence(5, 1, 3990, 4000)
    assert len(markov._family(5, 1).values) == held
    # the same terms as the walk that stores every term on the way
    fresh = markov._Branch(5, 1)
    assert seq.values == tuple(fresh[i] for i in range(3990, 4001))
    assert len(fresh.values) > 4000


@given(st.sampled_from([(1, 1), (2, 1), (5, 1), (5, 4), (29, 7)]),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 30))
def test_branch_window_matches_the_storing_walk(pq, grown, lo, width):
    br = markov._Branch(*pq)
    br[grown]  # hold some terms on one side of the valley
    held = dict(br.values)
    window = br.window(lo, lo + width)
    assert br.values == held
    assert window == [markov._Branch(*pq)[i] for i in range(lo, lo + width + 1)]


def _least_wider(pq, pn, d, cap=1000):
    """The least i with pn*m_i < d*m_{i+1}, by a walk from index 0 on a fresh
    branch; None when every box down to -cap is wider."""
    m, i = markov._Branch(*pq), 0
    if pn * m[0] >= d * m[1]:
        while pn * m[i] >= d * m[i + 1]:
            i += 1
            assert i < cap
        return i
    while pn * m[i - 1] < d * m[i]:
        i -= 1
        if i < -cap:
            return None
    return i


@st.composite
def branch_queries(draw):
    """A family, a term to grow its branch to, and an alpha in (0, sigma_p):
    at or between box widths, within 10^-40 of sigma_p, or just above or below
    the limit 3 - sigma_p = 1/(p^2 sigma_p) of the widths at -infinity."""
    pq = draw(st.sampled_from([(1, 1), (2, 1), (5, 1), (5, 4), (29, 7), (433, 104)]))
    p = pq[0]
    s = Fraction(sigma_p(p).decimal(45))  # sigma_p - 10^-45 < s < sigma_p
    tiny = Fraction(draw(st.integers(0, 9)), 10**41)
    kind = draw(st.sampled_from(["box", "between", "top", "above_limit", "below_limit", "any"]))
    if kind in ("box", "between"):
        k, m = draw(st.integers(-45, 45)), markov._Branch(*pq)
        alpha = Fraction(m[k + 1], p * m[k])
        if kind == "between":
            alpha = (alpha + Fraction(m[k + 2], p * m[k + 1])) / 2
    elif kind == "top":
        alpha = s - tiny
    elif kind == "above_limit":
        alpha = 3 - s + tiny
    elif kind == "below_limit":
        alpha = 3 - s - Fraction(1, 10**44) - tiny
    else:
        alpha = draw(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(2),
                                  max_denominator=10**6))
    return pq, draw(st.integers(-40, 40)), alpha


@settings(deadline=None)
@given(branch_queries())
def test_first_wider_matches_a_walk_from_zero_and_grows_only_to_its_neighbours(query):
    pq, grown, alpha = query
    br = markov._Branch(*pq)
    br[grown]  # hold some terms on one side of the valley
    held = dict(br.values)
    pn, d = pq[0] * alpha.numerator, alpha.denominator
    i = br.first_wider(pn, d)
    assert i == _least_wider(pq, pn, d)
    assert all(br.values[k] == v for k, v in held.items())
    if i is None:
        assert br.values == held
    else:
        assert {i - 1, i, i + 1} <= br.values.keys()
        assert min(br.values) == min(*held, i - 1) and max(br.values) == max(*held, i + 1)
        assert (br._lo, br._hi) == (min(br.values), max(br.values))


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (5, 1), (29, 7), (433, 104)])
def test_first_wider_finds_no_box_above_sigma_and_grows_nothing(pq):
    p = pq[0]
    s = Fraction(sigma_p(p).decimal(45))  # sigma_p - 10^-45 < s < sigma_p
    for alpha in (s + Fraction(1, 10**44), Fraction(3), Fraction(10**9)):
        br = markov._Branch(*pq)
        held = dict(br.values)
        assert br.first_wider(p * alpha.numerator, alpha.denominator) is None
        assert br.values == held


def test_branch_sequence_window_validation():
    with pytest.raises(DomainError):
        branch_sequence(2, 1, 3, 1)
    one = branch_sequence(2, 1, 2, 2)
    assert isinstance(one, BranchSequence) and one.value(2) == 5


def test_sigma_decimal_prefixes():
    assert sigma_p(2).decimal(6) == "2.914213"
    assert sigma_p(5).decimal(6) == "2.986606"
    assert sigma_p(1).decimal(6) == "2.618033"
    assert sigma_p(2).decimal(3, rounded=True) == "2.914"
    assert sigma_p(5).decimal(3, rounded=True) == "2.987"


def test_sigma_refuses_a_p_below_1_and_a_negative_digit_count():
    for p in (0, -1, -7):
        for build in (markov.Sigma, sigma_p):
            with pytest.raises(DomainError, match=f"^p must be positive: {p}$"):
                build(p)
    for digits in (-1, -12):
        with pytest.raises(DomainError, match=f"^digit count must be >= 0: {digits}$"):
            sigma_p(5).decimal(digits)


def test_sigma_to_0_places_is_its_whole_part():
    # sigma_5 = 2.9866..., sigma_1 = 2.6180...
    for p in (1, 5):
        assert sigma_p(p).decimal(0) == "2"
        assert sigma_p(p).decimal(0, rounded=True) == "3"
    assert sigma_p(5).decimal(1) == "2.9" and sigma_p(5).decimal(1, rounded=True) == "3.0"


def test_sigma_is_a_root_of_its_polynomial():
    for p in (1, 2, 5, 13, 29):
        s = sigma_p(p)
        a, b, c = s.polynomial
        x = Fraction(float(s))
        # float approximation nearly kills the polynomial
        assert abs(a * x * x + b * x + c) < Fraction(1, 10**6)


def test_the_float_of_sigma_does_not_overflow():
    # the nearest double to sigma_p is 3.0 for every p above about 4*10^7
    assert 2.6 < float(sigma_p(10**200)) <= 3


def test_compare_to_sigma_brackets_the_root():
    assert compare_to_sigma(2, Fraction(29, 10)) == "less"
    assert compare_to_sigma(2, Fraction(30, 10)) == "greater"
    assert compare_to_sigma(5, Fraction(433, 145)) == "less"
    assert compare_to_sigma(5, Fraction(3)) == "greater"
    assert compare_to_sigma(1, Fraction(13, 5)) == "less"
    assert compare_to_sigma(1, Fraction(34, 13)) == "less"
    assert compare_to_sigma(1, Fraction(21, 8)) == "greater"


@given(
    st.sampled_from([1, 2, 5, 13, 29]),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(4), max_denominator=400),
)
def test_compare_to_sigma_agrees_with_float_when_clear(p, r):
    verdict = compare_to_sigma(p, r)
    approx = float(sigma_p(p))
    if abs(float(r) - approx) > 1e-6:
        assert verdict == ("less" if float(r) < approx else "greater")


def test_sigma_squeeze_by_branch_ratios():
    # consecutive-step ratios m_{i+1}/m_i climb toward 3p*sigma-ish bounds;
    # the simpler exact check: alpha_sup(i) = m_{i+1}/(p m_i) increases to sigma
    p, q = 5, 1
    seq = branch_sequence(p, q, -1, 9)
    last = None
    for i in range(0, 9):
        r = Fraction(seq.value(i + 1), p * seq.value(i))
        assert compare_to_sigma(p, r) == "less"
        if last is not None:
            assert r > last
        last = r


def test_the_search_meets_each_markov_number_at_the_valley_of_its_mutations():
    # canonical_triple reads its co-entries from the searched triple unmoved:
    # p is its strict maximum, so each mutation fixing p goes up
    numbers = sorted({x for e in enumerate_tree(10) for x in e.triple if x > 2})
    assert len(numbers) == 511
    for p in numbers:
        _, (x, y) = markov._search(p, None)
        assert max(x, y) < p
        for q in companions(p).pair:
            _, x, y = canonical_triple(p, q)
            assert 3 * p * y - x > x and 3 * p * x - y > y
