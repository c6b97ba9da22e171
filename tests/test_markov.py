"""Markov trees, companions, branch sequences, and the sigma constants."""

import random
from fractions import Fraction
from itertools import islice, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinstairs import embeds, markov
from pinstairs.exact_core import DomainError, isqrt_exact
from pinstairs.markov import (
    BranchSequence,
    CompanionPair,
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
from .oracles import (
    brute_markov_numbers,
    brute_markov_triples,
    fibonacci_markov_pair,
    fibonacci_markov_triple,
    reference_search,
    reference_tree_levels,
)
from .test_staircase_oracle import calls_of_each


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


def test_the_tree_levels_equal_the_reference_search_to_depth_12():
    assert (list(islice(markov._tree_levels(), 12))
            == list(islice(reference_tree_levels(), 12)))


def test_the_pruned_tree_levels_equal_the_reference_search():
    numbers = {x for e in enumerate_tree(9) for x in e.triple}
    for bound in sorted(numbers.union(range(-2, 3000))):
        assert list(markov._tree_levels(bound)) == list(reference_tree_levels(bound)), bound


def _search_outcome(p, d):
    try:
        return "ok", repr(markov._search.__wrapped__(p, d))
    except DomainError as exc:
        return type(exc), str(exc)


def _reference_outcome(p, d, levels):
    kind, *found = reference_search(p, d, levels)
    if kind == "found":
        q, q_minus, x, y = found
        return "ok", repr((CompanionPair(p, q, q_minus), (x, y)))
    if kind == "none":
        return "ok", "None"
    return NotFound, (f"{p} not encountered within {d} tree levels (the depth limit cut the "
                      f"search short; this does not prove {p} is not a Markov number)")


def test_the_search_answers_as_the_reference_search():
    # every answer, refusal and depth-limit miss, exhaustive and with depth
    # limits 0-9; the reference levels of each number are listed once
    for n in range(-2, 20000):
        levels = list(reference_tree_levels(n))
        for d in (None, *range(10)):
            assert _search_outcome(n, d) == _reference_outcome(n, d, levels), (n, d)


def test_a_cold_search_mutates_once(monkeypatch):
    # the two children of each triple are written out, so the one call of
    # mutate is the mutation-invariance check
    calls = []
    real = markov.mutate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(markov, "mutate", counted)
    markov._search.cache_clear()
    assert companions(433).pair == {104, 329}
    assert len(calls) == 1


def test_the_invariance_check_refuses_a_triple_that_is_not_markov(monkeypatch):
    # (2, 3, 7) is no Markov triple: its co-entries give q = 2 mod 7, while
    # (3, 61) from mutating its first entry gives q = 6, outside {2, 5}
    monkeypatch.setattr(markov, "_tree_levels", lambda bound: iter([[((2, 3, 7), (1, 2, 3), 1)]]))
    with pytest.raises(AssertionError, match="^companion pair not mutation-invariant for p=7$"):
        markov._search.__wrapped__(7, None)


def test_tree_json_round_trip():
    entries = enumerate_tree(3)
    data = tree_to_json(entries)
    assert data[0] == {"triple": [1, 1, 1], "parent": None, "mutated": None}
    for row, e in zip(data, entries):
        assert tuple(row["triple"]) == e.triple
        assert row["parent"] == e.parent


def test_each_mutation_is_markov_and_each_descent_strict_to_depth_9():
    # what _mutate and _descend argue and no longer check, in integers: at every
    # ordering and position a mutation of a Markov triple is Markov, and past
    # (1, 1, 1) the largest entry mutates to a smaller positive one
    triples = {r for e in enumerate_tree(9) for r in permutations(e.triple)}
    assert len(triples) == 1534
    for triple in triples:
        for k in range(3):
            x, y, z = child = mutate(triple, k + 1)
            assert min(child) > 0 and x * x + y * y + z * z == 3 * x * y * z
            if triple != (1, 1, 1) and triple[k] == max(triple):
                assert 0 < child[k] < triple[k]
        if triple != (1, 1, 1):
            k, parent = markov._descend(triple)
            assert triple[k] == max(triple) and parent == mutate(triple, k + 1)


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


def test_one_tree_search_per_number_across_a_unit_of_work(monkeypatch, cold_caches):
    from pinstairs.atf_geometry import _check_vianna, fan_rays, vianna_triangle
    from pinstairs.hirzebruch_jung import wahl_data
    from pinstairs.intersection_theory import (
        culet_report, discrepancies, intersection_matrix, inverse_closed_form,
        square_zero_class_search,
    )
    from pinstairs.regulation import predict_regulation
    from pinstairs.staircase_oracle import embeds, obstruction_certificate, pin_ball_capacity

    starts, searched, calls = [], set(), [0]
    levels, search = markov._tree_levels, markov._search

    def counted_levels(*args):
        starts.append(1)
        return levels(*args)

    def recorded_search(p, max_depth):
        calls[0] += 1
        if p != 1:
            searched.add(p)
        return search(p, max_depth)

    pairs = ((29, 7), (433, 104))

    def unit():
        for p, q in pairs:
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

    monkeypatch.setattr(markov, "_tree_levels", counted_levels)
    monkeypatch.setattr(markov, "_search", recorded_search)
    # counted by code object, so the modules that import the names are seen too
    (q_reads, checks), _ = calls_of_each(
        (markov._q_from_triple.__code__, _check_vianna.__code__), unit)
    assert len(starts) == len(searched)
    # one companion derivation and one mutation-invariance check per number,
    # one q per flank of each pair's culet scan, read from its triple, and one
    # per vertex of each Vianna triangle checked, mutated from (1, 1, 1) cold
    assert checks > 0
    assert q_reads == 2 * len(searched) + 2 * len(pairs) + 3 * checks
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


def _held(br):
    """The terms a branch holds, by index: terms[k] is m_{_lo+k}, and _hi is
    the last index held."""
    assert br._hi == br._lo + len(br.terms) - 1
    return {br._lo + k: v for k, v in enumerate(br.terms)}


def test_a_far_branch_window_stores_no_term_in_the_family():
    held = len(markov._family(5, 1).terms)
    seq = branch_sequence(5, 1, 3990, 4000)
    assert len(markov._family(5, 1).terms) == held
    # the same terms as the walk that stores every term on the way
    fresh = markov._Branch(5, 1)
    assert seq.values == tuple(fresh[i] for i in range(3990, 4001))
    assert len(fresh.terms) > 4000


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7), (433, 104)])
def test_each_held_box_keeps_its_key_after_growth_both_ways(pq):
    # keys[k] = floor(2^64 * m_{i+1}/m_i) for box i = _lo + k, grown with the terms
    br = markov._Branch(*pq)
    for i in (7, -9, 12, -15):
        br[i]
        m = _held(br)
        assert len(br.keys) == len(br.terms) - 1
        assert br.keys == [(m[j + 1] << 64) // m[j] for j in range(br._lo, br._hi)]
    assert (br._lo, br._hi) == (-15, 12)
    assert tuple(br.terms) == branch_sequence(*pq, -15, 12).values


@given(st.sampled_from([(1, 1), (2, 1), (5, 1), (5, 4), (29, 7)]),
       st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 30))
def test_branch_window_matches_the_storing_walk(pq, grown, lo, width):
    br = markov._Branch(*pq)
    br[grown]  # hold some terms on one side of the valley
    held = _held(br)
    window = br.window(lo, lo + width)
    assert _held(br) == held
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
    held = _held(br)
    pn, d = pq[0] * alpha.numerator, alpha.denominator
    i = br.first_wider(pn, d)
    assert i == _least_wider(pq, pn, d)
    now = _held(br)
    assert all(now[k] == v for k, v in held.items())
    if i is None:
        assert now == held
    else:
        assert {i - 1, i, i + 1} <= now.keys()
        assert min(now) == min(*held, i - 1) and max(now) == max(*held, i + 1)
        assert (br._lo, br._hi) == (min(now), max(now))


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (5, 1), (29, 7), (433, 104)])
def test_first_wider_finds_no_box_above_sigma_and_grows_nothing(pq):
    p = pq[0]
    s = Fraction(sigma_p(p).decimal(45))  # sigma_p - 10^-45 < s < sigma_p
    for alpha in (s + Fraction(1, 10**44), Fraction(3), Fraction(10**9)):
        br = markov._Branch(*pq)
        held = _held(br)
        assert br.first_wider(p * alpha.numerator, alpha.denominator) is None
        assert _held(br) == held


class _CountingTerms(list):
    """A term list that counts the items read from it."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7), (433, 104)])
def test_a_box_inside_the_held_ones_is_confirmed_by_its_two_inequalities(pq):
    # where the keys of boxes i - 1 and i differ by 2 or more, an alpha in
    # [alpha_sup(i - 1), alpha_sup(i)) has its key in [keys(i - 1), keys(i)):
    # box i is read from the keys and confirmed by pn*m_{i-1} >= d*m_i and
    # pn*m_i < d*m_{i+1}, 4 term reads, at the tie alpha = alpha_sup(i - 1) too
    p = pq[0]
    br = markov._Branch(*pq)
    br[-12], br[12]
    m = _held(br)
    br.terms = counting = _CountingTerms(br.terms)
    decided = 0
    for i in range(br._lo + 1, br._hi):
        k = i - br._lo
        if br.keys[k] - br.keys[k - 1] < 2:
            continue
        tie, wider = Fraction(m[i], p * m[i - 1]), Fraction(m[i + 1], p * m[i])
        for alpha in (tie, (tie + wider) / 2):
            counting.reads = 0
            assert br.first_wider(p * alpha.numerator, alpha.denominator) == i
            assert counting.reads == 4
            decided += 1
    assert decided >= 10


GRID_FAMILIES = [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7), (433, 104), (7453378, 1807955)]


def _walked_verdict(p, q, alpha, beta):
    """(answer, index) by definition: OutsideVisibleRange above sigma_p; else
    the least box wider than alpha, walked from box 0 on a fresh branch,
    holds the point when beta is below its height, and otherwise its inner
    corner obstructs.  When alpha is at or below 1/(p^2 sigma_p), every box
    is wider, and the witness is the last box up to 0 taller than beta."""
    if compare_to_sigma(p, alpha) == "greater" or compare_to_sigma(p, beta) == "greater":
        return "OutsideVisibleRange", None
    m = markov._Branch(p, q)
    if compare_to_sigma(p, 1 / (p * p * alpha)) == "greater":
        i = 0
        while beta >= Fraction(m[i], p * m[i + 1]):
            i -= 1
        return "Embeds", i
    i = _least_wider((p, q), p * alpha.numerator, alpha.denominator)
    below, here, above = m[i - 1], m[i], m[i + 1]
    if beta < Fraction(here, p * above):
        return "Embeds", i
    return "DoesNotEmbed", i


def _answer(verdict, p, q):
    """A verdict as (answer, index), its box or corner checked against the
    branch terms at that index."""
    if verdict.answer == "OutsideVisibleRange":
        return verdict.answer, None
    if verdict.answer == "Embeds":
        i = verdict.witness.index
        below, here, above = branch_sequence(p, q, i - 1, i + 1).values
        assert (verdict.witness.alpha_sup, verdict.witness.beta_sup) == (
            Fraction(above, p * here), Fraction(here, p * above))
        return verdict.answer, i
    # the corner (m_i/(p*m_{i-1}), m_i/(p*m_{i+1})) names its index by
    # beta_sup(i): box i + 1 is the least wider than 1/(p^2 beta_sup(i)) = alpha_sup(i)
    height = verdict.obstruction[1]
    i = _least_wider((p, q), height.denominator, p * height.numerator) - 1
    below, here, above = branch_sequence(p, q, i - 1, i + 1).values
    assert verdict.obstruction == (Fraction(here, p * below), Fraction(here, p * above))
    return verdict.answer, i


def _wrong_keys(keys):
    """Key lists as long as `keys` and wrong: reversed, all 0, shuffled, and
    shifted by one index either way."""
    shuffled = list(keys)
    random.Random(len(keys)).shuffle(shuffled)
    return {"reversed": keys[::-1], "zero": [0] * len(keys), "shuffled": shuffled,
            "shifted_up": keys[1:] + keys[-1:], "shifted_down": keys[:1] + keys[:-1]}


@pytest.mark.parametrize("pq", GRID_FAMILIES)
def test_the_keys_never_decide_a_verdict(pq):
    # a 40x40 sub-grid of the benchmark grid, direct and swapped, and exact
    # ties at every held box: alpha = alpha_sup(i), beta = beta_sup(i) or
    # beta_sup(i + 1), and alphas 2^-70 either side of a box width.  With
    # every wrong key list each verdict is the clean family's own object
    p, q = pq
    q_swap = p - q if p > 2 else 1
    top = Fraction(int(float(sigma_p(p)) * 1000), 1001)
    vals = [Fraction(k, 40) * top for k in range(1, 41)]
    queries = [(q, a, b) for a in vals for b in vals] + [(q_swap, b, a) for a in vals for b in vals]
    clean = [embeds(p, *query) for query in queries]
    ties = []
    for qq in sorted({q, q_swap}):
        br = markov._family(p, qq)
        m = _held(br)
        for i in range(br._lo, br._hi):
            width, height = Fraction(m[i + 1], p * m[i]), Fraction(m[i], p * m[i + 1])
            lower = Fraction(m[i + 2], p * m[i + 1]) if i + 1 < br._hi else height
            for alpha in (width, width - Fraction(1, 2**70), width + Fraction(1, 2**70)):
                for beta in (height, lower):
                    ties.append((qq, alpha, beta))
    tie_verdicts = [embeds(p, *query) for query in ties]
    for query, verdict in zip(ties, tie_verdicts):
        assert _answer(verdict, p, query[0]) == _walked_verdict(p, *query)
    queries += ties
    clean += tie_verdicts
    try:
        for qq in sorted({q, q_swap}):
            for name, wrong in _wrong_keys(markov._family(p, qq).keys).items():
                br = markov._family(p, qq)
                br.keys[:] = wrong
                for query, verdict in zip(queries, clean):
                    assert embeds(p, *query) is verdict, (name, query)
                m = _held(br)
                br.keys[:] = [(m[i + 1] << 64) // m[i] for i in range(br._lo, br._hi)]
    finally:
        markov._family.cache_clear()


@pytest.mark.parametrize("pq", [(5, 1), (433, 104), (7453378, 1807955)])
def test_an_alpha_with_a_400_digit_numerator_finds_the_walked_box(pq):
    p, q = pq
    m = markov._Branch(*pq)
    tiny = Fraction(1, 10**420)
    for i in range(-6, 7):
        width = Fraction(m[i + 1], p * m[i])
        for alpha in (width - tiny, width + tiny, width * Fraction(10**420 + 1, 10**420)):
            assert len(str(alpha.numerator)) >= 400
            want = _least_wider(pq, p * alpha.numerator, alpha.denominator)
            verdict = embeds(p, q, alpha, tiny)
            assert verdict.answer == "Embeds" and verdict.witness.index == want


def test_a_325_digit_fibonacci_p_finds_the_walked_box():
    _, u, p = fibonacci_markov_triple(1553)
    assert len(str(p)) == 325
    for q in (3 * u % p, p - 3 * u % p):
        m = markov._Branch(p, q)
        # below box 0 the widths lie within about p^-2 = 10^-648 of their
        # limit, so a width less 10^-700 can fall below it, where every box is wider
        for i in range(0, 6):
            width, next_width = Fraction(m[i + 1], p * m[i]), Fraction(m[i + 2], p * m[i + 1])
            for alpha in (width, width - Fraction(1, 10**700), (width + next_width) / 2):
                want = _least_wider((p, q), p * alpha.numerator, alpha.denominator)
                verdict = embeds(p, q, alpha, Fraction(1, 10**2000))
                assert verdict.answer == "Embeds" and verdict.witness.index == want


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


def test_nine_p_squared_minus_four_is_never_a_square():
    # Sigma.compare never answers 'equal': its docstring gives the argument
    for p in range(1, 10**4 + 1):
        assert isqrt_exact(9 * p * p - 4) is None


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


def test_corners_and_girdles_equal_the_normalising_constructor_to_depth_9():
    # each is built from a pair in lowest terms with no Fraction.__new__: compare
    # it with the normalising constructor, hash included
    def same(got, n, d):
        want = Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator, hash(got)) == \
            (want.numerator, want.denominator, hash(want))

    for e in enumerate_tree(9):
        for p1, p2, p3 in set(permutations(e.triple)):
            same(markov._corner(p1, p2, p3), p2, p1 * p3)
            p3p, length, disp = markov._girdle(p1, p2, p3)
            assert p3p == 3 * p1 * p3 - p2
            same(length, p1 * p3, p2 * p3p)
            same(disp, p3, p1)
