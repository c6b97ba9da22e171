"""Markov trees, companions, branch sequences, and the sigma constants."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    for p in MARKOV_NUMBERS_1000:
        for q in companions(p).pair:
            t = canonical_triple(p, q)
            assert t[0] == p
            assert is_markov_triple(*t)


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


def test_sigma_is_a_root_of_its_polynomial():
    for p in (1, 2, 5, 13, 29):
        s = sigma_p(p)
        a, b, c = s.polynomial
        x = Fraction(float(s))
        # float approximation nearly kills the polynomial
        assert abs(a * x * x + b * x + c) < Fraction(1, 10**6)


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
