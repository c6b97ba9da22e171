"""Continued fractions, Wahl chains, dual chains, zero chains."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinstairs.exact_core import DomainError
from pinstairs.hirzebruch_jung import (
    INFINITY,
    _chain_length,
    dual_chain,
    hj_eval,
    hj_eval_projective,
    hj_expand,
    is_zero_continued_fraction,
    isqrt_exact,
    recognize_dual_wahl,
    wahl_data,
)

from .frozen import DUAL_CHAINS, WAHL, ZCF_FALSE, ZCF_TRUE
from .oracles import chain_of, eval_chain


def test_expand_base_cases():
    assert hj_expand(1, 1) == []
    assert hj_expand(4, 1) == [4]
    assert hj_expand(4, 3) == [2, 2, 2]
    assert hj_expand(25, 4) == [7, 2, 2, 2]
    assert hj_expand(25, 19) == [2, 2, 2, 7]


def test_expand_rejects_bad_input():
    with pytest.raises(DomainError):
        hj_expand(4, 2)  # not coprime
    with pytest.raises(DomainError):
        hj_expand(3, 4)  # needs 0 < a <= n
    with pytest.raises(DomainError):
        hj_expand(0, 1)


@pytest.mark.parametrize("n", range(2, 40))
def test_expand_matches_independent_oracle(n):
    for a in range(1, n + 1):
        if gcd(n, a) != 1:
            continue
        assert list(hj_expand(n, a)) == chain_of(n, a)


def test_round_trip_eval_of_expansion():
    for n in range(2, 401):
        for a in range(1, n):
            if gcd(n, a) != 1:
                continue
            assert hj_eval(hj_expand(n, a)) == Fraction(n, a)


def test_eval_projective_handles_infinity():
    assert hj_eval_projective(()) == (1, 0)
    assert hj_eval(()) is INFINITY
    assert hj_eval_projective((2, 2)) == (3, 2)
    num, den = hj_eval_projective((1, 1))
    assert num == 0
    assert hj_eval_projective((1, 1, 1, 1)) == (1, 1)  # the raw pair is (-1, -1)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=7))
def test_eval_agrees_with_plain_fraction_oracle(entries):
    num, den = hj_eval_projective(tuple(entries))
    oracle = eval_chain(entries)
    if oracle is None:
        assert den == 0
    else:
        assert den != 0 and Fraction(num, den) == oracle
    assert gcd(num, den) == 1


@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=7))
def test_a_chain_of_entries_at_least_two_is_the_expansion_of_its_value(entries):
    # expansions with entries >= 2 are unique, so recognize_dual_wahl reads
    # (s, q) off the value alone: a square numerator has s >= 2
    num, den = hj_eval_projective(entries)
    assert num > den >= 1
    assert hj_expand(num, den) == entries
    found = recognize_dual_wahl(entries)
    if found is not None:
        s, q = found
        assert s >= 2 and hj_expand(s * s, s * s - s * q + 1) == entries


@pytest.mark.parametrize("entries", ZCF_TRUE)
def test_zero_chains_recognized(entries):
    assert is_zero_continued_fraction(entries)
    assert eval_chain(entries) == 0


@pytest.mark.parametrize("entries", ZCF_FALSE)
def test_nonzero_chains_rejected(entries):
    assert not is_zero_continued_fraction(entries)
    assert eval_chain(entries) != 0


@pytest.mark.parametrize("pq,data", sorted(WAHL.items()))
def test_wahl_chains_match_frozen(pq, data):
    chain, e, f = data
    w = wahl_data(*pq)
    assert list(w.chain) == chain
    assert w.e == e
    assert w.f == f
    assert w.m == len(chain)


def test_wahl_rejects_bad_pairs():
    with pytest.raises(DomainError):
        wahl_data(4, 2)  # gcd > 1
    with pytest.raises(DomainError):
        wahl_data(5, 6)  # q out of range
    with pytest.raises(DomainError):
        wahl_data(0, 1)


def test_wahl_chain_is_expansion_of_p2_over_pq_minus_1():
    for p in range(2, 60):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            w = wahl_data(p, q)
            assert hj_eval(w.chain) == Fraction(p * p, p * q - 1)


def test_wahl_e_f_determinant_identity():
    for p in range(1, 201):
        for q in range(1, max(p, 1) + 1):
            if gcd(p, q) != 1 or (p > 1 and q == p):
                continue
            w = wahl_data(p, q)
            for i in range(1, w.m + 2):
                assert w.e[i] * w.f[i - 1] - w.e[i - 1] * w.f[i] == p * p


def test_wahl_e_f_boundary_values():
    w = wahl_data(29, 7)
    assert w.e[0] == 0 and w.e[1] == 1
    assert w.f[0] == 29 * 29 and w.f[-1] == 0
    assert w.e[-1] == 29 * 29 and w.f[-2] == 1


def test_wahl_p1_is_empty():
    w = wahl_data(1, 1)
    assert w.chain == () and w.e == (0, 1) and w.f == (1, 0)


@pytest.mark.parametrize("arg,expected", DUAL_CHAINS)
def test_dual_chain_reverses(arg, expected):
    chain, n, a = arg
    rev, a_bar = expected
    got_rev, got_bar = dual_chain(chain, n, a)
    assert list(got_rev) == rev and got_bar == a_bar
    assert hj_eval(got_rev) == Fraction(n, a_bar)
    assert (a * a_bar) % n == 1


def test_dual_chain_rejects_mismatched_fraction():
    with pytest.raises(DomainError):
        dual_chain([2, 2, 2], 25, 4)


def test_dual_of_wahl_chain_identity():
    for p in range(2, 40):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            w = wahl_data(p, q)
            rev, _ = dual_chain(w.chain, p * p, p * q - 1)
            assert list(rev) == list(reversed(w.chain))


def test_recognize_dual_wahl():
    assert recognize_dual_wahl([2, 2, 2]) == (2, 1)
    assert recognize_dual_wahl([5, 2, 2, 2, 2, 2]) == (5, 4)
    assert recognize_dual_wahl([4]) is None  # q = 2 shares a factor with s = 2
    assert recognize_dual_wahl([2, 2]) is None
    assert recognize_dual_wahl([]) == (1, 1)  # empty chain is the s = 1 case


def test_recognize_dual_wahl_round_trip():
    for s in range(2, 30):
        for q in range(1, s):
            if gcd(s, q) != 1:
                continue
            flank = hj_expand(s * s, s * s - s * q + 1)
            assert recognize_dual_wahl(flank) == (s, q)


def test_isqrt_exact():
    assert isqrt_exact(841) == 29
    assert isqrt_exact(840) is None
    assert isqrt_exact(0) == 0
    assert isqrt_exact(1) == 1


@given(st.integers(min_value=2, max_value=2000))
def test_expand_entries_at_least_two_iff_proper(n):
    # p^2/(pq-1)-style fractions n/a with a < n have entries >= 2
    for a in (1, n - 1):
        if gcd(n, a) != 1:
            continue
        assert all(b >= 2 for b in hj_expand(n, a))


@st.composite
def coprime_pairs(draw):
    """A coprime pair 0 < a < n, built from the regular continued fraction
    [c_1; c_2, ..., c_k] of n/a, so its chain stays short enough to expand."""
    cs = draw(st.lists(st.integers(1, 60), min_size=1, max_size=40))
    if cs[-1] == 1:
        cs[-1] = 2  # the last quotient of a value above 1 is at least 2
    n, a = cs[-1], 1
    for c in reversed(cs[:-1]):
        n, a = c * n + a, n
    return n, a


@settings(max_examples=500)
@given(coprime_pairs())
def test_chain_length_is_the_length_of_the_expansion(pair):
    assert _chain_length(*pair) == len(hj_expand(*pair))


def test_chain_length_of_every_wahl_pair_up_to_60():
    for p in range(1, 60):
        for q in range(1, p + 1):
            if gcd(p, q) == 1:
                assert _chain_length(p * p, p * q - 1) == wahl_data(p, q).m


def test_chain_length_of_a_huge_pair_takes_a_few_steps():
    # the chain of (p, 1) has p - 1 entries; its continued fraction two terms
    p = 10**400 + 1
    assert _chain_length(p * p, p - 1) == p - 1
