"""Hirzebruch-Jung continued fractions, Wahl chains, duals, and e/f sequences.

The chain [b1,...,bm] stands for b1 - 1/(b2 - 1/(... - 1/bm)).  Evaluation is
projective (numerator/denominator pairs, the continuants of
exact_core._continuants), so chains that pass through an intermediate
infinity evaluate totally; that matters for the zero continued fractions,
which are exactly the chains evaluating to 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import _EXPORTS
from .exact_core import DomainError, _continuants, _Record, isqrt_exact

__all__ = _EXPORTS["hirzebruch_jung"]

HJChain = list[int]

WAHL_CACHE_SIZE = 256  # derived and self-checked Wahl chains kept, keyed on (p, q)


class _Infinity:
    """Projective infinity 1/0, the value of the empty chain."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


def hj_expand(n: int, a: int) -> HJChain:
    """Ceiling-division expansion of n/a as [b1,...,bm] with all bi >= 2."""
    if n == a == 1:
        return []
    if not (0 < a < n):
        raise DomainError(f"need 0 < a < n (or a = n = 1): got n={n}, a={a}")
    if gcd(n, a) != 1:
        raise DomainError(f"n and a must be coprime: gcd({n},{a}) = {gcd(n, a)}")
    out = []
    while a > 0:
        b = -(-n // a)  # ceil
        out.append(b)
        n, a = a, b * a - n
    return out


def hj_eval_projective(entries: HJChain) -> tuple[int, int]:
    """Right-to-left evaluation as a normalized projective pair (num, den).

    The pair is the last two continuants of the reversed chain, which are
    coprime, as any two consecutive continuants are.  The empty chain is
    (1, 0), i.e. infinity.
    """
    den, num = _continuants(reversed(entries), 0, 1)[-2:]
    if den < 0:
        num, den = -num, -den
    return num, den


def hj_eval(entries: HJChain):
    """Exact value of the chain: a Fraction, or INFINITY when the value is 1/0."""
    num, den = hj_eval_projective(entries)
    if den == 0:
        return INFINITY
    return Fraction(num, den)


def is_zero_continued_fraction(entries: HJChain) -> bool:
    """Whether b_1 - 1/(b_2 - 1/(... - 1/b_k)) equals 0 through positive
    partial values.

    Chains built by blowing up a single 0-vertex keep every proper suffix
    value strictly positive: appending [.., b_k+1, 1] leaves the suffix
    values unchanged, and splitting an edge into [.., b_i+1, 1, b_{i+1}+1,
    ..] maps v_{i+1} to v_{i+1}+1 while restoring v_i exactly.  A pole or a
    sign change along the way therefore disqualifies the chain even when
    the blind Moebius product has a vanishing corner entry (e.g.
    [1,1,1,1,1] or [2,1,1,1,1,2]).
    """
    if any(b < 1 for b in entries):
        raise DomainError(f"chain entries must be >= 1: {entries}")
    xs = _continuants(reversed(entries), 0, 1)  # the last k entries are xs[k + 1]/xs[k]
    return xs[-1] == 0 and min(xs[1:-1]) > 0


class WahlData(_Record):
    """The chain of p^2/(pq-1) together with its e/f companion sequences.

    e and f are continuants of the chain (exact_core._continuants), the
    recursion x_{i+1} = b_i*x_i - x_{i-1} with seeds e_0=0, e_1=1 and
    f_0=p^2, f_1=pq-1; then e_{m+1}=p^2, f_{m+1}=0 and
    e_i*f_{i-1} - e_{i-1}*f_i = p^2 throughout.
    """

    __slots__ = ("p", "q", "chain", "e", "f")
    p: int
    q: int
    chain: tuple[int, ...]
    e: tuple[int, ...]
    f: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.chain)


def _require_wahl_pair(p: int, q: int) -> None:
    if p < 1 or not (1 <= q <= p) or gcd(p, q) != 1:
        raise DomainError(f"need 1 <= q <= p coprime: got p={p}, q={q}")


def _chain_length(n: int, a: int) -> int:
    """len(hj_expand(n, a)) for 0 < a < n coprime, and 0 for a = 0 (the empty
    chain of p = 1 in p^2/(pq - 1)), without building the chain.

    Euclid's algorithm gives the regular continued fraction [c_1; c_2, ...]
    of n/a in O(log n) steps.  Each partial quotient at an odd position
    gives one entry of the ceiling expansion, and each c_k at an even
    position a run of c_k - 1 entries equal to 2.
    """
    m, odd = 0, True
    while a:
        c, (n, a) = n // a, (a, n % a)
        m += 1 if odd else c - 1
        odd = not odd
    return m


def wahl_data(p: int, q: int) -> WahlData:
    _require_wahl_pair(p, q)
    return _wahl(p, q)


@lru_cache(maxsize=WAHL_CACHE_SIZE)
def _wahl(p: int, q: int) -> WahlData:
    """wahl_data for a valid pair.  Each chain is expanded and self-checked
    once while it stays cached; WahlData is frozen, so callers share it."""
    if p == 1:
        return WahlData(1, 1, (), (0, 1), (1, 0))
    chain = hj_expand(p * p, p * q - 1)
    e = _continuants(chain, 0, 1)
    f = _continuants(chain, p * p, p * q - 1)
    if e[-1] != p * p or f[-1] != 0:
        raise AssertionError(f"e/f recursion endpoints wrong for (p,q)=({p},{q})")
    for i in range(1, len(e)):
        if e[i] * f[i - 1] - e[i - 1] * f[i] != p * p:
            raise AssertionError(f"determinant identity fails at i={i} for ({p},{q})")
    return WahlData(p, q, tuple(chain), tuple(e), tuple(f))


def dual_chain(entries: HJChain, n: int, a: int) -> tuple[HJChain, int]:
    """Reverse of the chain of n/a, which is the chain of n/abar, a*abar = 1 mod n."""
    if tuple(entries) != tuple(hj_expand(n, a)):
        raise DomainError(f"chain is not the expansion of {n}/{a}")
    if n == 1:
        return (), 1
    abar = pow(a, -1, n)
    rev = tuple(reversed(entries))
    if tuple(hj_expand(n, abar)) != rev:
        raise AssertionError(f"reversed chain does not expand {n}/{abar}")
    return rev, abar


def recognize_dual_wahl(entries: HJChain) -> tuple[int, int] | None:
    """If the chain expands s^2/(s^2 - sq + 1), return (s, q); else None.

    These are exactly the duals of Wahl chains: hj_expand(n, a) with n = s^2
    and a = n - (sq - 1) for a companion-style parameter q coprime to s.
    """
    if not entries:
        return (1, 1)
    if any(b < 2 for b in entries):
        return None
    # entries >= 2 give num > den >= 1, whose one such expansion is the chain: s >= 2
    num, den = hj_eval_projective(entries)
    s = isqrt_exact(num)
    if s is None:
        return None
    # den = s^2 - sq + 1  =>  q = (s^2 - den + 1)/s
    qnum = s * s - den + 1
    if qnum % s != 0:
        return None
    q = qnum // s
    if not (1 <= q <= s) or gcd(s, q) != 1:
        return None
    return s, q
