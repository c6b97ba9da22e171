"""Hirzebruch-Jung continued fractions, Wahl chains, duals, and e/f sequences.

The chain [b1,...,bm] stands for b1 - 1/(b2 - 1/(... - 1/bm)).  Evaluation is
projective (numerator/denominator pairs), so chains that pass through an
intermediate infinity evaluate totally; that matters for the zero
continued fractions, which are exactly the chains evaluating to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .exact_core import DomainError

__all__ = [
    "INFINITY",
    "HJChain",
    "WahlData",
    "hj_expand",
    "hj_eval",
    "hj_eval_projective",
    "wahl_data",
    "dual_chain",
    "is_zero_continued_fraction",
    "recognize_dual_wahl",
]

HJChain = list[int]


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

    The empty chain is (1, 0), i.e. infinity.
    """
    num, den = 1, 0
    for b in reversed(entries):
        num, den = b * num - den, num
    g = gcd(num, den)
    if g:
        num, den = num // g, den // g
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
    if not entries:
        return False
    num, den = entries[-1], 1  # the suffix value num/den, den > 0
    for b in reversed(entries[:-1]):
        if num <= 0:
            return False
        num, den = b * num - den, num
    return num == 0


@dataclass(frozen=True)
class WahlData:
    """The chain of p^2/(pq-1) together with its e/f companion sequences.

    e and f satisfy the same three-term recursion x_{i+1} = b_i*x_i - x_{i-1}
    with seeds e_0=0, e_1=1 and f_0=p^2, f_1=pq-1; then e_{m+1}=p^2, f_{m+1}=0
    and e_i*f_{i-1} - e_{i-1}*f_i = p^2 throughout.
    """

    p: int
    q: int
    chain: tuple[int, ...]
    e: tuple[int, ...]
    f: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.chain)


def wahl_data(p: int, q: int) -> WahlData:
    if p < 1 or not (1 <= q <= p) or gcd(p, q) != 1:
        raise DomainError(f"need 1 <= q <= p coprime: got p={p}, q={q}")
    if p == 1:
        return WahlData(1, 1, (), (0, 1), (1, 0))
    chain = hj_expand(p * p, p * q - 1)
    e = [0, 1]
    f = [p * p, p * q - 1]
    for b in chain:
        e.append(b * e[-1] - e[-2])
        f.append(b * f[-1] - f[-2])
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
    num, den = hj_eval_projective(entries)
    s = isqrt_exact(num)
    if s is None:
        return None
    # den = s^2 - sq + 1  =>  q = (s^2 - den + 1)/s
    qnum = s * s - den + 1
    if s == 0 or qnum % s != 0:
        return None
    q = qnum // s
    if not (1 <= q <= s) or gcd(s, q) != 1:
        return None
    if hj_expand(num, den) != list(entries):
        return None
    return s, q


def isqrt_exact(n: int) -> int | None:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
