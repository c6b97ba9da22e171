"""Intersection matrices of Wahl chains and the adjunction-driven searches.

The chain curves C_1..C_m of the resolution of p^2/(pq-1) pair by the
tridiagonal matrix M with diagonal -b_i and off-diagonal 1.  Its inverse has
the closed form M^{-1}_{ij} = -e_i f_j / p^2 (i <= j): integer products over
the one shared denominator p^2.  Solving M x = chi therefore needs no table:
x_i = -(f_i sum_{j<=i} e_j chi_j + e_i sum_{j>i} f_j chi_j)/p^2 takes one
prefix and one suffix sum, O(m) in all.
inverse_closed_form still builds the whole table, each entry already in
lowest terms.  f obeys the recursion of e, and f_0 = p^2 = 0 = (pq - 1) e_0,
f_1 = pq - 1 = (pq - 1) e_1 (mod p^2), so f_i = (pq - 1) e_i (mod p^2) for
every i.  As pq - 1 is prime to p, gcd(f_i, p^2) = gcd(e_i, p^2) =: g_i,
which the table checks on every input, in O(m).  Column j's factors
f_j/g_j and p^2/g_j are coprime, so e_i f_j / p^2 reduces by
gcd(g_i, p^2/g_j), which is 1 wherever g_i = 1: the fill loop tests only
its row's g_i.  Each entry is one allocation: a bare Fraction whose
numerator and denominator slots are written in place with the coprime
pair, with no normalising constructor and no call.  The table is filled
with the cyclic garbage collector paused, and its state on entry restored:
the m(m+1)/2 entries are tracked objects that would trigger collections,
yet the table holds no cycle, so no collection could free any of it.
The discrepancies are k_i = -1 + (e_i + f_i)/p^2.  The square-zero class
solves the adjunction identity

    2p^2 = 3p c0 - c0^2 + T(chi) + sum_i chi_i (p^2 - e_i - f_i),
    c0^2 = T(chi) := sum_{i,j} chi_i chi_j e_min(i,j) f_max(i,j)

over 0/1 vectors chi exactly, which forces the Markov relation.  With chi
the unit vector at i, c0^2 = e_i f_i turns the identity into
p^2 + e_i + f_i = 3p c0; a culet, the index with (e_i, f_i) = (s2^2, s3^2)
and (p, s2, s3) a Markov triple, solves both with c0 = s2 s3.  So one scan
locates the culet: it tests 3p | p^2 + e_i + f_i at every index and
c0^2 = e_i f_i only where that holds, and takes the square roots of e_i and
f_i at its one hit; the cheaper test 3 | p^2 + e_i + f_i goes first.  The
culet's weight b_i is checked to be 4 at (2, 1), 7 where the triple holds a
1 and 10 otherwise, and its flanks to be the dual Wahl chains of
(s2, 3 s3 p^{-1} mod s2) and (s3, 3 p s2^{-1} mod s3), q read from the triple
with no tree search.  Each pair's culet is scanned and self-checked once while
it stays in a bounded cache.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import add

from . import _EXPORTS
from .exact_core import DomainError, Rational, _new_object, _Record, isqrt_exact
from .hirzebruch_jung import WahlData, recognize_dual_wahl, wahl_data
from .markov import (NoCommonTriple, _q_from_triple, _require_companion, is_markov_triple,
                     two_ball_degree)

# markov's NoCommonTriple and two_ball_degree are also exported here, on their
# old import paths
__all__ = [*_EXPORTS["intersection_theory"], "NoCommonTriple", "two_ball_degree"]

CULET_CACHE_SIZE = 256  # culet scans kept, keyed on (p, q)


class NoCulet(DomainError):
    """(p, q) is not a Markov number / companion pair with p >= 2."""


class MultipleCulets(AssertionError):
    """More than one culet index: contradicts theory, so an internal failure."""


def intersection_matrix(w: WahlData) -> list[list[int]]:
    m = w.m
    rows = [[0] * m for _ in range(m)]
    for i, b in enumerate(w.chain):
        rows[i][i] = -b
        if i + 1 < m:
            rows[i][i + 1] = 1
            rows[i + 1][i] = 1
    return rows


def inverse_closed_form(w: WahlData) -> list[list[Rational]]:
    """The table of -e_i f_j / p^2 (i <= j), each entry built once in lowest
    terms, in place, and shared with its mirror; every row is a list of its
    own.  Entry (i, j) is -e_i times column j's factors f_j/g_j over p^2/g_j,
    divided by a gcd only in a row whose g_i = gcd(e_i, p^2) is not 1.  The
    cyclic garbage collector is paused while the table is filled: the pause
    is process-wide, lasts only for the O(m^2) build, and the collector's
    state on entry is restored on every exit."""
    m = w.m
    p2 = w.p * w.p
    e, f = w.e[1:-1], w.f[1:-1]
    g = [gcd(x, p2) for x in e]
    if [gcd(x, p2) for x in f] != g:
        raise AssertionError(f"gcd(f_i, p^2) != gcd(e_i, p^2) for ({w.p},{w.q})")
    # column j's factors fr_j = f_j/g_j and dr_j = p^2/g_j are coprime (at each
    # prime, g_j takes all of f_j's power or all of p^2's), so -e_i f_j / p^2 =
    # -e_i fr_j / dr_j reduces by gcd(e_i, dr_j) = gcd(g_i, dr_j) =: h, as
    # dr_j | p^2; h = 1 where g_i = 1
    fr = [x // y for x, y in zip(f, g)]
    dr = [p2 // y for y in g]
    inv: list[list[Rational]] = [[0] * m for _ in range(m)]
    # the table is acyclic (entries refer only to ints, rows only to entries,
    # the outer list only to rows), so a collection could free nothing in it,
    # and reference counting frees it as before; each tracked entry would
    # otherwise count towards triggering one
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i, row in enumerate(inv):
            nei, gi = -e[i], g[i]
            for j in range(i, m):  # symmetric: build each entry once
                # _coprime_fraction inlined, with its contract: the two slots
                # of one bare Fraction, written with a coprime pair and d > 0
                r = _new_object(Fraction)
                if gi == 1:  # h = 1: the column's factors as they stand
                    r._numerator = nei * fr[j]
                    r._denominator = dr[j]
                else:
                    h = gcd(gi, dr[j])
                    r._numerator = nei * fr[j] // h
                    r._denominator = dr[j] // h
                row[j] = inv[j][i] = r
    finally:
        if was_enabled:
            gc.enable()
    return inv


def is_negative_definite(matrix: list[list[int]]) -> bool:
    """Whether a square, symmetric, tridiagonal matrix, such as
    intersection_matrix returns, is negative definite: its leading principal
    minors alternate in sign, (-1)^k * minor_k > 0, by the O(m) recurrence of
    a tridiagonal determinant.  Any other matrix is a DomainError."""
    m = len(matrix)
    if any(len(row) != m for row in matrix) or any(
            matrix[i][j] != (matrix[j][i] if abs(i - j) == 1 else 0)
            for i in range(m) for j in range(m) if i != j):
        raise DomainError("need a square, symmetric, tridiagonal matrix")
    prev2, prev1 = 1, 1  # D_{-1}, D_0
    for k in range(m):
        d = matrix[k][k] * prev1 - (matrix[k][k - 1] * matrix[k - 1][k] * prev2 if k else 0)
        if (-1) ** (k + 1) * d <= 0:
            return False
        prev2, prev1 = prev1, d
    return True


def discrepancies(w: WahlData) -> list[Rational]:
    """k_i = (e_i + f_i - p^2)/p^2, each range-checked in integers and built
    once in lowest terms, its two slots written in place as inverse_closed_form does."""
    p2 = w.p * w.p
    out = []
    for n in map(add, w.e[1:-1], w.f[1:-1]):
        if not 0 < n < p2:  # -1 < k_i < 0, in integers
            raise AssertionError(f"discrepancy {n - p2}/{p2} outside (-1,0) for ({w.p},{w.q})")
        k = gcd(n, p2)  # = gcd(n - p^2, p^2)
        r = _new_object(Fraction)
        r._numerator = (n - p2) // k
        r._denominator = p2 // k
        out.append(r)
    return out


class IntersectionLattice(_Record):
    """One or more disjoint Wahl chains plus the shared line class scale."""

    __slots__ = ("chains",)
    chains: tuple[WahlData, ...]

    @property
    def delta(self) -> int:
        return prod(w.p for w in self.chains)


class HomologyClass(_Record):
    """a0 * E + per-chain curve combinations, E = (1/Delta) * line class."""

    __slots__ = ("a0", "parts")
    a0: Rational
    parts: tuple[tuple[Rational, ...], ...]


def _chain_pairing(w: WahlData, a: tuple, b: tuple) -> Rational:
    # a^T M b for the tridiagonal M of the chain, in O(m)
    total = Fraction(0)
    m = w.m
    for i in range(m):
        row = -w.chain[i] * b[i]
        if i > 0:
            row += b[i - 1]
        if i + 1 < m:
            row += b[i + 1]
        total += a[i] * row
    return total


def class_pairing(lattice: IntersectionLattice, A: HomologyClass, B: HomologyClass) -> Rational:
    if len(A.parts) != len(lattice.chains) or len(B.parts) != len(lattice.chains):
        raise DomainError("class does not match lattice chain count")
    d = lattice.delta
    total = Fraction(A.a0) * Fraction(B.a0) / (d * d)
    for w, a, b in zip(lattice.chains, A.parts, B.parts):
        if len(a) != w.m or len(b) != w.m:
            raise DomainError("class part does not match chain length")
        total += _chain_pairing(w, a, b)
    return total


def class_square(lattice: IntersectionLattice, A: HomologyClass) -> Rational:
    return class_pairing(lattice, A, A)


def exceptional_class(lattice: IntersectionLattice) -> HomologyClass:
    return HomologyClass(Fraction(1), tuple((Fraction(0),) * w.m for w in lattice.chains))


def canonical_class(lattice: IntersectionLattice) -> HomologyClass:
    """K = -3*Delta*E + sum of discrepancy multiples of the chain curves."""
    return HomologyClass(
        Fraction(-3 * lattice.delta),
        tuple(tuple(discrepancies(w)) for w in lattice.chains),
    )


def coefficients_from_intersections(w: WahlData, chi) -> list[Rational]:
    """The x with M x = chi, by x_i = sum_j M^{-1}_{ij} chi_j in O(m): a prefix
    sum of e_j chi_j and a suffix sum of f_j chi_j, one division per entry."""
    if len(chi) != w.m:
        raise DomainError(f"chi has length {len(chi)}, chain has {w.m}")
    e, f = w.e[1:-1], w.f[1:-1]
    p2 = w.p * w.p
    suffix = [0] * (w.m + 1)
    for j in range(w.m - 1, -1, -1):
        suffix[j] = suffix[j + 1] + f[j] * chi[j]
    out = []
    prefix = 0
    for i in range(w.m):
        prefix += e[i] * chi[i]
        total = f[i] * prefix + e[i] * suffix[i + 1]
        out.append(Fraction(-total, p2))
    return out


class CuletReport(_Record):
    __slots__ = ("p", "q", "culet_index", "p2", "p3", "manetti_weight", "left_flank",
                 "right_flank", "left_q", "right_q")
    p: int
    q: int
    culet_index: int  # 1-based position in the chain
    p2: int  # sqrt(e_i)
    p3: int  # sqrt(f_i)
    manetti_weight: int
    left_flank: tuple[int, ...]
    right_flank: tuple[int, ...]
    left_q: int  # 3*p3*p^{-1} mod p2, read from the triple; the left flank is its dual Wahl chain
    right_q: int  # 3*p*p2^{-1} mod p3, likewise for the right flank

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.p, self.p2, self.p3)

    def to_json(self) -> dict:
        return {
            "culet_index": self.culet_index,
            "triple": list(self.triple),
            "weight": self.manetti_weight,
            "flanks": [list(self.left_flank), list(self.right_flank)],
        }


def _match_flank(flank: tuple[int, ...], s: int, q: int) -> int:
    """Return q once the flank is the dual Wahl chain of (s, q), the chain of
    s^2/(s^2-sq+1); q comes from the culet triple's arithmetic, not the chain."""
    if recognize_dual_wahl(list(flank)) != (s, q):
        raise AssertionError(f"flank {flank} is not a dual Wahl chain of {s}")
    return q


def culet_report(p: int, q: int) -> CuletReport:
    if p < 2:
        raise NoCulet(f"culet scan needs p >= 2: got p={p}")
    try:
        _require_companion(p, q)
    except DomainError as exc:
        raise NoCulet(str(exc)) from exc
    return _culet(p, q)


# typed: a q such as 7.0 passes the companion test but must not find the report of
# (29, 7); wahl_data's gcd raises TypeError, a wrong type, out of tests/test_contract.py's scope
@lru_cache(maxsize=CULET_CACHE_SIZE, typed=True)
def _culet(p: int, q: int) -> CuletReport:
    """culet_report for a Markov number p >= 2 and a companion q.  Each pair
    is scanned and self-checked once while it stays cached; CuletReport is
    frozen, so callers share it."""
    w = wahl_data(p, q)
    hits, pp, p3 = [], p * p, 3 * p
    for i, e, f in zip(range(1, w.m + 1), w.e[1:], w.f[1:]):
        if (n := pp + e + f) % 3 == 0:  # needed for 3p | n, and cheaper
            c0, r = divmod(n, p3)
            if not r and c0 * c0 == e * f:  # i alone solves square-zero + adjunction
                hits.append(i)
    if len(hits) > 1:
        raise MultipleCulets(f"multiple culet indices for ({p},{q}): {hits}")
    s2 = s3 = None
    if hits:
        i = hits[0]
        s2, s3 = isqrt_exact(w.e[i]), isqrt_exact(w.f[i])
    if s2 is None or s3 is None or not is_markov_triple(p, s2, s3):
        raise AssertionError(f"no culet index found for ({p},{q})")
    # (p^2 + e_i + f_i)^2 = 9 p^2 e_i f_i needs no check: it is the square of
    # the Markov equation p^2 + s2^2 + s3^2 = 3p s2 s3 just accepted
    weight = w.chain[i - 1]
    left = w.chain[: i - 1]
    right = w.chain[i:]
    expected = 4 if (p, q) == (2, 1) else 7 if 1 in (s2, s3) else 10
    if weight != expected:
        raise AssertionError(f"culet weight {weight} is not {expected} for ({p},{q})")
    return CuletReport(
        p, q, i, s2, s3, weight, left, right,
        _match_flank(left, s2, _q_from_triple(s2, s3, p)),
        _match_flank(right, s3, _q_from_triple(s3, p, s2)),
    )


def square_zero_class_search(p: int, q: int) -> tuple[int, tuple[int, ...]]:
    """The unique (c0, chi) solving square-zero + adjunction, chi in {0,1}^m.

    Only supports of size 1 can solve it, and the culet scan solves those m
    alone.  With T(chi) + sum_i chi_i (p^2 - e_i - f_i) moved to the right,
    a solution needs that sum to equal 2p^2 - c0(3p - c0), which is at most
    the budget 2p^2 - 3p + 1 over c0 in [1, p].  Every cross term e_i f_j is
    nonnegative, and index i alone contributes e_i f_i + p^2 - e_i - f_i =
    (e_i - 1)(f_i - 1) + p^2 - 1 >= p^2 - 1, since e_i, f_i >= 1.  Both hold
    for every chain.  Its entries are >= 2, so e_{k+1} - e_k >= e_k - e_{k-1}
    >= ... >= e_1 - e_0 = 1.  The Wronskian at m + 1, with the endpoints
    e_{m+1} = p^2 and f_{m+1} = 0 that wahl_data checks, gives p^2 f_m = p^2,
    so f_m = 1 and f_{k-1} - f_k >= ... >= f_m - f_{m+1} = 1.  A support of
    size >= 2 (or an entry chi_i >= 2, which counts index i at least twice)
    therefore costs at least 2p^2 - 2, which exceeds the budget exactly when
    3p > 3, that is for every p >= 2.  Index i alone solves it exactly when
    3p | p^2 + e_i + f_i and c0^2 = e_i f_i (module docstring), the test of
    the culet scan; its one hit is the culet, with c0 = s2 s3, and chi is the
    unit vector there, of length m = culet_index + len(right_flank).
    The tests check this against a literal enumeration of {0, 1}^m and of
    {0, 1, 2}^m on short chains.
    """
    if p < 2:
        raise DomainError(f"search needs p >= 2: got p={p}")
    _require_companion(p, q)
    # no support of two or more indices solves it, by the argument above: its
    # e_i, f_i >= 1 hold by construction, so the culet scan's hit is the answer
    culet = _culet(p, q)  # culet_report past its two guards, just run
    i = culet.culet_index
    return culet.p2 * culet.p3, (0,) * (i - 1) + (1,) + (0,) * len(culet.right_flank)
