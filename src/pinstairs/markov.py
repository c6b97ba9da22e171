"""Markov triples, mutations, tree enumeration, companions, branch sequences.

A Markov triple is an ordered triple of positive integers with
a^2 + b^2 + c^2 = 3abc.  Mutation replaces one entry k by 3*(product of the
other two) - k.  Every Markov number p comes with a pair of companion numbers
{q, p-q} read off from any triple containing p, and with a bi-infinite branch
sequence (m_i) obtained by repeatedly mutating the co-entries while fixing p.
The quadratic irrational sigma_p = (3 + sqrt(9 - 4/p^2))/2 bounds the visible
staircase range and is handled exactly through its minimal polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt
from typing import Iterator, Optional

from . import _EXPORTS
from .exact_core import DomainError, Rational, _Record, isqrt_exact

__all__ = _EXPORTS["markov"]

MarkovTriple = tuple[int, int, int]

MAX_TREE_DEPTH = 30
FAMILY_CACHE_SIZE = 64  # staircase families kept, each with the branch terms it has grown
SEARCH_CACHE_SIZE = 256  # (number, depth limit) searches whose result is kept


class NotFound(DomainError):
    """A search cut short by a caller-given depth missed the number: no proof it
    is not a Markov number.  The exhaustive default search raises NotMarkov."""


class NotMarkov(NotFound):
    """The exhaustive pruned search proved the number is not a Markov number."""


class CompanionMismatch(DomainError):
    """A supplied q is not in the companion pair of its p."""


class NoCommonTriple(DomainError):
    """The quadratic for the third entry has no integer root."""


def is_markov_triple(a: int, b: int, c: int) -> bool:
    return a >= 1 and b >= 1 and c >= 1 and a * a + b * b + c * c == 3 * a * b * c


def validate_triple(t: MarkovTriple) -> MarkovTriple:
    """Check the Markov equation in integers.

    The classical side conditions follow from it and are not tested again.
    The entries are pairwise coprime: a mutation keeps the gcd of each pair,
    as gcd(a, 3ab - c) = gcd(a, c), and every positive solution descends by
    mutations to (1, 1, 1).  No entry is divisible by 3: a square is 0 or 1
    mod 3, so a^2 + b^2 + c^2 = 0 mod 3 needs all three entries or none
    divisible by 3, and all three would make the pairs share the factor 3.
    """
    if len(t) != 3 or not all(isinstance(x, int) for x in t) or not is_markov_triple(*t):
        raise DomainError(f"{tuple(t)} is not a Markov triple")
    return t


def mutate(t: MarkovTriple, index: int) -> MarkovTriple:
    """Replace entry `index` (1-based) by 3*(product of the others) - entry."""
    if len(t) != 3:
        raise DomainError(f"a triple has 3 entries: {t}")
    if index not in (1, 2, 3):
        raise DomainError(f"mutation index must be 1, 2 or 3: {index}")
    out = list(t)
    others = [x for k, x in enumerate(t, start=1) if k != index]
    out[index - 1] = 3 * others[0] * others[1] - t[index - 1]
    return tuple(out)


def _descend(triple: MarkovTriple) -> tuple[int, MarkovTriple]:
    """(k, parent): the parent mutates the largest number, at position k."""
    k = triple.index(max(triple))
    parent = mutate(triple, k + 1)
    if not 0 < parent[k] < triple[k]:
        raise AssertionError(f"no descent from {triple}")
    return k, parent


def two_ball_degree(p1: int, p2: int) -> int:
    """Smaller root of x^2 - 3*p1*p2*x + p1^2 + p2^2; the two roots are the
    two Markov completions of the pair."""
    disc = 9 * p1 * p1 * p2 * p2 - 4 * (p1 * p1 + p2 * p2)
    r = isqrt_exact(disc)
    if r is None or (3 * p1 * p2 - r) % 2 != 0:
        raise NoCommonTriple(f"{p1} and {p2} do not appear in a common triple")
    lo = (3 * p1 * p2 - r) // 2
    hi = (3 * p1 * p2 + r) // 2
    for c in (lo, hi):
        if c < 1 or not is_markov_triple(p1, p2, c):
            raise NoCommonTriple(f"completion {c} of ({p1},{p2}) is not Markov")
    if 1 < p1 < p2 and not 3 * lo < p2:
        raise AssertionError(f"degree bound c0 < p2/3 fails for ({p1},{p2})")
    return lo


class TreeEntry(_Record):
    __slots__ = ("triple", "parent", "mutated")
    triple: MarkovTriple  # canonical sorted representative
    parent: Optional[int]  # index into the enumeration list
    mutated: Optional[int]  # which position of the parent was mutated


def _tree_levels(expand=None) -> Iterator[list[tuple[MarkovTriple, MarkovTriple, int]]]:
    """Levels of the mutation tree below (1,1,1) as (child, parent, position), each
    triple once as its sorted representative (deduplicated as a multiset); only
    children passing `expand` (all when None) are mutated further."""
    root = (1, 1, 1)
    seen = {root}
    frontier = [root]
    while frontier:
        level = []
        for t in frontier:
            for k in (1, 2, 3):
                child = tuple(sorted(mutate(t, k)))
                if child not in seen:
                    seen.add(child)
                    level.append((child, t, k))
        yield level
        frontier = [c for c, _, _ in level if expand is None or expand(c)]


def enumerate_tree(depth: int, max_depth: int = MAX_TREE_DEPTH) -> list[TreeEntry]:
    """Breadth-first mutation tree from (1,1,1) down to the given depth."""
    if depth < 0 or depth > max_depth:
        raise DomainError(f"depth {depth} outside [0, {max_depth}]")
    entries = [TreeEntry((1, 1, 1), None, None)]
    index = {(1, 1, 1): 0}
    for level in islice(_tree_levels(), depth):
        for child, parent, k in level:
            index[child] = len(entries)
            entries.append(TreeEntry(child, index[parent], k))
    return entries


def tree_to_json(entries: list[TreeEntry]) -> list[dict]:
    return [
        {"triple": list(e.triple), "parent": e.parent, "mutated": e.mutated}
        for e in entries
    ]


class CompanionPair(_Record):
    __slots__ = ("p", "q_plus", "q_minus")
    p: int
    q_plus: int
    q_minus: int

    @property
    def pair(self) -> frozenset:
        return frozenset((self.q_plus, self.q_minus))

    def __contains__(self, q: int) -> bool:
        return q == self.q_plus or q == self.q_minus


def _q_from_triple(p: int, u: int, v: int) -> int:
    """3*u*v^{-1} mod p, normalized to [1, p]."""
    return (3 * u * pow(v, -1, p)) % p or p


def _co_entries(p: int, t: MarkovTriple) -> tuple[int, int]:
    """The two entries of a triple containing p besides p, smaller first."""
    co = list(t)
    co.remove(p)
    return min(co), max(co)


@lru_cache(maxsize=SEARCH_CACHE_SIZE)
def _search(p: int, max_depth: Optional[int]) -> Optional[tuple[CompanionPair, tuple[int, int]]]:
    """The companion pair (q, p - q) of p and the co-entries (x, y) of the first
    triple containing p met by BFS over triples with max entry < p, ordered so
    q = 3*x*y^{-1} mod p; then p - q = 3*y*x^{-1} mod p, as x^2 + y^2 = 0 mod p.
    None when the exhaustive search proves there is no such triple.  A max_depth
    that stops the search before it finds p or runs dry raises NotFound.

    The parent chain of any triple containing p only passes through triples
    whose maximum is smaller than p, so the pruned search is exhaustive; with
    max_depth=None it terminates because there are finitely many such triples.
    """
    if max_depth is not None and max_depth < 0:
        raise DomainError(f"search depth must be >= 0: {max_depth}")
    if p == 1:
        return CompanionPair(1, 1, 1), (1, 1)
    for depth, level in enumerate(_tree_levels(lambda t: t[2] < p)):
        if max_depth is not None and depth >= max_depth:
            raise NotFound(
                f"{p} not encountered within {max_depth} tree levels (the depth limit "
                f"cut the search short; this does not prove {p} is not a Markov number)"
            )
        t = next((child for child, _, _ in level if p in child), None)
        if t is not None:
            break
    else:
        return None
    x, y = _co_entries(p, t)
    q = _q_from_triple(p, x, y)
    # mutation invariance: recompute from a second triple containing p
    k = next(i for i, v in enumerate(t) if v != p)
    q2 = _q_from_triple(p, *_co_entries(p, mutate(t, k + 1)))
    if {q2, p - q2} != {q, p - q}:
        raise AssertionError(f"companion pair not mutation-invariant for p={p}")
    return CompanionPair(p, q, p - q), (x, y)


def is_markov_number(p: int) -> bool:
    """Exact membership test by exhaustive pruned search (no depth cutoff)."""
    return p >= 1 and _search(p, None) is not None


def companions(p: int, search_depth: Optional[int] = None) -> CompanionPair:
    """The companion pair {q, p-q} of a Markov number, from any containing triple."""
    found = _search(p, search_depth)
    if found is None:
        raise NotMarkov(f"{p} is not a Markov number (proved by exhaustive tree search)")
    return found[0]


def is_companion(p: int, q: int, search_depth: Optional[int] = None) -> bool:
    return q in companions(p, search_depth)


def canonical_triple(p: int, q: int, search_depth: Optional[int] = None) -> MarkovTriple:
    """The triple (p, a, b) with co-entries <= p, ordered so q = 3*a*b^{-1} mod p.

    For p > 2 the search's triple is the valley of the mutations fixing p:
    it first meets p as the mutated entry of a triple whose other two entries,
    kept from the parent, are below p, and replacing a co-entry x < p by
    3*p*y - x = (p^2 + y^2)/x > p only goes up.
    """
    pair = companions(p, search_depth)
    if q not in pair:
        shown = ", ".join(map(str, sorted(pair.pair)))
        raise CompanionMismatch(f"{q} is not a companion of {p} (pair {{{shown}}})")
    x, y = _search(p, search_depth)[1]
    return (p, x, y) if q == pair.q_plus else (p, y, x)


def _require_companion(p: int, q: int) -> None:
    """Raise CompanionMismatch unless q is in the companion pair of p."""
    canonical_triple(p, q)


def _corner(pi: int, pj: int, pk: int) -> Fraction:
    """The box corner p_j/(p_i*p_k) of a Markov triple: a staircase box side,
    an obstruction corner, a visible bound, a packing bound or a Vianna edge."""
    return Fraction(pj, pi * pk)


def _girdle(p1: int, p2: int, p3: int) -> tuple[int, Fraction, Fraction]:
    """The girdle of the Markov triple (p1, p2, p3) seen from p1: the mutated
    entry p3' = 3*p1*p3 - p2, the girdle length p1*p3/(p2*p3') and the
    displacement p3/p1."""
    p3p = 3 * p1 * p3 - p2
    return p3p, Fraction(p1 * p3, p2 * p3p), Fraction(p3, p1)


class _Branch:
    """Lazy bi-infinite branch sequence m_i with m_{i+1} = 3p*m_i - m_{i-1}.

    Base placement: for p >= 3, m_0 = a and m_{-1} = b from the canonical
    triple (p, a, b), so q = 3*m_{i+1}*m_i^{-1} mod p holds for every
    consecutive pair.  For p in {1, 2} the companion condition is vacuous and
    the valley pair (1, 1) is centered at (m_0, m_1), which places the
    diagonal staircase box at index 0.
    """

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.pp = p * p
        _, a, b = canonical_triple(p, q)
        if p <= 2:
            self.values = {0: 1, 1: 1}
        else:
            self.values = {0: a, -1: b}
        self._lo = min(self.values)
        self._hi = max(self.values)
        self[1]  # box 0 is always held: embeds reads it directly
        # the verdicts decided at each index, built by staircase_oracle on first
        # use: Embeds with box i, and DoesNotEmbed at the inner corner i
        self.box_verdicts: dict = {}
        self.corner_verdicts: dict = {}

    def __getitem__(self, i: int) -> int:
        # store each term before moving the bound: a re-entered extension is harmless
        v = self.values
        while self._hi < i:
            k = self._hi + 1
            v[k] = 3 * self.p * v[k - 1] - v[k - 2]
            self._hi = k
        while self._lo > i:
            k = self._lo - 1
            v[k] = 3 * self.p * v[k + 1] - v[k + 2]
            self._lo = k
        return v[i]

    def first_wider(self, pn: int, d: int) -> Optional[int]:
        """The least i with pn*m_i < d*m_{i+1}, that is alpha < alpha_sup(i) for
        alpha = pn/(p*d), or None when there is none: alpha is at or below the
        limit 1/(p^2 sigma_p) of alpha_sup at -infinity, so every box is wider,
        or above its limit sigma_p at +infinity, so none is.  The first lies
        below 3/2 and the second above.  Bisects the held boxes on `values`,
        and grows the branch only when alpha lies beyond all of them, up to
        m_{i+1} or down to m_{i-1}, after testing alpha against the limit on
        that side so the walk ends; on return m_{i-1}, m_i and m_{i+1} are held.
        An alpha inside the held boxes meets no sigma_p test."""
        v, lo, hi = self.values, self._lo, self._hi
        while lo < hi:  # the least held box wider than alpha, or _hi for none
            mid = (lo + hi) // 2
            if pn * v[mid] < d * v[mid + 1]:
                hi = mid
            else:
                lo = mid + 1
        i = lo
        if i == self._hi:
            if _above_sigma(self.pp, pn, self.p * d):
                return None
            while pn * v[i] >= d * self[i + 1]:
                i += 1
        elif i == self._lo:
            # alpha_sup decreases to its limit as i -> -infinity: alpha is at or
            # below it when 1/(p^2 alpha) = d/(p*pn) is at or above sigma_p
            if _above_sigma(self.pp, d, self.p * pn):
                return None
            while pn * self[i - 1] < d * v[i]:
                i -= 1
        return i

    def window(self, lo: int, hi: int) -> list[int]:
        """The terms m_lo..m_hi: the held ones read, the others walked from the
        nearest held pair by a local recurrence, so no new term is stored."""
        v, s = self.values, 3 * self.p
        out = [v[k] for k in range(max(lo, self._lo), min(hi, self._hi) + 1)]
        a, b = v[self._hi - 1], v[self._hi]
        for k in range(self._hi + 1, hi + 1):
            a, b = b, s * b - a
            if k >= lo:
                out.append(b)
        below = []
        a, b = v[self._lo + 1], v[self._lo]
        for k in range(self._lo - 1, lo - 1, -1):
            a, b = b, s * b - a
            if k <= hi:
                below.append(b)
        return below[::-1] + out


# the shared branch of each (p, q) staircase family; a failed build is not cached
_family = lru_cache(maxsize=FAMILY_CACHE_SIZE)(_Branch)


class BranchSequence(_Record):
    __slots__ = ("p", "q", "lo", "values")
    p: int
    q: int
    lo: int
    values: tuple[int, ...]

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def value(self, i: int) -> int:
        if not self.lo <= i <= self.hi:
            raise IndexError(f"index {i} outside window [{self.lo}, {self.hi}]")
        return self.values[i - self.lo]

    def items(self) -> Iterator[tuple[int, int]]:
        return ((self.lo + k, v) for k, v in enumerate(self.values))


def branch_sequence(p: int, q: int, lo: int, hi: int) -> BranchSequence:
    if lo > hi:
        raise DomainError(f"empty window: lo={lo} > hi={hi}")
    values = tuple(_family(p, q).window(lo, hi))
    for m0, m1 in zip(values, values[1:]):
        if not is_markov_triple(p, m0, m1):
            raise AssertionError(f"branch pair ({m0},{m1}) not Markov with {p}")
    return BranchSequence(p, q, lo, values)


class Sigma(_Record):
    """The larger root of x^2 - 3x + 1/p^2, handled symbolically."""

    __slots__ = ("p", "polynomial")
    p: int
    polynomial: tuple[Rational, Rational, Rational]

    def __init__(self, p: int):
        if p < 1:
            raise DomainError(f"p must be positive: {p}")
        super().__init__(p, (Fraction(1), Fraction(-3), Fraction(1, p * p)))

    def compare(self, r: Rational) -> str:
        """Exact comparison of a rational with sigma_p: 'less' or 'greater'.

        'equal' is impossible: 9p^2 - 4 is never a perfect square (tested per
        p, not assumed), so sigma_p is irrational.
        """
        r = Fraction(r)
        return "greater" if _above_sigma(self.p * self.p, r.numerator, r.denominator) else "less"

    def decimal(self, digits: int, rounded: bool = False) -> str:
        """Decimal expansion to `digits` places, truncated (or rounded); the
        whole part alone, with no point, for 0 places."""
        if digits < 0:
            raise DomainError(f"digit count must be >= 0: {digits}")
        guard = 12
        k = digits + guard
        p = self.p
        n = isqrt((9 * p * p - 4) * 10 ** (2 * k))
        t = (3 * p * 10**k + n) // (2 * p)  # floor(sigma * 10^k), up to 1 ulp
        if rounded:
            t += 5 * 10 ** (guard - 1)
        t //= 10**guard
        whole, frac = divmod(t, 10**digits)
        return f"{whole}.{frac:0{digits}d}" if digits else str(whole)

    def __float__(self) -> float:
        from math import sqrt

        # 4 / p^2 divides ints: correctly rounded, it cannot overflow
        return (3 + sqrt(9 - 4 / (self.p * self.p))) / 2


def _above_sigma(pp: int, n: int, d: int) -> bool:
    """Whether n/d > sigma_p, for pp = p^2 and d > 0.  The sign of
    p^2*d^2*(r^2 - 3r + 1/p^2) for r = n/d is negative strictly between the
    two roots and positive outside them; it is never 0, as sigma_p is
    irrational, and r lies above the larger root only when it is above 3/2."""
    return 2 * n > 3 * d and pp * n * (n - 3 * d) + d * d > 0


def sigma_p(p: int) -> Sigma:
    return Sigma(p)


def compare_to_sigma(p: int, r: Rational) -> str:
    return sigma_p(p).compare(r)
