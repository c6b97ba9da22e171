"""Intersection matrices of Wahl chains and the adjunction-driven searches.

The chain curves C_1..C_m of the resolution of p^2/(pq-1) pair by the
tridiagonal matrix M with diagonal -b_i and off-diagonal 1.  Its inverse has
the closed form M^{-1}_{ij} = -e_i f_j / p^2 (i <= j), the discrepancies are
k_i = -1 + (e_i + f_i)/p^2, and scanning e_i, f_i for simultaneous perfect
squares locates the culet index, whose weight b_i is 4, 7 or 10.  The
square-zero class search solves the adjunction identity

    2p^2 = 3p c0 - c0^2 + T(chi) + sum_i chi_i (p^2 - e_i - f_i),
    c0^2 = T(chi) := sum_{i,j} chi_i chi_j e_min(i,j) f_max(i,j)

over 0/1 vectors chi exactly, which forces the Markov relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .exact_core import DomainError, Rational
from .hirzebruch_jung import WahlData, hj_expand, isqrt_exact, wahl_data
from .markov import companions, is_markov_triple

__all__ = [
    "IntersectionLattice",
    "HomologyClass",
    "CuletReport",
    "NoCulet",
    "MultipleCulets",
    "NoCommonTriple",
    "intersection_matrix",
    "inverse_closed_form",
    "is_negative_definite",
    "discrepancies",
    "class_pairing",
    "class_square",
    "canonical_class",
    "exceptional_class",
    "coefficients_from_intersections",
    "culet_report",
    "square_zero_class_search",
    "enumerate_adjunction_solutions",
    "two_ball_degree",
]


class NoCulet(DomainError):
    """(p, q) is not a Markov number / companion pair with p >= 2."""


class MultipleCulets(AssertionError):
    """More than one culet index: contradicts theory, so an internal failure."""


class NoCommonTriple(DomainError):
    """The quadratic for the third entry has no integer root."""


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
    m = w.m
    p2 = w.p * w.p
    inv: list[list[Rational]] = [[0] * m for _ in range(m)]
    for i in range(m):
        e = w.e[i + 1]
        for j in range(i, m):  # symmetric: build each entry once
            inv[i][j] = inv[j][i] = Fraction(-(e * w.f[j + 1]), p2)
    return inv


def is_negative_definite(matrix: list[list[int]]) -> bool:
    """Leading principal minors alternate in sign: (-1)^k * minor_k > 0."""
    m = len(matrix)
    prev2, prev1 = 1, 1  # D_{-1}, D_0
    for k in range(m):
        d = matrix[k][k] * prev1 - (matrix[k][k - 1] * matrix[k - 1][k] * prev2 if k else 0)
        if (-1) ** (k + 1) * d <= 0:
            return False
        prev2, prev1 = prev1, d
    return True


def discrepancies(w: WahlData) -> list[Rational]:
    p2 = w.p * w.p
    out = [Fraction(-p2 + w.e[i] + w.f[i], p2) for i in range(1, w.m + 1)]
    for k in out:
        if not (-1 < k < 0):
            raise AssertionError(f"discrepancy {k} outside (-1,0) for ({w.p},{w.q})")
    return out


@dataclass(frozen=True)
class IntersectionLattice:
    """One or more disjoint Wahl chains plus the shared line class scale."""

    chains: tuple[WahlData, ...]

    @property
    def delta(self) -> int:
        return prod(w.p for w in self.chains)

    def matrices(self) -> list[list[list[int]]]:
        return [intersection_matrix(w) for w in self.chains]


@dataclass(frozen=True)
class HomologyClass:
    """a0 * E + per-chain curve combinations, E = (1/Delta) * line class."""

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
    return HomologyClass(Fraction(1), tuple(() if w.m == 0 else (Fraction(0),) * w.m
                                            for w in lattice.chains))


def canonical_class(lattice: IntersectionLattice) -> HomologyClass:
    """K = -3*Delta*E + sum of discrepancy multiples of the chain curves."""
    return HomologyClass(
        Fraction(-3 * lattice.delta),
        tuple(tuple(discrepancies(w)) if w.m else () for w in lattice.chains),
    )


def coefficients_from_intersections(w: WahlData, chi) -> list[Rational]:
    if len(chi) != w.m:
        raise DomainError(f"chi has length {len(chi)}, chain has {w.m}")
    inv = inverse_closed_form(w)
    return [sum((row[j] * chi[j] for j in range(w.m)), Fraction(0)) for row in inv]


@dataclass(frozen=True)
class CuletReport:
    p: int
    q: int
    culet_index: int  # 1-based position in the chain
    p2: int  # sqrt(e_i)
    p3: int  # sqrt(f_i)
    manetti_weight: int
    left_flank: tuple[int, ...]
    right_flank: tuple[int, ...]
    left_q: int  # Wahl parameter whose dual chain is the left flank
    right_q: int

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


def _dual_wahl_of(s: int, q: int) -> list[int]:
    """The reversal-dual of the Wahl chain of (s, q): chain of s^2/(s^2-sq+1)."""
    if s == 1:
        return []
    return hj_expand(s * s, s * s - s * q + 1)


def _match_flank(flank: tuple[int, ...], s: int) -> int:
    """Return a companion q of s whose dual Wahl chain equals the flank."""
    if s == 1:
        if flank:
            raise AssertionError(f"flank for a 1-entry should be empty: {flank}")
        return 1
    for q in sorted(companions(s).pair):
        if _dual_wahl_of(s, q) == list(flank):
            return q
    raise AssertionError(f"flank {flank} is not a dual Wahl chain of {s}")


def culet_report(p: int, q: int) -> CuletReport:
    if p < 2:
        raise NoCulet(f"culet scan needs p >= 2: got p={p}")
    try:
        if q not in companions(p):
            raise NoCulet(f"{q} is not a companion of {p}")
    except DomainError as exc:
        raise NoCulet(str(exc)) from exc
    w = wahl_data(p, q)
    hits = []
    for i in range(1, w.m + 1):
        s2 = isqrt_exact(w.e[i])
        s3 = isqrt_exact(w.f[i])
        if s2 is not None and s3 is not None and is_markov_triple(p, s2, s3):
            hits.append((i, s2, s3))
    if not hits:
        raise AssertionError(f"no culet index found for ({p},{q})")
    if len(hits) > 1:
        raise MultipleCulets(f"multiple culet indices for ({p},{q}): {hits}")
    i, p2, p3 = hits[0]
    weight = w.chain[i - 1]
    left = w.chain[: i - 1]
    right = w.chain[i:]
    if weight not in (4, 7, 10):
        raise AssertionError(f"weight {weight} outside {{4,7,10}} for ({p},{q})")
    if (weight == 4) != ((p, q) == (2, 1)):
        raise AssertionError(f"weight-4 trichotomy violated for ({p},{q})")
    if (weight == 7) != ((1 in (p2, p3)) and weight != 4):
        raise AssertionError(f"weight-7 trichotomy violated for ({p},{q})")
    # Markov forcing ratio at the culet
    w0, w1, w2 = p * p, w.e[i], w.f[i]
    if (w0 + w1 + w2) ** 2 != 9 * w0 * w1 * w2:
        raise AssertionError(f"forcing ratio not 9 at culet of ({p},{q})")
    return CuletReport(
        p, q, i, p2, p3, weight, left, right,
        _match_flank(left, p2), _match_flank(right, p3),
    )


def _adjunction_terms(w: WahlData):
    p2 = w.p * w.p
    e = w.e[1:-1]
    f = w.f[1:-1]
    lin = [p2 - e[i] - f[i] for i in range(w.m)]  # k-term scaled by p^2
    return e, f, lin


def enumerate_adjunction_solutions(w: WahlData, chi_max: int = 1) -> list[tuple[int, tuple[int, ...]]]:
    """Literal exhaustive search over chi in {0..chi_max}^m (small m only).

    Returns all (c0, chi) with c0 in 1..p satisfying both the square-zero
    condition and the adjunction identity.  Used as the brute oracle against
    the pruned search; cost is (chi_max+1)^m.
    """
    from itertools import product

    e, f, lin = _adjunction_terms(w)
    p = w.p
    out = []
    for chi in product(range(chi_max + 1), repeat=w.m):
        t = 0
        for i in range(w.m):
            if chi[i]:
                for j in range(w.m):
                    if chi[j]:
                        t += chi[i] * chi[j] * e[min(i, j)] * f[max(i, j)]
        c0 = isqrt(t)
        if c0 * c0 != t or not (1 <= c0 <= p):
            continue
        lhs = 2 * p * p
        rhs = 3 * p * c0 - c0 * c0 + t + sum(chi[i] * lin[i] for i in range(w.m))
        if lhs == rhs:
            out.append((c0, chi))
    return out


def square_zero_class_search(p: int, q: int) -> tuple[int, tuple[int, ...]]:
    """The unique (c0, chi) solving square-zero + adjunction, chi in {0,1}^m.

    The search is exhaustive but avoids walking all 2^m subsets: every
    support index i contributes at least (e_i-1)(f_i-1) + p^2 - 1 >= p^2 - 1
    to the right-hand side while 3p*c0 - c0^2 <= 2p^2, and all cross terms
    e_i*f_j are nonnegative, so supports of size >= 2 are ruled out by an
    exact integer comparison computed from the two smallest single-index
    contributions (nothing is taken on faith; the bound is re-checked per
    input and the literal enumeration is used as fallback if it fails).
    """
    if p < 2:
        raise DomainError(f"search needs p >= 2: got p={p}")
    if q not in companions(p):
        raise DomainError(f"{q} is not a companion of {p}")
    w = wahl_data(p, q)
    e, f, lin = _adjunction_terms(w)
    budget = 2 * p * p - (3 * p - 1)  # max of 2p^2 - c0(3p - c0) over c0 in [1, p]
    singles = sorted(e[i] * f[i] + lin[i] for i in range(w.m))
    solutions = []
    # supports of size exactly 1, chi_i = 1
    for i in range(w.m):
        t = e[i] * f[i]
        c0 = isqrt(t)
        if c0 * c0 != t or not (1 <= c0 <= p):
            continue
        if 2 * p * p == 3 * p * c0 - c0 * c0 + t + lin[i]:
            chi = tuple(int(j == i) for j in range(w.m))
            solutions.append((c0, chi))
    # supports of size >= 2 (or a doubled entry): certified impossible, or fall
    # back to the literal search if the certificate ever failed to apply
    pair_floor = singles[0] + singles[1] if w.m >= 2 else None
    if pair_floor is not None and pair_floor <= budget:
        solutions = enumerate_adjunction_solutions(w, chi_max=1)
    if not solutions:
        raise AssertionError(f"no square-zero class found for ({p},{q})")
    if len(solutions) > 1:
        raise AssertionError(f"multiple square-zero classes for ({p},{q}): {solutions}")
    c0, chi = solutions[0]
    # cross-checks: support at the culet, and the Markov-forcing linear form
    culet = culet_report(p, q)
    support = tuple(i + 1 for i, x in enumerate(chi) if x)
    if support != (culet.culet_index,):
        raise AssertionError(
            f"chi support {support} is not the culet index {culet.culet_index}"
        )
    i = culet.culet_index
    if p * p + w.e[i] + w.f[i] != 3 * p * c0:
        raise AssertionError(f"p^2 + e + f != 3*p*c0 at culet of ({p},{q})")
    return c0, chi


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
