"""Reference arithmetic for checking pinstairs outputs, written apart from it.

Nothing here imports pinstairs.  It derives Markov triples, companions,
Hirzebruch-Jung chains and branch sequences from the Markov equation and
the recurrence m_{i+1} = 3p*m_i - m_{i-1}, and decides staircase
membership as a literal union of the open boxes
(0, m_{i+1}/(p*m_i)) x (0, m_i/(p*m_{i+1})), as in McDuff-Schlenk
(Ann. Math. 2012).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

# README constants of the (29, 7) family.
README_29_7 = {
    "chain": (5, 2, 2, 2, 2, 2, 10, 2, 2, 2),
    "culet_index": 7,
    "culet_triple": (29, 5, 2),
    "weight": 10,
    "attach_positions": (2, 9),
}


def is_markov(a: int, b: int, c: int) -> bool:
    return min(a, b, c) >= 1 and a * a + b * b + c * c == 3 * a * b * c


def tree(depth: int) -> list[set[tuple[int, int, int]]]:
    """Sorted Markov triples level by level, from (1,1,1) down to `depth`."""
    levels = [{(1, 1, 1)}, {(1, 1, 2)}, {(1, 2, 5)}][: depth + 1]
    while len(levels) <= depth:
        levels.append({child for t in levels[-1] for child in _children(t)})
    return levels


def _children(t: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    # above (1, 2, 5) each sorted triple (a, b, c) has exactly two children,
    # both with a larger maximum
    a, b, c = t
    return (a, c, 3 * a * c - b), (b, c, 3 * b * c - a)


def triple_containing(p: int) -> tuple[int, int, int] | None:
    """A Markov triple containing p, or None when p is not a Markov number.

    Exhaustive: every entry of a triple's descendants is an entry of the
    triple or larger than its maximum, so branches whose maximum passed p
    cannot reach p.
    """
    for t in ((1, 1, 1), (1, 1, 2)):
        if p in t:
            return t
    stack = [(1, 2, 5)]
    while stack:
        t = stack.pop()
        if p in t:
            return t
        if t[2] < p:
            stack.extend(_children(t))
    return None


def valley_pair(p: int) -> tuple[int, int]:
    """Co-entries (x, y) of p, both at most p, from which the branch grows."""
    t = triple_containing(p)
    if t is None:
        raise ValueError(f"{p} is not a Markov number")
    co = list(t)
    co.remove(p)
    x, y = co
    while True:
        if 3 * p * y - x < x:
            x = 3 * p * y - x
        elif 3 * p * x - y < y:
            y = 3 * p * x - y
        else:
            return x, y


def companion_pair(p: int) -> tuple[int, int]:
    """(q, p - q) sorted, with q = 3*x/y mod p for the co-entries x, y."""
    if p <= 2:
        return (1, 1)
    x, y = valley_pair(p)
    q = 3 * x * pow(y, -1, p) % p
    return tuple(sorted((q, p - q)))


def oriented_pair(p: int, q: int) -> tuple[int, int]:
    """Consecutive branch entries (m_{-1}, m_0) with q = 3*m_0/m_{-1} mod p.

    For p <= 2 the branch is a palindrome and q plays no part.
    """
    x, y = valley_pair(p)
    if p <= 2:
        return x, y
    for u, v in ((x, y), (y, x)):
        if 3 * v * pow(u, -1, p) % p == q % p:
            return u, v
    raise ValueError(f"{q} is not a companion of {p}")


def branch(p: int, q: int, lo: int, hi: int) -> list[int]:
    """m_lo .. m_hi for p >= 3, indexed so that (m_{-1}, m_0) is oriented_pair."""
    u, v = oriented_pair(p, q)
    values = {-1: u, 0: v}
    for i in range(1, hi + 1):
        values[i] = 3 * p * values[i - 1] - values[i - 2]
    for i in range(-2, lo - 1, -1):
        values[i] = 3 * p * values[i + 1] - values[i + 2]
    return [values[i] for i in range(lo, hi + 1)]


def hj_chain(n: int, a: int) -> tuple[int, ...]:
    """Entries b_i >= 2 of n/a = b_1 - 1/(b_2 - 1/(...)), by ceiling division."""
    out = []
    while a > 0:
        b = -(-n // a)
        out.append(b)
        n, a = a, b * a - n
    return tuple(out)


def below_sigma(p: int, r: Fraction) -> bool:
    """r < sigma_p, the larger root of x^2 - 3x + 1/p^2 (irrational)."""
    return r <= Fraction(3, 2) or r * r - 3 * r + Fraction(1, p * p) < 0


def boxes_reaching(p: int, q: int, top: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Outer corners (A, B) of the boxes that matter for points in (0, top]^2.

    Walks the branch both ways from the oriented pair and stops past the
    first box whose width (upwards) or height (downwards) exceeds top: every
    box beyond it is narrower in the other direction, so it adds no point of
    (0, top]^2 to the union.  The walk checks that the widths increase.
    """
    u, v = oriented_pair(p, q)
    up = [(u, v)]
    while Fraction(up[-1][1], p * up[-1][0]) <= top:
        a, b = up[-1]
        up.append((b, 3 * p * b - a))
    down = []
    a, b = u, v
    while Fraction(a, p * b) <= top:
        a, b = 3 * p * a - b, a
        down.append((a, b))
    pairs = down[::-1] + up
    corners = [(Fraction(m1, p * m0), Fraction(m0, p * m1)) for m0, m1 in pairs]
    for (a0, _), (a1, _) in zip(corners, corners[1:]):
        if not a0 < a1:
            raise AssertionError(f"box widths of ({p},{q}) do not increase")
    return corners


def grid_thresholds(corners, values) -> list[int]:
    """For each grid value a, how many grid values b put (a, b) in the union.

    (a, b) lies in the union iff b < max{B : (A, B) a box with A > a}; the
    grid values are increasing, so that set of b is a prefix.
    """
    out = []
    for a in values:
        heights = [B for A, B in corners if A > a]
        reach = max(heights) if heights else Fraction(0)
        out.append(bisect_left(values, reach))
    return out
