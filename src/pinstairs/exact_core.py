"""Exact arithmetic and lattice-geometry primitives shared by all modules.

All quantities are exact: arbitrary-precision integers, `fractions.Fraction`
rationals, integer lattice vectors and rational points in the plane.  Floating
point is allowed only at display boundaries (CLI formatting, SVG emission).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Rational = Fraction

__all__ = [
    "Rational",
    "LatticeVector",
    "RationalPoint",
    "DomainError",
    "wedge",
    "dot",
    "primitive_part",
    "affine_length",
    "parse_rational",
    "format_rational",
]


class DomainError(ValueError):
    """A structurally valid request whose arguments violate a domain contract."""


@dataclass(frozen=True)
class LatticeVector:
    """An integer vector in the plane."""

    x: int
    y: int

    def __post_init__(self):
        if not (isinstance(self.x, int) and isinstance(self.y, int)):
            raise DomainError(f"lattice vector needs integer entries: {self.x}, {self.y}")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.x, -self.y)

    def __mul__(self, k: int) -> "LatticeVector":
        return LatticeVector(self.x * k, self.y * k)

    __rmul__ = __mul__

    def is_primitive(self) -> bool:
        return gcd(self.x, self.y) == 1

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class RationalPoint:
    """A point of the plane with exact rational coordinates."""

    x: Rational
    y: Rational

    def __add__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x - other.x, self.y - other.y)

    def scale(self, k: Rational) -> "RationalPoint":
        return RationalPoint(self.x * k, self.y * k)

    def translate(self, v: LatticeVector, t: Rational = Fraction(1)) -> "RationalPoint":
        return RationalPoint(self.x + t * v.x, self.y + t * v.y)

    def as_tuple(self) -> tuple[Rational, Rational]:
        return (self.x, self.y)


def point(x, y) -> RationalPoint:
    return RationalPoint(Fraction(x), Fraction(y))


def wedge(u: LatticeVector, v: LatticeVector) -> int:
    """Wedge (cross) product u.x*v.y - u.y*v.x."""
    return u.x * v.y - u.y * v.x


def dot(u: LatticeVector, v: LatticeVector) -> int:
    return u.x * v.x + u.y * v.y


def primitive_part(v: LatticeVector) -> tuple[LatticeVector, int]:
    """Write v = k*u with u primitive and k >= 0; the zero vector gives k = 0."""
    k = gcd(v.x, v.y)
    if k == 0:
        return v, 0
    return LatticeVector(v.x // k, v.y // k), k


def affine_length(a: RationalPoint, b: RationalPoint) -> Rational:
    """Integral affine length of the segment [a, b].

    Writes b - a = lam * u with u a primitive integer vector and returns lam.
    """
    return _primitive_direction(a, b)[1]


def _primitive_direction(a: RationalPoint, b: RationalPoint) -> tuple[LatticeVector, Rational]:
    """(u, lam) with b - a = lam * u, u primitive; lam = 0 for a zero segment."""
    d = b - a
    # clear denominators, then divide out the integer gcd
    n = d.x.denominator * d.y.denominator // gcd(d.x.denominator, d.y.denominator)
    u, k = primitive_part(LatticeVector(int(d.x * n), int(d.y * n)))
    return u, Fraction(k, n)


def rational_pair_wedge(a: RationalPoint, b: RationalPoint) -> Rational:
    """Exact 2D cross product of two rational position vectors."""
    return a.x * b.y - a.y * b.x


def parse_rational(text: str) -> Rational:
    """Parse 'a/b' or 'n' (exact integers only; decimal notation is rejected)."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {text!r}") from exc
    try:
        return Fraction(int(s))
    except ValueError as exc:
        raise ValueError(f"not a rational: {text!r} (use a/b, not decimals)") from exc


def format_rational(r: Rational) -> str:
    """Render a rational as 'a/b', omitting the denominator when it is 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"
