"""Exact arithmetic and lattice-geometry primitives shared by all modules.

All quantities are exact: arbitrary-precision integers, `fractions.Fraction`
rationals, integer lattice vectors and rational points in the plane.  Floating
point is allowed only at display boundaries (CLI formatting, SVG emission).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import attrgetter

from . import _EXPORTS

Rational = Fraction

__all__ = _EXPORTS["exact_core"]


class DomainError(ValueError):
    """A structurally valid request whose arguments violate a domain contract."""


class _Record:
    """Base of the frozen result classes.

    A subclass names its fields, in order, in `__slots__`.  It is built as a
    frozen dataclass is called: fields by position or by name, the last ones
    optional when the class lists their defaults in `_defaults`, and a
    missing, extra, repeated or unknown field a `TypeError`.  A subclass that
    checks or derives a field writes its own `__init__` instead.  No field
    can be set or deleted afterwards.  Equality (same class, equal fields),
    hashing and `repr` read the fields as those of a frozen dataclass do.
    Building the class costs no more than a plain class, where `dataclasses`
    spends about a millisecond on each one at import.
    """

    __slots__ = ()
    _defaults = ()  # the values of the last len(_defaults) fields when not given

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        # the slot descriptors' own setters, past the __setattr__ that refuses
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values, **named):
        if named or len(values) != len(self.__slots__):
            values = self._bind(values, named)
        for put, value in zip(self._setters, values):
            put(self, value)

    def _bind(self, values, named):
        """The fields in order, bound from `values`, `named` and `_defaults` as
        a call binds its arguments."""
        names, cls = self.__slots__, type(self).__qualname__
        if len(values) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(values)} were given")
        first_default = len(names) - len(self._defaults)
        missing = [name for name in names[len(values):first_default] if name not in named]
        if missing:
            raise TypeError(f"{cls}() missing required argument(s): {', '.join(missing)}")
        values = list(values)
        for k in range(len(values), len(names)):
            name = names[k]
            values.append(named.pop(name) if name in named else self._defaults[k - first_default])
        for name in named:  # left over: a field given by position too, or no field
            raise TypeError(f"{cls}() got multiple values for argument {name!r}" if name in names
                            else f"{cls}() got an unexpected keyword argument {name!r}")
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy restore the slots through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class LatticeVector(_Record):
    """An integer vector in the plane."""

    __slots__ = ("x", "y")
    x: int
    y: int

    def __init__(self, x: int, y: int):
        if not (isinstance(x, int) and isinstance(y, int)):
            raise DomainError(f"lattice vector needs integer entries: {x}, {y}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

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


class RationalPoint(_Record):
    """A point of the plane with exact rational coordinates."""

    __slots__ = ("x", "y")
    x: Rational
    y: Rational

    def __add__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x - other.x, self.y - other.y)

    def scale(self, k: Rational) -> "RationalPoint":
        return RationalPoint(self.x * k, self.y * k)

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


def _clear_denominators(x: Rational, y: Rational) -> tuple[LatticeVector, int]:
    """(n * (x, y), n) for n the least common denominator of x and y."""
    n = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    return LatticeVector(int(x * n), int(y * n)), n


def _primitive_direction(a: RationalPoint, b: RationalPoint) -> tuple[LatticeVector, Rational]:
    """(u, lam) with b - a = lam * u, u primitive; lam = 0 for a zero segment."""
    d = b - a
    v, n = _clear_denominators(d.x, d.y)
    u, k = primitive_part(v)
    return u, Fraction(k, n)


def isqrt_exact(n: int) -> int | None:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def _continuants(entries, x0, x1) -> list:
    """[x_0, x_1, ..., x_{m+1}] for x_{k+1} = b_k x_k - x_{k-1} over the
    entries b_1..b_m: the one recurrence behind chain values, the Wahl e/f
    sequences and the fan rays.  The seeds are ints or LatticeVectors."""
    xs = [x0, x1]
    for b in entries:
        x0, x1 = x1, b * x1 - x0
        xs.append(x1)
    return xs


_new_object = object.__new__  # bound once: the lookup is a fifth of a call's time


def _coprime_fraction(n: int, d: int) -> Rational:
    """Fraction(n, d) for n, d already in lowest terms with d > 0.

    Sets the two slots directly, as the stdlib's own
    `Fraction._from_coprime_ints` (Python 3.12+) does, and skips the
    normalising `Fraction.__new__` and its gcd.  The caller proves the pair
    is in lowest terms; the result is an ordinary `Fraction`.
    """
    r = _new_object(Fraction)
    r._numerator = n
    r._denominator = d
    return r


def _fraction(n: int, d: int) -> Rational:
    """Fraction(n, d) for integers with d > 0: one gcd, then the two slots."""
    g = gcd(n, d)
    return _coprime_fraction(n // g, d // g)


def parse_rational(text: str) -> Rational:
    """Parse 'a/b' or 'n' (exact integers only); decimals and other text are a DomainError."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational: {text!r}") from exc
    try:
        return Fraction(int(s))
    except ValueError as exc:
        raise DomainError(f"not a rational: {text!r} (use a/b, not decimals)") from exc


def format_rational(r: Rational) -> str:
    """Render a rational (or an int) as 'a/b', omitting the denominator when
    it is 1.  A number past Python's int/str digit limit (3.11+) is a
    DomainError that says how to lift the limit."""
    try:
        if r.denominator == 1:
            return str(r.numerator)
        return f"{r.numerator}/{r.denominator}"
    except ValueError as exc:
        raise DomainError("a number exceeds Python's int/str digit limit; "
                          "PYTHONINTMAXSTRDIGITS=0 lifts it") from exc
