"""Lattice/rational primitives: parsing, wedge products, affine lengths."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinstairs.exact_core import (
    DomainError,
    LatticeVector,
    RationalPoint,
    _coprime_fraction,
    _Record,
    affine_length,
    dot,
    format_rational,
    parse_rational,
    primitive_part,
    wedge,
)
from pinstairs.atf_geometry import ViannaTriangle, vianna_triangle
from pinstairs.staircase_oracle import EmbeddingVerdict, StairBox

from .test_records import SAMPLES

ints = st.integers(min_value=-50, max_value=50)
rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=60
)


def test_parse_rational_accepts_fraction_and_integer_syntax():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 29/10 ") == Fraction(29, 10)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "a/b", "1/0", "", "1/2/3"])
def test_parse_rational_rejects_decimals_and_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_rational_integers_have_no_slash():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-5, 10)) == "-1/2"


@given(ints, ints, ints, ints)
def test_wedge_antisymmetry_and_dot_symmetry(a, b, c, d):
    u, v = LatticeVector(a, b), LatticeVector(c, d)
    assert wedge(u, v) == -wedge(v, u)
    assert dot(u, v) == dot(v, u)


@given(ints, ints, ints, ints, ints, ints)
def test_wedge_bilinearity(a, b, c, d, e, f):
    u, v, w = LatticeVector(a, b), LatticeVector(c, d), LatticeVector(e, f)
    assert wedge(u + v, w) == wedge(u, w) + wedge(v, w)


@given(ints, ints)
def test_primitive_part_divides_and_is_primitive(a, b):
    v = LatticeVector(a, b)
    prim, k = primitive_part(v)
    assert prim * k == v
    if (a, b) != (0, 0):
        assert k == gcd(abs(a), abs(b)) and k > 0
        assert prim.is_primitive()
    else:
        assert k == 0


def test_lattice_vector_rejects_non_integers():
    with pytest.raises((DomainError, TypeError)):
        LatticeVector(Fraction(1, 2), 1)


def test_affine_length_counts_lattice_steps():
    a = RationalPoint(Fraction(0), Fraction(0))
    b = RationalPoint(Fraction(3), Fraction(6))
    assert affine_length(a, b) == 3
    c = RationalPoint(Fraction(5, 2), Fraction(0))
    assert affine_length(a, c) == Fraction(5, 2)


@given(rationals, rationals, st.integers(min_value=1, max_value=12))
def test_affine_length_scales_linearly(x, y, k):
    a = RationalPoint(Fraction(0), Fraction(0))
    b = RationalPoint(x, y)
    kb = RationalPoint(k * x, k * y)
    assert affine_length(a, kb) == k * affine_length(a, b)


def test_fraction_keeps_the_slots_the_coprime_constructor_sets():
    # _coprime_fraction writes these two slots; a Python that renames them
    # must fail here rather than build broken Fractions
    assert set(Fraction.__slots__) >= {"_numerator", "_denominator"}


@pytest.mark.parametrize("n, d", [(-56, 29 * 29), (5, 1), (0, 1), (-7, 2), (10**40 + 1, 10**20)])
def test_a_coprime_fraction_is_an_ordinary_fraction(n, d):
    x, ref = _coprime_fraction(n, d), Fraction(n, d)
    assert type(x) is Fraction
    assert (x.numerator, x.denominator, hash(x)) == (ref.numerator, ref.denominator, hash(ref))
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is Fraction and (y.numerator, y.denominator) == (n, d)
    assert (repr(x), str(x), format_rational(x)) == (repr(ref), str(ref), format_rational(ref))
    half = Fraction(1, 2)
    assert (x + half, x - half, x * half, x / half, half / x if n else None) == \
        (ref + half, ref - half, ref * half, ref / half, half / ref if n else None)
    assert (x + 3, 3 - x, x * 3, x ** 2, -x, abs(x)) == (ref + 3, 3 - ref, ref * 3, ref ** 2, -ref,
                                                          abs(ref))
    assert x == ref and not x != ref and x <= ref and {x: 1}[ref] == 1
    assert (x < half, x > -1, x == n // d, x < 3) == (ref < half, ref > -1, ref == n // d, ref < 3)
    assert float(x) == float(ref)


# --- the generic record initialiser --------------------------------------

GENERIC = [x for x in SAMPLES if type(x).__init__ is _Record.__init__]


def test_every_record_that_only_stores_its_fields_uses_the_generic_initialiser():
    assert len(GENERIC) == 18


@pytest.mark.parametrize("record", GENERIC, ids=lambda x: type(x).__name__)
def test_a_record_rebuilt_from_its_fields_by_position_or_by_name_is_equal(record):
    cls = type(record)
    values = [getattr(record, name) for name in cls.__slots__]
    named = dict(zip(cls.__slots__, values))
    assert cls(*values) == record
    assert cls(**named) == record
    assert cls(values[0], **dict(list(named.items())[1:])) == record


def test_trailing_fields_take_the_class_defaults():
    box = StairBox(0, Fraction(1, 2), Fraction(1, 2))
    assert EmbeddingVerdict("Embeds", witness=box) == EmbeddingVerdict("Embeds", box, None)
    assert EmbeddingVerdict("OutsideVisibleRange") == EmbeddingVerdict("OutsideVisibleRange",
                                                                       None, None)
    t = vianna_triangle(5, 2, 1)
    assert ViannaTriangle(t.triple, t.points, t.cuts).history == ()
    assert ViannaTriangle(t.triple, t.points, t.cuts, t.history) == t


@pytest.mark.parametrize("args, named, message", [
    ((0, 1), {}, r"StairBox\(\) missing required argument\(s\): beta_sup"),
    ((), {"index": 0}, r"StairBox\(\) missing required argument\(s\): alpha_sup, beta_sup"),
    ((0, 1, 2, 3), {}, r"StairBox\(\) takes 3 arguments but 4 were given"),
    ((0, 1, 2), {"index": 0}, r"StairBox\(\) got multiple values for argument 'index'"),
    ((0, 1, 2), {"alpha": 1}, r"StairBox\(\) got an unexpected keyword argument 'alpha'"),
])
def test_a_call_a_frozen_dataclass_refuses_is_a_type_error(args, named, message):
    import dataclasses

    twin = dataclasses.make_dataclass("StairBox", StairBox.__slots__, frozen=True)
    with pytest.raises(TypeError):
        twin(*args, **named)
    with pytest.raises(TypeError, match=message):
        StairBox(*args, **named)


def test_a_missing_field_without_a_default_is_a_type_error():
    with pytest.raises(TypeError, match=r"missing required argument\(s\): answer"):
        EmbeddingVerdict(witness=None)
    with pytest.raises(TypeError, match=r"takes 4 arguments but 5 were given"):
        ViannaTriangle((1, 1, 1), (), (), (), ())
