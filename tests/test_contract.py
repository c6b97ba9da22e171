"""The library's input contract: well-typed bad input to a public function
raises a DomainError subclass, or the function answers.

Each entry point draws its arguments from small, bounded strategies that mix
valid input (Markov families, tree triples, Wahl data) with out-of-range
values, so both the answering paths and the guards are reached.  The bounds
keep every call cheap: chains of at most 8 entries, tree depths of at most 6,
windows of at most 40 terms, tables only for p <= 100, and the exhaustive
adjunction search only for chains of at most 6 entries.  Wrong types are out
of scope: duck typing answers them with AttributeError or TypeError.
"""

from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pinstairs as ps
from pinstairs.exact_core import DomainError

MARKOV = (1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433)
FAMILIES = tuple((p, q) for p in MARKOV for q in sorted(ps.companions(p).pair))
TRIPLES = tuple(sorted({t for e in ps.enumerate_tree(6) for a, b, c in [e.triple]
                        for t in ((a, b, c), (b, c, a), (c, a, b), (c, b, a), (b, a, c), (a, c, b))}))

ints = st.integers(-3, 40)
numbers = st.one_of(st.integers(-3, 2), st.integers(3, 100), st.sampled_from(MARKOV))
pairs = st.one_of(st.tuples(numbers, st.integers(-3, 100)), st.sampled_from(FAMILIES))
rationals = st.fractions(min_value=-1, max_value=4, max_denominator=10**6)
chains = st.lists(st.integers(-2, 8), max_size=8)
triples = st.one_of(st.lists(ints, max_size=4).map(tuple), st.sampled_from(TRIPLES))
vertices = st.integers(-1, 4)
depths = st.one_of(st.none(), st.integers(-2, 6))


def _wahl_pairs(most):
    return st.integers(1, most).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p))).filter(
        lambda t: gcd(*t) == 1)


wahl_pairs = _wahl_pairs(100)
wahl = wahl_pairs.map(lambda t: ps.wahl_data(*t))
windows = st.tuples(st.integers(-20, 20), st.one_of(st.integers(-3, -1), st.integers(0, 39))).map(
    lambda t: (t[0], t[0] + t[1]))


def _tree(draw):
    """A labelled tree on ids 1..n, or the path graph of a chain."""
    if draw(st.booleans()):
        return ps.chain_graph(draw(st.lists(st.integers(1, 4), min_size=1, max_size=8)))
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(st.integers(-4, 1), min_size=n, max_size=n))
    parents = draw(st.lists(st.integers(0, 10**6), min_size=n - 1, max_size=n - 1))
    edges = tuple((k + 2, r % (k + 1) + 1) for k, r in enumerate(parents))
    return ps.DualGraph(tuple(enumerate(labels, start=1)), edges)


def _graph_args(draw):
    """Vertices and edges that may or may not make a tree: the ids mostly
    distinct, and mostly one edge fewer than vertices, between them."""
    key = (lambda v: v[0]) if draw(st.integers(0, 3)) else None
    vertices = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(-4, 1)), max_size=6,
                             unique_by=key))
    ids = [v for v, _ in vertices] or [0]
    ends = st.sampled_from(ids) if draw(st.integers(0, 3)) else st.integers(0, 6)
    size = len(vertices) - 1 if draw(st.integers(0, 3)) else draw(st.integers(0, 6))
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
                          min_size=max(size, 0), max_size=max(size, 0)))
    return tuple(vertices), tuple(edges)


def _lattice(draw):
    return ps.IntersectionLattice(tuple(draw(st.lists(
        _wahl_pairs(30).map(lambda t: ps.wahl_data(*t)), min_size=1, max_size=2))))


def _class(draw, lattice):
    if draw(st.booleans()):
        return draw(st.sampled_from([ps.exceptional_class, ps.canonical_class]))(lattice)
    parts = draw(st.lists(st.lists(rationals, max_size=4).map(tuple), max_size=3))
    return ps.HomologyClass(draw(rationals), tuple(parts))


def _pavilion_args(draw):
    """A moment triangle and offsets, as many as its chain has entries or not."""
    p, q = draw(_wahl_pairs(13))
    base = ps.delta_triangle(p, q, draw(rationals.filter(bool).map(abs)),
                             draw(rationals.filter(bool).map(abs)))
    size = ps.wahl_data(p, q).m if draw(st.booleans()) else draw(st.integers(0, 8))
    offsets = draw(st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=1000),
                            min_size=size, max_size=size))
    return base, offsets


def _vianna(draw):
    return ps.vianna_triangle(*draw(st.sampled_from(TRIPLES)))


# entry point -> draw -> (function, arguments)
CALLS = {
    "LatticeVector": lambda d: (ps.LatticeVector, (d(ints), d(ints))),
    "wedge": lambda d: (ps.wedge, (ps.LatticeVector(d(ints), d(ints)),
                                   ps.LatticeVector(d(ints), d(ints)))),
    "dot": lambda d: (ps.dot, (ps.LatticeVector(d(ints), d(ints)),
                               ps.LatticeVector(d(ints), d(ints)))),
    "primitive_part": lambda d: (ps.primitive_part, (ps.LatticeVector(d(ints), d(ints)),)),
    "affine_length": lambda d: (ps.affine_length, (ps.RationalPoint(d(rationals), d(rationals)),
                                                   ps.RationalPoint(d(rationals), d(rationals)))),
    "parse_rational": lambda d: (ps.parse_rational, (d(st.one_of(
        st.text(max_size=8), st.from_regex(r"\A-?[0-9]{0,3}[/.]?-?[0-9]{0,3}\Z"))),)),
    "format_rational": lambda d: (ps.format_rational, (d(rationals),)),
    "is_markov_triple": lambda d: (ps.is_markov_triple, (d(ints), d(ints), d(ints))),
    "validate_triple": lambda d: (ps.validate_triple, (d(triples),)),
    "mutate": lambda d: (ps.mutate, (d(triples), d(vertices))),
    "enumerate_tree": lambda d: (ps.enumerate_tree, (d(st.integers(-2, 6)),
                                                     d(st.integers(-1, 8)))),
    "tree_to_json": lambda d: (ps.tree_to_json, (ps.enumerate_tree(d(st.integers(0, 6))),)),
    "is_markov_number": lambda d: (ps.is_markov_number, (d(numbers),)),
    "companions": lambda d: (ps.companions, (d(numbers), d(depths))),
    "is_companion": lambda d: (ps.is_companion, (*d(pairs), d(depths))),
    "canonical_triple": lambda d: (ps.canonical_triple, (*d(pairs), d(depths))),
    "branch_sequence": lambda d: (ps.branch_sequence, (*d(pairs), *d(windows))),
    "sigma_p": lambda d: (ps.sigma_p, (d(numbers),)),
    "Sigma": lambda d: (ps.Sigma, (d(numbers),)),
    "Sigma.decimal": lambda d: (ps.Sigma(d(st.integers(1, 10**6))).decimal, (
        d(st.integers(-3, 40)), d(st.booleans()))),
    "compare_to_sigma": lambda d: (ps.compare_to_sigma, (d(numbers), d(rationals))),
    "two_ball_degree": lambda d: (ps.two_ball_degree, (d(numbers), d(numbers))),
    "hj_expand": lambda d: (ps.hj_expand, (d(numbers), d(numbers))),
    "hj_eval": lambda d: (ps.hj_eval, (d(chains),)),
    "hj_eval_projective": lambda d: (ps.hj_eval_projective, (d(chains),)),
    "wahl_data": lambda d: (ps.wahl_data, d(pairs)),
    "dual_chain": lambda d: (ps.dual_chain, (d(chains), d(numbers), d(numbers))),
    "is_zero_continued_fraction": lambda d: (ps.is_zero_continued_fraction, (d(chains),)),
    "recognize_dual_wahl": lambda d: (ps.recognize_dual_wahl, (d(chains),)),
    "intersection_matrix": lambda d: (ps.intersection_matrix, (d(wahl),)),
    "inverse_closed_form": lambda d: (ps.inverse_closed_form, (d(wahl),)),
    "is_negative_definite": lambda d: (ps.is_negative_definite, (d(st.one_of(
        st.lists(st.lists(st.integers(-3, 3), max_size=4), max_size=4),
        wahl.map(ps.intersection_matrix))),)),
    "discrepancies": lambda d: (ps.discrepancies, (d(wahl),)),
    "class_pairing": lambda d: (ps.class_pairing, (lat := _lattice(d), _class(d, lat),
                                                   _class(d, lat))),
    "class_square": lambda d: (ps.class_square, (lat := _lattice(d), _class(d, lat))),
    "coefficients_from_intersections": lambda d: (ps.coefficients_from_intersections, (
        d(wahl), d(st.lists(st.integers(-3, 3), max_size=8)))),
    "culet_report": lambda d: (ps.culet_report, d(pairs)),
    "enumerate_adjunction_solutions": lambda d: (ps.enumerate_adjunction_solutions, (
        d(_wahl_pairs(13).map(lambda t: ps.wahl_data(*t)).filter(lambda w: w.m <= 6)),
        d(st.integers(-1, 1)))),
    "square_zero_class_search": lambda d: (ps.square_zero_class_search, d(pairs)),
    "stair_boxes": lambda d: (ps.stair_boxes, (*d(pairs), *d(windows))),
    "embeds": lambda d: (ps.embeds, (*d(pairs), d(rationals), d(rationals))),
    "pin_ball_capacity": lambda d: (ps.pin_ball_capacity, d(pairs)),
    "two_ball_feasible": lambda d: (ps.two_ball_feasible, (*d(pairs), d(rationals),
                                                           *d(pairs), d(rationals))),
    "three_ball_feasible": lambda d: (ps.three_ball_feasible, (
        d(triples), d(st.lists(rationals, max_size=4)),
        d(st.one_of(st.none(), st.lists(st.integers(-1, 100), max_size=4))))),
    "obstruction_certificate": lambda d: (ps.obstruction_certificate, (
        *d(pairs), d(st.integers(-20, 20)))),
    "delta_triangle": lambda d: (ps.delta_triangle, (*d(pairs), d(rationals), d(rationals))),
    "fan_rays": lambda d: (ps.fan_rays, d(pairs)),
    "pavilion_polygon": lambda d: (ps.pavilion_polygon, _pavilion_args(d)),
    "vianna_triangle": lambda d: (ps.vianna_triangle, d(triples.filter(lambda t: len(t) == 3))),
    "mutate_triangle": lambda d: (ps.mutate_triangle, (_vianna(d), d(vertices))),
    "cut_segment": lambda d: (ps.cut_segment, (_vianna(d), d(vertices))),
    "triangle_signature": lambda d: (ps.triangle_signature, (_vianna(d),)),
    "vertex_determinant": lambda d: (_vianna(d).vertex_determinant, (d(vertices),)),
    "edge_length": lambda d: (_vianna(d).edge_length, (d(vertices),)),
    "girdle_data": lambda d: (ps.girdle_data, (d(triples), d(st.integers(-1, 100)))),
    "visible_ellipsoid_bounds": lambda d: (ps.visible_ellipsoid_bounds, (d(triples),
                                                                         d(vertices))),
    "DualGraph": lambda d: (ps.DualGraph, _graph_args(d)),
    "chain_graph": lambda d: (ps.chain_graph, (d(chains),)),
    "blow_up": lambda d: (ps.blow_up, (_tree(d), d(st.one_of(
        st.integers(-1, 9), st.lists(st.integers(-1, 9), max_size=3).map(tuple))))),
    "blow_down": lambda d: (ps.blow_down, (_tree(d), d(st.integers(-1, 9)))),
    "blow_down_all": lambda d: (ps.blow_down_all, (_tree(d),)),
    "is_ruling_degeneration": lambda d: (ps.is_ruling_degeneration, (
        ps.DualGraph((), ()) if d(st.integers(0, 4)) == 0 else _tree(d),)),
    "attach_position": lambda d: (ps.attach_position, (d(chains),)),
    "predict_regulation": lambda d: (ps.predict_regulation, d(pairs)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
def test_well_typed_input_gets_an_answer_or_a_domain_error(name, data):
    function, args = CALLS[name](data.draw)
    try:
        function(*args)
    except DomainError:
        pass
