"""Moment triangles, fans, pavilions, Vianna triangles, girdle data."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

import pinstairs.atf_geometry as atf
from pinstairs.atf_geometry import (
    GirdleViolated,
    _validate_vianna,
    NotDelzant,
    cut_segment,
    delta_triangle,
    fan_rays,
    girdle_data,
    mutate_triangle,
    pavilion_polygon,
    standard_triangle,
    triangle_signature,
    vianna_triangle,
    visible_ellipsoid_bounds,
)
from pinstairs.exact_core import DomainError, affine_length, wedge
from pinstairs.intersection_theory import culet_report
from pinstairs.markov import enumerate_tree
from pinstairs.regulation import predict_regulation
from pinstairs.staircase_oracle import CompanionMismatch

from .frozen import FAN_RAYS, GIRDLES, VISIBLE_BOUNDS

F = Fraction


def test_delta_triangle_vertices():
    tri = delta_triangle(2, 1, F(1, 2), F(1, 3))
    o, apex, top = tri.loop()
    assert (o.x, o.y) == (0, 0)
    assert (apex.x, apex.y) == (2, F(1, 2))  # (alpha p^2, alpha (pq - 1))
    assert (top.x, top.y) == (0, F(1, 3))


def test_delta_triangle_edge_data():
    tri = delta_triangle(5, 1, F(1, 2), F(1, 3))
    o, apex, top = tri.loop()
    assert affine_length(o, apex) == F(1, 2)  # bottom toric edge has length alpha
    assert affine_length(o, top) == F(1, 3)  # left toric edge has length beta
    assert tri.normal_first.as_tuple() == (1, 0)
    assert tri.normal_last.as_tuple() == (-4, 25)  # (1 - pq, p^2)
    # girdle normal is a denominator-cleared (alpha(pq-1) - beta, -alpha p^2)
    g = tri.girdle_normal
    assert wedge(g, tri.girdle_normal) == 0
    gx, gy = g.as_tuple()
    assert F(gx) * (-F(1, 2) * 25) == F(gy) * (F(1, 2) * 4 - F(1, 3))


def test_girdle_normal_is_scaled_by_the_least_common_denominator_only():
    # not reduced to a primitive vector: `atf delta` prints it as it stands
    assert delta_triangle(5, 1, F(1, 2), F(1, 3)).girdle_normal.as_tuple() == (10, -75)
    assert delta_triangle(5, 1, F(1, 2), F(1, 4)).girdle_normal.as_tuple() == (7, -50)


def test_delta_triangle_validation():
    with pytest.raises(DomainError):
        delta_triangle(4, 2, F(1), F(1))  # not coprime
    with pytest.raises(DomainError):
        delta_triangle(5, 1, F(0), F(1))
    with pytest.raises(DomainError):
        delta_triangle(5, 6, F(1), F(1))  # q out of range


@pytest.mark.parametrize("pq,rays", sorted(FAN_RAYS.items()))
def test_fan_rays_match_frozen(pq, rays):
    assert [r.as_tuple() for r in fan_rays(*pq)] == rays


def test_fan_rays_consecutive_wedges_are_one():
    for p, q in [(2, 1), (5, 1), (5, 4), (13, 2), (29, 7)]:
        rays = fan_rays(p, q)
        for a, b in zip(rays, rays[1:]):
            assert wedge(a, b) == 1
        assert rays[-1].as_tuple() == (1 - p * q, p * p)


def test_fan_rays_second_coordinates_are_e_sequence():
    from pinstairs.hirzebruch_jung import wahl_data

    w = wahl_data(29, 7)
    rays = fan_rays(29, 7)
    assert [r.y for r in rays[1:]] == list(w.e[1:])


# discretely convex offsets (b_i*l_i > l_{i-1} + l_{i+1} against chain (7,2,2,2))
PAVILION_51 = [F(1, 100), F(19, 1000), F(17, 1000), F(1, 100)]


def test_pavilion_truncates_girdled_triangle():
    tri = delta_triangle(5, 1, F(1, 2), F(1, 3))
    pav = pavilion_polygon(tri, PAVILION_51)
    labels = [e.label for e in pav.edges]
    assert labels.count("girdle") == 1
    assert len(pav.edges) == 7  # rho_0, 4 new cuts, rho_5, girdle
    for e in pav.edges:
        assert e.length > 0
    # the girdle edge is untouched: same endpoints as the base triangle
    ge = next(e for e in pav.edges if e.label == "girdle")
    base = {pt.as_tuple() for pt in tri.girdle()}
    assert {ge.start.as_tuple(), ge.end.as_tuple()} == base


def test_pavilion_girdle_violation():
    tri = delta_triangle(5, 1, F(1, 2), F(1, 3))
    with pytest.raises(GirdleViolated):
        pavilion_polygon(tri, [F(2)] * 4)


def test_pavilion_not_delzant_when_cut_lines_are_concurrent():
    # equal offsets make consecutive cut lines meet at one point: an edge dies
    tri = delta_triangle(5, 1, F(1, 2), F(1, 3))
    with pytest.raises(NotDelzant):
        pavilion_polygon(tri, [F(1, 50)] * 4)


def test_pavilion_rejects_nonpositive_offsets():
    tri = delta_triangle(2, 1, F(1, 2), F(1, 3))
    with pytest.raises(DomainError):
        pavilion_polygon(tri, [F(0)])


def test_pavilion_wrong_offset_count():
    tri = delta_triangle(2, 1, F(1, 2), F(1, 3))
    with pytest.raises(DomainError):
        pavilion_polygon(tri, [F(1, 50), F(1, 50)])


def test_standard_triangle_is_the_unit_simplex():
    t = standard_triangle()
    assert t.triple == (1, 1, 1)
    assert {p.as_tuple() for p in t.points} == {(0, 0), (1, 0), (0, 1)}
    assert t.area() == F(1, 2)
    for k in range(3):
        assert t.vertex_determinant(k) == 1


def test_mutation_produces_markov_vianna_triangles():
    t = standard_triangle()
    t2 = mutate_triangle(t, 1)
    assert sorted(t2.triple) == [1, 1, 2]
    t3 = mutate_triangle(t2, 2)
    assert sorted(t3.triple) == [1, 2, 5]
    assert t3.area() == F(1, 2)


def test_mutation_at_position_replaces_that_number():
    t = vianna_triangle(2, 1, 1)
    t2 = mutate_triangle(t, 2)
    assert t2.triple == (2, 5, 1)


def test_mutate_twice_is_the_identity():
    for triple in [(1, 1, 1), (2, 1, 1), (5, 2, 1), (2, 5, 1)]:
        t = vianna_triangle(*triple)
        for k in (1, 2, 3):
            back = mutate_triangle(mutate_triangle(t, k), k)
            assert back.points == t.points
            assert back.triple == t.triple
            assert back.cuts == t.cuts


def test_vianna_invariants_along_a_tree_walk():
    for e in enumerate_tree(4):
        t = vianna_triangle(*e.triple)
        assert t.area() == F(1, 2)
        p1, p2, p3 = t.triple
        assert t.vertex_determinant(0) == p1 * p1
        assert t.vertex_determinant(1) == p2 * p2
        assert t.vertex_determinant(2) == p3 * p3
        assert t.edge_length(0) == F(p1, p2 * p3)
        assert t.edge_length(1) == F(p2, p1 * p3)
        assert t.edge_length(2) == F(p3, p1 * p2)
        for c in t.cuts:
            assert c.is_primitive()


def test_vianna_triangle_signature_is_order_insensitive():
    s1 = triangle_signature(vianna_triangle(5, 2, 1))
    s2 = triangle_signature(vianna_triangle(1, 5, 2))
    assert s1 == s2
    assert s1[0] == (1, 4, 25)


def test_vianna_self_checks_fire_on_corrupted_triangles():
    t = vianna_triangle(5, 2, 1)
    assert _validate_vianna(t) is t
    u0, u1, u2 = t.cuts
    corrupted = [
        (replace(t, cuts=(u0 * 2, u1, u2)), "cut at vertex 0 not primitive"),
        (replace(t, cuts=(-u0, u1, u2)), "cut at vertex 0 does not point inward"),
        (replace(t, triple=(2, 5, 1)), "vertex 0 determinant is not 2^2"),
        (replace(t, points=tuple(v.scale(2) for v in t.points)),
         "mutation failed to preserve area"),
    ]
    for bad, message in corrupted:
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            _validate_vianna(bad)


def test_vianna_rejects_non_markov():
    with pytest.raises(DomainError):
        vianna_triangle(3, 1, 1)
    with pytest.raises(DomainError):
        vianna_triangle(2, 2, 1)


def _descent(triple):
    """The ordered triples from triple down to (1, 1, 1), each the last one
    with its largest number mutated: the ancestors a Vianna triangle needs."""
    out = [tuple(triple)]
    while out[-1] != (1, 1, 1):
        t = list(out[-1])
        k = t.index(max(t))
        t[k] = 3 * t[(k + 1) % 3] * t[(k + 2) % 3] - t[k]
        out.append(tuple(t))
    return out


def _cold_build(triple):
    """The triangle mutated step by step from the standard one, no cache."""
    path = _descent(triple)[::-1]
    t = standard_triangle()
    for parent, child in zip(path, path[1:]):
        k = next(i for i in range(3) if parent[i] != child[i])
        t = mutate_triangle(t, k + 1)
    return t


def test_vianna_cache_validates_each_ordered_triple_once(monkeypatch):
    atf._vianna.cache_clear()
    seen = []

    def counting(t):
        seen.append(t.triple)
        return _validate_vianna(t)

    monkeypatch.setattr(atf, "_validate_vianna", counting)
    wanted = set()
    for _ in range(2):
        for p, q in [(29, 7), (433, 104)]:
            triple = culet_report(p, q).triple  # the geometry of a families unit
            predict_regulation(p, q)
            vianna_triangle(*triple)
            wanted.update(_descent(triple))
    assert sorted(seen) == sorted(wanted)


def test_vianna_cache_matches_a_cold_build():
    triples = [r for e in enumerate_tree(5) for r in
               (e.triple, e.triple[1:] + e.triple[:1], e.triple[2:] + e.triple[:2])]
    warm = [vianna_triangle(*t) for t in triples]
    atf._vianna.cache_clear()
    assert [vianna_triangle(*t) for t in triples] == warm
    assert [_cold_build(t) for t in triples] == warm


def test_vianna_cache_keeps_no_failed_input():
    vianna_triangle(5, 2, 1)
    before = atf._vianna.cache_info().currsize
    for _ in range(3):
        for bad in [(3, 1, 1), (2, 2, 1), (0, 1, 1), (29, 5, 3)]:
            with pytest.raises(DomainError, match="is not a Markov triple"):
                vianna_triangle(*bad)
    assert atf._vianna.cache_info().currsize == before


def test_vianna_cache_stays_within_its_bound():
    bound = atf._VIANNA_CACHE_SIZE
    assert atf._vianna.cache_info().maxsize == bound
    entries = enumerate_tree(10)
    ordered = {r for e in entries for r in
               (e.triple, e.triple[1:] + e.triple[:1], e.triple[2:] + e.triple[:2])}
    assert len(ordered) > bound
    for t in ordered:
        assert vianna_triangle(*t).triple == t
    assert atf._vianna.cache_info().currsize == bound


def test_cut_segments_stay_inside_the_triangle():
    t = vianna_triangle(5, 2, 1)
    for k in range(3):
        if t.triple[k] < 2:
            continue
        node, mid = cut_segment(t, k + 1)
        assert node == t.points[k]
        # the midpoint is a strict convex combination of the three vertices
        xs = sorted(p.x for p in t.points)
        assert xs[0] < mid.x < xs[2]


@pytest.mark.parametrize("key,expected", sorted(GIRDLES.items()))
def test_girdle_data_matches_frozen(key, expected):
    triple, q1 = key
    vec, length, disp = expected
    g_vec, g_len, g_disp = girdle_data(triple, q1)
    assert g_vec.as_tuple() == vec
    assert g_len == length
    assert g_disp == disp


def test_girdle_data_rejects_wrong_companion():
    with pytest.raises(CompanionMismatch):
        girdle_data((5, 2, 1), 4)  # q=4 pairs with the (5,1,2) ordering
    with pytest.raises(DomainError):
        girdle_data((5, 2, 2), 1)


@pytest.mark.parametrize("key,expected", sorted(VISIBLE_BOUNDS.items()))
def test_visible_ellipsoid_bounds_match_frozen(key, expected):
    triple, vertex = key
    assert visible_ellipsoid_bounds(triple, vertex) == expected


def test_visible_bounds_product_identity():
    for e in enumerate_tree(4):
        t = tuple(e.triple)
        for vertex in (1, 2, 3):
            a_max, b_max, q = visible_ellipsoid_bounds(t, vertex)
            p = t[vertex - 1]
            assert a_max * b_max == F(1, p * p)
            assert 1 <= q <= max(p, 1)
