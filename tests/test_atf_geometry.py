"""Moment triangles, fans, pavilions, Vianna triangles, girdle data."""

import hashlib
import json
import re
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
    ViannaTriangle,
    vianna_triangle,
    visible_ellipsoid_bounds,
)
from pinstairs.exact_core import DomainError, LatticeVector, affine_length, point, wedge
from pinstairs.intersection_theory import culet_report
from pinstairs.markov import _descend, branch_sequence, companions, enumerate_tree
from pinstairs.regulation import predict_regulation
from pinstairs.staircase_oracle import CompanionMismatch, stair_boxes, three_ball_feasible

from .frozen import FAN_RAYS, GIRDLES, VIANNA_DIGEST_7, VISIBLE_BOUNDS
from .oracles import fibonacci_markov_triple
from .test_intersection_theory import pairs_to_depth
from .test_staircase_oracle import calls_made

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


def test_fan_rays_equal_the_lattice_vector_recurrence_to_depth_7():
    # the integer kernel against the recurrence run on LatticeVectors
    from pinstairs.exact_core import _continuants
    from pinstairs.hirzebruch_jung import wahl_data

    pairs = [(1, 1)] + pairs_to_depth(7)
    assert len(pairs) == 128
    for p, q in pairs:
        want = _continuants(wahl_data(p, q).chain, LatticeVector(1, 0), LatticeVector(0, 1))
        got = fan_rays(p, q)
        assert got == want and all(type(r) is LatticeVector for r in got)


def test_fan_ray_self_checks_fire_on_a_corrupted_e(monkeypatch):
    from pinstairs.hirzebruch_jung import WahlData, wahl_data

    w = wahl_data(29, 7)
    for k, message in ((w.m + 1, "terminal ray mismatch for (29,7)"),
                       (3, "consecutive rays not unimodular")):
        e = list(w.e)
        e[k] += 1
        monkeypatch.setattr(atf, "wahl_data", lambda p, q: WahlData(p, q, w.chain, tuple(e), w.f))
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            fan_rays(29, 7)


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


@pytest.mark.parametrize("k", (-1, 3, 5, 7))
def test_a_vertex_that_names_no_corner_is_a_domain_error(k):
    # the methods number the vertices 0, 1, 2; the functions 1, 2, 3
    t = vianna_triangle(433, 29, 5)
    for method in (t.vertex_determinant, t.edge_length):
        with pytest.raises(DomainError, match=f"^vertex must be 0, 1 or 2: {k}$"):
            method(k)
    for call in (lambda v: cut_segment(t, v), lambda v: mutate_triangle(t, v),
                 lambda v: visible_ellipsoid_bounds(t.triple, v)):
        with pytest.raises(DomainError, match=f"^vertex must be 1, 2 or 3: {k + 1}$"):
            call(k + 1)


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
        (ViannaTriangle(t.triple, t.points, (u0 * 2, u1, u2), t.history),
         "cut at vertex 0 not primitive"),
        (ViannaTriangle(t.triple, t.points, (-u0, u1, u2), t.history),
         "cut at vertex 0 does not point inward"),
        (ViannaTriangle((2, 5, 1), t.points, t.cuts, t.history),
         "vertex 0 determinant is not 2^2"),
        (ViannaTriangle(t.triple, tuple(v.scale(2) for v in t.points), t.cuts, t.history),
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
    atf._vianna_kept.clear()
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
    atf._vianna_kept.clear()
    assert [vianna_triangle(*t) for t in triples] == warm
    assert [_cold_build(t) for t in triples] == warm


def test_vianna_cache_keeps_no_failed_input():
    vianna_triangle(5, 2, 1)
    before = len(atf._vianna_kept)
    for _ in range(3):
        for bad in [(3, 1, 1), (2, 2, 1), (0, 1, 1), (29, 5, 3)]:
            with pytest.raises(DomainError, match="is not a Markov triple"):
                vianna_triangle(*bad)
    assert len(atf._vianna_kept) == before


def test_vianna_cache_stays_within_its_bound():
    bound = atf._VIANNA_CACHE_SIZE
    entries = enumerate_tree(10)
    ordered = {r for e in entries for r in
               (e.triple, e.triple[1:] + e.triple[:1], e.triple[2:] + e.triple[:2])}
    assert len(ordered) > bound
    for t in ordered:
        assert vianna_triangle(*t).triple == t
    assert len(atf._vianna_kept) == bound


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


def _rotations(triple):
    return [triple, triple[1:] + triple[:1], triple[2:] + triple[:2]]


def test_cut_segment_halves_the_node_ray_up_to_the_opposite_edge():
    for e in enumerate_tree(4):
        for triple in _rotations(e.triple):
            t = vianna_triangle(*triple)
            for k in range(3):
                vk, v1, v2 = t.points[k], t.points[(k + 1) % 3], t.points[(k + 2) % 3]
                node, mid = cut_segment(t, k + 1)
                assert node == vk
                exit_point = mid + (mid - vk)
                # the exit is vk + lam*u for the cut u and some lam > 0 ...
                ray, u = exit_point - vk, t.cuts[k]
                assert ray.x * u.y == ray.y * u.x and ray.x * u.x + ray.y * u.y > 0
                # ... and v1 + s*(v2 - v1) for some 0 < s < 1
                off, edge = exit_point - v1, v2 - v1
                assert off.x * edge.y == off.y * edge.x
                assert 0 < (off.x * edge.x + off.y * edge.y) / (edge.x ** 2 + edge.y ** 2) < 1
            for vertex in (0, 4):
                with pytest.raises(DomainError):
                    cut_segment(t, vertex)


def test_a_node_ray_that_misses_the_opposite_edge_fails_a_self_check():
    t = standard_triangle()  # (0, 0), (1, 0), (0, 1); vertex 0 faces x + y = 1
    for cut, message in [((1, -1), "node ray parallel to the opposite edge"),
                         ((-1, -1), "node ray misses the opposite edge interior"),
                         ((2, -1), "node ray misses the opposite edge interior"),
                         ((-1, 2), "node ray misses the opposite edge interior")]:
        bad = ViannaTriangle(t.triple, t.points, (LatticeVector(*cut),) + t.cuts[1:])
        for call in (cut_segment, mutate_triangle):
            with pytest.raises(AssertionError, match=f"^{message}$"):
                call(bad, 1)


def test_vianna_triangles_to_depth_7_match_pinned_digest():
    rows = [vianna_triangle(*triple).to_json()
            for e in enumerate_tree(7) for triple in _rotations(e.triple)]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == VIANNA_DIGEST_7


def test_a_signature_derives_the_sides_once_and_equals_the_accessors():
    for e in enumerate_tree(5):
        for triple in _rotations(e.triple):
            t = vianna_triangle(*triple)
            derived, signature = calls_made(atf._edges.__code__, lambda: triangle_signature(t))
            assert derived == 1
            assert signature == (tuple(sorted(t.vertex_determinant(k) for k in range(3))),
                                 tuple(sorted(t.edge_length(k) for k in range(3))),
                                 t.area())


@pytest.mark.parametrize("triple", [(2, 1, 1), (5, 29, 433), (1, 89, 233)])
def test_a_mutation_does_no_fraction_arithmetic(triple):
    t = vianna_triangle(*triple)
    for vertex in (1, 2, 3):
        def mutation():
            return mutate_triangle(t, vertex)

        for name in ("_add", "_sub", "_mul", "_div"):
            assert calls_made(getattr(Fraction, name).__code__, mutation)[0] == 0
        built, result = calls_made(Fraction.__new__.__code__, mutation)
        assert built <= 6 and result == mutation()


def test_a_triple_600_levels_deep_is_built_and_each_ancestor_validated_once(monkeypatch):
    triple = fibonacci_markov_triple(1201)  # (1, F_1199, F_1201), 251 digits
    path = _descent(triple)
    assert len(path) == 601
    atf._vianna_kept.clear()
    seen = []

    def counting(t):
        seen.append(t.triple)
        return _validate_vianna(t)

    monkeypatch.setattr(atf, "_validate_vianna", counting)
    for _ in range(2):
        t = vianna_triangle(*triple)
        assert t.triple == triple and len(t.history) == 600
    assert sorted(seen) == sorted(path)


def test_a_descent_longer_than_the_cache_is_built_from_the_root():
    triple = fibonacci_markov_triple(2 * atf._VIANNA_CACHE_SIZE + 101)
    atf._vianna_kept.clear()
    t = vianna_triangle(*triple)
    assert t.triple == triple and len(t.history) == atf._VIANNA_CACHE_SIZE + 50
    assert len(atf._vianna_kept) == atf._VIANNA_CACHE_SIZE
    assert t == _cold_build(triple)


def test_a_warm_vianna_triangle_walks_no_descent(monkeypatch):
    triple = (433, 29, 5)
    atf._vianna_kept.clear()
    seen = []

    def counting(t):
        seen.append(t)
        return _descend(t)

    monkeypatch.setattr(atf, "_descend", counting)
    t = vianna_triangle(*triple)
    assert seen == _descent(triple)[:-1]  # cold: one step per level
    seen.clear()
    vianna_triangle(1, 1, 1)
    assert list(atf._vianna_kept)[-1] == (1, 1, 1)  # a hit is the most recently used
    assert vianna_triangle(*triple) is t and seen == []
    assert list(atf._vianna_kept)[-1] == triple
    child = (433, 29, 3 * 433 * 29 - 5)
    assert vianna_triangle(*child) == mutate_triangle(t, 3)
    assert seen == [child]  # the walk stops at the first kept triangle


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


@pytest.mark.parametrize("triple", [(5, 2), (5, 2, 1, 1), (5.0, 2.0, 1.0)])
@pytest.mark.parametrize("call", [
    lambda t: girdle_data(t, 1),
    lambda t: visible_ellipsoid_bounds(t, 1),
    lambda t: three_ball_feasible(t, (F(1, 10),) * 3),
], ids=["girdle_data", "visible_ellipsoid_bounds", "three_ball_feasible"])
def test_a_triple_of_the_wrong_shape_is_a_domain_error(call, triple):
    with pytest.raises(DomainError, match=re.escape(f"{triple} is not a Markov triple")):
        call(list(triple))


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


def _in_gl2z(src, dst) -> bool:
    """Whether the linear map taking the vectors src[k] to dst[k] (k = 0, 1)
    is an integer matrix of determinant +-1."""
    (s0, s1), (t0, t1) = src, dst
    det = s0.x * s1.y - s0.y * s1.x
    m = [(t0.x * s1.y - t1.x * s0.y) / det, (t1.x * s0.x - t0.x * s1.x) / det,
         (t0.y * s1.y - t1.y * s0.y) / det, (t1.y * s0.x - t0.y * s1.x) / det]
    return all(x.denominator == 1 for x in m) and abs(m[0] * m[3] - m[1] * m[2]) == 1


def _corner_maps(t, k, first, second) -> bool:
    """Whether a GL2(Z) map takes the corner of t at vertex k onto a corner at
    the origin: the edge to vertex k + 1 onto `first`, the other onto `second`."""
    v = t.points
    return _in_gl2z((v[(k + 1) % 3] - v[k], v[(k + 2) % 3] - v[k]), (first, second))


@pytest.mark.parametrize("p", [2, 5, 13, 29, 34, 89, 169, 194, 433])
def test_box_i_is_the_corner_of_delta_at_beta_sup_alpha_sup(p):
    """Box i of Stair(p, q) is the p-corner of the Vianna triangle of
    (p, m_{i+1}, m_i), which is Delta_{p,q}(beta_sup(i), alpha_sup(i)) =
    Delta_{p,p-q}(alpha_sup(i), beta_sup(i)): delta_triangle's alpha, the
    apex edge, is the staircase's beta for the family's own q.  The cones
    match only that way round, except for p = 2, where q = p - q."""
    for q in sorted(companions(p).pair):
        m = branch_sequence(p, q, -4, 5)
        for i in range(-4, 5):
            box = stair_boxes(p, q, i, i)[0]
            a, b = box.alpha_sup, box.beta_sup
            triple = (p, m.value(i + 1), m.value(i))
            t = vianna_triangle(*triple)
            own, other = delta_triangle(p, q, b, a), delta_triangle(p, p - q, a, b)
            assert _corner_maps(t, 0, own.apex, own.top)
            assert _corner_maps(t, 0, other.top, other.apex)
            own, other = delta_triangle(p, q, a, b), delta_triangle(p, p - q, b, a)
            assert _corner_maps(t, 0, own.top, own.apex) == (p == 2)
            assert _corner_maps(t, 0, other.apex, other.top) == (p == 2)
            assert visible_ellipsoid_bounds(triple, 1) == (b, a, q)


def test_visible_bounds_name_the_widths_as_delta_triangle_does():
    for e in enumerate_tree(5):
        a, b, c = e.triple
        for triple in {(a, b, c), (b, c, a), (c, a, b), (a, c, b), (c, b, a), (b, a, c)}:
            t = vianna_triangle(*triple)
            for k in range(3):
                a_max, b_max, q = visible_ellipsoid_bounds(triple, k + 1)
                d = delta_triangle(triple[k], q, a_max, b_max)
                assert _corner_maps(t, k, d.apex, d.top)


@pytest.mark.parametrize("loop,clipped", [
    ([(0, 0), (2, 0)], [(1, 0), (2, 0)]),
    ([(2, 0), (0, 0)], [(2, 0), (1, 0)]),
])
def test_clip_drops_the_wrap_around_repeat(loop, clipped):
    # the crossing on the closing edge repeats the first point kept
    out = atf._clip([point(x, y) for x, y in loop], LatticeVector(1, 0), F(1))
    assert out == [point(x, y) for x, y in clipped]
