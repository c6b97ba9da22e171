"""Moment triangles, fans, pavilions, Vianna triangles, girdle data."""

import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd

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
from pinstairs.exact_core import (DomainError, LatticeVector, _primitive_direction, affine_length,
                                   point, wedge)
from pinstairs.hirzebruch_jung import wahl_data
from pinstairs.intersection_theory import culet_report
from pinstairs.markov import _descend, branch_sequence, companions, enumerate_tree, mutate
from pinstairs.regulation import predict_regulation
from pinstairs.staircase_oracle import CompanionMismatch, stair_boxes, three_ball_feasible

from .frozen import FAN_RAYS, GIRDLES, VIANNA_DIGEST_7, VISIBLE_BOUNDS
from .oracles import clip, fibonacci_markov_triple, reference_pavilion
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


def test_delta_triangle_corners_and_lengths_hold_by_construction():
    # what delta_triangle argues and no longer checks: the toric normals span
    # p^2, the toric lines meet at the origin, the left toric line meets the
    # girdle line at top, and the toric edges have affine lengths (beta, alpha)
    sizes = [(F(1, 2), F(1, 3)), (F(1), F(1)), (F(5), F(2, 7)), (F(3, 11), F(13, 4))]
    for p in range(1, 60):
        for q in (q for q in range(1, p + 1) if gcd(p, q) == 1):
            for alpha, beta in sizes:
                t = delta_triangle(p, q, alpha, beta)
                first, last, zero = t.normal_first, t.normal_last, F(0)
                assert wedge(first, last) == p * p
                assert atf._meet(first, zero, last, zero) == t.origin == point(0, 0)
                assert atf._meet(first, zero, t.girdle_normal, t.girdle_offset) == t.top
                assert affine_length(t.origin, t.top) == beta
                assert affine_length(t.origin, t.apex) == alpha


@pytest.mark.parametrize("pq,rays", sorted(FAN_RAYS.items()))
def test_fan_rays_match_frozen(pq, rays):
    assert [r.as_tuple() for r in fan_rays(*pq)] == rays


def test_fan_rays_write_each_ray_in_place():
    # the rays are continuants of an int chain: no LatticeVector.__init__ runs
    for p, q in [(5, 1), (29, 7), (433, 104)]:
        rays = fan_rays(p, q)
        built, again = calls_made(LatticeVector.__init__.__code__, lambda: fan_rays(p, q))
        assert built == 0 and again == rays
        assert calls_made(atf._lattice.__code__, lambda: fan_rays(p, q))[0] == len(rays)


def test_fan_rays_consecutive_wedges_are_one():
    # fan_rays checks no ray: the wedges are 1 for any chain, and the terminal
    # ray follows from _wahl's checked ends (the test below)
    small = [(p, q) for p in range(1, 61) for q in range(1, p + 1)
             if gcd(p, q) == 1 and (p == 1 or q < p)]
    for p, q in small + pairs_to_depth(9):
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


def test_the_first_coordinates_are_read_from_e_and_f_to_depth_9():
    # what fan_rays argues and no longer checks: x = (f - (pq - 1)e)/p^2 at every
    # index, so the ends e = p^2 and f = 0 give the terminal ray (1 - pq, p^2),
    # which the test above checks for (1, 1) and every pair to depth 9
    for p, q in [(1, 1)] + pairs_to_depth(9):
        w, rays = wahl_data(p, q), fan_rays(p, q)
        assert [(r.x * p * p, r.y) for r in rays] == [
            (f - (p * q - 1) * e, e) for e, f in zip(w.e, w.f)]


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


def _pavilion_lines(base, offsets):
    """The triangle's three lines and the cuts, as (label, nx, ny, c) with the
    half-plane nx*x + ny*y >= c, in the order the reference labels by."""
    rays, m = fan_rays(base.p, base.q), len(offsets)
    g = base.girdle_normal
    return [("rho_0", 1, 0, F(0)), (f"rho_{m + 1}", *rays[-1].as_tuple(), F(0)),
            ("girdle", g.x, g.y, base.girdle_offset),
            *((f"rho_{i}", *rays[i].as_tuple(), c) for i, c in enumerate(offsets, start=1))]


def _reference_answer(base, offsets):
    """What pavilion_polygon answers, from the reference: ("GirdleViolated", message),
    ("NotDelzant", message), or the labelled edges as (label, start, end) pairs."""
    lines = _pavilion_lines(base, offsets)
    for _, nx, ny, c in lines[3:]:
        for v in base.girdle():
            if not nx * v.x + ny * v.y > c:
                return "GirdleViolated", f"offset {c} along {(nx, ny)} reaches the girdle"
    got = reference_pavilion([v.as_tuple() for v in base.loop()], lines)
    return ("NotDelzant", f"edge {got} degenerates in the truncation") if isinstance(got, str) \
        else got


def _convex_offsets(w, rng):
    """Offsets with b_i*l_i - l_{i-1} - l_{i+1} = d_i > 0 (l_0 = l_{m+1} = 0) for random
    integers d_i: l solves the chain's tridiagonal system, l_i = (f_i sum_{j<=i} e_j d_j +
    e_i sum_{j>i} f_j d_j)/p^2, in O(m)."""
    d = [0] + [rng.randint(1, 20) for _ in range(w.m)] + [0]
    below = list(itertools.accumulate(w.e[i] * d[i] for i in range(w.m + 2)))
    above = list(itertools.accumulate(w.f[i] * d[i] for i in reversed(range(w.m + 2))))[::-1]
    return [F(w.f[i] * below[i] + w.e[i] * (above[i] - w.f[i] * d[i]), w.p ** 2)
            for i in range(1, w.m + 1)]


def _pavilion_cases(count, seed):
    """Seeded (base, offsets): every Markov pair to tree depth 4 (chains of up to 19
    entries) and five other Wahl pairs, with discretely convex offsets scaled to near
    the girdle's reach.  Half are perturbed: one offset scaled, or put on the line
    through its two neighbours' meet (an edge of length exactly 0), or every offset
    scaled on its own, so that several lines drop, in any order."""
    rng = random.Random(seed)
    pairs = [(1, 1), *pairs_to_depth(4), (7, 3), (11, 2), (13, 5), (6, 1), (9, 2)]
    for _ in range(count):
        w = wahl_data(*rng.choice(pairs))
        base = delta_triangle(w.p, w.q, F(rng.randint(1, 9), rng.randint(1, 9)),
                              F(rng.randint(1, 9), rng.randint(1, 9)))
        rays, offsets = fan_rays(w.p, w.q), _convex_offsets(w, rng)
        reach = min((min(r.x * v.x + r.y * v.y for v in base.girdle()) / c
                     for r, c in zip(rays[1:-1], offsets)), default=F(1))
        scale = reach * F(rng.randint(1, 110), 100)
        offsets = [c * scale for c in offsets]
        kind, i = rng.randrange(6), rng.randrange(max(w.m, 1))
        ends = [0, *offsets, 0]
        if kind == 0 and w.m:
            offsets[i] *= F(rng.randint(1, 30), 10)
        elif kind == 1 and w.m > 1:
            offsets[i] = F(ends[i] + ends[i + 2], w.chain[i])
        elif kind == 2:
            offsets = [c * F(rng.randint(1, 30), 10) for c in offsets]
        yield base, offsets


def test_pavilion_agrees_with_the_reference_clip_and_keeps_the_dropped_checks():
    answers = {"accepted": 0, "GirdleViolated": 0, "NotDelzant": 0}
    for base, offsets in _pavilion_cases(1000, seed=31):
        want = _reference_answer(base, offsets)
        try:
            pav = pavilion_polygon(base, offsets)
        except (GirdleViolated, NotDelzant) as exc:
            assert (type(exc).__name__, str(exc)) == want
            answers[type(exc).__name__] += 1
            continue
        answers["accepted"] += 1
        edges = [(e.label, e.start.as_tuple(), e.end.as_tuple()) for e in pav.edges]
        assert edges == want
        assert pav.vertices == tuple(e.start for e in pav.edges)
        assert all(e.length == affine_length(e.start, e.end) > 0 for e in pav.edges)
        # the three properties whose run-time checks the envelope pass made redundant
        lines = {label: (nx, ny, c) for label, nx, ny, c in _pavilion_lines(base, offsets)}
        for e in pav.edges:
            nx, ny, c = lines[e.label]
            assert nx * e.start.x + ny * e.start.y == c == nx * e.end.x + ny * e.end.y
        g = [e.label for e in pav.edges].index("girdle")
        assert (pav.edges[g].start, pav.edges[g].end) == base.girdle()
        m = len(offsets)
        assert (pav.edges[g - 1].label, pav.edges[(g + 1) % (m + 3)].label) == (f"rho_{m + 1}",
                                                                                  "rho_0")
    assert answers["accepted"] >= 300 and answers["NotDelzant"] >= 300, answers
    assert answers["GirdleViolated"] >= 30, answers


def test_pavilion_names_the_least_dropped_ray_though_it_drops_last():
    # rho_3's line drops rho_2; rho_4's then drops rho_3 and, tested against the meet
    # of rho_0 and rho_1, rho_1 too
    base = delta_triangle(29, 22, F(1, 2), F(6, 7))
    offsets = [F(x) for x in ("7/1000", "3/1000", "2/125", "7/250", "3/200", "11/1000",
                              "1/100", "11/500", "11/500", "1/100")]
    assert _reference_answer(base, offsets) == (
        "NotDelzant", "edge rho_1 degenerates in the truncation")
    with pytest.raises(NotDelzant, match=r"^edge rho_1 degenerates in the truncation$"):
        pavilion_polygon(base, offsets)


def test_pavilion_makes_one_meet_per_line(monkeypatch):
    # (p, 1) has the chain (p + 2, 2, ..., 2) of m = p - 1 entries, and these offsets,
    # i(m + 1 - i)/10^9, are discretely convex against it
    bases = {p: delta_triangle(p, 1, F(1, 2), F(1, 3)) for p in (101, 601)}
    offsets = {p: [F(i * (p - i), 10 ** 9) for i in range(1, p)] for p in bases}
    meets = []
    meet = atf._meet
    monkeypatch.setattr(atf, "_meet", lambda *args: meets.append(args) or meet(*args))
    m = 600
    pav = pavilion_polygon(bases[601], offsets[601])
    assert len(pav.edges) == m + 3 and len(meets) <= 3 * (m + 1)
    pav = pavilion_polygon(bases[101], offsets[101])
    assert [(e.label, e.start.as_tuple(), e.end.as_tuple()) for e in pav.edges] == \
        _reference_answer(bases[101], offsets[101])


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
    # _check_vianna checks the area and the determinants; the edge lengths
    # follow from those, and are asserted here
    for t in (vianna_triangle(*r) for e in enumerate_tree(7) for r in _rotations(e.triple)):
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


def test_vianna_self_checks_fire_on_corrupted_triangles(monkeypatch, cold_caches):
    t = vianna_triangle(5, 2, 1)
    assert _validate_vianna(t) is t
    u0, u1, u2 = t.cuts
    corrupted = [
        (ViannaTriangle(t.triple, t.points, (u0 * 2, u1, u2), t.history),
         "cut at vertex 0 is not the node ray"),
        (ViannaTriangle(t.triple, t.points, (-u0, u1, u2), t.history),
         "cut at vertex 0 is not the node ray"),
        # outside the corner on one side only, each side in turn
        (ViannaTriangle(t.triple, t.points, (LatticeVector(1, 0), u1, u2), t.history),
         "cut at vertex 0 is not the node ray"),
        (ViannaTriangle(t.triple, t.points, (LatticeVector(-1, 0), u1, u2), t.history),
         "cut at vertex 0 is not the node ray"),
        (ViannaTriangle((2, 5, 1), t.points, t.cuts, t.history),
         "vertex 0 determinant is not 2^2"),
        (ViannaTriangle(t.triple, tuple(v.scale(2) for v in t.points), t.cuts, t.history),
         "triangle area is not 1/2"),
        # with the area and all three determinants right the lengths follow
        # (g_0*g_2*p_0^2 = D^2 at vertex 0, and so on), so a relabelling that
        # keeps vertex 0's number and gets the edge opposite it wrong fails at
        # a later vertex's determinant
        (ViannaTriangle((5, 29, 2), t.points, t.cuts, t.history),
         "vertex 1 determinant is not 29^2"),
    ]
    for bad, message in corrupted:
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            _validate_vianna(bad)
    # the node ray holds, and a wrong q for the triple fails the cone type: at
    # vertex 0 of (5, 2, 1), q = 3*2*1^{-1} mod 5 = 1, and 5 divides u - q*b
    q_from_triple = atf._q_from_triple
    monkeypatch.setattr(atf, "_q_from_triple", lambda p, u, v: q_from_triple(p, u, v) % p + 1)
    with pytest.raises(AssertionError, match=r"^vertex 0 cone is not of type \(5, 2\)$"):
        _validate_vianna(t)


def test_every_cut_but_the_node_ray_fails_a_mutation():
    # the shear sign is read from the cut, with no search: a cut that is not
    # the node ray is refused on entry, before the triangle is cut
    t = vianna_triangle(5, 2, 1)
    for k in range(3):
        for x, y in itertools.product(range(-4, 5), repeat=2):
            if (x, y) == t.cuts[k].as_tuple():
                continue
            cuts = list(t.cuts)
            cuts[k] = LatticeVector(x, y)
            bad = ViannaTriangle(t.triple, t.points, tuple(cuts), t.history)
            for call in (cut_segment, mutate_triangle):
                with pytest.raises(AssertionError, match=f"^cut at vertex {k} is not the node ray$"):
                    call(bad, k + 1)


def _sides(t, k):
    """The primitive integer vectors along the sides of t leaving vertex k,
    toward vertex k + 1 and toward vertex k + 2, read from its points."""
    v = t.points
    return (_primitive_direction(v[k], v[(k + 1) % 3])[0],
            _primitive_direction(v[k], v[(k + 2) % 3])[0])


def _cone_type(t, k):
    """(p, q) of the cone of t at vertex k, read from the geometry: with b the
    side toward vertex k + 2 and u the cut, q in [1, p] solves u = q*b mod p,
    found from l*b.x + m*b.y = +-1."""
    p, (_, b), u = t.triple[k], _sides(t, k), t.cuts[k]
    r0, r1, l0, l1, m0, m1 = b.x, b.y, 1, 0, 0, 1
    while r1:
        f = r0 // r1
        r0, r1, l0, l1, m0, m1 = r1, r0 - f * r1, l1, l0 - f * l1, m1, m0 - f * m1
    assert abs(r0) == 1
    q = r0 * (l0 * u.x + m0 * u.y) % p or p
    assert (u.x - q * b.x) % p == 0 == (u.y - q * b.y) % p
    return p, q


def test_each_vertex_is_the_wahl_cone_of_its_own_q_to_depth_9():
    # at all 4 602 vertices of every ordering to depth 9, from the points and
    # cuts alone: the node ray p*u = a + b for the sides a and b toward the next
    # and the previous vertex, p | u - q*b for q = 3*next*prev^{-1} mod p, and
    # the shear of _mutate with eps = -sign(c), c = wedge(u, v1 - vk), takes
    # v1 onto the line through vk and v2, beyond vk
    vertices = 0
    for triple in {r for e in enumerate_tree(9) for r in itertools.permutations(e.triple)}:
        t = vianna_triangle(*triple)
        for k in range(3):
            p, nxt, prev = triple[k], triple[(k + 1) % 3], triple[(k + 2) % 3]
            (a, b), u = _sides(t, k), t.cuts[k]
            assert (p * u.x, p * u.y) == (a.x + b.x, a.y + b.y)
            q = 3 * nxt * pow(prev, -1, p) % p
            assert (u.x - q * b.x) % p == 0 == (u.y - q * b.y) % p
            vk, v1, v2 = t.points[k], t.points[(k + 1) % 3], t.points[(k + 2) % 3]
            d1, d2 = v1 - vk, v2 - vk
            c = u.x * d1.y - u.y * d1.x
            eps = -1 if c > 0 else 1
            sx, sy = d1.x + eps * c * u.x, d1.y + eps * c * u.y
            assert c != 0 and sx * d2.y == sy * d2.x and sx * d2.x + sy * d2.y < 0
            vertices += 1
    assert vertices == 4602


def test_each_node_ray_leaves_through_the_opposite_edge_interior_to_depth_9():
    # what _ray_exit argues and no longer checks, from the points and cuts alone:
    # vk + lam*u = v1 + s*(v2 - v1) with lam > 0 and 0 < s < 1, at all 4 602
    # vertices, and the cut segment ends at lam/2
    vertices = 0
    for triple in {r for e in enumerate_tree(9) for r in itertools.permutations(e.triple)}:
        t = vianna_triangle(*triple)
        for k in range(3):
            vk, v1, v2 = t.points[k], t.points[(k + 1) % 3], t.points[(k + 2) % 3]
            u, edge, off = t.cuts[k], v2 - v1, v1 - vk
            w = u.x * edge.y - u.y * edge.x
            assert w != 0
            lam, s = (off.x * edge.y - off.y * edge.x) / w, (off.x * u.y - off.y * u.x) / w
            assert (vk.x + lam * u.x, vk.y + lam * u.y) == (v1.x + s * edge.x, v1.y + s * edge.y)
            assert lam > 0 and 0 < s < 1
            assert cut_segment(t, k + 1) == (vk, point(vk.x + lam * u.x / 2, vk.y + lam * u.y / 2))
            vertices += 1
    assert vertices == 4602


def test_the_cone_types_at_the_culet_flanks_are_the_culet_reports_to_depth_9():
    # vertices 1 and 2 of (p, s2, s3) are the Wahl cones whose dual chains
    # flank the culet of (p, q)
    for p, q in pairs_to_depth(9):
        r = culet_report(p, q)
        t = vianna_triangle(p, r.p2, r.p3)
        assert [_cone_type(t, 1), _cone_type(t, 2)] == [(r.p2, r.left_q), (r.p3, r.right_q)]


def test_a_zero_edge_has_length_0_and_no_direction():
    t = ViannaTriangle((1, 1, 1), (point(0, 0), point(0, 0), point(0, 1)),
                       standard_triangle().cuts)
    assert t.area() == 0 and t.edge_length(2) == 0 and t.edge_length(0) == 1
    for k in (0, 1):
        with pytest.raises(DomainError, match="^zero segment has no direction$"):
            t.vertex_determinant(k)
    assert t.vertex_determinant(2) == 0


def test_vianna_rejects_non_markov():
    with pytest.raises(DomainError):
        vianna_triangle(3, 1, 1)
    with pytest.raises(DomainError):
        vianna_triangle(2, 2, 1)


def test_a_mutation_refuses_a_triangle_whose_triple_is_not_markov():
    # the geometry of the standard triangle would pass; its triple is refused on entry
    s = standard_triangle()
    for vertex in (1, 2, 3):
        with pytest.raises(DomainError, match=r"^\(1, 1, 3\) is not a Markov triple$"):
            mutate_triangle(ViannaTriangle((1, 1, 3), s.points, s.cuts), vertex)


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


def _record_checks(monkeypatch):
    """The (triangle, (D, vertices over D)) of every check from now on: the
    standard triangle's through _validate_vianna, and each mutation's on the
    form its walk carries, both through _check_vianna."""
    check, checked = atf._check_vianna, []

    def recording(t, d, pts):
        checked.append((t, (d, pts)))
        return check(t, d, pts)

    monkeypatch.setattr(atf, "_check_vianna", recording)
    return checked


def test_vianna_cache_validates_each_ordered_triple_once(monkeypatch):
    atf._vianna_kept.clear()
    checked = _record_checks(monkeypatch)
    wanted = set()
    for _ in range(2):
        for p, q in [(29, 7), (433, 104)]:
            triple = culet_report(p, q).triple  # the geometry of a families unit
            predict_regulation(p, q)
            vianna_triangle(*triple)
            wanted.update(_descent(triple))
    assert sorted(t.triple for t, _ in checked) == sorted(wanted)


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
    for cut in [(1, -1), (-1, -1), (2, -1), (-1, 2)]:
        bad = ViannaTriangle(t.triple, t.points, (LatticeVector(*cut),) + t.cuts[1:])
        for call in (cut_segment, mutate_triangle):
            with pytest.raises(AssertionError, match="^cut at vertex 0 is not the node ray$"):
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


@pytest.mark.parametrize("triple", [(2, 1, 1), (5, 29, 433), (1, 89, 233)])
def test_a_mutation_builds_only_its_two_new_cuts(triple):
    # the checks read the sides and cuts as ints, and the two new cuts have
    # their slots written in place: no LatticeVector.__init__ runs
    t = vianna_triangle(*triple)
    for vertex in (1, 2, 3):
        def mutation():
            return mutate_triangle(t, vertex)

        built, result = calls_made(atf._lattice.__code__, mutation)
        assert built == 2 and calls_made(LatticeVector.__init__.__code__, mutation)[0] == 0
        assert result.cuts[vertex - 1] == -t.cuts[vertex - 1]
    # and so does each mutation of a walk up from (1, 1, 1)
    atf._vianna_kept.clear()
    built, t = calls_made(atf._lattice.__code__, lambda: vianna_triangle(*triple))
    assert built == 2 * len(t.history)


def test_a_walk_carries_each_triangle_over_its_one_denominator(monkeypatch):
    carried = _record_checks(monkeypatch)
    wanted = set()
    for e in enumerate_tree(7):
        for triple in itertools.permutations(e.triple):
            atf._vianna_kept.clear()
            vianna_triangle(*triple)
            wanted.update(_descent(triple))
    assert {t.triple for t, _ in carried} == wanted
    for t, form in carried:
        assert form == atf._over_one_denominator(t)


def test_each_kept_triangle_keeps_its_own_form(monkeypatch):
    # walks from the root, from a kept ancestor, and past evictions from a
    # small cache: each form kept is the one _over_one_denominator reads
    monkeypatch.setattr(atf, "_VIANNA_CACHE_SIZE", 60)
    atf._vianna_kept.clear()
    triples = [t for e in enumerate_tree(7) for t in itertools.permutations(e.triple)]
    random.Random(34).shuffle(triples)
    for triple in triples:
        assert vianna_triangle(*triple).triple == triple
        assert len(atf._vianna_kept) <= 60
        for kept, (t, form) in atf._vianna_kept.items():
            assert t.triple == kept and form == atf._over_one_denominator(t)


def test_a_triple_600_levels_deep_is_built_and_each_ancestor_validated_once(monkeypatch):
    triple = fibonacci_markov_triple(1201)  # (1, F_1199, F_1201), 251 digits
    path = _descent(triple)
    assert len(path) == 601
    atf._vianna_kept.clear()
    checked = _record_checks(monkeypatch)
    for _ in range(2):
        t = vianna_triangle(*triple)
        assert t.triple == triple and len(t.history) == 600
    assert sorted(t.triple for t, _ in checked) == sorted(path)


def test_a_walk_reads_the_fractions_of_its_first_triangle_once():
    # the standard triangle's own check reads them too; a mutation never does,
    # and a walk from a kept triangle starts from the form kept with it
    triple = fibonacci_markov_triple(201)  # 100 levels deep
    atf._vianna_kept.clear()
    for call, read in [(lambda: vianna_triangle(*triple), 2), (lambda: vianna_triangle(*triple), 0),
                       (lambda: vianna_triangle(*mutate(triple, 2)), 0)]:
        assert calls_made(atf._over_one_denominator.__code__, call)[0] == read


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


def test_girdle_vector_is_integral_and_displacement_closed_by_construction():
    # what girdle_data argues and no longer checks, for every ordered triple to
    # depth 7 with p1 >= 2 and its q: p1 divides p3'*q1 - 3*p3, and the
    # triangle's beta = p3/(p1*p3') makes p3'*beta = p3/p1, the displacement
    triples = {t for e in enumerate_tree(7) for t in itertools.permutations(e.triple)}
    for p1, p2, p3 in sorted(t for t in triples if t[0] >= 2):
        q1 = 3 * p2 * pow(p3, -1, p1) % p1
        vec, _, disp = girdle_data((p1, p2, p3), q1)
        p3p = 3 * p1 * p3 - p2
        assert vec.x == p3p and (p3p * q1 - 3 * p3) % p1 == 0
        assert vec.y * p1 == p3p * q1 - 3 * p3
        assert p3p * F(p3, p1 * p3p) == disp == F(p3, p1)


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
    out = clip([(F(x), F(y)) for x, y in loop], 1, 0, F(1))
    assert out == [(F(x), F(y)) for x, y in clipped]
