"""Exact integral-affine geometry of moment triangles and their mutations.

The girdled triangle of (p, q) at widths (alpha, beta) has vertices (0,0),
(0,beta), (alpha*p^2, alpha*(pq-1)); its inward toric normals are (1,0) and
(1-pq, p^2) and the girdle normal closes the half-plane description.  Fan
subdivision rays follow the same three-term recursion as the e-sequence, a
pavilion is the exact clip of the triangle by ray half-planes below the
girdle, and Vianna triangles are realized concretely by iterated cut-and-
shear mutations from the standard simplex, with the vertex-determinant and
edge-length laws re-validated after every move.  A bounded cache keeps the
validated triangle of each ordered Markov triple, so the ancestors that the
triangles of one process share are mutated and validated once.

A mutation and its checks run in integers.  The three vertices are integer
pairs over one denominator D, the lcm of the six coordinates' denominators
(p1*p2*p3 on every triangle of the tree to depth 9).  The shear about the
cut vertex is integral and unimodular, so it keeps D; only the node-ray exit
needs D*|wedge(u, v2 - v1)|, and Fractions are built just for the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _EXPORTS
from .exact_core import (
    DomainError,
    LatticeVector,
    Rational,
    RationalPoint,
    _clear_denominators,
    _continuants,
    _fraction,
    _Record,
    _primitive_direction,
    affine_length,
    format_rational,
    point,
    primitive_part,
    wedge,
)
from .hirzebruch_jung import _chain_length, _require_wahl_pair, wahl_data
from .markov import (CompanionMismatch, _corner, _descend, _girdle, _q_from_triple, mutate,
                     validate_triple)

__all__ = _EXPORTS["atf_geometry"]


_VIANNA_CACHE_SIZE = 1024  # validated Vianna triangles kept, keyed on the ordered triple
_vianna_kept: dict = {}  # those triangles, least recently used first


class GirdleViolated(DomainError):
    """An offset cuts into the girdle segment."""


class NotDelzant(DomainError):
    """Some required edge of the truncated polygon degenerates."""


def _meet(n1: LatticeVector, c1: Rational, n2: LatticeVector, c2: Rational) -> RationalPoint:
    """Intersection of the lines n1.x = c1 and n2.x = c2."""
    det = wedge(n1, n2)
    if det == 0:
        raise DomainError("parallel lines do not meet")
    return RationalPoint(Fraction(c1 * n2.y - c2 * n1.y, det), Fraction(n1.x * c2 - n2.x * c1, det))


class GirdledTriangle(_Record):
    __slots__ = ("p", "q", "alpha", "beta")
    p: int
    q: int
    alpha: Rational
    beta: Rational

    @property
    def origin(self) -> RationalPoint:
        return point(0, 0)

    @property
    def apex(self) -> RationalPoint:
        return point(self.alpha * self.p * self.p, self.alpha * (self.p * self.q - 1))

    @property
    def top(self) -> RationalPoint:
        return point(0, self.beta)

    def loop(self) -> tuple[RationalPoint, RationalPoint, RationalPoint]:
        """Vertices in anticlockwise order."""
        return (self.origin, self.apex, self.top)

    @property
    def normal_first(self) -> LatticeVector:
        return LatticeVector(1, 0)

    @property
    def normal_last(self) -> LatticeVector:
        return LatticeVector(1 - self.p * self.q, self.p * self.p)

    @property
    def girdle_normal(self) -> LatticeVector:
        a, b = self.alpha, self.beta
        gx = a * self.p * self.q - a - b
        gy = -a * self.p * self.p
        return _clear_denominators(gx, gy)[0]

    @property
    def girdle_offset(self) -> Rational:
        """Offset c with girdle on gamma.x = c, triangle side gamma.x >= c."""
        g = self.girdle_normal
        return Fraction(g.x) * self.top.x + Fraction(g.y) * self.top.y

    def girdle(self) -> tuple[RationalPoint, RationalPoint]:
        return (self.apex, self.top)


def delta_triangle(p: int, q: int, alpha: Rational, beta: Rational) -> GirdledTriangle:
    alpha, beta = Fraction(alpha), Fraction(beta)
    _require_wahl_pair(p, q)
    if alpha <= 0 or beta <= 0:
        raise DomainError("sizes must be positive")
    t = GirdledTriangle(p, q, alpha, beta)
    # the half-plane description must reproduce the stated vertices
    if wedge(t.normal_first, t.normal_last) != p * p:
        raise AssertionError("toric normals do not span determinant p^2")
    c = t.girdle_offset
    if _meet(t.normal_first, Fraction(0), t.normal_last, Fraction(0)) != t.origin:
        raise AssertionError("toric corner is not the origin")
    if _meet(t.normal_first, Fraction(0), t.girdle_normal, c) != t.top:
        raise AssertionError("girdle/left corner mismatch")
    if _meet(t.normal_last, Fraction(0), t.girdle_normal, c) != t.apex:
        raise AssertionError("girdle/right corner mismatch")
    if affine_length(t.origin, t.top) != beta or affine_length(t.origin, t.apex) != alpha:
        raise AssertionError("toric edge lengths are not (beta, alpha)")
    return t


def fan_rays(p: int, q: int) -> list[LatticeVector]:
    """Inward normals rho_0 .. rho_{m+1} of the subdivided fan.

    rho_{k+1} = b_k rho_k - rho_{k-1} from (1, 0), (0, 1) runs the recurrence
    in each coordinate: the x are the continuants seeded 1, 0 and the y those
    seeded 0, 1, which are e.  Both checks run on those ints, and each ray is
    built once."""
    w = wahl_data(p, q)
    xs, ys = _continuants(w.chain, 1, 0), w.e
    if p >= 2 and (xs[-1], ys[-1]) != (1 - p * q, p * p):
        raise AssertionError(f"terminal ray mismatch for ({p},{q})")
    for k in range(len(xs) - 1):
        if xs[k] * ys[k + 1] - ys[k] * xs[k + 1] != 1:
            raise AssertionError("consecutive rays not unimodular")
    return [LatticeVector(x, y) for x, y in zip(xs, ys)]


def _clip(loop: list[RationalPoint], n: LatticeVector, c: Rational) -> list[RationalPoint]:
    """Keep the part of the convex anticlockwise loop with n.x >= c."""
    out: list[RationalPoint] = []
    k = len(loop)
    for idx in range(k):
        a, b = loop[idx], loop[(idx + 1) % k]
        fa = Fraction(n.x) * a.x + Fraction(n.y) * a.y - c
        fb = Fraction(n.x) * b.x + Fraction(n.y) * b.y - c
        if fa >= 0:
            out.append(a)
        if (fa > 0 > fb) or (fa < 0 < fb):
            out.append(a + (b - a).scale(fa / (fa - fb)))
    dedup: list[RationalPoint] = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


class PavilionEdge(_Record):
    __slots__ = ("label", "start", "end", "length")
    label: str  # "rho_<i>" or "girdle"
    start: RationalPoint
    end: RationalPoint
    length: Rational


class PavilionPolygon(_Record):
    __slots__ = ("base", "offsets", "vertices", "edges")
    base: GirdledTriangle
    offsets: tuple[Rational, ...]
    vertices: tuple[RationalPoint, ...]
    edges: tuple[PavilionEdge, ...]


def pavilion_polygon(base: GirdledTriangle, offsets) -> PavilionPolygon:
    offsets = tuple(Fraction(x) for x in offsets)
    # the count is refused before the fan of the chain is built
    m = _chain_length(base.p * base.p, base.p * base.q - 1)
    if len(offsets) != m:
        raise DomainError(f"need {m} offsets for ({base.p},{base.q}), got {len(offsets)}")
    if any(x <= 0 for x in offsets):
        raise DomainError("offsets must be positive")
    rays = fan_rays(base.p, base.q)
    if len(rays) != m + 2:
        raise AssertionError(f"the fan of ({base.p},{base.q}) does not have {m} inner rays")
    constraints = list(zip(rays[1:-1], offsets))
    # the girdle must stay strictly inside every half-plane
    for n, c in constraints:
        for v in base.girdle():
            if not Fraction(n.x) * v.x + Fraction(n.y) * v.y > c:
                raise GirdleViolated(
                    f"offset {c} along {n.as_tuple()} reaches the girdle"
                )
    loop = list(base.loop())
    for n, c in constraints:
        loop = _clip(loop, n, c)
    # label every edge by the constraint line it lies on
    lines = [(f"rho_0", base.normal_first, Fraction(0)),
             (f"rho_{m + 1}", base.normal_last, Fraction(0)),
             ("girdle", base.girdle_normal, base.girdle_offset)]
    lines += [(f"rho_{i}", n, c) for i, (n, c) in enumerate(constraints, start=1)]
    edges = []
    for idx in range(len(loop)):
        a, b = loop[idx], loop[(idx + 1) % len(loop)]
        for label, n, c in lines:
            if (Fraction(n.x) * a.x + Fraction(n.y) * a.y == c
                    and Fraction(n.x) * b.x + Fraction(n.y) * b.y == c):
                edges.append(PavilionEdge(label, a, b, affine_length(a, b)))
                break
        else:
            raise AssertionError("polygon edge on no constraint line")
    seen = [e.label for e in edges]
    for label, _, _ in lines:
        if seen.count(label) != 1:
            raise NotDelzant(f"edge {label} degenerates in the truncation")
    if any(e.length <= 0 for e in edges):
        raise NotDelzant("zero-length edge in the truncation")
    # the girdle keeps its original endpoints and its prescribed neighbours
    g = seen.index("girdle")
    if {edges[g].start, edges[g].end} != set(base.girdle()):
        raise AssertionError("girdle endpoints moved under truncation")
    if not (seen[g - 1] == f"rho_{m + 1}" and seen[(g + 1) % len(seen)] == "rho_0"):
        raise AssertionError("girdle-adjacent edges have wrong normals")
    return PavilionPolygon(base, offsets, tuple(loop), tuple(edges))


class ViannaTriangle(_Record):
    """A concrete base diagram with vertex numbers (p1, p2, p3).

    The vertex at position i has determinant p_i^2, the opposite edge has
    affine length p_i/(p_{i+1} p_{i+2}), and cuts[i] is the primitive node
    direction at vertex i.  history records the mutation word from (1,1,1).
    """

    __slots__ = ("triple", "points", "cuts", "history")
    triple: tuple[int, int, int]
    points: tuple[RationalPoint, RationalPoint, RationalPoint]
    cuts: tuple[LatticeVector, LatticeVector, LatticeVector]
    history: tuple[int, ...]
    _defaults = ((),)

    def area(self) -> Rational:
        return _area(*_edges(self))

    def vertex_determinant(self, k: int) -> int:
        """Determinant at vertex k, numbered 0, 1, 2."""
        return _vertex_determinant(_edges(self)[1], _position(k, 0))

    def edge_length(self, k: int) -> Rational:
        """Affine length of the edge opposite vertex k, numbered 0, 1, 2."""
        d, edges = _edges(self)
        return Fraction(edges[(_position(k, 0) + 1) % 3][1], d)

    def to_json(self) -> dict:
        return {
            "triple": list(self.triple),
            "vertices": [[format_rational(v.x), format_rational(v.y)]
                         for v in self.points],
            "cuts": [list(c.as_tuple()) for c in self.cuts],
            "history": list(self.history),
        }


def _position(vertex: int, first: int) -> int:
    """The position 0..2 of a vertex of a triangle whose vertices are numbered
    from `first`; a DomainError for a number that names no vertex."""
    if vertex not in range(first, first + 3):
        raise DomainError(f"vertex must be {first}, {first + 1} or {first + 2}: {vertex}")
    return vertex - first


def _over_one_denominator(t: ViannaTriangle) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(X_i, Y_i)]): vertex i is (X_i/D, Y_i/D), D the lcm of the denominators."""
    d = lcm(*(c.denominator for v in t.points for c in (v.x, v.y)))
    return d, [(v.x.numerator * (d // v.x.denominator), v.y.numerator * (d // v.y.denominator))
               for v in t.points]


def _edges(t: ViannaTriangle) -> tuple[int, list[tuple[LatticeVector, int]]]:
    """(D, [(u_k, g_k)]): edge k runs from vertex k to vertex k+1 and is g_k/D
    times the primitive integer vector u_k (g_k = 0 for a zero edge)."""
    d, pts = _over_one_denominator(t)
    return d, [primitive_part(LatticeVector(bx - ax, by - ay))
               for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1])]


def _area(d: int, edges: list[tuple[LatticeVector, int]]) -> Rational:
    (u0, g0), _, (u2, g2) = edges
    return Fraction(g0 * g2 * abs(wedge(u0, u2)), 2 * d * d)


def _vertex_determinant(edges: list[tuple[LatticeVector, int]], k: int) -> int:
    # vertex k is where edge k + 2 ends and edge k starts
    (u1, g1), (u2, g2) = edges[k], edges[(k + 2) % 3]
    if not (g1 and g2):
        raise DomainError("zero segment has no direction")
    return abs(wedge(u1, u2))


def _validate_vianna(t: ViannaTriangle) -> ViannaTriangle:
    validate_triple(t.triple)
    # vertex k sees edges k and k+2
    d, edges = _edges(t)
    (u0, g0), _, (u2, g2) = edges
    if g0 * g2 * abs(wedge(u0, u2)) != d * d:  # twice the area, over D^2
        raise AssertionError("mutation failed to preserve area")
    # so no edge has length 0
    for k in range(3):
        pk, pj, pl = t.triple[k], t.triple[(k + 1) % 3], t.triple[(k + 2) % 3]
        d1 = edges[k][0]
        d2 = -edges[(k + 2) % 3][0]
        if abs(wedge(d1, d2)) != pk * pk:
            raise AssertionError(f"vertex {k} determinant is not {pk}^2")
        # g/D must be the box corner _corner(pj, pk, pl) = pk/(pj*pl)
        if edges[(k + 1) % 3][1] * pj * pl != pk * d:
            raise AssertionError(f"edge opposite vertex {k} has wrong length")
        u = t.cuts[k]
        if not u.is_primitive():
            raise AssertionError(f"cut at vertex {k} not primitive")
        s = 1 if wedge(d1, d2) > 0 else -1
        if not (s * wedge(d1, u) > 0 and s * wedge(u, d2) > 0):
            raise AssertionError(f"cut at vertex {k} does not point inward")
    return t


def standard_triangle() -> ViannaTriangle:
    """The base diagram of the unit simplex, numbers (1,1,1)."""
    return _validate_vianna(ViannaTriangle(
        (1, 1, 1),
        (point(0, 0), point(1, 0), point(0, 1)),
        (LatticeVector(1, 1), LatticeVector(-2, 1), LatticeVector(1, -2)),
    ))


def _ray_exit(t: ViannaTriangle, k: int) -> tuple[int, list[tuple[int, int]], int, tuple[int, int]]:
    """(D, vertices over D, w, E): the node ray from vertex k crosses the opposite
    edge's interior at E/(D*w), for w = |wedge(u, v2 - v1)| over D."""
    d, pts = _over_one_denominator(t)
    (xk, yk), (x1, y1), (x2, y2) = pts[k], pts[(k + 1) % 3], pts[(k + 2) % 3]
    u = t.cuts[k]
    w = u.x * (y2 - y1) - u.y * (x2 - x1)
    if w == 0:
        raise AssertionError("node ray parallel to the opposite edge")
    # vk + (r/(D*w)) u = v1 + s (v2 - v1), with r over D^2 and s = -a/w
    r = (x1 - xk) * (y2 - y1) - (y1 - yk) * (x2 - x1)
    a = u.x * (y1 - yk) - u.y * (x1 - xk)
    if w < 0:
        w, r, a = -w, -r, -a
    if not (r > 0 and 0 < -a < w):
        raise AssertionError("node ray misses the opposite edge interior")
    return d, pts, w, (xk * w + u.x * r, yk * w + u.y * r)


def cut_segment(t: ViannaTriangle, vertex: int) -> tuple[RationalPoint, RationalPoint]:
    """Branch-cut segment drawn in diagrams: the vertex and the node point
    halfway to the opposite edge."""
    k = _position(vertex, 1)
    d, pts, w, (ex, ey) = _ray_exit(t, k)
    (xk, yk), m = pts[k], 2 * d * w
    return t.points[k], RationalPoint(Fraction(xk * w + ex, m), Fraction(yk * w + ey, m))


def mutate_triangle(t: ViannaTriangle, vertex: int) -> ViannaTriangle:
    """Cut along the node ray at the chosen vertex (1, 2 or 3), shear one
    half straight, and reassemble; the number at that position mutates."""
    k = _position(vertex, 1)
    j1, j2 = (k + 1) % 3, (k + 2) % 3
    d, pts, w, (ex, ey) = _ray_exit(t, k)
    (xk, yk), (x1, y1), (x2, y2) = pts[k], pts[j1], pts[j2]
    u = t.cuts[k]
    # the shear x -> x + eps*wedge(u, x - vk)*u is integral: v1 stays over D
    c = u.x * (y1 - yk) - u.y * (x1 - xk)
    for eps in (1, -1):
        sx, sy = x1 - xk + eps * c * u.x, y1 - yk + eps * c * u.y
        # the old vertex must flatten: collinear with vk strictly between
        if sx * (y2 - yk) == sy * (x2 - xk) and sx * (x2 - xk) + sy * (y2 - yk) < 0:
            break
    else:
        raise AssertionError("no unimodular shear straightens the cut vertex")
    points, cuts = list(t.points), list(t.cuts)
    points[k] = RationalPoint(_fraction(ex, d * w), _fraction(ey, d * w))
    points[j1] = RationalPoint(_fraction(xk + sx, d), _fraction(yk + sy, d))
    cuts[k], cuts[j1] = -u, cuts[j1] + wedge(u, cuts[j1]) * eps * u
    return _validate_vianna(ViannaTriangle(
        mutate(t.triple, vertex), tuple(points), tuple(cuts), t.history + (vertex,)
    ))


def vianna_triangle(p1: int, p2: int, p3: int) -> ViannaTriangle:
    """A concrete base diagram for the ordered triple, built by mutations.
    The descent is walked down to the first kept triangle, or to (1, 1, 1),
    and mutated upward one level at a time, so the stack stays flat.  Each
    kept triangle was mutated and validated once; it is frozen, so callers
    share it."""
    triple, cuts = validate_triple((p1, p2, p3)), []
    while (t := _vianna_kept.pop(triple, None)) is None and triple != (1, 1, 1):
        k, triple = _descend(triple)
        cuts.append(k + 1)
    t = t or standard_triangle()
    while True:  # keep t as the most recently used, then mutate it one level up
        _vianna_kept[t.triple] = t
        if len(_vianna_kept) > _VIANNA_CACHE_SIZE:
            del _vianna_kept[next(iter(_vianna_kept))]
        if not cuts:
            return t
        t = mutate_triangle(t, cuts.pop())


def triangle_signature(t: ViannaTriangle) -> tuple:
    """Integral-affine equivalence key: sorted determinants, sorted edge
    lengths, area."""
    d, edges = _edges(t)  # derived once for all seven values
    dets = tuple(sorted(_vertex_determinant(edges, k) for k in range(3)))
    lengths = tuple(sorted(Fraction(g, d) for _, g in edges))
    return (dets, lengths, _area(d, edges))


def girdle_data(triple, q1: int) -> tuple[LatticeVector, Rational, Rational]:
    """Primitive girdle vector, girdle affine length, and displacement for
    the ordered triple (p1, p2, p3) seen from the p1 vertex."""
    p1, p2, p3 = validate_triple(triple)
    if q1 != _q_from_triple(p1, p2, p3):
        raise CompanionMismatch(
            f"q={q1} does not match the ordered triple {tuple(triple)}"
        )
    p3p, length, disp = _girdle(p1, p2, p3)
    num = p3p * q1 - 3 * p3
    if num % p1 != 0:
        raise AssertionError(f"girdle vector not integral for {triple}")
    vec = LatticeVector(p3p, num // p1)
    # independent re-derivation from the concrete moment triangle
    tri = delta_triangle(p1, q1, Fraction(p3, p1 * p2), Fraction(p3, p1 * p3p))
    direction, tri_length = _primitive_direction(tri.top, tri.apex)
    if direction != vec:
        raise AssertionError("girdle vector disagrees with vertex arithmetic")
    if tri_length != length:
        raise AssertionError("girdle length disagrees with vertex arithmetic")
    if Fraction(vec.x) * tri.beta != disp:
        raise AssertionError("displacement disagrees with vertex arithmetic")
    return vec, length, disp


def visible_ellipsoid_bounds(triple, vertex: int) -> tuple[Rational, Rational, int]:
    """Open bounds (alpha_max, beta_max) and companion q at a triangle vertex, whose
    corner is Delta_{p,q}(alpha_max, beta_max) up to GL2(Z), the edge to the next vertex
    on the apex edge: at vertex 1 of (p, m_{i+1}, m_i), (beta_sup(i), alpha_sup(i), q)."""
    k = _position(vertex, 1)
    validate_triple(triple)
    pi = triple[k]
    pnext = triple[(k + 1) % 3]
    pprev = triple[(k + 2) % 3]
    q = _q_from_triple(pi, pnext, pprev)
    return _corner(pi, pprev, pnext), _corner(pi, pnext, pprev), q
