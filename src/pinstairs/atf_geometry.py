"""Exact integral-affine geometry of moment triangles and their mutations.

The girdled triangle of (p, q) at widths (alpha, beta) has vertices (0,0),
(0,beta), (alpha*p^2, alpha*(pq-1)); its inward toric normals are (1,0) and
(1-pq, p^2) and the girdle normal closes the half-plane description, whose
corner at the apex alone is checked: the rest holds by construction.  Fan
subdivision rays follow the same three-term recursion as the e-sequence, a
pavilion truncates the triangle below the girdle by ray half-planes, their
envelope kept in one stack pass over the rays in angular order, and Vianna
triangles are realized concretely by iterated cut-and-shear mutations from
the standard simplex.  Each triangle is checked where it enters, as input to
mutate_triangle or cut_segment or as a mutation's child: the area and vertex
determinants, which force the edge lengths, and at each vertex p the node ray
p*u = a + b of the sides a and b, with p | u - q*b: the Wahl cone 1/p^2(1, pq - 1)
of the triple's own q.  What follows, the ray's exit and the shear's sign, is not
rechecked.  A bounded cache keeps each ordered Markov triple's validated
triangle, so the ancestors one process's triangles share are checked once.

A mutation and its checks run in integers, on the vertices as integer pairs
over one denominator D, the lcm of their denominators (p1*p2*p3 to depth 9).
The shear about the cut vertex is integral and unimodular, so it keeps D; only
the node-ray exit needs D*|wedge(u, v2 - v1)|.  Each triangle is kept with that
form, and a walk carries it up, reading Fractions of the standard triangle
alone: each child's D and vertices follow from its numerators over D*w and one
gcd.  Just the result's Fractions and cuts are built, the cuts' slots written
directly, as are the fan rays'.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _EXPORTS
from .exact_core import (
    DomainError,
    LatticeVector,
    Rational,
    RationalPoint,
    _clear_denominators,
    _continuants,
    _fraction,
    _new_object,
    _Record,
    _primitive_direction,
    affine_length,
    format_rational,
    point,
    wedge,
)
from .hirzebruch_jung import _chain_length, _require_wahl_pair, wahl_data
from .markov import (CompanionMismatch, _corner, _descend, _girdle, _q_from_triple, mutate,
                     validate_triple)

__all__ = _EXPORTS["atf_geometry"]


_VIANNA_CACHE_SIZE = 1024  # validated Vianna triangles kept, keyed on the ordered triple
_vianna_kept: dict = {}  # those triangles with their forms over D, least recently used first
_set_x, _set_y = LatticeVector._setters  # the slot setters _lattice calls


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
    # the half-plane description meets at origin and top by construction:
    # wedge((1, 0), (1 - pq, p^2)) = p^2 != 0 with both toric offsets 0, and the
    # girdle offset is gamma.top with gamma_y, a positive multiple of -alpha*p^2,
    # not 0.  gcd(p^2, pq - 1) = 1 makes the apex's direction primitive, so the
    # toric edges have lengths (beta, alpha).  The apex holds only by the
    # algebra gamma.apex = -alpha*beta*p^2 = gamma.top, so it is checked
    if _meet(t.normal_last, Fraction(0), t.girdle_normal, t.girdle_offset) != t.apex:
        raise AssertionError("girdle/right corner mismatch")
    return t


def _lattice(x: int, y: int) -> LatticeVector:
    """LatticeVector(x, y) for ints x and y, which the caller proves, with its
    two slots written directly, as exact_core._coprime_fraction does."""
    v = _new_object(LatticeVector)
    _set_x(v, x)
    _set_y(v, y)
    return v


def fan_rays(p: int, q: int) -> list[LatticeVector]:
    """Inward normals rho_0 .. rho_{m+1} of the subdivided fan.

    rho_{k+1} = b_k rho_k - rho_{k-1} from (1, 0), (0, 1) runs the recurrence
    in each coordinate: the x are the continuants seeded 1, 0 and the y those
    seeded 0, 1, which are e.  The terminal ray is (1 - pq, p^2) unchecked:
    x = (f - (pq - 1)e)/p^2 has the seeds 1, 0 and the recurrence, so _wahl's
    checked ends e = p^2, f = 0 give x = 1 - pq.  Each ray is built once, by
    _lattice: the continuants of an int chain are ints."""
    w = wahl_data(p, q)
    xs, ys = _continuants(w.chain, 1, 0), w.e
    # consecutive rays are unimodular for any chain: x and y solve one recurrence,
    # so x_k y_{k+1} - y_k x_{k+1} is constant, equal to x_0 y_1 - y_0 x_1 = 1
    return list(map(_lattice, xs, ys))


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
    """The truncation of base by the cuts rho_i.x >= l_i below its girdle, in O(m): the
    rays are in strict angular order, so one stack pass keeps the envelope of the lines
    rho_i.x = l_i (l_0 = l_{m+1} = 0), each pushed once, with one meet."""
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
    # the girdle must stay strictly inside every half-plane
    for n, c in zip(rays[1:-1], offsets):
        for v in base.girdle():
            if not n.x * v.x + n.y * v.y > c:
                raise GirdleViolated(f"offset {c} along {n.as_tuple()} reaches the girdle")
    # so rho_0, rho_{m+1} and the girdle keep edges: rho_0 is never popped, rho_{m+1} comes last
    levels, kept, meets = (Fraction(0), *offsets, Fraction(0)), [0], []
    for j in range(1, m + 2):
        n, c = rays[j], levels[j]
        while meets and not n.x * meets[-1].x + n.y * meets[-1].y > c:
            del kept[-1], meets[-1]
        meets.append(_meet(rays[kept[-1]], levels[kept[-1]], n, c))
        kept.append(j)
    if len(kept) != m + 2:
        i = next(i for i, j in enumerate(kept) if i != j)  # the least dropped
        raise NotDelzant(f"edge rho_{i} degenerates in the truncation")
    # each edge lies on its labelled line: meets[i] is where rho_i meets rho_{i+1}
    # the girdle runs from apex to top, which lie strictly inside every cut
    # its neighbours are rho_{m+1}, ending at apex, and rho_0, starting at top
    # no edge has length 0: each meet lies strictly inside the line holding the next one
    vertices = (meets[-1], base.apex, base.top, *meets[:-1])
    labels = (f"rho_{m + 1}", "girdle", *(f"rho_{i}" for i in range(m + 1)))
    return PavilionPolygon(base, offsets, vertices, tuple(
        PavilionEdge(label, a, b, affine_length(a, b))
        for label, a, b in zip(labels, vertices, vertices[1:] + vertices[:1])))


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
        d, pts = _over_one_denominator(self)
        return _area(d, _edges(pts))

    def vertex_determinant(self, k: int) -> int:
        """Determinant at vertex k, numbered 0, 1, 2."""
        return _vertex_determinant(_edges(_over_one_denominator(self)[1]), _position(k, 0))

    def edge_length(self, k: int) -> Rational:
        """Affine length of the edge opposite vertex k, numbered 0, 1, 2."""
        d, pts = _over_one_denominator(self)
        return Fraction(_edges(pts)[(_position(k, 0) + 1) % 3][2], d)

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


def _edges(pts: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """[(u_x, u_y, g_k)] for the vertices over one denominator D: edge k runs from
    vertex k to vertex k+1 and is g_k/D times the primitive integer vector
    (u_x, u_y) (all 0 for a zero edge)."""
    edges = []
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        x, y = bx - ax, by - ay
        g = gcd(x, y)
        edges.append((x // g, y // g, g) if g else (0, 0, 0))
    return edges


def _area(d: int, edges: list[tuple[int, int, int]]) -> Rational:
    (x0, y0, g0), _, (x2, y2, g2) = edges
    return Fraction(g0 * g2 * abs(x0 * y2 - y0 * x2), 2 * d * d)


def _vertex_determinant(edges: list[tuple[int, int, int]], k: int) -> int:
    # vertex k is where edge k + 2 ends and edge k starts
    (x1, y1, g1), (x2, y2, g2) = edges[k], edges[(k + 2) % 3]
    if not (g1 and g2):
        raise DomainError("zero segment has no direction")
    return abs(x1 * y2 - y1 * x2)


def _validate_vianna(t: ViannaTriangle) -> ViannaTriangle:
    validate_triple(t.triple)
    return _check_vianna(t, *_over_one_denominator(t))


def _check_vianna(t: ViannaTriangle, d: int, pts: list[tuple[int, int]]) -> ViannaTriangle:
    """_validate_vianna's checks after the triple's, on t's vertices over D."""
    # vertex k sees edges k and k+2
    edges = _edges(pts)
    (x0, y0, g0), _, (x2, y2, g2) = edges
    if g0 * g2 * abs(x0 * y2 - y0 * x2) != d * d:  # twice the area, over D^2
        raise AssertionError("triangle area is not 1/2")
    # so no edge has length 0.  Any two edges of the closed triangle span twice
    # the area, so with the determinants below g_0*g_2*p_0^2 = g_0*g_1*p_1^2 =
    # g_1*g_2*p_2^2 = D^2: each length g_k/D is p_{k+2}/(p_k*p_{k+1}), and a
    # wrong one fails some vertex's determinant check
    p = t.triple
    for k, pk in enumerate(p):
        # the sides leaving vertex k: (ax, ay) along edge k, -(bx, by) back along edge k+2
        (ax, ay, _), (bx, by, _) = edges[k], edges[(k + 2) % 3]
        if abs(ay * bx - ax * by) != pk * pk:
            raise AssertionError(f"vertex {k} determinant is not {pk}^2")
        ux, uy = t.cuts[k].as_tuple()
        if (pk * ux, pk * uy) != (ax - bx, ay - by):
            raise AssertionError(f"cut at vertex {k} is not the node ray")
        qk = _q_from_triple(pk, p[(k + 1) % 3], p[(k + 2) % 3])
        if (ux + qk * bx) % pk or (uy + qk * by) % pk:
            raise AssertionError(f"vertex {k} cone is not of type ({pk}, {qk})")
        # so, with a = (ax, ay) and b = -(bx, by), the cut is inward and primitive:
        # u = (a + b)/pk is a positive combination of the two sides.  M = [(u - qk*b)/pk
        # | b] is integral, det M = wedge(a, b)/pk^2 = +-1 by the determinant check, and
        # M sends (pk, qk) to u, with gcd(pk, qk) = 1, so u is primitive
    return t


def standard_triangle() -> ViannaTriangle:
    """The base diagram of the unit simplex, numbers (1,1,1)."""
    return _validate_vianna(ViannaTriangle(
        (1, 1, 1),
        (point(0, 0), point(1, 0), point(0, 1)),
        (LatticeVector(1, 1), LatticeVector(-2, 1), LatticeVector(1, -2)),
    ))


def _ray_exit(pts: list[tuple[int, int]], u: LatticeVector, k: int) -> tuple[int, tuple[int, int]]:
    """(w, E): over a triangle's one denominator D, the node ray u from vertex k
    crosses the opposite edge's interior at E/(D*w), for w = |wedge(u, v2 - v1)|,
    unchecked: p*u = a + b (_check_vianna) makes u = l*(v1 - vk) + m*(v2 - vk),
    l, m > 0, so the ray leaves at vk + u/(l + m), and |w| = (l + m)*D*2*area."""
    (xk, yk), (x1, y1), (x2, y2) = pts[k], pts[(k + 1) % 3], pts[(k + 2) % 3]
    w = u.x * (y2 - y1) - u.y * (x2 - x1)
    # vk + (r/(D*w)) u = v1 + s (v2 - v1), with r over D^2
    r = (x1 - xk) * (y2 - y1) - (y1 - yk) * (x2 - x1)
    if w < 0:  # so D*w, the child's denominator, is positive
        w, r = -w, -r
    return w, (xk * w + u.x * r, yk * w + u.y * r)


def cut_segment(t: ViannaTriangle, vertex: int) -> tuple[RationalPoint, RationalPoint]:
    """Branch-cut segment drawn in diagrams: the vertex and the node point
    halfway to the opposite edge; the triangle is checked on entry."""
    k = _position(vertex, 1)
    d, pts = _over_one_denominator(_validate_vianna(t))
    w, (ex, ey) = _ray_exit(pts, t.cuts[k], k)
    (xk, yk), m = pts[k], 2 * d * w
    return t.points[k], RationalPoint(Fraction(xk * w + ex, m), Fraction(yk * w + ey, m))


def mutate_triangle(t: ViannaTriangle, vertex: int) -> ViannaTriangle:
    """Cut along the node ray at the chosen vertex (1, 2 or 3), shear one
    half straight, and reassemble; the number at that position mutates.  Checked on entry."""
    k = _position(vertex, 1)
    return _mutate(_validate_vianna(t), _over_one_denominator(t), k)[0]


def _mutate(t: ViannaTriangle, form: tuple, k: int) -> tuple[ViannaTriangle, tuple]:
    """mutate_triangle at position k, on t's vertices over one denominator, (D,
    [(X_i, Y_i)]): the validated child and its own such form, from its integers."""
    j1, j2 = (k + 1) % 3, (k + 2) % 3
    d, pts = form
    u = t.cuts[k]
    w, (ex, ey) = _ray_exit(pts, u, k)
    (xk, yk), (x1, y1), (x2, y2) = pts[k], pts[j1], pts[j2]
    # the shear x -> x + eps*wedge(u, x - vk)*u is integral: v1 stays over D.  For
    # sides a, b toward v1, v2, the node ray p*u = a + b (_check_vianna, on entry or
    # on t as a child) gives c = wedge(u, v1 - vk) = len*wedge(b, a)/p, with
    # wedge(b, a) = +-p^2: eps = -sign(c) takes a to -b, so v1 lands beyond vk from v2
    c = u.x * (y1 - yk) - u.y * (x1 - xk)
    eps = -1 if c > 0 else 1
    sx, sy = x1 - xk + eps * c * u.x, y1 - yk + eps * c * u.y
    points, cuts = list(t.points), list(t.cuts)
    points[k] = RationalPoint(_fraction(ex, d * w), _fraction(ey, d * w))
    points[j1] = RationalPoint(_fraction(xk + sx, d), _fraction(yk + sy, d))
    # the cut at j1 takes the same shear: c1 + eps*wedge(u, c1)*u
    cx, cy = cuts[j1].x, cuts[j1].y
    f = eps * (u.x * cy - u.y * cx)
    cuts[k], cuts[j1] = _lattice(-u.x, -u.y), _lattice(cx + f * u.x, cy + f * u.y)
    # Markov unchecked: entry k becomes the other root of X^2 - 3yz*X + y^2 + z^2 (product > 0)
    child = ViannaTriangle(mutate(t.triple, k + 1), tuple(points), tuple(cuts),
                           t.history + (k + 1,))
    # over D*w the numerators are these; dividing out their gcd with D*w leaves
    # the lcm of the reduced denominators, as _over_one_denominator finds it
    over = [None] * 3
    over[k], over[j1], over[j2] = (ex, ey), ((xk + sx) * w, (yk + sy) * w), (x2 * w, y2 * w)
    g = gcd(d * w, ex, ey, *over[j1], *over[j2])
    form = (d * w // g, [(x // g, y // g) for x, y in over])
    return _check_vianna(child, *form), form


def vianna_triangle(p1: int, p2: int, p3: int) -> ViannaTriangle:
    """A concrete base diagram for the ordered triple, built by mutations.
    The descent is walked down to the first kept triangle, or to (1, 1, 1),
    and mutated upward one level at a time, so the stack stays flat.  Each
    kept triangle was mutated and validated once; it is frozen, so callers
    share it."""
    triple, cuts = validate_triple((p1, p2, p3)), []
    while (kept := _vianna_kept.pop(triple, None)) is None and triple != (1, 1, 1):
        k, triple = _descend(triple)
        cuts.append(k)
    t, form = kept or (standard_triangle(), None)
    form = form or _over_one_denominator(t)  # each mutation derives the next
    while True:  # keep t as the most recently used, then mutate it one level up
        _vianna_kept[t.triple] = t, form
        if len(_vianna_kept) > _VIANNA_CACHE_SIZE:
            del _vianna_kept[next(iter(_vianna_kept))]
        if not cuts:
            return t
        t, form = _mutate(t, form, cuts.pop())


def triangle_signature(t: ViannaTriangle) -> tuple:
    """Integral-affine equivalence key: sorted determinants, sorted edge
    lengths, area."""
    d, pts = _over_one_denominator(t)
    edges = _edges(pts)  # derived once for all seven values
    dets = tuple(sorted(_vertex_determinant(edges, k) for k in range(3)))
    lengths = tuple(sorted(Fraction(g, d) for _, _, g in edges))
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
    # integral by construction: validate_triple checked p2^2 + p3^2 = 0 mod p1
    # and the guard q1 = 3*p2*p3^{-1} mod p1, so as p3' = -p2 mod p1,
    # p3'*q1 - 3*p3 = -3*p3^{-1}*(p2^2 + p3^2) = 0 mod p1
    vec = LatticeVector(p3p, (p3p * q1 - 3 * p3) // p1)
    # independent re-derivation from the concrete moment triangle; its beta,
    # p3/(p1*p3'), makes p3'*beta = p3/p1, the displacement, by construction
    tri = delta_triangle(p1, q1, Fraction(p3, p1 * p2), Fraction(p3, p1 * p3p))
    direction, tri_length = _primitive_direction(tri.top, tri.apex)
    if direction != vec:
        raise AssertionError("girdle vector disagrees with vertex arithmetic")
    if tri_length != length:
        raise AssertionError("girdle length disagrees with vertex arithmetic")
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
