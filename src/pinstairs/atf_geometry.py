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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional

from .exact_core import (
    DomainError,
    LatticeVector,
    Rational,
    RationalPoint,
    _clear_denominators,
    _primitive_direction,
    affine_length,
    format_rational,
    point,
    rational_pair_wedge,
    wedge,
)
from .hirzebruch_jung import wahl_data
from .markov import _q_from_triple, is_markov_triple
from .staircase_oracle import CompanionMismatch

__all__ = [
    "GirdledTriangle",
    "PavilionPolygon",
    "ViannaTriangle",
    "GirdleViolated",
    "NotDelzant",
    "delta_triangle",
    "fan_rays",
    "pavilion_polygon",
    "standard_triangle",
    "vianna_triangle",
    "mutate_triangle",
    "cut_segment",
    "triangle_signature",
    "girdle_data",
    "visible_ellipsoid_bounds",
]


_VIANNA_CACHE_SIZE = 1024  # validated Vianna triangles kept, keyed on the ordered triple


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


def _direction(a: RationalPoint, b: RationalPoint) -> LatticeVector:
    """Primitive integer direction of the segment a -> b."""
    v, length = _primitive_direction(a, b)
    if length == 0:
        raise DomainError("zero segment has no direction")
    return v


@dataclass(frozen=True)
class GirdledTriangle:
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

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "vertices": [[format_rational(v.x), format_rational(v.y)]
                         for v in self.loop()],
        }


def delta_triangle(p: int, q: int, alpha: Rational, beta: Rational) -> GirdledTriangle:
    alpha, beta = Fraction(alpha), Fraction(beta)
    if p < 1 or not 1 <= q <= p or gcd(p, q) != 1:
        raise DomainError(f"need 1 <= q <= p coprime: got ({p},{q})")
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
    """Inward normals rho_0 .. rho_{m+1} of the subdivided fan."""
    w = wahl_data(p, q)
    rays = [LatticeVector(1, 0), LatticeVector(0, 1)]
    for b in w.chain:
        rays.append(b * rays[-1] - rays[-2])
    if p >= 2 and rays[-1] != LatticeVector(1 - p * q, p * p):
        raise AssertionError(f"terminal ray mismatch for ({p},{q})")
    for u, v in zip(rays, rays[1:]):
        if wedge(u, v) != 1:
            raise AssertionError("consecutive rays not unimodular")
    return rays


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


@dataclass(frozen=True)
class PavilionEdge:
    label: str  # "rho_<i>" or "girdle"
    start: RationalPoint
    end: RationalPoint
    length: Rational


@dataclass(frozen=True)
class PavilionPolygon:
    base: GirdledTriangle
    offsets: tuple[Rational, ...]
    vertices: tuple[RationalPoint, ...]
    edges: tuple[PavilionEdge, ...]

    def edge_lengths(self) -> dict:
        return {e.label: e.length for e in self.edges}

    def to_json(self) -> dict:
        return {
            "offsets": [format_rational(x) for x in self.offsets],
            "vertices": [[format_rational(v.x), format_rational(v.y)]
                         for v in self.vertices],
            "edges": [{"label": e.label, "length": format_rational(e.length)}
                      for e in self.edges],
        }


def pavilion_polygon(base: GirdledTriangle, offsets) -> PavilionPolygon:
    offsets = tuple(Fraction(x) for x in offsets)
    rays = fan_rays(base.p, base.q)
    m = len(rays) - 2
    if len(offsets) != m:
        raise DomainError(f"need {m} offsets for ({base.p},{base.q}), got {len(offsets)}")
    if any(x <= 0 for x in offsets):
        raise DomainError("offsets must be positive")
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


@dataclass(frozen=True)
class ViannaTriangle:
    """A concrete base diagram with vertex numbers (p1, p2, p3).

    The vertex at position i has determinant p_i^2, the opposite edge has
    affine length p_i/(p_{i+1} p_{i+2}), and cuts[i] is the primitive node
    direction at vertex i.  history records the mutation word from (1,1,1).
    """

    triple: tuple[int, int, int]
    points: tuple[RationalPoint, RationalPoint, RationalPoint]
    cuts: tuple[LatticeVector, LatticeVector, LatticeVector]
    history: tuple[int, ...] = ()

    def area(self) -> Rational:
        v0, v1, v2 = self.points
        return abs(rational_pair_wedge(v1 - v0, v2 - v0)) / 2

    def vertex_determinant(self, k: int) -> int:
        d1 = _direction(self.points[k], self.points[(k + 1) % 3])
        d2 = _direction(self.points[k], self.points[(k + 2) % 3])
        return abs(wedge(d1, d2))

    def edge_length(self, k: int) -> Rational:
        """Affine length of the edge opposite vertex k."""
        return affine_length(self.points[(k + 1) % 3], self.points[(k + 2) % 3])

    def to_json(self) -> dict:
        return {
            "triple": list(self.triple),
            "vertices": [[format_rational(v.x), format_rational(v.y)]
                         for v in self.points],
            "cuts": [list(c.as_tuple()) for c in self.cuts],
            "history": list(self.history),
        }


def _validate_vianna(t: ViannaTriangle) -> ViannaTriangle:
    p1, p2, p3 = t.triple
    if not is_markov_triple(p1, p2, p3):
        raise DomainError(f"{t.triple} is not a Markov triple")
    if t.area() != Fraction(1, 2):
        raise AssertionError("mutation failed to preserve area")
    # edge k runs from vertex k to vertex k+1, so vertex k sees edges k and k+2;
    # the area check above already rules out a zero-length edge
    edges = [_primitive_direction(t.points[k], t.points[(k + 1) % 3]) for k in range(3)]
    for k in range(3):
        pk = t.triple[k]
        d1 = edges[k][0]
        d2 = -edges[(k + 2) % 3][0]
        if abs(wedge(d1, d2)) != pk * pk:
            raise AssertionError(f"vertex {k} determinant is not {pk}^2")
        want = Fraction(pk, t.triple[(k + 1) % 3] * t.triple[(k + 2) % 3])
        if edges[(k + 1) % 3][1] != want:
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


def _ray_exit(t: ViannaTriangle, k: int) -> RationalPoint:
    """Where the node ray from vertex k crosses the opposite edge interior."""
    j1, j2 = (k + 1) % 3, (k + 2) % 3
    vk, v1, v2 = t.points[k], t.points[j1], t.points[j2]
    u = t.cuts[k]
    uq = point(u.x, u.y)
    d = v2 - v1
    den = rational_pair_wedge(uq, d)
    if den == 0:
        raise AssertionError("node ray parallel to the opposite edge")
    w = v1 - vk
    tpar = rational_pair_wedge(w, d) / den
    s = rational_pair_wedge(uq, w) / -den
    if not (tpar > 0 and 0 < s < 1):
        raise AssertionError("node ray misses the opposite edge interior")
    return vk + uq.scale(tpar)


def cut_segment(t: ViannaTriangle, vertex: int) -> tuple[RationalPoint, RationalPoint]:
    """Branch-cut segment drawn in diagrams: the vertex and the node point
    halfway to the opposite edge."""
    if vertex not in (1, 2, 3):
        raise DomainError("vertex must be 1, 2 or 3")
    k = vertex - 1
    vk = t.points[k]
    return vk, vk + (_ray_exit(t, k) - vk).scale(Fraction(1, 2))


def mutate_triangle(t: ViannaTriangle, vertex: int) -> ViannaTriangle:
    """Cut along the node ray at the chosen vertex (1, 2 or 3), shear one
    half straight, and reassemble; the number at that position mutates."""
    if vertex not in (1, 2, 3):
        raise DomainError("vertex must be 1, 2 or 3")
    k = vertex - 1
    j1, j2 = (k + 1) % 3, (k + 2) % 3
    vk, v1, v2 = t.points[k], t.points[j1], t.points[j2]
    u = t.cuts[k]
    uq = point(u.x, u.y)
    exit_pt = _ray_exit(t, k)

    def shear(x: RationalPoint, eps: int) -> RationalPoint:
        rel = x - vk
        return vk + rel + uq.scale(eps * rational_pair_wedge(uq, rel))

    new_v1 = None
    for eps in (1, -1):
        cand = shear(v1, eps)
        # the old vertex must flatten: collinear with vk strictly between
        if rational_pair_wedge(cand - vk, v2 - vk) == 0 and \
                (cand - vk).x * (v2 - vk).x + (cand - vk).y * (v2 - vk).y < 0:
            new_v1 = cand
            chosen = eps
            break
    if new_v1 is None:
        raise AssertionError("no unimodular shear straightens the cut vertex")

    def shear_vec(v: LatticeVector) -> LatticeVector:
        return v + wedge(u, v) * chosen * u

    numbers = list(t.triple)
    numbers[k] = 3 * numbers[j1] * numbers[j2] - numbers[k]
    points = [None, None, None]
    cuts: list = [None, None, None]
    points[k], points[j1], points[j2] = exit_pt, new_v1, v2
    cuts[k], cuts[j1], cuts[j2] = -u, shear_vec(t.cuts[j1]), t.cuts[j2]
    return _validate_vianna(ViannaTriangle(
        tuple(numbers), tuple(points), tuple(cuts), t.history + (vertex,)
    ))


def vianna_triangle(p1: int, p2: int, p3: int) -> ViannaTriangle:
    """A concrete base diagram for the ordered triple, built by mutations."""
    triple = (p1, p2, p3)
    if not is_markov_triple(*triple):
        raise DomainError(f"{triple} is not a Markov triple")
    return _vianna(*triple)


@lru_cache(maxsize=_VIANNA_CACHE_SIZE)
def _vianna(p1: int, p2: int, p3: int) -> ViannaTriangle:
    """vianna_triangle for a Markov triple: the triangle of its parent,
    mutated at the largest number.  Each ancestor comes from the cache, so
    each ordered triple is mutated and validated once while it stays cached;
    the triangles are frozen, so every caller can share them."""
    triple = (p1, p2, p3)
    if triple == (1, 1, 1):
        return standard_triangle()
    k = triple.index(max(triple))
    down = 3 * triple[(k + 1) % 3] * triple[(k + 2) % 3] - triple[k]
    if not 0 < down < triple[k]:
        raise AssertionError(f"no descent from {triple}")
    parent = list(triple)
    parent[k] = down
    return mutate_triangle(_vianna(*parent), k + 1)


def triangle_signature(t: ViannaTriangle) -> tuple:
    """Integral-affine equivalence key: sorted determinants, sorted edge
    lengths, area."""
    dets = tuple(sorted(t.vertex_determinant(k) for k in range(3)))
    lengths = tuple(sorted(t.edge_length(k) for k in range(3)))
    return (dets, lengths, t.area())


def girdle_data(triple, q1: int) -> tuple[LatticeVector, Rational, Rational]:
    """Primitive girdle vector, girdle affine length, and displacement for
    the ordered triple (p1, p2, p3) seen from the p1 vertex."""
    p1, p2, p3 = triple
    if not is_markov_triple(p1, p2, p3):
        raise DomainError(f"{triple} is not a Markov triple")
    if q1 != _q_from_triple(p1, p2, p3):
        raise CompanionMismatch(
            f"q={q1} does not match the ordered triple {tuple(triple)}"
        )
    p3p = 3 * p1 * p3 - p2
    num = p3p * q1 - 3 * p3
    if num % p1 != 0:
        raise AssertionError(f"girdle vector not integral for {triple}")
    vec = LatticeVector(p3p, num // p1)
    length = Fraction(p1 * p3, p2 * p3p)
    disp = Fraction(p3, p1)
    # independent re-derivation from the concrete moment triangle
    tri = delta_triangle(p1, q1, Fraction(p3, p1 * p2), Fraction(p3, p1 * p3p))
    a, b = tri.top, tri.apex
    if _direction(a, b) != vec:
        raise AssertionError("girdle vector disagrees with vertex arithmetic")
    if affine_length(a, b) != length:
        raise AssertionError("girdle length disagrees with vertex arithmetic")
    if Fraction(vec.x) * tri.beta != disp:
        raise AssertionError("displacement disagrees with vertex arithmetic")
    return vec, length, disp


def visible_ellipsoid_bounds(triple, vertex: int) -> tuple[Rational, Rational, int]:
    """Open bounds (alpha_max, beta_max) and companion q at a triangle vertex."""
    if vertex not in (1, 2, 3):
        raise DomainError("vertex must be 1, 2 or 3")
    p1, p2, p3 = triple
    if not is_markov_triple(p1, p2, p3):
        raise DomainError(f"{triple} is not a Markov triple")
    k = vertex - 1
    pi = triple[k]
    pnext = triple[(k + 1) % 3]
    pprev = triple[(k + 2) % 3]
    q = _q_from_triple(pi, pnext, pprev)
    return Fraction(pprev, pi * pnext), Fraction(pnext, pi * pprev), q
