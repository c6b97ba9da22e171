"""Command-line surface: exact queries as text or JSON, figures as SVG.

All numeric CLI arguments use the exact a/b syntax; decimals are rejected so
nothing is ever silently rounded.  SVG output keeps every coordinate as a
Fraction until the final string formatting (6 significant digits), making
documents byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .atf_geometry import (
    GirdledTriangle,
    PavilionPolygon,
    ViannaTriangle,
    cut_segment,
    delta_triangle,
    pavilion_polygon,
    triangle_signature,
    vianna_triangle,
)
from .exact_core import DomainError, RationalPoint, format_rational, parse_rational
from .hirzebruch_jung import wahl_data
from .intersection_theory import (
    NoCulet,
    culet_report,
    discrepancies,
    intersection_matrix,
    inverse_closed_form,
)
from .markov import (branch_sequence, companions, compare_to_sigma, enumerate_tree, is_companion,
                     sigma_p, tree_to_json)
from .regulation import predict_regulation
from .staircase_oracle import (
    embeds,
    pin_ball_capacity,
    stair_boxes,
    three_ball_feasible,
    two_ball_feasible,
)

__all__ = ["run", "main", "RenderSpec", "render_staircase", "render_base_diagram"]

# `wahl` prints two m×m tables, whose size grows as m² times the digits of p².
# With Python 3.11 on 2 vCPUs, (601, 1) prints 6.7 MB in 0.8 s, a 78-digit
# Markov pair with a chain of 604 entries 97 MB in 2.8 s (`--json` peaks at
# 370 MB), and a 130-digit one with 1 000 entries 436 MB in 11 s.  Chains of
# Markov pairs grow by about 7.5 entries per digit; on the six branches checked
# they stay within this limit up to 77 digits, and the Pell branch (2, p, p')
# leaves it at 78.  A pair such as (p, 1), whose chain has p - 1 entries, is
# refused for p > 601.
MAX_TABLE_CHAIN = 600

# `markov tree` output roughly triples with each level: the entries double and
# the lines grow by about 1.5 times, as the numbers gain digits.  Measured with
# Python 3.11 on 2 vCPUs (text, then `--json` peak memory): depth 16 prints
# 17 MB in 0.9 s (77 MB), depth 17 51 MB in 2.1 s (174 MB), depth 18 154 MB in
# 6.7 s (463 MB), and from depth 20 on the largest number exceeds Python's
# int/str digit limit.  Deeper trees are refused.
MAX_PRINTED_TREE_DEPTH = 17


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part]


# ---------------------------------------------------------------- rendering

FMT = "%.6g"


@dataclass(frozen=True)
class RenderSpec:
    """What to draw and how: world window, pixel scale, staircase steps."""

    kind: str  # "staircase" | "base_diagram" | "markov_tree"
    window: tuple[Fraction, Fraction, Fraction, Fraction]  # xmin,xmax,ymin,ymax
    path: Optional[str] = None
    scale: int = 160
    steps: int = 1

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.window
        if not (xmax > xmin and ymax > ymin):
            raise DomainError("render window must have positive extent")
        if self.steps < 1:
            raise DomainError("step count must be >= 1")
        if self.scale < 1:
            raise DomainError("scale must be >= 1")


class _Canvas:
    """Accumulates SVG elements over an exact world-coordinate window."""

    MARGIN = 40

    def __init__(self, spec: RenderSpec):
        self.spec = spec
        xmin, xmax, ymin, ymax = spec.window
        self.xmin, self.ymin, self.ymax = xmin, ymin, ymax
        self.w = float(Fraction(spec.scale) * (xmax - xmin)) + 2 * self.MARGIN
        self.h = float(Fraction(spec.scale) * (ymax - ymin)) + 2 * self.MARGIN
        self.rows: list[str] = [
            '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s">'
            % (FMT % self.w, FMT % self.h)
        ]

    def px(self, x, y) -> tuple[str, str]:
        hx = self.MARGIN + Fraction(self.spec.scale) * (Fraction(x) - self.xmin)
        hy = self.MARGIN + Fraction(self.spec.scale) * (self.ymax - Fraction(y))
        return FMT % float(hx), FMT % float(hy)

    DASH = {"solid": "", "girdle": ' stroke-dasharray="12,6"',
            "cut": ' stroke-dasharray="4,4"', "curve": ' stroke-dasharray="6,4"'}

    def line(self, a, b, style: str = "solid", width: str = "2") -> None:
        (x1, y1), (x2, y2) = self.px(*a), self.px(*b)
        self.rows.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="black" stroke-width="{width}" fill="none"'
            f"{self.DASH[style]}/>"
        )

    def polyline(self, pts, style: str = "curve") -> None:
        coords = " ".join(",".join(self.px(x, y)) for x, y in pts)
        self.rows.append(
            f'<polyline points="{coords}" stroke="black" stroke-width="1" '
            f'fill="none"{self.DASH[style]}/>'
        )

    def dot(self, a) -> None:
        x, y = self.px(*a)
        self.rows.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')

    def cross(self, a) -> None:
        x, y = self.px(*a)
        for dx, dy in ((4, 4), (4, -4)):
            self.rows.append(
                f'<line x1="{FMT % (float(x) - dx)}" y1="{FMT % (float(y) - dy)}" '
                f'x2="{FMT % (float(x) + dx)}" y2="{FMT % (float(y) + dy)}" '
                'stroke="black" stroke-width="2"/>'
            )

    def text(self, a, s: str, dx: int = 6, dy: int = -6) -> None:
        x, y = self.px(*a)
        self.rows.append(
            f'<text x="{FMT % (float(x) + dx)}" y="{FMT % (float(y) + dy)}" '
            f'font-size="12" font-family="monospace">{s}</text>'
        )

    def finish(self) -> str:
        return "\n".join(self.rows + ["</svg>"]) + "\n"


def _steps_window(steps: int) -> tuple[int, int]:
    """Symmetric index window around the diagonal box: K steps cover
    -((K-1)//2) .. K//2."""
    return -((steps - 1) // 2), steps // 2


def render_staircase(p: int, q: int, spec: RenderSpec) -> str:
    lo, hi = _steps_window(spec.steps)
    _refuse_past_digit_limit(p, q, lo, hi + 1)  # box i reads m_i and m_{i+1}
    boxes = stair_boxes(p, q, lo, hi)
    sig = sigma_p(p)
    canvas = _Canvas(spec)
    zero = (Fraction(0), Fraction(0))
    xmax, ymax = spec.window[1], spec.window[3]
    canvas.line(zero, (xmax, Fraction(0)), width="1")
    canvas.line(zero, (Fraction(0), ymax), width="1")
    # accumulation marker at sigma_p
    sx = Fraction(float(sig))
    canvas.line((sx, Fraction(0)), (sx, ymax), style="girdle", width="1")
    canvas.text((sx, ymax), f"sigma_{p} = {sig.decimal(3, rounded=True)}…",
                dx=-150, dy=14)
    # the volume curve p^2*a*b = 1
    n = 200
    fx0, fx1 = 1.0 / (p * p * float(ymax)), float(sx)
    pts = []
    for k in range(n + 1):
        x = fx0 + (fx1 - fx0) * k / n
        pts.append((Fraction(x), Fraction(1.0 / (p * p * x))))
    canvas.polyline(pts, style="curve")
    for b in boxes:
        a_s, b_s = b.alpha_sup, b.beta_sup
        canvas.line((Fraction(0), b_s), (a_s, b_s))
        canvas.line((a_s, Fraction(0)), (a_s, b_s))
    for b in boxes:
        corner = (b.alpha_sup, b.beta_sup)
        canvas.dot(corner)
        try:
            label = f"({format_rational(b.alpha_sup)}, {format_rational(b.beta_sup)})"
        except ValueError as exc:  # a term over the limit that the reach bound let through
            raise DomainError(_DIGIT_LIMIT_ERROR) from exc
        canvas.text(corner, label)
    return canvas.finish()


def _bbox(points, pad=Fraction(1, 10)) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    xs = [Fraction(a.x) for a in points]
    ys = [Fraction(a.y) for a in points]
    spanx = max(max(xs) - min(xs), Fraction(1, 2))
    spany = max(max(ys) - min(ys), Fraction(1, 2))
    return (min(xs) - pad * spanx, max(xs) + pad * spanx,
            min(ys) - pad * spany, max(ys) + pad * spany)


def render_base_diagram(shape, spec: Optional[RenderSpec] = None, scale: int = 160) -> str:
    """SVG for a girdled triangle, a pavilion polygon, or a Vianna triangle.

    Toric edges are solid, girdles long-dashed, branch cuts short-dashed
    with an x marker at the node; determinant-1 vertices get no cut.
    """
    if isinstance(shape, GirdledTriangle):
        edges = [(shape.origin, shape.apex, "solid"),
                 (shape.apex, shape.top, "girdle"),
                 (shape.top, shape.origin, "solid")]
        cuts = []
    elif isinstance(shape, PavilionPolygon):
        edges = [(e.start, e.end, "girdle" if e.label == "girdle" else "solid")
                 for e in shape.edges]
        cuts = []
    elif isinstance(shape, ViannaTriangle):
        pts = shape.points
        edges = [(pts[k], pts[(k + 1) % 3], "solid") for k in range(3)]
        cuts = [cut_segment(shape, k + 1)
                for k in range(3) if shape.triple[k] >= 2]
    else:
        raise DomainError(f"cannot render {type(shape).__name__}")
    corners = [a for a, _, _ in edges] + [b for _, b, _ in edges]
    corners += [b for _, b in cuts]
    if spec is None:
        spec = RenderSpec("base_diagram", _bbox(corners), scale=scale)
    canvas = _Canvas(spec)
    for a, b, style in edges:
        canvas.line((a.x, a.y), (b.x, b.y), style=style)
    for a, node in cuts:
        canvas.line((a.x, a.y), (node.x, node.y), style="cut", width="1")
        canvas.cross((node.x, node.y))
    return canvas.finish()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


# ---------------------------------------------------------------- commands


def _json_print(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_markov_tree(args) -> int:
    entries = enumerate_tree(args.depth, MAX_PRINTED_TREE_DEPTH)
    if args.json:
        _json_print(tree_to_json(entries))
        return 0
    depth = {}
    for idx, e in enumerate(entries):
        depth[idx] = 0 if e.parent is None else depth[e.parent] + 1
        a, b, c = e.triple
        print(f"d{depth[idx]}: ({a}, {b}, {c})")
    return 0


def cmd_markov_companions(args) -> int:
    pair = companions(args.p, args.depth)
    inner = ", ".join(str(q) for q in sorted(pair.pair))
    print(f"q ∈ {{{inner}}}")
    return 0


_DIGIT_LIMIT_ERROR = ("a branch term exceeds Python's int/str digit limit; "
                      "PYTHONINTMAXSTRDIGITS=0 lifts it")


def _branch_reach(p: int, digits: int) -> int:
    """A bound n such that every term m_i of a branch of p with |i| >= n has
    more than `digits` digits, from integer bit lengths alone.

    The terms are >= 1 and smallest at the valley, two consecutive indices
    within -1..1, and they increase away from it.  Where m_k >= r m_{k-1},
    the recursion m_{k+1} = 3p m_k - m_{k-1} gives m_{k+1} >= (3p - 1/r) m_k,
    so the ratio bounds r_0 = 1, r_{j+1} = 3p - 1/r_j hold j steps past the
    valley and rise to the branch ratio (3p + sqrt(9p^2 - 4))/2.  Hence
    m_i >= r^(|i| - 9) for r = r_8 = num/den, and for any smaller r.  With
    2^a <= r^1024, read off the bit lengths of num^1024 and den^1024, and
    10^digits < 2^B, a term with a(|i| - 9) >= 1024 B exceeds 10^digits.
    """
    num, den = 1, 1  # r_0
    for _ in range(8):
        num, den = 3 * p * num - den, num
    shift = den.bit_length() - 64
    if shift > 0:  # r rounded down to about 64 bits
        num, den = num >> shift, (den >> shift) + 1
    a = (num ** 1024).bit_length() - (den ** 1024).bit_length() - 1
    need = 1024 * (10 ** digits).bit_length()  # 1024 B
    return 9 + -(-need // a)


def _refuse_past_digit_limit(p: int, q: int, lo: int, hi: int) -> None:
    """Terms past Python's int/str digit limit (3.11+; 0 when lifted) cannot
    be printed: refuse a window of branch indices lo..hi that reaches them
    before computing any term.  A p that is not Markov is refused as such by
    is_companion; an empty window or a q that is not a companion is left to
    the caller, which names that fault."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if (limit and lo <= hi and is_companion(p, q)
            and max(-lo, hi) >= _branch_reach(p, limit)):
        raise DomainError(_DIGIT_LIMIT_ERROR)


def cmd_markov_branch(args) -> int:
    _refuse_past_digit_limit(args.p, args.q, args.lo, args.hi)
    seq = branch_sequence(args.p, args.q, args.lo, args.hi)
    try:
        lines = [f"m[{i}] = {v}" for i, v in seq.items()]
    except ValueError as exc:  # a term over the limit that the reach bound let through
        raise DomainError(_DIGIT_LIMIT_ERROR) from exc
    print("\n".join(lines))
    return 0


def cmd_wahl(args) -> int:
    w = wahl_data(args.p, args.q)
    if w.m > MAX_TABLE_CHAIN:
        raise DomainError(f"the chain of ({w.p},{w.q}) has {w.m} entries; the matrix and "
                          f"its inverse are printed for at most {MAX_TABLE_CHAIN}")
    matrix = intersection_matrix(w)
    inverse = inverse_closed_form(w)
    disc = discrepancies(w) if w.m else []
    try:
        culet = culet_report(args.p, args.q)
    except NoCulet:
        culet = None
    if args.json:
        data = {
            "p": w.p,
            "q": w.q,
            "chain": list(w.chain),
            "e": list(w.e),
            "f": list(w.f),
            "matrix": matrix,
            "inverse": [[format_rational(x) for x in row] for row in inverse],
            "discrepancies": [format_rational(k) for k in disc],
            "culet": culet.to_json() if culet else None,
        }
        _json_print(data)
        return 0
    print(f"chain: {list(w.chain)}")
    print(f"e: {list(w.e)}")
    print(f"f: {list(w.f)}")
    for i, row in enumerate(matrix, start=1):
        print(f"M[{i}]: " + " ".join(str(x) for x in row))
    for i, row in enumerate(inverse, start=1):
        print(f"M^-1[{i}]: " + " ".join(format_rational(x) for x in row))
    print("discrepancies: " + ", ".join(format_rational(k) for k in disc))
    if culet:
        t = culet.triple
        print(f"culet: index {culet.culet_index}, triple ({t[0]}, {t[1]}, {t[2]}), "
              f"weight {culet.manetti_weight}")
    else:
        print("culet: none (not a Markov/companion pair)")
    return 0


def cmd_stair(args) -> int:
    if args.svg:
        sig = sigma_p(args.p)
        hi = Fraction(float(sig)) * Fraction(21, 20)
        spec = RenderSpec("staircase", (Fraction(0), hi, Fraction(0), hi),
                          path=args.svg, steps=args.steps)
        _write(args.svg, render_staircase(args.p, args.q, spec))
        return 0
    if args.alpha is None or args.beta is None:
        args.parser.error("need --alpha and --beta (or --svg with --steps)")
    verdict = embeds(args.p, args.q, args.alpha, args.beta)
    if args.json:
        _json_print(verdict.to_json())
        return 0
    if verdict.answer == "Embeds":
        box = verdict.witness
        print(f"Embeds (box i={box.index}, "
              f"sup {format_rational(box.alpha_sup)} × {format_rational(box.beta_sup)})")
    elif verdict.answer == "DoesNotEmbed":
        a, b = verdict.obstruction
        print(f"DoesNotEmbed (obstruction corner "
              f"({format_rational(a)}, {format_rational(b)}))")
    else:
        var = "alpha" if compare_to_sigma(args.p, args.alpha) != "less" else "beta"
        shown = sigma_p(args.p).decimal(3, rounded=True)
        print(f"OutsideVisibleRange ({var} ≥ sigma_{args.p} = {shown}…)")
    return 0


def cmd_capacity(args) -> int:
    print(format_rational(pin_ball_capacity(args.p, args.q)))
    return 0


_PACK_SHOW = {"alpha1": "alpha1", "alpha2": "alpha2", "sum": "alpha1+alpha2"}


def cmd_pack_two(args) -> int:
    rep = two_ball_feasible(args.p1, args.q1, args.a1, args.p2, args.q2, args.a2)
    if rep.answer == "unknown":
        print("unknown (the two Markov numbers share no triple; "
              "outside this oracle's scope)")
        return 0
    values = {"alpha1": args.a1, "alpha2": args.a2, "sum": args.a1 + args.a2}
    if rep.answer == "feasible":
        print(f"feasible (p3 = {rep.p3})")
    else:
        parts = ", ".join(
            f"{_PACK_SHOW[k]} = {format_rational(values[k])} "
            f"not < {format_rational(rep.bounds[k])}"
            for k in rep.binding
        )
        print(f"infeasible, binding: {parts}")
    print("bounds: " + ", ".join(
        f"{_PACK_SHOW[k]} < {format_rational(rep.bounds[k])}"
        for k in ("alpha1", "alpha2", "sum")))
    print(f"implied: {_PACK_SHOW[rep.implied]}")
    return 0


def cmd_pack_three(args) -> int:
    rep = three_ball_feasible((args.p1, args.p2, args.p3),
                              (args.a1, args.a2, args.a3),
                              (args.q1, args.q2, args.q3))
    alphas = {1: args.a1, 2: args.a2, 3: args.a3}
    if rep.answer == "feasible":
        print("feasible")
    else:
        parts = ", ".join(
            f"alpha{i}+alpha{j} = {format_rational(alphas[i] + alphas[j])} "
            f"not < {format_rational(rep.bounds[(i, j)])}"
            for i, j in rep.binding
        )
        print(f"infeasible, binding: {parts}")
    print("bounds: " + ", ".join(
        f"alpha{i}+alpha{j} < {format_rational(v)}"
        for (i, j), v in sorted(rep.bounds.items())))
    return 0


def cmd_atf_delta(args) -> int:
    tri = delta_triangle(args.p, args.q, args.alpha, args.beta)
    shape = tri
    if args.pavilion is not None:
        shape = pavilion_polygon(tri, args.pavilion)
    if args.svg:
        _write(args.svg, render_base_diagram(shape))
        return 0
    if isinstance(shape, PavilionPolygon):
        for v in shape.vertices:
            print(f"vertex ({format_rational(v.x)}, {format_rational(v.y)})")
        for e in shape.edges:
            print(f"edge {e.label}: length {format_rational(e.length)}")
    else:
        for v in tri.loop():
            print(f"vertex ({format_rational(v.x)}, {format_rational(v.y)})")
        print(f"toric normals: {tri.normal_first.as_tuple()} "
              f"{tri.normal_last.as_tuple()}")
        print(f"girdle normal: {tri.girdle_normal.as_tuple()}")
    return 0


def cmd_atf_vianna(args) -> int:
    t = vianna_triangle(args.p1, args.p2, args.p3)
    if args.svg:
        _write(args.svg, render_base_diagram(t))
        return 0
    print(f"triple: {t.triple}")
    for k in range(3):
        v = t.points[k]
        print(f"vertex {k + 1}: ({format_rational(v.x)}, {format_rational(v.y)}) "
              f"det {t.vertex_determinant(k)} cut {t.cuts[k].as_tuple()}")
    dets, lengths, area = triangle_signature(t)
    print(f"signature: dets {dets}, "
          f"lengths ({', '.join(format_rational(x) for x in lengths)}), "
          f"area {format_rational(area)}")
    return 0


def cmd_regulation(args) -> int:
    pred = predict_regulation(args.p, args.q)
    if args.json:
        _json_print(pred.to_json())
        return 0
    if args.dot:
        print(pred.to_dot())
        return 0
    print(f"weight {pred.weight}, culet index {pred.culet_index}, "
          f"{len(pred.rulings)} broken ruling(s)")
    for n, (g, at) in enumerate(zip(pred.rulings, pred.attach_positions), start=1):
        curves = ", ".join(f"C{v}" for v, _ in sorted(g.vertices) if v != 0)
        print(f"ruling {n}: {curves} + E{n} at C{at}")
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Reads '-a/b' as a negative rational argument, not as an option.

    argparse takes only '-n' and '-n.m' for negative numbers, so a value such
    as '-1/100' would end in a usage error (exit 2) instead of the domain
    error it deserves.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pinstairs",
        description="Exact Markov staircases, Wahl chains, and almost toric "
                    "diagrams.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("markov", help="trees, companions, branch sequences")
    msub = m.add_subparsers(dest="subcommand", required=True)
    x = msub.add_parser("tree")
    x.add_argument("--depth", type=int, required=True)
    x.add_argument("--json", action="store_true")
    x.set_defaults(func=cmd_markov_tree)
    x = msub.add_parser("companions")
    x.add_argument("p", type=int)
    x.add_argument("--depth", type=int, default=None)
    x.set_defaults(func=cmd_markov_companions)
    x = msub.add_parser("branch")
    x.add_argument("p", type=int)
    x.add_argument("q", type=int)
    x.add_argument("--lo", type=int, required=True)
    x.add_argument("--hi", type=int, required=True)
    x.set_defaults(func=cmd_markov_branch)

    x = sub.add_parser("wahl", help="chain, e/f, matrices, culet")
    x.add_argument("p", type=int)
    x.add_argument("q", type=int)
    x.add_argument("--json", action="store_true")
    x.set_defaults(func=cmd_wahl)

    x = sub.add_parser("stair", help="embedding verdicts and staircase SVGs")
    x.add_argument("p", type=int)
    x.add_argument("q", type=int)
    x.add_argument("--alpha", type=_rational)
    x.add_argument("--beta", type=_rational)
    x.add_argument("--json", action="store_true")
    x.add_argument("--svg", metavar="FILE")
    x.add_argument("--steps", type=int, default=5)
    x.set_defaults(func=cmd_stair)

    x = sub.add_parser("capacity", help="pin-ball capacity")
    x.add_argument("p", type=int)
    x.add_argument("q", type=int)
    x.set_defaults(func=cmd_capacity)

    pk = sub.add_parser("pack", help="ball-packing feasibility")
    pksub = pk.add_subparsers(dest="subcommand", required=True)
    x = pksub.add_parser("two")
    for name in ("p1", "q1"):
        x.add_argument(name, type=int)
    x.add_argument("a1", type=_rational)
    for name in ("p2", "q2"):
        x.add_argument(name, type=int)
    x.add_argument("a2", type=_rational)
    x.set_defaults(func=cmd_pack_two)
    x = pksub.add_parser("three")
    for k in (1, 2, 3):
        x.add_argument(f"p{k}", type=int)
        x.add_argument(f"q{k}", type=int)
        x.add_argument(f"a{k}", type=_rational)
    x.set_defaults(func=cmd_pack_three)

    a = sub.add_parser("atf", help="moment triangles and Vianna diagrams")
    asub = a.add_subparsers(dest="subcommand", required=True)
    x = asub.add_parser("delta")
    x.add_argument("p", type=int)
    x.add_argument("q", type=int)
    x.add_argument("alpha", type=_rational)
    x.add_argument("beta", type=_rational)
    x.add_argument("--pavilion", type=_rational_list, default=None,
                   metavar="L1,...,Lm")
    x.add_argument("--svg", metavar="FILE")
    x.set_defaults(func=cmd_atf_delta)
    x = asub.add_parser("vianna")
    for name in ("p1", "p2", "p3"):
        x.add_argument(name, type=int)
    x.add_argument("--svg", metavar="FILE")
    x.set_defaults(func=cmd_atf_vianna)

    x = sub.add_parser("regulation", help="broken-ruling predictions")
    x.add_argument("p", type=int)
    x.add_argument("q", type=int)
    fmt = x.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--dot", action="store_true")
    x.set_defaults(func=cmd_regulation)

    return ap


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.parser = parser
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a failed self-check
        print(f"internal error: {exc} (argv: {' '.join(map(str, argv))})", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
