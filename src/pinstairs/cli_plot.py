"""Command-line surface: exact queries as text or JSON, figures as SVG.

All numeric CLI arguments use the exact a/b syntax; decimals are rejected so
nothing is ever silently rounded.  SVG output keeps every coordinate as a
Fraction until the final string formatting (6 significant digits), making
documents byte-for-byte reproducible.

Each command imports the modules it uses when it runs, so a process loads
only those: `markov tree` loads `markov` alone, `wahl` adds the chain and
lattice modules, and only `--json` loads `json`.  A well-formed argv is read
straight from the command table; `argparse` (with `gettext` and `locale`)
loads only to print help or a usage error, and never for the renderers.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .exact_core import DomainError, _continuants, _Record, format_rational, parse_rational

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

# `stair --svg` labels each box with two ratios of branch terms, whose digits
# grow linearly with the index, so the file grows as the square of `--steps`.
# Measured with Python 3.11 on 2 vCPUs: 6 000 steps write 17 MB for (1, 1) in
# 2.0 s, 30 MB for (2, 1) in 3.7 s and 44 MB for (5, 1) in 7.4 s; (1, 1) would
# write 64 MB at 12 000.  More steps are refused.  The terms of a larger p gain
# more digits per step, so a window is also refused when its labels could
# print more digits than those of (5, 1) at this many steps (see
# _label_digits): 3 000 steps of (7453378, 1807955) would write 67 MB.
MAX_STAIR_STEPS = 6000


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(str(exc))


def _rational_list(text: str) -> list[Fraction]:
    return [_rational(part) for part in text.split(",") if part]


# ---------------------------------------------------------------- rendering

FMT = "%.6g"


def _float(x) -> float:
    """float(x) for a number drawn into an SVG, whose coordinates are floats;
    a number past the float range is refused as a DomainError, so no file is
    written."""
    try:
        return float(x)
    except OverflowError as exc:
        raise DomainError("a number is too large to draw: SVG coordinates are "
                          "floats, which end near 1.8e308") from exc


class RenderSpec(_Record):
    """What to draw: world window and staircase steps."""

    __slots__ = ("kind", "window", "steps")
    kind: str  # "staircase" | "base_diagram"
    window: tuple[Fraction, Fraction, Fraction, Fraction]  # xmin,xmax,ymin,ymax
    steps: int

    def __init__(self, kind: str, window: tuple[Fraction, Fraction, Fraction, Fraction],
                 steps: int = 1):
        xmin, xmax, ymin, ymax = window
        if not (xmax > xmin and ymax > ymin):
            raise DomainError("render window must have positive extent")
        if steps < 1:
            raise DomainError("step count must be >= 1")
        super().__init__(kind, window, steps)


class _Canvas:
    """Accumulates SVG elements over an exact world-coordinate window."""

    MARGIN = 40
    SCALE = 160  # pixels per world unit

    def __init__(self, spec: RenderSpec):
        xmin, xmax, ymin, ymax = spec.window
        self.xmin, self.ymin, self.ymax = xmin, ymin, ymax
        self.w = _float(self.SCALE * (xmax - xmin)) + 2 * self.MARGIN
        self.h = _float(self.SCALE * (ymax - ymin)) + 2 * self.MARGIN
        self.rows: list[str] = [
            '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s">'
            % (FMT % self.w, FMT % self.h)
        ]

    def px(self, x, y) -> tuple[str, str]:
        hx = self.MARGIN + self.SCALE * (Fraction(x) - self.xmin)
        hy = self.MARGIN + self.SCALE * (self.ymax - Fraction(y))
        return FMT % _float(hx), FMT % _float(hy)

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


def _label_digits(p: int, steps: int) -> int:
    """An upper bound on the digits that the box labels of a `steps` window of
    a branch of p print, from integer bit lengths alone.

    Box i prints m_{i+1}/(p*m_i) and m_i/(p*m_{i+1}), in lowest terms as the
    entries of a Markov triple are coprime.  The valley terms are at most p
    and m_{k+1} = 3p*m_k - m_{k-1} < 3p*m_k, so m_j <= (3p)^(|j|+1), and the
    four numbers of box i have at most (2|i| + 2|i+1| + 6)*log2(3p) bits
    together, so at most that times log10(2), plus 4, digits.  With
    2^a >= (3p)^1024, summing |j| over the window in closed form gives the
    bound; (3p)^1024 is not expanded for a 3p of more than 64 bits.
    """
    lo, hi = _steps_window(steps)
    n = 3 * p
    shift = max(n.bit_length() - 64, 0)
    if shift:  # 3p rounded up to 64 bits
        n = (n >> shift) + 1
    a = (n ** 1024).bit_length() + 1024 * shift

    def ramp(k):  # 1 + 2 + ... + k
        return k * (k + 1) // 2

    bits_1024 = a * (2 * (ramp(-lo) + ramp(-lo - 1) + ramp(hi) + ramp(hi + 1)) + 6 * steps)
    return -(-bits_1024 * 30103 // (1024 * 100000)) + 4 * steps  # log10(2) < 0.30103


# the most label digits a `stair --svg` window may print
MAX_STAIR_LABEL_DIGITS = _label_digits(5, MAX_STAIR_STEPS)


def render_staircase(p: int, q: int, spec: RenderSpec) -> str:
    from .markov import is_companion, sigma_p
    from .staircase_oracle import stair_boxes

    lo, hi = _steps_window(spec.steps)
    _refuse_past_digit_limit(p, q, lo, hi + 1)  # box i reads m_i and m_{i+1}
    if spec.steps > MAX_STAIR_STEPS:
        raise DomainError(f"step count {spec.steps} outside [1, {MAX_STAIR_STEPS}]")
    # a p that is not Markov, or a q that is not its companion, is named as such
    if _label_digits(p, spec.steps) > MAX_STAIR_LABEL_DIGITS and is_companion(p, q):
        raise DomainError(f"{spec.steps} steps of a branch of {p} could print more than "
                          f"{MAX_STAIR_LABEL_DIGITS} label digits")
    boxes = stair_boxes(p, q, lo, hi)
    sig = sigma_p(p)
    canvas = _Canvas(spec)
    zero = (Fraction(0), Fraction(0))
    xmax, ymax = spec.window[1], spec.window[3]
    canvas.line(zero, (xmax, Fraction(0)), width="1")
    canvas.line(zero, (Fraction(0), ymax), width="1")
    # accumulation marker at sigma_p
    sx = Fraction(_float(sig))
    canvas.line((sx, Fraction(0)), (sx, ymax), style="girdle", width="1")
    canvas.text((sx, ymax), f"sigma_{p} = {sig.decimal(3, rounded=True)}…",
                dx=-150, dy=14)
    # the volume curve p^2*a*b = 1
    n = 200
    pp = _float(p * p)  # as the float products below would convert it
    fx0, fx1 = 1.0 / (pp * float(ymax)), float(sx)
    pts = []
    for k in range(n + 1):
        x = fx0 + (fx1 - fx0) * k / n
        pts.append((Fraction(x), Fraction(1.0 / (pp * x))))
    canvas.polyline(pts, style="curve")
    for b in boxes:
        a_s, b_s = b.alpha_sup, b.beta_sup
        canvas.line((Fraction(0), b_s), (a_s, b_s))
        canvas.line((a_s, Fraction(0)), (a_s, b_s))
    for b in boxes:
        corner = (b.alpha_sup, b.beta_sup)
        canvas.dot(corner)
        try:
            label = _tuple_text((b.alpha_sup, b.beta_sup))
        except ValueError as exc:  # a term over the limit that the reach bound let through
            raise DomainError(_DIGIT_LIMIT_ERROR) from exc
        canvas.text(corner, label)
    return canvas.finish()


def _tuple_text(xs) -> str:
    """'(a, b, ...)' for rationals or ints, each through format_rational."""
    return f"({', '.join(map(format_rational, xs))})"


def _bbox(points, pad=Fraction(1, 10)) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    xs = [Fraction(a.x) for a in points]
    ys = [Fraction(a.y) for a in points]
    spanx = max(max(xs) - min(xs), Fraction(1, 2))
    spany = max(max(ys) - min(ys), Fraction(1, 2))
    return (min(xs) - pad * spanx, max(xs) + pad * spanx,
            min(ys) - pad * spany, max(ys) + pad * spany)


def render_base_diagram(shape) -> str:
    """SVG for a girdled triangle, a pavilion polygon, or a Vianna triangle.

    Toric edges are solid, girdles long-dashed, branch cuts short-dashed
    with an x marker at the node; determinant-1 vertices get no cut.
    """
    from .atf_geometry import GirdledTriangle, PavilionPolygon, ViannaTriangle, cut_segment

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
    canvas = _Canvas(RenderSpec("base_diagram", _bbox(corners)))
    for a, b, style in edges:
        canvas.line((a.x, a.y), (b.x, b.y), style=style)
    for a, node in cuts:
        canvas.line((a.x, a.y), (node.x, node.y), style="cut", width="1")
        canvas.cross((node.x, node.y))
    return canvas.finish()


def _write(path: str, text: str) -> None:
    """Write `text` to `path`, then say so; a path that cannot be written (a
    missing directory, a directory, a full disk) is a DomainError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"wrote {path}")


# ---------------------------------------------------------------- commands


def _json_print(obj) -> None:
    import json

    print(json.dumps(obj, sort_keys=True))


def cmd_markov_tree(args) -> int:
    from .markov import enumerate_tree, tree_to_json

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
    from .markov import companions

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
    den, num = _continuants([3 * p] * 8, 1, 1)[-2:]  # r_8, from r_0 = 1/1
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
    from .markov import is_companion

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if (limit and lo <= hi and is_companion(p, q)
            and max(-lo, hi) >= _branch_reach(p, limit)):
        raise DomainError(_DIGIT_LIMIT_ERROR)


def cmd_markov_branch(args) -> int:
    from .markov import branch_sequence

    _refuse_past_digit_limit(args.p, args.q, args.lo, args.hi)
    seq = branch_sequence(args.p, args.q, args.lo, args.hi)
    try:
        lines = [f"m[{i}] = {v}" for i, v in seq.items()]
    except ValueError as exc:  # a term over the limit that the reach bound let through
        raise DomainError(_DIGIT_LIMIT_ERROR) from exc
    print("\n".join(lines))
    return 0


def cmd_wahl(args) -> int:
    from .hirzebruch_jung import _chain_length, _require_wahl_pair, wahl_data
    from .intersection_theory import (NoCulet, culet_report, discrepancies, intersection_matrix,
                                      inverse_closed_form)

    p, q = args.p, args.q
    _require_wahl_pair(p, q)
    m = _chain_length(p * p, p * q - 1)  # refused before the chain is built
    if m > MAX_TABLE_CHAIN:
        raise DomainError(f"the chain of ({p},{q}) has {m} entries; the matrix and "
                          f"its inverse are printed for at most {MAX_TABLE_CHAIN}")
    w = wahl_data(p, q)
    matrix = intersection_matrix(w)
    inverse = inverse_closed_form(w)
    disc = discrepancies(w)
    try:
        culet, no_culet = culet_report(args.p, args.q), None
    except NoCulet as exc:
        culet, no_culet = None, exc
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
        print(f"culet: none ({no_culet})")
    return 0


def cmd_stair(args) -> int:
    from .markov import compare_to_sigma, sigma_p
    from .staircase_oracle import embeds

    if args.svg:
        sig = sigma_p(args.p)
        hi = Fraction(_float(sig)) * Fraction(21, 20)
        spec = RenderSpec("staircase", (Fraction(0), hi, Fraction(0), hi), steps=args.steps)
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
        print(f"DoesNotEmbed (obstruction corner {_tuple_text(verdict.obstruction)})")
    else:
        var = "alpha" if compare_to_sigma(args.p, args.alpha) != "less" else "beta"
        shown = sigma_p(args.p).decimal(3, rounded=True)
        print(f"OutsideVisibleRange ({var} ≥ sigma_{args.p} = {shown}…)")
    return 0


def cmd_capacity(args) -> int:
    from .staircase_oracle import pin_ball_capacity

    print(format_rational(pin_ball_capacity(args.p, args.q)))
    return 0


_PACK_SHOW = {"alpha1": "alpha1", "alpha2": "alpha2", "sum": "alpha1+alpha2"}


def _pack_text(answer: str, rows, binding) -> str:
    """The answer line and the bounds line of a packing report, over rows of
    (name, value, sup): `answer` when no name is in `binding`, else each
    binding row."""
    if binding:
        answer = "infeasible, binding: " + ", ".join(
            f"{name} = {format_rational(value)} not < {format_rational(sup)}"
            for name, value, sup in rows if name in binding)
    return f"{answer}\nbounds: " + ", ".join(
        f"{name} < {format_rational(sup)}" for name, _, sup in rows)


def cmd_pack_two(args) -> int:
    from .staircase_oracle import two_ball_feasible

    rep = two_ball_feasible(args.p1, args.q1, args.a1, args.p2, args.q2, args.a2)
    if rep.answer == "unknown":
        print("unknown (the two Markov numbers share no triple; "
              "outside this oracle's scope)")
        return 0
    values = {"alpha1": args.a1, "alpha2": args.a2, "sum": args.a1 + args.a2}
    rows = [(_PACK_SHOW[k], values[k], rep.bounds[k]) for k in values]
    text = _pack_text(f"feasible (p3 = {format_rational(rep.p3)})", rows,
                      {_PACK_SHOW[k] for k in rep.binding})
    print(f"{text}\nimplied: {_PACK_SHOW[rep.implied]}")
    return 0


def cmd_pack_three(args) -> int:
    from .staircase_oracle import three_ball_feasible

    rep = three_ball_feasible((args.p1, args.p2, args.p3),
                              (args.a1, args.a2, args.a3),
                              (args.q1, args.q2, args.q3))
    alphas = {1: args.a1, 2: args.a2, 3: args.a3}
    rows = [(f"alpha{i}+alpha{j}", alphas[i] + alphas[j], sup)
            for (i, j), sup in sorted(rep.bounds.items())]
    print(_pack_text("feasible", rows, {f"alpha{i}+alpha{j}" for i, j in rep.binding}))
    return 0


def cmd_atf_delta(args) -> int:
    from .atf_geometry import PavilionPolygon, delta_triangle, pavilion_polygon

    tri = delta_triangle(args.p, args.q, args.alpha, args.beta)
    shape = tri
    if args.pavilion is not None:
        shape = pavilion_polygon(tri, args.pavilion)
    if args.svg:
        _write(args.svg, render_base_diagram(shape))
        return 0
    if isinstance(shape, PavilionPolygon):
        lines = [f"vertex {_tuple_text(v.as_tuple())}" for v in shape.vertices]
        lines += [f"edge {e.label}: length {format_rational(e.length)}" for e in shape.edges]
    else:
        lines = [f"vertex {_tuple_text(v.as_tuple())}" for v in tri.loop()]
        lines.append(f"toric normals: {_tuple_text(tri.normal_first.as_tuple())} "
                     f"{_tuple_text(tri.normal_last.as_tuple())}")
        lines.append(f"girdle normal: {_tuple_text(tri.girdle_normal.as_tuple())}")
    print("\n".join(lines))
    return 0


def cmd_atf_vianna(args) -> int:
    from .atf_geometry import triangle_signature, vianna_triangle

    t = vianna_triangle(args.p1, args.p2, args.p3)
    if args.svg:
        _write(args.svg, render_base_diagram(t))
        return 0
    lines = [f"triple: {_tuple_text(t.triple)}"]
    lines += [f"vertex {k + 1}: {_tuple_text(v.as_tuple())} "
              f"det {format_rational(t.vertex_determinant(k))} "
              f"cut {_tuple_text(t.cuts[k].as_tuple())}" for k, v in enumerate(t.points)]
    dets, lengths, area = triangle_signature(t)
    lines.append(f"signature: dets {_tuple_text(dets)}, lengths {_tuple_text(lengths)}, "
                 f"area {format_rational(area)}")
    print("\n".join(lines))
    return 0


def cmd_regulation(args) -> int:
    from .regulation import predict_regulation

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

_INT, _RATIONAL, _FLAG = {"type": int}, {"type": _rational}, {"action": "store_true"}
_REQUIRED_INT = {"type": int, "required": True}
_PQ = (("p", _INT), ("q", _INT))
_SVG = ("--svg", {"metavar": "FILE"})
_ONE_OF = "one of"  # the argument (_ONE_OF, arguments) is a mutually exclusive group


def _balls(n: int) -> tuple:
    """p1 q1 a1 ... pn qn an: a Markov pair and a width per ball."""
    return tuple((f"{x}{k}", _RATIONAL if x == "a" else _INT)
                 for k in range(1, n + 1) for x in "pqa")


def _commands() -> tuple:
    """One row per command: (name, help, arguments, handler).  A command with
    leaves has the leaf rows, each with no help, for arguments and no
    handler.  An argument is (name, add_argument keywords), or (_ONE_OF,
    arguments) for a mutually exclusive group.  `_fast_parse` and
    `_build_parser` read the table at each call, so the handlers are those
    the module holds when `run` runs."""
    return (
        ("markov", "trees, companions, branch sequences", (
            ("tree", None, (("--depth", _REQUIRED_INT), ("--json", _FLAG)), cmd_markov_tree),
            ("companions", None, (("p", _INT), ("--depth", _INT)), cmd_markov_companions),
            ("branch", None, _PQ + (("--lo", _REQUIRED_INT), ("--hi", _REQUIRED_INT)),
             cmd_markov_branch),
        ), None),
        ("wahl", "chain, e/f, matrices, culet", _PQ + (("--json", _FLAG),), cmd_wahl),
        ("stair", "embedding verdicts and staircase SVGs",
         _PQ + (("--alpha", _RATIONAL), ("--beta", _RATIONAL), ("--json", _FLAG), _SVG,
                ("--steps", {"type": int, "default": 5})), cmd_stair),
        ("capacity", "pin-ball capacity", _PQ, cmd_capacity),
        ("pack", "ball-packing feasibility", (
            ("two", None, _balls(2), cmd_pack_two),
            ("three", None, _balls(3), cmd_pack_three),
        ), None),
        ("atf", "moment triangles and Vianna diagrams", (
            ("delta", None, _PQ + (("alpha", _RATIONAL), ("beta", _RATIONAL),
                                   ("--pavilion", {"type": _rational_list,
                                                   "metavar": "L1,...,Lm"}), _SVG),
             cmd_atf_delta),
            ("vianna", None, (("p1", _INT), ("p2", _INT), ("p3", _INT), _SVG), cmd_atf_vianna),
        ), None),
        ("regulation", "broken-ruling predictions",
         _PQ + ((_ONE_OF, (("--json", _FLAG), ("--dot", _FLAG))),), cmd_regulation),
    )


def _plain(token: str) -> bool:
    """Whether `token` is a value, not an option: it has no leading '-', or it
    is an ASCII '-n' or '-n/m', or a comma list of such rationals, signed or
    not, that starts with one, such as '-1/100,1/100'.  argparse reads '-.5'
    and non-ASCII digits as values too; those are left to it."""
    return not token.startswith("-") or all(
        len(parts) <= 2 and all(part.isascii() and part.isdigit() for part in parts)
        for parts in (item.removeprefix("-").split("/") for item in token.split(",")))


def _fast_parse(argv):
    """The namespace argparse builds for a well-formed argv, read from the
    command table without argparse; None for anything else.

    It takes the command, then the leaf, each by its exact name; each option
    by its exact name, once, with its value the next token; and the
    positionals in order.  Arguments not given take argparse's defaults:
    None, False for a flag, and the row's own default.  Each value goes
    through the row's `type`, as argparse would, and stays the token itself
    when there is none.  It declines help, '--', an abbreviated or unknown
    option, '--x=v', a repeated option, a missing value or required option,
    a wrong number of positionals, two members of an _ONE_OF group, and any
    value its type refuses.  argparse then reads the same argv and prints
    the help or the usage error.
    """
    rows, values, tokens = _commands(), {}, list(argv)
    for dest in ("command", "subcommand"):
        row = next((row for row in rows if tokens[:1] == [row[0]]), None)
        if row is None:
            return None
        values[dest] = tokens.pop(0)
        _, _, rows, handler = row
        if handler is not None:
            break
    options, positionals, groups = {}, [], []
    for name, keywords in rows:  # the arguments of the command argv names
        members = keywords if name == _ONE_OF else ((name, keywords),)
        if name == _ONE_OF:
            groups.append({option for option, _ in keywords})
        for option, keywords in members:
            dest = option.lstrip("-").replace("-", "_")
            if option.startswith("-"):
                options[option] = dest, keywords
            else:
                positionals.append((dest, keywords))
            flag = keywords.get("action") == "store_true"
            values[dest] = keywords.get("default", False if flag else None)
    seen, waiting, tokens = set(), iter(positionals), iter(tokens)
    for token in tokens:
        if token in options:
            if token in seen:
                return None
            seen.add(token)
            dest, keywords = options[token]
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            token = next(tokens, "-")  # '-' is no value
        else:
            dest, keywords = next(waiting, (None, None))
            if dest is None:
                return None
        if not _plain(token):
            return None
        convert = keywords.get("type")
        try:
            values[dest] = convert(token) if convert else token
        except Exception:  # argparse makes the same call and reports it
            return None
    if (next(waiting, None) is not None
            or any(keywords.get("required") and option not in seen
                   for option, (_, keywords) in options.items())
            or any(len(group & seen) > 1 for group in groups)):
        return None

    def error(message: str):  # the one use of args.parser: a usage error names the command
        _build_parser().parse_args(argv).parser.error(message)

    return SimpleNamespace(**values, func=handler, parser=SimpleNamespace(error=error))


def _build_parser():
    """The parser of `pinstairs`, which prints help and usage errors: `run`
    reaches it only with an argv that `_fast_parse` declines."""
    import argparse
    import re

    class Parser(argparse.ArgumentParser):
        """Reads '-a/b' as a negative rational argument, not as an option.

        argparse takes only '-n' and '-n.m' for negative numbers, so a value
        such as '-1/100' or '-1/100,1/100' would end in a usage error (exit 2)
        instead of the domain error it deserves.  Subparsers inherit the class.
        """

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?(,-?\d+(/\d+)?)*$|^-\d*\.\d+$")

    def add(target, arguments):
        for name, keywords in arguments:
            if name == _ONE_OF:
                add(target.add_mutually_exclusive_group(), keywords)
            else:
                target.add_argument(name, **keywords)

    def fill(parser, dest, rows):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, help_, arguments, handler in rows:
            x = sub.add_parser(name, **({"help": help_} if help_ else {}))
            if handler is None:
                fill(x, "subcommand", arguments)
            else:
                add(x, arguments)
                x.set_defaults(func=handler, parser=x)  # usage errors name the command

    ap = Parser(prog="pinstairs",
                description="Exact Markov staircases, Wahl chains, and almost toric diagrams.")
    fill(ap, "command", _commands())
    return ap


def run(argv) -> int:
    try:
        args = _fast_parse(argv) or _build_parser().parse_args(argv)
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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
    except BrokenPipeError:
        # point stdout at the null device so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
