"""Dual-graph calculus for broken rulings: blow-ups, blow-downs, predictions.

A candidate broken ruling is a labeled tree (vertex labels = sphere
self-intersections).  Combinatorial blow-up at a vertex hangs a -1 vertex on
it and drops its label; at an edge it splits the edge with a -1 vertex and
drops both endpoint labels.  A graph is a ruling degeneration when some
blow-down order reaches the single 0-vertex.

That is decided exactly, with no search, because the order of blow-downs
does not matter.  Labels only rise, and a surviving vertex sees at least one
neighbour contracted, so a label >= 0 among two or more vertices rules the
graph out.  Call a -1 vertex of degree 1 or 2 a move, and T/b the tree T with
the move b contracted.

Lemma: if T degenerates, so does T/b for every move b.  By induction on the
vertex count, take a move a that starts a successful order of T, so that T/a
degenerates, and a move b != a.  If a and b are adjacent, b is labelled 0 in
T/a, so by the remark above T/a is the single vertex b; then T is the two
vertices a and b, and T/b is the 0-vertex.  Otherwise b is still a move of
T/a, which has fewer vertices, so (T/a)/b degenerates.  Contractions of
non-adjacent vertices commute, so (T/b)/a = (T/a)/b, and T/b degenerates.
(Geometrically: contracting a (-1)-curve in a fibre of a ruling leaves a
fibre of a ruling.)  Conversely T/b degenerating makes T degenerate, so
is_ruling_degeneration contracts whichever move it finds first, and rules
out a tree of two or more vertices with no move.  Blow-downs keep a path a
path, and a path degenerates exactly when its negated labels, read end to
end, form a zero continued fraction (Christophersen; Stevens); a path is
decided so at once, with no contraction.

For a Wahl chain of weight 7 or 10 the flanking dual Wahl subchains each
admit exactly one vertex where an extra -1 sphere makes them degenerate,
which pins the predicted rulings.  Their entries are >= 2, so the hung -1
is the only contractible vertex; contracting it leaves the flank with b_k - 1
at the site k.  attach_position decides every site of such a chain as a
zero continued fraction in one linear pass of continuants, without building
a graph (see _zero_sites), and the self-check on each predicted ruling costs
one contraction and one path test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .exact_core import DomainError
from .hirzebruch_jung import is_zero_continued_fraction, recognize_dual_wahl
from .intersection_theory import culet_report
from .markov import companions

__all__ = [
    "DualGraph",
    "RegulationPrediction",
    "NoPosition",
    "MultiplePositions",
    "zero_sphere",
    "chain_graph",
    "blow_up",
    "blow_down",
    "blow_down_all",
    "is_ruling_degeneration",
    "attach_position",
    "predict_regulation",
]


class NoPosition(DomainError):
    """No attachment site makes the chain a ruling degeneration."""


class MultiplePositions(AssertionError):
    """Several sites work: contradicts theory for a genuine dual Wahl chain."""


@dataclass(frozen=True)
class DualGraph:
    """A labeled tree; labels are self-intersection numbers."""

    vertices: tuple[tuple[int, int], ...]  # (id, label)
    edges: tuple[tuple[int, int], ...]  # unordered id pairs, stored sorted

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate vertex ids")
        idset = set(ids)
        norm = []
        for a, b in self.edges:
            if a == b or a not in idset or b not in idset:
                raise DomainError(f"bad edge ({a},{b})")
            norm.append((min(a, b), max(a, b)))
        if len(set(norm)) != len(norm):
            raise DomainError("duplicate edges")
        object.__setattr__(self, "edges", tuple(norm))
        if self.vertices and len(self.edges) != len(self.vertices) - 1:
            raise DomainError("graph is not a tree (wrong edge count)")
        if self.vertices and len(self._component(ids[0])) != len(ids):
            raise DomainError("graph is not a tree (disconnected)")

    def _component(self, start: int) -> set:
        adj = self.adjacency()
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return seen

    def labels(self) -> dict:
        return dict(self.vertices)

    def adjacency(self) -> dict:
        adj: dict = {v: set() for v, _ in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degree(self, vid: int) -> int:
        return len(self.adjacency()[vid])

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": v, "label": s} for v, s in sorted(self.vertices)],
            "edges": [list(e) for e in sorted(self.edges)],
        }

    def to_dot(self, names: Optional[dict] = None) -> str:
        names = names or {}
        rows = ["graph dual {"]
        for v, s in sorted(self.vertices):
            name = names.get(v, f"v{v}")
            rows.append(f'  v{v} [label="{name} ({s})"];')
        for a, b in sorted(self.edges):
            rows.append(f"  v{a} -- v{b};")
        rows.append("}")
        return "\n".join(rows)


def zero_sphere() -> DualGraph:
    """The seed graph: a single sphere of square zero."""
    return DualGraph(((1, 0),), ())


def chain_graph(entries: Iterable[int]) -> DualGraph:
    """Path graph with labels -b_i: the dual graph of a resolved chain."""
    entries = list(entries)
    verts = tuple((k + 1, -b) for k, b in enumerate(entries))
    edges = tuple((k, k + 1) for k in range(1, len(entries)))
    return DualGraph(verts, edges)


def blow_up(g: DualGraph, site: Union[int, tuple[int, int]]) -> DualGraph:
    labels = g.labels()
    new = max(labels) + 1 if labels else 1
    if isinstance(site, int):
        if site not in labels:
            raise DomainError(f"no vertex {site}")
        verts = tuple((v, s - 1 if v == site else s) for v, s in g.vertices)
        return DualGraph(verts + ((new, -1),), g.edges + ((site, new),))
    a, b = min(site), max(site)
    if (a, b) not in g.edges:
        raise DomainError(f"no edge ({a},{b})")
    verts = tuple((v, s - 1 if v in (a, b) else s) for v, s in g.vertices)
    edges = tuple(e for e in g.edges if e != (a, b)) + ((a, new), (b, new))
    return DualGraph(verts + ((new, -1),), edges)


def _down_moves(labels: dict, adj: dict) -> list[int]:
    return [v for v, s in labels.items() if s == -1 and 1 <= len(adj[v]) <= 2]


def _apply_down(labels: dict, adj: dict, vid: int) -> tuple[dict, dict]:
    nbrs = sorted(adj[vid])
    labels = {v: s + (1 if v in nbrs else 0) for v, s in labels.items() if v != vid}
    adj = {v: {u for u in us if u != vid} for v, us in adj.items() if v != vid}
    if len(nbrs) == 2:
        a, b = nbrs
        adj[a].add(b)
        adj[b].add(a)
    return labels, adj


def _graph_from(labels: dict, adj: dict) -> DualGraph:
    verts = tuple(sorted(labels.items()))
    edges = tuple(sorted({(min(a, b), max(a, b)) for a in adj for b in adj[a]}))
    return DualGraph(verts, edges)


def blow_down(g: DualGraph, vid: int) -> DualGraph:
    """Contract one -1 vertex of degree 1 or 2 (the inverse of blow_up)."""
    labels, adj = g.labels(), g.adjacency()
    if vid not in labels:
        raise DomainError(f"no vertex {vid}")
    if labels[vid] != -1 or not 1 <= len(adj[vid]) <= 2:
        raise DomainError(f"vertex {vid} is not contractible")
    return _graph_from(*_apply_down(labels, adj, vid))


def blow_down_all(g: DualGraph) -> tuple[DualGraph, list[int]]:
    """Contract the smallest-id move until none is left.  By the lemma in the
    module docstring this order decides degeneration exactly: the result is
    the single 0-vertex iff g is a ruling degeneration."""
    labels, adj = g.labels(), g.adjacency()
    log: list[int] = []
    while True:
        moves = _down_moves(labels, adj)
        if not moves:
            return _graph_from(labels, adj), log
        vid = min(moves)
        labels, adj = _apply_down(labels, adj, vid)
        log.append(vid)


def _path_entries(labels: dict, adj: dict) -> list[int]:
    """Negated labels of a path, read from one end to the other."""
    prev, v = None, next(v for v, us in adj.items() if len(us) == 1)
    out = []
    while v is not None:
        out.append(-labels[v])
        prev, v = v, next((u for u in adj[v] if u != prev), None)
    return out


def is_ruling_degeneration(g: DualGraph) -> bool:
    """Whether some blow-down order reaches the single 0-vertex; by the lemma
    in the module docstring, any order decides it."""
    if not g.vertices:
        raise DomainError("empty graph")
    if any(s > 0 for _, s in g.vertices):
        raise DomainError("positive self-intersection in candidate graph")
    labels, adj = g.labels(), g.adjacency()
    while True:
        if len(labels) == 1:
            return next(iter(labels.values())) == 0
        if any(s >= 0 for s in labels.values()):
            return False
        if all(len(us) <= 2 for us in adj.values()):
            return is_zero_continued_fraction(_path_entries(labels, adj))
        moves = _down_moves(labels, adj)
        if not moves:
            return False
        labels, adj = _apply_down(labels, adj, moves[0])


def _zero_sites(chain: list[int]) -> list[int]:
    """The 1-based sites k of a chain with every entry >= 2 at which
    chain[:k-1] + [b_k - 1] + chain[k:] is a zero continued fraction, found
    in one right-to-left and one left-to-right pass.

    Hanging a -1 at site k and contracting it, the only contractible vertex,
    leaves exactly that chain.  With c_j the continuant of chain[j:] (c_m = 1,
    c_{m+1} = 0), the suffix chain[k-1:] has value c_{k-1}/c_k > 1, so the
    changed suffix has the positive value (c_{k-1} - c_k)/c_k.  The chain
    evaluates to the prefix matrix of chain[:k-1] (the product of the maps
    x -> b - 1/x) applied to that pair; its top row (x, y) gives the
    numerator, and site k is a hit iff x (c_{k-1} - c_k) + y c_k = 0.  The
    matrix has determinant 1, so the denominator is then nonzero.  No
    positivity check of is_zero_continued_fraction can fail on a hit: run
    backwards from the value 0, each earlier partial value is 1/(b - x) with
    b >= 2 and 0 <= x < 1, so it lies in (0, 1), and the values after the
    site are those of suffixes of the chain, all > 1.
    """
    m = len(chain)
    c = [0] * (m + 2)
    c[m] = 1
    for j in range(m - 1, -1, -1):
        c[j] = chain[j] * c[j + 1] - c[j + 2]
    hits = []
    x, y = 1, 0  # top row of the prefix matrix of chain[:k-1]
    for k in range(1, m + 1):
        if x * (c[k - 1] - c[k]) + y * c[k] == 0:
            hits.append(k)
        x, y = chain[k - 1] * x + y, -x
    return hits


def attach_position(chain) -> int:
    """The unique 1-based chain position where hanging a -1 vertex makes the
    chain a ruling degeneration."""
    chain = list(chain)
    if not chain or any(not isinstance(b, int) or b < 1 for b in chain):
        raise DomainError(f"bad chain {chain}")
    if all(b >= 2 for b in chain):
        hits = _zero_sites(chain)
    else:
        g = chain_graph(chain)
        hits = [k for k in range(1, len(chain) + 1)
                if is_ruling_degeneration(DualGraph(g.vertices + ((0, -1),), g.edges + ((0, k),)))]
    if not hits:
        note = "" if recognize_dual_wahl(chain) else " (not a dual Wahl chain)"
        raise NoPosition(f"no attach position for {chain}{note}")
    if len(hits) > 1:
        raise MultiplePositions(f"attach positions {hits} for {chain}")
    return hits[0]


@dataclass(frozen=True)
class RegulationPrediction:
    p: int
    q: int
    weight: int
    culet_index: int
    chain: tuple[int, ...]
    rulings: tuple[DualGraph, ...]
    attach_positions: tuple[int, ...]  # global chain positions met by each -1

    def contracted_counts(self) -> tuple[int, ...]:
        return tuple(len(g.vertices) - 1 for g in self.rulings)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "weight": self.weight,
            "culet_index": self.culet_index,
            "chain": list(self.chain),
            "rulings": [g.to_json() for g in self.rulings],
            "attach_positions": list(self.attach_positions),
        }

    def to_dot(self) -> str:
        blocks = []
        for n, g in enumerate(self.rulings, start=1):
            names = {0: f"E{n}"}
            names.update({v: f"C{v}" for v, _ in g.vertices if v != 0})
            blocks.append(g.to_dot(names))
        return "\n".join(blocks)


def _flank_ruling(chain, positions) -> tuple[DualGraph, int]:
    """Build the flank-plus-exceptional graph with global ids; the -1 vertex
    has id 0 and hangs at the flank's unique attach position."""
    flank = [chain[p - 1] for p in positions]
    local = attach_position(flank)
    attach_at = positions[local - 1]
    verts = tuple((p, -chain[p - 1]) for p in positions) + ((0, -1),)
    edges = tuple((a, b) for a, b in zip(positions, positions[1:]))
    g = DualGraph(verts, edges + ((0, attach_at),))
    if not is_ruling_degeneration(g):
        raise AssertionError("predicted ruling fails to degenerate")
    return g, attach_at


def predict_regulation(p: int, q: int) -> RegulationPrediction:
    if p < 2:
        raise DomainError(f"prediction needs p >= 2: got p={p}")
    if q not in companions(p):
        raise DomainError(f"{q} is not a companion of {p}")
    rep = culet_report(p, q)
    chain = list(rep.left_flank) + [rep.manetti_weight] + list(rep.right_flank)
    i = rep.culet_index
    m = len(chain)
    sides = []
    if rep.left_flank:
        sides.append(list(range(1, i)))
    if rep.right_flank:
        sides.append(list(range(i + 1, m + 1)))
    expected = {4: 0, 7: 1, 10: 2}[rep.manetti_weight]
    if len(sides) != expected:
        raise AssertionError(f"flank count {len(sides)} != weight rule {expected}")
    rulings, attach = [], []
    for positions in sides:
        g, at = _flank_ruling(chain, positions)
        rulings.append(g)
        attach.append(at)
    pred = RegulationPrediction(p, q, rep.manetti_weight, i, tuple(chain),
                                tuple(rulings), tuple(attach))
    if sum(pred.contracted_counts()) != (m - 1 if rulings else 0):
        raise AssertionError("contracted-curve count is not m - 1")
    return pred
