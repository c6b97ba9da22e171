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
which pins the predicted rulings.  Contracting the hung -1 leaves the chain
with b_k - 1 at the site k.  attach_position finds, for any chain, the sites
where that chain evaluates to 0 in one linear pass of continuants, without
building a graph (see _zero_sites), and confirms each as a zero continued
fraction.  A prediction is derived once, with no second check: the confirmed
site makes its ruling degenerate, by the lemma above, and the culet scan
fixes how many rulings there are and how many curves they contract.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from . import _EXPORTS
from .exact_core import DomainError, _continuants, _Record
from .hirzebruch_jung import is_zero_continued_fraction, recognize_dual_wahl
from .intersection_theory import culet_report
from .markov import _require_companion

__all__ = _EXPORTS["regulation"]


class NoPosition(DomainError):
    """No attachment site makes the chain a ruling degeneration."""


class MultiplePositions(AssertionError):
    """Several sites work: contradicts theory for a genuine dual Wahl chain."""


class DualGraph(_Record):
    """A labeled tree; labels are self-intersection numbers."""

    __slots__ = ("vertices", "edges")
    vertices: tuple[tuple[int, int], ...]  # (id, label)
    edges: tuple[tuple[int, int], ...]  # unordered id pairs, stored sorted

    def __init__(self, vertices: tuple[tuple[int, int], ...], edges: tuple[tuple[int, int], ...]):
        ids = [v for v, _ in vertices]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate vertex ids")
        idset = set(ids)
        norm = []
        for a, b in edges:
            if a == b or a not in idset or b not in idset:
                raise DomainError(f"bad edge ({a},{b})")
            norm.append((a, b) if a < b else (b, a))
        if len(set(norm)) != len(norm):
            raise DomainError("duplicate edges")
        super().__init__(vertices, tuple(norm))
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
    if len(site) != 2:
        raise DomainError(f"an edge site is two vertex ids: got {site!r}")
    a, b = min(site), max(site)
    if (a, b) not in g.edges:
        raise DomainError(f"no edge ({a},{b})")
    verts = tuple((v, s - 1 if v in (a, b) else s) for v, s in g.vertices)
    edges = tuple(e for e in g.edges if e != (a, b)) + ((a, new), (b, new))
    return DualGraph(verts + ((new, -1),), edges)


def _down_moves(labels: dict, adj: dict) -> list[int]:
    return [v for v, s in labels.items() if s == -1 and 1 <= len(adj[v]) <= 2]


def _apply_down(labels: dict, adj: dict, vid: int) -> tuple[dict, dict]:
    """Contract the move vid in O(its degree), editing and returning the two
    dicts; every caller passes copies of its own."""
    del labels[vid]
    nbrs = adj.pop(vid)
    for u in nbrs:
        labels[u] += 1
        adj[u].discard(vid)
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
    out = [-labels[v]]
    while True:
        for u in adj[v]:
            if u != prev:
                break
        else:  # the far end: its one neighbour is the vertex before it
            return out
        prev, v = v, u
        out.append(-labels[v])


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
        if max(labels.values()) >= 0:
            return False
        if max(map(len, adj.values())) <= 2:  # a path
            return is_zero_continued_fraction(_path_entries(labels, adj))
        moves = _down_moves(labels, adj)
        if not moves:
            return False
        labels, adj = _apply_down(labels, adj, moves[0])


def _zero_sites(chain: list[int]) -> list[int]:
    """The 1-based sites k of a chain with entries >= 1 at which
    chain[:k-1] + [b_k - 1] + chain[k:] evaluates to exactly 0, from one
    left-to-right and one right-to-left pass of continuants.

    With P_j the continuant of chain[:j] and S_j that of chain[j-1:], the
    numerator of the chain's value is P_m, and lowering b_k by one lowers it
    by P_{k-1} S_{k+1}.  So site k is a hit iff P_{k-1} S_{k+1} = P_m.  The
    denominator is the continuant next to that numerator, coprime to it, so
    it is then +-1 and the value is 0, not a pole.  That is algebra alone,
    for any entries; attach_position checks on each hit that the changed
    chain is a zero continued fraction, through positive partial values.
    """
    m = len(chain)
    prefix = _continuants(chain, 0, 1)  # prefix[j + 1] = P_j
    suffix = _continuants(reversed(chain), 0, 1)  # suffix[m + 1 - j] = S_{j + 1}
    return [k for k in range(1, m + 1) if prefix[k] * suffix[m + 1 - k] == prefix[-1]]


def attach_position(chain) -> int:
    """The unique 1-based chain position where hanging a -1 vertex makes the
    chain a ruling degeneration: by the lemma in the module docstring, the
    site k where the chain with b_k - 1 is the 0-vertex (for the chain [1])
    or a zero continued fraction with no 0 entry."""
    chain = list(chain)
    if not chain or any(not isinstance(b, int) or b < 1 for b in chain):
        raise DomainError(f"bad chain {chain}")
    hits = [k for k in _zero_sites(chain) if chain == [1] or chain[k - 1] > 1
            and is_zero_continued_fraction(chain[:k - 1] + [chain[k - 1] - 1] + chain[k:])]
    if not hits:
        note = "" if recognize_dual_wahl(chain) else " (not a dual Wahl chain)"
        raise NoPosition(f"no attach position for {chain}{note}")
    if len(hits) > 1:
        raise MultiplePositions(f"attach positions {hits} for {chain}")
    return hits[0]


class RegulationPrediction(_Record):
    __slots__ = ("p", "q", "weight", "culet_index", "chain", "rulings", "attach_positions")
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
    has id 0 and hangs at the flank's unique attach position.  It degenerates:
    vertex 0 is a move, and contracting it leaves the path of the zero
    continued fraction attach_position confirmed (the lemma: T/b degenerating
    makes T degenerate)."""
    flank = [chain[p - 1] for p in positions]
    local = attach_position(flank)
    attach_at = positions[local - 1]
    verts = tuple((p, -chain[p - 1]) for p in positions) + ((0, -1),)
    edges = tuple((a, b) for a, b in zip(positions, positions[1:]))
    return DualGraph(verts, edges + ((0, attach_at),)), attach_at


def predict_regulation(p: int, q: int) -> RegulationPrediction:
    if p < 2:
        raise DomainError(f"prediction needs p >= 2: got p={p}")
    _require_companion(p, q)
    rep = culet_report(p, q)
    chain = list(rep.left_flank) + [rep.manetti_weight] + list(rep.right_flank)
    i = rep.culet_index
    m = len(chain)
    # a flank is empty iff its root is 1 (_match_flank), so _culet's trichotomy
    # gives 0, 1, 2 rulings for weight 4, 7, 10; the sides partition {1..m}
    # minus the culet, so the rulings contract m - 1 curves
    sides = []
    if rep.left_flank:
        sides.append(list(range(1, i)))
    if rep.right_flank:
        sides.append(list(range(i + 1, m + 1)))
    rulings, attach = [], []
    for positions in sides:
        g, at = _flank_ruling(chain, positions)
        rulings.append(g)
        attach.append(at)
    return RegulationPrediction(p, q, rep.manetti_weight, i, tuple(chain),
                                tuple(rulings), tuple(attach))
