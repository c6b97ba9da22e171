"""Dual graphs, combinatorial blow-ups/downs, ruling degenerations."""

import functools
import itertools
import re
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinstairs.regulation as regulation
from pinstairs.exact_core import DomainError
from pinstairs.hirzebruch_jung import hj_expand, is_zero_continued_fraction
from pinstairs.intersection_theory import culet_report
from pinstairs.markov import companions, enumerate_tree
from pinstairs.regulation import (
    DualGraph,
    MultiplePositions,
    NoPosition,
    attach_position,
    blow_down,
    blow_down_all,
    blow_up,
    chain_graph,
    is_ruling_degeneration,
    predict_regulation,
    zero_sphere,
)

from .frozen import ATTACH_POSITIONS, ZCF_FALSE, ZCF_TRUE
from .oracles import attach_sites, fibre_certificate, smallest_id_blow_downs, tree_refusal


def test_zero_sphere_and_chain_graph():
    z = zero_sphere()
    assert z.vertices == ((1, 0),)
    g = chain_graph([2, 1, 2])
    assert g.vertices == ((1, -2), (2, -1), (3, -2))
    assert g.edges == ((1, 2), (2, 3))


def test_dual_graph_rejects_cycles_and_disconnection():
    three = ((1, -1), (2, -1), (3, -1))
    four = three + ((4, -2),)
    refused = [
        (((1, -1), (1, -2)), (), "duplicate vertex ids"),
        (three, ((1, 2), (2, 2)), "bad edge (2,2)"),
        (three, ((1, 2), (2, 5)), "bad edge (2,5)"),
        (three, ((1, 2), (2, 1)), "duplicate edges"),
        (((1, -1, 2),), (), "a vertex or an edge is not a pair: (1, -1, 2)"),
        (three, ((1, 2), (1, 2, 3)), "a vertex or an edge is not a pair: (1, 2, 3)"),
        (three, ((1, 2), [3]), "a vertex or an edge is not a pair: (3,)"),
        (three, ((1, 2), (2, 3), (1, 3)), "graph is not a tree (wrong edge count)"),
        (three, ((1, 2),), "graph is not a tree (wrong edge count)"),
        # n - 1 edges that close a cycle leave a vertex out, wherever it lies
        (four, ((1, 2), (2, 3), (1, 3)), "graph is not a tree (disconnected)"),
        (((4, -2),) + three, ((1, 2), (2, 3), (3, 1)), "graph is not a tree (disconnected)"),
        (four + ((5, -2),), ((4, 2), (2, 1), (1, 4), (3, 5)), "graph is not a tree (disconnected)"),
    ]
    for vertices, edges, message in refused:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DualGraph(vertices, edges)
    assert DualGraph(four, ((4, 2), (2, 1), (3, 1))).edges == ((2, 4), (1, 2), (1, 3))


def test_dual_graph_stores_its_vertices_as_a_tuple_of_pairs():
    g = DualGraph(((1, 0),), ())
    assert DualGraph([(1, 0)], []) == g and DualGraph([[1, 0]], []) == g
    assert hash(DualGraph([(1, 0)], [])) == hash(g)
    path = DualGraph(((v, -2) for v in (1, 2, 3)), [(2, 1), [3, 2]])
    assert path == chain_graph([2, 2, 2]) and path.vertices == ((1, -2), (2, -2), (3, -2))


@st.composite
def _small_graphs(draw):
    """Vertex and edge lists on small ids: a random tree, then up to two edits
    (an edge replaced, added or dropped), reversed pairs and a shuffle, so that
    repeated ids, self-loops, unknown ids, repeated edges, cycles and isolated
    vertices all occur."""
    ids = draw(st.lists(st.integers(0, 9), max_size=7, unique=draw(st.integers(0, 4)) > 0))
    vertices = [(v, draw(st.integers(-3, 0))) for v in ids]
    edges = [(ids[draw(st.integers(0, k - 1))], ids[k]) for k in range(1, len(ids))]
    known = st.sampled_from(ids) if ids else st.integers(0, 10)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.integers(0, 5))
        pair = (draw(st.one_of(known, st.integers(0, 10))), draw(known))
        if edit < 4 and edges:
            edges[draw(st.integers(0, len(edges) - 1))] = pair
        elif edit == 4:
            edges.append(pair)
        elif edges:
            edges.pop(draw(st.integers(0, len(edges) - 1)))
    return vertices, draw(st.permutations([e[::-1] if draw(st.booleans()) else e for e in edges]))


@settings(max_examples=600, deadline=None)
@given(_small_graphs())
def test_dual_graph_refuses_exactly_what_the_neighbour_set_search_refuses(graph):
    vertices, edges = graph
    message = tree_refusal(vertices, edges)
    if message is None:
        g = DualGraph(vertices, edges)
        assert g.vertices == tuple(vertices)
        assert g.edges == tuple((min(e), max(e)) for e in edges)
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            DualGraph(vertices, edges)


def test_a_large_tree_is_checked_in_time_linear_in_its_size():
    # without path halving the finds of a star walk a chain that grows by one
    # with each edge, so the check would take time quadratic in n
    n = 20_000
    star = [(v, -2) for v in range(n + 1)]
    path = [(v, -2) for v in range(n)]
    links = [(v, v + 1) for v in range(n - 1)]
    for vertices, edges in [(star, [(0, v) for v in range(1, n + 1)]),
                            (star, [(v, 0) for v in range(n, 0, -1)]),
                            (path, links), (path, links[::-1])]:
        start = time.perf_counter()
        DualGraph(vertices, edges)
        assert time.perf_counter() - start < 0.5


def test_blow_up_vertex():
    g = blow_up(zero_sphere(), 1)
    assert g.labels() == {1: -1, 2: -1}
    assert g.edges == ((1, 2),)


def test_blow_up_edge():
    g = blow_up(zero_sphere(), 1)  # 1(-1) -- 2(-1)
    g2 = blow_up(g, (1, 2))
    assert g2.labels() == {1: -2, 2: -2, 3: -1}
    assert set(g2.edges) == {(1, 3), (2, 3)}


@pytest.mark.parametrize("site", [(1, 2, 2), (), (2,)])
def test_blow_up_refuses_an_edge_site_that_is_not_two_vertex_ids(site):
    # (1, 2, 2) would otherwise blow up the edge (1, 2), from its min and max
    with pytest.raises(DomainError, match="two vertex ids"):
        blow_up(chain_graph([2, 2, 2]), site)


def test_blow_down_leaf_and_interior():
    g = blow_up(zero_sphere(), 1)  # 1(-1) -- 2(-1)
    back = blow_down(g, 2)
    assert back.vertices == ((1, 0),)
    g2 = blow_up(g, (1, 2))  # 1(-2) -- 3(-1) -- 2(-2)
    mid = blow_down(g2, 3)
    assert mid.labels() == {1: -1, 2: -1}
    assert mid.edges == ((1, 2),)


def test_blow_down_rejects_bad_sites():
    g = chain_graph([2, 1, 2])
    with pytest.raises(DomainError):
        blow_down(g, 1)  # label is -2, not -1
    g3 = DualGraph(((1, -1), (2, -1), (3, -1), (4, -1)),
                   ((1, 2), (1, 3), (1, 4)))
    with pytest.raises(DomainError):
        blow_down(g3, 1)  # degree 3 vertex cannot come down


def test_degree_counts_the_edges_at_a_vertex_and_refuses_a_missing_one():
    star = DualGraph(((1, -1), (2, -1), (3, -1), (4, -1)), ((1, 2), (1, 3), (1, 4)))
    for g in (zero_sphere(), chain_graph([2, 1, 2]), star, blow_up(star, (1, 3))):
        adjacency = g.adjacency()
        assert {v: g.degree(v) for v, _ in g.vertices} == {v: len(adjacency[v]) for v in adjacency}
    with pytest.raises(DomainError, match=r"^no vertex 9$"):
        chain_graph([2, 3]).degree(9)


def test_blow_down_all_reaches_zero_sphere_on_a_degeneration():
    final, log = blow_down_all(chain_graph([1, 2, 1]))
    assert final.vertices[0][1] == 0 and len(final.vertices) == 1
    assert len(log) == 2


def test_a_degeneration_of_twenty_thousand_vertices_is_decided_in_time():
    # a rescan of every vertex after each contraction takes time quadratic in
    # n: seconds on each of these trees
    k = 10_000  # a spine of -3 curves, each with a -1 leaf, and a second at each end
    vertices = [(v, -3) for v in range(1, k + 1)] + [(v, -1) for v in range(k + 1, 2 * k + 3)]
    edges = ([(v, v + 1) for v in range(1, k)] + [(v, k + v) for v in range(1, k + 1)]
             + [(1, 2 * k + 1), (k, 2 * k + 2)])
    caterpillar = DualGraph(vertices, edges)
    path = chain_graph([1] + [2] * 19_998 + [1])
    for g in (caterpillar, path):
        start = time.perf_counter()
        final, log = blow_down_all(g)
        assert time.perf_counter() - start < 0.5
        assert [s for _, s in final.vertices] == [0] and len(log) == len(g.vertices) - 1
        start = time.perf_counter()
        assert is_ruling_degeneration(g)
        assert time.perf_counter() - start < 0.5


def test_up_then_down_round_trip():
    g = chain_graph([2, 1, 2])
    for site in (1, 2, 3, (1, 2), (2, 3)):
        up = blow_up(g, site)
        new = max(up.labels())
        assert blow_down(up, new).labels() == g.labels()


@pytest.mark.parametrize("entries", ZCF_TRUE)
def test_chain_degenerations_are_recognized(entries):
    assert is_ruling_degeneration(chain_graph(entries))


@pytest.mark.parametrize("entries", ZCF_FALSE)
def test_non_degenerations_are_rejected(entries):
    assert not is_ruling_degeneration(chain_graph(entries))


def test_zcf_predicate_equals_blow_down_search_small():
    for k in range(1, 5):
        for entries in itertools.product((1, 2, 3, 4), repeat=k):
            assert is_zero_continued_fraction(list(entries)) == \
                is_ruling_degeneration(chain_graph(entries))


def test_triangle_of_minus_ones_is_not_a_degeneration():
    path = DualGraph(((1, -1), (2, -1), (3, -1)), ((1, 2), (2, 3)))
    assert not is_ruling_degeneration(path)


def test_ruling_degeneration_rejects_bad_graphs():
    with pytest.raises(DomainError):
        is_ruling_degeneration(DualGraph(((1, 1),), ()))


def test_star_with_central_minus_one():
    # -1 center of degree 3: no move ever frees it
    star = DualGraph(((1, -1), (2, -1), (3, -1), (4, -2)),
                     ((1, 2), (1, 3), (1, 4)))
    assert not is_ruling_degeneration(star)


@pytest.mark.parametrize("chain,pos", sorted(ATTACH_POSITIONS.items()))
def test_attach_positions_match_frozen(chain, pos):
    assert attach_position(list(chain)) == pos


def test_attach_position_rejects_non_dual_wahl():
    with pytest.raises(NoPosition):
        attach_position([4])
    with pytest.raises(NoPosition):
        attach_position([2, 2])


def test_attach_position_input_validation():
    with pytest.raises(DomainError):
        attach_position([])
    with pytest.raises(DomainError):
        attach_position([0, 2])


def test_predictions_for_weight_four_have_no_rulings():
    pred = predict_regulation(2, 1)
    assert pred.weight == 4
    assert pred.rulings == () and pred.attach_positions == ()
    assert sum(pred.contracted_counts()) == 0  # m - 1 = 0


def test_prediction_weight_seven_single_ruling():
    pred = predict_regulation(5, 1)
    assert pred.weight == 7 and pred.culet_index == 1
    assert len(pred.rulings) == 1
    assert pred.attach_positions == (3,)  # middle of the three -2 curves
    g = pred.rulings[0]
    assert dict(g.vertices)[0] == -1  # the attached exceptional sphere
    assert {v for v, _ in g.vertices} == {0, 2, 3, 4}
    assert sum(pred.contracted_counts()) == 3  # m - 1


def test_prediction_weight_ten_two_rulings():
    pred = predict_regulation(29, 7)
    assert pred.weight == 10 and pred.culet_index == 7
    assert pred.attach_positions == (2, 9)
    left, right = pred.rulings
    assert {v for v, _ in left.vertices} == {0, 1, 2, 3, 4, 5, 6}
    assert {v for v, _ in right.vertices} == {0, 8, 9, 10}
    assert sum(pred.contracted_counts()) == 9  # m - 1


def test_predicted_rulings_equal_the_validated_graphs_to_depth_8():
    # _flank_ruling writes each graph's two slots itself, with no validation:
    # the constructor, which validates a tree, builds the same graph from them
    numbers = sorted({x for e in enumerate_tree(8) for x in e.triple if x >= 2})
    for p, q in [(p, q) for p in numbers for q in sorted(set(companions(p).pair))]:
        for g in predict_regulation(p, q).rulings:
            built = DualGraph(g.vertices, g.edges)
            assert type(g) is DualGraph and g == built
            assert (hash(g), repr(g)) == (hash(built), repr(built))
            assert is_ruling_degeneration(g)


def test_predicted_rulings_all_degenerate():
    # predict_regulation derives these three properties and checks none of
    # them (see _flank_ruling and predict_regulation); here they are checked
    numbers = sorted({x for e in enumerate_tree(9) for x in e.triple if x >= 2})
    pairs = [(p, q) for p in numbers for q in sorted(set(companions(p).pair))]
    assert len(pairs) == 511
    for p, q in pairs:
        pred = predict_regulation(p, q)
        assert all(is_ruling_degeneration(g) for g in pred.rulings)
        assert sum(pred.contracted_counts()) == len(pred.chain) - 1
        assert len(pred.rulings) == {4: 0, 7: 1, 10: 2}[pred.weight]


def test_prediction_rejects_p_one():
    with pytest.raises(DomainError):
        predict_regulation(1, 1)


def exhaustive_is_degeneration(g: DualGraph) -> bool:
    # a search over all blow-down orders that assumes no lemma
    return _exhaustive(tuple(sorted(g.vertices)), tuple(sorted(g.edges)))


# bounded: the short-chain sweeps meet about 430 000 trees, which unbounded
# would hold some 300 MB for the rest of the session, at little gain in time
@functools.lru_cache(maxsize=1 << 14)
def _exhaustive(vertices: tuple, edges: tuple) -> bool:
    """Whether some order of blow-downs takes the tree of the sorted (id, label)
    vertices and sorted edges to the single 0-vertex.  Vertex ids are kept, so a
    tree met on several orders is searched once while it stays cached."""
    if len(vertices) == 1:
        return vertices[0][1] == 0
    for v, s in vertices:
        nb = sorted(u for e in edges if v in e for u in e if u != v)
        if s != -1 or len(nb) > 2:
            continue
        rest = tuple((u, t + (u in nb)) for u, t in vertices if u != v)
        kept = [e for e in edges if v not in e] + ([tuple(nb)] if len(nb) == 2 else [])
        if _exhaustive(rest, tuple(sorted(kept))):
            return True
    return False


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
def test_memoized_search_matches_plain_recursion_on_chains(entries):
    g = chain_graph(entries)
    assert is_ruling_degeneration(g) == exhaustive_is_degeneration(g)


def test_ruling_check_matches_exhaustive_search_on_every_short_chain():
    # a search over all blow-down orders, which assumes no lemma, is the
    # independent reference
    for k in range(1, 8):
        for entries in itertools.product((1, 2, 3, 4), repeat=k):
            g = chain_graph(entries)
            assert is_ruling_degeneration(g) == exhaustive_is_degeneration(g), entries


@pytest.mark.slow
def test_attach_position_matches_exhaustive_search_on_every_short_chain():
    for k in range(1, 7):
        for chain in itertools.product((1, 2, 3, 4, 5), repeat=k):
            g = chain_graph(chain)
            hits = [s for s in range(1, k + 1) if exhaustive_is_degeneration(
                DualGraph(g.vertices + ((0, -1),), g.edges + ((0, s),)))]
            if len(hits) == 1:
                assert attach_position(chain) == hits[0]
            else:
                with pytest.raises(MultiplePositions if hits else NoPosition):
                    attach_position(chain)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoized_search_matches_plain_recursion_on_random_trees(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    labels = [data.draw(st.integers(min_value=-4, max_value=-1)) for _ in range(n)]
    edges = []
    for v in range(2, n + 1):
        parent = data.draw(st.integers(min_value=1, max_value=v - 1))
        edges.append((parent, v))
    g = DualGraph(tuple((i + 1, labels[i]) for i in range(n)), tuple(edges))
    assert is_ruling_degeneration(g) == exhaustive_is_degeneration(g)


def _dual_wahl_flank(s, q):
    # hj_expand(s^2, s^2 - sq + 1): the dual of the Wahl chain of (s, q)
    return hj_expand(s * s, s * s - s * q + 1)


_SHORT_DUAL_WAHL = [c for s in range(2, 30) for q in range(1, s)
                    if len(c := _dual_wahl_flank(s, q)) <= 15]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=15),
                 st.sampled_from(_SHORT_DUAL_WAHL)))
def test_attach_position_matches_exhaustive_search(chain):
    g = chain_graph(chain)
    hits = [k for k in range(1, len(chain) + 1)
            if exhaustive_is_degeneration(DualGraph(g.vertices + ((0, -1),), g.edges + ((0, k),)))]
    if len(hits) == 1:
        assert attach_position(chain) == hits[0]
    elif not hits:
        with pytest.raises(NoPosition):
            attach_position(chain)
    else:
        with pytest.raises(MultiplePositions):
            attach_position(chain)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ruling_check_matches_exhaustive_search_after_blow_ups(data):
    # labels 0 and +1 appear; a blow-up at each +1 vertex makes it 0 with a
    # -1 leaf, so forced moves, labels >= 0 and leftover paths all occur
    n = data.draw(st.integers(min_value=1, max_value=6))
    labels = [data.draw(st.integers(min_value=-3, max_value=1)) for _ in range(n)]
    edges = [(data.draw(st.integers(min_value=1, max_value=v - 1)), v) for v in range(2, n + 1)]
    g = DualGraph(tuple((i + 1, labels[i]) for i in range(n)), tuple(edges))
    for v in range(1, n + 1):
        if labels[v - 1] == 1:
            g = blow_up(g, v)
    sites = list(range(1, n + 1)) + list(g.edges)
    g = blow_up(g, data.draw(st.sampled_from(sites)))
    assert is_ruling_degeneration(g) == exhaustive_is_degeneration(g)


def test_predictions_to_depth_eight_raise_no_warning():
    numbers = sorted({x for e in enumerate_tree(8) for x in e.triple if x >= 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in numbers:
            for q in set(companions(p).pair):
                pred = predict_regulation(p, q)
                assert sum(pred.contracted_counts()) == len(pred.chain) - 1


def test_large_trees_that_are_not_paths_are_decided_without_warning():
    # a -1 of degree 3 with three arms of -2 curves: no vertex can come down
    n = 18
    verts = ((1, -1),) + tuple((v, -2) for v in range(2, n + 1))
    edges = [(1, 2), (1, 3), (1, 4)] + [(v - 3, v) for v in range(5, n + 1)]
    star = DualGraph(verts, tuple(edges))
    # blow up the newest -1 leaf twice, eight times over: a spine of -3
    # curves, each with a -1 leaf, 18 vertices and nine moves to start with
    comb = blow_up(zero_sphere(), 1)
    for _ in range(8):
        comb = blow_up(comb, max(comb.labels()))
        comb = blow_up(comb, sorted(comb.labels())[-2])
    assert len(comb.vertices) == 18 and any(comb.degree(v) > 2 for v, _ in comb.vertices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_ruling_degeneration(star)
        assert is_ruling_degeneration(comb)


@st.composite
def _blow_up_trees(draw, min_size=1, max_size=30):
    """The zero sphere blown up at random vertices and edges."""
    g = zero_sphere()
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    while len(g.vertices) < size:
        g = blow_up(g, draw(st.sampled_from([v for v, _ in g.vertices] + list(g.edges))))
    return g


@st.composite
def _random_trees(draw):
    """A tree of 1 to 8 vertices labelled -4..0."""
    n = draw(st.integers(min_value=1, max_value=8))
    labels = [draw(st.integers(min_value=-4, max_value=0)) for _ in range(n)]
    edges = [(draw(st.integers(min_value=1, max_value=v - 1)), v) for v in range(2, n + 1)]
    return DualGraph(tuple((i + 1, labels[i]) for i in range(n)), tuple(edges))


def test_fibre_certificate_on_hand_computed_configurations():
    assert fibre_certificate(zero_sphere().vertices, ()) == {1: 1}
    g = chain_graph([2, 1, 2])
    assert fibre_certificate(g.vertices, g.edges) == {1: 1, 2: 2, 3: 1}
    # elliptic configurations: a positive kernel, but K.F = 0
    d4 = DualGraph(((1, -2), (2, -2), (3, -2), (4, -2), (5, -2)),
                   ((1, 2), (1, 3), (1, 4), (1, 5)))
    star = DualGraph(((1, -1), (2, -4), (3, -2), (4, -4)), ((1, 2), (1, 3), (1, 4)))
    # K.F = -2 on the kernel (2, -2, 2, -1, -1), which is not positive
    mixed = DualGraph(((1, 0), (2, 0), (3, -1), (4, -2), (5, -2)),
                      ((1, 2), (1, 3), (2, 4), (2, 5)))
    for g in (d4, star, mixed):
        assert fibre_certificate(g.vertices, g.edges) is None
        assert not is_ruling_degeneration(g) and not exhaustive_is_degeneration(g)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(st.one_of(_random_trees(), _blow_up_trees(max_size=8)))
def test_fibre_certificate_matches_ruling_check_and_exhaustive_search(g):
    certified = fibre_certificate(g.vertices, g.edges) is not None
    assert is_ruling_degeneration(g) == certified == exhaustive_is_degeneration(g)
    final, log = blow_down_all(g)
    assert (final.vertices, final.edges, log) == smallest_id_blow_downs(g.vertices, g.edges)


@pytest.mark.filterwarnings("error")
@settings(max_examples=15, deadline=None)
@given(_blow_up_trees(min_size=17, max_size=40))
def test_fibre_certificate_and_ruling_check_accept_large_blow_up_trees(g):
    assert fibre_certificate(g.vertices, g.edges) is not None
    assert is_ruling_degeneration(g)


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(_blow_up_trees(max_size=30))
def test_every_move_of_a_degeneration_leaves_a_degeneration(g):
    # the lemma in the regulation docstring: the order of blow-downs does not matter
    labels, adj = g.labels(), g.adjacency()
    moves = [v for v, s in labels.items() if s == -1 and 1 <= len(adj[v]) <= 2]
    assert moves or len(labels) == 1
    for v in moves:
        assert is_ruling_degeneration(blow_down(g, v))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_random_trees(), _blow_up_trees(max_size=30)))
def test_blowing_down_leaves_the_given_graph_as_it_was(g):
    # _apply_down edits its dicts in place; the callers hand it copies
    copy = DualGraph(g.vertices, g.edges)
    labels, adj = g.labels(), g.adjacency()
    moves = [v for v, s in labels.items() if s == -1 and 1 <= len(adj[v]) <= 2]
    for v in moves:
        blow_down(g, v)
    blow_down_all(g)
    is_ruling_degeneration(g)
    assert g == copy and g.labels() == labels and g.adjacency() == adj


def test_the_multiple_positions_check_runs(monkeypatch):
    # no chain with two attach sites is known; this one evaluates to 0 at two
    # sites, and both pass once the zero-continued-fraction test accepts all
    chain = [1, 2, 1, 1, 2, 1]
    assert regulation._zero_sites(chain) == [2, 5]
    monkeypatch.setattr(regulation, "is_zero_continued_fraction", lambda entries: True)
    with pytest.raises(MultiplePositions, match=r"attach positions \[2, 5\]"):
        attach_position(chain)


def assert_attach_matches_per_site_reference(chain):
    hits = attach_sites(list(chain))
    if len(hits) == 1:
        assert attach_position(chain) == hits[0]
    else:
        with pytest.raises(MultiplePositions if hits else NoPosition):
            attach_position(chain)


def _flanks_to_depth(depth):
    numbers = sorted({x for e in enumerate_tree(depth) for x in e.triple if x >= 2})
    reports = [culet_report(p, q) for p in numbers for q in set(companions(p).pair)]
    return sorted({tuple(f) for r in reports for f in (r.left_flank, r.right_flank) if f})


def test_one_pass_attach_position_matches_per_site_reference_on_every_flank():
    flanks = _flanks_to_depth(9)
    assert len(flanks) == 255 and max(map(len, flanks)) > 150
    for flank in flanks:
        assert len(attach_sites(list(flank))) == 1
        assert_attach_matches_per_site_reference(flank)


@st.composite
def _chains_with_a_site(draw):
    """A chain with entries >= 2 and an attach site: blow up [2, 1, 2] next to
    its only 1 (at an end, or on an edge beside it), then raise that 1 to 2."""
    chain, k = [2, 1, 2], 1
    for _ in range(draw(st.integers(min_value=0, max_value=77))):
        if draw(st.booleans()):  # left of the 1
            if k == 0:
                chain = [1, chain[0] + 1] + chain[1:]
            else:
                chain = chain[:k - 1] + [chain[k - 1] + 1, 1, chain[k] + 1] + chain[k + 1:]
        else:
            if k == len(chain) - 1:
                chain = chain[:-1] + [chain[-1] + 1, 1]
            else:
                chain = chain[:k] + [chain[k] + 1, 1, chain[k + 1] + 1] + chain[k + 2:]
            k += 1
    chain[k] += 1
    return chain


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=80),
                 _chains_with_a_site()))
def test_one_pass_attach_position_matches_per_site_reference_on_long_chains(chain):
    assert len(chain) <= 80
    assert_attach_matches_per_site_reference(chain)


def test_flank_check_contracts_the_hung_vertex_first(monkeypatch):
    # predict_regulation contracts nothing and builds no neighbour sets: it
    # writes each ruling's slots itself, with no validation.  Checked on its own,
    # a ruling builds its neighbour sets once and contracts the hung -1, the
    # least id and the one move, first; the flank then comes down to the
    # 0-vertex
    contracted, built = [], []
    apply_down = regulation._apply_down
    adjacency = DualGraph.adjacency

    def counting(labels, adj, vid):
        contracted.append(vid)
        return apply_down(labels, adj, vid)

    def counting_adjacency(g):
        built.append(g)
        return adjacency(g)

    monkeypatch.setattr(regulation, "_apply_down", counting)
    monkeypatch.setattr(DualGraph, "adjacency", counting_adjacency)
    for p, q in [(5, 1), (29, 7), (433, 104), (37666, 9047)]:
        contracted.clear()
        built.clear()
        pred = predict_regulation(p, q)
        assert pred.rulings and contracted == [] and built == []
        assert all(is_ruling_degeneration(g) for g in pred.rulings)
        assert list(map(id, built)) == list(map(id, pred.rulings))
        for g in pred.rulings:
            contracted.clear()
            is_ruling_degeneration(g)
            assert contracted[0] == 0 and len(contracted) == len(g.vertices) - 1
