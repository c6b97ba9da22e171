"""Dual graphs, combinatorial blow-ups/downs, ruling degenerations."""

import itertools
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinstairs.exact_core import DomainError
from pinstairs.hirzebruch_jung import hj_expand, is_zero_continued_fraction
from pinstairs.markov import companions, enumerate_tree
from pinstairs.regulation import (
    EXHAUSTIVE_VERTEX_CAP,
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


def test_zero_sphere_and_chain_graph():
    z = zero_sphere()
    assert z.vertices == ((1, 0),)
    g = chain_graph([2, 1, 2])
    assert g.vertices == ((1, -2), (2, -1), (3, -2))
    assert g.edges == ((1, 2), (2, 3))


def test_dual_graph_rejects_cycles_and_disconnection():
    with pytest.raises(DomainError):
        DualGraph(((1, -1), (2, -1), (3, -1)), ((1, 2), (2, 3), (1, 3)))
    with pytest.raises(DomainError):
        DualGraph(((1, -1), (2, -1), (3, -1)), ((1, 2),))


def test_blow_up_vertex():
    g = blow_up(zero_sphere(), 1)
    assert g.labels() == {1: -1, 2: -1}
    assert g.edges == ((1, 2),)


def test_blow_up_edge():
    g = blow_up(zero_sphere(), 1)  # 1(-1) -- 2(-1)
    g2 = blow_up(g, (1, 2))
    assert g2.labels() == {1: -2, 2: -2, 3: -1}
    assert set(g2.edges) == {(1, 3), (2, 3)}


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


def test_blow_down_all_reaches_zero_sphere_on_a_degeneration():
    final, log = blow_down_all(chain_graph([1, 2, 1]))
    assert final.vertices[0][1] == 0 and len(final.vertices) == 1
    assert len(log) == 2


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


def test_predicted_rulings_all_degenerate():
    for p, q in [(5, 1), (5, 4), (13, 2), (29, 7), (29, 22), (34, 5)]:
        pred = predict_regulation(p, q)
        for g in pred.rulings:
            assert is_ruling_degeneration(g)
        assert sum(pred.contracted_counts()) == len(pred.chain) - 1


def test_prediction_rejects_p_one():
    with pytest.raises(DomainError):
        predict_regulation(1, 1)


def exhaustive_is_degeneration(g: DualGraph) -> bool:
    # plain recursive search over all blow-down orders, no memo
    labels, adj = g.labels(), g.adjacency()
    if len(labels) == 1:
        return next(iter(labels.values())) == 0
    ok = False
    for v, s in labels.items():
        if s != -1 or len(adj[v]) > 2:
            continue
        nl = dict(labels)
        na = {k: set(x) for k, x in adj.items()}
        nb = sorted(na.pop(v))
        del nl[v]
        for u in nb:
            na[u].discard(v)
            nl[u] += 1
        if len(nb) == 2:
            a, b = nb
            na[a].add(b)
            na[b].add(a)
        sub = DualGraph(tuple(sorted(nl.items())),
                        tuple(sorted(tuple(sorted((u, w))) for u in na for w in na[u] if u < w)))
        if exhaustive_is_degeneration(sub):
            ok = True
            break
    return ok


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
def test_memoized_search_matches_plain_recursion_on_chains(entries):
    g = chain_graph(entries)
    assert is_ruling_degeneration(g) == exhaustive_is_degeneration(g)


def test_ruling_check_matches_exhaustive_search_on_every_short_chain():
    # paths are decided by the zero continued fraction criterion; this keeps
    # a search over all blow-down orders as the independent reference
    for k in range(1, 8):
        for entries in itertools.product((1, 2, 3, 4), repeat=k):
            g = chain_graph(entries)
            assert is_ruling_degeneration(g) == exhaustive_is_degeneration(g), entries


def test_attach_position_matches_exhaustive_search_on_every_short_chain():
    for k in range(1, 7):
        for chain in itertools.product((2, 3, 4, 5), repeat=k):
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


def test_greedy_reducer_still_warns_on_large_trees_that_are_not_paths():
    # a -1 of degree 3 with three arms of -2 curves: no vertex can come down
    n = EXHAUSTIVE_VERTEX_CAP + 2
    verts = ((1, -1),) + tuple((v, -2) for v in range(2, n + 1))
    edges = [(1, 2), (1, 3), (1, 4)] + [(v - 3, v) for v in range(5, n + 1)]
    star = DualGraph(verts, tuple(edges))
    with pytest.warns(UserWarning, match="false negative"):
        assert not is_ruling_degeneration(star)
