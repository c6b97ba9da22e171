"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test covers a single end-to-end promise so that `pytest -v` prints one
pass/fail line per guarantee.  Tolerances are zero everywhere: every check is
an equality or a strict inequality between integers or Fractions.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinstairs.atf_geometry import vianna_triangle
from pinstairs.hirzebruch_jung import is_zero_continued_fraction, wahl_data
from pinstairs.intersection_theory import (
    culet_report,
    discrepancies,
    intersection_matrix,
    inverse_closed_form,
    square_zero_class_search,
    two_ball_degree,
)
from pinstairs.markov import (
    branch_sequence,
    companions,
    compare_to_sigma,
    enumerate_tree,
    sigma_p,
)
from pinstairs.regulation import (
    chain_graph,
    is_ruling_degeneration,
    predict_regulation,
)
from pinstairs.staircase_oracle import (
    embeds,
    obstruction_certificate,
    stair_boxes,
    three_ball_feasible,
    two_ball_feasible,
)

from .frozen import (
    GRID_VERDICT_DIGEST_100,
    MARKOV_NUMBERS_1000,
    PACK_THREE_521,
    PACK_TWO_25,
    REGULATION_DIGEST_DEPTH_8,
    TREE_ROWS,
    VIANNA_CULET_DIGEST_DEPTH_8,
)
from .oracles import (
    below_tau4,
    box_union_verdict,
    enumerate_adjunction_solutions,
    fibonacci_stairs_capacity,
    montante_inverse,
)

F = Fraction


def reachable_pairs():
    """Every (p, companion q) with p a Markov number at most 1000."""
    return [(p, q) for p in MARKOV_NUMBERS_1000 for q in sorted(companions(p).pair)]


def test_markov_tree_depth_5_reproduces_reference_triples():
    rows, level = {}, {}
    for idx, e in enumerate(enumerate_tree(5)):
        d = 0 if e.parent is None else level[e.parent] + 1
        level[idx] = d
        rows.setdefault(d, set()).add(tuple(sorted(e.triple)))
    assert rows == TREE_ROWS
    everything = set().union(*rows.values())
    for named in [(194, 2897, 5), (433, 37666, 29), (169, 985, 2), (13, 7561, 194)]:
        assert tuple(sorted(named)) in everything


def test_branch_sequences_for_2_1_and_5_1():
    assert list(branch_sequence(2, 1, -2, 4).values) == [29, 5, 1, 1, 5, 29, 169]
    window = list(branch_sequence(5, 1, -4, 2).values)
    assert window == [2897, 194, 13, 1, 2, 29, 433]
    assert window[::-1] == [433, 29, 2, 1, 13, 194, 2897]


def test_staircase_outer_corner_sets_are_exact():
    corners = {(b.alpha_sup, b.beta_sup) for b in stair_boxes(2, 1, -2, 2)}
    assert corners == {
        (F(1, 2), F(1, 2)),
        (F(5, 2), F(1, 10)),
        (F(1, 10), F(5, 2)),
        (F(29, 10), F(5, 58)),
        (F(5, 58), F(29, 10)),
    }
    corners = {(b.alpha_sup, b.beta_sup) for b in stair_boxes(5, 1, -4, 1)}
    assert corners == {
        (F(2, 5), F(1, 10)),
        (F(29, 10), F(2, 145)),
        (F(433, 145), F(29, 2165)),
        (F(1, 65), F(13, 5)),
        (F(13, 970), F(194, 65)),
        (F(194, 14485), F(2897, 970)),
    }


def test_sigma_decimal_labels_and_exact_sign_tests():
    assert sigma_p(2).decimal(6) == "2.914213"
    assert sigma_p(5).decimal(6) == "2.986606"
    assert sigma_p(2).decimal(3, rounded=True) == "2.914"
    assert sigma_p(5).decimal(3, rounded=True) == "2.987"
    assert compare_to_sigma(2, F(29, 10)) == "less"
    assert compare_to_sigma(2, F(433, 145)) == "greater"
    assert compare_to_sigma(5, F(433, 145)) == "less"


def test_wahl_culet_table_for_named_pairs():
    assert wahl_data(2, 1).chain == (4,)
    r = culet_report(2, 1)
    assert (r.culet_index, (r.p, r.p2, r.p3), r.manetti_weight) == (1, (2, 1, 1), 4)
    assert wahl_data(5, 1).chain == (7, 2, 2, 2)
    r = culet_report(5, 1)
    assert (r.culet_index, (r.p, r.p2, r.p3), r.manetti_weight) == (1, (5, 1, 2), 7)
    assert wahl_data(29, 7).chain == (5, 2, 2, 2, 2, 2, 10, 2, 2, 2)
    r = culet_report(29, 7)
    assert (r.culet_index, (r.p, r.p2, r.p3), r.manetti_weight) == (7, (29, 5, 2), 10)


def test_matrix_identities_for_every_reachable_pair():
    for p, q in reachable_pairs():
        w = wahl_data(p, q)
        if w.m == 0:
            continue  # p = 1 resolves with an empty chain
        mat = intersection_matrix(w)
        inv = inverse_closed_form(w)
        n = len(mat)
        for i in range(n):
            for j in range(n):
                s = sum(mat[i][k] * inv[k][j] for k in range(n))
                assert s == (1 if i == j else 0)
        assert inv == montante_inverse([[F(x) for x in row] for row in mat])
        for i in range(1, len(w.e)):
            assert w.e[i] * w.f[i - 1] - w.e[i - 1] * w.f[i] == p * p
        assert all(F(-1) < d < 0 for d in discrepancies(w))


@pytest.mark.slow
def test_square_zero_class_is_unique_and_culet_supported():
    for p, q in reachable_pairs():
        if p == 1:
            continue  # empty chain: nothing to support a class on
        c0, chi = square_zero_class_search(p, q)
        w = wahl_data(p, q)
        rep = culet_report(p, q)
        assert [i + 1 for i, x in enumerate(chi) if x] == [rep.culet_index]
        assert chi[rep.culet_index - 1] == 1
        i = rep.culet_index
        assert p * p + w.e[i] + w.f[i] == 3 * p * c0
        if w.m <= 12:
            assert enumerate_adjunction_solutions(w, chi_max=2) == [(c0, chi)]


def test_obstruction_certificates_vanish_at_inner_corners():
    for p, q in reachable_pairs():
        for i in range(-10, 11):
            cert = obstruction_certificate(p, q, i)
            assert cert.s * cert.girdle_length + cert.displacement == 0
            assert cert.s < 0


def test_ball_packing_bounds_and_implied_inequality():
    rep = two_ball_feasible(2, 1, F(1, 100), 5, 1, F(1, 100))
    assert rep.p3 == 1 == two_ball_degree(2, 5)
    assert (rep.bounds["alpha1"], rep.bounds["alpha2"], rep.bounds["sum"]) == PACK_TWO_25
    three = three_ball_feasible((5, 2, 1), (F(1, 100),) * 3)
    assert three.bounds == PACK_THREE_521
    assert set(three.bounds.values()) == {F(1, 10), F(2, 5), F(5, 2)}
    eps = F(1, 10**6)
    comp: dict[int, int] = {}
    seen = set()
    for e in enumerate_tree(8):
        for p1, p2 in itertools.permutations(e.triple, 2):
            if (p1, p2) in seen:
                continue
            seen.add((p1, p2))
            for p in (p1, p2):
                if p not in comp:
                    comp[p] = min(companions(p).pair)
            r = two_ball_feasible(p1, comp[p1], eps, p2, comp[p2], eps)
            assert r.bounds["sum"] <= r.bounds[r.implied]
    assert len(seen) > 300


def test_regulation_predictions_for_named_pairs():
    pred = predict_regulation(2, 1)
    assert (pred.weight, pred.attach_positions, pred.rulings) == (4, (), ())
    assert sum(pred.contracted_counts()) == len(pred.chain) - 1 == 0
    pred = predict_regulation(5, 1)
    assert (pred.weight, pred.attach_positions) == (7, (3,))
    assert all(is_ruling_degeneration(g) for g in pred.rulings)
    assert sum(pred.contracted_counts()) == len(pred.chain) - 1 == 3
    pred = predict_regulation(29, 7)
    assert (pred.weight, pred.attach_positions) == (10, (2, 9))
    assert all(is_ruling_degeneration(g) for g in pred.rulings)
    assert sum(pred.contracted_counts()) == len(pred.chain) - 1 == 9


def test_predictions_and_culet_triangles_to_depth_8_match_pinned_digests():
    numbers = sorted({x for e in enumerate_tree(8) for x in e.triple if x >= 2})
    pairs = [(p, q) for p in numbers for q in sorted(set(companions(p).pair))]
    assert len(pairs) == 255

    def digest(rows):
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest([[p, q, predict_regulation(p, q).to_json()]
                   for p, q in pairs]) == REGULATION_DIGEST_DEPTH_8
    assert digest([[p, q, vianna_triangle(*culet_report(p, q).triple).to_json()]
                   for p, q in pairs]) == VIANNA_CULET_DIGEST_DEPTH_8


def test_zero_chain_predicate_matches_blow_down_search():
    for k in range(1, 7):
        for entries in itertools.product((1, 2, 3, 4), repeat=k):
            assert is_zero_continued_fraction(list(entries)) == is_ruling_degeneration(
                chain_graph(entries)
            )


@pytest.mark.slow
def test_oracle_grid_agreement_and_swap_symmetry():
    n = 200
    for p, q in [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7)]:
        top = F(int(float(sigma_p(p)) * 1000), 1001)
        assert compare_to_sigma(p, top) == "less"
        vals = [F(i, n) * top for i in range(1, n + 1)]
        gmin = vals[0]
        boxes = [(b.alpha_sup, b.beta_sup) for b in stair_boxes(p, q, -60, 60)]
        # a box with either sup below the smallest grid value holds no grid point
        kept = [ab for ab in boxes if ab[0] > gmin and ab[1] > gmin]
        q_swap = p - q if p > 2 else 1
        for a in vals:
            for b in vals:
                v = embeds(p, q, a, b)
                want = box_union_verdict(kept, a, b)
                assert v.answer == ("Embeds" if want else "DoesNotEmbed")
                w = embeds(p, q_swap, b, a)
                assert w.answer == v.answer


def test_benchmark_grid_verdicts_match_pinned_digest():
    # every verdict of a 100x100 grid over the 7 benchmark families, direct and
    # swapped, in full: answer, witness index and sups, or obstruction corner
    n = 100
    h = hashlib.sha256()
    for p, q in [(1, 1), (2, 1), (5, 1), (5, 4), (29, 7), (433, 104), (7453378, 1807955)]:
        top = F(int(float(sigma_p(p)) * 1000), 1001)
        vals = [F(i, n) * top for i in range(1, n + 1)]
        q_swap = p - q if p > 2 else 1
        rows = [[embeds(p, q, a, b).to_json(), embeds(p, q_swap, b, a).to_json()]
                for a in vals for b in vals]
        h.update(json.dumps([p, q, rows], sort_keys=True, separators=(",", ":")).encode())
    assert h.hexdigest() == GRID_VERDICT_DIGEST_100


def _inside_fibonacci_stairs(alpha, beta):
    """McDuff-Schlenk's answer for (alpha, beta) at p = 1: the open region
    min * c(max/min) < 1, for a ratio max/min below tau^4."""
    lo, hi = sorted((alpha, beta))
    return lo * fibonacci_stairs_capacity(hi / lo) < 1


@settings(max_examples=400, deadline=None)
@given(st.fractions(min_value=F(1, 50), max_value=F(27, 10), max_denominator=10**4),
       st.fractions(min_value=F(1, 50), max_value=F(27, 10), max_denominator=10**4))
def test_p_1_staircase_is_mcduff_schlenk_fibonacci_stairs(alpha, beta):
    # alpha and beta span the visible range, tau^2 = sigma_1 < 27/10
    assume(below_tau4(max(alpha, beta) / min(alpha, beta)))
    verdict = embeds(1, 1, alpha, beta)
    assert (verdict.answer == "Embeds") == _inside_fibonacci_stairs(alpha, beta)


def test_p_1_staircase_corners_lie_on_the_fibonacci_stairs():
    boxes = stair_boxes(1, 1, -20, 20)
    outer = [(b.alpha_sup, b.beta_sup) for b in boxes]
    inner = [(a.alpha_sup, b.beta_sup) for a, b in zip(boxes, boxes[1:])]
    nudge = F(1, 10**30)  # far below the gaps between the corners of boxes -20..20
    for alpha, beta in outer + inner:
        lo, hi = sorted((alpha, beta))
        assert below_tau4(hi / lo)
        assert lo * fibonacci_stairs_capacity(hi / lo) == 1  # on the boundary
        assert embeds(1, 1, alpha, beta).answer == "DoesNotEmbed"
        for point in ((alpha - nudge, beta - nudge), (alpha + nudge, beta + nudge)):
            verdict = embeds(1, 1, *point)
            assert (verdict.answer == "Embeds") == _inside_fibonacci_stairs(*point), point
    for alpha, beta in outer:  # just inside an outer corner embeds
        assert embeds(1, 1, alpha - nudge, beta - nudge).answer == "Embeds"
