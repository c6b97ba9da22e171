"""Frozen expected values, derived by hand before the package was written.

These constants are the independent ground truth for the test suite: they were
computed with pencil-and-paper recurrences (and double-checked arithmetic), not
by running the code under test.  Do not regenerate them from package output.
"""

from fractions import Fraction as F

# --- mutation-tree rows (sorted triples, depth 0..5, duplicates suppressed) ---

TREE_ROWS = {
    0: {(1, 1, 1)},
    1: {(1, 1, 2)},
    2: {(1, 2, 5)},
    3: {(1, 5, 13), (2, 5, 29)},
    4: {(1, 13, 34), (5, 13, 194), (5, 29, 433), (2, 29, 169)},
    5: {
        (1, 34, 89),
        (13, 34, 1325),
        (13, 194, 7561),
        (5, 194, 2897),
        (5, 433, 6466),
        (29, 433, 37666),
        (29, 169, 14701),
        (2, 169, 985),
    },
}

# --- companion pairs ---

COMPANIONS = {
    1: {1},
    2: {1},
    5: {1, 4},
    13: {2, 11},
    29: {7, 22},
    34: {5, 29},
    89: {13, 76},
    169: {41, 128},
    194: {31, 163},
    233: {34, 199},
    433: {104, 329},
    610: {89, 521},
    985: {239, 746},
}

# --- canonical triples (p, a, b) with q = 3*a*b^{-1} mod p ---

CANONICAL_TRIPLES = {
    (1, 1): (1, 1, 1),
    (2, 1): (2, 1, 1),
    (5, 1): (5, 2, 1),
    (5, 4): (5, 1, 2),
    (29, 7): (29, 2, 5),
    (29, 22): (29, 5, 2),
}

# --- branch-sequence windows: (p, q) -> (lo, values for indices lo..lo+len-1) ---

BRANCH_WINDOWS = {
    (2, 1): (-2, [29, 5, 1, 1, 5, 29, 169]),
    (5, 1): (-4, [2897, 194, 13, 1, 2, 29, 433]),
    (1, 1): (0, [1, 1, 2, 5, 13, 34, 89]),
    (29, 7): (-2, [433, 5, 2, 169, 14701]),
}

# --- staircase box corners (alpha_sup, beta_sup) by index ---

BOX_CORNERS = {
    (2, 1): {
        0: (F(1, 2), F(1, 2)),
        1: (F(5, 2), F(1, 10)),
        -1: (F(1, 10), F(5, 2)),
        2: (F(29, 10), F(5, 58)),
        -2: (F(5, 58), F(29, 10)),
    },
    (5, 1): {
        -4: (F(194, 14485), F(2897, 970)),
        -3: (F(13, 970), F(194, 65)),
        -2: (F(1, 65), F(13, 5)),
        -1: (F(2, 5), F(1, 10)),
        0: (F(29, 10), F(2, 145)),
        1: (F(433, 145), F(29, 2165)),
    },
    (1, 1): {
        -1: (F(1, 2), F(2)),
        0: (F(1), F(1)),
        1: (F(2), F(1, 2)),
        2: (F(5, 2), F(2, 5)),
    },
}

# --- Wahl chains with their e/f sequences ---

WAHL = {
    (1, 1): ([], (0, 1), (1, 0)),
    (2, 1): ([4], (0, 1, 4), (4, 1, 0)),
    (5, 1): ([7, 2, 2, 2], (0, 1, 7, 13, 19, 25), (25, 4, 3, 2, 1, 0)),
    (5, 4): ([2, 2, 2, 7], (0, 1, 2, 3, 4, 25), (25, 19, 13, 7, 1, 0)),
    (13, 2): (
        [7, 5, 2, 2, 2, 2, 2],
        (0, 1, 7, 34, 61, 88, 115, 142, 169),
        (169, 25, 6, 5, 4, 3, 2, 1, 0),
    ),
    (29, 7): (
        [5, 2, 2, 2, 2, 2, 10, 2, 2, 2],
        (0, 1, 5, 9, 13, 17, 21, 25, 229, 433, 637, 841),
        (841, 202, 169, 136, 103, 70, 37, 4, 3, 2, 1, 0),
    ),
}

# --- dual chains: (chain, n, a) -> (reversed chain, a_bar) ---

DUAL_CHAINS = [
    (([7, 2, 2, 2], 25, 4), ([2, 2, 2, 7], 19)),
    (([2, 2, 2], 4, 3), ([2, 2, 2], 3)),
    (([4], 4, 1), ([4], 1)),
]

# --- discrepancies ---

DISCREPANCIES = {
    (2, 1): [F(-1, 2)],
    (5, 1): [F(-4, 5), F(-3, 5), F(-2, 5), F(-1, 5)],
}

# --- culet reports: (p, q) -> (index, p2, p3, weight) ---

CULETS = {
    (2, 1): (1, 1, 1, 4),
    (5, 1): (1, 1, 2, 7),
    (5, 4): (4, 2, 1, 7),
    (13, 2): (1, 1, 5, 7),
    (29, 7): (7, 5, 2, 10),
}

# --- square-zero adjunction solutions: (p, q) -> (c0, support indices, chi vals) ---

SQUARE_ZERO = {
    (2, 1): (1, (1,)),
    (5, 1): (2, (1,)),
    (29, 7): (10, (7,)),
}

# --- two-ball degrees ---

TWO_BALL_DEGREES = {(1, 2): 1, (2, 5): 1, (5, 29): 2, (1, 1): 1, (2, 29): 5, (5, 13): 1}

# --- packing bounds for (2,5): (alpha1 bound, alpha2 bound, sum bound) ---

PACK_TWO_25 = (F(5, 2), F(2, 5), F(1, 10))
PACK_THREE_521 = {(1, 2): F(1, 10), (1, 3): F(2, 5), (2, 3): F(5, 2)}

# --- pin-ball capacities ---

CAPACITIES = {(2, 1): F(1, 2), (5, 1): F(1, 10), (1, 1): F(1)}

# --- obstruction certificates at the canonical-valley corner ---
# (p, q) -> (corner index, triple, p3_mutated, s, girdle_length, displacement)

CERTIFICATES = {
    (2, 1): (0, (2, 1, 1), 5, F(-5, 4), F(2, 5), F(1, 2)),
    (5, 1): (-1, (5, 2, 1), 13, F(-26, 25), F(5, 26), F(1, 5)),
    (1, 1): (0, (1, 1, 1), 2, F(-2), F(1, 2), F(1)),
}

# --- fan rays ---

FAN_RAYS = {
    (2, 1): [(1, 0), (0, 1), (-1, 4)],
    (5, 1): [(1, 0), (0, 1), (-1, 7), (-2, 13), (-3, 19), (-4, 25)],
    (5, 4): [(1, 0), (0, 1), (-1, 2), (-2, 3), (-3, 4), (-19, 25)],
    (1, 1): [(1, 0), (0, 1)],
}

# --- girdle data: (triple, q1) -> (vector, length, displacement) ---

GIRDLES = {
    ((2, 1, 1), 1): ((5, 1), F(2, 5), F(1, 2)),
    ((5, 2, 1), 1): ((13, 2), F(5, 26), F(1, 5)),
    ((1, 1, 1), 1): ((2, -1), F(1, 2), F(1)),
}

# --- visible ellipsoid bounds: (triple, vertex index 1..3) -> (a_max, b_max, q) ---

VISIBLE_BOUNDS = {
    ((2, 1, 1), 1): (F(1, 2), F(1, 2), 1),
    ((5, 2, 1), 1): (F(1, 10), F(2, 5), 1),
    ((5, 1, 2), 1): (F(2, 5), F(1, 10), 4),
}

# --- zero continued fractions / regulation ---

ZCF_TRUE = [[2, 1, 2], [1, 1], [1, 2, 1], [2, 2, 1, 3], [3, 1, 2, 2], [3, 1, 3, 1, 3]]
ZCF_FALSE = [[4], [2, 2], [3, 1, 1], [2, 2, 2], [1, 2, 2, 2]]

ATTACH_POSITIONS = {(2, 2, 2): 2, (5, 2, 2, 2, 2, 2): 2}

# --- pinned output digests ---
# Unlike the hand-derived values above, these are SHA-256 digests of package
# output, recorded from the implementation that tested each attach site on a
# chain of its own and rebuilt every Vianna triangle from (1, 1, 1) on each
# call.  They pin the one-pass attach test and the Vianna cache to the same
# output.  Rows are [p, q, obj.to_json()] over every pair (p, q) with p >= 2 a
# Markov number of the tree to depth 8 (255 pairs), serialized by
# json.dumps(rows, sort_keys=True, separators=(",", ":")).

REGULATION_DIGEST_DEPTH_8 = "e25d9c4914ffa2a4c04b8d825eb6e8e66e37e28d8b6e3c85d3e2a151e2dc11e3"
VIANNA_CULET_DIGEST_DEPTH_8 = "d597d5f442c11b96b7459fda97c7aa437c25147699c5d6e2a4e65190140b6b8a"
# Recorded from the `embeds` that walked each verdict up or down from index 0:
# the SHA-256 over the 7 benchmark families in order of
# json.dumps([p, q, rows], sort_keys=True, separators=(",", ":")), where rows
# holds [embeds(p, q, a, b).to_json(), embeds(p, p - q, b, a).to_json()] for
# a, b = k/100 * int(sigma_p * 1000)/1001, k = 1..100 (q_swap = 1 for p <= 2).
GRID_VERDICT_DIGEST_100 = "8a748a80426f3c8fe4dc3888a1156bb8fed041784d8a577b0c3ef0dff6dce461"
# Recorded from the Vianna mutation that worked in Fraction arithmetic: the
# SHA-256 of json.dumps(rows, sort_keys=True, separators=(",", ":")), where
# rows holds vianna_triangle(*t).to_json() for t = (a, b, c), (b, c, a) and
# (c, a, b) over every triple (a, b, c) of enumerate_tree(7), in order.
VIANNA_DIGEST_7 = "a2707a838e6353e8955c375a077c8bcfd7f52ad0885c114bfe85c8727ecf1e47"

# --- run-time self-checks: the `raise AssertionError` and `raise MultipleCulets`
# sites of each module under src/pinstairs (modules with none omitted).  A
# change that adds or drops a self-check updates this table ---

SELF_CHECKS = {
    "atf_geometry": 8, "hirzebruch_jung": 2, "intersection_theory": 6, "markov": 2,
    "staircase_oracle": 1,
}

# --- markov numbers up to 1000 ---

MARKOV_NUMBERS_1000 = [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985]

# --- public API: the names each module exports, none of which may disappear ---

PUBLIC_API = {
    "pinstairs": frozenset({
        "BranchSequence", "CompanionMismatch", "CompanionPair", "CuletReport",
        "DomainError", "DualGraph", "EmbeddingVerdict", "GirdleViolated",
        "GirdledTriangle", "HJChain", "HomologyClass", "INFINITY",
        "IntersectionLattice", "LatticeVector", "MarkovTriple", "MultipleCulets",
        "MultiplePositions",
        "NoCommonTriple", "NoCulet", "NoPosition", "NotDelzant", "NotFound",
        "NotMarkov", "ObstructionCertificate", "PavilionEdge", "PavilionPolygon",
        "Rational", "RationalPoint", "RegulationPrediction", "Sigma", "StairBox",
        "ThreeBallReport", "TreeEntry", "TwoBallReport", "ViannaTriangle", "WahlData",
        "affine_length", "atf_geometry", "attach_position", "blow_down",
        "blow_down_all", "blow_up", "branch_sequence", "canonical_class",
        "canonical_triple", "chain_graph", "class_pairing", "class_square",
        "coefficients_from_intersections", "companions", "compare_to_sigma",
        "culet_report", "cut_segment", "delta_triangle", "discrepancies", "dot",
        "dual_chain", "embeds", "enumerate_tree",
        "exact_core", "exceptional_class", "fan_rays", "format_rational", "girdle_data",
        "hirzebruch_jung", "hj_eval", "hj_eval_projective", "hj_expand", "intersection_matrix",
        "intersection_theory", "inverse_closed_form", "is_companion",
        "is_markov_number", "is_markov_triple", "is_negative_definite",
        "is_ruling_degeneration", "is_zero_continued_fraction", "markov", "mutate",
        "mutate_triangle", "obstruction_certificate", "parse_rational",
        "pavilion_polygon", "pin_ball_capacity", "predict_regulation", "primitive_part",
        "recognize_dual_wahl", "regulation", "sigma_p", "square_zero_class_search",
        "stair_boxes", "staircase_oracle", "standard_triangle", "three_ball_feasible",
        "tree_to_json", "triangle_signature", "two_ball_degree", "two_ball_feasible",
        "validate_triple", "vianna_triangle", "visible_ellipsoid_bounds", "wahl_data", "wedge",
        "zero_sphere"
    }),
    "pinstairs.exact_core": frozenset({
        "DomainError", "LatticeVector", "Rational", "RationalPoint", "affine_length",
        "dot", "format_rational", "parse_rational", "primitive_part", "wedge"
    }),
    "pinstairs.markov": frozenset({
        "BranchSequence", "CompanionMismatch", "CompanionPair", "MarkovTriple",
        "NoCommonTriple", "NotFound", "NotMarkov", "Sigma", "TreeEntry", "branch_sequence",
        "canonical_triple", "companions", "compare_to_sigma", "enumerate_tree",
        "is_companion", "is_markov_number", "is_markov_triple", "mutate", "sigma_p",
        "tree_to_json", "two_ball_degree", "validate_triple"
    }),
    "pinstairs.hirzebruch_jung": frozenset({
        "HJChain", "INFINITY", "WahlData", "dual_chain", "hj_eval",
        "hj_eval_projective", "hj_expand", "is_zero_continued_fraction",
        "recognize_dual_wahl", "wahl_data"
    }),
    "pinstairs.intersection_theory": frozenset({
        "CuletReport", "HomologyClass", "IntersectionLattice", "MultipleCulets",
        "NoCommonTriple", "NoCulet", "canonical_class", "class_pairing", "class_square",
        "coefficients_from_intersections", "culet_report", "discrepancies",
        "exceptional_class", "intersection_matrix", "inverse_closed_form",
        "is_negative_definite", "square_zero_class_search",
        "two_ball_degree"
    }),
    "pinstairs.staircase_oracle": frozenset({
        "CompanionMismatch", "EmbeddingVerdict", "ObstructionCertificate", "StairBox",
        "ThreeBallReport", "TwoBallReport", "embeds", "obstruction_certificate",
        "pin_ball_capacity", "stair_boxes", "three_ball_feasible", "two_ball_feasible"
    }),
    "pinstairs.atf_geometry": frozenset({
        "GirdleViolated", "GirdledTriangle", "NotDelzant", "PavilionEdge", "PavilionPolygon",
        "ViannaTriangle", "cut_segment", "delta_triangle", "fan_rays", "girdle_data",
        "mutate_triangle", "pavilion_polygon", "standard_triangle",
        "triangle_signature", "vianna_triangle", "visible_ellipsoid_bounds"
    }),
    "pinstairs.regulation": frozenset({
        "DualGraph", "MultiplePositions", "NoPosition", "RegulationPrediction",
        "attach_position", "blow_down", "blow_down_all", "blow_up", "chain_graph",
        "is_ruling_degeneration", "predict_regulation", "zero_sphere"
    }),
    "pinstairs.cli_plot": frozenset({
        "RenderSpec", "main", "render_base_diagram", "render_staircase", "run"
    }),
}


# --- the CLI lines of the README, each optional flag on a line of its own ---

README_CLI_LINES = [
    "markov tree --depth 3", "markov tree --depth 3 --json",
    "markov companions 29", "markov companions 29 --depth 4",
    "markov branch 5 1 --lo -4 --hi 2", "wahl 29 7", "wahl 29 7 --json",
    "stair 2 1 --alpha 49/100 --beta 49/100", "stair 5 1 --alpha 3/10 --beta 1/5",
    "stair 2 1 --svg stair.svg --steps 5", "capacity 5 1",
    "pack two 2 1 1/100 5 1 1/100", "pack three 5 1 1/100 2 1 1/100 1 1 1/100",
    "atf delta 5 1 1/2 1/3 --pavilion 1/100,19/1000,17/1000,1/100 --svg delta.svg",
    "atf vianna 5 2 1 --svg vianna.svg",
    "regulation 29 7", "regulation 29 7 --json", "regulation 29 7 --dot",
]
