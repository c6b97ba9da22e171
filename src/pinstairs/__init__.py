"""pinstairs: exact arithmetic for Markov staircases and Wahl chains.

Everything is computed over arbitrary-precision rationals; floats appear
only when rendering SVG.  The package covers Markov trees and branch
sequences, Hirzebruch-Jung continued fractions, intersection lattices of
Wahl chains, the staircase embedding oracle, almost toric base diagrams,
and dual-graph regulation predictions, plus a CLI (``pinstairs``).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the one list of each module's public names: every module here reads its
# __all__ from its entry (two also list re-exports kept on old import paths).
# Importing the package loads none of the modules; each is imported when one of
# its names is first read (PEP 562)
_EXPORTS = {
    "exact_core": (
        "DomainError", "LatticeVector", "Rational", "RationalPoint", "affine_length",
        "dot", "format_rational", "parse_rational", "primitive_part", "wedge",
    ),
    "markov": (
        "BranchSequence", "CompanionMismatch", "CompanionPair", "MarkovTriple",
        "NoCommonTriple", "NotFound", "NotMarkov", "Sigma", "TreeEntry", "branch_sequence",
        "canonical_triple", "companions", "compare_to_sigma", "enumerate_tree",
        "is_companion", "is_markov_number", "is_markov_triple", "mutate", "sigma_p",
        "tree_to_json", "two_ball_degree", "validate_triple",
    ),
    "hirzebruch_jung": (
        "INFINITY", "HJChain", "WahlData", "dual_chain", "hj_eval", "hj_eval_projective",
        "hj_expand", "is_zero_continued_fraction", "recognize_dual_wahl", "wahl_data",
    ),
    "intersection_theory": (
        "CuletReport", "HomologyClass", "IntersectionLattice", "MultipleCulets", "NoCulet",
        "canonical_class", "class_pairing", "class_square",
        "coefficients_from_intersections", "culet_report", "discrepancies",
        "exceptional_class", "intersection_matrix", "inverse_closed_form",
        "is_negative_definite", "square_zero_class_search",
    ),
    "staircase_oracle": (
        "EmbeddingVerdict", "ObstructionCertificate", "StairBox", "ThreeBallReport",
        "TwoBallReport", "embeds", "obstruction_certificate", "pin_ball_capacity",
        "stair_boxes", "three_ball_feasible", "two_ball_feasible",
    ),
    "atf_geometry": (
        "GirdledTriangle", "GirdleViolated", "NotDelzant", "PavilionEdge",
        "PavilionPolygon", "ViannaTriangle", "cut_segment", "delta_triangle",
        "fan_rays", "girdle_data", "mutate_triangle", "pavilion_polygon",
        "standard_triangle", "triangle_signature", "vianna_triangle",
        "visible_ellipsoid_bounds",
    ),
    "regulation": (
        "DualGraph", "MultiplePositions", "NoPosition", "RegulationPrediction",
        "attach_position", "blow_down", "blow_down_all", "blow_up", "chain_graph",
        "is_ruling_degeneration", "predict_regulation", "zero_sphere",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in _EXPORTS)

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
