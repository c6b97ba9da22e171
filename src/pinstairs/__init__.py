"""pinstairs: exact arithmetic for Markov staircases and Wahl chains.

Everything is computed over arbitrary-precision rationals; floats appear
only when rendering SVG.  The package covers Markov trees and branch
sequences, Hirzebruch-Jung continued fractions, intersection lattices of
Wahl chains, the staircase embedding oracle, almost toric base diagrams,
and dual-graph regulation predictions, plus a CLI (``pinstairs``).
"""

from .exact_core import (
    DomainError,
    LatticeVector,
    Rational,
    RationalPoint,
    affine_length,
    dot,
    format_rational,
    parse_rational,
    primitive_part,
    wedge,
)
from .markov import (
    BranchSequence,
    CompanionPair,
    NotFound,
    NotMarkov,
    Sigma,
    TreeEntry,
    branch_sequence,
    canonical_triple,
    companions,
    compare_to_sigma,
    enumerate_tree,
    is_companion,
    is_markov_number,
    is_markov_triple,
    mutate,
    sigma_p,
    tree_to_json,
)
from .hirzebruch_jung import (
    INFINITY,
    HJChain,
    WahlData,
    dual_chain,
    hj_eval,
    hj_expand,
    is_zero_continued_fraction,
    recognize_dual_wahl,
    wahl_data,
)
from .intersection_theory import (
    CuletReport,
    HomologyClass,
    IntersectionLattice,
    MultipleCulets,
    NoCommonTriple,
    NoCulet,
    canonical_class,
    class_pairing,
    class_square,
    coefficients_from_intersections,
    culet_report,
    discrepancies,
    enumerate_adjunction_solutions,
    exceptional_class,
    intersection_matrix,
    inverse_closed_form,
    is_negative_definite,
    square_zero_class_search,
    two_ball_degree,
)
from .staircase_oracle import (
    CompanionMismatch,
    EmbeddingVerdict,
    ObstructionCertificate,
    StairBox,
    ThreeBallReport,
    TwoBallReport,
    embeds,
    obstruction_certificate,
    pin_ball_capacity,
    stair_boxes,
    three_ball_feasible,
    two_ball_feasible,
)
from .atf_geometry import (
    GirdledTriangle,
    GirdleViolated,
    NotDelzant,
    PavilionEdge,
    PavilionPolygon,
    ViannaTriangle,
    cut_segment,
    delta_triangle,
    fan_rays,
    girdle_data,
    mutate_triangle,
    pavilion_polygon,
    standard_triangle,
    triangle_signature,
    vianna_triangle,
    visible_ellipsoid_bounds,
)
from .regulation import (
    DualGraph,
    MultiplePositions,
    NoPosition,
    RegulationPrediction,
    attach_position,
    blow_down,
    blow_down_all,
    blow_up,
    chain_graph,
    is_ruling_degeneration,
    predict_regulation,
    zero_sphere,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
