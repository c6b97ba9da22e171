"""The frozen result classes: immutable, equal by class and fields, hashable,
and printed as a frozen dataclass would print them."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from pinstairs import atf_geometry, cli_plot, exact_core, intersection_theory, markov, regulation
from pinstairs import staircase_oracle as so
from pinstairs.hirzebruch_jung import WahlData, wahl_data


def _pavilion():
    base = atf_geometry.delta_triangle(5, 1, F(1, 2), F(1, 3))
    return atf_geometry.pavilion_polygon(base, [F(1, 100), F(19, 1000), F(17, 1000), F(1, 100)])


# one builder per record class, each run inside the test that reads it, so a
# fault in the library is reported as failing tests and never stops the
# collection of this module or of test_exact_core, which imports these
BUILDERS = {
    exact_core.LatticeVector: lambda: exact_core.LatticeVector(1, -2),
    exact_core.RationalPoint: lambda: exact_core.RationalPoint(F(1, 2), F(3)),
    markov.TreeEntry: lambda: markov.enumerate_tree(2)[2],
    markov.CompanionPair: lambda: markov.companions(29),
    markov.BranchSequence: lambda: markov.branch_sequence(5, 1, -2, 2),
    markov.Sigma: lambda: markov.sigma_p(5),
    WahlData: lambda: wahl_data(29, 7),
    intersection_theory.IntersectionLattice:
        lambda: intersection_theory.IntersectionLattice((wahl_data(5, 1),)),
    intersection_theory.HomologyClass: lambda: intersection_theory.canonical_class(
        intersection_theory.IntersectionLattice((wahl_data(5, 1),))),
    intersection_theory.CuletReport: lambda: intersection_theory.culet_report(29, 7),
    so.StairBox: lambda: so.stair_boxes(5, 1, 0, 0)[0],
    so.EmbeddingVerdict: lambda: so.embeds(5, 1, F(3, 10), F(1, 5)),
    so.TwoBallReport: lambda: so.two_ball_feasible(2, 1, F(1, 100), 5, 1, F(1, 100)),
    so.ThreeBallReport: lambda: so.three_ball_feasible((5, 2, 1), (F(1, 100),) * 3),
    so.ObstructionCertificate: lambda: so.obstruction_certificate(5, 1, 1),
    atf_geometry.GirdledTriangle: lambda: atf_geometry.delta_triangle(5, 1, F(1, 2), F(1, 3)),
    atf_geometry.PavilionEdge: lambda: _pavilion().edges[0],
    atf_geometry.PavilionPolygon: _pavilion,
    atf_geometry.ViannaTriangle: lambda: atf_geometry.vianna_triangle(5, 2, 1),
    regulation.DualGraph: lambda: regulation.chain_graph([2, 5]),
    regulation.RegulationPrediction: lambda: regulation.predict_regulation(29, 7),
    cli_plot.RenderSpec:
        lambda: cli_plot.RenderSpec("staircase", (F(0), F(1), F(0), F(1)), steps=3),
}


def build(cls):
    """The sample record of class cls, built afresh."""
    record = BUILDERS[cls]()
    assert type(record) is cls
    return record


# a dict field makes a record unhashable, as it made the dataclass
UNHASHABLE = {so.TwoBallReport, so.ThreeBallReport}


def test_the_samples_cover_every_record_class():
    classes = [type(build(cls)) for cls in BUILDERS]
    assert len(classes) == len(set(classes)) == 22
    assert set(classes) == set(exact_core._Record.__subclasses__())


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    record = build(cls)
    names = list(cls.__annotations__)
    assert names == list(cls.__slots__)
    # frozen: no field can be set or deleted, and no attribute added
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    # equal fields give equal objects, with equal hashes
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin is not record and twin == record and not twin != record
        assert [getattr(twin, n) for n in names] == [getattr(record, n) for n in names]
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(record) == hash(tuple(getattr(record, n) for n in names))
    # a record of another class, or the tuple of the fields, is never equal
    assert all(record != build(other) for other in BUILDERS if other is not cls)
    assert record != tuple(getattr(record, n) for n in names)
    fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in names)
    assert repr(record) == f"{cls.__qualname__}({fields})"
