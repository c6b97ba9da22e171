"""The frozen result classes: immutable, equal by class and fields, hashable,
and printed as a frozen dataclass would print them."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from pinstairs import atf_geometry, cli_plot, exact_core, intersection_theory, markov, regulation
from pinstairs import staircase_oracle as so
from pinstairs.hirzebruch_jung import wahl_data


def _pavilion():
    base = atf_geometry.delta_triangle(5, 1, F(1, 2), F(1, 3))
    return atf_geometry.pavilion_polygon(base, [F(1, 100), F(19, 1000), F(17, 1000), F(1, 100)])


SAMPLES = [
    exact_core.LatticeVector(1, -2),
    exact_core.RationalPoint(F(1, 2), F(3)),
    markov.enumerate_tree(2)[2],
    markov.companions(29),
    markov.branch_sequence(5, 1, -2, 2),
    markov.sigma_p(5),
    wahl_data(29, 7),
    intersection_theory.IntersectionLattice((wahl_data(5, 1),)),
    intersection_theory.canonical_class(intersection_theory.IntersectionLattice((wahl_data(5, 1),))),
    intersection_theory.culet_report(29, 7),
    so.stair_boxes(5, 1, 0, 0)[0],
    so.embeds(5, 1, F(3, 10), F(1, 5)),
    so.two_ball_feasible(2, 1, F(1, 100), 5, 1, F(1, 100)),
    so.three_ball_feasible((5, 2, 1), (F(1, 100),) * 3),
    so.obstruction_certificate(5, 1, 1),
    atf_geometry.delta_triangle(5, 1, F(1, 2), F(1, 3)),
    _pavilion().edges[0],
    _pavilion(),
    atf_geometry.vianna_triangle(5, 2, 1),
    regulation.chain_graph([2, 5]),
    regulation.predict_regulation(29, 7),
    cli_plot.RenderSpec("staircase", (F(0), F(1), F(0), F(1)), steps=3),
]

# a dict field makes a record unhashable, as it made the dataclass
UNHASHABLE = {so.TwoBallReport, so.ThreeBallReport}


def test_the_samples_cover_every_record_class():
    classes = [type(x) for x in SAMPLES]
    assert len(classes) == len(set(classes)) == 22
    assert set(classes) == set(exact_core._Record.__subclasses__())


@pytest.mark.parametrize("record", SAMPLES, ids=lambda x: type(x).__name__)
def test_record_contract(record):
    cls = type(record)
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
    assert all(record != other for other in SAMPLES if type(other) is not cls)
    assert record != tuple(getattr(record, n) for n in names)
    fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in names)
    assert repr(record) == f"{cls.__qualname__}({fields})"
