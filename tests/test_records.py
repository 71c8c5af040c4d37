"""The small records, DescentStep, TraceRow, LemmaReport and SquareRegion, are
read-only named tuples that print as Name(field=value, ...); the results,
RootResult and SolveReport, are frozen dataclasses with slots."""

import dataclasses
import math

import pytest

from dalembert.checks import LemmaReport
from dalembert.descent import DescentStep, TraceRow, descend, descent_step
from dalembert.gridmin import SquareRegion
from dalembert.solver import find_all_roots

QUAD = (1 + 0j, 1j, 3 + 0j)

# each record as a library call builds it
RECORDS = [
    pytest.param(lambda: descent_step(QUAD, 0.5), id="DescentStep"),
    pytest.param(lambda: descend(QUAD, 0.5).trace[-1], id="TraceRow"),
    pytest.param(lambda: LemmaReport("growth-sandwich", 1000, 0), id="LemmaReport"),
    pytest.param(lambda: SquareRegion(complex(-1, -1), 2.0), id="SquareRegion"),
]


class TestRecords:
    @pytest.mark.parametrize("make", RECORDS)
    def test_fields_are_read_only(self, make):
        record = make()
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record, text", [
        (DescentStep(1, 2j, 0.5, 1 + 1j, 2.0, 1.0),
         "DescentStep(k=1, ak=2j, s=0.5, zs=(1+1j), before=2.0, after=1.0)"),
        (TraceRow(3, 1 - 2j, 1e-12, 0.25, 2),
         "TraceRow(iteration=3, point=(1-2j), residual=1e-12, s=0.25, k=2)"),
        (LemmaReport("descent-decrease", 1000, 7),
         "LemmaReport(name='descent-decrease', samples=1000, failures=7)"),
        (SquareRegion(-1 - 1j, 2), "SquareRegion(corner=(-1-1j), side=2.0)"),
    ], ids=["DescentStep", "TraceRow", "LemmaReport", "SquareRegion"])
    def test_repr_is_the_dataclass_repr(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("make", RECORDS)
    def test_a_record_is_a_tuple_of_its_fields(self, make):
        record = make()
        assert record == tuple(getattr(record, name) for name in record._fields)
        assert type(record)(*record) == record

    @pytest.mark.parametrize("corner, side, match", [
        (0j, -1.0, "side must be positive and finite"),
        (0j, math.nan, "side must be positive and finite"),
        (complex(math.inf, 0), 1.0, "corner must be finite"),
        (1e308 + 0j, 1e308, "far corner"),
    ])
    def test_square_checks_every_way_it_is_built(self, corner, side, match):
        square = SquareRegion(0j, 1.0)
        with pytest.raises(ValueError, match=match):
            SquareRegion(corner, side)
        with pytest.raises(ValueError, match=match):
            square._replace(corner=corner, side=side)
        with pytest.raises(ValueError, match=match):
            SquareRegion._make((corner, side))

    def test_square_replace_converts_like_the_constructor(self):
        square = SquareRegion(0j, 1.0)._replace(corner=1, side=2)
        assert type(square) is SquareRegion
        assert (type(square.corner), type(square.side)) == (complex, float)
        assert square == (1 + 0j, 2.0)
        assert square.center == 2 + 1j

    @pytest.mark.parametrize("make, field, value", [
        (lambda: descend(QUAD, 0.5), "converged", False),
        (lambda: find_all_roots(QUAD), "reconstruction_error", 0.0),
    ], ids=["RootResult", "SolveReport"])
    def test_results_are_frozen_and_replaced_by_copy(self, make, field, value):
        record = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError, TypeError)):
            record.extra = 1
        assert not hasattr(record, "__dict__")
        changed = dataclasses.replace(record, **{field: value})
        assert type(changed) is type(record) and getattr(changed, field) == value
        others = [f.name for f in dataclasses.fields(record) if f.name != field]
        assert all(getattr(changed, name) is getattr(record, name) for name in others)
