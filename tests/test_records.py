"""Result and value types are immutable NamedTuples."""

import pytest

import skewlab
from skewlab.nonauto import PairStep

EXPORTED_RECORDS = (
    "AttractorVerdict", "ConcavityCertificate", "FiberMap", "MapSequence",
    "OneSidedWord", "OrbitPairTrace", "SkewSystem", "SystemConfig", "TwoSidedWord",
)


def test_every_exported_tuple_type_is_listed():
    exported = {n for n in skewlab.__all__ if isinstance(getattr(skewlab, n), type)}
    assert {n for n in exported if issubclass(getattr(skewlab, n), tuple)} == set(
        EXPORTED_RECORDS
    )


@pytest.mark.parametrize(
    "cls", [getattr(skewlab, n) for n in EXPORTED_RECORDS] + [PairStep],
    ids=lambda cls: cls.__name__,
)
def test_record_refuses_assignment(cls):
    record = cls._make(range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert record[0] == 0
