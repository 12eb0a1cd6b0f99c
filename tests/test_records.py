"""The eight frozen records, and what ``import clusterwp`` loads.

Each record is a ``__slots__`` class with the contract a frozen dataclass
gave it: built by position and by keyword, equal when its fields are equal
(and then of equal hash, where every field hashes), closed to assignment and
deletion, and shown by a repr that names its fields.  Importing the package
and its CLI loads neither ``dataclasses`` nor ``inspect``."""

import copy
import inspect
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterwp.catalog import CatalogEntry, catalog
from clusterwp.exact import GaussianRational
from clusterwp.laurent import VarTable
from clusterwp.regularity import AlgebraPoint, DeepWitnessReport, VanishingPattern
from clusterwp.seeds import (
    ExchangeMatrix,
    ExchangeRelation,
    NotSkewSymmetrizable,
    Presentation,
    Seed,
    acyclic_presentation,
    mutate_matrix,
)

from test_seeds import skew_symmetrizable_seeds

ROWS = ((0, 1, 0, 2), (-1, 0, 1, 0), (0, -1, 0, -1))


def a3_seed():
    return Seed.initial(ExchangeMatrix(3, 4, ROWS), ("a", "b", "c", "f"))


def read(record, fields):
    return tuple(getattr(record, f) for f in fields)


SEED_FIELDS = ("matrix", "names", "gvectors", "cvectors")
PRESENTATION_FIELDS = ("names", "primed_names", "frozen_names", "table", "relations")
ENTRY_FIELDS = ("key", "description", "seed", "namer", "exploration", "presentation",
                "points", "forms")

# record class -> (field names in constructor order, a function building the
# field values afresh each call, whether the record hashes)
RECORDS = {
    ExchangeMatrix: (("m", "n", "rows"), lambda: (3, 4, tuple(map(tuple, map(list, ROWS)))),
                     True),
    Seed: (SEED_FIELDS, lambda: read(a3_seed(), SEED_FIELDS), True),
    Presentation: (PRESENTATION_FIELDS,
                   lambda: read(acyclic_presentation(a3_seed()), PRESENTATION_FIELDS), True),
    ExchangeRelation: (("seed_index", "direction", "var", "partner", "pos", "neg", "binomial"),
                       lambda: (0, 2, "b", "b'", (("a", 1),), (("c", 1),), 1), True),
    AlgebraPoint: (("assignment", "context"),
                   lambda: ({"a": 1, "b": Fraction(1, 2)}, None), False),
    VanishingPattern: (("seed", "indices"), lambda: (a3_seed(), frozenset({1, 3})), True),
    DeepWitnessReport: (("cluster_status", "verdict"),
                        lambda: (("has-determined-zero",), "deep"), True),
    CatalogEntry: (ENTRY_FIELDS, lambda: read(catalog("sl2"), ENTRY_FIELDS), False),
}

records = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


@records
def test_built_by_position_and_by_keyword(cls):
    fields, values, _ = RECORDS[cls]
    assert list(inspect.signature(cls).parameters) == list(fields)
    by_position, by_keyword = cls(*values()), cls(**dict(zip(fields, values())))
    assert by_position == by_keyword
    for field, value in zip(fields, values()):
        assert getattr(by_position, field) == value


def test_a_point_coerces_its_values_and_defaults_to_no_context():
    point = AlgebraPoint({"a": 1, "b": Fraction(1, 2)})
    assert point.context is None
    assert all(type(v) is GaussianRational for v in point.assignment.values())
    assert point == AlgebraPoint({"a": GaussianRational(1), "b": GaussianRational(Fraction(1, 2))})


def test_the_checked_records_still_check():
    with pytest.raises(NotSkewSymmetrizable):
        ExchangeMatrix(2, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="entries must be integers"):
        ExchangeMatrix(1, 2, ((0, 1.0),))
    with pytest.raises(ValueError, match="is frozen"):
        VanishingPattern(a3_seed(), frozenset({4}))


@records
def test_equal_fields_give_equal_records(cls):
    fields, values, hashable = RECORDS[cls]
    one, two = cls(*values()), cls(*values())
    assert one == two and not one != two
    assert one.__eq__(values()) is NotImplemented
    if hashable:
        assert hash(one) == hash(two)
        assert len({one, two}) == 1
    else:
        with pytest.raises(TypeError):
            hash(one)


@pytest.mark.parametrize("cls,field,other", [
    (ExchangeMatrix, "rows", ((0, 1, 0, 2), (-1, 0, 1, 0), (0, -1, 0, 0))),
    (ExchangeRelation, "binomial", 2),
    (AlgebraPoint, "context", "elsewhere"),
    (VanishingPattern, "indices", frozenset({1})),
    (DeepWitnessReport, "verdict", "deep-relative"),
], ids=lambda x: x.__name__ if isinstance(x, type) else None)
def test_one_different_field_gives_unequal_records(cls, field, other):
    fields, values, _ = RECORDS[cls]
    changed = dict(zip(fields, values()), **{field: other})
    assert cls(*values()) != cls(**changed)


@records
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, values, _ = RECORDS[cls]
    record = cls(*values())
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, f) for f in fields] == list(values())


@records
def test_copies_are_equal_records(cls):
    _, values, _ = RECORDS[cls]
    record = cls(*values())
    assert copy.copy(record) == record
    if cls is not CatalogEntry:     # its exploration is equal only to itself
        assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))


@records
def test_repr_names_the_class_and_its_fields(cls):
    fields, values, _ = RECORDS[cls]
    record = cls(*values())
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    at = [text.index(f"{f}=") for f in fields]
    assert at == sorted(at)
    assert f"{fields[-1]}={getattr(record, fields[-1])!r})" in text


def test_caches_are_built_once_and_stay_out_of_equality():
    seed, fresh = a3_seed(), a3_seed()
    assert seed.chart() is seed.chart() == VarTable(seed.names)
    assert seed == fresh and hash(seed) == hash(fresh)
    pres = acyclic_presentation(seed)
    assert pres._jacobian is pres._jacobian
    assert pres == acyclic_presentation(fresh)
    assert "_table" not in repr(seed) and "_partials" not in repr(pres)


@settings(max_examples=100, deadline=None)
@given(skew_symmetrizable_seeds(), st.integers(1, 3))
def test_mutate_matrix_builds_what_the_checked_constructor_builds(seed, k):
    matrix = seed.matrix
    k = 1 + (k - 1) % matrix.m
    mutated = mutate_matrix(matrix, k)
    checked = ExchangeMatrix(mutated.m, mutated.n, mutated.rows)
    assert type(mutated) is ExchangeMatrix
    assert mutated == checked and hash(mutated) == hash(checked)
    assert repr(mutated) == repr(checked)
    assert mutate_matrix(mutated, k) == matrix


def test_import_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import clusterwp, clusterwp.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
