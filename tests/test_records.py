"""Value records: every immutable record class of the package compares,
hashes and refuses assignment by value, and the two that normalise their
input still do."""

import importlib
import pkgutil

import pytest

import endowlab
from endowlab.poset import ExistsSupersetInCover, Name


def record_classes() -> list[type]:
    """Every public tuple-based record class the package's modules define."""
    found = {}
    for info in pkgutil.iter_modules(endowlab.__path__):
        module = importlib.import_module(f"endowlab.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, tuple) and not name.startswith("_")
                    and value.__module__ == module.__name__):
                found[value.__qualname__] = value
    return [found[name] for name in sorted(found)]


RECORDS = record_classes()

# Field values for the records whose constructor reads its input; any other
# record takes one plain string per field.
SAMPLE_FIELDS = {
    Name: ((("q", frozenset({"x"})),),),
    ExistsSupersetInCover: (Name((("q", {"x"}),)), frozenset({"x"})),
}


def sample(cls):
    return cls(*SAMPLE_FIELDS.get(cls, [f"{field}-value" for field in cls._fields]))


def test_every_record_is_found():
    # 22 records plus the `names.LevelWitnesses` mixin, which holds no fields
    assert len(RECORDS) == 22


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_compare_and_hash_by_value(cls):
    a, b = sample(cls), sample(cls)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_refuse_assignment(cls):
    record = sample(cls)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # every class in the chain keeps `__slots__ = ()`
    assert record == sample(cls)


def test_name_normalises_its_pairs():
    name = Name([("b", ["x"]), ("a", {"y"}), ("b", ("x",))])
    assert name.pairs == (("a", frozenset({"y"})), ("b", frozenset({"x"})))
    assert all(type(u) is frozenset for _, u in name.pairs)
    assert name == Name((("a", frozenset({"y"})), ("b", frozenset({"x"}))))
    assert Name(pairs=[("b", ["x"]), ("a", ["y"])]) == name


def test_exists_superset_normalises_its_lower_set():
    name = Name([("q", ["x"])])
    statement = ExistsSupersetInCover(name, ["y", "x", "y"])
    assert type(statement.lower) is frozenset
    assert statement == ExistsSupersetInCover(name=name, lower=frozenset({"x", "y"}))
