"""Value records: every immutable record class of the package compares,
hashes and refuses assignment by value, and takes its fields as given;
`Name.canonical` is the one normaliser of names."""

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

def sample(cls):
    return cls(*[f"{field}-value" for field in cls._fields])


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


# out of order, with a duplicate: not canonical
RAW_PAIRS = (("b", frozenset({"x"})), ("a", frozenset({"y"})), ("b", frozenset({"x"})))


def test_name_takes_its_pairs_as_given():
    empty = Name(())
    for name in (Name(RAW_PAIRS), Name(pairs=RAW_PAIRS), Name._make([RAW_PAIRS]),
                 empty._replace(pairs=RAW_PAIRS)):
        assert name.pairs is RAW_PAIRS
    assert empty.pairs == ()


def test_name_canonical_sorts_deduplicates_and_freezes():
    name = Name.canonical([("b", ["x"]), ("a", {"y"}), ("b", ("x",))])
    assert type(name) is Name
    assert name.pairs == (("a", frozenset({"y"})), ("b", frozenset({"x"})))
    assert all(type(u) is frozenset for _, u in name.pairs)
    assert Name.canonical(RAW_PAIRS) == name
    assert Name.canonical(iter(RAW_PAIRS)) == name
    assert Name.canonical(name.pairs) == name
    assert Name.canonical(()) == Name(())


def test_exists_superset_takes_its_fields_as_given():
    name = Name.canonical([("q", ["x"])])
    lower = frozenset({"x", "y"})
    statement = ExistsSupersetInCover(name, lower)
    assert statement.name is name and statement.lower is lower
    assert ExistsSupersetInCover._make([name, lower]) == statement
    assert statement._replace(lower=frozenset()).lower == frozenset()


def test_no_record_overrides_its_constructor():
    # the class that defines a record's `__new__` is the one `NamedTuple`
    # generated with its fields, so the constructor, `_make` and `_replace`
    # all take the fields as given
    for cls in RECORDS:
        owner = next(k for k in cls.__mro__ if "__new__" in vars(k))
        assert "_fields" in vars(owner), cls
    assert Name.__bases__ == ExistsSupersetInCover.__bases__ == (tuple,)
