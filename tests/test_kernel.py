"""The bitmask forcing kernel against the frozenset density oracle.

`forces` and `least_witness` read atom and down-set masks; `forces_dense`
and the brute-force witness below read only frozenset down-sets, so they
share no logic with the kernel."""

import random

import pytest

from endowlab.cohen import CohenPoset
from endowlab.errors import DataError
from endowlab.measure import MeasurePoset
from endowlab.names import least_witness
from endowlab.poset import (
    ExistsSupersetInCover,
    Name,
    Poset,
    SubfamilyOf,
    forces,
    forces_dense,
    statement_holds_at,
    truth,
)

UNIVERSE = "xyz"


def random_explicit_poset(rng: random.Random) -> Poset:
    # edges run from a later to an earlier index of a hidden order, so the
    # relation is acyclic; the listed (canonical) order is an independent shuffle
    n = rng.randint(1, 10)
    hidden = [f"c{i}" for i in range(n)]
    pairs = [(hidden[j], hidden[i]) for j in range(n) for i in range(j) if rng.random() < 0.3]
    elements = hidden[:]
    rng.shuffle(elements)
    return Poset(elements, pairs)


def kernel_posets(rng: random.Random) -> list[Poset]:
    fixed = [CohenPoset((0,)).poset, CohenPoset((0, 1)).poset,
             MeasurePoset(1).poset, MeasurePoset(2).poset]
    return fixed + [random_explicit_poset(rng) for _ in range(40)]


def random_subset(rng: random.Random) -> frozenset[str]:
    return frozenset(x for x in UNIVERSE if rng.random() < 0.5)


def random_name(rng: random.Random, poset: Poset) -> Name:
    return Name(tuple((rng.choice(poset.elements), random_subset(rng))
                      for _ in range(rng.randint(0, 5))))


def brute_witness(poset: Poset, p, name: Name, lower: frozenset[str]):
    return min((r for r in poset.down(p) if forces_dense(poset, r, name, lower)),
               key=poset.sort_key, default=None)


def test_kernel_matches_the_density_oracle():
    rng = random.Random(20260)
    outcomes = set()
    for poset in kernel_posets(rng):
        for _ in range(6):
            name = random_name(rng, poset)
            lower = random_subset(rng)
            mask = truth(poset, ExistsSupersetInCover(name, lower))
            for p in poset.elements:
                dense = forces_dense(poset, p, name, lower)
                assert forces(poset, p, ExistsSupersetInCover(name, lower)) == dense
                witness = least_witness(poset, p, mask)
                assert witness == brute_witness(poset, p, name, lower)
                outcomes.add((dense, witness is None))
    # every combination a witness search can meet showed up
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_forces_matches_the_atom_definition_for_other_statements():
    rng = random.Random(41)
    for poset in kernel_posets(rng):
        name = random_name(rng, poset)
        stmt = SubfamilyOf(name, tuple(random_subset(rng) for _ in range(3)))
        for p in poset.elements:
            expected = all(statement_holds_at(poset, stmt, a) for a in poset.atoms_below(p))
            assert forces(poset, p, stmt) == expected


@pytest.mark.parametrize("query", [
    lambda poset, stmt: truth(poset, stmt),
    lambda poset, stmt: forces(poset, "t", stmt),
])
def test_unknown_name_conditions_raise_data_error(query):
    poset = Poset(["t", "a", "b"], [("a", "t"), ("b", "t")])
    stmt = ExistsSupersetInCover(Name((("a", frozenset("x")), ("nope", frozenset("x")))), "x")
    with pytest.raises(DataError, match="unknown condition: 'nope'"):
        query(poset, stmt)
