"""The bitmask kernel against frozenset references.

`forces`, `least_witness` and the compatibility and antichain helpers read
atom and down-set masks; `forces_dense`, the brute-force witness and the
pairwise antichain references below read only frozenset down-sets, so they
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
    RefinesName,
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
        stmt = RefinesName(name, random_name(rng, poset))
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


# -- compatibility and antichains on the down masks ------------------------------
#
# The references below read only frozenset down-sets and test pairs one by one.


def ref_compatible(poset: Poset, p, q) -> bool:
    return not poset.down(p).isdisjoint(poset.down(q))


def ref_is_antichain(poset: Poset, items) -> bool:
    return all(not ref_compatible(poset, p, q) for i, p in enumerate(items) for q in items[i + 1:])


def ref_is_maximal_antichain(poset: Poset, items) -> bool:
    return ref_is_antichain(poset, items) and all(
        any(ref_compatible(poset, p, a) for a in items) for p in poset.elements)


def ref_random_maximal_antichain(poset: Poset, rng: random.Random) -> frozenset:
    order = list(poset.elements)
    rng.shuffle(order)
    chosen = []
    for p in order:
        if all(not ref_compatible(poset, p, q) for q in chosen):
            chosen.append(p)
    return frozenset(chosen)


def ref_maximal_antichains(poset: Poset) -> set[frozenset]:
    """Grow every antichain by later elements; keep the maximal ones."""
    elements = poset.elements
    found = set()

    def grow(chosen: list, start: int) -> None:
        if ref_is_maximal_antichain(poset, chosen):
            found.add(frozenset(chosen))
        for i in range(start, len(elements)):
            if all(not ref_compatible(poset, elements[i], q) for q in chosen):
                grow(chosen + [elements[i]], i + 1)

    grow([], 0)
    return found


def antichain_posets(rng: random.Random) -> list[Poset]:
    fixed = [CohenPoset((0,)).poset, CohenPoset((0, 1)).poset, CohenPoset((0, 1, 2)).poset,
             MeasurePoset(1).poset, MeasurePoset(2).poset]
    return fixed + [random_explicit_poset(rng) for _ in range(30)]


def test_antichain_helpers_match_the_pairwise_reference():
    rng = random.Random(8128)
    seen = set()
    for poset in antichain_posets(rng):
        elements = poset.elements
        for p in elements:
            for q in elements:
                assert poset.compatible(p, q) == ref_compatible(poset, p, q)
        for _ in range(40):
            items = rng.sample(elements, rng.randint(0, min(4, len(elements))))
            antichain = poset.is_antichain(items)
            maximal = poset.is_maximal_antichain(items)
            assert antichain == ref_is_antichain(poset, items), items
            assert maximal == ref_is_maximal_antichain(poset, items), items
            seen.add((antichain, maximal))
        for seed in range(5):
            sample = poset.random_maximal_antichain(random.Random(seed))
            assert sample == ref_random_maximal_antichain(poset, random.Random(seed))
            assert poset.is_maximal_antichain(sample)
        everything = poset.maximal_antichains()
        assert set(everything) == ref_maximal_antichains(poset)
        assert len(set(everything)) == len(everything)
    # non-antichains, antichains that are not maximal, and maximal ones all came up
    assert seen == {(False, False), (True, False), (True, True)}


def test_antichain_checks_require_every_item_first():
    poset = Poset(["t", "a", "b"], [("a", "t"), ("b", "t")])
    assert poset.compatible("t", "a")
    for check in (poset.is_antichain, poset.is_maximal_antichain, poset.reach):
        with pytest.raises(DataError, match="unknown condition: 'nope'"):
            check(["t", "a", "nope"])
