"""Core poset semantics: order closure, atoms, antichains, density, names,
statements, and the two independent forcing routes."""

import random
from itertools import combinations
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endowlab.bounds import DEFAULT_LIMITS, Limits
from endowlab.canon import set_key
from endowlab.cli import parse_poset_spec
from endowlab.cohen import CohenPoset
import endowlab.poset as poset_module
from endowlab.errors import DataError, ResourceError
from endowlab.instances import load_instance, save_instance
from endowlab.measure import MeasurePoset
from endowlab.poset import (
    ExistsSupersetInCover,
    Name,
    Poset,
    RefinesName,
    evaluate_name,
    forces,
    forces_dense,
    make_stratification,
    statement_holds_at,
)
from endowlab.preservation import build_bundle


def diamond():
    # top above two middles above one bottom
    return Poset.from_pairs(["t", "a", "b", "z"], [("a", "t"), ("b", "t"), ("z", "a"), ("z", "b")])


def vee():
    # top above two incomparable atoms
    return Poset.from_pairs(["t", "a", "b"], [("a", "t"), ("b", "t")])


def test_transitive_closure_and_reflexivity():
    p = Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert "a" in p.down("c")
    assert "a" in p.down("a")
    assert "c" not in p.down("a")


def test_rejects_cycles():
    with pytest.raises(DataError):
        Poset.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])


def test_rejects_unknown_and_duplicate_elements():
    with pytest.raises(DataError):
        Poset.from_pairs(["a"], [("a", "b")])
    with pytest.raises(DataError):
        Poset.from_pairs(["a", "a"], [])
    with pytest.raises(DataError):
        Poset.from_pairs([], [])


def test_atoms_and_top():
    p = diamond()
    assert p.atoms == ("z",)
    assert p.down_mask["t"] == (1 << len(p)) - 1  # the top
    v = vee()
    assert v.atoms == ("a", "b")
    assert v.atom_mask == {"t": 0b11, "a": 0b01, "b": 0b10}
    assert v.down_mask == {"t": 0b111, "a": 0b010, "b": 0b100}


def test_compatibility():
    v = vee()
    assert v.compatible("t", "a")
    assert not v.compatible("a", "b")
    d = diamond()
    assert d.compatible("a", "b")  # common bound z


def test_antichain_checks():
    v = vee()
    assert v.is_antichain(["a", "b"])
    assert not v.is_antichain(["t", "a"])
    assert v.is_maximal_antichain(["a", "b"])
    assert v.is_maximal_antichain(["t"])
    assert not v.is_maximal_antichain(["a"])


def test_density():
    v = vee()
    assert v.is_dense_below(["a", "b"], "t")
    assert not v.is_dense_below(["a"], "t")
    assert v.is_dense_below(["a"], "a")
    assert not v.is_dense_below(["t"], "b")  # t lies above b, not below it
    d = diamond()
    assert d.is_dense_below(["z"], "t")
    with pytest.raises(DataError):
        d.is_dense_below(["nope"], "t")


def brute_maximal_antichains(poset):
    out = set()
    for r in range(1, len(poset.elements) + 1):
        for combo in combinations(poset.elements, r):
            if poset.is_maximal_antichain(combo):
                out.add(frozenset(combo))
    return out


def test_maximal_antichain_enumeration_matches_brute_force():
    for p in (diamond(), vee(), Poset.from_pairs(list("abcde"), [("b", "a"), ("c", "a"), ("d", "b"), ("e", "c")])):
        assert set(p.maximal_antichains()) == brute_maximal_antichains(p)


def test_maximal_antichain_enumeration_is_canonically_sorted():
    v = vee()
    assert v.maximal_antichains() == (frozenset({"t"}), frozenset({"a", "b"}))


def test_enumeration_refuses_large_posets():
    n = DEFAULT_LIMITS.max_poset + 1
    elements = [f"e{i}" for i in range(n)]
    p = Poset.from_pairs(elements, [])
    with pytest.raises(ResourceError):
        p.maximal_antichains()
    d = diamond()
    with pytest.raises(ResourceError, match="max_poset=3 conditions, got 4"):
        d.maximal_antichains(Limits(max_poset=3))
    assert d.maximal_antichains(Limits(max_poset=4)) == d.maximal_antichains()


def test_enumeration_stops_once_it_passes_the_antichain_cap(monkeypatch):
    # two groups of a condition below three others: 4^2 maximal antichains
    elements, pairs = [], []
    for i in range(2):
        elements.append(f"b{i}")
        for j in range(3):
            elements.append(f"a{i}_{j}")
            pairs.append((f"b{i}", f"a{i}_{j}"))
    p = Poset.from_pairs(elements, pairs)
    monkeypatch.setattr(poset_module, "MAX_ANTICHAINS", 16)
    assert len(p.maximal_antichains()) == 16
    monkeypatch.setattr(poset_module, "MAX_ANTICHAINS", 15)
    with pytest.raises(ResourceError) as exc:
        p.maximal_antichains()
    assert str(exc.value) == (
        "exhaustive antichain enumeration capped at 15 maximal antichains, reached 16")
    assert exc.value.partial.to_jsonable() == {"antichains_reached": 16, "cap": 15}


def test_random_maximal_antichain_is_maximal():
    p = diamond()
    for seed in range(20):
        a = p.random_maximal_antichain(random.Random(seed))
        assert p.is_maximal_antichain(a)


def test_stratification_validation():
    v = vee()
    s = make_stratification(v, [["t"], ["t", "a", "b"]])
    assert s.stabilization_index == 1
    assert s.ordered_at(0) == ("t",)
    assert s.ordered_at(5) == v.elements
    with pytest.raises(DataError):
        make_stratification(v, [["t", "a"], ["t"]])  # not increasing
    with pytest.raises(DataError):
        make_stratification(v, [["t"]])  # never exhausts


def _explicit_strat():
    v = vee()
    return v, make_stratification(v, [["b", "t"], ["b", "a", "t"]])


def _built_in_strat(algebra):
    return algebra.poset, algebra.stratification()


@pytest.mark.parametrize("strat_of", [
    _explicit_strat,
    lambda: _built_in_strat(CohenPoset((0, 1, 2))),
    lambda: _built_in_strat(MeasurePoset(2)),
], ids=["explicit", "cohen", "measure"])
def test_stratification_orders_each_level_canonically(strat_of):
    poset, s = strat_of()
    for n in range(len(s.masks) + 2):
        mask = s.mask_at(n)
        assert s.ordered_at(n) == tuple(p for p in poset.elements if mask >> poset.sort_key(p) & 1)
    with pytest.raises(DataError):
        s.ordered_at(-1)


def test_stratification_stabilization_is_least_index():
    v = vee()
    s = make_stratification(v, [list(v.elements), list(v.elements)])
    assert s.stabilization_index == 0


def test_poset_json_roundtrip(tmp_path):
    # an explicit poset file is read by `parse_poset_spec("@...")` and built by `build_bundle`
    d = diamond()
    pairs = [[a, b] for b in d.elements for a in d.conditions_in(d.down_mask[b]) if a != b]
    save_instance(tmp_path / "p.json", "poset", {"elements": list(d.elements), "leq": pairs})
    rebuilt = build_bundle(parse_poset_spec(f"@{tmp_path / 'p.json'}")).poset
    assert rebuilt.elements == d.elements
    for p in d.elements:
        for q in d.elements:
            assert (p in rebuilt.down(q)) == (p in d.down(q))


# -- names and statements -----------------------------------------------------


def test_name_normalizes_pairs():
    a = Name.canonical((("q", frozenset({"x"})), ("p", frozenset({"x", "y"})), ("q", frozenset({"x"}))))
    b = Name.canonical((("p", frozenset({"y", "x"})), ("q", frozenset({"x"}))))
    assert a.pairs == b.pairs
    assert a == b
    assert hash(a) == hash(b)
    # seeded pair lists, canonical or not: shuffled, with duplicates, sets
    # given as list, tuple, set or frozenset, and identifiers that need
    # escaping in JSON; the pairs always come out in the reference order
    rng = random.Random(23)
    ids = ["", "a", "b", "0:1", '"', "\\", "\n", "é", "\x00", "a,b", "z" * 3]
    kinds = (list, tuple, set, frozenset)
    for _ in range(300):
        given = [(rng.choice(ids), rng.sample(ids, rng.randint(0, 3)))
                 for _ in range(rng.randint(0, 12))]
        given += rng.sample(given, rng.randint(0, len(given)))
        reference = tuple(sorted({(q, frozenset(u)) for q, u in given},
                                 key=lambda pair: (pair[0], set_key(pair[1]))))
        for ordered in (rng.sample(given, len(given)), reference):
            name = Name.canonical((q, rng.choice(kinds)(u)) for q, u in ordered)
            assert name.pairs == reference
            assert all(type(u) is frozenset for _, u in name.pairs)
            assert Name.canonical(name.pairs).pairs == name.pairs


def ref_canonical(pairs) -> Name:
    """`Name.canonical` before it sorted the (condition, rank) keys
    themselves, copied verbatim."""
    pairs = [(q, frozenset(u)) for q, u in pairs]
    rank = {u: r for r, u in enumerate(sorted({u for _, u in pairs}, key=set_key))}
    order = [(q, rank[u]) for q, u in pairs]
    if not all(map(lt, order, order[1:])):  # out of order or duplicated
        pairs = sorted(set(pairs), key=lambda pair: (pair[0], rank[pair[1]]))
    return Name(tuple(pairs))


def test_name_canonical_matches_the_lambda_sort_it_replaced():
    rng = random.Random(29)
    ids = ["", "a", "b", "0:1", "é", "a,b"]
    kinds = set()
    for _ in range(300):
        given = [(rng.choice(ids), frozenset(rng.sample(ids, rng.randint(0, 3))))
                 for _ in range(rng.randint(0, 12))]
        canonical = ref_canonical(given).pairs
        duplicated = given + given[:rng.randint(1, 3)]
        for pairs in (rng.sample(given, len(given)), duplicated, list(canonical)):
            name = Name.canonical(pairs)
            assert name == ref_canonical(pairs)
            assert all(type(u) is frozenset for _, u in name.pairs)
            kinds.add((len(set(pairs)) < len(pairs), list(name.pairs) == pairs))
    assert kinds >= {(True, False), (False, False), (False, True)}


def test_name_json_roundtrip(tmp_path):
    # a name file is shape-checked by `load_instance` and built by `Name.canonical`
    a = Name.canonical((("q", frozenset({"x"})), ("p", frozenset({"x", "y"}))))
    save_instance(tmp_path / "n.json", "name", a.to_jsonable())
    payload = load_instance(tmp_path / "n.json", "name")
    assert Name.canonical((e["condition"], e["set"]) for e in payload) == a


def test_evaluate_name_collects_sets_above_atom():
    v = vee()
    name = Name.canonical((("t", frozenset({"u"})), ("a", frozenset({"v"})), ("b", frozenset({"w"}))))
    assert evaluate_name(v, name, "a") == (frozenset({"u"}), frozenset({"v"}))
    assert evaluate_name(v, name, "b") == (frozenset({"u"}), frozenset({"w"}))


def test_evaluate_name_rejects_non_atoms_and_unknown_conditions():
    v = vee()
    name = Name((("t", frozenset({"u"})),))
    with pytest.raises(DataError):
        evaluate_name(v, name, "t")
    with pytest.raises(DataError):
        evaluate_name(v, Name((("nope", frozenset({"u"})),)), "a")


def test_superset_statements():
    v = vee()
    name = Name((("a", frozenset({"x"})), ("b", frozenset({"x", "y"}))))
    assert statement_holds_at(v, ExistsSupersetInCover(name, frozenset({"x"})), "b")
    assert not statement_holds_at(v, ExistsSupersetInCover(name, frozenset({"y"})), "a")


def test_refines_statement():
    v = vee()
    fine = Name((("a", frozenset({"x"})), ("b", frozenset({"y"}))))
    coarse = Name((("t", frozenset({"x", "y"})),))
    assert statement_holds_at(v, RefinesName(fine, coarse), "a")
    assert statement_holds_at(v, RefinesName(fine, coarse), "b")
    assert not statement_holds_at(v, RefinesName(coarse, fine), "a")


def test_forces_quantifies_over_the_atoms_under_a_condition():
    v = vee()
    name = Name((("a", frozenset({"x"})), ("b", frozenset({"x", "y"}))))
    stmt = ExistsSupersetInCover(name, frozenset({"x"}))
    assert forces(v, "t", stmt)
    stmt_y = ExistsSupersetInCover(name, frozenset({"y"}))
    assert forces(v, "b", stmt_y)
    assert not forces(v, "t", stmt_y)


def test_forces_dense_matches_forces_on_examples():
    v = vee()
    name = Name((("a", frozenset({"x"})), ("b", frozenset({"x", "y"}))))
    for p in v.elements:
        for lower in (frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})):
            assert forces(v, p, ExistsSupersetInCover(name, lower)) == forces_dense(v, p, name, lower)


def test_forces_dense_rejects_unknown_conditions():
    # the oracles validate the names they get; the mask route trusts its caller
    v = vee()
    with pytest.raises(DataError, match="unknown condition: 'nope'"):
        forces_dense(v, "t", Name((("a", frozenset({"x"})), ("nope", frozenset({"x"})))), {"x"})
    with pytest.raises(DataError, match="unknown condition: 'nope'"):
        forces_dense(v, "nope", Name((("a", frozenset({"x"})),)), {"x"})


# Random posets: build a DAG on indices (edges only from higher to lower
# index) so antisymmetry holds by construction.
@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    elements = [f"e{i}" for i in range(n)]
    pairs = []
    for j in range(n):
        for i in range(j):
            if draw(st.booleans()):
                pairs.append((elements[j], elements[i]))
    return Poset.from_pairs(elements, pairs)


@st.composite
def poset_with_name(draw):
    poset = draw(random_posets())
    n_pairs = draw(st.integers(min_value=0, max_value=5))
    universe = ["x", "y", "z"]
    pairs = []
    for _ in range(n_pairs):
        q = draw(st.sampled_from(poset.elements))
        u = frozenset(draw(st.sets(st.sampled_from(universe), max_size=3)))
        pairs.append((q, u))
    return poset, Name.canonical(pairs)


@settings(max_examples=150, deadline=None)
@given(poset_with_name(), st.sets(st.sampled_from(["x", "y", "z"]), max_size=3))
def test_forcing_routes_agree_on_random_inputs(pn, lower):
    poset, name = pn
    lower = frozenset(lower)
    for p in poset.elements:
        assert forces(poset, p, ExistsSupersetInCover(name, lower)) == \
            forces_dense(poset, p, name, lower)


@settings(max_examples=60, deadline=None)
@given(random_posets())
def test_every_condition_sits_above_an_atom(poset):
    for p in poset.elements:
        assert poset.atom_mask[p]


@settings(max_examples=60, deadline=None)
@given(random_posets(), st.data())
def test_dense_sets_contain_every_atom(poset, data):
    # the structural fact that lets atoms stand in for generic filters:
    # below an atom there is only the atom itself, so dense sets catch it
    subset = frozenset(data.draw(st.sets(st.sampled_from(poset.elements))))
    if all(poset.is_dense_below(subset, p) for p in poset.elements):
        assert frozenset(poset.atoms) <= subset
    full = frozenset(poset.atoms)
    assert all(poset.is_dense_below(full, p) for p in poset.elements)


# -- the oracles against their definitions through leq --------------------------


@st.composite
def oracle_posets(draw):
    kind = draw(st.sampled_from(["explicit", "cohen", "measure"]))
    if kind == "cohen":
        return CohenPoset(range(draw(st.integers(min_value=1, max_value=2)))).poset
    if kind == "measure":
        return MeasurePoset(draw(st.integers(min_value=0, max_value=2))).poset
    return draw(random_posets())


@settings(max_examples=80, deadline=None)
@given(oracle_posets(), st.data())
def test_oracles_match_their_definitions_through_leq(poset, data):
    elements = poset.elements
    name = Name.canonical(data.draw(st.lists(
        st.tuples(st.sampled_from(elements), st.frozensets(st.sampled_from("xyz"))), max_size=5)))
    members = data.draw(st.sets(st.sampled_from(elements)))
    for p in elements:
        below = poset.down(p)
        assert below == {r for r in elements if poset.down_mask[p] >> poset.sort_key(r) & 1}
        assert poset.up(p) == {r for r in elements if p in poset.down(r)}
        assert poset.is_dense_below(members, p) == all(
            any(s in poset.down(r) for s in members) for r in below)
        if p in poset.atoms:
            values = {u for q, u in name.pairs if p in poset.down(q)}
            assert evaluate_name(poset, name, p) == tuple(sorted(values, key=sorted))
        else:
            with pytest.raises(DataError, match="must be an atom"):
                evaluate_name(poset, name, p)
