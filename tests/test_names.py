"""Cover names: validity, point antichains, approximation with its dense
witness certificate, refinement, and the pipeline."""

import json
import random
from pathlib import Path
from typing import Sequence

import pytest

from catalogs import limit_scenarios
from endowlab.bounds import DEFAULT_LIMITS, Limits
from endowlab.canon import TextMemo, set_key, sorted_sets, write_array, write_records
from endowlab.cohen import CohenPoset
from endowlab.endowment import (
    EndowmentFamily,
    adversarial_singleton_family,
    cohen_dow_family,
    maximal_antichain_family,
    measure_total_family,
)
from endowlab.errors import DataError, InvariantError
from endowlab.measure import MeasurePoset
from endowlab.names import (
    Approximation,
    AtomRow,
    PointName,
    WitnessTable,
    approximate,
    check_approximation,
    check_cover_name,
    derive_point_names,
    refine_name,
    run_pipeline,
)
from endowlab.poset import (
    Condition,
    ExistsSupersetInCover,
    Name,
    Poset,
    evaluate_name,
    forces,
    make_stratification,
    validate_name,
    value_masks,
)
from endowlab.preservation import Scenario, build_bundle, generate_scenario, run_preservation
from endowlab.selection import MODES
from endowlab.topology import FiniteSpace
from test_certificate_text import stronger_first_scenario
from test_kernel import counting


def pair_setup():
    """Two index poset over the two point space with the branching name:
    the 0 -> 0 side commits {x} and {x,y}; the 0 -> 1 side commits {x,y}."""
    c = CohenPoset([0, 1])
    space = FiniteSpace(["x", "y"], [["x"], ["x", "y"]])
    name = Name.canonical((
        ("0:0", {"x"}),
        ("0:0", {"x", "y"}),
        ("0:1", {"x", "y"}),
    ))
    return c, space, name


def level_tables(poset, strat, names):
    """One witness table per name, levels 0, 1, ... in order."""
    return [WitnessTable(poset, strat, n, name) for n, name in enumerate(names)]


def table_at(poset, name, n=0):
    """The level-n witness table of the name over the one-level
    stratification: point names and approximations read only the table's
    poset, level and name."""
    return WitnessTable(poset, make_stratification(poset, [poset.elements]), n, name)


def test_check_cover_name_validates():
    c, space, name = pair_setup()
    assert check_cover_name(c.poset, space, name) is None
    with pytest.raises(DataError, match="unknown condition: '5:0'"):
        check_cover_name(c.poset, space, Name((("5:0", frozenset({"x"})),)))
    with pytest.raises(DataError, match=r"cover name value \['y'\] is not a basic open set"):
        check_cover_name(c.poset, space, Name((("0:0", frozenset({"y"})),)))
    # conditions are checked before values, whatever the pair order
    both = Name((("0:0", frozenset({"y"})), ("5:0", frozenset({"x"}))))
    with pytest.raises(DataError, match="unknown condition: '5:0'"):
        check_cover_name(c.poset, space, both)


def test_cover_name_validity():
    c, space, name = pair_setup()
    assert len(derive_point_names(table_at(c.poset, name), space)) == 2
    # dropping the 0 -> 1 side breaks density for both points below 0:1;
    # the first point in sorted order is the one named
    partial = Name.canonical((("0:0", {"x"}), ("0:0", {"x", "y"})))
    # both steps that read commitments raise the same error, with the same text
    family = maximal_antichain_family(c.poset)
    steps = (derive_point_names, lambda table, space: approximate(table, space, family))
    for step in steps:
        with pytest.raises(DataError, match="^name is not a valid cover name; point 'x' lacks dense "
                                            "commitments$"):
            step(table_at(c.poset, partial), space)
    # with x committed everywhere, y is the point that fails
    only_y = Name.canonical((("", {"x"}), ("0:0", {"x", "y"})))
    for step in steps:
        with pytest.raises(DataError, match="point 'y' lacks dense commitments"):
            step(table_at(c.poset, only_y), space)
    # two atoms and no top: only the first condition in canonical order lacks
    # a commitment below it
    pair = Poset.from_pairs(["a", "b"], [])
    single = FiniteSpace(["x"], [["x"]])
    with pytest.raises(DataError, match="point 'x' lacks dense commitments"):
        derive_point_names(table_at(pair, Name.canonical((("b", {"x"}),))), single)
    with pytest.raises(DataError, match="point 'x' lacks dense commitments"):
        approximate(table_at(pair, Name.canonical((("b", {"x"}),))), single, maximal_antichain_family(pair))


def test_point_names_on_pair_fixture():
    c, space, name = pair_setup()
    pns = derive_point_names(table_at(c.poset, name), space)
    by_point = {pn.point: pn for pn in pns}
    assert set(by_point) == {"x", "y"}
    # both points split along index 0
    assert by_point["x"].antichain == ("0:0", "0:1")
    assert by_point["y"].antichain == ("0:0", "0:1")
    # least committed set per side
    assert dict(by_point["x"].values) == {"0:0": frozenset({"x"}), "0:1": frozenset({"x", "y"})}
    assert dict(by_point["y"].values) == {"0:0": frozenset({"x", "y"}), "0:1": frozenset({"x", "y"})}


def test_point_antichains_are_maximal_and_committed():
    c, space, name = pair_setup()
    for pn in derive_point_names(table_at(c.poset, name), space):
        assert c.poset.is_maximal_antichain(pn.antichain)
        for p, u in pn.values:
            assert pn.point in u
            # the committed set is forced in below p
            assert forces(c.poset, p, ExistsSupersetInCover(name, u))


def test_point_name_scan_ends_when_above_atoms_drops_an_atom(monkeypatch):
    # the scan drops the position it keeps, so it does not rest on
    # above_atoms returning that position: with a kernel that drops the last
    # atom of every mask it ends, and the maximality check reports the fault
    # as a program fault, not as bad input.
    # Each case has one commitment mask, so a scan that ends keeps at most
    # one member per condition and reads one `compatible_masks` row for
    # each; a read past that fails instead of hanging
    real_above, real_rows = Poset.above_atoms, Poset.compatible_masks.func
    reads = []

    class CountedRows(tuple):
        def __getitem__(self, i):
            reads.append(i)
            if len(reads) > len(self):
                pytest.fail("the greedy scan read one compatible row per condition and went on")
            return tuple.__getitem__(self, i)

    def drops_last_atom(self, atoms):
        return real_above(self, atoms & ~(1 << atoms.bit_length() >> 1))  # the last atom, if any

    monkeypatch.setattr(Poset, "above_atoms", drops_last_atom)
    monkeypatch.setattr(Poset, "compatible_masks", property(lambda self: CountedRows(real_rows(self))))
    c, space, name = pair_setup()
    m = MeasurePoset(2)
    measure_name = Name.canonical((("00,01", {"x"}), ("00,01", {"x", "y"}), ("10,11", {"x", "y"})))
    for poset, cover_name in ((c.poset, name), (m.poset, measure_name)):
        for step in (derive_point_names,
                     lambda table, space: approximate(table, space, maximal_antichain_family(poset))):
            reads.clear()
            with pytest.raises(InvariantError, match="^point 'x': greedy antichain is not maximal$"):
                step(table_at(poset, cover_name), space)
            assert reads


def test_point_name_check_catches_an_antichain_that_misses_an_atom(monkeypatch):
    # a compatibility table that marks every position compatible ends the
    # scan after one member, whose atoms are not every atom
    everything = property(lambda self: ((1 << len(self)) - 1,) * len(self))
    monkeypatch.setattr(Poset, "compatible_masks", everything)
    c, space, name = pair_setup()
    with pytest.raises(InvariantError, match="greedy antichain is not maximal"):
        derive_point_names(table_at(c.poset, name), space)
    with pytest.raises(InvariantError, match="^point 'x': greedy antichain is not maximal$"):
        approximate(table_at(c.poset, name), space, maximal_antichain_family(c.poset))


def reference_point_names(poset, space, name):
    """The per point greedy loop over every position, before points with
    one commitment mask shared their antichain, copied verbatim apart from
    reading the commitment set as a union of down sets."""
    validate_name(poset, name)
    down_mask = poset.down_mask
    out = []
    for x in sorted(space.points):
        pairs = sorted(((q, u) for q, u in name.pairs if x in u), key=lambda pair: set_key(pair[1]))
        committed = frozenset().union(*(poset.down(q) for q, _ in pairs))
        if not committed.issuperset(poset.atoms):
            raise DataError(f"name is not a valid cover name; point {x!r} lacks dense commitments")
        antichain = []
        chosen = 0
        for p in poset.elements:
            below = poset.down_mask[p]
            if p in committed and below & chosen == 0:
                antichain.append(p)
                chosen |= below
        if not poset.is_maximal_antichain(antichain):
            raise DataError(f"point {x!r}: greedy antichain is not maximal")
        values = []
        for p in antichain:
            bit = 1 << poset.sort_key(p)
            values.append((p, next(u for q, u in pairs if down_mask[q] & bit)))
        out.append(PointName(x, tuple(antichain), tuple(values)))
    return tuple(out)


def random_explicit_poset(rng: random.Random) -> Poset:
    """Edges run from a later to an earlier index of a hidden order, so the
    relation is acyclic; the listed (canonical) order is an independent
    shuffle.  Most draws are not separative."""
    n = rng.randint(1, 12)
    hidden = [f"c{i}" for i in range(n)]
    pairs = [(hidden[j], hidden[i]) for j in range(n) for i in range(j) if rng.random() < 0.3]
    elements = hidden[:]
    rng.shuffle(elements)
    return Poset.from_pairs(elements, pairs)


def is_separative(poset: Poset) -> bool:
    """Whether p <= q whenever every atom below p lies below q: if p is not
    below q, some atom below p is then incompatible with q."""
    atoms = poset.atom_mask
    return all(p in poset.down(q) for p in poset.elements for q in poset.elements
               if atoms[p] & ~atoms[q] == 0)


def point_name_cases():
    """(poset, space, name) triples whose points share one commitment mask,
    share it in part, or each have their own, on the Cohen and measure
    orders and on seeded explicit ones."""
    rng = random.Random(77)
    explicit = random.Random(78)
    cases = []
    for poset in (CohenPoset(range(3)).poset, MeasurePoset(2).poset,
                  *(random_explicit_poset(explicit) for _ in range(24))):
        space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"], ["x", "y", "z"]])
        for _ in range(6):
            a, b = (sorted(poset.random_maximal_antichain(rng), key=poset.sort_key) for _ in range(2))
            extra = [(rng.choice(poset.elements), {rng.choice("xyz")}) for _ in range(3)]
            # every point committed to the whole space on one antichain
            shared = [(q, {"x", "y", "z"}) for q in a]
            # x and z on one antichain, y on another, each through its singleton
            split = [(q, {x}) for q in a for x in "xz"] + [(q, {"y"}) for q in b]
            for pairs in (shared, split, shared + extra, split + extra):
                cases.append((poset, space, Name.canonical(pairs)))
    for seed in range(30):
        scenario = generate_scenario(seed)
        bundle = build_bundle(scenario.poset)
        space = FiniteSpace(scenario.points, scenario.base)
        cases += [(bundle.poset, space, name) for name in scenario.names]
    return cases


def test_point_names_match_the_per_point_reference():
    sharing = set()
    separative = set()
    for poset, space, name in point_name_cases():
        pns = derive_point_names(table_at(poset, name), space)
        assert pns == reference_point_names(poset, space, name)
        distinct = len({pn.antichain for pn in pns})
        sharing.add(distinct == 1 if len(pns) > 1 else None)
        separative.add(is_separative(poset))
    assert {True, False} <= sharing  # shared and unshared commitment masks both ran
    assert {True, False} <= separative  # separative orders and others both ran


def test_approximate_extracts_once_per_distinct_antichain():
    c = CohenPoset(range(3))
    space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"], ["x", "y", "z"]])
    rng = random.Random(3)
    a, b = (sorted(c.poset.random_maximal_antichain(rng), key=c.poset.sort_key) for _ in range(2))
    assert a != b
    family = cohen_dow_family(c, c.stratification())
    calls = []

    def extract(n, antichain):
        calls.append(antichain)
        return family.extract(n, antichain)

    counted = family._replace(extract=extract)
    for pairs, distinct in (
        ([(q, {"x", "y", "z"}) for q in a], 1),
        ([(q, {x}) for q in a for x in "xz"] + [(q, {"y"}) for q in b], 2),
        ([(q, {"x"}) for q in a] + [(q, {x}) for q in b for x in "yz"], 2),
    ):
        name = Name.canonical(pairs)
        for n in range(4):
            calls.clear()
            approx = approximate(table_at(c.poset, name, n), space, counted)
            assert len(calls) == len(set(calls)) == distinct
            assert approx == approximate(table_at(c.poset, name, n), space, family)


def test_approximate_trusts_the_point_antichains(monkeypatch):
    # `point_antichain` verifies each antichain from its members' atom
    # masks; neither it nor the extractors call is_maximal_antichain
    checks = []
    real = Poset.is_maximal_antichain

    def counted(self, items):
        checks.append(frozenset(items))
        return real(self, items)

    monkeypatch.setattr(Poset, "is_maximal_antichain", counted)
    c, space, name = pair_setup()
    m = MeasurePoset(2)
    measure_name = Name.canonical((
        ("00,01", {"x"}), ("00,01", {"x", "y"}), ("10,11", {"x", "y"})))
    for poset, family, cover_name in ((c.poset, cohen_dow_family(c, c.stratification()), name),
                                      (m.poset, measure_total_family(m), measure_name)):
        for n in range(3):
            approximate(table_at(poset, cover_name, n), space, family)
        assert checks == []


def test_faulty_extractions_are_program_faults():
    # an endowment family extracts a nonempty subset of the antichain it is
    # given; one that does not is a program fault, not a rejection of input
    c, space, name = pair_setup()
    table = table_at(c.poset, name, 1)
    family = cohen_dow_family(c, c.stratification())
    for extract, message in (
        (lambda n, antichain: frozenset(), "family extraction for point 'x' is empty"),
        (lambda n, antichain: frozenset({""}),
         "family extraction for point 'x' leaves the antichain"),
    ):
        with pytest.raises(InvariantError, match=f"^{message}$") as caught:
            approximate(table, space, family._replace(extract=extract))
        assert not isinstance(caught.value, DataError)
    # the error names the first point with the antichain at fault: x and z
    # share one antichain, y has another, which the stub empties or leaves
    c = CohenPoset(range(3))
    space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"], ["x", "y", "z"]])
    a, b = (sorted(c.poset.random_maximal_antichain(random.Random(seed)), key=c.poset.sort_key)
            for seed in (3, 4))
    name = Name.canonical([(q, {x}) for q in a for x in "xz"] + [(q, {"y"}) for q in b])
    family = cohen_dow_family(c, c.stratification())
    for fault, message in ((frozenset(), "is empty"), (frozenset({""}), "leaves the antichain")):
        def extract(n, antichain, fault=fault):
            return fault if antichain == frozenset(b) else family.extract(n, antichain)

        with pytest.raises(InvariantError, match=f"^family extraction for point 'y' {message}$"):
            approximate(table_at(c.poset, name, 2), space, family._replace(extract=extract))


# -- the one-pass approximation against the two steps it replaced ---------------
#
# `prior_approximation` composes verbatim copies of `derive_point_names` and
# `approximate` as they were before `approximate` built each level in one
# pass from its witness table.  `oracle_pieces` reads no mask at all.


def prior_derive_point_names(table: WitnessTable, space: FiniteSpace) -> tuple[PointName, ...]:
    """`derive_point_names` before `approximate` built each level in one
    pass, copied verbatim."""
    poset = table.poset
    elements, down_mask, compatible = poset.elements, poset.down_mask, poset.compatible_masks
    atom_masks = poset.atom_masks
    reach: dict[frozenset[str], int] = {}
    for q, u in table.name.pairs:
        reach[u] = reach.get(u, 0) | down_mask[q]
    masks = table.masks  # in set_key order
    everything = (1 << len(poset.atoms)) - 1
    # commitment mask -> verified antichain and its members' position bits
    greedy: dict[int, tuple[tuple[Condition, ...], list[int]]] = {}
    out = []
    for x in sorted(space.points):
        values = [(u, reach[u]) for u in masks if x in u]
        committed = atoms = 0
        for u, mask in values:
            committed |= mask
            atoms |= masks[u]
        if atoms != everything:
            raise DataError(f"name is not a valid cover name; point {x!r} lacks dense commitments")
        if committed not in greedy:
            bits, positions = [], []
            rest = committed
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                bits.append(low)
                positions.append(i)
                rest &= ~(low | compatible[i])
            reached = overlap = 0  # the atoms below the members so far, and those met twice
            for i in positions:
                overlap |= reached & atom_masks[i]
                reached |= atom_masks[i]
            if overlap or reached != everything:
                raise InvariantError(f"point {x!r}: greedy antichain is not maximal")
            greedy[committed] = tuple([elements[i] for i in positions]), bits
        antichain, bits = greedy[committed]
        chosen = []
        for p, bit in zip(antichain, bits):
            for u, mask in values:
                if mask & bit:
                    chosen.append((p, u))
                    break
        out.append(PointName(x, antichain, tuple(chosen)))
    return tuple(out)


def prior_approximate(
    table: WitnessTable, point_names: Sequence[PointName], family: EndowmentFamily,
) -> Approximation:
    """`approximate` before it built each level in one pass, copied
    verbatim."""
    n, sort_key = table.level, table.poset.sort_key
    used_by: dict[tuple[Condition, ...], tuple[Condition, ...]] = {}  # antichain -> members used
    entries = []
    pieces = []
    for pn in sorted(point_names, key=lambda pn: pn.point):
        used = used_by.get(pn.antichain)
        if used is None:
            antichain = frozenset(pn.antichain)
            chosen = family.extract(n, antichain)
            if not chosen:
                raise InvariantError(f"family extraction for point {pn.point!r} is empty")
            if not chosen <= antichain:
                raise InvariantError(f"family extraction for point {pn.point!r} leaves the antichain")
            used = used_by[pn.antichain] = tuple(sorted(chosen, key=sort_key))
        values = dict(pn.values)
        piece = frozenset.intersection(*(values[p] for p in used))
        entries.append((pn.point, used, piece))
        pieces.append(piece)
    return Approximation(n, tuple(entries), sorted_sets(pieces))


def prior_approximation(table, space, family):
    return prior_approximate(table, prior_derive_point_names(table, space), family)


def oracle_pieces(poset, space, name, used_by_point) -> dict:
    """Each point's piece from frozensets alone: the intersection, over the
    members p it uses, of its committed set at p, the least value U holding
    the point, in `set_key` order, with a pair (q, U) such that p lies in
    `down(q)`."""
    pieces = {}
    for x, used in used_by_point.items():
        committed = []
        for p in used:
            holding = [u for q, u in name.pairs if x in u and p in poset.down(q)]
            committed.append(min(holding, key=set_key))
        pieces[x] = frozenset.intersection(*committed)
    return pieces


def outcome(step, *args):
    """What a step returns, or the type and text of what it raises."""
    try:
        return step(*args)
    except (DataError, InvariantError) as exc:
        return type(exc), str(exc)


def assert_matches_prior(poset, strat, space, name, n, family) -> Approximation | None:
    """The one-pass approximation at level n equals the prior composition,
    raises what it raises, calls the extractor on the same antichains in
    the same order, and its pieces are the oracle's."""
    table = WitnessTable(poset, strat, n, name)
    # the table's one pass tables the masks `value_masks` defines, and beside
    # them each value's reach, in the same order
    assert list(table.masks.items()) == list(value_masks(poset, name).items())
    assert list(table.reach) == list(table.masks)
    assert all(table.reach[u] == sum(1 << poset.sort_key(p) for p in set().union(*(
        poset.down(q) for q, v in name.pairs if v == u))) for u in table.reach)
    calls, prior_calls = [], []
    approx = outcome(approximate, table, space, counting(family, calls))
    assert approx == outcome(prior_approximation, table, space, counting(family, prior_calls))
    assert calls == prior_calls
    if not isinstance(approx, Approximation):
        return None
    used = {x: members for x, members, _ in approx.entries}
    assert {x: piece for x, _, piece in approx.entries} == oracle_pieces(poset, space, name, used)
    return approx


def assert_scenario_matches_prior(scenario, families=None) -> int:
    """Every level of the scenario under its default family, or under
    each of `families(bundle)`; the number of approximations built."""
    bundle = build_bundle(scenario.poset)
    space = FiniteSpace(scenario.points, scenario.base)
    built = 0
    for family in (families(bundle) if families else (bundle.family,)):
        for n, name in enumerate(scenario.names):
            built += assert_matches_prior(bundle.poset, bundle.strat, space, name, n, family) is not None
    return built


def test_approximation_matches_the_prior_steps_on_the_goldens_and_the_stronger_first_poset():
    goldens = sorted((Path(__file__).parent / "golden").glob("*.cert.json"))
    scenarios = [Scenario.from_jsonable(json.loads(g.read_text())["scenario"]) for g in goldens]
    scenarios += [stronger_first_scenario(mode) for mode in MODES]
    assert len(goldens) == 2
    assert sum(map(assert_scenario_matches_prior, scenarios)) == sum(len(s.names) for s in scenarios)


@pytest.mark.parametrize("catalog", ["cohen5", "measure3"])
def test_approximation_matches_the_prior_steps_on_the_limit_catalogs(catalog):
    scenarios = limit_scenarios(catalog)
    assert sum(map(assert_scenario_matches_prior, scenarios)) == sum(len(s.names) for s in scenarios)


@pytest.mark.parametrize("mode", MODES)
def test_approximation_matches_the_prior_steps_on_generated_scenarios(mode):
    def both(bundle):
        return bundle.family, adversarial_singleton_family(bundle.poset)

    built = sum(assert_scenario_matches_prior(generate_scenario(seed, mode), both) for seed in range(300))
    assert built > 300


def test_derive_rejects_invalid_names():
    c, space, _ = pair_setup()
    partial = Name.canonical((("0:0", {"x"}), ("0:0", {"x", "y"})))
    with pytest.raises(DataError):
        derive_point_names(table_at(c.poset, partial), space)


def test_approximation_on_pair_fixture():
    c, space, name = pair_setup()
    table = table_at(c.poset, name, 1)
    family = cohen_dow_family(c, c.stratification())
    approx = approximate(table, space, family)
    assert approx.level == 1
    # x uses both sides: {x} meet {x,y} = {x}; y gets {x,y}
    assert {x: v for x, _, v in approx.entries} == {
        "x": frozenset({"x"}), "y": frozenset({"x", "y"})}
    assert approx.cover == (frozenset({"x"}), frozenset({"x", "y"}))


def test_approximation_pieces_contain_their_points():
    m = MeasurePoset(2)
    space = FiniteSpace(["x", "y"], [["x"], ["x", "y"]])
    name = Name.canonical((
        ("00,01", {"x"}),
        ("00,01", {"x", "y"}),
        ("10,11", {"x", "y"}),
    ))
    for n in range(3):
        approx = approximate(table_at(m.poset, name, n), space, measure_total_family(m))
        for x, _, piece in approx.entries:
            assert x in piece


def test_approximation_certificate_positive_with_witness_counts():
    c, space, name = pair_setup()
    strat = c.stratification()
    table = WitnessTable(c.poset, strat, 1, name)
    approx = approximate(table, space, cohen_dow_family(c, strat))
    cert = check_approximation(table, approx.cover)
    assert cert.positive
    # 2 cover pieces, 5 level-1 conditions: one witness each
    assert len(cert.triples) == 10
    assert cert.counterexample is None
    # a piece is forced in below the witness
    for piece_key, p, r in cert.triples:
        assert r in c.poset.down(p)
        assert forces(c.poset, r, ExistsSupersetInCover(name, frozenset(piece_key)))


def test_approximation_certificate_flags_undominated_piece():
    # three point discrete space, name forced everywhere: each singleton is
    # committed at the top, so a two point piece is never dominated
    c = CohenPoset([0])
    space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"]])
    name = Name.canonical((
        ("", {"x"}), ("", {"y"}), ("", {"z"}),
    ))
    table = WitnessTable(c.poset, c.stratification(), 1, name)
    approx = approximate(table, space, maximal_antichain_family(c.poset))
    cert = check_approximation(table, approx.cover)
    assert cert.positive
    cert = check_approximation(table, approx.cover + (frozenset({"y", "z"}),))
    assert not cert.positive
    piece, p = cert.counterexample
    assert frozenset(piece) == frozenset({"y", "z"})
    assert p == ""


def test_refined_name_evaluation_law():
    c, space, name = pair_setup()
    strat = c.stratification()
    table = WitnessTable(c.poset, strat, 1, name)
    approx = approximate(table, space, cohen_dow_family(c, strat))
    refined, cert, masks = refine_name(table, approx.cover)
    assert cert.positive
    assert masks == value_masks(c.poset, refined)  # tabled from the refined pairs
    for atom in c.poset.atoms:
        got = set(evaluate_name(c.poset, refined, atom))
        expect = {
            h for h in approx.cover
            if any(h <= u for u in evaluate_name(c.poset, name, atom))
        }
        assert got == expect


def test_refinement_certificate_clauses():
    c, space, name = pair_setup()
    strat = c.stratification()
    table = WitnessTable(c.poset, strat, 1, name)
    approx = approximate(table, space, cohen_dow_family(c, strat))
    refined, cert, _ = refine_name(table, approx.cover)
    assert cert.refines_everywhere
    assert cert.counterexample is None
    # every (ground set, level condition) pair has a dense witness
    assert len(cert.triples) == len(approx.cover) * len(strat.ordered_at(1))
    for h_key, p, r in cert.triples:
        assert r in c.poset.down(p)
        assert (r, frozenset(h_key)) in set(refined.pairs)


def test_witness_runs_are_keyed_by_forcing_mask():
    # each singleton is forced in below its own atom only, and no named set
    # contains {x,y}: three sets, three masks, three runs of three lengths
    c = CohenPoset([0])
    space = FiniteSpace(["x", "y"], [["x"], ["y"], ["x", "y"]])
    name = Name.canonical((("0:0", {"x"}), ("0:1", {"y"})))
    table = WitnessTable(c.poset, c.stratification(), 1, name)
    x, y, both = frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})
    assert len({table.forcing(h) for h in (x, y, both)}) == 3
    assert table.run(x) == ("0:0", "0:0")
    assert table.run(y) == ("0:1",)
    assert table.run(both) == ()
    assert table.run(frozenset({"x"})) is table.run(x)
    # {x} is forced in exactly where {y} is, so the two sets share one run
    twin = Name.canonical((("", {"x", "y"}),))
    table = WitnessTable(c.poset, c.stratification(), 1, twin)
    assert table.forcing(x) == table.forcing(y)
    assert table.run(x) is table.run(y) == ("", "0:0", "0:1")


def test_refinement_flags_undominated_ground_set():
    c = CohenPoset([0])
    name = Name.canonical((("", {"x"}), ("", {"y"}), ("", {"z"})))
    refined, cert, _ = refine_name(
        WitnessTable(c.poset, c.stratification(), 0, name), [frozenset({"y", "z"})])
    assert not cert.positive
    assert cert.counterexample == (("y", "z"), "")
    assert refined.pairs == ()


# ten conditions listed against identifier order, "e9" first and "e0" last,
# with e_j <= e_i for some j > i
REVERSED_EXPLICIT = {
    "kind": "explicit",
    "elements": [f"e{i}" for i in reversed(range(10))],
    "leq": [[f"e{j}", f"e{i}"] for i in range(10) for j in range(i + 1, 10) if (7 * i + j) % 3 == 0],
}


def _drawn_scenario(recipe: dict, seed: int, mode: str) -> Scenario:
    """A scenario on the recipe's poset over {x, y}, with floor + 2 levels:
    each name pairs every member of a drawn maximal antichain with a drawn
    set holding each point, plus three drawn pairs, so it is a cover name."""
    rng = random.Random(seed)
    bundle = build_bundle(recipe)
    poset = bundle.poset
    base = (frozenset("x"), frozenset("y"), frozenset("xy"))
    names = []
    for _ in range(bundle.strat.stabilization_index + 2):
        antichain = sorted(poset.random_maximal_antichain(rng), key=poset.sort_key)
        pairs = [(q, rng.choice([b for b in base if x in b])) for q in antichain for x in "xy"]
        pairs += [(rng.choice(poset.elements), rng.choice(base)) for _ in range(3)]
        names.append(Name.canonical(pairs))
    return Scenario(recipe, ("x", "y"), base, tuple(names), mode)


# The drawn scenarios' posets list their conditions in an order other than
# identifier order, so pairs collected by position would come out of order.
DRAWN_ORDER_SCENARIOS = {
    f"{label}-{mode}": (lambda recipe=recipe, mode=mode: _drawn_scenario(recipe, 5, mode))
    for label, recipe in (("cohen-D2", {"kind": "cohen", "indices": [0, 1]}),
                          ("measure-k2", {"kind": "measure", "k": 2}),
                          ("explicit-reversed", REVERSED_EXPLICIT))
    for mode in MODES
}
REFINE_ORDER_SCENARIOS = {
    "cohen-golden": lambda: _golden_scenario("cohen-pair"),
    "measure-golden": lambda: _golden_scenario("measure-pair"),
    "generated-8": lambda: generate_scenario(8, "selective-screenability"),
    "generated-146": lambda: generate_scenario(146, "selective-screenability"),
    **DRAWN_ORDER_SCENARIOS,
}


def _golden_scenario(stem):
    text = (Path(__file__).parent / "golden" / f"{stem}.cert.json").read_text()
    return Scenario.from_jsonable(json.loads(text)["scenario"])


@pytest.mark.parametrize("make", DRAWN_ORDER_SCENARIOS.values(), ids=DRAWN_ORDER_SCENARIOS.keys())
def test_drawn_order_scenarios_list_conditions_against_identifier_order(make):
    poset = build_bundle(make().poset).poset
    assert list(poset.elements) != sorted(poset.elements)
    assert [poset.elements[i] for i in poset.identifier_order] == sorted(poset.elements)


@pytest.mark.parametrize("make", REFINE_ORDER_SCENARIOS.values(), ids=REFINE_ORDER_SCENARIOS.keys())
def test_refine_name_hands_its_pairs_over_in_canonical_order(make, monkeypatch):
    # `Name` takes its pairs as given, so a refined name is canonical only if
    # `refine_name` hands its pairs over in canonical order
    handed = []

    def spy(pairs):
        handed.append(pairs)
        return Name(pairs)

    monkeypatch.setattr("endowlab.names.Name", spy)
    assert run_preservation(make()).verdict == "positive"
    assert any(handed)
    for pairs in handed:
        keys = [(q, set_key(u)) for q, u in pairs]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # strictly increasing


def _one_condition_scenarios():
    """A poset of one condition, so the grid has one row, under each mode."""
    names = (Name.canonical((("e", {"x"}), ("e", {"y"}))), Name.canonical((("e", {"x", "y"}),)))
    return [Scenario({"kind": "explicit", "elements": ["e"], "leq": []}, ("x", "y"),
                     (frozenset("x"), frozenset("y"), frozenset("xy")), names, mode)
            for mode in MODES]


GRID_SCENARIOS = {
    "goldens": lambda: [_golden_scenario(stem) for stem in ("cohen-pair", "measure-pair")],
    "cohen5": lambda: limit_scenarios("cohen5"),
    "measure3": lambda: limit_scenarios("measure3"),
    "gen-0-299": lambda: [generate_scenario(seed) for seed in range(300)],
    "one-condition": _one_condition_scenarios,
}


@pytest.mark.parametrize("label", GRID_SCENARIOS)
def test_the_selector_grid_writes_and_masks_what_the_refined_pairs_do(label):
    # the refined names' section written from each level's grid is the one
    # the pairs' own writer lays out, and the grid's masks are the pairs'
    # value masks, in the same order; besides each level's ground family,
    # every level refines over no set and over the subbase with the whole
    # space, which holds sets no condition selects, except in the goldens,
    # whose names hold the whole space at some condition of every level
    unselected = 0
    for scenario in GRID_SCENARIOS[label]():
        cert = run_preservation(scenario)
        bundle = build_bundle(scenario.poset)
        poset = bundle.poset
        memo = TextMemo(poset.text_table)
        from_grids, from_pairs = [], []
        write_array(from_grids, [c.refined_text(memo) for c in cert.pipeline.certificates])
        write_records(from_pairs, cert.pipeline.refined, memo)
        assert "".join(from_grids) == "".join(from_pairs)
        for n, name in enumerate(scenario.names):
            table = WitnessTable(poset, bundle.strat, n, name)
            for family in (cert.ground_families[n], (), scenario.base + (frozenset(scenario.points),)):
                refined, refine_cert, masks = refine_name(table, family)
                assert list(masks.items()) == list(value_masks(poset, refined).items())
                assert refine_cert.refined_text(memo) == refined.to_text(TextMemo())
                unselected += len(sorted_sets(family)) - len(masks)
    assert unselected > 0 or label == "goldens"


def test_refined_text_needs_the_posets_pair_heads():
    c, _, name = pair_setup()
    _, cert, _ = refine_name(table_at(c.poset, name), [frozenset({"x"})])
    assert cert.refined_text(TextMemo(c.poset.text_table)).startswith('[{"condition":')
    with pytest.raises(InvariantError, match="pair heads are not the selector grid's rows"):
        cert.refined_text(TextMemo())


def test_pipeline_positive_on_pair_fixture():
    c, space, name = pair_setup()
    strat = c.stratification()
    family = cohen_dow_family(c, strat)
    tables = level_tables(c.poset, strat, [name, name, name])
    approxes = [approximate(table, space, family) for table in tables]
    result = run_pipeline(tables, [a.cover for a in approxes], space, strat.stabilization_index)
    assert result.positive
    assert all(result.subfamily_everywhere)
    assert result.union_covers


def test_pipeline_single_level_with_trivial_stratification():
    p = Poset.from_pairs(["t"], [])
    strat = make_stratification(p, [["t"]])
    space = FiniteSpace(["x"], [["x"]])
    name = Name.canonical((("t", {"x"}),))
    result = run_pipeline(level_tables(p, strat, [name]), [[frozenset({"x"})]], space, 0)
    assert result.positive


def test_pipeline_horizon_precondition():
    c, space, name = pair_setup()
    strat = c.stratification()
    names = [name, name, name]
    # y only appears below the stabilization floor (level 0 < 2)
    families = [[frozenset({"x", "y"})], [frozenset({"x"})], [frozenset({"x"})]]
    # the run completes and honestly fails to cover
    result = run_pipeline(
        level_tables(c.poset, strat, names), families, space, strat.stabilization_index)
    assert not result.positive
    assert not result.union_covers


def test_pipeline_needs_one_family_per_name():
    # only a program fault can hand the pipeline a count that differs, so it
    # is a ValueError (exit 1), not a DataError
    c, space, name = pair_setup()
    strat = c.stratification()
    with pytest.raises(ValueError):
        run_pipeline(level_tables(c.poset, strat, [name]), [], space, 0)
    with pytest.raises(ValueError):
        run_pipeline([], [], space, 0)


# -- the closing pass against the separate checks it replaced -----------------
#
# `reference_closing_checks` copies the earlier closing code verbatim: the
# subfamily loop and the union pass of run_pipeline, with the bodies of the
# subfamily and union statements' atom evaluations inlined, and the atom
# table loop of run_preservation.  Each evaluates the refined names again.


def ref_subfamily_holds(poset, name, family, atom):
    allowed = set(sorted_sets(family))
    return all(u in allowed for u in evaluate_name(poset, name, atom))


def ref_union_holds(poset, names, points, atom):
    covered = set()
    for name in names:
        for u in evaluate_name(poset, name, atom):
            covered.update(u)
    return frozenset(points) <= covered


def reference_closing_checks(poset, strat, space, refined, families):
    floor = strat.stabilization_index
    subfamily_flags = []
    for n, w in enumerate(refined):
        subfamily_flags.append(all(ref_subfamily_holds(poset, w, families[n], a) for a in poset.atoms))
    tail = tuple(refined[n] for n in range(floor, len(refined)))
    bad_atom = next(
        (a for a in poset.atoms if not ref_union_holds(poset, tail, space.points, a)),
        None,
    ) if tail else (poset.atoms[0] if space.points else None)
    atom_rows = []
    complete = True
    for atom in poset.atoms:
        evaluations = [
            evaluate_name(poset, refined[n], atom)
            for n in range(len(refined))
        ]
        for x in sorted(space.points):
            hit = next(
                ((n, h) for n in range(floor, len(refined)) for h in evaluations[n] if x in h),
                None,
            )
            if hit is None:
                atom_rows.append(AtomRow(atom, x, None, None))
                complete = False
            else:
                atom_rows.append(AtomRow(atom, x, hit[0], hit[1]))
    return tuple(subfamily_flags), tuple(atom_rows), bad_atom is None, complete


def assert_matches_reference(poset, strat, space, result, families):
    flags, rows, union_ok, complete = reference_closing_checks(
        poset, strat, space, result.refined, families)
    assert result.subfamily_everywhere == flags
    assert result.atom_table == rows
    assert result.union_covers == union_ok == complete
    return union_ok


# Tighter generation bounds draw other scenarios than the defaults.
SMALL_BOUNDS = Limits(max_indices=1, max_k=1, max_points=2, max_base=3, max_poset=4, max_levels=4)


@pytest.mark.parametrize("bounds", [DEFAULT_LIMITS, SMALL_BOUNDS], ids=["default", "small"])
@pytest.mark.parametrize("mode", MODES)
def test_closing_pass_matches_the_separate_checks(mode, bounds):
    for seed in range(15):
        scenario = generate_scenario(seed, mode, bounds)
        cert = run_preservation(scenario)
        bundle = build_bundle(scenario.poset)
        space = FiniteSpace(scenario.points, scenario.base)
        assert assert_matches_reference(
            bundle.poset, bundle.strat, space, cert.pipeline, cert.ground_families)


def test_closing_pass_matches_the_separate_checks_when_covering_fails():
    c, space, name = pair_setup()
    strat = c.stratification()
    families = [[frozenset({"x", "y"})], [frozenset({"x"})], [frozenset({"x"})]]
    result = run_pipeline(level_tables(c.poset, strat, [name, name, name]), families, space,
                          strat.stabilization_index)
    assert not assert_matches_reference(c.poset, strat, space, result, families)
    assert {row.level for row in result.atom_table if row.point == "y"} == {None}
