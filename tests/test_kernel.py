"""The bitmask kernel against frozenset references.

The pipeline's forcing masks (`superset_mask`, `refinement_mask`,
`forcing_mask`), the witness lookup of `level_witnesses` and the
compatibility and antichain helpers read atom and down-set masks;
`forces`, `forces_dense`, the brute-force witness and the pairwise
antichain references below read only frozenset down-sets, so they share no
logic with the kernel.  The witness runs and refined names, read off the
self-least and level masks, are checked against verbatim copies of the
per-condition scans they replaced.  The compatibility table
(`Poset.compatible_masks`) is checked against `above_atoms` and the
pairwise definition, and the cover-name steps that read it
(`derive_point_names`, `approximate`, `dow_construct`) against verbatim
copies of the code they replaced."""

import random
import re
from itertools import combinations, product
from typing import Iterable, NamedTuple, Sequence

import pytest

from endowlab.cohen import CohenPoset
from endowlab.endowment import (
    DowStage,
    DowTrace,
    EndowmentFamily,
    adversarial_singleton_family,
    cohen_dow_family,
    dow_construct,
    maximal_antichain_family,
    measure_total_family,
)
from endowlab.errors import DataError, InvariantError
from endowlab.measure import MeasurePoset
from endowlab.canon import sorted_sets
from endowlab.names import (
    Approximation,
    PointName,
    WitnessTable,
    approximate,
    derive_point_names,
    forcing_mask,
    level_witnesses,
    refine_name,
)
from endowlab.poset import (
    Condition,
    ExistsSupersetInCover,
    Name,
    Poset,
    RefinesName,
    forces,
    forces_dense,
    make_stratification,
    refinement_mask,
    statement_holds_at,
    superset_mask,
    value_masks,
)
from endowlab.topology import FiniteSpace

UNIVERSE = "xyz"


def random_explicit_poset(rng: random.Random) -> Poset:
    # edges run from a later to an earlier index of a hidden order, so the
    # relation is acyclic; the listed (canonical) order is an independent shuffle
    n = rng.randint(1, 10)
    hidden = [f"c{i}" for i in range(n)]
    pairs = [(hidden[j], hidden[i]) for j in range(n) for i in range(j) if rng.random() < 0.3]
    elements = hidden[:]
    rng.shuffle(elements)
    return Poset.from_pairs(elements, pairs)


def kernel_posets(rng: random.Random) -> list[Poset]:
    fixed = [CohenPoset((0,)).poset, CohenPoset((0, 1)).poset,
             MeasurePoset(1).poset, MeasurePoset(2).poset]
    return fixed + [random_explicit_poset(rng) for _ in range(40)]


def random_subset(rng: random.Random) -> frozenset[str]:
    return frozenset(x for x in UNIVERSE if rng.random() < 0.5)


def random_name(rng: random.Random, poset: Poset) -> Name:
    return Name.canonical((rng.choice(poset.elements), random_subset(rng))
                          for _ in range(rng.randint(0, 5)))


def brute_witness(poset: Poset, p, name: Name, lower: frozenset[str]):
    return min((r for r in poset.down(p) if forces_dense(poset, r, name, lower)),
               key=poset.sort_key, default=None)


def mask_witness(poset: Poset, p, name: Name, lower: frozenset[str], forcing: int):
    """The least witness below p that `level_witnesses` reads off a witness
    table of the name, whose forcing mask for `lower` must be `forcing`, or
    None when the run of `lower` stops at p."""
    only_p = make_stratification(poset, [[p], poset.elements])
    table = WitnessTable(poset, only_p, 0, name)
    assert table.forcing(lower) == forcing
    runs, missing = level_witnesses(table, [lower])
    [(h, run)] = runs
    assert h == lower
    if missing is not None:
        assert missing == (tuple(sorted(lower)), p) and run == ()
        return None
    [r] = run
    return r


def test_kernel_matches_the_density_oracle():
    rng = random.Random(20260)
    outcomes = set()
    for poset in kernel_posets(rng):
        for _ in range(6):
            name = random_name(rng, poset)
            lower = random_subset(rng)
            forcing = forcing_mask(poset, superset_mask(value_masks(poset, name), lower))
            for p in poset.elements:
                dense = forces_dense(poset, p, name, lower)
                assert forces(poset, p, ExistsSupersetInCover(name, lower)) == dense
                assert (forcing >> poset.sort_key(p) & 1 == 1) == dense
                witness = mask_witness(poset, p, name, lower, forcing)
                assert witness == brute_witness(poset, p, name, lower)
                outcomes.add((dense, witness is None))
    # every combination a witness search can meet showed up
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_refinement_mask_matches_the_atom_definition_of_forcing():
    rng = random.Random(41)
    for poset in kernel_posets(rng):
        name, other = random_name(rng, poset), random_name(rng, poset)
        stmt = RefinesName(name, other)
        mask = refinement_mask(poset, value_masks(poset, name), value_masks(poset, other))
        for p in poset.elements:
            expected = all(statement_holds_at(poset, stmt, a) for a in poset.atoms if a in poset.down(p))
            assert forces(poset, p, stmt) == expected
            assert (poset.atom_mask[p] & ~mask == 0) == expected


def scan_forcing_mask(poset: Poset, truth_mask: int) -> int:
    """The per-condition scan that forcing_mask replaced, copied verbatim."""
    atom_mask, outside = poset.atom_mask, ~truth_mask
    mask = 0
    for i, p in enumerate(poset.elements):
        if not atom_mask[p] & outside:
            mask |= 1 << i
    return mask


def test_forcing_mask_matches_the_per_condition_scan():
    rng = random.Random(5150)
    posets = [CohenPoset(range(d)).poset for d in range(1, 6)]
    posets += [MeasurePoset(k).poset for k in range(4)]
    posets += [random_explicit_poset(rng) for _ in range(40)]
    for poset in posets:
        everything = (1 << len(poset.atoms)) - 1
        masks = [0, everything] + [rng.getrandbits(len(poset.atoms)) for _ in range(8)]
        # truth masks of real statements, as check_approximation builds them
        masks += [superset_mask(value_masks(poset, random_name(rng, poset)), random_subset(rng))
                  for _ in range(4)]
        for mask in masks:
            assert forcing_mask(poset, mask) == scan_forcing_mask(poset, mask), (poset.elements[:3], mask)


# -- witness runs and refined names against the per-condition scans --------------


def scan_run(table: WitnessTable, h: frozenset[str]) -> tuple:
    """The per-condition scan that `WitnessTable.run` replaced, copied verbatim."""
    forcing = table.forcing(h)
    elements, down_mask = table.poset.elements, table.poset.down_mask
    witnesses = []
    for p in table.conditions:
        hits = down_mask[p] & forcing
        if not hits:
            break
        witnesses.append(elements[(hits & -hits).bit_length() - 1])
    return tuple(witnesses)


def scan_refined_pairs(table: WitnessTable, family) -> tuple:
    """The `identifier_order` x family scan that `refine_name` replaced,
    copied verbatim over a family already in `set_key` order."""
    poset = table.poset
    elements = poset.elements
    forcing = [(h, table.forcing(h)) for h in family]
    return tuple((elements[i], h) for i in poset.identifier_order
                 for h, mask in forcing if mask >> i & 1)


def ref_self_least(poset: Poset) -> int:
    """The definition, on frozenset down-sets: p is self-least when no
    condition below it comes before it in canonical order."""
    return sum(1 << poset.sort_key(p) for p in poset.elements
               if min(poset.down(p), key=poset.sort_key) == p)


def random_stratification(rng: random.Random, poset: Poset):
    """Two to four increasing levels, each adding a random sample of the
    conditions not yet in, the last holding every condition."""
    rest = list(poset.elements)
    rng.shuffle(rest)
    levels, level = [], []
    for _ in range(rng.randint(1, 3)):
        cut = rng.randint(0, len(rest))
        level, rest = level + rest[:cut], rest[cut:]
        levels.append(level)
    return make_stratification(poset, levels + [poset.elements])


ALL_SETS = [frozenset(c) for r in range(len(UNIVERSE) + 1) for c in combinations(UNIVERSE, r)]


def test_self_least_mask_is_every_built_in_position_and_its_definition():
    for poset in [CohenPoset(range(d)).poset for d in range(1, 6)] + [MeasurePoset(k).poset for k in range(4)]:
        assert poset.self_least == (1 << len(poset)) - 1
    rng = random.Random(3141)
    strict = 0
    for _ in range(60):
        poset = random_explicit_poset(rng)
        assert poset.self_least == ref_self_least(poset)
        strict += poset.self_least != (1 << len(poset)) - 1
    assert strict > 10
    # a chain listed strongest first: only its atom, at position 0, is self-least
    chain = Poset.from_pairs(["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")])
    assert chain.self_least == 0b001


def test_witness_runs_match_the_per_condition_scan():
    rng = random.Random(2718)
    cases = [(c.poset, c.stratification()) for c in map(CohenPoset, (range(d) for d in range(1, 4)))]
    cases += [(m.poset, m.stratification()) for m in map(MeasurePoset, range(3))]
    explicit = [random_explicit_poset(rng) for _ in range(40)]
    cases += [(poset, random_stratification(rng, poset)) for poset in explicit]
    assert sum(poset.self_least != (1 << len(poset)) - 1 for poset in explicit) > 5
    stops = 0
    for poset, strat in cases:
        for n in range(len(strat.masks)):
            assert strat.mask_at(n) == sum(1 << poset.sort_key(p) for p in strat.ordered_at(n))
            for _ in range(3):
                table = WitnessTable(poset, strat, n, random_name(rng, poset))
                for h in ALL_SETS:
                    run = table.run(h)
                    assert run == scan_run(table, h), (poset.elements, n, h)
                    stops += 0 < len(run) < len(table.conditions)
    assert stops > 0  # some runs end in mid-level


def test_refined_pairs_match_the_identifier_order_scan():
    rng = random.Random(1618)
    posets = [Poset.from_pairs(["only"], []), CohenPoset((0, 1)).poset, MeasurePoset(2).poset]
    posets += [random_explicit_poset(rng) for _ in range(30)]
    seen = set()
    for poset in posets:
        strat = make_stratification(poset, [poset.elements])
        for _ in range(4):
            table = WitnessTable(poset, strat, 0, random_name(rng, poset))
            for size in range(4):
                family = sorted_sets(rng.sample(ALL_SETS, size))
                refined, _, _ = refine_name(table, family)
                assert refined.pairs == scan_refined_pairs(table, family), (poset.elements, family)
                seen.add((size, bool(refined.pairs)))
    assert seen == {(0, False)} | {(size, found) for size in (1, 2, 3) for found in (False, True)}


# -- compatibility and antichains on the atom masks ------------------------------
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


def test_sampled_antichains_keep_the_shuffle_draws():
    # gather_antichains and generate_scenario draw many antichains in a row
    # from one generator, so each antichain and the state after it must be
    # those of rng.shuffle plus the greedy pass
    posets = [CohenPoset(range(d)).poset for d in range(1, 6)]
    posets += [MeasurePoset(k).poset for k in (1, 2, 3)]
    posets += [Poset.from_pairs(["only"], []),
               Poset.from_pairs(["c0", "c1", "c2", "c3"], [("c0", "c1"), ("c1", "c2"), ("c2", "c3")]),
               Poset.from_pairs(["a0", "a1", "a2", "a3", "a4"], [])]
    for poset in posets:
        for seed in range(4):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                sample = poset.random_maximal_antichain(rng)
                assert sample == ref_random_maximal_antichain(poset, ref_rng)
                assert rng.getstate() == ref_rng.getstate()
    # any chain member meets everything, so the stop fires after the first
    # member; with atoms only, every condition is kept
    chain, atoms = posets[-2:]
    assert all(len(chain.random_maximal_antichain(random.Random(s))) == 1 for s in range(5))
    assert atoms.random_maximal_antichain(random.Random(0)) == frozenset(atoms.elements)
    # the draw width k = (i+1).bit_length() holds for i from 2^(k-1)-1 to
    # 2^k-2, so the sampler walks the steps in blocks of one width; every
    # size up to 20 and the sizes around each power of two put the first
    # step at, just below and just above a block edge.  Each poset is a
    # binary tree with its leaves at the bottom: from two conditions on, its
    # root alone and its leaves are two different maximal antichains
    sizes = sorted(set(range(1, 21)) | {(1 << m) + d for m in range(1, 9) for d in (-1, 0, 1)})
    for n in sizes:
        names = [f"t{i}" for i in range(n)]
        tree = Poset.from_pairs(names, [(names[i], names[(i - 1) // 2]) for i in range(1, n)])
        if n > 1:
            assert tree.is_maximal_antichain(["t0"]) and tree.is_maximal_antichain(tree.atoms)
        for seed in range(3):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert tree.random_maximal_antichain(rng) == ref_random_maximal_antichain(tree, ref_rng), (n, seed)
                assert rng.getstate() == ref_rng.getstate(), (n, seed)


def test_antichain_checks_require_every_item_first():
    poset = Poset.from_pairs(["t", "a", "b"], [("a", "t"), ("b", "t")])
    assert poset.compatible("t", "a")
    for check in (poset.is_antichain, poset.is_maximal_antichain, poset.atoms_below):
        with pytest.raises(DataError, match="unknown condition: 'nope'"):
            check(["t", "a", "nope"])


# -- value masks against per-atom evaluation -------------------------------------


def statement_posets(rng: random.Random) -> list[Poset]:
    fixed = [CohenPoset(range(d)).poset for d in (1, 2, 3)]
    fixed += [MeasurePoset(k).poset for k in (0, 1, 2)]
    return fixed + [random_explicit_poset(rng) for _ in range(40)]


def repeating_name(rng: random.Random, poset: Poset) -> Name:
    """A name drawing its values from a pool of two, so values repeat across conditions."""
    pool = [random_subset(rng), random_subset(rng)]
    return Name.canonical((rng.choice(poset.elements), rng.choice(pool))
                          for _ in range(rng.randint(0, 6)))


def atomwise_truth(poset: Poset, stmt) -> int:
    return sum(1 << j for j, a in enumerate(poset.atoms) if statement_holds_at(poset, stmt, a))


def test_statement_masks_match_per_atom_evaluation_for_both_statement_kinds():
    rng = random.Random(7177)
    kinds = set()
    for poset in statement_posets(rng):
        names = [Name(())] + [make(rng, poset) for make in (random_name, repeating_name) for _ in range(3)]
        for name in names:
            lower = random_subset(rng)
            masks = value_masks(poset, name)
            stmt = ExistsSupersetInCover(name, lower)
            assert superset_mask(masks, lower) == atomwise_truth(poset, stmt)
            for other in names:
                stmt = RefinesName(name, other)
                mask = refinement_mask(poset, masks, value_masks(poset, other))
                assert mask == atomwise_truth(poset, stmt)
                kinds.add((len(name.pairs) == 0, mask == (1 << len(poset.atoms)) - 1))
    # empty finer names, and refinements that hold everywhere and that fail somewhere, all came up
    assert kinds == {(True, True), (False, True), (False, False)}


# -- the order closure against the breadth-first construction ----------------------


def reference_order(elements, leq_pairs) -> dict:
    """The frozenset breadth-first construction the mask closure replaced, verbatim
    apart from its variable names and returning its tables."""
    elements = list(elements)
    if not elements:
        raise DataError("poset needs at least one condition")
    if len(set(elements)) != len(elements):
        raise DataError("duplicate condition identifiers")
    _elements = tuple(elements)
    _pos = {p: i for i, p in enumerate(_elements)}
    below = {p: set() for p in _elements}
    for a, b in leq_pairs:
        if a not in _pos or b not in _pos:
            raise DataError(f"order pair mentions unknown condition: ({a!r}, {b!r})")
        below[b].add(a)
    down = {}
    for p in _elements:
        seen = {p}
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for r in below[q]:
                if r not in seen:
                    seen.add(r)
                    frontier.append(r)
        down[p] = frozenset(seen)
    for p in _elements:
        for q in down[p]:
            if q != p and p in down[q]:
                raise DataError(f"order is not antisymmetric: {p!r} and {q!r}")
    up = {p: set() for p in _elements}
    for p in _elements:
        for q in down[p]:
            up[q].add(p)
    up_sets = {p: frozenset(s) for p, s in up.items()}
    _atoms = tuple(p for p in _elements if len(down[p]) == 1)
    _atoms_set = frozenset(_atoms)
    atoms_under = {p: frozenset(a for a in down[p] if a in _atoms_set) for p in _elements}
    atom_bit = {a: 1 << j for j, a in enumerate(_atoms)}
    atom_mask = {p: sum(atom_bit[a] for a in atoms_under[p]) for p in _elements}
    down_mask = {p: sum(1 << _pos[q] for q in down[p]) for p in _elements}
    return {"down": down, "up": up_sets, "atoms": _atoms,
            "atom_mask": atom_mask, "down_mask": down_mask}


def random_order(rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """Acyclic pairs over a hidden order, with repeats and reflexive pairs, in a shuffled
    canonical order and shuffled pair order."""
    n = rng.randint(1, 12)
    hidden = [f"c{i}" for i in range(n)]
    pairs = [(hidden[j], hidden[i]) for j in range(n) for i in range(j) if rng.random() < 0.3]
    pairs += [(p, p) for p in hidden if rng.random() < 0.2]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    elements = hidden[:]
    rng.shuffle(elements)
    return elements, pairs


def assert_same_order(poset: Poset, ref: dict) -> None:
    assert poset.atoms == ref["atoms"]
    assert poset.atom_mask == ref["atom_mask"]
    assert poset.down_mask == ref["down_mask"]
    for p in poset.elements:
        assert poset.down(p) == ref["down"][p]
        assert poset.up(p) == ref["up"][p]


def test_order_closure_matches_the_breadth_first_reference():
    rng = random.Random(90210)
    for _ in range(60):
        elements, pairs = random_order(rng)
        assert_same_order(Poset.from_pairs(elements, pairs), reference_order(elements, pairs))
    for poset in (CohenPoset(range(3)).poset, MeasurePoset(2).poset):
        pairs = [(a, b) for b in poset.elements for a in poset.conditions_in(poset.down_mask[b]) if a != b]
        rng.shuffle(pairs)
        rebuilt = Poset.from_pairs(poset.elements, pairs)
        assert_same_order(rebuilt, reference_order(poset.elements, pairs))
        assert (rebuilt.down_mask, rebuilt.atom_mask) == (poset.down_mask, poset.atom_mask)


def test_order_closure_rejects_cycles_and_unknown_pairs_like_the_reference():
    rng = random.Random(5150)
    cycles = 0
    for _ in range(60):
        elements, pairs = random_order(rng)
        below = [(a, b) for a, b in pairs if a != b]
        if not below:
            continue
        a, b = rng.choice(below)
        # close a cycle through the chosen pair, directly or via the reversed pair
        for bad in (pairs + [(b, a)], pairs + [("ghost", rng.choice(elements))]):
            with pytest.raises(DataError) as ours:
                Poset.from_pairs(elements, bad)
            with pytest.raises(DataError) as theirs:
                reference_order(elements, bad)
            assert str(ours.value).split(":")[0] == str(theirs.value).split(":")[0]
        cycles += 1
    assert cycles > 20
    with pytest.raises(DataError, match="not antisymmetric: 'a' and 'b'"):
        Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


# -- structural orders against the literal-per-pair construction -----------------


def reference_cohen_pairs(indices) -> set:
    """The parent construction: format one literal per sub-assignment."""
    from endowlab.cohen import format_condition

    idx = sorted(set(indices))
    assignments = {}
    for size in range(len(idx) + 1):
        for support in combinations(idx, size):
            for values in product((0, 1), repeat=size):
                assignment = dict(zip(support, values))
                assignments[format_condition(assignment)] = assignment
    pairs = []
    for literal, assignment in assignments.items():
        support = sorted(assignment)
        for size in range(len(support)):
            for sub in combinations(support, size):
                pairs.append((literal, format_condition({i: assignment[i] for i in sub})))
    return set(pairs)


def reference_measure_pairs(k: int) -> set:
    """The parent construction: hash one frozenset cell per pair."""
    from endowlab.measure import format_cell

    points = tuple("".join(bits) for bits in product("01", repeat=k))
    cells = [frozenset(c) for size in range(len(points), 0, -1) for c in combinations(points, size)]
    literal = {c: format_cell(c) for c in cells}
    pairs = []
    for cell in cells:
        members = sorted(cell)
        for size in range(1, len(members)):
            for sub in combinations(members, size):
                pairs.append((literal[frozenset(sub)], literal[cell]))
    return set(pairs)


def assert_same_structure(poset: Poset, reference: Poset) -> None:
    assert poset.down_mask == reference.down_mask
    assert poset.atoms == reference.atoms
    assert poset.atom_mask == reference.atom_mask


@pytest.mark.parametrize("indices", [
    (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4), (2, 5, 7), (-3, 0, 4)])
def test_cohen_order_matches_the_literal_construction(indices):
    poset = CohenPoset(indices).poset
    assert_same_structure(poset, Poset.from_pairs(poset.elements, reference_cohen_pairs(indices)))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_measure_order_matches_the_cell_construction(k):
    poset = MeasurePoset(k).poset
    assert_same_structure(poset, Poset.from_pairs(poset.elements, reference_measure_pairs(k)))


# -- the compatibility table and its readers against the code they replaced -------


def test_compatible_masks_match_above_atoms_and_the_pairwise_definition():
    rng = random.Random(5772)
    explicit = [random_explicit_poset(rng) for _ in range(40)]
    assert sum(poset.self_least != (1 << len(poset)) - 1 for poset in explicit) > 5
    posets = [CohenPoset(range(d)).poset for d in range(1, 6)]
    posets += [MeasurePoset(k).poset for k in range(4)] + explicit
    for poset in posets:
        atom_mask = poset.atom_mask
        assert len(poset.compatible_masks) == len(poset)
        for p, row in zip(poset.elements, poset.compatible_masks):
            pairwise = sum(1 << j for j, q in enumerate(poset.elements) if atom_mask[p] & atom_mask[q])
            assert row == poset.above_atoms(atom_mask[p]) == pairwise, (poset.elements, p)
        assert poset.compatible_masks is poset.compatible_masks  # built once


def ref_derive_point_names(table: WitnessTable, space: FiniteSpace) -> tuple[PointName, ...]:
    """`derive_point_names` before it read `compatible_masks`, copied verbatim."""
    poset = table.poset
    elements, down_mask, atom_mask = poset.elements, poset.down_mask, poset.atom_mask
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
            bits = []
            rest = committed
            while rest:
                low = rest & -rest
                bits.append(low)
                rest &= ~(low | poset.above_atoms(atom_mask[elements[low.bit_length() - 1]]))
            members = tuple(elements[low.bit_length() - 1] for low in bits)
            if not poset.is_maximal_antichain(members):
                raise InvariantError(f"point {x!r}: greedy antichain is not maximal")
            greedy[committed] = members, bits
        antichain, bits = greedy[committed]
        chosen = []
        for p, bit in zip(antichain, bits):
            for u, mask in values:
                if mask & bit:
                    chosen.append((p, u))
                    break
        out.append(PointName(x, antichain, tuple(chosen)))
    return tuple(out)


def ref_approximate(
    table: WitnessTable, point_names: Sequence[PointName], family: EndowmentFamily,
) -> Approximation:
    """`approximate` before its per antichain work was done once per
    antichain, copied verbatim."""
    n = table.level
    extracted: dict[frozenset[Condition], frozenset[Condition]] = {}
    entries = []
    pieces = []
    for pn in sorted(point_names, key=lambda pn: pn.point):
        antichain = frozenset(pn.antichain)
        if antichain not in extracted:
            extracted[antichain] = family.extract(n, antichain)
        chosen = extracted[antichain]
        if not chosen:
            raise InvariantError(f"family extraction for point {pn.point!r} is empty")
        if not chosen <= antichain:
            raise InvariantError(f"family extraction for point {pn.point!r} leaves the antichain")
        used = tuple(sorted(chosen, key=table.poset.sort_key))
        values = dict(pn.values)
        piece = frozenset.intersection(*(values[p] for p in used))
        entries.append((pn.point, used, piece))
        pieces.append(piece)
    return Approximation(n, tuple(entries), sorted_sets(pieces))


def ref_dow_construct(cohen: CohenPoset, antichain: Iterable[Condition], n: int) -> tuple:
    """`dow_construct` before its claims pass read `compatible_masks`,
    copied verbatim apart from returning its trace's (seed, stages, result)
    as a plain tuple (see `traced`)."""
    poset = cohen.poset
    by_canon = sorted(antichain, key=poset.sort_key)
    atom_mask, above_atoms = poset.atom_mask, poset.above_atoms
    support_mask, within_mask = cohen.support_mask, cohen.within_mask

    claims: list[tuple[Condition, int]] = []
    rest = (1 << len(poset)) - 1  # positions not yet claimed
    for a in by_canon:
        compatible = above_atoms(atom_mask[a])
        claims.append((a, rest & compatible))
        rest &= ~compatible
    seed = by_canon[0]
    chosen = [seed]
    pending = claims[1:]  # the elements not yet kept, with their claims
    support = support_mask[seed]
    stages = [DowStage((), (seed,), cohen.indices_in(support))]
    for stage in range(1, n + 1):
        handled = within_mask[support]
        met: list[tuple[int, Condition]] = []
        waiting: list[tuple[Condition, int]] = []
        for a, claim in pending:
            if mine := claim & handled:
                met.append((mine & -mine, a))
            else:
                waiting.append((a, claim))
        pending = waiting
        before = support
        if met:
            met.sort()
            added = tuple(a for _, a in met)
            chosen.extend(added)
            for a in added:
                support |= support_mask[a]
        else:
            added = ()
        stages.append(DowStage(cohen.within(before), added, cohen.indices_in(support)))
        if support == before:
            stages.extend([DowStage(stages[-1].handled, (), stages[-1].support)] * (n - stage))
            break
    return seed, tuple(stages), frozenset(chosen)


class PriorTrace(NamedTuple):
    seed: Condition
    stages: tuple[DowStage, ...]
    result: frozenset[Condition]


def prior_dow_construct(cohen: CohenPoset, antichain: Iterable[Condition], n: int) -> PriorTrace:
    """`dow_construct` before it built its stage records on demand, copied
    verbatim apart from returning a `PriorTrace`."""
    poset = cohen.poset
    elements, compatible = poset.elements, poset.compatible_masks
    support_mask, within_mask = cohen.support_mask, cohen.within_mask

    claims: list[tuple[Condition, int]] = []
    rest = (1 << len(poset)) - 1  # positions not yet claimed
    for i in sorted(map(poset.sort_key, antichain)):
        claims.append((elements[i], rest & compatible[i]))
        rest &= ~compatible[i]
    seed = claims[0][0]
    chosen = [seed]
    pending = claims[1:]  # the elements not yet kept, with their claims
    support = support_mask[seed]
    stages = [DowStage((), (seed,), cohen.indices_in(support))]
    for stage in range(1, n + 1):
        handled = within_mask[support]
        met: list[tuple[int, Condition]] = []
        waiting: list[tuple[Condition, int]] = []
        for a, claim in pending:
            if mine := claim & handled:
                met.append((mine & -mine, a))
            else:
                waiting.append((a, claim))
        pending = waiting
        before = support
        if met:
            met.sort()
            added = tuple(a for _, a in met)
            chosen.extend(added)
            for a in added:
                support |= support_mask[a]
        else:
            added = ()
        stages.append(DowStage(cohen.within(before), added, cohen.indices_in(support)))
        if support == before:
            stages.extend([DowStage(stages[-1].handled, (), stages[-1].support)] * (n - stage))
            break
    return PriorTrace(seed, tuple(stages), frozenset(chosen))


def traced(trace: DowTrace) -> tuple:
    """A trace as (seed, stages, result), the stages built on demand."""
    return trace.seed, trace.stages, trace.result


@pytest.mark.parametrize("width", [1, 2, 3])
def test_staged_construction_matches_the_prior_loop_on_every_small_antichain(width):
    # every maximal antichain of Cohen D <= 3 and every n up to 8, past each
    # fixed point: the result the extractor reads, and the records `dow` prints
    c = CohenPoset(range(width))
    antichains = c.poset.maximal_antichains()
    stopped = 0
    for antichain in antichains:
        for n in range(9):
            trace, prior = dow_construct(c, antichain, n), prior_dow_construct(c, antichain, n)
            assert trace.result == prior.result, (sorted(antichain), n)
            assert traced(trace) == tuple(prior), (sorted(antichain), n)
            stopped += len(trace.supports) < n + 1
    assert len(antichains) > 100 or width < 3
    assert stopped  # some run stopped at a fixed point


LIMIT_LEVELS = 8


def limit_names(rng: random.Random, poset: Poset, points: str) -> tuple[list[frozenset[str]], list[Name]]:
    """A subbase of random sets over the points, the whole space among them,
    and one cover name per level, at the program's default limits: every
    member of a random maximal antichain commits every point into a random
    subbase set holding it."""
    base = {frozenset(points)} | {frozenset(x for x in points if rng.random() < 0.5) for _ in range(11)}
    base = sorted_sets(b for b in base if b)
    names = []
    for _ in range(LIMIT_LEVELS):
        antichain = sorted(poset.random_maximal_antichain(rng), key=poset.sort_key)
        names.append(Name.canonical(
            (q, rng.choice([b for b in base if x in b])) for q in antichain for x in points))
    return list(base), names


def counting(family: EndowmentFamily, calls: list) -> EndowmentFamily:
    def extract(n, antichain):
        calls.append(antichain)
        return family.extract(n, antichain)
    return family._replace(extract=extract)


def assert_cover_steps_match(poset, strat, space, name, families, n) -> list[PointName]:
    """The point names and, under each family, the approximation at level n
    equal the references', with the same extractor calls."""
    table = WitnessTable(poset, strat, n, name)
    pns = derive_point_names(table, space)
    assert pns == ref_derive_point_names(table, space)
    for family in families:
        calls, ref_calls = [], []
        assert (approximate(table, space, counting(family, calls))
                == ref_approximate(table, pns, counting(family, ref_calls)))
        assert calls == ref_calls
    return pns


@pytest.mark.parametrize("kind", ["cohen", "measure"])
def test_cover_name_steps_match_the_replaced_code_on_limit_scenarios(kind):
    if kind == "cohen":
        model, points = CohenPoset(range(5)), "xyz"
        strat = model.stratification()
        family = cohen_dow_family(model, strat)
    else:
        model, points = MeasurePoset(3), "xyzuv"
        strat = model.stratification()
        family = measure_total_family(model)
    poset = model.poset
    space_rng = random.Random(kind)
    traces = 0
    for index in range(6):
        rng = random.Random(f"{kind}:{index}")
        base, names = limit_names(rng, poset, points)
        space = FiniteSpace(list(points), base)
        for n, name in enumerate(names):
            pns = assert_cover_steps_match(poset, strat, space, name, [family], n)
            if kind == "cohen":
                antichains = {pn.antichain for pn in pns}
                antichains.add(tuple(poset.random_maximal_antichain(space_rng)))
                for antichain in antichains:
                    for stage in range(7):
                        assert traced(dow_construct(model, antichain, stage)) == ref_dow_construct(
                            model, antichain, stage)
                        traces += 1
    if kind == "cohen":
        assert traces > 6 * LIMIT_LEVELS * 7  # a point antichain and a drawn one per level


def test_cover_name_steps_match_the_replaced_code_on_explicit_posets():
    rng = random.Random(1414)
    space = FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"], ["x", "y"], ["x", "y", "z"]])
    base = [frozenset(b) for b in space.base]
    explicit = [random_explicit_poset(rng) for _ in range(40)]
    assert sum(poset.self_least != (1 << len(poset)) - 1 for poset in explicit) > 5
    invalid = 0
    for poset in explicit:
        strat = random_stratification(rng, poset)
        families = [maximal_antichain_family(poset), adversarial_singleton_family(poset)]
        for n in range(len(strat.masks)):
            a, b = (sorted(poset.random_maximal_antichain(rng), key=poset.sort_key) for _ in range(2))
            cover = [(q, rng.choice([u for u in base if x in u])) for q in a for x in "xyz"]
            split = [(q, {x}) for q in a for x in "xz"] + [(q, {"y"}) for q in b]
            for pairs in (cover, split, cover[:-1]):
                name = Name.canonical(pairs)
                try:
                    ref_derive_point_names(WitnessTable(poset, strat, n, name), space)
                except DataError as exc:
                    invalid += 1
                    with pytest.raises(DataError, match=re.escape(str(exc))):
                        derive_point_names(WitnessTable(poset, strat, n, name), space)
                else:
                    assert_cover_steps_match(poset, strat, space, name, families, n)
    assert invalid > 0  # some names dropped a needed pair


def test_approximate_extracts_once_per_distinct_antichain_whatever_the_commitment_masks():
    # y is committed below 1:0 too, which x is not, so the two points have
    # different commitment masks; the greedy scan drops 1:0, compatible with
    # both members of {0:0, 0:1}, so both get that antichain, extracted once
    c = CohenPoset(range(3))
    space = FiniteSpace(["x", "y"], [["x"], ["y"], ["x", "y"]])
    name = Name.canonical([(q, {x}) for q in ("0:0", "0:1") for x in "xy"] + [("1:0", {"y"})])
    table = WitnessTable(c.poset, c.stratification(), 2, name)
    masks = {x: sum(table.reach[u] for u in table.reach if x in u) for x in "xy"}
    assert masks["x"] != masks["y"]
    assert [pn.antichain for pn in derive_point_names(table, space)] == [("0:0", "0:1")] * 2
    family = cohen_dow_family(c, c.stratification())
    calls = []
    approx = approximate(table, space, counting(family, calls))
    assert calls == [frozenset({"0:0", "0:1"})]
    assert approx == ref_approximate(table, derive_point_names(table, space), family)
