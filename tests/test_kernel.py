"""The bitmask kernel against frozenset references.

The pipeline's forcing masks (`superset_mask`, `refinement_mask`,
`forcing_mask`), the witness lookup of `level_witnesses` and the
compatibility and antichain helpers read atom and down-set masks;
`forces`, `forces_dense`, the brute-force witness and the pairwise
antichain references below read only frozenset down-sets, so they share no
logic with the kernel.  The witness runs and refined names, read off the
self-least and level masks, are checked against verbatim copies of the
per-condition scans they replaced."""

import random
from itertools import combinations, product

import pytest

from endowlab.cohen import CohenPoset
from endowlab.errors import DataError
from endowlab.measure import MeasurePoset
from endowlab.canon import sorted_sets
from endowlab.names import WitnessTable, forcing_mask, level_witnesses, refine_name
from endowlab.poset import (
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
            expected = all(statement_holds_at(poset, stmt, a) for a in poset.atoms if poset.leq(a, p))
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
        for n in range(len(strat.levels)):
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
