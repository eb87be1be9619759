"""Selection solvers: canonical outputs, floor semantics, brute force
optimality oracles, and unsolvable problems."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endowlab.canon import family_key
from endowlab.errors import DataError
from endowlab.selection import (
    EXACT_MENGER_POOL,
    _least_selection,
    check_menger,
    check_rothberger,
    check_screenability,
    check_selection,
    make_selection_problem,
    menger_select,
    rothberger_select,
    screenability_select,
    solve_selection,
)
from endowlab.topology import FiniteSpace


def pair_space():
    return FiniteSpace(["x", "y"], [["x"], ["x", "y"]])


def triple_space():
    return FiniteSpace(["x", "y", "z"], [["x"], ["y"], ["z"]])


def test_problem_validation():
    s = pair_space()
    with pytest.raises(DataError):
        make_selection_problem(s, [], 0, "rothberger")
    with pytest.raises(DataError):
        make_selection_problem(s, [[frozenset({"x"})]], 0, "rothberger")  # not a cover
    with pytest.raises(DataError):
        make_selection_problem(s, [[frozenset({"y"})]], 0, "rothberger")  # not open
    with pytest.raises(DataError):
        make_selection_problem(s, [[frozenset({"x", "y"})]], 0, "nope")


def test_rothberger_canonical_solution():
    s = pair_space()
    cover = [frozenset({"x"}), frozenset({"x", "y"})]
    problem = make_selection_problem(s, [cover, cover, cover], 2, "rothberger")
    picks = rothberger_select(problem)
    # below the floor the least member is fixed; at the floor the big set wins
    assert picks == (frozenset({"x"}), frozenset({"x"}), frozenset({"x", "y"}))
    assert check_rothberger(problem, picks) == (True, None)


def test_rothberger_needs_level_at_floor():
    s = pair_space()
    cover = [frozenset({"x", "y"})]
    problem = make_selection_problem(s, [cover, cover], 2, "rothberger")
    assert rothberger_select(problem) is None


def test_rothberger_one_pick_per_level_can_fail():
    s = triple_space()
    cover = [frozenset({"x"}), frozenset({"y"}), frozenset({"z"})]
    # one level above the floor cannot cover three points with one pick
    problem = make_selection_problem(s, [cover], 0, "rothberger")
    assert rothberger_select(problem) is None
    # three levels suffice
    problem = make_selection_problem(s, [cover, cover, cover], 0, "rothberger")
    picks = rothberger_select(problem)
    assert picks == (frozenset({"x"}), frozenset({"y"}), frozenset({"z"}))


def test_rothberger_floor_excludes_early_picks():
    s = pair_space()
    cover_small = [frozenset({"x"}), frozenset({"x", "y"})]
    problem = make_selection_problem(s, [cover_small, cover_small], 1, "rothberger")
    picks = rothberger_select(problem)
    assert picks is not None
    ok, _ = check_rothberger(problem, picks)
    assert ok
    # picks below the floor cannot be the covering witness
    bad = (frozenset({"x", "y"}), frozenset({"x"}))
    ok, reason = check_rothberger(problem, bad)
    assert not ok and "floor" in reason


def brute_rothberger(problem):
    """The lexicographically least pick sequence, canonical order per level."""
    for combo in product(*problem.covers):
        hit = frozenset().union(
            *(u for i, u in enumerate(combo) if i >= problem.floor), frozenset())
        if problem.space.points <= hit:
            return combo
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rothberger_agrees_with_brute_force_on_solvability(data):
    points = ["x", "y", "z"]
    space = FiniteSpace(points, [["x"], ["y"], ["z"], ["x", "y"], ["y", "z"], ["x", "y", "z"]])
    opens = [v for v in space.opens if v]
    n_levels = data.draw(st.integers(min_value=1, max_value=4))
    floor = data.draw(st.integers(min_value=0, max_value=n_levels - 1))
    level_covers = []
    for _ in range(n_levels):
        members = data.draw(st.sets(st.sampled_from(opens), min_size=1, max_size=4))
        missing = frozenset(points).difference(*members)
        members = set(members) | {frozenset({x}) for x in missing}  # keep it a cover
        level_covers.append(sorted(members, key=sorted))
    problem = make_selection_problem(space, level_covers, floor, "rothberger")
    got = rothberger_select(problem)
    assert got == brute_rothberger(problem)
    if got is not None:
        assert check_rothberger(problem, got) == (True, None)


def test_least_selection_is_the_first_product_solution():
    # five points and up to six levels reach states the solvers' own tests
    # do not: the memo of failed (level, uncovered) states must never skip
    # a state that could still succeed
    rng = random.Random(1)
    points = frozenset("abcde")
    for _ in range(600):
        options = [
            [(j, frozenset(x for x in sorted(points) if rng.random() < 0.3))
             for j in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 6))
        ]
        expect = next(
            (tuple(pick for pick, _ in combo) for combo in product(*options)
             if points <= frozenset().union(*(gain for _, gain in combo))),
            None,
        )
        assert _least_selection(points, options) == expect, options


def test_menger_minimizes_total_size():
    s = triple_space()
    cover = [frozenset({"x"}), frozenset({"y"}), frozenset({"z"})]
    problem = make_selection_problem(s, [cover, cover], 0, "menger")
    families = menger_select(problem)
    assert families is not None
    total = sum(len(f) for f in families)
    assert total == 3  # no smaller cover exists from singletons
    assert check_menger(problem, families) == (True, None)


def test_menger_prefers_single_big_set():
    s = pair_space()
    cover = [frozenset({"x"}), frozenset({"x", "y"})]
    problem = make_selection_problem(s, [cover, cover, cover], 2, "menger")
    families = menger_select(problem)
    assert families == ((), (), (frozenset({"x", "y"}),))


def test_menger_respects_floor():
    s = pair_space()
    cover = [frozenset({"x"}), frozenset({"x", "y"})]
    problem = make_selection_problem(s, [cover], 1, "menger")
    assert menger_select(problem) is None


def brute_menger_minimum(problem):
    pool = [(i, u) for i in range(problem.floor, len(problem.covers)) for u in problem.covers[i]]
    best = None
    for mask in range(1 << len(pool)):
        chosen = [pool[j] for j in range(len(pool)) if mask >> j & 1]
        hit = frozenset().union(*(u for _, u in chosen)) if chosen else frozenset()
        if problem.space.points <= hit:
            size = len(chosen)
            if best is None or size < best:
                best = size
    return best


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_menger_exact_minimum_matches_brute_force(data):
    points = ["x", "y", "z"]
    space = FiniteSpace(points, [["x"], ["y"], ["z"], ["x", "y"], ["y", "z"], ["x", "y", "z"]])
    opens = [v for v in space.opens if v]
    n_levels = data.draw(st.integers(min_value=1, max_value=2))
    floor = data.draw(st.integers(min_value=0, max_value=n_levels - 1))
    level_covers = []
    for _ in range(n_levels):
        members = data.draw(st.sets(st.sampled_from(opens), min_size=1, max_size=3))
        members = set(members) | {frozenset(points)}
        level_covers.append(sorted(members, key=sorted))
    problem = make_selection_problem(space, level_covers, floor, "menger")
    families = menger_select(problem)
    assert families is not None
    assert sum(len(f) for f in families) == brute_menger_minimum(problem)
    assert check_menger(problem, families) == (True, None)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_menger_greedy_path_covers_pools_above_the_exact_limit(data):
    points = "abcde"
    space = FiniteSpace(points, [[x] for x in points])  # discrete: every set is open
    opens = [v for v in space.opens if v]
    floor = data.draw(st.integers(min_value=0, max_value=1))
    total = data.draw(st.integers(min_value=EXACT_MENGER_POOL + 1, max_value=20))
    first = data.draw(st.integers(min_value=1, max_value=total - 1))
    level_covers = [[frozenset(points)]] * floor
    for size in (first, total - first):
        members = data.draw(st.lists(st.sampled_from(opens), min_size=size, max_size=size, unique=True))
        # the last member takes whatever the others leave uncovered, so each
        # level stays a cover of exactly `size` distinct members
        missing = frozenset(points).difference(*members[:-1])
        if missing:
            members[-1] = missing
        level_covers.append(members)
    problem = make_selection_problem(space, level_covers, floor, "menger")
    assert sum(len(level) for level in problem.covers[floor:]) == total
    families = menger_select(problem)
    assert check_menger(problem, families) == (True, None)


def test_screenability_prefers_one_big_disjoint_family():
    s = FiniteSpace(["x", "y"], [["x"], ["y"], ["x", "y"]])
    cover = [frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]
    problem = make_selection_problem(s, [cover], 0, "selective-screenability")
    families = screenability_select(problem)
    # single member family beats the two singleton family in canonical order
    assert families == ((frozenset({"x", "y"}),),)
    assert check_screenability(problem, families) == (True, None)


def test_screenability_spreads_across_levels_when_disjointness_bites():
    # {z} is not open here, so no single level admits a disjoint cover
    s = FiniteSpace(["x", "y", "z"], [["x", "y"], ["y", "z"]])
    cover = [frozenset({"x", "y"}), frozenset({"y", "z"})]
    problem = make_selection_problem(s, [cover], 0, "selective-screenability")
    assert screenability_select(problem) is None
    problem = make_selection_problem(s, [cover, cover], 0, "selective-screenability")
    families = screenability_select(problem)
    assert families is not None
    assert check_screenability(problem, families) == (True, None)
    hit = frozenset().union(*(v for fam in families for v in fam))
    assert hit == s.points


def test_screenability_members_must_refine():
    s = FiniteSpace(["x", "y"], [["x"], ["y"], ["x", "y"]])
    cover = [frozenset({"x"}), frozenset({"y"})]
    problem = make_selection_problem(s, [cover], 0, "selective-screenability")
    families = screenability_select(problem)
    # {x, y} is open but refines no cover member, so two singletons it is
    assert families == ((frozenset({"x"}), frozenset({"y"})),)
    ok, reason = check_screenability(problem, [(frozenset({"x", "y"}),)])
    assert not ok and "refines" in reason


def brute_screenability(problem):
    """The lexicographically least family sequence: below the floor only the
    empty family, at or above it every pairwise disjoint family of nonempty
    opens inside a cover member, ordered by size and then member keys."""
    opens = [v for v in problem.space.opens if v]
    options = []
    for i, cover in enumerate(problem.covers):
        if i < problem.floor:
            options.append([()])
            continue
        candidates = [v for v in opens if any(v <= u for u in cover)]
        families = [
            fam for size in range(len(candidates) + 1)
            for fam in combinations(candidates, size)
            if all(a.isdisjoint(b) for a, b in combinations(fam, 2))
        ]
        options.append(sorted(families, key=lambda fam: (len(fam), family_key(fam))))
    for combo in product(*options):
        hit = frozenset().union(*(v for fam in combo[problem.floor:] for v in fam))
        if problem.space.points <= hit:
            return combo
    return None


SCREENABILITY_SPACES = (
    [["x"], ["y"], ["z"]],
    [["x", "y"], ["y", "z"]],
    [["x"], ["x", "y"], ["y", "z"]],
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_screenability_agrees_with_brute_force(data):
    points = ["x", "y", "z"]
    space = FiniteSpace(points, data.draw(st.sampled_from(SCREENABILITY_SPACES)))
    opens = [v for v in space.opens if v]
    n_levels = data.draw(st.integers(min_value=1, max_value=4))
    floor = data.draw(st.integers(min_value=0, max_value=n_levels))
    level_covers = []
    for _ in range(n_levels):
        members = data.draw(st.sets(st.sampled_from(opens), min_size=1, max_size=3))
        members = set(members) | set(space.base)  # keep it a cover
        level_covers.append(sorted(members, key=sorted))
    problem = make_selection_problem(space, level_covers, floor, "selective-screenability")
    got = screenability_select(problem)
    assert got == brute_screenability(problem)
    if got is not None:
        assert check_screenability(problem, got) == (True, None)


def test_check_screenability_rejects_overlap_and_empty():
    s = FiniteSpace(["x", "y"], [["x"], ["y"], ["x", "y"]])
    cover = [frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})]
    problem = make_selection_problem(s, [cover], 0, "selective-screenability")
    ok, reason = check_screenability(problem, [(frozenset({"x"}), frozenset({"x", "y"}))])
    assert not ok and "overlap" in reason
    ok, reason = check_screenability(problem, [(frozenset(),)])
    assert not ok and "empty" in reason


def test_solver_dispatch_and_check_dispatch():
    s = pair_space()
    cover = [frozenset({"x"}), frozenset({"x", "y"})]
    for mode in ("rothberger", "menger", "selective-screenability"):
        problem = make_selection_problem(s, [cover], 0, mode)
        solution = solve_selection(problem)
        assert solution is not None
        assert check_selection(problem, solution) == (True, None)


def test_solutions_are_deterministic():
    s = triple_space()
    cover = [frozenset({"x"}), frozenset({"y"}), frozenset({"z"})]
    for mode in ("rothberger", "menger", "selective-screenability"):
        problem = make_selection_problem(s, [cover, cover, cover], 0, mode)
        assert solve_selection(problem) == solve_selection(problem)
