"""Rims of upper sets: encoding, closure, enumeration, mutation, exchange."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings

from toricnccr import (
    NotMinimal,
    Rim,
    RimStatus,
    entry_index,
    exchange_graph,
    grading_context,
    in_upper_set,
    is_mutation_step,
    is_nccr,
    make_rim,
    minimal_elements,
    mutate,
    normalize,
    preimage_summands,
    rim_of_upper_closure,
    rim_status,
    translation_classes,
)
from conftest import EXPECTED_CLASS_COUNTS, ladder_context, rank_one_systems

def els(ctx, *free_parts):
    return [ctx.element(f) for f in free_parts]


def translation_classes_by_scan(ctx):
    """Class oracle: a windowed product scan, independent of the
    difference-constraint solver in ``translation_classes``.

    Pins the orbit of zero at the zero element and confines every other
    orbit's shift to the window where neither domination against zero is
    automatic (outside it, the difference's free part clears the conductor),
    with one unit of slack on each side.  The product is filtered by the full
    pairwise rim condition, then normalized.  A class whose rim has
    stabilizer S is hit once per rim element up to S, i.e. ``orbit_count /
    |S|`` times, which gives the stabilizer order.  Returns ``{serialized
    canonical rim: stabilizer order}``.
    """
    p = ctx.p
    pf = p.free
    cmax = ctx.max_conductor
    anchor = ctx.group.zero()
    others = [r for r in ctx.orbit_reps() if not r.is_zero()]
    windows = []
    for rep in others:
        lo = (-rep.free - cmax) // pf - 1
        hi = -((rep.free - cmax) // pf) + 1
        windows.append([rep + n * p for n in range(lo, hi + 1)])
    hits = Counter()
    for combo in product(*windows):
        elems = (anchor,) + combo
        if not any(ctx.member(x - y - p) for x in elems for y in elems):
            canon = normalize(ctx, Rim(tuple(sorted(elems, key=lambda e: e.key())), True))
            hits[canon.serialized()] += 1
    assert all(ctx.orbit_count % h == 0 for h in hits.values())
    return {key: ctx.orbit_count // h for key, h in hits.items()}


def assert_classes_match_scan(ctx):
    fast = {cls.rim.serialized(): cls.stabilizer_order for cls in translation_classes(ctx)}
    assert fast == translation_classes_by_scan(ctx)


def mutation_closure(ctx):
    """Canonical rims reachable by mutation from the upper closure of zero."""
    start = normalize(ctx, rim_of_upper_closure(ctx, [ctx.group.zero()]))
    seen = {start.serialized()}
    frontier = [start]
    while frontier:
        rim = frontier.pop()
        for m in minimal_elements(ctx, rim):
            nxt = normalize(ctx, mutate(ctx, rim, m))
            if nxt.serialized() not in seen:
                seen.add(nxt.serialized())
                frontier.append(nxt)
    return seen


def assert_graph_is_mutation_closure(ctx):
    """Connected exchange graph, NCCR classes, and no class beyond mutation's reach."""
    graph = exchange_graph(ctx)
    assert graph.connected
    assert {node.rim.serialized() for node in graph.nodes} == mutation_closure(ctx)
    for node in graph.nodes:
        assert is_nccr(ctx, preimage_summands(ctx, node.rim))


class TestRimStatus:
    def test_complete(self, a1):
        assert rim_status(a1, els(a1, 0, 1)).status is RimStatus.COMPLETE

    def test_invalid_with_witness(self, a1):
        check = rim_status(a1, els(a1, 0, 2))
        assert check.status is RimStatus.INVALID
        assert check.witness == (a1.element(2), a1.element(0))

    def test_singleton_partial(self, a1):
        assert rim_status(a1, els(a1, 0)).status is RimStatus.PARTIAL

    def test_make_rim_rejects_invalid(self, a1):
        with pytest.raises(ValueError):
            make_rim(a1, els(a1, 0, 2))


class TestUpperMembership:
    def test_ca4_closure_of_zero(self, ca4):
        rim = make_rim(ca4, els(ca4, 0))
        assert in_upper_set(ca4, rim, ca4.element(5))
        assert not in_upper_set(ca4, rim, ca4.element(1))

    def test_rim_elements_are_members(self, ca4):
        rim = make_rim(ca4, els(ca4, 0, 1))
        for e in rim:
            assert in_upper_set(ca4, rim, e)


class TestEntryIndex:
    def test_a1_thresholds(self, a1):
        rim = make_rim(a1, els(a1, 0))
        assert entry_index(a1, rim, a1.element(5)) == -2
        assert entry_index(a1, rim, a1.element(0)) == 0

    def test_ca4_threshold(self, ca4):
        rim = make_rim(ca4, els(ca4, 0))
        assert entry_index(ca4, rim, ca4.element(1)) == 1

    def test_characterizes_membership(self, ctx):
        rng = random.Random(21)
        gens = ctx.sample_elements(2, rng, span=4)
        rim = rim_of_upper_closure(ctx, gens)
        for x in ctx.sample_elements(40, rng, span=4):
            n0 = entry_index(ctx, rim, x)
            for n in range(n0 - 2, n0 + 3):
                assert in_upper_set(ctx, rim, x + n * ctx.p) == (n >= n0)


class TestUpperClosure:
    def test_ca4_golden_rims(self, ca4):
        assert [e.free for e in rim_of_upper_closure(ca4, els(ca4, 0))] == [0, 2, 3, 4, 6]
        assert [e.free for e in rim_of_upper_closure(ca4, els(ca4, 0, 1))] == [0, 1, 2, 3, 4]

    def test_a1_golden_rim(self, a1):
        assert [e.free for e in rim_of_upper_closure(a1, els(a1, 0))] == [0, 1]

    def test_roundtrip_random(self, ctx):
        rng = random.Random(f"roundtrip-{ctx.group}")
        for _ in range(200):
            gens = ctx.sample_elements(rng.randint(1, 3), rng, span=5)
            rim = rim_of_upper_closure(ctx, gens)
            assert rim_status(ctx, rim.elements).status is RimStatus.COMPLETE
            again = rim_of_upper_closure(ctx, rim.elements)
            assert again.elements == rim.elements
            for s in gens:
                assert in_upper_set(ctx, rim, s)


class TestMinimalElements:
    def test_a1(self, a1):
        assert minimal_elements(a1, make_rim(a1, els(a1, 0, 1))) == (a1.element(0),)

    def test_ca4(self, ca4):
        full = make_rim(ca4, els(ca4, 0, 1, 2, 3, 4))
        assert [m.free for m in minimal_elements(ca4, full)] == [0, 1]
        sparse = make_rim(ca4, els(ca4, 0, 2, 3, 4, 6))
        assert [m.free for m in minimal_elements(ca4, sparse)] == [0]


class TestMutation:
    def test_ca4_swap(self, ca4):
        full = make_rim(ca4, els(ca4, 0, 1, 2, 3, 4))
        mutated = mutate(ca4, full, ca4.element(1))
        assert [e.free for e in mutated] == [0, 2, 3, 4, 6]

    def test_a1_shift(self, a1):
        rim = make_rim(a1, els(a1, 0, 1))
        mutated = mutate(a1, rim, a1.element(0))
        assert [e.free for e in mutated] == [1, 2]
        assert normalize(a1, mutated).elements == rim.elements

    def test_not_minimal_rejected(self, ca4):
        full = make_rim(ca4, els(ca4, 0, 1, 2, 3, 4))
        with pytest.raises(NotMinimal):
            mutate(ca4, full, ca4.element(3))

    def test_bookkeeping(self, ctx):
        rng = random.Random(f"mutation-{ctx.group}")
        for _ in range(40):
            gens = ctx.sample_elements(rng.randint(1, 3), rng, span=4)
            rim = rim_of_upper_closure(ctx, gens)
            for m in minimal_elements(ctx, rim):
                mutated = mutate(ctx, rim, m)
                removed = set(rim.elements) - set(mutated.elements)
                added = set(mutated.elements) - set(rim.elements)
                assert removed == {m}
                assert added == {m + ctx.p}
                assert rim_status(ctx, mutated.elements).status is RimStatus.COMPLETE
                assert not in_upper_set(ctx, mutated, m)
                for e in rim:
                    if e != m:
                        assert in_upper_set(ctx, mutated, e)

    def test_translation_equivariance(self, ctx):
        rng = random.Random(f"equivariance-{ctx.group}")
        for _ in range(25):
            gens = ctx.sample_elements(2, rng, span=4)
            rim = rim_of_upper_closure(ctx, gens)
            h = ctx.sample_elements(1, rng, span=4)[0]
            for m in minimal_elements(ctx, rim):
                left = mutate(ctx, rim.translate(h), m + h)
                right = mutate(ctx, rim, m).translate(h)
                assert left.elements == right.elements


class TestHasseStep:
    def test_mutation_is_step(self, ca4):
        full = make_rim(ca4, els(ca4, 0, 1, 2, 3, 4))
        sparse = make_rim(ca4, els(ca4, 0, 2, 3, 4, 6))
        assert is_mutation_step(ca4, full, sparse)

    def test_identity_is_not_step(self, ca4):
        full = make_rim(ca4, els(ca4, 0, 1, 2, 3, 4))
        assert not is_mutation_step(ca4, full, full)

    def test_translated_target_is_not_raw_step(self, ca4):
        full = make_rim(ca4, els(ca4, 0, 1, 2, 3, 4))
        translated = make_rim(ca4, els(ca4, 5, 7, 8, 9, 11))
        assert not is_mutation_step(ca4, full, translated)


class TestTranslationClasses:
    def test_expected_counts(self, system_key, ctx):
        assert len(translation_classes(ctx)) == EXPECTED_CLASS_COUNTS[system_key]

    def test_canonical_form_idempotent(self, ctx):
        for cls in translation_classes(ctx):
            assert normalize(ctx, cls.rim).elements == cls.rim.elements

    def test_each_class_has_orbit_count_elements(self, ctx):
        for cls in translation_classes(ctx):
            assert len(cls.rim) == ctx.orbit_count

    def test_brute_force_completeness(self, system_key, ctx):
        # independent enumeration: pin the orbit of zero at zero, give every
        # other orbit a generous shift box, keep the sets passing the rim
        # condition, and compare translation classes.  Any element of a rim
        # through zero has |free part| < conductor + free(p), which caps the
        # shifts.
        span = (ctx.max_conductor + ctx.p.free) // ctx.p.free + 1
        others = [r for r in ctx.orbit_reps() if not r.is_zero()]
        shift_range = range(-span, span + 1)
        found = set()
        for shifts in product(shift_range, repeat=len(others)):
            elems = [ctx.group.zero()] + [
                rep + n * ctx.p for rep, n in zip(others, shifts)
            ]
            if rim_status(ctx, elems).status is RimStatus.COMPLETE:
                canon = normalize(ctx, Rim(tuple(sorted(elems, key=lambda e: e.key())), True))
                found.add(canon.serialized())
        expected = {cls.rim.serialized() for cls in translation_classes(ctx)}
        assert found == expected


class TestScanOracle:
    def test_fixtures(self, ctx):
        assert_classes_match_scan(ctx)

    @pytest.mark.parametrize("key", ["w2357", "w2525"])
    def test_ladder(self, key):
        assert_classes_match_scan(ladder_context(key))


class TestRandomSystems:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=3))
    def test_enumeration_matches_scan(self, ws):
        ctx = grading_context(ws)
        assume(ctx.orbit_count <= 6)
        assert_classes_match_scan(ctx)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems())
    def test_classes_are_the_mutation_closure(self, ws):
        ctx = grading_context(ws)
        assume(ctx.orbit_count <= 12)
        assert_graph_is_mutation_closure(ctx)


class TestLadder:
    """Systems too large for the scan oracle in a unit test: w3535's count is
    the scan's, the other two were found by mutation BFS."""

    @pytest.mark.parametrize(
        "key,orbits,count", [("w3535", 8, 7), ("w4577", 11, 8), ("w40", 41, 1)]
    )
    def test_classes(self, key, orbits, count):
        ctx = ladder_context(key)
        assert ctx.orbit_count == orbits
        assert len(translation_classes(ctx)) == count
        assert_graph_is_mutation_closure(ctx)


class TestExchangeGraph:
    def test_a1_single_self_loop(self, a1):
        graph = exchange_graph(a1)
        assert len(graph.nodes) == 1
        assert all(a == b for a, b, _ in graph.edges)
        assert graph.connected

    def test_ca4_classes_joined_by_single_mutation(self, ca4):
        graph = exchange_graph(ca4)
        assert len(graph.nodes) == 2
        cross = [(a, b) for a, b, _ in graph.edges if a != b]
        assert (0, 1) in cross and (1, 0) in cross
        assert graph.connected

    def test_connected_everywhere(self, ctx):
        assert exchange_graph(ctx).connected

    def test_every_node_and_minimal_element_has_edge(self, ctx):
        graph = exchange_graph(ctx)
        for i, node in enumerate(graph.nodes):
            expected = len(minimal_elements(ctx, node.rim))
            assert sum(1 for a, _, _ in graph.edges if a == i) == expected
