"""Rims of upper sets: encoding, closure, enumeration, mutation, exchange."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings

import toricnccr.uppersets
from toricnccr.uppersets import _classes, _minimal_codes, _swap_up

from toricnccr import (
    FGGroup,
    NotMinimal,
    Rim,
    RimStatus,
    exchange_graph,
    grading_context,
    is_nccr,
    minimal_elements,
    mutate,
    normalize,
    preimage_summands,
    rim_status,
    translation_classes,
    validate,
)
from conftest import (
    EXPECTED_CLASS_COUNTS,
    LADDER,
    entry_index,
    in_upper_set,
    is_mutation_step,
    ladder_context,
    leq,
    make_rim,
    minimal_by_tau,
    orbit_reps,
    rank_one_systems,
    rim_of_upper_closure,
    sample_elements,
    tau_table,
    torsion_ladder_context,
    translate,
)

def els(ctx, *free_parts):
    return [ctx.element(f) for f in free_parts]


def normalize_by_torsion_shifts(ctx, rim):
    """Canonical-form oracle, independent of the zero translates in
    ``normalize``: move the minimum free part to 0, then take the smallest
    serialization over every torsion shift of H."""
    min_free = min(e.free for e in rim)
    translates = (
        translate(rim, ctx.element(-min_free, t)) for t in ctx.group.torsion_residues()
    )
    return min(translates, key=Rim.serialized)


def stabilizer_order_by_translates(rim):
    """Stabilizer oracle: count the translations taking the first rim element
    to some rim element that map the whole rim onto itself."""
    elems = set(rim.elements)
    base = rim.elements[0]
    return sum(1 for e in rim.elements if {x + e - base for x in rim.elements} == elems)


def translation_classes_by_scan(ctx):
    """Class oracle: a windowed product scan, independent of the
    difference-constraint solver in ``translation_classes``.

    Pins the orbit of zero at the zero element and confines every other
    orbit's shift to the window where neither domination against zero is
    automatic (outside it, the difference's free part clears the conductor),
    with one unit of slack on each side.  The product is filtered by the full
    pairwise rim condition, then normalized by the torsion-shift oracle.  A
    class whose rim has stabilizer S is hit once per rim element up to S,
    i.e. ``orbit_count / |S|`` times, which gives the stabilizer order.
    Returns ``{serialized canonical rim: stabilizer order}``.
    """
    p = ctx.p
    pf = p.free
    cmax = ctx.max_conductor
    anchor = ctx.group.zero()
    others = [r for r in orbit_reps(ctx) if not r.is_zero()]
    windows = []
    for rep in others:
        lo = (-rep.free - cmax) // pf - 1
        hi = -((rep.free - cmax) // pf) + 1
        windows.append([rep + n * p for n in range(lo, hi + 1)])
    hits = Counter()
    for combo in product(*windows):
        elems = (anchor,) + combo
        if not any(ctx.member(x - y - p) for x in elems for y in elems):
            rim = Rim(tuple(sorted(elems, key=lambda e: e.key())))
            hits[normalize_by_torsion_shifts(ctx, rim).serialized()] += 1
    assert all(ctx.orbit_count % h == 0 for h in hits.values())
    return {key: ctx.orbit_count // h for key, h in hits.items()}


def least_shift_by_elements(ctx, delta):
    """The least ``m`` with ``delta + m*p`` in the monoid, by element arithmetic."""
    m = -(delta.free // ctx.p.free)  # first m with free part >= 0
    h = delta + m * ctx.p
    while h.free < ctx.max_conductor and not ctx.member(h):
        h += ctx.p
        m += 1
    return m


def translation_classes_by_closure(ctx):
    """Class oracle: the element-based solver the package once used.

    Tabulates ``tau(a, b)`` with one least shift per pair of orbit
    representatives, adds ``n_0 - n_a <= 0``, closes the table by
    Floyd-Warshall and backtracks over the offset vectors, keeping each rim
    that is the smallest of its zero translates.  Returns ``(rim,
    stabilizer order)`` pairs in canonical order.
    """
    reps = orbit_reps(ctx)
    k = len(reps)
    d = [[least_shift_by_elements(ctx, ra - rb) for rb in reps] for ra in reps]
    d[0] = [min(x, 0) for x in d[0]]
    for c in range(k):
        for a in range(k):
            d[a] = [min(x, d[a][c] + y) for x, y in zip(d[a], d[c])]
    assert all(d[a][a] >= 0 for a in range(k)), "no complete rim"
    classes = []
    stack = [(0,)]
    while stack:
        n = stack.pop()
        c = len(n)
        if c == k:
            rim = Rim(tuple(sorted((r + m * ctx.p for r, m in zip(reps, n)), key=lambda e: e.key())))
            low = min(e.free for e in rim)
            keys = [translate(rim, -x).serialized() for x in rim if x.free == low]
            if min(keys) == rim.serialized():
                classes.append((rim, keys.count(rim.serialized())))
            continue
        lo = max(n[b] - d[b][c] for b in range(c))
        hi = min(n[b] + d[c][b] for b in range(c))
        stack.extend(n + (m,) for m in range(lo, hi + 1))
    return sorted(classes, key=lambda cls: cls[0].serialized())


def minimal_elements_by_leq(ctx, rim):
    """Minimal-element oracle: every pair of rim elements compared by ``leq``."""
    return tuple(m for m in rim if not any(j != m and leq(ctx, j, m) for j in rim))


def assert_matches_closure(ctx, edge_limit=None):
    """Classes, rims, stabilizer orders, exchange-graph edges and minimal
    elements agree with the element-based oracles; the edges and minimal
    elements (about 15 ms a class on 24 orbits) only up to ``edge_limit``
    classes."""
    expected = translation_classes_by_closure(ctx)
    classes = translation_classes(ctx)
    assert [(c.rim.elements, c.stabilizer_order) for c in classes] == [
        (rim.elements, order) for rim, order in expected
    ]
    if edge_limit is not None and len(expected) > edge_limit:
        return
    index = {rim.serialized(): i for i, (rim, _) in enumerate(expected)}
    edges = []
    for i, (rim, _) in enumerate(expected):
        minimal = minimal_elements_by_leq(ctx, rim)
        assert minimal_elements(ctx, rim) == minimal
        for m in minimal:
            mutated = mutate(ctx, rim, m)
            assert minimal_elements(ctx, mutated) == minimal_elements_by_leq(ctx, mutated)
            edges.append((i, index[normalize_by_torsion_shifts(ctx, mutated).serialized()], m))
    assert exchange_graph(ctx).edges == tuple(edges)


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
        gens = sample_elements(ctx, 2, rng, span=4)
        rim = rim_of_upper_closure(ctx, gens)
        for x in sample_elements(ctx, 40, rng, span=4):
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
            gens = sample_elements(ctx, rng.randint(1, 3), rng, span=5)
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

    def test_partial_rim_rejected(self, ca4):
        partial = Rim(tuple(els(ca4, 0, 1)))  # a rim holds no completeness flag
        assert rim_status(ca4, partial.elements).status is RimStatus.PARTIAL
        with pytest.raises(NotMinimal, match="^mutation needs a complete rim$"):
            mutate(ca4, partial, ca4.element(0))

    def test_invalid_rim_rejected(self, ca4):
        # one element per orbit, yet (5) >= (0) + p: the count alone passes it
        invalid = Rim(tuple(els(ca4, 0, 1, 2, 3, 5)))
        assert rim_status(ca4, invalid.elements).status is RimStatus.INVALID
        with pytest.raises(NotMinimal, match=r"^\(5\) >= \(0\) \+ p: not a rim$"):
            mutate(ca4, invalid, ca4.element(1))

    def test_bookkeeping(self, ctx):
        rng = random.Random(f"mutation-{ctx.group}")
        for _ in range(40):
            gens = sample_elements(ctx, rng.randint(1, 3), rng, span=4)
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
            gens = sample_elements(ctx, 2, rng, span=4)
            rim = rim_of_upper_closure(ctx, gens)
            h = sample_elements(ctx, 1, rng, span=4)[0]
            for m in minimal_elements(ctx, rim):
                left = mutate(ctx, translate(rim, h), m + h)
                right = translate(mutate(ctx, rim, m), h)
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
        others = [r for r in orbit_reps(ctx) if not r.is_zero()]
        shift_range = range(-span, span + 1)
        found = set()
        for shifts in product(shift_range, repeat=len(others)):
            elems = [ctx.group.zero()] + [
                rep + n * ctx.p for rep, n in zip(others, shifts)
            ]
            if rim_status(ctx, elems).status is RimStatus.COMPLETE:
                rim = Rim(tuple(sorted(elems, key=lambda e: e.key())))
                found.add(normalize_by_torsion_shifts(ctx, rim).serialized())
        expected = {cls.rim.serialized() for cls in translation_classes(ctx)}
        assert found == expected


def assert_normalize_matches_oracle(ctx, rng):
    """``normalize`` of a random translate equals the torsion-shift oracle, on
    every class rim and every rim one mutation away from it."""
    residues = list(ctx.group.torsion_residues())
    nonzero = residues[1:] or residues  # residues[0] is the zero residue
    rims = []
    for cls in translation_classes(ctx):
        rims.append(cls.rim)
        rims.extend(mutate(ctx, cls.rim, m) for m in minimal_elements(ctx, cls.rim))
    for rim in rims:
        expected = normalize_by_torsion_shifts(ctx, rim).elements
        for _ in range(3):
            t = ctx.element(rng.randint(-9, 9), rng.choice(nonzero))
            assert normalize(ctx, translate(rim, t)).elements == expected


def assert_minimal_matches_tau(ctx):
    """``_minimal_codes`` equals the tau-sum oracle on every class rim and on
    every rim one mutation away from it."""
    tau = tau_table(ctx)
    for rim, _ in _classes(ctx):
        minimal = _minimal_codes(ctx, rim)
        assert minimal == minimal_by_tau(ctx, tau, rim)
        for c in minimal:
            mutated = _swap_up(ctx, rim, c)
            assert _minimal_codes(ctx, mutated) == minimal_by_tau(ctx, tau, mutated)


class TestMinimalByTau:
    def test_fixtures(self, ctx):
        assert_minimal_matches_tau(ctx)

    @pytest.mark.parametrize("key", sorted(LADDER))
    def test_ladder(self, key):
        assert_minimal_matches_tau(ladder_context(key))

    def test_torsion_system_with_stabilizers(self):
        assert_minimal_matches_tau(torsion_ladder_context())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=4))
    def test_random_systems(self, ws):
        ctx = grading_context(ws)
        assume(ctx.orbit_count <= 12)
        assert_minimal_matches_tau(ctx)


class TestCanonicalForm:
    def test_fixtures(self, system_key, ctx):
        assert_normalize_matches_oracle(ctx, random.Random(f"canonical-{system_key}"))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=4))
    def test_random_systems(self, ws):
        ctx = grading_context(ws)
        assume(ctx.orbit_count <= 12)
        assert_normalize_matches_oracle(ctx, random.Random(str(ws.weights)))


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
    the scan's, the other counts agree with mutation BFS."""

    @pytest.mark.parametrize(
        "key,orbits,count", [("w3535", 8, 7), ("w4577", 11, 8), ("w40", 41, 1)]
    )
    def test_classes(self, key, orbits, count):
        ctx = ladder_context(key)
        assert ctx.orbit_count == orbits
        assert len(translation_classes(ctx)) == count
        assert_graph_is_mutation_closure(ctx)

    def test_torsion_system_with_stabilizers(self):
        ctx = torsion_ladder_context()
        assert ctx.orbit_count == 24
        classes = translation_classes(ctx)
        assert len(classes) == 146
        orders = [cls.stabilizer_order for cls in classes]
        assert orders == [stabilizer_order_by_translates(cls.rim) for cls in classes]
        assert Counter(orders) == {1: 144, 3: 2}
        assert_graph_is_mutation_closure(ctx)


class TestClosureOracle:
    """The code-based solver against the element-based Floyd-Warshall one."""

    def test_fixtures(self, ctx):
        assert_matches_closure(ctx)

    @pytest.mark.parametrize("key", ["w2357", "w2525", "w3535", "w4577", "w40", "w6"])
    def test_ladder(self, key):
        assert_matches_closure(ladder_context(key))

    def test_torsion_system_with_stabilizers(self):
        assert_matches_closure(torsion_ladder_context())

    @pytest.mark.parametrize("key", ["w40", "torsion"])
    def test_one_least_shift_per_orbit(self, key, monkeypatch):
        ctx = torsion_ladder_context() if key == "torsion" else ladder_context(key)
        calls = []
        least_shift = toricnccr.uppersets._least_shift
        monkeypatch.setattr(
            toricnccr.uppersets, "_least_shift", lambda ctx, c: calls.append(c) or least_shift(ctx, c)
        )
        translation_classes(ctx)
        assert sorted(calls) == list(range(ctx.orbit_count))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems(torsions=((), (2,), (3,), (4,))))
    def test_random_systems(self, ws):
        ctx = grading_context(ws)
        assume(ctx.orbit_count <= 24)
        assert_matches_closure(ctx, edge_limit=200)


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
