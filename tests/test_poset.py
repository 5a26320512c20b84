"""Order, monoid membership, conductor, axioms and orbit decomposition."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricnccr import (
    AxiomViolation,
    FGGroup,
    InputError,
    check_axioms,
    grading_context,
    validate,
)
from conftest import build_context


def member_by_search(ctx, h):
    """Membership oracle: exhaustive search over coefficient vectors.

    The generators' free parts are positive, so the free part of ``h`` bounds
    the total budget and the search is finite.  Independent of the
    reachability table that ``ctx.member`` reads.
    """
    if h.free < 0:
        return False
    dims = ctx.group.torsion
    gens = [(g.free, g.tors) for g in ctx.generators]

    def search(idx, f, t):
        if idx == len(gens):
            return f == 0 and not any(t)
        gf, gt = gens[idx]
        for c in range(f // gf + 1):
            rest = tuple((x - c * y) % d for x, y, d in zip(t, gt, dims))
            if search(idx + 1, f - c * gf, rest):
                return True
        return False

    return search(0, h.free, h.tors)


def assert_member_matches_search(ctx):
    bound = 2 * ctx.max_conductor + 2 * ctx.p.free + 2
    for f in range(-3, bound + 1):
        for t in ctx.group.torsion_residues():
            h = ctx.element(f, t)
            assert ctx.member(h) == member_by_search(ctx, h), h


def assert_conductor_sound_and_minimal(ctx):
    """Below each coset's conductor one element is missing; from it on, a run
    long enough to shift by a torsion-free multiple of a generator is present,
    so every larger free part is present too."""
    g = min(ctx.generators, key=lambda g: g.free)
    run = g.free * ctx.element(0, g.tors).order()
    for t, c in ctx.conductor.items():
        assert all(member_by_search(ctx, ctx.element(f, t)) for f in range(c, c + run))
        if c > 0:
            assert not member_by_search(ctx, ctx.element(c - 1, t))


@st.composite
def rank_one_systems(draw):
    """Valid rank-one systems: 4-6 weights, free parts in -5..5, torsion none,
    Z/2 or Z/3; the last weight completes the zero sum."""
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    n = draw(st.integers(4, 6))
    weight = st.tuples(st.integers(-5, 5), *(st.integers(0, d - 1) for d in torsion))
    vecs = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    last = [-sum(v[i] for v in vecs) for i in range(1 + len(torsion))]
    assume(abs(last[0]) <= 5)
    group = FGGroup(1, torsion)
    try:
        return validate(group, [group.from_vector(v) for v in vecs + [last]])
    except InputError:
        assume(False)


class TestMembership:
    def test_ca4_gaps(self, ca4):
        member = {f for f in range(-3, 13) if ca4.member(ca4.element(f))}
        assert member == {0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

    def test_zero_is_member(self, ctx):
        assert ctx.member(ctx.group.zero())

    def test_z2_single_generator_hit(self, z2):
        assert z2.member(z2.element(1, (1,)))
        assert not z2.member(z2.element(0, (1,)))

    def test_agrees_with_reachability_table(self, ctx):
        # member reads the reachability table; the coefficient search is the oracle
        assert_member_matches_search(ctx)

    def test_antisymmetry_on_samples(self, ctx):
        rng = random.Random(3)
        for x in ctx.sample_elements(150, rng):
            if ctx.member(x) and ctx.member(-x):
                assert x.is_zero()


class TestOrder:
    def test_reflexive(self, ctx):
        rng = random.Random(4)
        for x in ctx.sample_elements(30, rng):
            assert ctx.leq(x, x)

    def test_ca4_examples(self, ca4):
        zero = ca4.group.zero()
        assert ca4.leq(zero, ca4.element(5))
        assert not ca4.leq(zero, ca4.element(1))

    def test_transitive_on_samples(self, ctx):
        rng = random.Random(9)
        elems = ctx.sample_elements(60, rng, span=6)
        for _ in range(300):
            x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            if ctx.leq(x, y) and ctx.leq(y, z):
                assert ctx.leq(x, z)


class TestConductor:
    @pytest.mark.parametrize(
        "key,expected",
        [
            ("a1", {(): 0}),
            ("ca4", {(): 2}),
            ("z2", {(0,): 0, (1,): 1}),
            ("z3", {(0,): 0, (1,): 1, (2,): 1}),
            ("z4", {(0,): 0, (1,): 1}),
        ],
    )
    def test_known_tables(self, key, expected):
        assert build_context(key).conductor == expected

    def test_full_monoid_single_generator(self):
        g = FGGroup(1, ())
        ws = validate(g, [g.element(1), g.element(1), g.element(-1), g.element(-1)])
        assert grading_context(ws).conductor == {(): 0}

    def test_soundness(self, ctx):
        for t, c in ctx.conductor.items():
            for f in range(c, c + 2 * ctx.p.free + 1):
                assert member_by_search(ctx, ctx.element(f, t))

    def test_minimality(self, ctx):
        for t, c in ctx.conductor.items():
            if c > 0:
                assert not member_by_search(ctx, ctx.element(c - 1, t))


class TestRandomSystems:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rank_one_systems())
    def test_member_agrees_with_coefficient_search(self, ws):
        assert_member_matches_search(grading_context(ws))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rank_one_systems())
    def test_conductor_sound_and_minimal(self, ws):
        assert_conductor_sound_and_minimal(grading_context(ws))


class TestOrbits:
    @pytest.mark.parametrize("key,count", [("a1", 2), ("ca4", 5), ("z4", 4), ("z3", 6)])
    def test_counts(self, key, count):
        assert build_context(key).orbit_count == count

    def test_reps_are_complete_and_reconstruct(self, ctx):
        reps = ctx.orbit_reps()
        assert len(reps) == ctx.orbit_count
        rng = random.Random(8)
        for h in ctx.sample_elements(120, rng):
            rep, n = ctx.orbit_of(h)
            assert rep in reps
            assert rep + n * ctx.p == h


class TestAxioms:
    def test_pass_on_examples(self, ctx):
        report = check_axioms(ctx, 200, seed=13)
        assert report.samples == 200

    def test_rigged_period_fails(self, a1):
        ws = a1.weights
        rigged = grading_context(ws)
        rigged.p = rigged.group.zero()
        with pytest.raises(AxiomViolation):
            check_axioms(rigged, 10, seed=1)
