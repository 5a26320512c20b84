"""Integer codes, order, monoid membership, conductor, axioms and orbit decomposition."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricnccr import (
    AxiomReport,
    AxiomViolation,
    FGGroup,
    MismatchedGroup,
    check_axioms,
    grading_context,
    is_mcm,
    validate,
)
from toricnccr.poset import IntegerCodes
from conftest import (
    LADDER,
    build_context,
    check_axioms_by_sampling,
    huge_kernel_system,
    kernel_systems,
    ladder_context,
    leq,
    orbit_of,
    orbit_reps,
    rank_one_systems,
    sample_elements,
)


def member_by_search(ctx, h):
    """Membership oracle: exhaustive search over coefficient vectors.

    The generators' free parts are positive, so the free part of ``h`` bounds
    the total budget and the search is finite.  Independent of the
    least-code table that ``ctx.member`` reads.
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
def code_cases(draw):
    """A rank-one group (up to three invariant factors) with two of its elements."""
    torsion = draw(
        st.sampled_from([(), (2,), (3,), (4,), (7,), (2, 2), (2, 4), (3, 3), (3, 6), (2, 2, 4)])
    )
    group = FGGroup(1, torsion)

    def element():
        return group.element(
            draw(st.integers(-20, 20)), [draw(st.integers(0, d - 1)) for d in torsion]
        )

    return IntegerCodes(group), element(), element()


class TestIntegerCodes:
    @settings(max_examples=300, derandomize=True)
    @given(code_cases())
    def test_encoding(self, case):
        codes, h, x = case
        c = codes.code(h)
        assert codes.element(c) == h
        assert c // codes.order == h.free
        assert (c < codes.code(x)) == (h.key() < x.key())
        assert codes.code(h + x) == c + codes.steps(x)[c % codes.order]
        assert codes.code(h - x) == codes.sub(c, codes.code(x))

    def test_foreign_element_raises(self):
        codes = IntegerCodes(FGGroup(1, (2,)))
        with pytest.raises(MismatchedGroup):
            codes.code(FGGroup(1, (3,)).element(0, (1,)))

    def test_codes_follow_residue_order(self):
        codes = IntegerCodes(FGGroup(1, (2, 4)))
        keys = [codes.element(c).key() for c in range(-8, 16)]
        residues = list(codes.group.torsion_residues())
        assert keys == sorted((f, *t) for f in (-1, 0, 1) for t in residues)


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
        # member reads the least-code table; the coefficient search is the oracle
        assert_member_matches_search(ctx)

    @pytest.mark.parametrize("key", ["z2", "ca4"])
    def test_element_of_another_group_raises(self, key):
        other = FGGroup(1, (3,)).element(0, (1,))
        with pytest.raises(MismatchedGroup):
            build_context(key).member(other)

    def test_antisymmetry_on_samples(self, ctx):
        rng = random.Random(3)
        for x in sample_elements(ctx, 150, rng):
            if ctx.member(x) and ctx.member(-x):
                assert x.is_zero()


class TestOrder:
    def test_reflexive(self, ctx):
        rng = random.Random(4)
        for x in sample_elements(ctx, 30, rng):
            assert leq(ctx, x, x)

    def test_ca4_examples(self, ca4):
        zero = ca4.group.zero()
        assert leq(ca4, zero, ca4.element(5))
        assert not leq(ca4, zero, ca4.element(1))

    def test_transitive_on_samples(self, ctx):
        rng = random.Random(9)
        elems = sample_elements(ctx, 60, rng, span=6)
        for _ in range(300):
            x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            if leq(ctx, x, y) and leq(ctx, y, z):
                assert leq(ctx, x, z)


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

    def test_least_generator_with_torsion(self):
        # generators (1;1) and (3;0): E = 1·ord(1) = 2 < 3, so N = 4, not 1·|T|
        g = FGGroup(1, (2,))
        ws = validate(g, [g.from_vector(v) for v in [(1, 1), (3, 0), (-1, 1), (-3, 0)]])
        ctx = grading_context(ws)
        assert len(ctx.least) == 4
        assert ctx.conductor == {(0,): 2, (1,): 3}
        assert_member_matches_search(ctx)
        assert_conductor_sound_and_minimal(ctx)

    @pytest.mark.parametrize("d", [1009, 10007, 100003])
    def test_huge_torsion(self, d):
        # the monoid of (1;0), (1;1) is {(f; t) : 0 <= t <= f}, and p = (2; 1)
        g = FGGroup(1, (d,))
        ws = validate(g, [g.from_vector(v) for v in [(1, 0), (1, 1), (-1, 0), (-1, -1)]])
        start = time.perf_counter()
        ctx = grading_context(ws)
        assert time.perf_counter() - start < (1 if d < 10**5 else 5)
        assert all(ctx.conductor[(t,)] == t for t in range(d))
        frees = (-1, 0, 1, 2, d // 2, d - 1, d, 3 * d)
        for f in frees:
            for t in {0, 1, f - 1, f, f + 1, d - 1} & set(range(d)):
                assert ctx.member_code(f * d + t) == (0 <= t <= f), (f, t)

        def member(f, t):
            return 0 <= t % d <= f

        codes, samples = ctx.codes, [(f, t) for f in frees for t in (0, 1, d // 2, d - 1)]
        for f1, t1 in samples:
            for f2, t2 in samples:
                assert codes.sub(f1 * d + t1, f2 * d + t2) == (f1 - f2) * d + (t1 - t2) % d
            g1 = g.element(f1, (t1,))
            assert is_mcm(ctx, g1) == (not member(f1 - 2, t1 - 1) and not member(-2 - f1, -1 - t1))

    @pytest.mark.parametrize("d", [1009, 100003, 1000003])
    def test_huge_kernel(self, d):
        # q sends (f; t) to (f), so H = Z and p = (2); the kernel is never listed
        ws = huge_kernel_system(d)
        start = time.perf_counter()
        ctx = grading_context(ws)
        assert time.perf_counter() - start < 1
        assert ctx.q.kernel_order == d
        assert (ctx.group, ctx.p, ctx.orbit_count) == (FGGroup(1, ()), ctx.element(2), 2)

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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems(max_free=3, torsions=((4,), (2, 2), (2, 4))))
    def test_member_and_conductor_on_wider_torsion(self, ws):
        ctx = grading_context(ws)
        assert_member_matches_search(ctx)
        assert_conductor_sound_and_minimal(ctx)


class TestOrbits:
    @pytest.mark.parametrize("key,count", [("a1", 2), ("ca4", 5), ("z4", 4), ("z3", 6)])
    def test_counts(self, key, count):
        assert build_context(key).orbit_count == count

    def test_reps_are_complete_and_reconstruct(self, ctx):
        reps = orbit_reps(ctx)
        assert len(reps) == ctx.orbit_count
        rng = random.Random(8)
        for h in sample_elements(ctx, 120, rng):
            rep, n = orbit_of(ctx, h)
            assert rep in reps
            assert rep + n * ctx.p == h


def assert_certificate_agrees_with_sampling(ctx):
    """The exact certificate passes where the sampled oracle does, and its
    conductor is tight: one run of ``N`` codes from ``max_conductor`` on is in
    the monoid (so every larger code is), and a code of free part
    ``max_conductor - 1`` is not."""
    assert check_axioms(ctx) == AxiomReport(ctx.p, ctx.max_conductor)
    check_axioms_by_sampling(ctx, 100, seed=13)
    order, top = ctx.codes.order, ctx.max_conductor * ctx.codes.order
    assert all(ctx.member_code(c) for c in range(top, top + len(ctx.least)))
    if ctx.max_conductor > 0:
        assert not all(ctx.member_code(c) for c in range(top - order, top))


class TestImmutableContext:
    def test_assignment_and_deletion_raise(self, ctx):
        # p_code and plus_p are derived from p, so a new p would leave them stale
        with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
            ctx.p = ctx.p
        with pytest.raises(AttributeError, match="cannot delete field 'p_code'"):
            del ctx.p_code
        assert ctx.codes.code(ctx.p) == ctx.p_code

    def test_cached_fields_still_build(self, z4):
        context = grading_context(z4.weights)
        assert "conductor" not in vars(context)
        assert context.conductor == z4.conductor
        assert context.conductor is context.conductor


class TestAxioms:
    def test_pass_on_examples(self, ctx):
        report = check_axioms(ctx)
        assert (report.period, report.conductor) == (ctx.p, ctx.max_conductor)

    def test_rigged_period_fails(self, a1):
        ws = a1.weights
        rigged = grading_context(ws)
        # the context refuses assignment; check_axioms reads the code
        object.__setattr__(rigged, "p", rigged.group.zero())
        object.__setattr__(rigged, "p_code", rigged.codes.code(rigged.p))
        with pytest.raises(AxiomViolation):
            check_axioms(rigged)
        with pytest.raises(AxiomViolation):
            check_axioms_by_sampling(rigged, 10, seed=1)

    def test_negated_period_fails(self, z3):
        rigged = grading_context(z3.weights)
        object.__setattr__(rigged, "p", -rigged.p)
        object.__setattr__(rigged, "p_code", rigged.codes.code(rigged.p))
        with pytest.raises(AxiomViolation):
            check_axioms(rigged)
        with pytest.raises(AxiomViolation):
            check_axioms_by_sampling(rigged, 10, seed=1)

    def test_agrees_with_sampling_on_examples(self, ctx):
        assert_certificate_agrees_with_sampling(ctx)

    @pytest.mark.parametrize("key", sorted(LADDER))
    def test_agrees_with_sampling_on_ladder(self, key):
        assert_certificate_agrees_with_sampling(ladder_context(key))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rank_one_systems())
    def test_agrees_with_sampling_on_random_systems(self, ws):
        assert_certificate_agrees_with_sampling(grading_context(ws))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kernel_systems())
    def test_agrees_with_sampling_with_a_kernel(self, ws):
        assert_certificate_agrees_with_sampling(grading_context(ws))
